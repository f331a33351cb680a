"""Deterministic hourly day-ahead clearing with flexible-ramp awards.

Co-optimizes energy and hourly up/down ramping capability against fixed
bid-in net demand. Ramp awards are tied to what the unit could actually do
between consecutive hours given its commitment path, so awards around
startups and shutdowns are signed: a unit scheduled to come offline next hour
carries a negative up award by construction. Systemwide requirements may be
relaxed through shortfall slacks at the configured penalty.

Prices come from a second solve: the on/off binaries are frozen at the
incumbent, which leaves the continuous start/stop variables one feasible
value, and the continuous relaxation is re-solved, giving locational energy
prices (duals of the bid equalities) and hourly ramp prices (duals of the
requirement rows).

A prior commitment schedule can be imposed as a floor on the on-binaries,
which is how the stochastic pass's priority commitments are carried into the
market run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import network, optim
from .stochastic_uc import (
    add_commitment_block,
    commitment_logic_residual,
    commitment_schedule,
)

__all__ = [
    "DamBidSet",
    "DamOutcome",
    "clear_dam",
    "check_dam_outcome",
    "save_dam_outcome",
    "load_dam_outcome",
]


@dataclass
class DamBidSet:
    """Hourly bid-in net demand per bus, shape (n_buses, hours)."""

    buses: tuple
    values: np.ndarray

    def __post_init__(self):
        self.buses = tuple(self.buses)
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.values.shape[0] != len(self.buses):
            raise ValueError("one demand row per bus required")

    @property
    def hours(self):
        return self.values.shape[1]


@dataclass
class DamOutcome:
    gen_ids: list
    bus_ids: list
    hours: int
    u: np.ndarray  # (gens, hours)
    v: np.ndarray
    w: np.ndarray
    p: np.ndarray  # dispatch above minimum, MW
    r_up: np.ndarray  # ramp-up awards, MW (signed)
    r_dn: np.ndarray  # ramp-down awards, MW (signed)
    sf_up: np.ndarray  # (hours,) requirement shortfall, MW
    sf_dn: np.ndarray
    curtail: np.ndarray  # (buses, hours) MW
    demand: np.ndarray  # (buses, hours) cleared bid-in net demand
    lmp: np.ndarray  # (buses, hours) $/MWh
    price_up: np.ndarray  # (hours,) $/MW ramp-up capability
    price_dn: np.ndarray
    objective: float
    pricing_objective: float
    mip_gap: float | None
    # solves made while screening line flows (clearing and pricing together)
    # and the flow rows they added
    screen_rounds: int = 0
    flow_rows: int = 0
    # rows, cols, nnz and binaries of the clearing MILP in its last solve
    size: dict = field(default_factory=dict)
    # highs_s, mip_node_count and mip_dual_bound of the clearing MILP over
    # its screening rounds (see optim.MilpTotals); empty in older files
    milp: dict = field(default_factory=dict)

    def dispatch_total(self, system):
        p_min = np.array([g.p_min for g in system.generators])
        return self.p + p_min[:, None] * self.u


def _award_rows(g):
    """The ramp-award rows of one unit for the hour pair (h, h+1), as
    (sense, rhs, terms). A term is (variable, hour offset, coefficient) over
    the unit's p, rup, rdn, u, v and w; the last two rows exist only while
    h+2 is in the day."""
    rd, ru, su, sd = g.ramp_down, g.ramp_up, g.startup_limit, g.shutdown_limit
    p_min, p_max = g.p_min, g.p_max
    return [
        # fud_lo, fu_ramp, fu_cap
        (">=", 0.0, [("rup", 0, 1.0), ("u", 0, rd), ("w", 1, -(rd - sd)), ("v", 1, -p_min)]),
        ("<=", 0.0, [("rup", 0, 1.0), ("u", 1, -ru), ("v", 1, -(su - ru))]),
        ("<=", 0.0, [("rup", 0, 1.0), ("u", 1, -p_max), ("u", 0, p_min)]),
        # fd_ramp, fd_hi, fd_cap
        (">=", 0.0, [("rdn", 0, 1.0), ("u", 1, ru), ("v", 1, -(ru - su))]),
        ("<=", 0.0, [("rdn", 0, 1.0), ("u", 0, -rd), ("w", 1, -(sd - rd)), ("v", 1, p_min)]),
        (">=", 0.0, [("rdn", 0, 1.0), ("u", 1, p_max), ("u", 0, -p_min)]),
        # fup_lo, fup_hi, fdp_lo, fdp_hi
        (">=", -p_min, [("rup", 0, 1.0), ("p", 0, 1.0), ("u", 1, -p_min)]),
        ("<=", p_max, [("rup", 0, 1.0), ("p", 0, 1.0), ("u", 0, p_min), ("v", 1, -(su - p_max))]),
        (">=", -p_min, [("rdn", 0, -1.0), ("p", 0, 1.0), ("u", 1, -p_min)]),
        ("<=", p_max, [("rdn", 0, -1.0), ("p", 0, 1.0), ("u", 0, p_min), ("v", 1, -(su - p_max))]),
        # fup_stop, fdp_stop
        ("<=", p_max, [("rup", 0, 1.0), ("p", 0, 1.0), ("w", 2, p_max - sd)]),
        ("<=", p_max, [("rdn", 0, -1.0), ("p", 0, 1.0), ("w", 2, p_max - sd)]),
    ]


def _build(system, bids, req, fix_commitments):
    """The clearing model, without line-flow rows, and its column and row
    indices: the bid rows (buses, hours) give the LMPs, the requirement rows
    (hours, up/down) the ramp prices."""
    hours = bids.hours
    gens = system.generators
    model = optim.Model("dam")
    u, v, w = add_commitment_block(model, gens, hours, u_floor=fix_commitments)

    n_g, n_b = len(gens), len(system.buses)
    p = np.empty((n_g, hours), dtype=int)
    r_up = np.empty((n_g, hours), dtype=int)
    r_dn = np.empty((n_g, hours), dtype=int)
    hs = np.arange(hours)
    first = hs == 0
    prev = (hs - 1).clip(0)
    pairs = hs[:-1]  # hour h of each (h, h+1) pair
    ramp_sense = np.tile(np.array(["<=", "<="]), (hours, 1))
    ramp_sense[0, 1] = ">="
    for i, g in enumerate(gens):
        # per hour: p, rup, rdn, then one column per offer segment
        widths = np.diff([seg.upper for seg in g.segments], prepend=0.0)
        cols = model.add_vars(
            f"prr[{g.id}]", (hours, 3 + len(widths)),
            lb=np.concatenate([[0.0, -np.inf, -np.inf], np.zeros(len(widths))]),
            ub=np.concatenate([[g.dispatch_range, np.inf, np.inf], widths]),
            obj=np.concatenate([[0.0, 0.0, 0.0], [seg.cost for seg in g.segments]]),
        )
        p[i], r_up[i], r_dn[i] = cols[:, 0], cols[:, 1], cols[:, 2]
        pi, ui, vi, wi = p[i], u[i], v[i], w[i]
        model.add_rows(
            f"segcap[{g.id}]", np.array(["==", "<="]), 0.0,
            *optim.stack_rows(
                [(pi, 1.0)] + [(seg, -1.0) for seg in cols[:, 3:].T],
                [(pi, 1.0), (ui, -g.dispatch_range)],
            ),
        )

        # rampup, rampdn; hour 0 runs from the initial state
        p0 = g.initial.dispatch_above_min
        u0 = 1.0 if g.initial.on else 0.0
        lift = -(g.startup_limit - g.p_min)
        model.add_rows(
            f"ramp[{g.id}]", ramp_sense,
            np.column_stack([
                np.where(first, p0 + g.ramp_up * u0, 0.0),
                np.where(first, p0 - g.ramp_down * u0, 0.0),
            ]),
            *optim.stack_rows(
                [
                    (pi, 1.0),
                    (np.where(first, vi, pi[prev]), np.where(first, lift, -1.0)),
                    (ui[prev], np.where(first, 0.0, -g.ramp_up)),
                    (vi, np.where(first, 0.0, lift)),
                ],
                [
                    (pi[prev], 1.0),
                    (np.where(first, wi, pi), np.where(first, -(g.ramp_down - p0), -1.0)),
                    (ui[prev], np.where(first, 0.0, -g.ramp_down)),
                    (wi, np.where(first, 0.0, -g.dispatch_range)),
                ],
            ),
        )
        model.add_rows(
            f"stopcap[{g.id}]", "<=", g.dispatch_range,
            *optim.stack_rows(
                [(pi[pairs], 1.0), (wi[pairs + 1], g.p_max - g.shutdown_limit)]
            ),
        )

        # ramp awards tied to the unit's feasible hour-to-hour movement
        var = {"p": pi, "rup": r_up[i], "rdn": r_dn[i], "u": ui, "v": vi, "w": wi}
        rows = _award_rows(g)
        cols, coefs = optim.stack_rows(*(
            [(var[x][np.minimum(pairs + ahead, hours - 1)], c) for x, ahead, c in terms]
            for _, _, terms in rows
        ))
        keep = np.ones((len(pairs), len(rows)), dtype=bool)
        keep[:, -2:] = (pairs < hours - 2)[:, None]
        model.add_rows(
            f"award[{g.id}]",
            np.broadcast_to([sense for sense, _, _ in rows], keep.shape)[keep],
            np.broadcast_to([rhs for _, rhs, _ in rows], keep.shape)[keep],
            cols[keep],
            coefs[keep],
        )

    pcd = model.add_vars(
        "pcd", (n_b, hours, 2), lb=[0.0, -np.inf], obj=[system.curtailment_penalty, 0.0]
    )
    pc, d = pcd[..., 0], pcd[..., 1]
    bid = model.add_rows("bid", "==", bids.values, d[..., None], 1.0)

    p_min = np.array([g.p_min for g in gens])
    model.add_rows(
        "bal", "==", 0.0,
        np.concatenate([p, u, pc, d]).T,
        np.concatenate([np.ones(n_g), p_min, np.ones(n_b), -np.ones(n_b)]),
    )

    sf = model.add_vars("sf", (hours, 2), obj=system.frp_shortfall_penalty)
    sf_up, sf_dn = sf[:, 0], sf[:, 1]
    reqs = model.add_rows(
        "req", ">=", np.column_stack([req.up, req.dn]),
        np.stack([
            np.column_stack([r_up.T, sf_up]),
            np.column_stack([r_dn.T, sf_dn]),
        ], axis=1),
        1.0,
    )

    idx = {
        "u": u, "v": v, "w": w, "p": p, "r_up": r_up, "r_dn": r_dn,
        "pc": pc, "d": d, "sf_up": sf_up, "sf_dn": sf_dn, "bid": bid, "req": reqs,
    }
    return model, idx


def clear_dam(
    system,
    bids,
    req,
    fix_commitments=None,
    gap_tol=1e-6,
    time_limit=None,
    dump_lp=None,
):
    """Clear the day-ahead market and price it.

    Returns a DamOutcome holding awards from the MIP incumbent and prices
    from the frozen-binary re-solve. Line-flow rows are screened in both
    solves (see `network`); ``dump_lp`` receives the final screened model.
    """
    if tuple(bids.buses) != tuple(system.bus_ids):
        raise ValueError("bid buses do not match system buses")
    if req.hours != bids.hours:
        raise ValueError("requirement horizon does not match bid horizon")
    if fix_commitments is not None:
        fix_commitments = np.asarray(fix_commitments, dtype=int)
        want = (len(system.generators), bids.hours)
        if fix_commitments.shape != want:
            raise ValueError(f"fix_commitments shape must be {want}")
    model, idx = _build(system, bids, req, fix_commitments)
    hours = bids.hours
    gens = system.generators
    n_b = len(system.buses)
    bus_of = [system.bus_index(g.bus) for g in gens]
    screen = network.FlowScreen(system)
    screen.add_periods(
        "",
        np.concatenate([bus_of, bus_of, np.arange(n_b), np.arange(n_b)]),
        np.vstack([idx["p"], idx["u"], idx["pc"], idx["d"]]),
        np.concatenate(
            [np.ones(len(gens)), [g.p_min for g in gens], np.ones(n_b), -np.ones(n_b)]
        ),
        np.zeros((n_b, hours)),
    )
    totals = optim.MilpTotals()
    try:
        mip = optim.require_optimal(
            screen.solve(
                model,
                lambda m, left: totals.add(
                    optim.solve(m, gap_tol=gap_tol, time_limit=left)
                ),
                time_limit,
            ),
            "day-ahead clearing",
        )
        u, v, w = commitment_schedule(
            system.generators, mip.x, idx["u"], idx["v"], idx["w"], "day-ahead clearing"
        )
        # the incumbent meets every flow limit, so it stays optimal when the
        # pricing solve adds rows; only the LP is re-solved
        lp = optim.require_optimal(
            screen.solve(model, lambda m, _: optim.fix_and_resolve(m, mip.x)),
            "day-ahead pricing",
        )
    finally:
        if dump_lp:
            model.write_lp(dump_lp)

    lmp = lp.duals[idx["bid"]]
    price_up, price_dn = lp.duals[idx["req"]].T

    x = lp.x  # awards from the pricing solve share the MIP's binaries
    return DamOutcome(
        gen_ids=list(system.gen_ids),
        bus_ids=list(system.bus_ids),
        hours=hours,
        u=u,
        v=v,
        w=w,
        p=x[idx["p"]],
        r_up=x[idx["r_up"]],
        r_dn=x[idx["r_dn"]],
        sf_up=x[idx["sf_up"]],
        sf_dn=x[idx["sf_dn"]],
        curtail=x[idx["pc"]],
        demand=x[idx["d"]],
        lmp=lmp,
        price_up=price_up,
        price_dn=price_dn,
        objective=float(mip.objective),
        pricing_objective=float(lp.objective),
        mip_gap=mip.mip_gap,
        screen_rounds=screen.rounds,
        flow_rows=len(screen.added),
        size=mip.size,
        milp=totals.record,
    )


def check_dam_outcome(system, outcome, bids, req, fix_commitments=None, tol=1e-6):
    """Solver-independent residual audit of a cleared outcome.

    Returns worst-case violations in MW per constraint family; every value
    should be <= tol on a healthy outcome.
    """
    out = outcome
    hours = out.hours
    worst = {}

    def track(key, *vals):
        worst[key] = max(worst.get(key, 0.0), *(float(v) for v in vals))

    for i, g in enumerate(system.generators):
        u0 = 1 if g.initial.on else 0
        track("logic", commitment_logic_residual(g, out.u[i], out.v[i], out.w[i]))
        track("capacity", (out.p[i] - g.dispatch_range * out.u[i]).max(), -out.p[i].min())
        p0 = g.initial.dispatch_above_min
        prev, prev_u = p0, u0
        for h in range(hours):
            su = (g.startup_limit - g.p_min) * out.v[i, h]
            track("ramp", out.p[i, h] - (prev + g.ramp_up * prev_u + su))
            if h == 0:
                floor = p0 - g.ramp_down * u0 + (g.ramp_down - p0) * out.w[i, 0]
            else:
                floor = prev - g.ramp_down * prev_u - g.dispatch_range * out.w[i, h]
            track("ramp", floor - out.p[i, h])
            if h < hours - 1:
                cap = g.dispatch_range + (g.shutdown_limit - g.p_max) * out.w[i, h + 1]
                track("ramp", out.p[i, h] - cap)
            prev, prev_u = out.p[i, h], out.u[i, h]

        for h in range(hours - 1):
            ru, rd, ph = out.r_up[i, h], out.r_dn[i, h], out.p[i, h]
            un, uh = out.u[i, h + 1], out.u[i, h]
            vn, wn = out.v[i, h + 1], out.w[i, h + 1]
            track(
                "frp_coupling",
                (-g.ramp_down * uh + (g.ramp_down - g.shutdown_limit) * wn + g.p_min * vn) - ru,
                ru - (g.ramp_up * un + (g.startup_limit - g.ramp_up) * vn),
                ru - (g.p_max * un - g.p_min * uh),
                (-g.ramp_up * un + (g.ramp_up - g.startup_limit) * vn) - rd,
                rd - (g.ramp_down * uh + (g.shutdown_limit - g.ramp_down) * wn - g.p_min * vn),
                (-g.p_max * un + g.p_min * uh) - rd,
                (-g.p_min + g.p_min * un) - (ru + ph),
                (ru + ph) - (g.p_max - g.p_min * uh + (g.startup_limit - g.p_max) * vn),
                (-g.p_min + g.p_min * un) - (ph - rd),
                (ph - rd) - (g.p_max - g.p_min * uh + (g.startup_limit - g.p_max) * vn),
            )
            if h < hours - 2:
                wnn = out.w[i, h + 2]
                cap = g.shutdown_limit * wnn + g.p_max * (1 - wnn)
                track("frp_coupling", (ru + ph) - cap, (ph - rd) - cap)

    total = out.dispatch_total(system)
    inj = np.zeros((len(system.buses), hours))
    for i, g in enumerate(system.generators):
        inj[system.bus_index(g.bus)] += total[i]
    inj += out.curtail - out.demand
    track("balance", np.abs(inj.sum(axis=0)).max())
    track("demand_match", np.abs(out.demand - bids.values).max())
    if len(system.lines):
        flows = system.isf() @ inj
        fmax = np.array([ln.flow_max for ln in system.lines])[:, None]
        fmin = np.array([ln.flow_min for ln in system.lines])[:, None]
        track("flow", (flows - fmax).max(), (fmin - flows).max())

    short_up = req.up - (out.r_up.sum(axis=0) + out.sf_up)
    short_dn = req.dn - (out.r_dn.sum(axis=0) + out.sf_dn)
    track("frp_requirement", short_up.max(), short_dn.max())
    track("shortfall_sign", -out.sf_up.min(), -out.sf_dn.min())
    if fix_commitments is not None:
        track("commitment_floor", (np.asarray(fix_commitments) - out.u).max())
    return worst


# -- file io -----------------------------------------------------------------

_ARRAYS = [
    "u", "v", "w", "p", "r_up", "r_dn", "sf_up", "sf_dn",
    "curtail", "demand", "lmp", "price_up", "price_dn",
]


def save_dam_outcome(out, path):
    doc = {
        "gen_ids": out.gen_ids,
        "bus_ids": out.bus_ids,
        "hours": out.hours,
        "objective_usd": out.objective,
        "pricing_objective_usd": out.pricing_objective,
        "mip_gap": out.mip_gap,
        "screen_rounds": out.screen_rounds,
        "flow_rows": out.flow_rows,
        "size": out.size,
        "milp": out.milp,
    }
    for name in _ARRAYS:
        doc[name] = getattr(out, name).tolist()
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_dam_outcome(path):
    with open(path) as fh:
        doc = json.load(fh)
    kwargs = {
        name: np.asarray(doc[name], dtype=int if name in ("u", "v", "w") else float)
        for name in _ARRAYS
    }
    return DamOutcome(
        gen_ids=doc["gen_ids"],
        bus_ids=doc["bus_ids"],
        hours=doc["hours"],
        objective=doc["objective_usd"],
        pricing_objective=doc["pricing_objective_usd"],
        mip_gap=doc["mip_gap"],
        screen_rounds=doc.get("screen_rounds", 2),  # clearing + pricing
        flow_rows=doc.get("flow_rows", 0),
        size=doc.get("size", {}),
        milp=doc.get("milp", {}),
        **kwargs,
    )

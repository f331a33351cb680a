"""Deterministic hourly day-ahead clearing with flexible-ramp awards.

Co-optimizes energy and hourly up/down ramping capability against fixed
bid-in net demand. The units' energy rows (capacity, offer segments, ramp
limits and the shutdown cap) come from `dispatch.unit_rows` at one period
an hour: the rows of the stochastic pass. Their ramp-award rows
(`_award_rows`) over the hour pairs follow them in one fleet table
(`dispatch.row_table`), written unit by unit. The bus balance comes
from `network.FlowScreen.add_balance`, like the other passes'. Ramp
awards are tied to what the unit could actually do between consecutive
hours given its commitment path, so awards around startups and shutdowns
are signed: a unit scheduled to come offline next hour carries a negative
up award by construction. Systemwide requirements may be relaxed through
shortfall slacks at the configured penalty.

Prices come from a second solve: the on/off binaries are frozen at the
incumbent, which leaves the continuous start/stop variables one feasible
value, and the continuous relaxation is re-solved, giving locational energy
prices (duals of the bid equalities) and hourly ramp prices (duals of the
requirement rows).

A prior commitment schedule can be imposed as a floor on the on-binaries,
which is how the stochastic pass's priority commitments are carried into the
market run.

A cleared market can spare the clearing MILP of a market it relaxes
(``clear_dam(..., relaxed=outcome)``); the caller guarantees the relation,
and one of two certificates applies, by whether the market has a floor.

Without a floor: take two markets A and B of the same system and bids,
neither with a commitment floor, with B's requirements elementwise at least
A's. The models differ only in the requirement rows ``sum(r) + sf >= req``,
so every point of B is a point of A at the same cost, and the shortfall
slacks keep B feasible at every commitment A allows. A's proven dual bound
is a bound on A's screened model, a relaxation of A's full model (see
`network`), so it is at most B's optimum. Pinning A's commitment on B and
solving the pricing LP, flow rows screened as usual, gives a point of B at
the LP's objective. If that objective is within ``gap_tol`` of the bound,
``(objective - bound) / max(1, |objective|) <= gap_tol``, the commitment is
``gap_tol``-optimal for B, which is what B's own MILP would prove; the MILP
is skipped, the LP is B's answer as `optim.certified` gives it (gap to the
lesser of the bound and the objective, that lesser value its dual bound),
and the outcome is built from it as from the MILP's. That dual bound still
holds for B, so B's outcome carries it to a market above B. When the check
fails, B is cleared by its MILP on the model it has without the check:
rebuilt if the check's screening added flow rows.

With a floor: take a market F without a floor and the market F' of the
same system, bids and requirements with a commitment floor (the harness's
"suc-free" and "suc-fixed"). If F's commitment meets the floor,
``(u >= floor).all()``, F's outcome is F''s, to ``gap_tol``, and nothing is
built or solved for F': the outcome is F's, certified, its work read as
zero (`optim.reused`).

- F''s model is F's plus lower bounds on ``u``. F's optimum meets those
  bounds and every flow limit, so it is a point of F' at the same cost.
- F's proven dual bound is a bound on F's screened model, a relaxation of
  F''s full model, so it is at most F''s optimum; the point is within
  ``gap_tol`` of that optimum, as F's MILP proved it within ``gap_tol`` of
  the bound.
- `optim.fix_and_resolve` pins ``lb = ub`` on every on-variable, which
  overrides the floor, so F''s pricing LP at that commitment is F's.

If F's commitment breaks the floor it is no point of F', so F' clears by its
own MILP and no check LP runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import dispatch, network, optim
from .codec import (
    Table, bool_, check_nonnegative, check_shapes, floats, int_, ints, number_or_null, read_json,
    write_json,
)
from .stochastic_uc import (
    add_commitment_block,
    commitment_logic_residual,
    commitment_schedule,
)
from .timegrid import TimeGrid

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
    # the relaxed market's bound proved this commitment; no clearing MILP ran
    certified: bool = False
    # what the solves did, as the ledger writes it: screening rounds
    # (clearing and pricing together) and the flow rows they added, build
    # seconds, the clearing MILP's size in its last round and its HiGHS
    # record over its rounds (`optim.SolveResult.highs`), the pricing LP's
    # HiGHS record under "pricing_lp" and that of a certificate LP that
    # failed its check under "check_lp" (None if none failed); empty in
    # files written before it was kept
    record: dict = field(default_factory=dict)

    def __post_init__(self):
        gens, buses, hours = len(self.gen_ids), len(self.bus_ids), self.hours
        check_shapes(self, dict.fromkeys(("u", "v", "w", "p", "r_up", "r_dn"), (gens, hours))
                     | dict.fromkeys(("curtail", "demand", "lmp"), (buses, hours))
                     | dict.fromkeys(("sf_up", "sf_dn", "price_up", "price_dn"), (hours,)))

    def dispatch_total(self, system):
        return self.p + dispatch.unit_params(system.generators, "p_min") * self.u


# the unit parameters the award rows read
RAMPS = ("ramp_down", "ramp_up", "startup_limit", "shutdown_limit", "p_min", "p_max")


def _award_rows(gens, hours):
    """The ramp-award rows of every unit for the hour pairs (h, h+1), as
    `dispatch.row_table` takes them, one period an hour: the terms are over
    the unit's p, rup, rdn, u, v and w, with p the output above minimum (see
    `dispatch`), and a row exists while h+1 is in the day, the last two
    while h+2 is."""
    rd, ru, su, sd, p_min, p_max = dispatch.unit_params(gens, *RAMPS)
    h = np.arange(hours)
    h1, h2 = np.minimum(h + 1, hours - 1), np.minimum(h + 2, hours - 1)
    pair, ahead = h < hours - 1, h < hours - 2
    up, dn, p = ("rup", h, 1.0), ("rdn", h, 1.0), ("p", h, 1.0)
    top = [("u", h, p_min), ("v", h1, -(su - p_max))]
    return [
        # fud_lo, fu_ramp, fu_cap
        (">=", 0.0, [up, ("u", h, rd), ("w", h1, -(rd - sd)), ("v", h1, -p_min)], pair),
        ("<=", 0.0, [up, ("u", h1, -ru), ("v", h1, -(su - ru))], pair),
        ("<=", 0.0, [up, ("u", h1, -p_max), ("u", h, p_min)], pair),
        # fd_ramp, fd_hi, fd_cap
        (">=", 0.0, [dn, ("u", h1, ru), ("v", h1, -(ru - su))], pair),
        ("<=", 0.0, [dn, ("u", h, -rd), ("w", h1, -(sd - rd)), ("v", h1, p_min)], pair),
        (">=", 0.0, [dn, ("u", h1, p_max), ("u", h, -p_min)], pair),
        # fup_lo, fup_hi, fdp_lo, fdp_hi
        (">=", -p_min, [up, p, ("u", h1, -p_min)], pair),
        ("<=", p_max, [up, p, *top], pair),
        (">=", -p_min, [("rdn", h, -1.0), p, ("u", h1, -p_min)], pair),
        ("<=", p_max, [("rdn", h, -1.0), p, *top], pair),
        # fup_stop, fdp_stop
        ("<=", p_max, [up, p, ("w", h2, p_max - sd)], ahead),
        ("<=", p_max, [("rdn", h, -1.0), p, ("w", h2, p_max - sd)], ahead),
    ]


# a unit's row blocks in the market, as indices into its energy rows
# (`dispatch.unit_rows`) and then its award rows (`_award_rows`)
BLOCKS = (("cap", [0]), ("ramp", [1, 2]), ("stopcap", [3]), ("award", slice(4, None)))


def _build(system, bids, req, fix_commitments):
    """The clearing model, without line-flow rows, and its column and row
    indices: the bid rows (buses, hours) give the LMPs, the requirement rows
    (hours, up/down) the ramp prices, and "screen" holds the
    `network.FlowScreen` of its injections."""
    hours = bids.hours
    gens = system.generators
    model = optim.Model()
    u, v, w = add_commitment_block(model, gens, hours, u_floor=fix_commitments)

    n_b, grid = len(system.buses), TimeGrid(hours, 1)
    seg, rr = [], []
    for g in gens:
        seg.append(dispatch.unit_columns(model, f"p[{g.id}]", g, grid))
        rr.append(model.add_vars(f"rr[{g.id}]", (hours, 2), lb=-np.inf))
    r_up, r_dn = np.moveaxis(rr, -1, 0)
    # per unit, the energy rows at one period an hour, in the market's row
    # order, then the ramp awards tied to its feasible hour-to-hour movement
    table = dispatch.row_table(
        dispatch.unit_rows(gens, grid) + _award_rows(gens, hours),
        {"p": dispatch.segment_lines(seg), "rup": r_up, "rdn": r_dn, "u": u, "v": v, "w": w},
    )
    dispatch.add_row_blocks(model, table, [
        (f"{name}[{g.id}]", (0, i), rows) for i, g in enumerate(gens) for name, rows in BLOCKS
    ])

    pcd = model.add_vars(
        "pcd", (n_b, hours, 2), lb=[0.0, -np.inf], obj=[system.curtailment_penalty, 0.0]
    )
    pc, d = pcd[..., 0], pcd[..., 1]
    bid = model.add_rows("bid", "==", bids.values, d[..., None], 1.0)

    # the injections: output above minimum, committed minimum, curtailment
    # and cleared demand
    screen = network.FlowScreen(system)
    every = np.arange(n_b)
    screen.add_balance(model, "", [
        dispatch.segment_entries(system, seg),
        ([system.bus_index(g.bus) for g in gens], u, [g.p_min for g in gens]),
        (every, pc, 1.0),
        (every, d, -1.0),
    ])

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
        "u": u, "v": v, "w": w, "seg": seg, "r_up": r_up, "r_dn": r_dn,
        "pc": pc, "d": d, "sf_up": sf_up, "sf_dn": sf_dn, "bid": bid, "req": reqs,
        "screen": screen,
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
    relaxed=None,
):
    """Clear the day-ahead market and price it.

    Returns a DamOutcome holding awards from the MIP incumbent and prices
    from the frozen-binary re-solve. Line-flow rows are screened in both
    solves (see `network`); ``dump_lp`` receives the final screened model.
    ``time_limit`` (seconds, a finite number >= 0, or None for none) bounds
    the clearing MILP's rounds together; the certificate and pricing LPs run
    without it.

    ``relaxed`` is the outcome of a market whose model is a relaxation of
    this one: the same system and bids and no commitment floor, with
    requirements elementwise at most these, or, with ``fix_commitments``,
    these requirements. The caller guarantees it. If its commitment and
    bound certify this market (see the module docstring), no clearing MILP
    runs and the outcome is ``certified``; under a floor its commitment
    meets, nothing is built or solved and the outcome is ``relaxed``'s.
    """
    check_nonnegative("gap_tol", gap_tol)
    if time_limit is not None:
        check_nonnegative("time_limit", time_limit)
    if tuple(bids.buses) != tuple(system.bus_ids):
        raise ValueError("bid buses do not match system buses")
    if req.hours != bids.hours:
        raise ValueError("requirement horizon does not match bid horizon")
    if fix_commitments is not None:
        fix_commitments = np.asarray(fix_commitments, dtype=int)
        want = (len(system.generators), bids.hours)
        if fix_commitments.shape != want:
            raise ValueError(f"fix_commitments shape must be {want}")
        if relaxed is not None and (relaxed.u >= fix_commitments).all():
            return replace(relaxed, certified=True, record=optim.reused(relaxed.record))
        relaxed = None  # its commitment breaks the floor: no certificate
    t_build = time.perf_counter()
    model, idx = _build(system, bids, req, fix_commitments)
    screen = idx["screen"]
    build_s = time.perf_counter() - t_build
    gens = system.generators
    bound = None if relaxed is None else relaxed.record.get("mip_dual_bound")
    try:
        clearing = check_lp = None
        if bound is not None:
            pinned = np.zeros(model.n_vars)
            pinned[idx["u"]] = relaxed.u
            lp = screen.solve(model, lambda m: optim.fix_and_resolve(m, pinned))
            # no clearing MILP ran: the LP's seconds are the pricing LP's
            clearing = optim.certified(replace(lp, highs_s=0.0), bound, gap_tol, model.n_integer)
            if clearing is None:
                check_lp = lp.highs
                if screen.added:
                    model, idx = _build(system, bids, req, fix_commitments)
                    screen = idx["screen"]
                screen.rounds = 0  # the clearing counts its own rounds
        certified = clearing is not None
        if not certified:
            deadline = None if time_limit is None else time.perf_counter() + time_limit
            clearing = optim.require_optimal(
                screen.solve(
                    model, lambda m: optim.solve(m, gap_tol=gap_tol, deadline=deadline)
                ),
                "day-ahead clearing",
            )
            # the incumbent meets every flow limit, so it stays optimal when
            # the pricing solve adds rows; only the LP is re-solved
            lp = optim.require_optimal(
                screen.solve(model, lambda m: optim.fix_and_resolve(m, clearing.x)),
                "day-ahead pricing",
            )
        u, v, w = commitment_schedule(
            gens, clearing.x, idx["u"], idx["v"], idx["w"], "day-ahead clearing"
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
        hours=bids.hours,
        u=u,
        v=v,
        w=w,
        p=np.stack([x[s].sum(axis=-1) for s in idx["seg"]]),
        r_up=x[idx["r_up"]],
        r_dn=x[idx["r_dn"]],
        sf_up=x[idx["sf_up"]],
        sf_dn=x[idx["sf_dn"]],
        curtail=x[idx["pc"]],
        demand=x[idx["d"]],
        lmp=lmp,
        price_up=price_up,
        price_dn=price_dn,
        objective=float(clearing.objective),
        pricing_objective=float(lp.objective),
        mip_gap=clearing.mip_gap,
        certified=certified,
        record={
            "screen_rounds": screen.rounds, "flow_rows": len(screen.added),
            "build_s": build_s, **clearing.size, **clearing.highs, "pricing_lp": lp.highs,
            "check_lp": check_lp,
        },
    )


def check_dam_outcome(system, outcome, bids, req, fix_commitments=None, tol=1e-6):
    """Solver-independent residual audit of a cleared outcome.

    Returns worst-case violations in MW per constraint family (the physical
    ones from `dispatch.physical_residuals`); every value should be ~0 on a
    healthy outcome. ``tol`` is accepted for callers that pass one and is
    not applied: callers compare the values with their own tolerance.
    """
    out = outcome
    worst = dispatch.physical_residuals(
        system, TimeGrid(out.hours, 1), out.u, out.v, out.w,
        out.p[None], out.curtail[None], out.demand[None],
    )
    worst["logic"] = commitment_logic_residual(system.generators, out.u, out.v, out.w)

    # the award rows over every (h, h+1) pair: hour h, then hour h+1 ("n")
    rd, ru, su, sd, p_min, p_max = dispatch.unit_params(system.generators, *RAMPS)
    up, dn, ph = out.r_up[:, :-1], out.r_dn[:, :-1], out.p[:, :-1]
    uh, un, vn, wn = out.u[:, :-1], out.u[:, 1:], out.v[:, 1:], out.w[:, 1:]
    top = p_max - p_min * uh + (su - p_max) * vn
    # the hour before a stop at h+2 holds at most the shutdown limit
    stop = out.w[:, 2:]
    held = sd * stop + p_max * (1 - stop)
    coupling = [
        (-rd * uh + (rd - sd) * wn + p_min * vn) - up,
        up - (ru * un + (su - ru) * vn),
        up - (p_max * un - p_min * uh),
        (-ru * un + (ru - su) * vn) - dn,
        dn - (rd * uh + (sd - rd) * wn - p_min * vn),
        (-p_max * un + p_min * uh) - dn,
        (-p_min + p_min * un) - (up + ph),
        (up + ph) - top,
        (-p_min + p_min * un) - (ph - dn),
        (ph - dn) - top,
        (up + ph)[:, :-1] - held,
        (ph - dn)[:, :-1] - held,
    ]
    checks = {
        "frp_coupling": max(c.max(initial=0.0) for c in coupling),
        "demand_match": np.abs(out.demand - bids.values).max(),
        "frp_requirement": max(
            (req.up - (out.r_up.sum(axis=0) + out.sf_up)).max(),
            (req.dn - (out.r_dn.sum(axis=0) + out.sf_dn)).max(),
        ),
        "shortfall_sign": max(-out.sf_up.min(), -out.sf_dn.min()),
    }
    if fix_commitments is not None:
        checks["commitment_floor"] = (np.asarray(fix_commitments) - out.u).max()
    return worst | {key: max(0.0, float(val)) for key, val in checks.items()}


# -- file io -----------------------------------------------------------------

OUTCOME = Table(DamOutcome, "DAM outcome", (
    ("gen_ids", "gen_ids", list), ("bus_ids", "bus_ids", list), ("hours", "hours", int_),
    ("objective", "objective_usd", float),
    ("pricing_objective", "pricing_objective_usd", float),
    ("mip_gap", "mip_gap", number_or_null), ("certified", "certified", bool_, False),
    ("record", "record", dict, {}),
    ("u", "u", ints), ("v", "v", ints), ("w", "w", ints), ("p", "p", floats),
    ("r_up", "r_up", floats), ("r_dn", "r_dn", floats), ("sf_up", "sf_up", floats),
    ("sf_dn", "sf_dn", floats), ("curtail", "curtail", floats), ("demand", "demand", floats),
    ("lmp", "lmp", floats), ("price_up", "price_up", floats), ("price_dn", "price_dn", floats),
))


def save_dam_outcome(out, path):
    write_json(path, out, OUTCOME)


def load_dam_outcome(path):
    return read_json(path, OUTCOME)

"""Scenario-based stochastic unit commitment on the sub-period grid.

One set of hourly commitment variables is shared by every scenario; dispatch,
segment loading and curtailment are per scenario on the sub-period grid.
Online ramp rates are scaled to the sub-period length, startup/shutdown
ramps are not (they cap the jump at a transition, however short the step).
Commitment is hourly by construction: commitment variables live on the hourly
grid and sub-period constraints reference the hour they fall in.

The commitment block (`add_commitment_block`) is shared with the day-ahead
market. Only the on/off variables are integer; start and stop variables are
continuous and take 0/1 values at every integral on/off schedule (see that
function for the argument). `commitment_schedule` checks this after each
solve, and `commitment_logic_residual` audits a schedule without the solver.

Curtailment is the only recourse slack, so a scenario whose net load falls
faster than the committed fleet can back down may be infeasible; that raises
InfeasibleModelError rather than returning garbage.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import network, optim
from .timegrid import TimeGrid

__all__ = [
    "SucSolution",
    "add_commitment_block",
    "commitment_schedule",
    "commitment_logic_residual",
    "solve_suc",
    "check_suc_solution",
    "save_suc_solution",
    "load_suc_solution",
]


def add_commitment_block(model, generators, hours, u_floor=None):
    """Hourly commitment variables and logic for every generator.

    Adds on (``u``, binary), start (``v``) and stop (``w``) variables with
    no-load and startup costs in the objective, and these rows per unit and
    hour ``h``, with UT/DT the minimum up/down times:

    - logic: ``u[h] - u[h-1] = v[h] - w[h]``, with ``u[-1]`` the initial state
    - minup: ``sum(v[i] for i in max(0, h-UT+1)..h) <= u[h]``
    - mindown: ``sum(w[i] for i in max(0, h-DT+1)..h) <= 1 - u[h]``
    - initup/initdown: no stop (start) while the initial run (outage) is
      shorter than UT (DT)

    The windows are cut at hour 0 rather than starting at hour UT-1, so every
    hour has a minup and a mindown row, and the one-hour terms give
    ``v[h] <= u[h]`` and ``w[h] <= 1 - u[h]``. With the logic row, that fixes
    ``v`` and ``w`` to 0/1 at every integral ``u``: an on hour has no stop and
    starts exactly when the previous hour was off, an off hour has no start and
    stops exactly when the previous hour was on. So ``v`` and ``w`` are
    continuous in [0, 1] and the solver branches only on ``u``. The windows
    also rule out a start and a stop in the same hour, and hold the minimum
    times on horizons shorter than UT or DT. This is the min-up/down polytope of Rajan &
    Takriti (IBM RC23628, 2005), as used in the tight and compact formulation
    of Morales-Espana, Latorre & Ramos (IEEE TPWRS 28(4), 2013).

    ``u_floor`` (gens x hours, 0/1) raises the lower bound of the
    on-variables wherever it is 1, which is how a prior commitment schedule is
    held fixed. Returns (u, v, w) index arrays of shape (gens, hours).
    """
    n_g = len(generators)
    u = np.empty((n_g, hours), dtype=int)
    v = np.empty((n_g, hours), dtype=int)
    w = np.empty((n_g, hours), dtype=int)
    hs = np.arange(hours)
    first = hs == 0
    for i, g in enumerate(generators):
        lb = np.zeros((hours, 3))
        if u_floor is not None:
            lb[:, 0] = np.asarray(u_floor[i], dtype=bool)
        uvw = model.add_vars(
            f"uvw[{g.id}]", (hours, 3), lb=lb, ub=1.0,
            obj=[g.no_load_cost, g.startup_cost, 0.0], integer=[True, False, False],
        )
        u[i], v[i], w[i] = uvw.T
        ui, vi, wi = u[i], v[i], w[i]
        u0 = 1 if g.initial.on else 0
        model.add_rows(
            f"logic[{g.id}]", "==", np.where(first, u0, 0),
            *optim.stack_rows(
                [(ui, 1.0), (ui[hs - 1], np.where(first, 0.0, -1.0)), (vi, -1.0), (wi, 1.0)]
            ),
        )
        # minup and mindown per hour: the v (w) terms of hours h-j, j < UT
        # (DT), cut at hour 0, then the u[h] term
        back = [(hs - j).clip(0) for j in range(min(max(g.min_up, g.min_down), hours))]
        model.add_rows(
            f"minupdown[{g.id}]", "<=", [0.0, 1.0],
            *optim.stack_rows(
                [(vi[b], (hs >= j) & (j < g.min_up)) for j, b in enumerate(back)]
                + [(ui, -1.0)],
                [(wi[b], (hs >= j) & (j < g.min_down)) for j, b in enumerate(back)]
                + [(ui, 1.0)],
            ),
        )
        if g.initial.on:
            kind, held = "initup", wi[: max(0, min(g.min_up - g.initial.hours_on, hours))]
        else:
            kind, held = "initdown", vi[: max(0, min(g.min_down - g.initial.hours_off, hours))]
        model.add_rows(f"{kind}[{g.id}]", "==", 0.0, held[:, None], 1.0)
    return u, v, w


def commitment_schedule(generators, x, u, v, w, context):
    """Integral (u, v, w) schedule read from a solve of `add_commitment_block`.

    ``u`` is rounded; ``v`` and ``w`` must equal the starts and stops that the
    rounded ``u`` implies, to within 1e-6. The formulation guarantees this,
    so a miss means the solver's tolerances let a fractional start or stop
    through, and raises InfeasibleModelError rather than pricing it.
    """
    u_val = np.round(x[u]).astype(int)
    u0 = np.array([[1 if g.initial.on else 0] for g in generators], dtype=int)
    step = np.diff(np.concatenate([u0, u_val], axis=1), axis=1)
    v_val, w_val = (step > 0).astype(int), (step < 0).astype(int)
    miss = max(
        np.abs(x[v] - v_val).max(initial=0.0), np.abs(x[w] - w_val).max(initial=0.0)
    )
    if miss > 1e-6:
        raise optim.InfeasibleModelError(
            f"{context}: start/stop variables are {miss:.3g} from the on/off schedule"
        )
    return u_val, v_val, w_val


def commitment_logic_residual(g, u, v, w):
    """Worst violation (0 or more, in unit-hours) of the commitment rules by
    one unit's hourly 0/1 schedule.

    Checks that starts and stops match the on/off changes from the initial
    state, that no hour has both a start and a stop, and the minimum up/down
    times, counting the hours the unit had been on or off before hour 0.
    """
    u, v, w = (np.asarray(a, dtype=int) for a in (u, v, w))
    hours = len(u)
    u0 = 1 if g.initial.on else 0
    worst = float(np.abs(v - w - np.diff(np.concatenate([[u0], u]))).max(initial=0))
    worst = max(worst, float(np.minimum(v, w).max(initial=0)))
    for h in range(hours):
        started = v[max(0, h - g.min_up + 1) : h + 1].sum()
        stopped = w[max(0, h - g.min_down + 1) : h + 1].sum()
        worst = max(worst, float(started - u[h]), float(stopped - (1 - u[h])))
    if g.initial.on:
        held = u[: max(0, min(g.min_up - g.initial.hours_on, hours))]
    else:
        held = 1 - u[: max(0, min(g.min_down - g.initial.hours_off, hours))]
    return max(worst, float((1 - held).max(initial=0)))


@dataclass
class SucSolution:
    gen_ids: list
    bus_ids: list
    grid: TimeGrid
    u: np.ndarray  # (gens, hours) 0/1
    v: np.ndarray  # (gens, hours) startups
    w: np.ndarray  # (gens, hours) shutdowns
    p: np.ndarray  # (scenarios, gens, periods) dispatch above minimum, MW
    curtail: np.ndarray  # (scenarios, buses, periods) MW
    objective: float
    commitment_cost: float  # no-load + startup portion
    expected_dispatch_cost: float
    mip_gap: float | None
    wall_time_s: float
    screen_rounds: int  # solves made while screening line flows
    flow_rows: int  # line-flow rows the screening added
    # rows, cols, nnz and binaries of the model in its last solve
    size: dict = field(default_factory=dict)
    # highs_s, mip_node_count and mip_dual_bound over the screening rounds
    # (see optim.MilpTotals); empty in files written before they were kept
    milp: dict = field(default_factory=dict)

    def committed_hours(self):
        """(gens, hours) 0/1 commitment schedule for downstream fixing."""
        return self.u.copy()

    def dispatch_total(self, system):
        """(scenarios, gens, periods) total MW output including minimum load."""
        p_min = np.array([g.p_min for g in system.generators])
        u_sub = np.repeat(self.u, self.grid.periods_per_hour, axis=1)
        return self.p + p_min[None, :, None] * u_sub[None, :, :]


def _add_dispatch_scenario(
    model, system, grid, u, v, w, tag, net_load, psi, screen=None
):
    """Per-scenario dispatch variables and constraints on the sub-period grid.

    ``net_load`` has shape (buses, periods). The scenario's line flows are
    registered with ``screen`` (a `network.FlowScreen`), which adds their
    rows where a solve breaks them; given shift factors ``psi`` instead, every
    flow row is built now. Returns (p, pc) index arrays.
    """
    gens = system.generators
    n_periods = grid.n_periods
    k_per_h = grid.periods_per_hour
    scale = grid.period_hours  # sub-period ramp scaling and energy weight
    p = np.empty((len(gens), n_periods), dtype=int)
    ks = np.arange(n_periods)
    first = ks == 0
    h = ks // k_per_h  # the hour of each period
    hp = (ks - 1).clip(0) // k_per_h  # the hour of the period before
    new_hour = (ks > 0) & (h != hp)
    hn = np.minimum(ks + 1, n_periods - 1) // k_per_h  # the hour of the next one
    # a period whose successor opens a new hour carries a stopcap row
    keep = np.ones((n_periods, 5), dtype=bool)
    keep[:, 4] = (ks < n_periods - 1) & (hn != h)
    sense = np.tile(np.array(["<=", "==", "<=", "<=", "<="]), (n_periods, 1))
    sense[0, 3] = ">="

    for i, g in enumerate(gens):
        # per period: p, then one column per offer segment
        widths = np.diff([seg.upper for seg in g.segments], prepend=0.0)
        pseg = model.add_vars(
            f"p{tag}[{g.id}]", (n_periods, 1 + len(widths)),
            ub=np.concatenate([[g.dispatch_range], widths]),
            obj=np.concatenate([[0.0], [seg.cost * scale for seg in g.segments]]),
        )
        p[i] = pk = pseg[:, 0]
        pk1 = p[i, ks - 1]
        ru = g.ramp_up * scale
        rd = g.ramp_down * scale
        p0 = g.initial.dispatch_above_min
        u0 = 1.0 if g.initial.on else 0.0
        lift = -(g.startup_limit - g.p_min)
        # per period: cap, segsum, rampup, rampdn, stopcap; the first
        # period's ramp rows run from the initial state
        cols, coefs = optim.stack_rows(
            [(pk, 1.0), (u[i, h], -g.dispatch_range)],
            [(pk, 1.0)] + [(seg, -1.0) for seg in pseg[:, 1:].T],
            [
                (pk, 1.0),
                (np.where(first, v[i, 0], pk1), np.where(first, lift, -1.0)),
                (u[i, hp], np.where(first, 0.0, -ru)),
                (v[i, h], np.where(new_hour, lift, 0.0)),
            ],
            [
                (np.where(first, pk, pk1), 1.0),
                (np.where(first, w[i, 0], pk), np.where(first, -(rd - p0), -1.0)),
                (u[i, hp], np.where(first, 0.0, -rd)),
                (w[i, h], np.where(new_hour, -g.dispatch_range, 0.0)),
            ],
            [(pk, 1.0), (w[i, hn], g.p_max - g.shutdown_limit)],
        )
        zero = np.zeros(n_periods)
        rhs = np.column_stack([
            zero, zero, np.where(first, p0 + ru * u0, 0.0),
            np.where(first, p0 - rd * u0, 0.0), zero + g.dispatch_range,
        ])
        model.add_rows(
            f"disp{tag}[{g.id}]", sense[keep], rhs[keep], cols[keep], coefs[keep]
        )

    pc = model.add_vars(
        f"pc{tag}", (len(system.buses), n_periods), obj=system.curtailment_penalty * scale
    )
    p_min = np.array([g.p_min for g in gens])
    bus_of = [system.bus_index(g.bus) for g in gens]
    n_b = len(system.buses)
    net_load = np.asarray(net_load, dtype=float)
    # each period's total summed along a contiguous row, as net_load[:, k].sum()
    model.add_rows(
        f"bal{tag}", "==", np.ascontiguousarray(net_load.T).sum(axis=1),
        np.concatenate([p, u[:, h], pc]).T,
        np.concatenate([np.ones(len(gens)), p_min, np.ones(n_b)]),
    )

    if psi is not None:  # the unscreened formulation: every flow row now
        screen = network.FlowScreen(system, psi)
    if screen is not None:
        screen.add_periods(
            tag,
            np.concatenate([bus_of, bus_of, np.arange(n_b)]),
            np.vstack([p, u[:, h], pc]),
            np.concatenate([np.ones(len(gens)), p_min, np.ones(n_b)]),
            -net_load,
        )
        if psi is not None:
            screen.add_rows(model, screen.every_row())
    return p, pc


def solve_suc(system, scenarios, gap_tol=1e-6, time_limit=None, dump_lp=None):
    """Build and solve the two-stage commitment problem, returning the
    commitment schedule plus per-scenario dispatch.

    Line-flow rows are screened (see `network`); ``dump_lp`` receives the
    final screened model."""
    grid = scenarios.grid
    if tuple(scenarios.buses) != tuple(system.bus_ids):
        raise ValueError("scenario buses do not match system buses")
    t0 = time.perf_counter()
    model = optim.Model("suc")
    u, v, w = add_commitment_block(model, system.generators, grid.hours)
    screen = network.FlowScreen(system)

    p_idx, pc_idx = [], []
    for s in range(scenarios.n_scenarios):
        prob = scenarios.probabilities[s]
        mark = model.n_vars
        p, pc = _add_dispatch_scenario(
            model, system, grid, u, v, w, f"@{s}", scenarios.values[s], None, screen
        )
        model.obj[mark:] *= prob  # weight this scenario's cost terms
        p_idx.append(p)
        pc_idx.append(pc)

    totals = optim.MilpTotals()
    try:
        res = screen.solve(
            model,
            lambda m, left: totals.add(optim.solve(m, gap_tol=gap_tol, time_limit=left)),
            time_limit,
        )
    finally:
        if dump_lp:
            model.write_lp(dump_lp)
    optim.require_optimal(res, "stochastic commitment")
    wall = time.perf_counter() - t0

    x = res.x
    u_val, v_val, w_val = commitment_schedule(
        system.generators, x, u, v, w, "stochastic commitment"
    )
    p_val = np.stack([x[p] for p in p_idx])
    pc_val = np.stack([x[pc] for pc in pc_idx])
    commitment_cost = float(
        sum(
            g.no_load_cost * u_val[i].sum() + g.startup_cost * v_val[i].sum()
            for i, g in enumerate(system.generators)
        )
    )
    return SucSolution(
        gen_ids=list(system.gen_ids),
        bus_ids=list(system.bus_ids),
        grid=grid,
        u=u_val,
        v=v_val,
        w=w_val,
        p=p_val,
        curtail=pc_val,
        objective=float(res.objective),
        commitment_cost=commitment_cost,
        expected_dispatch_cost=float(res.objective) - commitment_cost,
        mip_gap=res.mip_gap,
        wall_time_s=wall,
        screen_rounds=screen.rounds,
        flow_rows=len(screen.added),
        size=res.size,
        milp=totals.record,
    )


def check_suc_solution(system, scenarios, sol, tol=1e-6):
    """Residuals of the physical constraints at the returned solution.

    Returns a dict of worst-case violations (MW); all entries should be ~0.
    Used by tests as a solver-independent feasibility audit.
    """
    grid = sol.grid
    k_per_h = grid.periods_per_hour
    scale = grid.period_hours
    total = sol.dispatch_total(system)  # (S,G,T)
    worst = {"balance": 0.0, "flow": 0.0, "capacity": 0.0, "ramp": 0.0, "logic": 0.0}

    for i, g in enumerate(system.generators):
        u0 = 1 if g.initial.on else 0
        worst["logic"] = max(
            worst["logic"], commitment_logic_residual(g, sol.u[i], sol.v[i], sol.w[i])
        )
        u_sub = np.repeat(sol.u[i], k_per_h)
        over = sol.p[:, i, :] - g.dispatch_range * u_sub[None, :]
        worst["capacity"] = max(worst["capacity"], float(over.max(initial=0.0)))
        ru = g.ramp_up * scale
        rd = g.ramp_down * scale
        p0 = g.initial.dispatch_above_min
        for s in range(sol.p.shape[0]):
            prev, prev_u = p0, u0
            for k in range(grid.n_periods):
                h = k // k_per_h
                at_hour_start = k % k_per_h == 0
                su = (g.startup_limit - g.p_min) if at_hour_start and sol.v[i, h] else 0.0
                up_cap = prev + ru * prev_u + su
                if k == 0:
                    dn_floor = p0 - rd * u0 + (rd - p0) * sol.w[i, 0]
                else:
                    sd = g.dispatch_range if at_hour_start and sol.w[i, h] else 0.0
                    dn_floor = prev - rd * prev_u - sd
                val = sol.p[s, i, k]
                worst["ramp"] = max(worst["ramp"], val - up_cap, dn_floor - val)
                if k + 1 < grid.n_periods and (k + 1) % k_per_h == 0:
                    hn = (k + 1) // k_per_h
                    cap = g.dispatch_range + (g.shutdown_limit - g.p_max) * sol.w[i, hn]
                    worst["ramp"] = max(worst["ramp"], val - cap)
                prev = val
                prev_u = sol.u[i, h]

    for s in range(sol.p.shape[0]):
        inj = np.zeros((len(system.buses), grid.n_periods))
        for i, g in enumerate(system.generators):
            inj[system.bus_index(g.bus)] += total[s, i]
        inj += sol.curtail[s] - scenarios.values[s]
        worst["balance"] = max(worst["balance"], float(np.abs(inj.sum(axis=0)).max()))
        if len(system.lines):
            flows = system.isf() @ inj
            fmax = np.array([ln.flow_max for ln in system.lines])[:, None]
            fmin = np.array([ln.flow_min for ln in system.lines])[:, None]
            worst["flow"] = max(
                worst["flow"],
                float((flows - fmax).max(initial=0.0)),
                float((fmin - flows).max(initial=0.0)),
            )
    violations = {k: val for k, val in worst.items() if val > tol}
    return worst if not violations else worst | {"violations": violations}


# -- file io -----------------------------------------------------------------


def save_suc_solution(sol, path):
    doc = {
        "gen_ids": sol.gen_ids,
        "bus_ids": sol.bus_ids,
        "hours": sol.grid.hours,
        "periods_per_hour": sol.grid.periods_per_hour,
        "u": sol.u.tolist(),
        "v": sol.v.tolist(),
        "w": sol.w.tolist(),
        "dispatch_above_min_mw": sol.p.tolist(),
        "curtail_mw": sol.curtail.tolist(),
        "objective_usd": sol.objective,
        "commitment_cost_usd": sol.commitment_cost,
        "expected_dispatch_cost_usd": sol.expected_dispatch_cost,
        "mip_gap": sol.mip_gap,
        "wall_time_s": sol.wall_time_s,
        "screen_rounds": sol.screen_rounds,
        "flow_rows": sol.flow_rows,
        "size": sol.size,
        "milp": sol.milp,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_suc_solution(path):
    with open(path) as fh:
        doc = json.load(fh)
    return SucSolution(
        gen_ids=doc["gen_ids"],
        bus_ids=doc["bus_ids"],
        grid=TimeGrid(hours=doc["hours"], periods_per_hour=doc["periods_per_hour"]),
        u=np.asarray(doc["u"], dtype=int),
        v=np.asarray(doc["v"], dtype=int),
        w=np.asarray(doc["w"], dtype=int),
        p=np.asarray(doc["dispatch_above_min_mw"], dtype=float),
        curtail=np.asarray(doc["curtail_mw"], dtype=float),
        objective=doc["objective_usd"],
        commitment_cost=doc["commitment_cost_usd"],
        expected_dispatch_cost=doc["expected_dispatch_cost_usd"],
        mip_gap=doc["mip_gap"],
        wall_time_s=doc["wall_time_s"],
        # files from before flow screening solved once and added no rows
        screen_rounds=doc.get("screen_rounds", 1),
        flow_rows=doc.get("flow_rows", 0),
        size=doc.get("size", {}),
        milp=doc.get("milp", {}),
    )

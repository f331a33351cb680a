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
from dataclasses import dataclass

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
    for i, g in enumerate(generators):
        for h in range(hours):
            lb = 1.0 if u_floor is not None and u_floor[i, h] else 0.0
            u[i, h] = model.add_var(
                f"u[{g.id},{h}]", lb=lb, ub=1.0, obj=g.no_load_cost, integer=True
            )
            v[i, h] = model.add_var(f"v[{g.id},{h}]", ub=1.0, obj=g.startup_cost)
            w[i, h] = model.add_var(f"w[{g.id},{h}]", ub=1.0)
        u0 = 1 if g.initial.on else 0
        model.add_constr(
            f"logic[{g.id},0]", {u[i, 0]: 1.0, v[i, 0]: -1.0, w[i, 0]: 1.0}, "==", u0
        )
        for h in range(1, hours):
            model.add_constr(
                f"logic[{g.id},{h}]",
                {u[i, h]: 1.0, u[i, h - 1]: -1.0, v[i, h]: -1.0, w[i, h]: 1.0},
                "==",
                0.0,
            )
        for h in range(hours):
            terms = {v[i, hp]: 1.0 for hp in range(max(0, h - g.min_up + 1), h + 1)}
            terms[u[i, h]] = -1.0
            model.add_constr(f"minup[{g.id},{h}]", terms, "<=", 0.0)
            terms = {w[i, hp]: 1.0 for hp in range(max(0, h - g.min_down + 1), h + 1)}
            terms[u[i, h]] = 1.0
            model.add_constr(f"mindown[{g.id},{h}]", terms, "<=", 1.0)
        if g.initial.on:
            for h in range(min(g.min_up - g.initial.hours_on, hours)):
                model.add_constr(f"initup[{g.id},{h}]", {w[i, h]: 1.0}, "==", 0.0)
        else:
            for h in range(min(g.min_down - g.initial.hours_off, hours)):
                model.add_constr(f"initdown[{g.id},{h}]", {v[i, h]: 1.0}, "==", 0.0)
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
    pc = np.empty((len(system.buses), n_periods), dtype=int)

    for i, g in enumerate(gens):
        seg_idx = []
        for k in range(n_periods):
            p[i, k] = model.add_var(f"p{tag}[{g.id},{k}]", ub=g.dispatch_range)
            prev_up = 0.0
            row = []
            for s, seg in enumerate(g.segments):
                j = model.add_var(
                    f"pseg{tag}[{g.id},{s},{k}]",
                    ub=seg.upper - prev_up,
                    obj=seg.cost * scale,
                )
                row.append(j)
                prev_up = seg.upper
            seg_idx.append(row)
        for k in range(n_periods):
            h = k // k_per_h
            terms = {p[i, k]: 1.0, u[i, h]: -g.dispatch_range}
            model.add_constr(f"cap{tag}[{g.id},{k}]", terms, "<=", 0.0)
            terms = {p[i, k]: 1.0}
            for j in seg_idx[k]:
                terms[j] = -1.0
            model.add_constr(f"segsum{tag}[{g.id},{k}]", terms, "==", 0.0)

            ru = g.ramp_up * scale
            rd = g.ramp_down * scale
            if k == 0:
                p0 = g.initial.dispatch_above_min
                u0 = 1.0 if g.initial.on else 0.0
                model.add_constr(
                    f"rampup{tag}[{g.id},0]",
                    {p[i, 0]: 1.0, v[i, 0]: -(g.startup_limit - g.p_min)},
                    "<=",
                    p0 + ru * u0,
                )
                model.add_constr(
                    f"rampdn{tag}[{g.id},0]",
                    {p[i, 0]: 1.0, w[i, 0]: -(rd - p0)},
                    ">=",
                    p0 - rd * u0,
                )
            else:
                hp = (k - 1) // k_per_h
                vterm = v[i, h] if h != hp else None
                terms = {p[i, k]: 1.0, p[i, k - 1]: -1.0, u[i, hp]: -ru}
                if vterm is not None:
                    terms[vterm] = -(g.startup_limit - g.p_min)
                model.add_constr(f"rampup{tag}[{g.id},{k}]", terms, "<=", 0.0)
                terms = {p[i, k - 1]: 1.0, p[i, k]: -1.0, u[i, hp]: -rd}
                if h != hp:
                    terms[w[i, h]] = -g.dispatch_range
                model.add_constr(f"rampdn{tag}[{g.id},{k}]", terms, "<=", 0.0)
            if k < n_periods - 1:
                hn = (k + 1) // k_per_h
                if hn != h:
                    model.add_constr(
                        f"stopcap{tag}[{g.id},{k}]",
                        {p[i, k]: 1.0, w[i, hn]: g.p_max - g.shutdown_limit},
                        "<=",
                        g.dispatch_range,
                    )

    for n in range(len(system.buses)):
        for k in range(n_periods):
            pc[n, k] = model.add_var(
                f"pc{tag}[{system.buses[n].id},{k}]",
                obj=system.curtailment_penalty * scale,
            )

    p_min = np.array([g.p_min for g in gens])
    bus_of = [system.bus_index(g.bus) for g in gens]
    for k in range(n_periods):
        h = k // k_per_h
        terms = {}
        for i in range(len(gens)):
            terms[p[i, k]] = 1.0
            terms[u[i, h]] = terms.get(u[i, h], 0.0) + p_min[i]
        for n in range(len(system.buses)):
            terms[pc[n, k]] = 1.0
        model.add_constr(f"bal{tag}[{k}]", terms, "==", float(net_load[:, k].sum()))

    if psi is not None:  # the unscreened formulation: every flow row now
        screen = network.FlowScreen(system, psi)
    if screen is not None:
        n_b = len(system.buses)
        screen.add_periods(
            tag,
            np.concatenate([bus_of, bus_of, np.arange(n_b)]),
            np.vstack([p, u[:, np.arange(n_periods) // k_per_h], pc]),
            np.concatenate([np.ones(len(gens)), p_min, np.ones(n_b)]),
            -np.asarray(net_load, dtype=float),
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
        # weight this scenario's cost terms by its probability
        for j in range(mark, model.n_vars):
            model.obj[j] *= prob
        p_idx.append(p)
        pc_idx.append(pc)

    try:
        res = screen.solve(
            model,
            lambda m, left: optim.solve(m, gap_tol=gap_tol, time_limit=left),
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
    )

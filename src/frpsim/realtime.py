"""Real-time redispatch of a day-ahead schedule against a realized net load.

Commitments are frozen at the day-ahead schedule; dispatch re-optimizes over
the whole day's sub-period grid in a single LP with curtailment as the only
slack (priced at the systemwide penalty, which stands in for the value of
lost load). Real-time locational prices are the duals of the per-bus realized
load equalities. A realized trajectory the committed fleet cannot ramp down
to raises InfeasibleModelError; that is a modeling problem, not a market
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network, optim
from .scenarios import NetLoadProfile, draw_realization

__all__ = ["RtmOutcome", "simulate_rtm", "stress_sweep"]


@dataclass
class RtmOutcome:
    gen_ids: list
    bus_ids: list
    grid: object  # TimeGrid of the realized trajectory
    u: np.ndarray  # (gens, periods) commitment expanded from the DAM schedule
    p: np.ndarray  # (gens, periods) dispatch above minimum, MW
    curtail: np.ndarray  # (buses, periods) MW
    lmp: np.ndarray  # (buses, periods) $/MWh
    commitment_cost: float  # carried from the DAM schedule
    dispatch_cost: float
    curtailment_cost: float
    shed_mwh: float
    screen_rounds: int = 0  # solves made while screening line flows
    flow_rows: int = 0  # line-flow rows the screening added

    @property
    def total_cost(self):
        """Commitment plus realized dispatch plus curtailment penalty."""
        return self.commitment_cost + self.dispatch_cost + self.curtailment_cost

    def dispatch_total(self, system):
        p_min = np.array([g.p_min for g in system.generators])
        return self.p + p_min[:, None] * self.u


def _expand_commitment(dam, grid):
    """Hourly on/start/stop to the sub-period grid; transitions happen at the
    first sub-period of their hour."""
    k = grid.periods_per_hour
    u = np.repeat(dam.u, k, axis=1)
    v = np.zeros_like(u)
    w = np.zeros_like(u)
    v[:, ::k] = dam.v
    w[:, ::k] = dam.w
    return u, v, w


def simulate_rtm(system, dam, realized, gap_tol=1e-6, dump_lp=None):
    """Dispatch the committed fleet against one realized net-load profile.

    Line-flow rows are screened (see `network`); ``dump_lp`` receives the
    final screened model."""
    grid = realized.grid
    if grid.hours != dam.hours:
        raise ValueError("realized profile horizon does not match the DAM schedule")
    if tuple(realized.buses) != tuple(system.bus_ids):
        raise ValueError("realized profile buses do not match system buses")
    gens = system.generators
    n_g, n_b, n_t = len(gens), len(system.buses), grid.n_periods
    scale = grid.period_hours
    u, v, w = _expand_commitment(dam, grid)

    model = optim.Model("rtm")
    p = np.empty((n_g, n_t), dtype=int)
    for i, g in enumerate(gens):
        ru = g.ramp_up * scale
        rd = g.ramp_down * scale
        p0 = g.initial.dispatch_above_min
        u0 = 1.0 if g.initial.on else 0.0
        for k in range(n_t):
            p[i, k] = model.add_var(
                f"p[{g.id},{k}]", ub=g.dispatch_range * u[i, k]
            )
            prev_up = 0.0
            seg_terms = {p[i, k]: 1.0}
            for s, seg in enumerate(g.segments):
                j = model.add_var(
                    f"pseg[{g.id},{s},{k}]",
                    ub=seg.upper - prev_up,
                    obj=seg.cost * scale,
                )
                seg_terms[j] = -1.0
                prev_up = seg.upper
            model.add_constr(f"segsum[{g.id},{k}]", seg_terms, "==", 0.0)
            if k == 0:
                lift = (g.startup_limit - g.p_min) * v[i, 0]
                model.add_constr(
                    f"rampup[{g.id},0]", {p[i, 0]: 1.0}, "<=", p0 + ru * u0 + lift
                )
                floor = p0 - rd * u0 + (rd - p0) * w[i, 0]
                model.add_constr(f"rampdn[{g.id},0]", {p[i, 0]: 1.0}, ">=", floor)
            else:
                lift = (g.startup_limit - g.p_min) * v[i, k]
                model.add_constr(
                    f"rampup[{g.id},{k}]",
                    {p[i, k]: 1.0, p[i, k - 1]: -1.0},
                    "<=",
                    ru * u[i, k - 1] + lift,
                )
                drop = g.dispatch_range * w[i, k]
                model.add_constr(
                    f"rampdn[{g.id},{k}]",
                    {p[i, k - 1]: 1.0, p[i, k]: -1.0},
                    "<=",
                    rd * u[i, k - 1] + drop,
                )
            if k < n_t - 1 and w[i, k + 1]:
                model.add_constr(
                    f"stopcap[{g.id},{k}]",
                    {p[i, k]: 1.0},
                    "<=",
                    g.shutdown_limit - g.p_min,
                )

    pc = np.empty((n_b, n_t), dtype=int)
    d = np.empty((n_b, n_t), dtype=int)
    for n in range(n_b):
        bid = system.buses[n].id
        for k in range(n_t):
            pc[n, k] = model.add_var(
                f"pc[{bid},{k}]", obj=system.curtailment_penalty * scale
            )
            d[n, k] = model.add_var(f"d[{bid},{k}]", lb=-np.inf)
            model.add_constr(
                f"load[{bid},{k}]", {d[n, k]: 1.0}, "==", realized.values[n, k]
            )

    p_min = np.array([g.p_min for g in gens])
    bus_of = [system.bus_index(g.bus) for g in gens]
    for k in range(n_t):
        terms = {p[i, k]: 1.0 for i in range(n_g)}
        for n in range(n_b):
            terms[pc[n, k]] = 1.0
            terms[d[n, k]] = -1.0
        model.add_constr(
            f"bal[{k}]", terms, "==", -float((p_min * u[:, k]).sum())
        )

    # committed minimum output is data here, so it enters the flows as a
    # fixed injection
    fixed = np.zeros((n_b, n_t))
    np.add.at(fixed, bus_of, p_min[:, None] * u)
    screen = network.FlowScreen(system)
    screen.add_periods(
        "",
        np.concatenate([bus_of, np.arange(n_b), np.arange(n_b)]),
        np.vstack([p, pc, d]),
        np.concatenate([np.ones(n_g), np.ones(n_b), -np.ones(n_b)]),
        fixed,
    )
    try:
        res = screen.solve(model, lambda m, _: optim.solve(m, gap_tol=gap_tol))
    finally:
        if dump_lp:
            model.write_lp(dump_lp)
    optim.require_optimal(res, "real-time dispatch")

    x = res.x
    p_val = x[p]
    pc_val = x[pc]
    lmp = np.empty((n_b, n_t))
    for n in range(n_b):
        bid = system.buses[n].id
        for k in range(n_t):
            lmp[n, k] = res.duals[f"load[{bid},{k}]"]
    curtail_cost = float(system.curtailment_penalty * scale * pc_val.sum())
    commitment_cost = float(
        sum(
            g.no_load_cost * dam.u[i].sum() + g.startup_cost * dam.v[i].sum()
            for i, g in enumerate(gens)
        )
    )
    return RtmOutcome(
        gen_ids=list(system.gen_ids),
        bus_ids=list(system.bus_ids),
        grid=grid,
        u=u,
        p=p_val,
        curtail=pc_val,
        lmp=lmp,
        commitment_cost=commitment_cost,
        dispatch_cost=float(res.objective) - curtail_cost,
        curtailment_cost=curtail_cost,
        shed_mwh=float(pc_val.sum() * scale),
        screen_rounds=screen.rounds,
        flow_rows=len(screen.added),
    )


def stress_sweep(system, dams_by_method, forecast, sigma_fracs, rho, seed, day="day0"):
    """Re-dispatch each method's DAM schedule against realizations of growing
    error spread.

    The error shape is drawn once per day from a named sub-stream and scaled
    to each sigma, so the sweep is nested (larger sigma means the same
    trajectory pushed further from forecast) and every method faces identical
    realizations. A single-entry sigma list degenerates to one evaluation per
    method. Returns tidy rows: method, sigma_frac, total cost, shed MWh.
    """
    unit = draw_realization(forecast, 1.0, rho, seed, labels=("stress", day))
    shape = unit.values - forecast.values  # error at sigma_frac = 1
    rows = []
    for sigma in sigma_fracs:
        realized = NetLoadProfile(
            forecast.buses, forecast.grid, forecast.values + sigma * shape
        )
        for method, dam in dams_by_method.items():
            rtm = simulate_rtm(system, dam, realized)
            rows.append(
                {
                    "method": method,
                    "sigma_frac": sigma,
                    "cost_usd": rtm.total_cost,
                    "shed_mwh": rtm.shed_mwh,
                }
            )
    return rows

"""Real-time redispatch of a day-ahead schedule against a realized net load.

Commitments are frozen at the day-ahead schedule; dispatch re-optimizes over
the whole day's sub-period grid in a single LP with curtailment as the only
slack (priced at the systemwide penalty, which stands in for the value of
lost load). The dispatch rows come from `dispatch.unit_rows` with the
commitment as data, so the LP has no commitment columns. Real-time
locational prices are the duals of the per-bus realized load equalities.
Each unit's realized dispatch cost is the LP's cost of its own offer-segment
columns at the solution; settlement takes it as the energy part of the
unit's as-bid cost. A realized trajectory the committed fleet cannot ramp
down to raises InfeasibleModelError; that is a modeling problem, not a
market outcome.
`check_rtm_outcome` audits a dispatch without the solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import dispatch, network, optim
from .scenarios import NetLoadProfile, draw_realization
from .stochastic_uc import commitment_cost

__all__ = ["RtmOutcome", "simulate_rtm", "check_rtm_outcome", "stress_sweep"]


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
    unit_dispatch_cost: np.ndarray  # (gens,) $, each unit's segment columns at the solution
    curtailment_cost: float
    shed_mwh: float
    # what the solve did, as the ledger writes it: screening rounds and the
    # flow rows they added, build seconds, the LP's size in its last round
    # and its HiGHS seconds and simplex iterations over the rounds
    record: dict = field(default_factory=dict)

    @property
    def total_cost(self):
        """Commitment plus realized dispatch plus curtailment penalty."""
        return self.commitment_cost + self.dispatch_cost + self.curtailment_cost

    def dispatch_total(self, system):
        return self.p + dispatch.unit_params(system.generators, "p_min") * self.u


def simulate_rtm(system, dam, realized):
    """Dispatch the committed fleet against one realized net-load profile.

    Line-flow rows are screened (see `network`). Raises ValueError if the
    schedule was cleared for other units or buses than the system's."""
    grid = realized.grid
    if grid.hours != dam.hours:
        raise ValueError("realized profile horizon does not match the DAM schedule")
    ids = (list(dam.gen_ids), list(dam.bus_ids), list(realized.buses))
    if ids != (system.gen_ids, system.bus_ids, system.bus_ids):
        raise ValueError("DAM schedule or realized profile does not match system units or buses")
    gens = system.generators
    n_b, n_t = len(system.buses), grid.n_periods
    scale = grid.period_hours
    t_build = time.perf_counter()
    u = np.repeat(dam.u, grid.periods_per_hour, axis=1)  # hourly on/off per sub-period

    model = optim.Model()
    seg = [dispatch.unit_columns(model, f"p[{g.id}]", g, grid) for g in gens]
    # commitment is data: the cap row becomes the segments' bounds
    for cols, on in zip(seg, u):
        model.ub[cols[on == 0]] = 0.0
    var = {"p": dispatch.segment_lines(seg), "u": dam.u, "v": dam.v, "w": dam.w}
    table = dispatch.row_table(dispatch.unit_rows(gens, grid, dam.w), var, data=("u", "v", "w"))
    dispatch.add_row_blocks(
        model, table, [(f"disp[{g.id}]", (0, i), [1, 2, 3]) for i, g in enumerate(gens)]
    )

    pcd = model.add_vars(
        "pcd", (n_b, n_t, 2), lb=[0.0, -np.inf],
        obj=[system.curtailment_penalty * scale, 0.0],
    )
    pc, d = pcd[..., 0], pcd[..., 1]
    load = model.add_rows("load", "==", realized.values, d[..., None], 1.0)

    # the injections: output above minimum, curtailment and load; the
    # committed minimum output is data here, so it is a fixed injection
    screen = network.FlowScreen(system)
    every = np.arange(n_b)
    screen.add_balance(
        model, "", [dispatch.segment_entries(system, seg), (every, pc, 1.0), (every, d, -1.0)],
        fixed=[([system.bus_index(g.bus) for g in gens], np.array([[g.p_min] for g in gens]) * u)],
    )
    build_s = time.perf_counter() - t_build
    res = optim.require_optimal(screen.solve(model, optim.solve), "real-time dispatch")

    x = res.x
    p_val = np.stack([x[s].sum(axis=-1) for s in seg])
    pc_val = x[pc]
    lmp = res.duals[load]
    curtail_cost = float(system.curtailment_penalty * scale * pc_val.sum())
    return RtmOutcome(
        gen_ids=list(system.gen_ids),
        bus_ids=list(system.bus_ids),
        grid=grid,
        u=u,
        p=p_val,
        curtail=pc_val,
        lmp=lmp,
        commitment_cost=float(sum(commitment_cost(gens, dam.u, dam.v))),
        dispatch_cost=float(res.objective) - curtail_cost,
        unit_dispatch_cost=np.array([x[s].ravel() @ model.obj[s].ravel() for s in seg]),
        curtailment_cost=curtail_cost,
        shed_mwh=float(pc_val.sum() * scale),
        record={
            "screen_rounds": screen.rounds, "flow_rows": len(screen.added),
            "build_s": build_s, **res.size, **res.highs,
        },
    )


def check_rtm_outcome(system, dam, rtm, realized):
    """Solver-independent residual audit of a real-time dispatch against the
    realized net load, under the DAM commitment it was given.

    Returns worst-case violations in MW per constraint family (see
    `dispatch.physical_residuals`), plus "commitment", the largest gap
    between ``rtm.u`` and the DAM schedule on the real-time grid; every
    value should be ~0 on a healthy outcome.
    """
    u = np.repeat(dam.u, rtm.grid.periods_per_hour, axis=1)
    worst = dispatch.physical_residuals(
        system, rtm.grid, dam.u, dam.v, dam.w,
        rtm.p[None], rtm.curtail[None], realized.values[None],
    )
    worst["commitment"] = float(np.abs(rtm.u - u).max())
    return worst


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

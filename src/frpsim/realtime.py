"""Real-time redispatch of a day-ahead schedule against a realized net load.

Commitments are frozen at the day-ahead schedule; dispatch re-optimizes over
the whole day's sub-period grid in a single LP with curtailment as the only
slack (priced at the systemwide penalty, which stands in for the value of
lost load). The dispatch rows come from `dispatch.add_unit_rows` with the
commitment as data, so the LP has no commitment columns. Real-time
locational prices are the duals of the per-bus realized load equalities. A
realized trajectory the committed fleet cannot ramp down to raises
InfeasibleModelError; that is a modeling problem, not a market outcome.
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


def simulate_rtm(system, dam, realized, gap_tol=1e-6):
    """Dispatch the committed fleet against one realized net-load profile.

    Line-flow rows are screened (see `network`). ``gap_tol`` is accepted and
    has no effect: the model is an LP."""
    grid = realized.grid
    if grid.hours != dam.hours:
        raise ValueError("realized profile horizon does not match the DAM schedule")
    if tuple(realized.buses) != tuple(system.bus_ids):
        raise ValueError("realized profile buses do not match system buses")
    gens = system.generators
    n_b, n_t = len(system.buses), grid.n_periods
    scale = grid.period_hours
    t_build = time.perf_counter()
    u, _, _ = _expand_commitment(dam, grid)

    model = optim.Model()
    seg = []
    for i, g in enumerate(gens):
        seg.append(dispatch.unit_columns(model, f"p[{g.id}]", g, grid))
        # commitment is data: the cap row becomes the segments' bounds
        dispatch.add_unit_rows(
            model, g, grid, {f"disp[{g.id}]": [1, 2, 3]},
            seg[i], dam.u[i], dam.v[i], dam.w[i], fixed=True,
        )

    pcd = model.add_vars(
        "pcd", (n_b, n_t, 2), lb=[0.0, -np.inf],
        obj=[system.curtailment_penalty * scale, 0.0],
    )
    pc, d = pcd[..., 0], pcd[..., 1]
    load = model.add_rows("load", "==", realized.values, d[..., None], 1.0)

    # the injections: output above minimum, curtailment and load; the
    # committed minimum output is data here, so it is a fixed injection
    floor = np.array([[g.p_min] for g in gens]) * u
    seg_bus, seg_cols = dispatch.segment_entries(system, seg)
    bus = np.concatenate([seg_bus, np.arange(n_b), np.arange(n_b)])
    cols = np.concatenate([seg_cols, pc, d])
    coefs = np.concatenate([np.ones(len(seg_bus)), np.ones(n_b), -np.ones(n_b)])
    # committed minimum output per period, summed along a contiguous row
    model.add_rows("bal", "==", -np.ascontiguousarray(floor.T).sum(axis=1), cols.T, coefs)
    screen = network.FlowScreen(system)
    screen.add_periods("", bus, cols, coefs, dispatch.bus_injections(system, floor))
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
        commitment_cost=commitment_cost(gens, dam.u, dam.v),
        dispatch_cost=float(res.objective) - curtail_cost,
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
    u, _, _ = _expand_commitment(dam, rtm.grid)
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

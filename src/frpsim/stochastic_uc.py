"""Scenario-based stochastic unit commitment on the sub-period grid.

One set of hourly commitment variables is shared by every scenario; dispatch,
segment loading and curtailment are per scenario on the sub-period grid.
The units' dispatch rows come from `dispatch.unit_rows`, shared with
the day-ahead and real-time passes: online ramp rates are scaled to the
sub-period length, startup/shutdown ramps are not (they cap the jump at a
transition, however short the step). Commitment is hourly by construction:
commitment variables live on the hourly grid and sub-period constraints
reference the hour they fall in. `check_suc_solution` audits a solution
against the same physics without the solver (`dispatch.physical_residuals`).

The commitment block (`add_commitment_block`) is shared with the day-ahead
market. Only the on/off variables are integer; start and stop variables are
continuous and take 0/1 values at every integral on/off schedule (see that
function for the argument). `commitment_schedule` checks this after each
solve, and `commitment_logic_residual` audits a schedule without the solver.

Curtailment is the only recourse slack, so a scenario whose net load falls
faster than the committed fleet can back down may be infeasible; that raises
InfeasibleModelError rather than returning garbage.

With more than one scenario, `solve_suc` first solves the expected-value (EV)
problem: the same commitment on the probability-weighted mean net load
(Birge, "The value of the stochastic solution in stochastic linear programs
with fixed recourse", Math. Programming 24, 1982). Its commitment, completed
by the cheapest dispatch of every scenario (`optim.complete`), is a feasible
point of the stochastic model whenever that dispatch exists, and is handed
to HiGHS as a MIP start. Without it HiGHS's root cuts often close the bound
long before any heuristic finds an incumbent, and the solve waits on an
analytic-centre computation. The start uses only the in-sample scenarios
and leaves the proof to ``gap_tol`` unchanged (see `optim`); a completion
that is infeasible gives no start. The completion's cost is the expected
cost of the EV solution, so ``eev_usd - objective`` is the value of the
stochastic solution.

The completion is one LP per scenario. Proof: with the first stage ``(u,
v, w)`` pinned,

- the objective is the pinned columns' cost plus one term per scenario:
  the probability-weighted cost of that scenario's dispatch and
  curtailment columns;
- every row that is not over pinned columns alone lies on one scenario's
  columns (and pinned ones): its unit rows (`dispatch.unit_rows`), its
  balance rows, and every flow row the screen adds, each of which reads
  one scenario's injections (`network.FlowScreen`). The rows over pinned
  columns alone, the commitment logic and minimum up and down times
  (`add_commitment_block`), hold or not whatever the dispatch;
- so the pinned model is feasible exactly when those rows hold and every
  scenario's LP is feasible, its optimum is the pinned cost plus the sum
  of the per-scenario optima, and its solution is the concatenation of
  the per-scenario solutions.

`_build` labels each column with its scenario (-1 for the commitment
columns, which every scenario shares), and `optim.complete` solves each
block as its own LP and checks the rows over pinned columns alone
without HiGHS. A one-scenario model is one block, so its completion hands
HiGHS its dispatch columns and rows alone. The largest LP a stochastic
completion hands HiGHS is one scenario's, no wider than the EV model: on
corpus day wed at 64 scenarios the SUC's peak RSS fell from 168.7 to
80.4 MB (one fresh process each). These LPs are the subproblems of the
two-stage (L-shaped) method (Van Slyke & Wets, SIAM J. Appl. Math.
17(4), 1969; Birge & Louveaux, "A multicut algorithm for two-stage
stochastic linear programs", EJOR 34(3), 1988).

A one-scenario solve (the EV problem itself, and the clairvoyant reference)
is started the same way from a commitment of its own: its first fractional
LP relaxation, rounded up (a unit is on wherever the relaxation has it on
above 1e-6, with the starts and stops that implies), then completed against
each round's rows. Rounding up can break a minimum up or down time, and
then the completion is infeasible, found without a HiGHS run, and the
MILP solves cold. Without the
start the MILP waits on the same analytic-centre computation. The
relaxation and the completions run under the MILPs' deadline (``time_limit``
from the start of `solve_suc`), and the record's ``start_s`` holds their
seconds.

An integral relaxation needs no MILP. Each screening round of a one-scenario
solve first looks at its LP relaxation on that round's rows. If the
commitment is integral (`commitment_schedule`: ``u`` within 1e-6 of 0/1,
``v`` and ``w`` its starts and stops), the relaxation is an optimum of the
round's MILP, and the round returns it (`optim.certified`, with its own
objective as the bound: gap 0, no nodes). Proof: the relaxation drops
integrality alone, so its optimum is at most the MILP's; an integral point
is a point of the MILP, so it reaches that optimum. The screen checks it as
it checks every round's answer (see `network`): if it breaks a flow limit,
those rows go in and the next round looks again. A fractional relaxation is
set aside: it adds no rows (the round's MILP's solution does, as without
the check) and is only rounded up for the start. It also ends the looking,
since later rounds only add flow rows. Such a solve records
``solved_by_relaxation``, the relaxation's HiGHS seconds as ``highs_s``
and ``start_used`` false. Only one-scenario solves look: the relaxation of
a multi-scenario model is as wide as the model, and on the benchmark's
ieee14 day d1 at 8 scenarios, whose EV relaxation is integral, it set the
process's peak RSS (67.2 MB, against 54.9 MB without it; one fresh
process each). A multi-scenario solve certifies its EV commitment's
completion by the EV bound below or runs its MILP.

The EV bound is the one certificate of a multi-scenario solve. When a
round's completion of the EV commitment ``u*`` is feasible, at cost EEV,
the EV solve's own final model, flow rows included, gets one more row, the
no-good cut ``sum(u where u* = 0) + sum(1 - u where u* = 1) >= 1`` that
excludes ``u*`` alone (`_ev_bound`), and is solved as a MILP: one
scenario, no start, under the same deadline, with the cut C =
`optim.cutoff` (EEV, ``gap_tol``) as HiGHS's cutoff. C is ``EEV - gap_tol
* max(1, |EEV|)``, raised ulp by ulp until ``optim.gap(EEV, C) <=
gap_tol``; without the raise, rounding fails that check at about half of
all EEVs. The bound it proves, LB (`optim.cutoff_bound`), is C where it is
infeasible (nothing is below the cut; ``u*`` may be the only commitment),
``min(dual bound, C)`` where it is optimal, and -inf where it stopped at a
limit. If ``optim.gap(EEV, LB) <= gap_tol``, the completion is the round's
answer (`optim.certified`, with LB as the bound, so the record's
``mip_dual_bound`` reads the cut and its ``mip_gap`` about ``gap_tol``);
no stochastic MILP runs. Otherwise the round solves the stochastic MILP
from the completion, as above. The screen still checks every answer, so
the certificate is tried each round on that round's completion. A round
whose EEV, and so whose cut, is higher than the last bound MILP's runs
the bound MILP again at its own cut; one whose cut is not higher reads the
last LB, which certifies it whenever it certified the higher cut. The
record says ``solved_by_ev_bound`` when the last round ended this way,
with ``start_used`` false; the HiGHS seconds and nodes of every bound MILP
are in ``highs_s`` and ``mip_node_count`` however the rounds end, and the
certified completion's seconds in ``start_s`` alone.

Proof of the cutoff (see `optim`): branch and bound under the cutoff
prunes a node only where its bound reaches C, or reaches the incumbent
within ``gap_tol`` as it would without the cutoff. So every commitment
other than ``u*`` is in a subtree the cutoff pruned, where it costs at
least C, or in the tree HiGHS kept, where it costs at least the dual
bound: LB is a proven lower bound on the bound MILP's optimum, and C is
one when nothing below it is left. The cutoff takes away only the proof of
what lies above C, which no certificate needs: where the bound MILP's
optimum is at least C, it certifies with or without the cutoff, and where
it is below C, a point below the cut stays in the tree either way.

Proof (Jensen's inequality for stochastic LPs: Madansky, "Inequalities for
stochastic linear programming problems", Management Science 6(2), 1960;
Birge 1982). Fix a commitment ``u``. The two models have the same
first-stage columns, rows and costs (`add_commitment_block`; only a
scenario's columns are weighted by its probability), and the net load
enters a scenario's rows only through their right-hand sides: the balance
rows', and the flow rows' through the injections fixed by data. So, with
every flow row in, the cheapest dispatch of one scenario ``xi``, D(u, xi),
is the optimal value of one LP whose right-hand side is affine in ``xi``,
which is convex in ``xi`` (+inf where infeasible). The EV load is the
probability-weighted mean of the scenarios, so Jensen gives ``sum_s p_s
D(u, xi_s) >= D(u, sum_s p_s xi_s)``: the stochastic cost of ``u`` is at
least its EV cost. The EV solve's final model is a screened model, a
relaxation of the full EV model (see `network`), and the no-good cut
removes ``u*`` alone, so LB is at most the full EV cost, and so at most the full
stochastic cost, of every other commitment. A round's answer ends the
screen only if it breaks no flow limit; the completion is then a point of
the full stochastic model and the cheapest dispatch of ``u*`` in it, so
the full optimum is at least ``min(EEV, LB)`` and the answer is within
``gap_tol`` of it. `ScenarioSet` lets the weights sum to P within 1e-9 of
1 rather than to 1. Jensen holds with the weights ``p_s / P``; the EV
model differs from that by the factor P on the recourse cost and on the
mean load. The first moves the bound by at most 1e-9 of the dispatch
cost; the second by at most 1e-9 of the mean load's value at the EV
model's balance prices, which the curtailment penalty caps: of order 1e-9
times the penalty over the cheapest offer (5000 / 21.7 on the corpus),
about 2e-7 of the cost, by which the answer can then be further from the
optimum than ``gap_tol`` (the cutoff spends all of ``gap_tol``). The
harness's weights are 1/n, which sum to 1 within n ulps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import dispatch, network, optim
from .codec import (
    Table, check_nonnegative, check_shapes, floats, ints, number_or_null, read_json, write_json,
)
from .timegrid import GRID, TimeGrid

__all__ = [
    "SucSolution",
    "add_commitment_block",
    "commitment_schedule",
    "commitment_logic_residual",
    "commitment_cost",
    "solve_suc",
    "check_suc_solution",
    "save_suc_solution",
    "load_suc_solution",
]


# the unit parameters the minimum up and down times read
MIN_TIMES = ("initial.on", "min_up", "min_down", "initial.hours_on", "initial.hours_off")


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

    The rows of the whole fleet are one `dispatch.row_table`, written unit
    by unit. ``u_floor`` (gens x hours, 0/1) raises the lower bound of the
    on-variables wherever it is 1, which is how a prior commitment schedule is
    held fixed. Returns (u, v, w) index arrays of shape (gens, hours).
    """
    uvw = []
    for i, g in enumerate(generators):
        lb = np.zeros((hours, 3))
        if u_floor is not None:
            lb[:, 0] = np.asarray(u_floor[i], dtype=bool)
        uvw.append(model.add_vars(
            f"uvw[{g.id}]", (hours, 3), lb=lb, ub=1.0,
            obj=[g.no_load_cost, g.startup_cost, 0.0], integer=[True, False, False],
        ))
    u, v, w = np.moveaxis(uvw, -1, 0)
    on0, up, down, ran, rested = dispatch.unit_params(generators, *MIN_TIMES)
    hs = np.arange(hours)
    first = hs == 0
    # the v (w) terms of minup (mindown) over hours h-j, j < UT (DT), cut at
    # hour 0, then the u[h] term
    window = min(int(max(up.max(), down.max())), hours)
    back = [(j, (hs - j).clip(0)) for j in range(window)]
    # no stop (start) while the initial run (outage) is shorter than UT (DT)
    held = hs < np.where(on0, up - ran, down - rested)
    rows = [
        ("==", np.where(first, on0, 0.0), [
            ("u", hs, 1.0), ("u", hs - 1, np.where(first, 0.0, -1.0)),
            ("v", hs, -1.0), ("w", hs, 1.0),
        ], True),
        ("<=", 0.0, [("v", b, (hs >= j) & (j < up)) for j, b in back] + [("u", hs, -1.0)], True),
        ("<=", 1.0, [("w", b, (hs >= j) & (j < down)) for j, b in back] + [("u", hs, 1.0)], True),
        ("==", 0.0, [("w", hs, on0), ("v", hs, 1.0 - on0)], held),
    ]
    table = dispatch.row_table(rows, {"u": u, "v": v, "w": w})
    init = ["initup" if g.initial.on else "initdown" for g in generators]
    dispatch.add_row_blocks(model, table, [
        (f"{name}[{g.id}]", (0, i), rows) for i, g in enumerate(generators)
        for name, rows in (("logic", [0]), ("minupdown", [1, 2]), (init[i], [3]))
    ])
    return u, v, w


def commitment_schedule(generators, x, u, v, w, context):
    """Integral (u, v, w) schedule read from a solve of `add_commitment_block`.

    ``u`` is rounded, and ``u``, ``v`` and ``w`` must equal the rounded
    ``u`` and the starts and stops it implies, to within 1e-6. After a MILP
    the formulation guarantees this, so a miss means the solver's
    tolerances let a fractional start or stop through; after an LP
    relaxation it means the relaxation is fractional. Either way it raises
    InfeasibleModelError rather than pricing it.
    """
    u_val = np.round(x[u]).astype(int)
    v_val, w_val = _starts_stops(generators, u_val)
    miss = max(
        np.abs(x[a] - val).max(initial=0.0) for a, val in ((u, u_val), (v, v_val), (w, w_val))
    )
    if miss > 1e-6:
        raise optim.InfeasibleModelError(
            f"{context}: on/off and start/stop variables are {miss:.3g} from an"
            " integral schedule"
        )
    return u_val, v_val, w_val


def _starts_stops(generators, u_val):
    """The (v, w) 0/1 starts and stops of an hourly 0/1 on/off schedule
    (units, hours): its on/off changes from each unit's initial state."""
    u0 = np.array([[1 if g.initial.on else 0] for g in generators], dtype=int)
    step = np.diff(np.concatenate([u0, u_val], axis=1), axis=1)
    return (step > 0).astype(int), (step < 0).astype(int)


def commitment_logic_residual(generators, u, v, w):
    """Worst violation (0 or more, in unit-hours) of the commitment rules by
    an hourly 0/1 schedule (units, hours).

    Checks that starts and stops match the on/off changes from the initial
    state, that no hour has both a start and a stop, and the minimum up/down
    times, counting the hours each unit had been on or off before hour 0.
    """
    u, v, w = (np.asarray(a, dtype=int) for a in (u, v, w))
    hs = np.arange(u.shape[1])
    on0, up, down, ran, rested = np.array(dispatch.unit_params(generators, *MIN_TIMES), int)
    run_v, run_w = (np.concatenate([np.zeros_like(on0), x.cumsum(axis=1)], axis=1) for x in (v, w))
    # the starts (stops) of the last UT (DT) hours, the window cut at hour 0
    started = run_v[:, 1:] - np.take_along_axis(run_v, (hs - up + 1).clip(0), axis=1)
    stopped = run_w[:, 1:] - np.take_along_axis(run_w, (hs - down + 1).clip(0), axis=1)
    # the initial run (outage) holds the unit on (off) until it lasts UT (DT)
    held = hs < np.where(on0, up - ran, down - rested)
    return float(max(
        np.abs(v - w - np.diff(np.concatenate([on0, u], axis=1), axis=1)).max(initial=0),
        np.minimum(v, w).max(initial=0),
        (started - u).max(initial=0),
        (stopped - (1 - u)).max(initial=0),
        (held & (u != on0)).max(initial=0),
    ))


def commitment_cost(generators, u, v):
    """Each unit's no-load plus startup cost under an hourly 0/1 schedule
    (units, hours), shape (units,)."""
    no_load, startup = dispatch.unit_params(generators, "no_load_cost", "startup_cost")
    return no_load[:, 0] * u.sum(axis=1) + startup[:, 0] * v.sum(axis=1)


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
    # what the solve did, as the ledger writes it: wall and build seconds,
    # screening rounds and the flow rows they added, the MILP's size in its
    # last round and its HiGHS record over the rounds
    # (`optim.SolveResult.highs`), and the MIP start (see the module
    # docstring): the seconds spent on it (the EV solve or the LP
    # relaxation, and the completions), whether the last round's MILP was
    # given one, the EV objective (None if the EV problem has no optimum)
    # and the cost of its completion in the last round (None if infeasible),
    # both None for one scenario; and whether the last round's LP
    # relaxation was the optimum (one scenario), or the EV bound certified
    # its completion, so no MILP ran in it; empty in files written before
    # it was kept
    record: dict = field(default_factory=dict)

    def __post_init__(self):
        hours, periods = self.grid.hours, self.grid.n_periods
        n = np.shape(self.p)[:1]  # the scenarios
        check_shapes(self, {
            **dict.fromkeys("uvw", (len(self.gen_ids), hours)),
            "p": (*n, len(self.gen_ids), periods), "curtail": (*n, len(self.bus_ids), periods),
        })

    def committed_hours(self):
        """(gens, hours) 0/1 commitment schedule for downstream fixing."""
        return self.u.copy()

    def dispatch_total(self, system):
        """(scenarios, gens, periods) total MW output including minimum load."""
        u_sub = np.repeat(self.u, self.grid.periods_per_hour, axis=1)
        return self.p + dispatch.unit_params(system.generators, "p_min") * u_sub


def _build(system, scenarios):
    """The stochastic model without flow rows: returns it, its (u, v, w)
    commitment columns, the per-scenario (segment, pc) columns, each
    column's scenario (-1 for the commitment columns, which every scenario
    shares) and the `network.FlowScreen` holding its flows.

    Each scenario has its dispatch columns, costed at its probability, and
    rows on the sub-period grid: its units' rows, from one table of every
    scenario's (`dispatch.row_table`), then its bus balance and line flows
    from the screen, which adds the flow rows where a solve breaks them."""
    grid = scenarios.grid
    gens = system.generators
    model = optim.Model()
    u, v, w = add_commitment_block(model, gens, grid.hours)
    screen = network.FlowScreen(system)
    seg_idx, pc_idx, penalty = [], [], system.curtailment_penalty * grid.period_hours
    marks = []  # each scenario's first column
    for s, prob in enumerate(scenarios.probabilities):
        mark = model.n_vars
        marks.append(mark)
        seg_idx.append([dispatch.unit_columns(model, f"p@{s}[{g.id}]", g, grid) for g in gens])
        pc_idx.append(model.add_vars(f"pc@{s}", scenarios.values[s].shape, obj=penalty))
        model.obj[mark:] *= prob  # weight this scenario's cost terms
    scenario = np.searchsorted(marks, np.arange(model.n_vars), side="right") - 1
    lines = np.concatenate([dispatch.segment_lines(seg) for seg in seg_idx])
    table = dispatch.row_table(dispatch.unit_rows(gens, grid), {"p": lines, "u": u, "v": v, "w": w})
    # the injections: output above minimum, committed minimum (u of each
    # period's hour) and curtailment, less the net load
    every = np.arange(len(system.buses))
    committed = np.repeat(u, grid.periods_per_hour, axis=1)
    for s, (seg, pc) in enumerate(zip(seg_idx, pc_idx)):
        dispatch.add_row_blocks(model, table, [
            (f"disp@{s}[{g.id}]", (s, i), slice(None)) for i, g in enumerate(gens)
        ])
        screen.add_balance(model, f"@{s}", [
            dispatch.segment_entries(system, seg),
            ([system.bus_index(g.bus) for g in gens], committed, [g.p_min for g in gens]),
            (every, pc, 1.0),
        ], fixed=[(every, -scenarios.values[s])])
    return model, (u, v, w), seg_idx, pc_idx, scenario, screen


def solve_suc(system, scenarios, gap_tol=1e-6, time_limit=None, dump_lp=None):
    """Build and solve the two-stage commitment problem, returning the
    commitment schedule plus per-scenario dispatch.

    Line-flow rows are screened (see `network`); ``dump_lp`` receives the
    final screened model. The expected-value commitment is certified by
    its bound or the MILP is started from it, and for one scenario the
    MILP is started from its rounded LP relaxation (see the module
    docstring). ``time_limit`` (seconds, a finite number >= 0, or None for
    none) bounds the whole call: it becomes one deadline for every HiGHS
    call of the EV solve, the relaxations, the completions, the bound MILPs
    and the screening rounds (see `optim.solve`)."""
    check_nonnegative("gap_tol", gap_tol)
    if time_limit is not None:
        check_nonnegative("time_limit", time_limit)
    if tuple(scenarios.buses) != tuple(system.bus_ids):
        raise ValueError("scenario buses do not match system buses")
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    ev, bound, ev_s = None, None, 0.0
    if scenarios.n_scenarios > 1:
        mean = replace(  # the probability-weighted mean net load, as one scenario
            scenarios, values=np.tensordot(scenarios.probabilities, scenarios.values, axes=1)[None],
            probabilities=np.array([1.0]),
        )
        try:
            ev, model, u = _solve(system, mean, gap_tol, deadline, t0)
            bound = _ev_bound(model, u, ev.u, gap_tol, deadline)
        except optim.InfeasibleModelError:
            pass  # no EV commitment: solve cold
        ev_s = time.perf_counter() - t0
    return _solve(system, scenarios, gap_tol, deadline, t0, dump_lp, ev, ev_s, bound)[0]


def _ev_bound(model, u, u_star, gap_tol, deadline):
    """The bound MILP: the EV solve's final ``model`` (commitment columns
    ``u``) with the no-good cut that excludes the 0/1 commitment ``u_star``
    alone. Returns a function of ``cutoff`` that solves it cold under
    ``deadline`` with that cutoff (`optim.solve`); see the module docstring
    for what it proves."""
    model.add_rows(
        "nogood", ">=", 1.0 - u_star.sum(), u.ravel(), np.where(u_star.ravel() == 1, -1.0, 1.0)
    )
    return partial(optim.solve, model, gap_tol=gap_tol, deadline=deadline)


def _relaxation(gens, model, u, v, w, deadline):
    """The LP relaxation of ``model`` on its current rows, and whether it is
    optimal with an integral commitment (`commitment_schedule`)."""
    relaxed = optim.complete(model, np.empty(0, dtype=int), np.empty(0), deadline)
    try:
        return relaxed, relaxed.ok and bool(commitment_schedule(gens, relaxed.x, u, v, w, "LP"))
    except optim.InfeasibleModelError:
        return relaxed, False


def _solve(system, scenarios, gap_tol, deadline, t0, dump_lp=None, ev=None, ev_s=0.0,
           bound=None):
    """`solve_suc` proper, every HiGHS call under ``deadline``, its wall time
    counted from ``t0``. Returns the solution, the final model and its
    commitment columns ``u``. A round of one scenario first solves its LP
    relaxation while the module docstring says so, and returns it if it is
    integral. Otherwise a round completes a commitment against its rows:
    that of ``ev``, the EV solution that took ``ev_s`` seconds, if given;
    else, for one scenario, its first fractional relaxation rounded up;
    else none. A completion of ``ev``'s commitment is returned if
    ``bound``, the bound MILP of `_ev_bound`, certifies it at the cut of
    its cost (`optim.cutoff`), run again only when a round's cut is higher
    than the last; otherwise the round's MILP starts from the
    completion."""
    grid = scenarios.grid
    gens = system.generators
    t_build = time.perf_counter()
    model, (u, v, w), seg_idx, pc_idx, scenario, screen = _build(system, scenarios)
    build_s = time.perf_counter() - t_build
    start = {"start_s": ev_s, "start_used": False, "ev_usd": None, "eev_usd": None}
    uvw = np.concatenate([u, v, w], axis=None)
    commitment = None
    if ev is not None:
        start["ev_usd"] = ev.objective
        commitment = np.concatenate([ev.u, ev.v, ev.w], axis=None)
    relax = scenarios.n_scenarios == 1
    proved_by = None  # how the last round ended: "relaxation", "ev_bound" or a MILP (None)
    bounds = []  # every bound MILP's result and its cut

    def solve_round(m):
        nonlocal commitment, relax, proved_by
        proved_by = None
        if relax:
            t = time.perf_counter()
            # a fractional relaxation ends the looking (see the module docstring)
            relaxed, relax = _relaxation(gens, m, u, v, w, deadline)
            if relax:
                proved_by = "relaxation"
                return optim.certified(relaxed, relaxed.objective, gap_tol, m.n_integer)
            start["start_s"] += time.perf_counter() - t
            if relaxed.ok:
                # one scenario: on wherever the relaxation is above 1e-6
                u_up = (relaxed.x[u] > 1e-6).astype(int)
                commitment = np.concatenate([u_up, *_starts_stops(gens, u_up)], axis=None)
        x0 = None
        if commitment is not None:
            # complete the commitment against this round's rows
            t = time.perf_counter()
            done = optim.complete(m, uvw, commitment, deadline, scenario)
            start["start_s"] += time.perf_counter() - t
            start["start_used"] = done.ok
            start["eev_usd"] = done.objective if ev is not None and done.ok else None
            if ev is not None and done.ok:
                cut = optim.cutoff(done.objective, gap_tol)
                if not bounds or cut > bounds[-1][1]:  # the last run's bound is lower
                    bounds.append((bound(cutoff=cut), cut))
                lb = optim.cutoff_bound(*bounds[-1])
                # the completion's seconds are in start_s alone
                answer = optim.certified(replace(done, highs_s=0.0), lb, gap_tol, m.n_integer)
                if answer is not None:
                    proved_by = "ev_bound"
                    return answer
            x0 = done.x
        return optim.solve(m, gap_tol=gap_tol, deadline=deadline, start=x0)

    try:
        res = screen.solve(model, solve_round)
    finally:
        if dump_lp:
            model.write_lp(dump_lp)
    optim.require_optimal(res, "stochastic commitment")
    wall = time.perf_counter() - t0

    x = res.x
    u_val, v_val, w_val = commitment_schedule(gens, x, u, v, w, "stochastic commitment")
    if proved_by is not None:  # no MILP ran in the last round
        start["start_used"] = False
    highs = res.highs  # and every bound MILP's run
    highs["highs_s"] += sum(run.highs_s or 0.0 for run, _ in bounds)
    highs["mip_node_count"] += sum(run.mip_node_count or 0 for run, _ in bounds)
    p_val = np.stack([[x[s].sum(axis=-1) for s in seg] for seg in seg_idx])
    pc_val = np.stack([x[pc] for pc in pc_idx])
    fixed_cost = float(sum(commitment_cost(gens, u_val, v_val)))
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
        commitment_cost=fixed_cost,
        expected_dispatch_cost=float(res.objective) - fixed_cost,
        mip_gap=res.mip_gap,
        record={
            "wall_time_s": wall, "screen_rounds": screen.rounds,
            "flow_rows": len(screen.added), "build_s": build_s,
            **res.size, **highs, **start,
            "solved_by_relaxation": proved_by == "relaxation",
            "solved_by_ev_bound": proved_by == "ev_bound",
        },
    ), model, u


def check_suc_solution(system, scenarios, sol, tol=1e-6):
    """Residuals of the physical constraints at the returned solution.

    Returns a dict of worst-case violations (MW, see
    `dispatch.physical_residuals`) and the worst commitment-logic violation;
    all entries should be ~0. Used by tests as a solver-independent
    feasibility audit.
    """
    worst = dispatch.physical_residuals(
        system, sol.grid, sol.u, sol.v, sol.w, sol.p, sol.curtail, scenarios.values
    )
    worst["logic"] = commitment_logic_residual(system.generators, sol.u, sol.v, sol.w)
    violations = {k: val for k, val in worst.items() if val > tol}
    return worst if not violations else worst | {"violations": violations}


# -- file io -----------------------------------------------------------------


SOLUTION = Table(SucSolution, "SUC solution", (
    ("gen_ids", "gen_ids", list), ("bus_ids", "bus_ids", list), ("grid", None, GRID),
    ("u", "u", ints), ("v", "v", ints), ("w", "w", ints),
    ("p", "dispatch_above_min_mw", floats), ("curtail", "curtail_mw", floats),
    ("objective", "objective_usd", float), ("commitment_cost", "commitment_cost_usd", float),
    ("expected_dispatch_cost", "expected_dispatch_cost_usd", float),
    ("mip_gap", "mip_gap", number_or_null), ("record", "record", dict, {}),
))


def save_suc_solution(sol, path):
    write_json(path, sol, SOLUTION)


def load_suc_solution(path):
    return read_json(path, SOLUTION)

"""Line-flow screening: on a congested network the screened SUC, DAM and RTM
give the answers of the full formulation, and a system without lines makes
one solver call per model."""

import dataclasses

import numpy as np
import pytest

from frpsim import (
    DamBidSet,
    FrpRequirements,
    NetLoadProfile,
    TimeGrid,
    clear_dam,
    dayahead,
    load_system,
    network,
    optim,
    simulate_rtm,
    solve_suc,
    stochastic_uc,
)
from frpsim.data import case_path
from frpsim.dayahead import check_dam_outcome
from frpsim.realtime import check_rtm_outcome
from frpsim.requirements import zero_requirements
from frpsim.stochastic_uc import check_suc_solution

from conftest import scenario_set
from test_dayahead import _assert_same_clearing

# Hours 4-9 of an ieee14-shaped day (MW per bus, b1..b14): a flat night,
# then the morning ramp. With l1_2 cut to 130 MW the full day-ahead market
# binds it in the last four hours and splits the LMPs by about 10 $/MWh.
LOAD = [
    [0.0] * 6,
    [16.44, 16.45, 24.75, 25.61, 26.05, 27.07],
    [71.25, 71.26, 107.23, 110.95, 112.88, 117.3],
    [35.93, 35.93, 54.07, 55.95, 56.92, 59.15],
    [5.3, 5.31, 7.98, 8.26, 8.4, 8.73],
    [8.0, 8.0, 12.04, 12.45, 12.67, 13.17],
    [0.0] * 6,
    [0.0] * 6,
    [22.15, 22.15, 33.33, 34.49, 35.09, 36.46],
    [6.79, 6.79, 10.22, 10.58, 10.76, 11.18],
    [2.51, 2.51, 3.78, 3.91, 3.98, 4.14],
    [4.24, 4.24, 6.38, 6.6, 6.71, 6.98],
    [9.98, 9.98, 15.02, 15.54, 15.81, 16.42],
    [10.77, 10.77, 16.2, 16.77, 17.06, 17.72],
]
TOL = 1e-6


@pytest.fixture(scope="module")
def congested():
    system = load_system(case_path("ieee14"))
    lines = tuple(
        dataclasses.replace(ln, flow_min=-130.0, flow_max=130.0)
        if ln.id == "l1_2" else ln
        for ln in system.lines
    )
    return dataclasses.replace(system, lines=lines)


def _full(monkeypatch):
    """Seed every screen with all of its rows: the unscreened formulation."""
    screened = network.FlowScreen.solve

    def solve(self, model, solve_once):
        self.add_rows(model, self.every_row())
        return screened(self, model, solve_once)

    monkeypatch.setattr(network.FlowScreen, "solve", solve)


def _both(monkeypatch, run):
    """``run()`` screened, then on the full formulation."""
    screened = run()
    with monkeypatch.context() as m:
        _full(m)
        full = run()
    return screened, full


def _same_objective(a, b):
    assert abs(a - b) <= 1e-6 * max(1.0, abs(b))


def test_screened_suc_matches_full(congested, monkeypatch):
    grid = TimeGrid(6, 1)
    load = np.asarray(LOAD)
    scen = scenario_set(congested, grid, np.stack([load, 1.04 * load]))
    sol, full = _both(monkeypatch, lambda: solve_suc(congested, scen))
    _same_objective(sol.objective, full.objective)
    assert np.array_equal(sol.u, full.u)
    assert "violations" not in check_suc_solution(congested, scen, sol, tol=TOL)
    # the first solve broke a limit, so a loop that stopped there would fail
    rec, full_rec = sol.record, full.record
    assert rec["flow_rows"] >= 1 and rec["screen_rounds"] >= 2
    assert full_rec["screen_rounds"] == 1 and rec["flow_rows"] < full_rec["flow_rows"]


def test_integral_relaxation_over_a_flow_limit_runs_no_milp(congested, monkeypatch):
    """One certain scenario on the congested network. The first LP
    relaxation overloads l1_2: the screen adds the rows it breaks and
    solves the relaxation again until it meets every flow limit. That last
    relaxation is integral, so it is an optimum of the full MILP and the
    answer: no MILP runs at all, and the record counts the relaxation's
    rounds. The answer is that of the same solve with the relaxation taken
    as fractional, within gap_tol."""
    scen = scenario_set(congested, TimeGrid(6, 1), [np.asarray(LOAD)])
    relaxations, added, milps = [], [], []
    complete, solve = optim.complete, optim.solve
    add_rows = network.FlowScreen.add_rows
    monkeypatch.setattr(
        optim, "complete", lambda *a: relaxations.append(complete(*a)) or relaxations[-1]
    )
    monkeypatch.setattr(
        network.FlowScreen, "add_rows",
        lambda screen, model, keys: added.append(list(keys)) or add_rows(screen, model, keys),
    )
    monkeypatch.setattr(
        optim, "solve", lambda model, *a, **kw: milps.append(model.n_rows) or solve(model, *a, **kw)
    )
    sol = solve_suc(congested, scen)
    assert milps == [] and len(relaxations) == sol.record["screen_rounds"] >= 2
    # the rows of the first round are those the first relaxation breaks
    *_, fresh = stochastic_uc._build(congested, scen)
    assert added[0] == fresh.violated(relaxations[0].x) != []
    assert fresh.violated(relaxations[-1].x) == [] and sol.record["start_s"] == 0.0
    assert sol.record["proved_by"] == "relaxation" and sol.record["mip_node_count"] == 0
    monkeypatch.setattr(stochastic_uc, "_integral", lambda *a: False)
    plain = solve_suc(congested, scen)
    assert milps and plain.record["proved_by"] == "milp"
    assert np.array_equal(sol.u, plain.u)
    _same_objective(sol.objective, plain.objective)
    assert "violations" not in check_suc_solution(congested, scen, sol, tol=TOL)


def test_screened_dam_and_rtm_match_full(congested, monkeypatch):
    bids = DamBidSet(congested.bus_ids, LOAD)
    # enough ramp-up capability over the morning ramp to carry a price
    req = FrpRequirements([0, 0, 150, 150, 150, 0], [0] * 6, "test")
    dam, full = _both(monkeypatch, lambda: clear_dam(congested, bids, req))
    _same_objective(dam.objective, full.objective)
    assert np.array_equal(dam.u, full.u)
    assert np.allclose(dam.lmp, full.lmp, atol=TOL)
    assert np.allclose(dam.price_up, full.price_up, atol=TOL)
    assert np.allclose(dam.price_dn, full.price_dn, atol=TOL)
    assert np.ptp(full.lmp, axis=0).max() > 5.0  # the line binds
    assert full.price_up.max() > 1.0
    worst = check_dam_outcome(congested, dam, bids, req)
    assert max(worst.values()) <= TOL, worst
    assert dam.record["flow_rows"] >= 1 and dam.record["screen_rounds"] >= 3

    grid = TimeGrid(6, 2)
    realized = NetLoadProfile(
        congested.bus_ids, grid, 1.02 * np.repeat(bids.values, 2, axis=1)
    )
    rtm, rtm_full = _both(monkeypatch, lambda: simulate_rtm(congested, dam, realized))
    _same_objective(rtm.total_cost, rtm_full.total_cost)
    assert np.allclose(rtm.lmp, rtm_full.lmp, atol=TOL)
    worst = check_rtm_outcome(congested, dam, rtm, realized)
    assert max(worst.values()) <= TOL, worst
    assert rtm.record["flow_rows"] >= 1 and rtm.record["screen_rounds"] >= 2
    # 10 MW more at b1 and less at b2 in the last period overloads l1_2
    rtm.p[:2, -1] += [10.0, -10.0]
    worst = check_rtm_outcome(congested, dam, rtm, realized)
    assert worst["flow"] > 1.0 and worst["balance"] <= TOL, worst


def test_certificate_screens_flow_rows(congested, monkeypatch):
    """The market without a requirement certifies one with 50 MW of up
    requirement over the ramp: the check's pricing LP screens the flow rows
    the commitment needs, and the outcome is a cold clearing's. At 150 MW
    the check fails after its screening added rows, so the model is rebuilt
    and its MILP gives the cold clearing bit for bit."""
    bids = DamBidSet(congested.bus_ids, LOAD)
    below = clear_dam(congested, bids, zero_requirements(6))
    req = FrpRequirements([0, 0, 50, 50, 50, 0], [0] * 6, "test")
    out, cold = clear_dam(congested, bids, req, relaxed=below), clear_dam(congested, bids, req)
    assert out.record["proved_by"] == "ladder" and out.record["flow_rows"] >= 1
    assert np.array_equal(out.u, cold.u)
    _same_objective(out.objective, cold.objective)
    assert np.allclose(out.lmp, cold.lmp, atol=TOL)
    assert max(check_dam_outcome(congested, out, bids, req).values()) <= TOL

    req = FrpRequirements([0, 0, 150, 150, 150, 0], [0] * 6, "test")
    builds = []
    build = dayahead._build
    with monkeypatch.context() as m:
        m.setattr(dayahead, "_build", lambda *args: builds.append(args) or build(*args))
        out = clear_dam(congested, bids, req, relaxed=below)
    assert len(builds) == 2
    _assert_same_clearing(out, clear_dam(congested, bids, req))


def _spy_rounds(monkeypatch):
    """Per call of `FlowScreen.solve`: the (highs_s, mip_node_count,
    simplex_iterations, mip_dual_bound) of each round's result, and the
    result the call returned."""
    calls = []
    screened = network.FlowScreen.solve

    def solve(self, model, solve_once):
        rounds = []

        def counted(m):
            res = solve_once(m)
            rounds.append(
                (res.highs_s, res.mip_node_count, res.simplex_iterations, res.mip_dual_bound)
            )
            return res

        res = screened(self, model, counted)
        calls.append((rounds, res))
        return res

    monkeypatch.setattr(network.FlowScreen, "solve", solve)
    return calls


def _assert_summed(rounds, res):
    """``res`` carries the sums of its rounds' HiGHS seconds, nodes and
    simplex iterations (a field a round leaves None counts 0)."""
    highs_s, nodes, iterations = (sum(r[k] or 0 for r in rounds) for k in range(3))
    assert res.highs_s == highs_s > 0.0
    assert (res.mip_node_count, res.simplex_iterations) == (nodes, iterations)


def test_milp_rounds_are_summed_and_keep_the_last_bound(congested, monkeypatch):
    """The clearing MILP of the congested DAM takes several rounds; its
    result and record sum their HiGHS seconds and nodes and keep the last
    round's dual bound."""
    calls = _spy_rounds(monkeypatch)
    bids = DamBidSet(congested.bus_ids, LOAD)
    dam = clear_dam(congested, bids, zero_requirements(6))
    (rounds, mip), (_, pricing) = calls
    assert len(rounds) >= 2
    _assert_summed(rounds, mip)
    assert mip.mip_node_count >= len(rounds)
    assert mip.mip_dual_bound == rounds[-1][3]
    assert mip.highs == {
        "highs_s": mip.highs_s, "mip_node_count": mip.mip_node_count,
        "mip_dual_bound": mip.mip_dual_bound,
    }
    assert {key: dam.record[key] for key in mip.highs} == mip.highs
    assert dam.record["pricing_lp"] == pricing.highs


def test_lp_rounds_sum_highs_time_and_simplex_iterations(congested, monkeypatch):
    """The congested real-time LP takes several rounds; its result and
    record sum their HiGHS seconds and simplex iterations."""
    bids = DamBidSet(congested.bus_ids, LOAD)
    dam = clear_dam(congested, bids, zero_requirements(6))
    realized = NetLoadProfile(
        congested.bus_ids, TimeGrid(6, 2), 1.02 * np.repeat(bids.values, 2, axis=1)
    )
    calls = _spy_rounds(monkeypatch)
    rtm = simulate_rtm(congested, dam, realized)
    ((rounds, lp),) = calls
    assert len(rounds) >= 2
    _assert_summed(rounds, lp)
    assert lp.simplex_iterations >= len(rounds)
    assert lp.highs == {"highs_s": lp.highs_s, "simplex_iterations": lp.simplex_iterations}
    assert {key: rtm.record[key] for key in lp.highs} == lp.highs


def _overloaded(system):
    """A one-period model of bus draws, its screen, and a point that
    overloads l1_2 (200 MW drawn at b2)."""
    screen = network.FlowScreen(system)
    n_b = len(system.buses)
    model = optim.Model()
    d = model.add_vars("d", (n_b, 1), lb=-np.inf)
    screen.add_periods("", np.arange(n_b), d, -np.ones(n_b), np.zeros((n_b, 1)))
    x = np.zeros(n_b)
    x[system.bus_index("b2")] = 200.0
    return screen, model, x


def test_loop_stops_on_rows_already_in_the_model(congested):
    """A solution that keeps breaking a row already added (solver tolerance)
    ends the loop instead of adding the row again."""
    screen, model, x = _overloaded(congested)
    calls = []

    def stuck(m):
        calls.append(m.n_rows)
        return optim.SolveResult(status="optimal", objective=0.0, x=x)

    screen.solve(model, stuck)
    assert screen.rounds == 2 and len(calls) == 2
    assert calls[1] == len(screen.added) >= 1
    assert screen.violated(x) == []


def test_a_round_that_is_not_optimal_ends_the_loop(congested):
    """A round that stops at a limit, even with a point that overloads a
    line, ends the loop: the screen adds no row and returns that result."""
    screen, model, x = _overloaded(congested)
    assert screen.violated(x)

    def stopped(m):
        return optim.SolveResult(status="limit", objective=0.0, x=x, highs_s=0.5)

    res = screen.solve(model, stopped)
    assert res.status == "limit" and res.highs_s == 0.5
    assert screen.rounds == 1 and not screen.added and model.n_rows == 0


def _screening(outcome):
    return outcome.record["screen_rounds"], outcome.record["flow_rows"]


def test_no_lines_means_one_solve_per_model(two_gen_system, monkeypatch):
    calls = []
    for name in ("solve", "fix_and_resolve"):
        real = getattr(optim, name)
        monkeypatch.setattr(
            optim, name,
            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k),
        )
    loads = [[70.0, 120.0]]
    grid = TimeGrid(2, 1)
    sol = solve_suc(two_gen_system, scenario_set(two_gen_system, grid, loads))
    assert calls == ["solve"] and _screening(sol) == (1, 0)
    dam = clear_dam(
        two_gen_system, DamBidSet(two_gen_system.bus_ids, loads), zero_requirements(2)
    )
    assert calls[1:] == ["solve", "fix_and_resolve"]
    assert _screening(dam) == (2, 0)
    rtm = simulate_rtm(
        two_gen_system, dam, NetLoadProfile(two_gen_system.bus_ids, grid, loads)
    )
    assert calls[3:] == ["solve"] and _screening(rtm) == (1, 0)


def test_balance_and_flow_rows_read_one_injection_map(congested, monkeypatch):
    """At the solution of each SUC, DAM and RTM model, each balance row's
    activity plus its data injection (minus its right-hand side) is the
    bus-summed injection its screen registered for the row's block: the
    balance and the flow rows read one map of columns and data."""
    solved = []
    screened = network.FlowScreen.solve

    def solve(self, model, solve_once):
        res = screened(self, model, solve_once)
        solved.append((self, model, res.x))
        return res

    monkeypatch.setattr(network.FlowScreen, "solve", solve)
    load = np.asarray(LOAD)
    solve_suc(congested, scenario_set(congested, TimeGrid(6, 1), np.stack([load, 1.04 * load])))
    dam = clear_dam(congested, DamBidSet(congested.bus_ids, load), zero_requirements(6))
    realized = NetLoadProfile(congested.bus_ids, TimeGrid(6, 2), np.repeat(1.02 * load, 2, axis=1))
    simulate_rtm(congested, dam, realized)
    tags = []
    for screen, model, x in solved:
        mat, lo, hi = model._constraint_matrix()
        row_of = np.repeat(np.arange(model.n_rows), np.diff(mat.indptr))
        activity = np.bincount(row_of, mat.data * x[mat.indices], minlength=model.n_rows)
        start = {name: first for name, first, _ in model._row_blocks}
        for tag, bus, cols, coefs, const in screen.blocks:
            inj = const.copy()
            np.add.at(inj, bus, coefs[:, None] * x[cols])
            bal = start[f"bal{tag}"] + np.arange(cols.shape[1])
            assert np.array_equal(lo[bal], hi[bal])
            np.testing.assert_allclose(activity[bal] - lo[bal], inj.sum(axis=0), atol=1e-6)
            tags.append(tag)
    # the EV and stochastic SUC blocks, then the DAM's and the RTM's
    assert tags.count("@0") >= 2 and "@1" in tags and tags.count("") == 3

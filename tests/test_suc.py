"""Stochastic commitment pass: hand-checkable dispatch cases, probability
weighting, the wait-and-see bound, the feasibility audit, and the shared
commitment block (continuous start/stop variables against binary ones)."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from frpsim import (
    DamBidSet,
    FrpRequirements,
    InfeasibleModelError,
    ScenarioSet,
    TimeGrid,
    clear_dam,
    harness,
    load_system,
    optim,
    solve_suc,
)
from frpsim.data import case_path, corpus_path
from frpsim.dayahead import _build as build_dam_model
from frpsim.dayahead import check_dam_outcome
from frpsim.requirements import zero_requirements
from frpsim.scenarios import gen_ar1_scenarios
from frpsim import stochastic_uc
from frpsim.stochastic_uc import (
    _build,
    check_suc_solution,
    commitment_schedule,
    load_suc_solution,
    save_suc_solution,
)

from conftest import force_suc_fallback, make_gen, scenario_set, single_bus_system


def test_single_unit_three_hours_by_hand():
    """Off, start, run at cap: 50 + 10 + 40*30 + 10 + 80*30 = 3670."""
    g = make_gen(
        "g", p_min=20.0, p_max=100.0, segments=((80.0, 30.0),),
        no_load=10.0, startup=50.0,
    )
    system = single_bus_system(g)
    grid = TimeGrid(hours=3, periods_per_hour=1)
    scn = scenario_set(system, grid, [[0.0, 60.0, 100.0]])
    sol = solve_suc(system, scn)
    assert sol.objective == pytest.approx(3670.0)
    assert sol.u.tolist() == [[0, 1, 1]]
    assert sol.v.tolist() == [[0, 1, 0]]
    assert sol.commitment_cost == pytest.approx(50.0 + 2 * 10.0)
    assert np.allclose(sol.dispatch_total(system)[0, 0], [0.0, 60.0, 100.0])
    assert check_suc_solution(system, scn, sol)["balance"] <= 1e-6


def test_ramp_limit_forces_second_unit():
    g1 = make_gen("g1", p_max=200.0, segments=((200.0, 20.0),),
                  ramp_up=30.0, on=True, p0=50.0)
    g2 = make_gen("g2", p_max=100.0, segments=((100.0, 50.0),),
                  no_load=1.0, startup=10.0)
    system = single_bus_system(g1, g2)
    grid = TimeGrid(hours=2, periods_per_hour=1)
    scn = scenario_set(system, grid, [[50.0, 120.0]])
    sol = solve_suc(system, scn)
    assert sol.objective == pytest.approx(50 * 20 + 80 * 20 + 40 * 50 + 10 + 1)
    assert sol.u.tolist() == [[1, 1], [0, 1]]
    total = sol.dispatch_total(system)[0]
    assert total[0].tolist() == pytest.approx([50.0, 80.0])
    assert total[1].tolist() == pytest.approx([0.0, 40.0])


def test_curtailment_covers_capacity_shortfall():
    g = make_gen("g", p_max=50.0, segments=((50.0, 10.0),), on=True, p0=40.0)
    system = single_bus_system(g, curtailment=100.0)
    grid = TimeGrid(hours=1, periods_per_hour=1)
    scn = scenario_set(system, grid, [[80.0]])
    sol = solve_suc(system, scn)
    assert sol.objective == pytest.approx(50 * 10 + 30 * 100)
    assert sol.curtail[0, 0, 0] == pytest.approx(30.0)


def test_duplicated_scenario_changes_nothing(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    doubled = ScenarioSet(
        buses=scn.buses,
        grid=grid,
        values=np.concatenate([scn.values, scn.values]),
        probabilities=np.concatenate([scn.probabilities, scn.probabilities]) / 2.0,
    )
    a = solve_suc(system, scn)
    b = solve_suc(system, doubled)
    assert b.objective == pytest.approx(a.objective, rel=1e-9)
    assert np.array_equal(a.u, b.u)


def test_stochastic_at_least_wait_and_see(uc_oracle_case):
    """Shared commitments cannot beat committing per scenario."""
    system, grid, scn = uc_oracle_case
    stochastic = solve_suc(system, scn).objective
    ws = 0.0
    for s in range(scn.n_scenarios):
        single = ScenarioSet(
            buses=scn.buses, grid=grid,
            values=scn.values[s : s + 1],
            probabilities=np.array([1.0]),
        )
        ws += scn.probabilities[s] * solve_suc(system, single).objective
    assert stochastic >= ws - 1e-6


def test_probability_weighting_shifts_objective(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    tilted = ScenarioSet(
        buses=scn.buses, grid=grid, values=scn.values,
        probabilities=np.array([0.99, 0.01]),
    )
    a = solve_suc(system, scn)
    b = solve_suc(system, tilted)
    assert a.objective != pytest.approx(b.objective, rel=1e-6)
    for sol in (a, b):
        assert sol.objective == pytest.approx(
            sol.commitment_cost + sol.expected_dispatch_cost
        )


def test_feasibility_audit_is_clean(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    worst = check_suc_solution(system, scn, sol)
    assert "violations" not in worst
    assert all(val <= 1e-6 for val in worst.values())


def test_audit_flags_a_doctored_solution(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    sol.p[0, 0, 1] += 25.0
    worst = check_suc_solution(system, scn, sol)
    assert "violations" in worst
    assert worst["balance"] > 1.0
    # g1 starts in the same hour it stops: transitions add up, the pair does not
    sol = solve_suc(system, scn)
    assert sol.u[0, 0] == sol.u[0, 1] == 1
    sol.v[0, 1] = sol.w[0, 1] = 1
    assert check_suc_solution(system, scn, sol)["violations"]["logic"] >= 1.0
    # g2 5 MW below its minimum, the 10 MW it gives up curtailed: balanced and
    # within its ramps, so only the lower capacity limit is broken
    sol = solve_suc(system, scn)
    assert sol.p[0, 1, 1] == pytest.approx(5.0)
    sol.p[0, 1, 1] -= 10.0
    sol.curtail[0, 0, 1] += 10.0
    assert check_suc_solution(system, scn, sol)["violations"] == {
        "capacity": pytest.approx(5.0)
    }


def test_subhourly_flat_load_costs_same_as_hourly():
    g = make_gen("g", p_max=100.0, segments=((100.0, 30.0),),
                 no_load=7.0, on=True, p0=80.0)
    system = single_bus_system(g)
    hourly = solve_suc(
        system, scenario_set(system, TimeGrid(2, 1), [[80.0, 80.0]])
    )
    quarter = solve_suc(
        system, scenario_set(system, TimeGrid(2, 4), [[80.0] * 8])
    )
    assert quarter.objective == pytest.approx(hourly.objective)


def test_min_up_forces_unit_to_stay_on():
    """One hour into a 3-hour minimum run, load collapses; the unit must ride
    through at minimum output while the excess is infeasible to shed."""
    g = make_gen("g", p_min=50.0, p_max=100.0, min_up=4,
                 on=True, p0=0.0, hours_on=1)
    system = single_bus_system(g)
    grid = TimeGrid(hours=3, periods_per_hour=1)
    scn = scenario_set(system, grid, [[10.0, 10.0, 10.0]])
    with pytest.raises(InfeasibleModelError):
        solve_suc(system, scn)


def test_committed_hours_returns_copy(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    floor = sol.committed_hours()
    floor[:] = 9
    assert sol.u.max() <= 1


def test_solution_round_trip(tmp_path, uc_oracle_case):
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    path = tmp_path / "suc.json"
    save_suc_solution(sol, path)
    back = load_suc_solution(path)
    assert back.gen_ids == sol.gen_ids
    assert back.grid == sol.grid
    assert np.array_equal(back.u, sol.u)
    assert np.array_equal(back.p, sol.p)
    assert back.objective == pytest.approx(sol.objective)
    assert back.mip_gap == sol.mip_gap
    assert back.record == sol.record and sol.record["highs_s"] > 0.0
    assert 0.0 < sol.record["build_s"] < sol.record["wall_time_s"]


def test_older_solution_files_still_load(tmp_path, uc_oracle_case):
    """Files written before the record was kept load with the same solution
    and an empty record: one with the telemetry as flat keys, and one from
    before flow screening, with no screening counts, MILP totals or build
    seconds but the long-gone peak_rss_mb."""
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    path = tmp_path / "suc.json"
    save_suc_solution(sol, path)
    doc = json.loads(path.read_text())
    del doc["record"]
    flat = {
        "wall_time_s": 0.5, "screen_rounds": 1, "flow_rows": 0,
        "size": {"rows": 40, "cols": 30, "nnz": 90, "binaries": 4},
        "milp": {"highs_s": 0.1, "mip_node_count": 1, "mip_dual_bound": 1.0},
        "build_s": 0.01, "ev_usd": 1.0, "eev_usd": 1.0, "start_s": 0.1, "start_used": True,
    }
    for old_doc in (doc | flat, doc | {"wall_time_s": 0.5, "peak_rss_mb": 150.0}):
        path.write_text(json.dumps(old_doc))
        old = load_suc_solution(path)
        assert old.record == {} and not hasattr(old, "peak_rss_mb")
        for name in ("u", "v", "w", "p", "curtail"):
            assert np.array_equal(getattr(old, name), getattr(sol, name)), name
        assert (old.objective, old.mip_gap, old.grid) == (sol.objective, sol.mip_gap, sol.grid)


def test_solver_metadata_recorded(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    rec = sol.record
    assert rec["wall_time_s"] > 0.0
    assert (rec["screen_rounds"], rec["flow_rows"]) == (1, 0)  # no lines: one solve
    assert sol.mip_gap is not None and sol.mip_gap <= 1e-6 + 1e-12


def _slow_ramping_unit(**kw):
    """On for five hours at minimum output, slow to ramp up, three-hour
    minimum down time."""
    return make_gen(
        "g", p_min=10.0, p_max=100.0, startup=1.0, ramp_up=10.0,
        ramp_down=100.0, min_down=3, on=True, p0=0.0, hours_on=5, **kw,
    )


def _both_passes(system, loads):
    """The day-ahead outcome and the stochastic solution on one certain
    scenario, each with its own audit."""
    hours = len(loads)
    bids = DamBidSet(system.bus_ids, [loads])
    req = zero_requirements(hours)
    dam = clear_dam(system, bids, req)
    scn = scenario_set(system, TimeGrid(hours, 1), [loads])
    suc = solve_suc(system, scn)
    return (
        (dam, check_dam_outcome(system, dam, bids, req)),
        (suc, check_suc_solution(system, scn, suc)),
    )


def test_no_same_hour_start_and_stop():
    """A start and a stop in the same hour would buy the startup ramp (10 to
    100 MW) for one startup cost. The unit must ramp at 10 MW/h instead and
    curtail the rest: 80 + 70 MW at 5000, 10 + 20 MW at 30."""
    system = single_bus_system(_slow_ramping_unit(startup_limit=100.0))
    for out, worst in _both_passes(system, [100.0, 100.0]):
        assert not np.any(out.v & out.w)
        assert out.u.tolist() == [[1, 1]]
        total = out.dispatch_total(system).reshape(-1)
        assert total.tolist() == pytest.approx([20.0, 30.0])
        assert out.objective == pytest.approx(750_900.0)
        assert all(val <= 1e-6 for val in worst.values()), worst


def test_min_down_holds_on_a_horizon_shorter_than_min_down():
    """No load at hour 0 forces the unit off; its three-hour minimum down
    time keeps it off at hour 1 although only the first hour of the outage
    is inside a two-hour day."""
    system = single_bus_system(_slow_ramping_unit())
    for out, worst in _both_passes(system, [0.0, 100.0]):
        assert out.u.tolist() == [[0, 0]]
        assert out.w.tolist() == [[1, 0]]
        assert out.objective == pytest.approx(100.0 * 5000.0)
        assert all(val <= 1e-6 for val in worst.values()), worst


def test_schedule_check_rejects_fractional_start_stop():
    """Start/stop must be the transitions of the rounded on/off schedule; a
    half start plus a half stop in an on hour is refused, not rounded."""
    gens = [_slow_ramping_unit()]
    u, v, w = np.array([[0, 1]]), np.array([[2, 3]]), np.array([[4, 5]])
    x = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert [a.tolist() for a in commitment_schedule(gens, x, u, v, w, "t")] == [
        [[1, 1]], [[0, 0]], [[0, 0]]
    ]
    x[[2, 4]] = 0.5
    with pytest.raises(InfeasibleModelError, match="start/stop"):
        commitment_schedule(gens, x, u, v, w, "t")


@st.composite
def _commitment_cases(draw):
    hours = draw(st.integers(3, 6))
    gens = []
    for gid in ("g1", "g2"):
        p_min = draw(st.sampled_from([0.0, 10.0, 30.0]))
        p_max = draw(st.sampled_from([60.0, 100.0]))
        on = draw(st.booleans())
        gens.append(make_gen(
            gid, p_min=p_min, p_max=p_max,
            segments=((p_max - p_min, draw(st.sampled_from([20.0, 40.0]))),),
            no_load=draw(st.sampled_from([0.0, 5.0])),
            startup=draw(st.sampled_from([0.0, 50.0, 400.0])),
            ramp_up=draw(st.sampled_from([10.0, 30.0, p_max])),
            ramp_down=draw(st.sampled_from([10.0, 30.0, p_max])),
            startup_limit=draw(st.sampled_from([p_min, 40.0, p_max])),
            shutdown_limit=draw(st.sampled_from([p_min, 40.0, p_max])),
            min_up=draw(st.integers(1, 4)),
            min_down=draw(st.integers(1, 4)),
            on=on,
            p0=draw(st.sampled_from([0.0, p_max - p_min])) if on else 0.0,
            hours_on=draw(st.integers(1, 5)),
            hours_off=draw(st.integers(1, 5)),
        ))
    loads = draw(st.lists(st.integers(0, 160).map(float), min_size=hours, max_size=hours))
    req = [draw(st.lists(st.integers(0, 40).map(float), min_size=hours, max_size=hours))
           for _ in "ud"]
    return single_bus_system(*gens, curtailment=1000.0, shortfall=300.0), loads, req


def _same_optimum_with_binary_start_stop(model, v, w):
    """Solve ``model`` as built, then again with start/stop declared integer."""
    compact = optim.solve(model, gap_tol=1e-9)
    for j in np.concatenate([v.ravel(), w.ravel()]):
        model.integer[j] = True
    binary = optim.solve(model, gap_tol=1e-9)
    assert compact.status == binary.status
    if binary.ok:
        tol = 1e-6 * max(1.0, abs(binary.objective))
        assert abs(compact.objective - binary.objective) <= tol


def _suc_and_dam_models(case, scenarios=None):
    """The stochastic model (two periods an hour) and the market model of a
    drawn case, each as (model, v, w). The stochastic model has one scenario
    at the case's loads, or the given ``scenarios``."""
    system, loads, (up, dn) = case
    if scenarios is None:
        scenarios = scenario_set(system, TimeGrid(len(loads), 2), [np.repeat(loads, 2)])
    suc, (_, v, w), *_ = _build(system, scenarios)
    bids = DamBidSet(system.bus_ids, [loads])
    dam, idx = build_dam_model(system, bids, FrpRequirements(up, dn, "test"), None)
    return [(suc, v, w), (dam, idx["v"], idx["w"])]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_commitment_cases())
def test_continuous_start_stop_matches_binary(case):
    """Relaxing start/stop integrality loses nothing: the stochastic model
    and the market model (whose ramp awards reference start/stop) reach the
    optimum, or infeasibility, of their all-binary counterparts."""
    for model, v, w in _suc_and_dam_models(case):
        _same_optimum_with_binary_start_stop(model, v, w)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_commitment_cases())
def test_milp_options_keep_the_optimum(case):
    """Skipping HiGHS's two root heuristics (optim.MILP_OPTIONS) changes how
    an incumbent is found, not what is proven: the stochastic and market
    models reach the optimum within gap_tol, or the infeasibility, that
    HiGHS reaches with its defaults."""
    gap_tol = 1e-6
    for model, _, _ in _suc_and_dam_models(case):
        tuned = optim.solve(model, gap_tol=gap_tol)
        with mock.patch.dict(optim.MILP_OPTIONS, clear=True):
            plain = optim.solve(model, gap_tol=gap_tol)
        assert tuned.status == plain.status
        if plain.ok:
            assert abs(tuned.objective - plain.objective) <= gap_tol * max(
                1.0, abs(plain.objective)
            )


@st.composite
def _scenario_cases(draw):
    """A drawn commitment case and 2-4 weighted net-load scenarios around
    its loads, at two periods an hour."""
    case = draw(_commitment_cases())
    system, loads, _ = case
    grid = TimeGrid(len(loads), 2)
    n = draw(st.integers(2, 4))
    shift = st.lists(
        st.integers(-40, 40).map(float), min_size=grid.n_periods, max_size=grid.n_periods
    )
    values = [np.clip(np.repeat(loads, 2) + draw(shift), 0.0, None) for _ in range(n)]
    weights = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    return case, scenario_set(system, grid, values, probs=weights / weights.sum())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_scenario_cases())
def test_ev_start_keeps_the_optimum(drawn):
    """`solve_suc` starts HiGHS from the completed expected-value commitment;
    the same model solved cold reaches the same optimum within gap_tol, or
    the same failure. Where the start exists, EV <= optimum <= EEV (Birge
    1982): the mean scenario underestimates, the EV commitment is feasible."""
    case, scen = drawn
    gap_tol = 1e-6
    (model, _, _), _ = _suc_and_dam_models(case, scen)
    cold = optim.solve(model, gap_tol=gap_tol)
    try:
        warm = solve_suc(case[0], scen, gap_tol=gap_tol)
    except InfeasibleModelError:
        assert not cold.ok
        return
    assert cold.ok
    tol = gap_tol * max(1.0, abs(cold.objective))
    assert abs(warm.objective - cold.objective) <= tol
    if warm.record["eev_usd"] is not None:
        assert warm.record["ev_usd"] <= warm.objective + tol
        assert warm.objective <= warm.record["eev_usd"] + tol


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_commitment_cases())
def test_one_scenario_start_keeps_the_optimum(case):
    """A one-scenario `solve_suc` starts HiGHS from the completion of its
    rounded LP relaxation, or solves cold where that completion is
    infeasible; either way it reaches the optimum within gap_tol, or the
    failure, of a cold solve of the same model."""
    system, loads, _ = case
    gap_tol = 1e-6
    scen = scenario_set(system, TimeGrid(len(loads), 2), [np.repeat(loads, 2)])
    (model, _, _), _ = _suc_and_dam_models(case, scen)
    cold = optim.solve(model, gap_tol=gap_tol)
    try:
        warm = solve_suc(system, scen, gap_tol=gap_tol)
    except InfeasibleModelError:
        assert not cold.ok
        return
    assert cold.ok
    assert abs(warm.objective - cold.objective) <= gap_tol * max(1.0, abs(cold.objective))
    assert (warm.record["ev_usd"], warm.record["eev_usd"]) == (None, None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=_scenario_cases())
def _ev_bound_case(paths, drawn):
    """One drawn case of `test_ev_bound_keeps_the_optimum`; adds how its
    solve ended to ``paths``."""
    case, scen = drawn
    gap_tol = 1e-6
    (model, _, _), _ = _suc_and_dam_models(case, scen)
    cold = optim.solve(model, gap_tol=gap_tol)
    try:
        sol = solve_suc(case[0], scen, gap_tol=gap_tol)
    except InfeasibleModelError:
        assert not cold.ok
        paths["infeasible"] += 1
        return
    assert cold.ok
    assert abs(sol.objective - cold.objective) <= gap_tol * max(1.0, abs(cold.objective))
    assert "violations" not in check_suc_solution(case[0], scen, sol)
    rec = sol.record
    if rec["solved_by_ev_bound"]:
        paths["certified"] += 1
        assert rec["eev_usd"] == sol.objective and sol.mip_gap <= gap_tol
        # the EV optimum alone could not certify it: the no-good cut did
        if rec["eev_usd"] - rec["ev_usd"] > gap_tol * max(1.0, abs(rec["eev_usd"])):
            paths["above_ev"] += 1
    else:
        paths["relaxation" if rec["solved_by_relaxation"] else "fallback"] += 1


def test_ev_bound_keeps_the_optimum():
    """On 2-4 weighted scenarios, `solve_suc` reaches the optimum of a cold
    extensive-form solve within gap_tol, or its failure, with a clean audit,
    whether the EV bound certified its answer or the stochastic MILP ran:
    both happen among the draws, and some certified answers cost more than
    the EV optimum, which only the no-good cut lets the bound prove. The
    counts of each ending are in the assertion's message."""
    paths = dict.fromkeys(("certified", "above_ev", "fallback", "relaxation", "infeasible"), 0)
    _ev_bound_case(paths=paths)
    assert paths["certified"] and paths["fallback"] and paths["above_ev"], paths


def _pinned_commitment(system, scn, on):
    """The stochastic model of ``scn``, its commitment columns, each
    column's scenario, and the (u, v, w) values of the 0/1 on/off schedule
    ``on`` (units, hours) with the starts and stops it implies."""
    model, (u, v, w), _, _, scenario, _ = _build(system, scn)
    on = np.asarray(on, dtype=int)
    values = np.concatenate([on, *stochastic_uc._starts_stops(system.generators, on)], axis=None)
    return model, np.concatenate([u, v, w], axis=None), scenario, values


def _whole(model, cols, values):
    """The pinned model as one LP, as `optim.complete` solves a model that
    is one block."""
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[cols] = ub[cols] = values
    return optim._run_milp(
        model.obj.copy(), *model._constraint_matrix(), lb, ub,
        np.zeros(model.n_vars, dtype=bool), {"presolve": "off"}, None,
    ), lb, ub


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(drawn=_scenario_cases(), on=st.lists(st.booleans(), min_size=12, max_size=12))
def _completion_case(ends, drawn, on):
    """One drawn case of `test_completion_by_scenario_matches_one_lp`;
    adds how it ended to ``ends``."""
    (system, loads, _), scn = drawn
    on = np.reshape(on[: 2 * len(loads)], (2, len(loads)))
    model, uvw, scenario, values = _pinned_commitment(system, scn, on)
    done = optim.complete(model, uvw, values, blocks=scenario)
    whole, lb, ub = _whole(model, uvw, values)
    assert done.status == whole.status and done.size == whole.size
    if not whole.ok:
        # the commitment rows, checked without HiGHS, or a scenario's LP
        ends["commitment" if done.highs_s == 0.0 else "dispatch"] += 1
        return
    ends["optimal"] += 1
    assert abs(done.objective - whole.objective) <= 1e-9 * max(1.0, abs(whole.objective))
    mat, lo, hi = model._constraint_matrix()
    row = sparse.csr_array((mat.data, mat.indices, mat.indptr), shape=mat.shape) @ done.x
    tol = 1e-7
    assert (row >= lo - tol).all() and (row <= hi + tol).all()
    assert (done.x >= lb - tol).all() and (done.x <= ub + tol).all()


def test_completion_by_scenario_matches_one_lp():
    """On 2-4 weighted scenarios and a drawn commitment, `optim.complete`
    solving one LP per scenario ends as one LP over the whole pinned model
    does: the same status and size, the optimum within 1e-9 relative, and
    a point within 1e-7 of every row and bound. Feasible commitments,
    commitments that break a minimum up or down time (found without
    HiGHS) and commitments no dispatch of some scenario can follow all
    occur among the draws; their counts are in the assertion's message."""
    ends = dict.fromkeys(("optimal", "commitment", "dispatch"), 0)
    _completion_case(ends=ends)
    assert all(ends.values()), ends


def test_completion_breaking_a_minimum_up_time_runs_no_highs(monkeypatch):
    """Two scenarios and a unit with a three-hour minimum up time, started
    at hour 1 and stopped at hour 2: the commitment breaks a minup row,
    which is over commitment columns alone, so the completion is
    infeasible before any scenario's LP runs, as one LP over the whole
    pinned model finds it. The same unit kept on is completed."""
    unit = make_gen("g", p_max=100.0, segments=((100.0, 20.0),), min_up=3)
    system = single_bus_system(unit)
    scn = scenario_set(system, TimeGrid(3, 1), [[0.0, 50.0, 0.0], [0.0, 70.0, 10.0]])
    model, uvw, scenario, values = _pinned_commitment(system, scn, [[0, 1, 0]])
    assert _whole(model, uvw, values)[0].status == "infeasible"
    seen = []
    milp = optim.milp
    monkeypatch.setattr(optim, "milp", lambda **kw: seen.append(kw) or milp(**kw))
    done = optim.complete(model, uvw, values, blocks=scenario)
    assert (done.status, done.highs_s, done.x, seen) == ("infeasible", 0.0, None, [])
    model, uvw, scenario, values = _pinned_commitment(system, scn, [[0, 1, 1]])
    done = optim.complete(model, uvw, values, blocks=scenario)
    assert done.ok and len(seen) == 2
    # 0.5 * (50 + 0) + 0.5 * (70 + 10) MWh at 20
    assert done.objective == pytest.approx(1300.0)


def test_deadline_between_scenario_lps_runs_no_later_one(monkeypatch):
    """A deadline that passes while the first scenario's LP runs ends the
    completion at "limit", and the second scenario's LP never reaches
    HiGHS."""
    unit = make_gen("g", p_max=100.0, segments=((100.0, 20.0),))
    system = single_bus_system(unit)
    scn = scenario_set(system, TimeGrid(2, 1), [[40.0, 50.0], [60.0, 70.0]])
    model, uvw, scenario, values = _pinned_commitment(system, scn, [[1, 1]])
    clock = [0.0]
    monkeypatch.setattr(optim.time, "perf_counter", lambda: clock[0])
    seen = []
    milp = optim.milp

    def timed(**kw):
        seen.append(kw["options"]["time_limit"])
        clock[0] += 1.0
        return milp(**kw)

    monkeypatch.setattr(optim, "milp", timed)
    done = optim.complete(model, uvw, values, deadline=1.0, blocks=scenario)
    assert (done.status, done.x, seen) == ("limit", None, [1.0])
    assert done.rows == model.n_rows


def _spy_solves(monkeypatch):
    """Record ("solve" | "complete", deadline, start given) per call."""
    calls = []
    real_solve, real_complete = optim.solve, optim.complete

    def solve(model, gap_tol=1e-6, deadline=None, start=None):
        calls.append(("solve", deadline, start is not None))
        return real_solve(model, gap_tol, deadline, start)

    def complete(model, cols, values, deadline=None, blocks=None):
        calls.append(("complete", deadline, False))
        return real_complete(model, cols, values, deadline, blocks)

    monkeypatch.setattr(optim, "solve", solve)
    monkeypatch.setattr(optim, "complete", complete)
    return calls


def test_ev_start_is_recorded(uc_oracle_case, monkeypatch, tmp_path):
    """Two scenarios: the EV model's LP relaxation, the completion of its
    rounded commitment and the EV MILP from that start; then the completion
    of the EV commitment, the bound MILP, which certifies nothing here, and
    the stochastic MILP from that start. One scenario makes the first three
    calls alone and records no EV cost."""
    system, grid, scn = uc_oracle_case
    force_suc_fallback(monkeypatch)
    calls = _spy_solves(monkeypatch)
    sol = solve_suc(system, scn)
    assert [(kind, start) for kind, _, start in calls] == [
        ("complete", False), ("complete", False), ("solve", True),
        ("complete", False), ("solve", False), ("solve", True),
    ]
    assert sol.record["solved_by_ev_bound"] is False
    rec = sol.record
    assert rec["ev_usd"] <= sol.objective + 1e-6 <= rec["eev_usd"] + 2e-6
    assert 0.0 < rec["start_s"] < rec["wall_time_s"] and rec["start_used"] is True
    calls.clear()
    one = scenario_set(system, grid, scn.values[:1], probs=[1.0])
    alone = solve_suc(system, one)
    assert [(kind, start) for kind, _, start in calls] == [
        ("complete", False), ("complete", False), ("solve", True)
    ]
    rec = alone.record
    assert (rec["ev_usd"], rec["eev_usd"], rec["start_used"]) == (None, None, True)
    assert 0.0 < rec["start_s"] < rec["wall_time_s"]
    # saved and loaded with the rest of the record
    path = tmp_path / "suc.json"
    save_suc_solution(sol, path)
    assert load_suc_solution(path).record == sol.record


def _certified_scenarios(system, grid):
    """Two equally likely scenarios for `uc_oracle_case`'s system whose EV
    commitment the bound MILP certifies."""
    return scenario_set(
        system, grid, [[70.0, 95.0, 120.0, 80.0], [75.0, 100.0, 125.0, 70.0]]
    )


def test_ev_bound_certificate_is_recorded(uc_oracle_case, monkeypatch, tmp_path):
    """The EV model's relaxation, the completion of its rounded commitment
    and the EV MILP; then the completion of the EV commitment and the bound
    MILP, cold, whose dual bound certifies the completion: no stochastic
    MILP runs. The record says so; the bound MILP's seconds are its
    ``highs_s``, the completion's are in ``start_s``, and its dual bound is
    the completion's cost, which the bound exceeds. The same model solved
    cold reaches the same optimum."""
    system, grid, _ = uc_oracle_case
    scn = _certified_scenarios(system, grid)
    calls = _spy_solves(monkeypatch)
    sol = solve_suc(system, scn)
    assert [(kind, start) for kind, _, start in calls] == [
        ("complete", False), ("complete", False), ("solve", True),
        ("complete", False), ("solve", False),
    ]
    rec = sol.record
    assert rec["solved_by_ev_bound"] is True and rec["solved_by_relaxation"] is False
    assert rec["start_used"] is False and rec["eev_usd"] == sol.objective
    assert rec["ev_usd"] <= sol.objective
    assert (sol.mip_gap, rec["mip_dual_bound"]) == (0.0, sol.objective)
    assert rec["binaries"] == 8 and 0.0 < rec["highs_s"] < rec["wall_time_s"]
    assert 0.0 < rec["start_s"] < rec["wall_time_s"] - rec["highs_s"]
    assert "violations" not in check_suc_solution(system, scn, sol)
    (model, _, _), _ = _suc_and_dam_models((system, [0.0] * 4, ([0.0] * 4,) * 2), scn)
    cold = optim.solve(model)
    assert cold.objective == pytest.approx(sol.objective, rel=1e-9)
    path = tmp_path / "suc.json"
    save_suc_solution(sol, path)
    assert load_suc_solution(path).record == sol.record


def test_ev_bound_infeasible_when_the_ev_commitment_is_the_only_one(monkeypatch):
    """A unit one hour into a four-hour minimum run, over three hours, can
    only stay on: the no-good cut leaves the bound MILP infeasible, which
    certifies the EV commitment. With every relaxation taken as fractional
    (they are integral here), the EV MILP runs, then the completion and the
    bound MILP, and no stochastic MILP."""
    unit = make_gen("g", p_max=100.0, segments=((100.0, 20.0),), no_load=10.0,
                    min_up=4, on=True, p0=50.0, hours_on=1)
    system = single_bus_system(unit)
    scn = scenario_set(system, TimeGrid(3, 1), [[40.0, 60.0, 50.0], [60.0, 80.0, 30.0]])
    relaxation = stochastic_uc._relaxation
    monkeypatch.setattr(stochastic_uc, "_relaxation", lambda *a: (relaxation(*a)[0], False))
    bounds = []
    real = stochastic_uc._ev_bound
    monkeypatch.setattr(
        stochastic_uc, "_ev_bound", lambda *a: bounds.append(real(*a)) or bounds[-1]
    )
    sol = solve_suc(system, scn)
    assert [b.status for b in bounds] == ["infeasible"]
    rec = sol.record
    assert rec["solved_by_ev_bound"] and sol.u.tolist() == [[1, 1, 1]]
    # 3 * 10 no-load + 0.5 * (150 + 170) MWh * 20
    assert sol.objective == pytest.approx(3230.0)
    assert (sol.mip_gap, rec["mip_dual_bound"]) == (0.0, sol.objective)


def _cheap_and_flexible():
    """A cheap unit with a 50 MW minimum and a flexible one without."""
    cheap = make_gen("cheap", p_min=50.0, p_max=100.0, segments=((50.0, 10.0),))
    flexible = make_gen("flex", p_max=100.0, segments=((100.0, 50.0),))
    return single_bus_system(cheap, flexible)


def test_infeasible_ev_completion_solves_cold(monkeypatch):
    """The mean load (52.5 MW) commits the cheap unit, whose 50 MW minimum
    costs nothing (EV: 2.5 MW above it at 10 = 25), but which cannot back
    down to the low scenario's 5 MW: the completion is infeasible, so the
    MILP gets no start and commits the flexible unit alone, as a cold solve
    does: 0.5 * 5 * 50 + 0.5 * 100 * 50 = 2625. The EV relaxation commits
    the cheap unit alone, integrally, so it is the EV optimum and no EV
    MILP runs; the stochastic relaxation, solved for that reason, is
    fractional and is set aside for the completion and the cold MILP."""
    system = _cheap_and_flexible()
    scn = scenario_set(system, TimeGrid(1, 1), [[5.0], [100.0]])
    calls = _spy_solves(monkeypatch)
    sol = solve_suc(system, scn)
    assert [(kind, start) for kind, _, start in calls] == [
        ("complete", False), ("complete", False), ("complete", False), ("solve", False),
    ]
    assert sol.record["ev_usd"] == pytest.approx(25.0) and sol.record["eev_usd"] is None
    assert sol.record["start_used"] is False
    assert sol.record["solved_by_relaxation"] is False
    assert sol.objective == pytest.approx(2625.0)
    assert sol.u.tolist() == [[0], [1]]
    (model, _, _), _ = _suc_and_dam_models((system, [52.5], ([0.0], [0.0])), scn)
    cold = optim.solve(model)
    assert cold.objective == pytest.approx(sol.objective)


def test_integral_relaxation_runs_no_milp(monkeypatch):
    """60 or 90 MW: the cheap unit alone serves both, 0.5 * 10 * 10 + 0.5 *
    40 * 10 = 250, and the mean load's 25 MW above its minimum costs the
    same. The EV relaxation is integral, so the stochastic relaxation is
    solved too; it is integral as well, so no MILP and no completion run.
    The EV commitment is the solution's, so its completion would cost the
    optimum: eev_usd is the objective."""
    system = _cheap_and_flexible()
    scn = scenario_set(system, TimeGrid(1, 1), [[60.0], [90.0]])
    calls = _spy_solves(monkeypatch)
    sol = solve_suc(system, scn)
    assert [kind for kind, _, _ in calls] == ["complete", "complete"]
    rec = sol.record
    assert rec["solved_by_relaxation"] is True and rec["start_used"] is False
    assert (sol.mip_gap, rec["mip_node_count"]) == (0.0, 0)
    assert rec["mip_dual_bound"] == sol.objective == pytest.approx(250.0)
    assert rec["binaries"] == 2 and 0.0 < rec["highs_s"] < rec["wall_time_s"]
    # start_s holds the EV solve only, not the relaxation again
    assert 0.0 < rec["start_s"] < rec["wall_time_s"] - rec["highs_s"]
    assert rec["ev_usd"] == rec["eev_usd"] == sol.objective
    assert sol.u.tolist() == [[1], [0]]
    assert "violations" not in check_suc_solution(system, scn, sol)
    (model, _, _), _ = _suc_and_dam_models((system, [75.0], ([0.0], [0.0])), scn)
    assert optim.solve(model).objective == pytest.approx(sol.objective)
    # 0 or 100 MW: the mean load commits the cheap unit, integrally, but the
    # stochastic relaxation commits the flexible one alone (0.5 * 100 * 50):
    # no completion ran at the EV commitment, so there is no EEV
    scn = scenario_set(system, TimeGrid(1, 1), [[0.0], [100.0]])
    sol = solve_suc(system, scn)
    assert sol.record["solved_by_relaxation"] and sol.record["ev_usd"] == 0.0
    assert sol.u.tolist() == [[0], [1]] and sol.record["eev_usd"] is None
    assert sol.objective == pytest.approx(2500.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_commitment_cases())
def test_relaxation_shortcut_keeps_the_optimum(case):
    """With one scenario at the case's loads, and with that scenario twice
    (whose EV problem is the scenario itself), `solve_suc` reaches a cold
    solve's optimum within gap_tol, or its failure, with a clean audit. A
    solve that stopped at an integral relaxation says so: gap 0, no nodes,
    its objective as the bound."""
    system, loads, _ = case
    gap_tol = 1e-6
    grid = TimeGrid(len(loads), 2)
    one = scenario_set(system, grid, [np.repeat(loads, 2)])
    (model, _, _), _ = _suc_and_dam_models(case, one)
    cold = optim.solve(model, gap_tol=gap_tol)
    for scn in (one, scenario_set(system, grid, [np.repeat(loads, 2)] * 2)):
        try:
            sol = solve_suc(system, scn, gap_tol=gap_tol)
        except InfeasibleModelError:
            assert not cold.ok
            continue
        assert cold.ok
        assert abs(sol.objective - cold.objective) <= gap_tol * max(1.0, abs(cold.objective))
        assert "violations" not in check_suc_solution(system, scn, sol)
        rec = sol.record
        if rec["solved_by_relaxation"]:
            assert (sol.mip_gap, rec["mip_node_count"], rec["start_used"]) == (0.0, 0, False)
            assert rec["mip_dual_bound"] == sol.objective and rec["highs_s"] > 0.0
            # one round (no lines): the relaxation's seconds are highs_s
            # alone; two scenarios spent start_s on the EV solve
            assert (rec["start_s"] == 0.0) == (scn is one)


def test_rounded_relaxation_breaking_min_down_solves_cold(monkeypatch):
    """One unit, on at the start, with a two-hour minimum down time, serving
    50, 0 and 50 MW. The LP relaxation runs it at half commitment in hours
    0 and 2 and off in hour 1; rounded up, that is a one-hour outage, which
    breaks the minimum down time, so the completion is infeasible and the
    MILP solves cold. It keeps the unit on: 3 * 10 no-load + 100 MWh * 20 =
    2030, the cold optimum."""
    unit = make_gen(
        "g", p_max=100.0, segments=((100.0, 20.0),), no_load=10.0, min_down=2,
        on=True, p0=50.0, hours_on=5,
    )
    system = single_bus_system(unit)
    scn = scenario_set(system, TimeGrid(3, 1), [[50.0, 0.0, 50.0]])
    model, (u, _, _), *_ = _build(system, scn)
    relaxed = optim.complete(model, np.empty(0, dtype=int), np.empty(0))
    assert relaxed.x[u].tolist() == [[0.5, 0.0, 0.5]]
    calls = _spy_solves(monkeypatch)
    sol = solve_suc(system, scn)
    assert [(kind, start) for kind, _, start in calls] == [
        ("complete", False), ("complete", False), ("solve", False)
    ]
    assert sol.record["start_used"] is False and sol.record["start_s"] > 0.0
    assert sol.u.tolist() == [[1, 1, 1]]
    assert sol.objective == pytest.approx(2030.0)
    assert sol.objective == pytest.approx(optim.solve(model).objective)


def test_time_limit_covers_the_ev_solve_and_completion(uc_oracle_case, monkeypatch):
    """Every HiGHS call is charged to one clock: the EV relaxation gets the
    whole limit, each later call what the earlier ones left; with nothing
    left HiGHS is not run and the solve fails. The EV MILP failing for
    want of time leaves the stochastic MILP no time either. Each HiGHS run
    takes one second of a fake clock; the spy reads the budget HiGHS gets.
    The completion of the EV commitment takes one tick per scenario LP. The
    bound MILP runs on the same clock, and so does the stochastic MILP
    where the bound certifies nothing."""
    system, _, scn = uc_oracle_case
    clock = [0.0]
    monkeypatch.setattr(stochastic_uc.time, "perf_counter", lambda: clock[0])
    calls = []
    run_highs = optim._run_highs

    def timed(c, a, row_lo, row_hi, lb, ub, integrality, options, start=None):
        kind = "solve" if integrality.any() else "complete"
        calls.append((kind, options.get("time_limit")))
        clock[0] += 1.0
        return run_highs(c, a, row_lo, row_hi, lb, ub, integrality, options, start)

    monkeypatch.setattr(optim, "_run_highs", timed)
    # the bound MILP certifies the completion: no stochastic MILP
    solve_suc(system, _certified_scenarios(system, scn.grid), time_limit=10.0)
    # the completion of the EV commitment is one LP per scenario
    assert calls == [
        ("complete", 10.0), ("complete", 9.0), ("solve", 8.0),
        ("complete", 7.0), ("complete", 6.0), ("solve", 5.0),
    ]
    calls.clear()
    with monkeypatch.context() as m:
        force_suc_fallback(m)
        solve_suc(system, scn, time_limit=10.0)
    assert calls == [
        ("complete", 10.0), ("complete", 9.0), ("solve", 8.0),
        ("complete", 7.0), ("complete", 6.0), ("solve", 5.0), ("solve", 4.0),
    ]
    calls.clear()
    with pytest.raises(InfeasibleModelError, match="limit"):
        solve_suc(system, scn, time_limit=1.5)
    assert calls == [("complete", 1.5), ("complete", 0.5)]


def test_ev_bound_runs_across_screening_rounds(monkeypatch):
    """ieee14 with l1_2 cut to 130 MW, two scenarios, every relaxation taken
    as fractional. The completion of the EV commitment breaks the line
    limit in the first round, so the screen adds its rows and the next
    round completes the commitment again; the bound MILP runs once, and the
    certified answer is the optimum of the full model, solved cold with
    every flow row."""
    from test_network import LOAD  # test_network imports this module

    system = load_system(case_path("ieee14"))
    system = dataclasses.replace(system, lines=tuple(
        dataclasses.replace(ln, flow_min=-130.0, flow_max=130.0) if ln.id == "l1_2" else ln
        for ln in system.lines
    ))
    load = np.asarray(LOAD)
    scn = scenario_set(system, TimeGrid(6, 1), np.stack([load, 1.04 * load]))
    relaxation = stochastic_uc._relaxation
    monkeypatch.setattr(stochastic_uc, "_relaxation", lambda *a: (relaxation(*a)[0], False))
    bounds = []
    real = stochastic_uc._ev_bound
    monkeypatch.setattr(
        stochastic_uc, "_ev_bound", lambda *a: bounds.append(real(*a)) or bounds[-1]
    )
    sol = solve_suc(system, scn)
    rec = sol.record
    assert rec["solved_by_ev_bound"] and len(bounds) == 1
    assert rec["screen_rounds"] >= 2 and rec["flow_rows"] >= 1
    assert "violations" not in check_suc_solution(system, scn, sol)
    model, *_, screen = _build(system, scn)
    screen.add_rows(model, screen.every_row())
    cold = optim.solve(model)
    assert abs(sol.objective - cold.objective) <= 1e-6 * abs(cold.objective)


# The extensive-form answer for corpus day wed at 64 in-sample scenarios,
# as the stochastic MILP proved it before the EV bound (master seed 111,
# rho 0.4, 4 periods an hour; 16.0 s and 418 MB on a 2-vCPU VM): its
# objective and each unit's hourly commitment
WED_64 = (127052.90032630134, [
    "111111111111111111111111", "111111111111111111111111",
    "000000110000000000000000", "000000000000000000000000",
])


def test_corpus_wed_at_64_scenarios_runs_no_stochastic_milp(monkeypatch):
    """The harness's in-sample draw of 64 scenarios on corpus day wed: the
    EV bound certifies the EV commitment, so every MILP `solve_suc` runs is
    on the EV model (the EV MILP, the bound MILP), none on the stochastic
    one, and the answer is the extensive form's, frozen above. The
    completion runs one LP per scenario, so no model HiGHS gets through
    `optim.milp` has more columns than the EV model: a proxy for the peak
    memory, which the stochastic model's LP set before."""
    cfg, system = harness.load_config(corpus_path("config.yaml"))
    day = next(d for d in cfg.days if d.name == "wed")
    forecast, _ = harness._day_profile(system, cfg, day)
    scn = gen_ar1_scenarios(
        forecast, cfg.sigma_frac, cfg.rho[0], 64, cfg.master_seed, labels=("in-sample", "wed")
    )
    built, solved = [], []
    build, solve = stochastic_uc._build, optim.solve
    monkeypatch.setattr(
        stochastic_uc, "_build", lambda *a: built.append(build(*a)) or built[-1]
    )
    monkeypatch.setattr(
        optim, "solve", lambda model, *a, **kw: solved.append(model) or solve(model, *a, **kw)
    )
    widths, milp = [], optim.milp
    monkeypatch.setattr(optim, "milp", lambda **kw: widths.append(kw["c"].size) or milp(**kw))
    sol = solve_suc(system, scn, gap_tol=cfg.gap_tol)
    (ev_model, *_), (suc_model, *_) = built
    assert solved and all(m is ev_model for m in solved) and suc_model.n_vars > ev_model.n_vars
    assert len(widths) > 64 and max(widths) <= ev_model.n_vars
    assert sol.record["solved_by_ev_bound"]
    objective, u = WED_64
    assert sol.objective == pytest.approx(objective, rel=1e-12)
    assert ["".join(map(str, row)) for row in sol.u] == u

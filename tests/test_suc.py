"""Stochastic commitment pass: hand-checkable dispatch cases, probability
weighting, the wait-and-see bound, the feasibility audit, and the shared
commitment block (continuous start/stop variables against binary ones)."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpsim import (
    DamBidSet,
    FrpRequirements,
    InfeasibleModelError,
    ScenarioSet,
    TimeGrid,
    clear_dam,
    optim,
    solve_suc,
)
from frpsim.dayahead import _build as build_dam_model
from frpsim.dayahead import check_dam_outcome
from frpsim.requirements import zero_requirements
from frpsim.stochastic_uc import (
    _add_dispatch_scenario,
    add_commitment_block,
    check_suc_solution,
    commitment_schedule,
    load_suc_solution,
    save_suc_solution,
)

from conftest import make_gen, scenario_set, single_bus_system


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
    assert (back.screen_rounds, back.flow_rows) == (sol.screen_rounds, sol.flow_rows)
    assert back.milp == sol.milp and sol.milp["highs_s"] > 0.0
    # a file written before flow screening carries peak_rss_mb and no
    # screening counts or MILP totals; it still loads
    doc = json.loads(path.read_text())
    del doc["screen_rounds"], doc["flow_rows"], doc["milp"]
    path.write_text(json.dumps(doc | {"peak_rss_mb": 150.0}))
    old = load_suc_solution(path)
    assert (old.screen_rounds, old.flow_rows, old.milp) == (1, 0, {})
    assert not hasattr(old, "peak_rss_mb")


def test_solver_metadata_recorded(uc_oracle_case):
    system, grid, scn = uc_oracle_case
    sol = solve_suc(system, scn)
    assert sol.wall_time_s > 0.0
    assert (sol.screen_rounds, sol.flow_rows) == (1, 0)  # no lines: one solve
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


def _suc_and_dam_models(case):
    """The one-scenario stochastic model (two periods an hour) and the market
    model of a drawn case, each as (model, v, w)."""
    system, loads, (up, dn) = case
    hours = len(loads)
    grid = TimeGrid(hours, 2)
    suc = optim.Model("suc")
    u, v, w = add_commitment_block(suc, system.generators, hours)
    net = np.repeat(np.asarray(loads), 2)[None, :]
    _add_dispatch_scenario(suc, system, grid, u, v, w, "@0", net, None)
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

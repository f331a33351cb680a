"""Real-time redispatch: consistency with the day-ahead schedule, curtailment
pricing, infeasible ramp-downs, the residual audit, and the stress sweep's
pairing guarantees."""

import copy
import dataclasses

import numpy as np
import pytest

from frpsim import (
    Bus,
    DamBidSet,
    InfeasibleModelError,
    NetLoadProfile,
    TimeGrid,
    clear_dam,
    simulate_rtm,
    stress_sweep,
)
from frpsim.realtime import check_rtm_outcome
from frpsim.requirements import zero_requirements

from conftest import make_gen, single_bus_system


def _dam(system, loads):
    bids = DamBidSet(system.bus_ids, np.atleast_2d(np.asarray(loads, float)))
    return clear_dam(system, bids, zero_requirements(bids.hours))


def _profile(system, grid, values):
    return NetLoadProfile(system.bus_ids, grid, np.atleast_2d(np.asarray(values, float)))


def test_realized_forecast_reproduces_dam(two_gen_system):
    loads = [70.0, 120.0]
    dam = _dam(two_gen_system, loads)
    rtm = simulate_rtm(
        two_gen_system, dam, _profile(two_gen_system, TimeGrid(2, 1), loads)
    )
    assert np.allclose(rtm.dispatch_total(two_gen_system), dam.dispatch_total(two_gen_system))
    assert rtm.total_cost == pytest.approx(dam.objective)
    assert rtm.shed_mwh == 0.0
    assert np.allclose(rtm.lmp, dam.lmp)


def test_subhourly_expansion_keeps_cost():
    # ramps wide enough that quarter-hour steps never bind; the flat profile
    # must then cost exactly what the hourly market cleared at
    g1 = make_gen("g1", p_min=10.0, p_max=100.0,
                  segments=((50.0, 20.0), (90.0, 30.0)), no_load=5.0,
                  startup=100.0, ramp_up=400.0, ramp_down=400.0,
                  on=True, p0=30.0, hours_on=5)
    g2 = make_gen("g2", p_max=80.0, segments=((80.0, 45.0),),
                  no_load=2.0, startup=30.0)
    system = single_bus_system(g1, g2)
    loads = [70.0, 120.0]
    dam = _dam(system, loads)
    grid = TimeGrid(2, 4)
    rtm = simulate_rtm(system, dam, _profile(system, grid, np.repeat(loads, 4)))
    assert rtm.u.shape == (2, 8)
    assert np.array_equal(rtm.u, np.repeat(dam.u, 4, axis=1))
    assert rtm.shed_mwh == 0.0
    assert rtm.total_cost == pytest.approx(dam.objective)


def test_curtailment_matches_greedy_excess():
    """Single ample-ramp unit: the LP sheds exactly the per-period excess."""
    g = make_gen("g", p_max=50.0, segments=((50.0, 10.0),), on=True, p0=30.0)
    system = single_bus_system(g, curtailment=5000.0)
    dam = _dam(system, [30.0, 50.0, 50.0, 50.0])
    realized = _profile(system, TimeGrid(4, 1), [30.0, 60.0, 80.0, 90.0])
    rtm = simulate_rtm(system, dam, realized)
    assert np.allclose(rtm.curtail[0], [0.0, 10.0, 30.0, 40.0])
    assert rtm.shed_mwh == pytest.approx(80.0)
    assert rtm.curtailment_cost == pytest.approx(80.0 * 5000.0)
    assert rtm.dispatch_cost == pytest.approx((30 + 50 + 50 + 50) * 10.0)
    # marginal cost of load is the unit where there is headroom, the penalty where not
    assert rtm.lmp[0, 0] == pytest.approx(10.0)
    assert np.allclose(rtm.lmp[0, 1:], 5000.0)


def test_unit_dispatch_cost_fills_segments_in_order():
    """The LP prices each unit's output on its offer curve, cheapest
    segment first: 0, 40, 55 and 100 MW cost 0, 400, 775 and 2950 $."""
    g = make_gen("g", p_max=100.0, segments=((40.0, 10.0), (70.0, 25.0), (100.0, 60.0)))
    system = single_bus_system(g)
    want = [0.0, 400.0, 400.0 + 15 * 25.0, 400.0 + 750.0 + 1800.0]
    for load, cost in zip([0.0, 40.0, 55.0, 100.0], want):
        dam = _dam(system, [load])
        rtm = simulate_rtm(system, dam, _profile(system, TimeGrid(1, 1), [load]))
        assert rtm.unit_dispatch_cost[0] == pytest.approx(cost, abs=1e-9)
        assert rtm.unit_dispatch_cost.sum() == pytest.approx(rtm.dispatch_cost)


def test_cannot_back_down_raises():
    g = make_gen("g", p_min=50.0, p_max=100.0, min_up=10,
                 on=True, p0=10.0, hours_on=1)
    system = single_bus_system(g)
    dam = _dam(system, [60.0, 60.0])
    with pytest.raises(InfeasibleModelError, match="real-time"):
        simulate_rtm(system, dam, _profile(system, TimeGrid(2, 1), [10.0, 10.0]))


def test_audit_clean_then_flags_tampering():
    """g2 stops at hour 1 with a 30 MW shutdown limit, so it leaves hour 0
    at 10 MW above minimum. The audit passes the dispatch, then flags a
    break of the stop cap, of g1's 30 MW half-hour ramps up and down, and of
    the balance; each break but the last keeps the balance."""
    g1 = make_gen("g1", p_max=100.0, segments=((100.0, 30.0),), ramp_up=60.0,
                  ramp_down=60.0, on=True, p0=50.0)
    g3 = make_gen("g3", p_max=80.0, segments=((80.0, 32.0),), no_load=1.0,
                  ramp_up=40.0, on=True, p0=10.0)
    g2 = make_gen("g2", p_min=20.0, p_max=60.0, segments=((40.0, 60.0),),
                  no_load=650.0, shutdown_limit=30.0, on=True, p0=0.0, hours_on=5)
    system = single_bus_system(g1, g3, g2)
    dam = _dam(system, [170.0, 50.0])
    assert dam.w[2].tolist() == [0, 1]
    realized = _profile(system, TimeGrid(2, 2), [160.0, 170.0, 60.0, 50.0])
    rtm = simulate_rtm(system, dam, realized)
    assert np.allclose(rtm.p, [[80, 90, 60, 50], [30, 40, 0, 0], [30, 10, 0, 0]])
    assert np.allclose(rtm.curtail, [[0, 10, 0, 0]])
    worst = check_rtm_outcome(system, dam, rtm, realized)
    assert max(worst.values()) <= 1e-6, worst

    def audit(p=(), curtail=()):
        """The audit after adding MW at (unit or bus, period) positions."""
        out = copy.deepcopy(rtm)
        for at, mw in p:
            out.p[at] += mw
        for at, mw in curtail:
            out.curtail[at] += mw
        return check_rtm_outcome(system, dam, out, realized)

    for key, mw, worst in [
        ("ramp", 5.0, audit(p=[((2, 1), 5.0)], curtail=[((0, 1), -5.0)])),  # stop cap
        ("ramp", 5.0, audit(p=[((0, 0), 5.0), ((1, 0), -5.0)])),  # g1 up 35 MW
        ("ramp", 10.0, audit(p=[((0, 2), -10.0)], curtail=[((0, 2), 10.0)])),  # down 40
        ("balance", 7.0, audit(curtail=[((0, 3), 7.0)])),
    ]:
        assert worst[key] == pytest.approx(mw), worst
        assert all(val <= 1e-6 for k, val in worst.items() if k != key), worst


def test_audit_flags_curtailment_above_a_bus_load():
    """Curtailment is load shed: 10 MW curtailed at a bus with no load, and
    taken off the unit at the other bus, balances the system and breaks only
    the shed audit."""
    g1 = make_gen("g1", on=True, p0=50.0)
    system = dataclasses.replace(
        single_bus_system(g1), buses=(Bus("b1", slack=True), Bus("b2"))
    ).validate()
    dam = _dam(system, [[50.0], [0.0]])
    realized = _profile(system, TimeGrid(1, 1), [[50.0], [0.0]])
    rtm = simulate_rtm(system, dam, realized)
    rtm.p[0, 0] -= 10.0
    rtm.curtail[1, 0] += 10.0
    worst = check_rtm_outcome(system, dam, rtm, realized)
    assert worst["shed"] == pytest.approx(10.0), worst
    assert all(val <= 1e-6 for key, val in worst.items() if key != "shed"), worst


def test_horizon_and_bus_validation(two_gen_system):
    dam = _dam(two_gen_system, [70.0, 120.0])
    with pytest.raises(ValueError, match="horizon"):
        simulate_rtm(
            two_gen_system, dam, _profile(two_gen_system, TimeGrid(3, 1), [70.0] * 3)
        )
    grid = TimeGrid(2, 1)
    with pytest.raises(ValueError, match="buses"):
        simulate_rtm(
            two_gen_system, dam,
            NetLoadProfile(("zz",), grid, np.array([[70.0, 120.0]])),
        )


def test_schedule_for_other_units_is_refused(two_gen_system):
    """A schedule re-dispatched on a system whose units or buses are listed
    otherwise would assign each unit another's commitment."""
    loads = [70.0, 120.0]
    dam = _dam(two_gen_system, loads)
    realized = _profile(two_gen_system, TimeGrid(2, 1), loads)
    swapped = dataclasses.replace(
        two_gen_system, generators=two_gen_system.generators[::-1]
    )
    with pytest.raises(ValueError, match="units"):
        simulate_rtm(swapped, dam, realized)
    dam.bus_ids = ["zz"]
    with pytest.raises(ValueError, match="buses"):
        simulate_rtm(two_gen_system, dam, realized)


def test_stress_sweep_pairs_methods_and_nests_sigmas(two_gen_system):
    loads = [70.0, 120.0]
    dam = _dam(two_gen_system, loads)
    forecast = NetLoadProfile.from_hourly(
        two_gen_system.bus_ids, [loads], TimeGrid(2, 1)
    )
    rows = stress_sweep(
        two_gen_system, {"a": dam, "b": dam}, forecast,
        sigma_fracs=[0.0, 0.02, 0.05], rho=0.3, seed=11,
    )
    assert len(rows) == 6
    by = {(r["method"], r["sigma_frac"]): r for r in rows}
    # identical schedules face identical realizations: costs pair exactly
    for sigma in (0.0, 0.02, 0.05):
        assert by[("a", sigma)]["cost_usd"] == by[("b", sigma)]["cost_usd"]
    # sigma 0 is the forecast itself
    base = simulate_rtm(two_gen_system, dam, forecast)
    assert by[("a", 0.0)]["cost_usd"] == pytest.approx(base.total_cost)
    # the sweep is nested: a sigma's row does not depend on the list around it
    only = stress_sweep(
        two_gen_system, {"a": dam}, forecast, sigma_fracs=[0.05], rho=0.3, seed=11
    )
    assert only[0]["cost_usd"] == by[("a", 0.05)]["cost_usd"]
    # and deterministic across calls
    again = stress_sweep(
        two_gen_system, {"a": dam, "b": dam}, forecast,
        sigma_fracs=[0.0, 0.02, 0.05], rho=0.3, seed=11,
    )
    assert [r["cost_usd"] for r in again] == [r["cost_usd"] for r in rows]


def test_stress_sweep_distinct_days_differ(two_gen_system):
    loads = [70.0, 120.0]
    dam = _dam(two_gen_system, loads)
    forecast = NetLoadProfile.from_hourly(
        two_gen_system.bus_ids, [loads], TimeGrid(2, 1)
    )
    a = stress_sweep(two_gen_system, {"m": dam}, forecast, [0.05], 0.3, 11, day="d1")
    b = stress_sweep(two_gen_system, {"m": dam}, forecast, [0.05], 0.3, 11, day="d2")
    assert a[0]["cost_usd"] != b[0]["cost_usd"]

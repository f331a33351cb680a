"""Day-ahead clearing: energy/ramp co-optimization, frozen-binary pricing,
signed awards around unit shutdowns, and the residual audit."""

import json

import numpy as np
import pytest

from frpsim import DamBidSet, TimeGrid, clear_dam, solve_suc
from frpsim.dayahead import (
    check_dam_outcome,
    load_dam_outcome,
    save_dam_outcome,
)
from frpsim.requirements import FrpRequirements, zero_requirements

from conftest import make_gen, scenario_set, single_bus_system


def _bids(system, loads):
    return DamBidSet(system.bus_ids, np.atleast_2d(np.asarray(loads, float)))


def test_zero_requirement_matches_plain_commitment(two_gen_system):
    """With no ramp requirement the market is an ordinary hourly commitment,
    with the scenario solver's objective on one certain scenario, as long as
    no unit with a minimum output starts (here g2, with none, starts at hour
    1). Such a start breaks the match: the signed down award of a unit
    starting next hour is capped at -p_min, so a zero requirement can still
    buy down-capability shortfall at the penalty price."""
    loads = [70.0, 120.0, 95.0, 60.0]
    out = clear_dam(two_gen_system, _bids(two_gen_system, loads), zero_requirements(4))
    scn = scenario_set(two_gen_system, TimeGrid(4, 1), [loads])
    uc = solve_suc(two_gen_system, scn)
    assert out.objective == pytest.approx(uc.objective, rel=1e-9)
    assert out.pricing_objective == pytest.approx(out.objective, rel=1e-9)
    assert np.allclose(out.sf_up, 0.0) and np.allclose(out.sf_dn, 0.0)


def test_lmp_is_marginal_energy_cost(two_gen_system):
    out = clear_dam(
        two_gen_system, _bids(two_gen_system, [70.0, 120.0]), zero_requirements(2)
    )
    # hour 0: g1 interior on its 30 $/MWh segment; hour 1: g1 capped, g2 marginal
    assert out.lmp[0, 0] == pytest.approx(30.0)
    assert out.lmp[0, 1] == pytest.approx(45.0)
    assert out.demand[0].tolist() == [70.0, 120.0]


def test_requirement_redispatches_and_prices_at_substitution_cost(pricing_system):
    """Covering the last 5 MW of requirement means backing the cheap unit off
    its 35 $/MWh segment and serving that energy at 80: the capability price
    lands at the 45 $/MWh substitution cost."""
    req = FrpRequirements([20.0, 0.0], [0.0, 0.0], "test")
    out = clear_dam(pricing_system, _bids(pricing_system, [95.0, 95.0]), req)
    total = out.dispatch_total(pricing_system)
    assert total[0, 0] == pytest.approx(90.0)
    assert total[1, 0] == pytest.approx(5.0)
    assert out.r_up[:, 0].sum() == pytest.approx(20.0)
    assert out.price_up[0] == pytest.approx(45.0)
    assert out.price_up[1] == 0.0
    assert out.lmp[0, 0] == pytest.approx(80.0)
    assert out.lmp[0, 1] == pytest.approx(35.0)
    # capability prices stay inside [0, shortfall penalty]
    assert np.all(out.price_up >= -1e-9)
    assert np.all(out.price_up <= pricing_system.frp_shortfall_penalty + 1e-9)


def test_small_requirement_is_free(pricing_system):
    req = FrpRequirements([10.0, 0.0], [0.0, 0.0], "test")
    out = clear_dam(pricing_system, _bids(pricing_system, [95.0, 95.0]), req)
    assert out.price_up[0] == pytest.approx(0.0)
    assert out.dispatch_total(pricing_system)[0, 0] == pytest.approx(95.0)
    assert out.r_up[:, 0].sum() >= 10.0 - 1e-9


def test_impossible_requirement_prices_at_penalty(pricing_system):
    req = FrpRequirements([500.0, 0.0], [0.0, 0.0], "test")
    out = clear_dam(pricing_system, _bids(pricing_system, [95.0, 95.0]), req)
    assert out.sf_up[0] > 1.0
    assert out.price_up[0] == pytest.approx(pricing_system.frp_shortfall_penalty)
    assert out.sf_up[0] == pytest.approx(500.0 - out.r_up[:, 0].sum())


def test_shutdown_forces_negative_award():
    """A unit scheduled off next hour cannot hold its output; its award is
    pinned at minus its minimum load, and another unit's headroom has to make
    the zero-requirement row whole."""
    g1 = make_gen("g1", p_max=100.0, segments=((100.0, 30.0),), on=True, p0=50.0)
    # ramp-limited this hour, so it is forced to leave headroom for the next
    g3 = make_gen("g3", p_max=80.0, segments=((80.0, 32.0),), no_load=1.0,
                  ramp_up=40.0, on=True, p0=10.0)
    g2 = make_gen("g2", p_min=20.0, p_max=60.0, segments=((40.0, 60.0),),
                  no_load=650.0, on=True, p0=0.0, hours_on=5)
    system = single_bus_system(g1, g3, g2)
    out = clear_dam(system, _bids(system, [170.0, 50.0]), zero_requirements(2))
    assert out.u[2].tolist() == [1, 0]
    assert out.w[2, 1] == 1
    assert out.r_up[2, 0] == pytest.approx(-20.0)
    # the ramp-limited unit makes the system requirement row whole
    assert out.r_up[:, 0].sum() >= -1e-9


def test_fixed_commitments_are_a_floor(two_gen_system):
    loads = [70.0, 120.0]
    free = clear_dam(two_gen_system, _bids(two_gen_system, loads), zero_requirements(2))
    assert free.u[1, 0] == 0  # g2 not worth committing early
    forced = clear_dam(
        two_gen_system, _bids(two_gen_system, loads), zero_requirements(2),
        fix_commitments=np.ones((2, 2), dtype=int),
    )
    assert forced.u.min() == 1
    assert forced.objective >= free.objective - 1e-9
    worst = check_dam_outcome(
        two_gen_system, forced, _bids(two_gen_system, loads), zero_requirements(2),
        fix_commitments=np.ones((2, 2), dtype=int),
    )
    assert all(v <= 1e-6 for v in worst.values())


def test_audit_clean_then_flags_tampering(pricing_system):
    req = FrpRequirements([20.0, 0.0], [0.0, 0.0], "test")
    bids = _bids(pricing_system, [95.0, 95.0])
    out = clear_dam(pricing_system, bids, req)
    worst = check_dam_outcome(pricing_system, out, bids, req)
    assert all(v <= 1e-6 for v in worst.values()), worst
    out.r_up[0, 0] += 50.0
    worst = check_dam_outcome(pricing_system, out, bids, req)
    assert worst["frp_coupling"] > 1.0
    # g2 (two-hour minimum down) stops at hour 0 and restarts at hour 1:
    # consistent transitions, broken minimum down time
    out = clear_dam(pricing_system, bids, req)
    out.u[1], out.v[1], out.w[1] = [0, 1], [0, 1], [1, 0]
    assert check_dam_outcome(pricing_system, out, bids, req)["logic"] >= 1.0
    # a start and a stop in the same hour
    out = clear_dam(pricing_system, bids, req)
    out.v[1, 0] = out.w[1, 0] = 1
    assert check_dam_outcome(pricing_system, out, bids, req)["logic"] >= 1.0


def test_input_validation(two_gen_system):
    bids = _bids(two_gen_system, [70.0, 120.0])
    with pytest.raises(ValueError, match="horizon"):
        clear_dam(two_gen_system, bids, zero_requirements(3))
    with pytest.raises(ValueError, match="fix_commitments"):
        clear_dam(two_gen_system, bids, zero_requirements(2),
                  fix_commitments=np.ones((2, 3), dtype=int))
    with pytest.raises(ValueError, match="buses"):
        clear_dam(
            two_gen_system,
            DamBidSet(("nope",), np.array([[70.0, 120.0]])),
            zero_requirements(2),
        )


def test_outcome_round_trip(tmp_path, pricing_system):
    req = FrpRequirements([20.0, 0.0], [0.0, 5.0], "test")
    out = clear_dam(pricing_system, _bids(pricing_system, [95.0, 95.0]), req)
    path = tmp_path / "dam.json"
    save_dam_outcome(out, path)
    back = load_dam_outcome(path)
    assert back.gen_ids == out.gen_ids
    assert np.array_equal(back.u, out.u)
    assert np.allclose(back.r_up, out.r_up)
    assert np.allclose(back.lmp, out.lmp)
    assert back.objective == pytest.approx(out.objective)


def test_outcome_file_keeps_screening_counts(tmp_path, two_gen_system):
    out = clear_dam(
        two_gen_system, _bids(two_gen_system, [70.0, 120.0]), zero_requirements(2)
    )
    path = tmp_path / "dam.json"
    save_dam_outcome(out, path)
    back = load_dam_outcome(path)
    assert (back.screen_rounds, back.flow_rows) == (out.screen_rounds, out.flow_rows)
    assert back.milp == out.milp and out.milp["highs_s"] > 0.0
    # a file written before flow screening has no counts; its DAM made two
    # solves, clearing and pricing, and added no rows. One written before the
    # MILP totals were kept has none.
    doc = json.loads(path.read_text())
    del doc["screen_rounds"], doc["flow_rows"], doc["milp"]
    path.write_text(json.dumps(doc))
    old = load_dam_outcome(path)
    assert (old.screen_rounds, old.flow_rows, old.milp) == (2, 0, {})

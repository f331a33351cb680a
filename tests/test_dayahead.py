"""Day-ahead clearing: energy/ramp co-optimization, frozen-binary pricing,
signed awards around unit shutdowns, and the residual audit."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpsim import DamBidSet, TimeGrid, clear_dam, optim, solve_suc
from frpsim.dayahead import (
    check_dam_outcome,
    load_dam_outcome,
    save_dam_outcome,
)
from frpsim.optim import InfeasibleModelError
from frpsim.requirements import FrpRequirements, zero_requirements

from conftest import make_gen, scenario_set, single_bus_system
from test_suc import _commitment_cases


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: the signed down award of a unit starting next hour is capped"
    " at -p_min, so a zero requirement still buys down shortfall at the penalty price",
)
def test_zero_requirement_matches_plain_commitment_with_a_minimum_output_start():
    """A lone off unit with a minimum output must start for hour 1. With no
    ramp requirement the market should clear as the plain commitment; today
    it clears 10 MW of down shortfall in hour 0 (17,701 against 2,701)."""
    system = single_bus_system(make_gen("g1", p_min=10.0, startup=1.0))
    loads = [0.0, 100.0]
    out = clear_dam(system, _bids(system, loads), zero_requirements(2))
    uc = solve_suc(system, scenario_set(system, TimeGrid(2, 1), [loads]))
    assert out.objective == pytest.approx(uc.objective, rel=1e-9)


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


def test_a_floor_the_relaxed_market_meets_is_settled(two_gen_system, monkeypatch):
    """With a floor, ``relaxed`` is the same market without it. Where its
    commitment meets the floor, the outcome is its own, certified, its work
    read as zero, and HiGHS gets no model; where it does not, the market
    clears by its own MILP, as without ``relaxed``, and runs no check LP."""
    bids, req = _bids(two_gen_system, [70.0, 120.0]), zero_requirements(2)
    below = clear_dam(two_gen_system, bids, req)
    cold = clear_dam(two_gen_system, bids, req, fix_commitments=np.ones((2, 2), dtype=int))
    assert (below.u < 1).any()  # the all-on floor is one it breaks
    real = optim._pass_model
    monkeypatch.setattr(optim, "_pass_model", lambda *a: pytest.fail("HiGHS got a model"))
    out = clear_dam(two_gen_system, bids, req, fix_commitments=below.u, relaxed=below)
    assert out.certified and not below.certified
    assert out.record == optim.reused(below.record)
    assert out.record["highs_s"] == 0.0 and out.record["mip_dual_bound"] > 0.0
    for name in ("u", "p", "lmp", "price_up", "objective", "mip_gap"):
        assert np.array_equal(getattr(out, name), getattr(below, name)), name
    monkeypatch.setattr(optim, "_pass_model", real)
    out = clear_dam(two_gen_system, bids, req, fix_commitments=np.ones((2, 2), dtype=int),
                    relaxed=below)
    assert not out.certified and out.record["check_lp"] is None
    assert np.array_equal(out.u, cold.u) and out.objective == cold.objective


def _assert_same_clearing(out, cold):
    """``out``, whose certificate check failed, cleared by its own MILP on
    the model a cold clearing has: the same answer and record, bit for bit,
    but for the seconds and the failed check's LP, which only ``out``
    records."""
    assert not out.certified
    for name in ("u", "v", "w", "p", "r_up", "r_dn", "lmp", "price_up", "price_dn"):
        assert np.array_equal(getattr(out, name), getattr(cold, name)), name
    assert (out.objective, out.mip_gap) == (cold.objective, cold.mip_gap)
    seconds = ("build_s", "highs_s", "pricing_lp", "check_lp")
    assert {k: v for k, v in out.record.items() if k not in seconds} == {
        k: v for k, v in cold.record.items() if k not in seconds
    }
    assert out.record["highs_s"] > 0.0  # the clearing MILP ran
    assert set(out.record["check_lp"]) == {"highs_s", "simplex_iterations"}
    assert cold.record["check_lp"] is None


def test_lower_requirement_certifies_a_higher_one(tmp_path, pricing_system):
    """Up to 15 MW of hour-0 requirement is free (see the redispatch test
    above), so the 10 MW market's commitment and bound certify the 15 MW
    market: no clearing MILP runs, the record carries the inherited bound,
    and the outcome is a cold clearing's."""
    bids = _bids(pricing_system, [95.0, 95.0])
    below = clear_dam(pricing_system, bids, FrpRequirements([10.0, 0.0], [0.0, 0.0], "lo"))
    req = FrpRequirements([15.0, 0.0], [0.0, 0.0], "hi")
    out = clear_dam(pricing_system, bids, req, relaxed=below)
    cold = clear_dam(pricing_system, bids, req)
    assert out.certified and not below.certified and not cold.certified
    rec, bound = out.record, below.record["mip_dual_bound"]
    assert (rec["highs_s"], rec["mip_node_count"], rec["mip_dual_bound"]) == (0.0, 0, bound)
    assert out.mip_gap == (out.objective - bound) / max(1.0, abs(out.objective))
    assert abs(out.mip_gap) <= 1e-6
    for key in ("rows", "cols", "nnz", "binaries", "flow_rows"):
        assert rec[key] == cold.record[key], key
    assert rec["screen_rounds"] == 1 and rec["pricing_lp"]["simplex_iterations"] >= 1
    assert rec["check_lp"] is None  # the check passed
    for name in ("u", "v", "w"):
        assert np.array_equal(getattr(out, name), getattr(cold, name)), name
    assert out.objective == pytest.approx(cold.objective, rel=1e-9)
    assert np.allclose(out.lmp, cold.lmp) and np.allclose(out.price_up, cold.price_up)
    assert all(v <= 1e-6 for v in check_dam_outcome(pricing_system, out, bids, req).values())
    save_dam_outcome(out, tmp_path / "dam.json")
    assert load_dam_outcome(tmp_path / "dam.json").certified


def test_binding_higher_requirement_falls_back_to_the_milp(pricing_system):
    """The impossible requirement buys shortfall at the penalty, far above
    the 10 MW market's bound: the check fails, and the market is cleared by
    its own MILP exactly as without ``relaxed``."""
    bids = _bids(pricing_system, [95.0, 95.0])
    below = clear_dam(pricing_system, bids, FrpRequirements([10.0, 0.0], [0.0, 0.0], "lo"))
    req = FrpRequirements([500.0, 0.0], [0.0, 0.0], "impossible")
    out = clear_dam(pricing_system, bids, req, relaxed=below)
    _assert_same_clearing(out, clear_dam(pricing_system, bids, req))


@st.composite
def _nested_cases(draw):
    """A drawn commitment case and a second requirement at or above its
    own, hour by hour."""
    system, loads, req = draw(_commitment_cases())
    step = st.sampled_from([0.0, 0.0, 5.0, 25.0])
    raised = [
        np.add(r, draw(st.lists(step, min_size=len(r), max_size=len(r)))) for r in req
    ]
    return system, loads, req, raised


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_nested_cases())
def test_certified_market_matches_a_cold_clearing(case):
    """A market cleared with a lower requirement's outcome as ``relaxed``
    either is certified, with a cold clearing's commitment and objective
    within gap_tol and a clean audit, or falls back to the cold clearing
    itself."""
    system, loads, (up, dn), (hi_up, hi_dn) = case
    bids = _bids(system, loads)
    try:
        below = clear_dam(system, bids, FrpRequirements(up, dn, "lo"))
    except InfeasibleModelError:
        return  # no commitment serves the loads; the higher market has none either
    req = FrpRequirements(hi_up, hi_dn, "hi")
    out = clear_dam(system, bids, req, relaxed=below)
    cold = clear_dam(system, bids, req)
    if not out.certified:
        _assert_same_clearing(out, cold)
        return
    for name in ("u", "v", "w"):
        assert np.array_equal(getattr(out, name), getattr(cold, name)), name
    assert abs(out.objective - cold.objective) <= 1e-6 * max(1.0, abs(cold.objective))
    worst = check_dam_outcome(system, out, bids, req)
    assert all(v <= 1e-6 for v in worst.values()), worst


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_commitment_cases(), st.data())
def test_a_met_floor_is_settled_by_the_market_without_it(case, data):
    """Where a market's commitment meets a commitment floor, its outcome is
    the floored market's too (see the module docstring): a cold clearing
    with the floor is within gap_tol of its objective, and the outcome
    passes the floored market's audit. The floor is drawn under the
    commitment, so that it is met."""
    system, loads, (up, dn) = case
    bids = _bids(system, loads)
    req = FrpRequirements(up, dn, "suc")
    try:
        free = clear_dam(system, bids, req)
    except InfeasibleModelError:
        return  # no commitment serves the loads
    mask = data.draw(st.lists(st.booleans(), min_size=free.u.size, max_size=free.u.size))
    floor = free.u * np.reshape(mask, free.u.shape)
    fixed = clear_dam(system, bids, req, fix_commitments=floor)
    tol = 1e-6 * max(1.0, abs(free.objective), abs(fixed.objective))
    assert abs(fixed.objective - free.objective) <= tol
    worst = check_dam_outcome(system, free, bids, req, fix_commitments=floor)
    assert all(v <= 1e-6 for v in worst.values()), worst


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
    assert back.record == out.record
    rec = out.record
    assert (rec["screen_rounds"], rec["flow_rows"]) == (2, 0)  # clearing + pricing
    assert rec["highs_s"] > 0.0 and rec["pricing_lp"]["highs_s"] > 0.0
    assert rec["build_s"] > 0.0


def test_older_outcome_files_still_load(tmp_path, two_gen_system):
    """A file written before the record was kept, with its screening counts,
    size, MILP and pricing-LP totals and build seconds as flat keys, loads
    with the same outcome and an empty record."""
    out = clear_dam(
        two_gen_system, _bids(two_gen_system, [70.0, 120.0]), zero_requirements(2)
    )
    path = tmp_path / "dam.json"
    save_dam_outcome(out, path)
    doc = json.loads(path.read_text())
    del doc["record"]
    path.write_text(json.dumps(doc | {
        "screen_rounds": 2, "flow_rows": 0,
        "size": {"rows": 40, "cols": 30, "nnz": 90, "binaries": 4},
        "milp": {"highs_s": 0.01, "mip_node_count": 1, "mip_dual_bound": 1.0},
        "pricing_lp": {"highs_s": 0.01, "simplex_iterations": 5}, "build_s": 0.01,
    }))
    old = load_dam_outcome(path)
    assert old.record == {}
    for name in ("u", "v", "w", "p", "r_up", "r_dn", "curtail", "demand", "lmp"):
        assert np.array_equal(getattr(old, name), getattr(out, name)), name
    assert (old.objective, old.mip_gap) == (out.objective, out.mip_gap)


def test_uncertified_outcome_loads_with_or_without_the_flag(tmp_path, two_gen_system):
    """The writer leaves out `"certified": false`; a file that spells it out,
    as earlier writers did, loads the same outcome."""
    out = clear_dam(
        two_gen_system, _bids(two_gen_system, [70.0, 120.0]), zero_requirements(2)
    )
    path = tmp_path / "dam.json"
    save_dam_outcome(out, path)
    doc = json.loads(path.read_text())
    assert "certified" not in doc
    loaded = [load_dam_outcome(path)]
    path.write_text(json.dumps(doc | {"certified": False}))
    loaded.append(load_dam_outcome(path))
    for back in loaded:
        assert back.certified is False and back.record == out.record
        for name, value in vars(out).items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(back, name), value), name
                assert getattr(back, name).dtype == value.dtype, name
            else:
                assert getattr(back, name) == value, name

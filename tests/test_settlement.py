"""Settlement ledger: synthetic outcomes settled to the cent, two-settlement
vs day-ahead-only, positive-part capability payments, make-whole top-ups."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpsim import DamBidSet, NetLoadProfile, TimeGrid, clear_dam, simulate_rtm
from frpsim.dayahead import DamOutcome
from frpsim.realtime import RtmOutcome
from frpsim.requirements import FrpRequirements
from frpsim.settlement import save_settlement, settle

from conftest import make_gen, single_bus_system


def _synthetic():
    """Hand-built day: numbers chosen so every ledger line is mental math."""
    g1 = make_gen("g1", p_min=10.0, p_max=100.0,
                  segments=((40.0, 20.0), (90.0, 30.0)),
                  no_load=5.0, startup=100.0, on=True, p0=60.0, hours_on=5)
    g2 = make_gen("g2", p_max=80.0, segments=((80.0, 45.0),),
                  no_load=2.0, startup=30.0)
    system = single_bus_system(g1, g2)
    dam = DamOutcome(
        gen_ids=["g1", "g2"], bus_ids=["b1"], hours=2,
        u=np.array([[1, 1], [0, 1]]),
        v=np.array([[0, 0], [0, 1]]),
        w=np.zeros((2, 2), dtype=int),
        p=np.array([[60.0, 90.0], [0.0, 20.0]]),
        r_up=np.array([[10.0, 0.0], [-15.0, 0.0]]),
        r_dn=np.zeros((2, 2)),
        sf_up=np.zeros(2), sf_dn=np.zeros(2),
        curtail=np.zeros((1, 2)),
        demand=np.array([[70.0, 120.0]]),
        lmp=np.array([[30.0, 45.0]]),
        price_up=np.array([12.0, 0.0]),
        price_dn=np.zeros(2),
        objective=0.0, pricing_objective=0.0, mip_gap=0.0,
    )
    rtm = RtmOutcome(
        gen_ids=["g1", "g2"], bus_ids=["b1"], grid=TimeGrid(2, 1),
        u=np.array([[1, 1], [0, 1]]),
        p=np.array([[65.0, 90.0], [0.0, 20.0]]),
        curtail=np.zeros((1, 2)),
        lmp=np.array([[33.0, 45.0]]),
        commitment_cost=42.0,
        dispatch_cost=4750.0,
        unit_dispatch_cost=np.array([3850.0, 900.0]),
        curtailment_cost=0.0,
        shed_mwh=0.0,
    )
    return system, dam, rtm


def test_synthetic_ledger_to_the_cent():
    system, dam, rtm = _synthetic()
    report = settle(system, dam, rtm, mode="two")
    g1 = report.gen("g1")
    # award 70/100 MWh at 30/45, +5 MW deviation at 33, 10 MW capability at 12
    assert g1.dam_energy_revenue == pytest.approx(6600.0)
    assert g1.rt_deviation_revenue == pytest.approx(165.0)
    assert g1.frp_revenue == pytest.approx(120.0)
    assert g1.as_bid_cost == pytest.approx(3860.0)
    assert g1.make_whole == 0.0
    g2 = report.gen("g2")
    assert g2.dam_energy_revenue == pytest.approx(900.0)
    assert g2.rt_deviation_revenue == 0.0
    # negative award earns nothing rather than being charged
    assert g2.frp_revenue == 0.0
    assert g2.as_bid_cost == pytest.approx(932.0)
    assert g2.make_whole == pytest.approx(32.0)
    assert report.total_energy_payment == pytest.approx(7665.0)
    assert report.total_frp_payment == pytest.approx(120.0)
    assert report.total_make_whole == pytest.approx(32.0)


def test_dam_only_mode_drops_deviations():
    system, dam, rtm = _synthetic()
    report = settle(system, dam, rtm, mode="dam-only")
    assert report.gen("g1").rt_deviation_revenue == 0.0
    assert report.total_energy_payment == pytest.approx(7500.0)
    # g2's ledger is unchanged: its deviation was zero anyway
    assert report.gen("g2").make_whole == pytest.approx(32.0)
    with pytest.raises(ValueError, match="mode"):
        settle(system, dam, rtm, mode="rt-only")


def test_cleared_day_is_internally_consistent(pricing_system):
    req = FrpRequirements([20.0, 0.0], [0.0, 0.0], "test")
    bids = DamBidSet(pricing_system.bus_ids, np.array([[95.0, 95.0]]))
    dam = clear_dam(pricing_system, bids, req)
    # 102 keeps the cheap unit strictly capped and the expensive one interior,
    # so the real-time price is uniquely 80 (no degenerate vertex)
    realized = NetLoadProfile(
        pricing_system.bus_ids, TimeGrid(2, 1), np.array([[102.0, 95.0]])
    )
    rtm = simulate_rtm(pricing_system, dam, realized)
    report = settle(pricing_system, dam, rtm)
    # both units hit their 10 MW award cap at the 45 $/MW capability price
    for gid in ("g1", "g2"):
        assert report.gen(gid).frp_revenue == pytest.approx(450.0)
    g1 = report.gen("g1")
    assert g1.dam_energy_revenue == pytest.approx(80 * 90 + 35 * 95)
    assert g1.rt_deviation_revenue == pytest.approx(80.0 * 10.0)
    g2 = report.gen("g2")
    assert g2.dam_energy_revenue == pytest.approx(80.0 * 5.0)
    assert g2.rt_deviation_revenue == pytest.approx(-80.0 * 3.0)
    for r in report.generators:
        assert r.revenue + r.make_whole >= r.as_bid_cost - 1e-9
        assert r.frp_revenue >= 0.0
    assert report.total_energy_payment == pytest.approx(
        sum(r.dam_energy_revenue + r.rt_deviation_revenue for r in report.generators)
    )
    # the as-bid costs are the real-time LP's commitment and dispatch costs
    assert sum(r.as_bid_cost for r in report.generators) == pytest.approx(
        rtm.commitment_cost + rtm.dispatch_cost
    )


def test_capability_paid_once_regardless_of_granularity(pricing_system):
    req = FrpRequirements([20.0, 0.0], [0.0, 0.0], "test")
    bids = DamBidSet(pricing_system.bus_ids, np.array([[95.0, 95.0]]))
    dam = clear_dam(pricing_system, bids, req)
    fine = NetLoadProfile(
        pricing_system.bus_ids, TimeGrid(2, 4), np.repeat([[95.0, 95.0]], 4, axis=1)
    )
    report = settle(pricing_system, dam, simulate_rtm(pricing_system, dam, fine))
    assert report.total_frp_payment == pytest.approx(900.0)


def test_csv_ledger(tmp_path):
    system, dam, rtm = _synthetic()
    report = settle(system, dam, rtm)
    path = tmp_path / "settlement.csv"
    save_settlement(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("generator,dam_energy_rev_usd")
    assert lines[1].split(",")[0] == "g1"
    assert lines[1].split(",")[1] == "6600.00"
    assert lines[-1].split(",")[0] == "TOTAL"
    assert lines[-1].split(",")[-1] == "32.00"
    # the file's bytes, every line ending in "\n"
    sha = "88db4bfaf474d786d44ceadb44cd0f396863ec68d2f0731a11d3c5f18e42f763"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha, path.read_bytes()


@st.composite
def _settlement_days(draw):
    """A single-bus day with a random commitment, awards and prices, and its
    real-time dispatch by the LP against a random realized load the
    committed fleet can serve or curtail."""
    hours = draw(st.integers(1, 4))
    k = draw(st.sampled_from([1, 2]))
    gens = []
    for n in range(draw(st.integers(1, 3))):
        p_min = draw(st.sampled_from([0.0, 10.0]))
        gens.append(make_gen(
            f"g{n}", p_min=p_min, p_max=100.0,
            segments=((40.0 - p_min, draw(st.sampled_from([10.0, 25.0]))),
                      (100.0 - p_min, draw(st.sampled_from([30.0, 60.0])))),
            no_load=draw(st.sampled_from([0.0, 5.0])),
            startup=draw(st.sampled_from([0.0, 200.0])),
        ))
    system = single_bus_system(*gens)
    n_g = len(gens)
    price = st.floats(-20.0, 150.0, allow_nan=False)
    frac = st.floats(0.0, 1.0, allow_nan=False)

    def arr(strategy, shape):
        return np.array(draw(st.lists(strategy, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    u = arr(st.integers(0, 1), (n_g, hours))
    steps = np.diff(np.concatenate([np.zeros((n_g, 1), int), u], axis=1), axis=1)
    span = np.array([g.dispatch_range for g in gens])[:, None]
    dam = DamOutcome(
        gen_ids=system.gen_ids, bus_ids=["b1"], hours=hours,
        u=u, v=steps.clip(0), w=(-steps).clip(0),
        p=arr(frac, (n_g, hours)) * span * u,
        r_up=arr(st.floats(-30.0, 30.0), (n_g, hours)),
        r_dn=arr(st.floats(-30.0, 30.0), (n_g, hours)),
        sf_up=np.zeros(hours), sf_dn=np.zeros(hours),
        curtail=np.zeros((1, hours)), demand=np.zeros((1, hours)),
        lmp=arr(price, (1, hours)),
        price_up=arr(st.floats(0.0, 100.0), (hours,)),
        price_dn=arr(st.floats(0.0, 100.0), (hours,)),
        objective=0.0, pricing_objective=0.0, mip_gap=0.0,
    )
    grid = TimeGrid(hours, k)
    # at least the committed minimum output, which the fleet cannot shed
    floor = np.repeat(np.array([g.p_min for g in gens]) @ u, k)
    load = floor + arr(st.floats(0.0, 350.0), (grid.n_periods,))
    return system, dam, simulate_rtm(system, dam, NetLoadProfile(["b1"], grid, load[None]))


def _offer_cost(g, p):
    """$/h of ``p`` MW above minimum on ``g``'s offer curve, filled in order."""
    cost, left, below = 0.0, p, 0.0
    for seg in g.segments:
        take = min(left, seg.upper - below)
        cost += take * seg.cost
        left -= take
        below = seg.upper
    return cost


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_settlement_days())
def test_make_whole_tops_up_to_as_bid_cost(day):
    """Recounted unit by unit and period by period with plain loops, in
    both modes: every ledger line to 1e-9 relative, with the as-bid cost's
    energy on the unit's offer curve; make-whole is max(0, as-bid cost -
    market revenue), so revenue plus make-whole covers the as-bid cost. Each
    unit's LP cost is its offer-curve cost, and they add up to the LP's
    dispatch cost."""
    system, dam, rtm = day
    k = rtm.grid.periods_per_hour
    dt = 1.0 / k
    assert rtm.unit_dispatch_cost.sum() == pytest.approx(
        rtm.dispatch_cost, rel=1e-9, abs=1e-9 * rtm.total_cost
    )
    for mode in ("two", "dam-only"):
        report = settle(system, dam, rtm, mode=mode)
        for i, g in enumerate(system.generators):
            energy = sum(dt * _offer_cost(g, rtm.p[i, t]) for t in range(rtm.grid.n_periods))
            assert rtm.unit_dispatch_cost[i] == pytest.approx(energy, rel=1e-9, abs=1e-9)
            dam_mw = [dam.p[i, h] + g.p_min * dam.u[i, h] for h in range(dam.hours)]
            rev_da = sum(dam.lmp[0, h] * dam_mw[h] for h in range(dam.hours))
            rev_dev = 0.0
            if mode == "two":
                for t in range(rtm.grid.n_periods):
                    rt_mw = rtm.p[i, t] + g.p_min * rtm.u[i, t]
                    rev_dev += rtm.lmp[0, t] * (rt_mw * dt - dam_mw[t // k] * dt)
            rev_frp = 0.0
            for h in range(dam.hours):
                rev_frp += dam.price_up[h] * max(dam.r_up[i, h], 0.0)
                rev_frp += dam.price_dn[h] * max(dam.r_dn[i, h], 0.0)
            cost = g.no_load_cost * dam.u[i].sum() + g.startup_cost * dam.v[i].sum() + energy
            revenue = rev_da + rev_dev + rev_frp
            line = report.gen(g.id)
            want = {
                "dam_energy_revenue": rev_da, "rt_deviation_revenue": rev_dev,
                "frp_revenue": rev_frp, "as_bid_cost": cost,
                "make_whole": max(0.0, cost - revenue),
            }
            scale = max(1.0, abs(cost), abs(rev_da), abs(rev_frp), dt * sum(
                abs(rtm.lmp[0, t]) * 100.0 for t in range(rtm.grid.n_periods)
            ))
            for field, value in want.items():
                got = getattr(line, field)
                assert got == pytest.approx(value, rel=1e-9, abs=1e-9 * scale), field
            assert line.revenue + line.make_whole >= cost - 1e-9 * scale
        assert report.total_make_whole == pytest.approx(
            sum(line.make_whole for line in report.generators), rel=1e-9, abs=1e-9
        )

"""Acceptance suite: one test per release gate.

Each test earns its keep with an oracle the implementation cannot cheat:
exhaustive enumeration of commitment patterns, hand recounts of derived
quantities, statistical checks on the scenario generator, a physical audit
of every benchmark solution, settlement identities to the cent, and the
frozen benchmark reports under tests/golden/.
"""

import csv
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from frpsim import (
    DamBidSet,
    DamOutcome,
    FrpRequirements,
    RtmOutcome,
    TimeGrid,
    clear_dam,
    draw_realization,
    gen_ar1_scenarios,
    load_system,
    percentile_requirements,
    settle,
    simulate_rtm,
    solve_suc,
    suc_requirements,
)
from frpsim import optim, stochastic_uc
from frpsim.data import case_path, corpus_path
from frpsim.dayahead import _build as build_dam_model
from frpsim.dayahead import check_dam_outcome
from frpsim.harness import (
    PERCENTILE_METHODS,
    _day_profile,
    load_config,
    run_experiment,
    write_reports,
)
from frpsim.requirements import zero_requirements
from frpsim.scenarios import substream
from frpsim.stochastic_uc import check_suc_solution

from conftest import flat_profile, make_gen, scenario_set, single_bus_system

GOLDEN = Path(__file__).parent / "golden"


# -- enumeration helpers -------------------------------------------------------


def _suc_model(system, scen):
    """The stochastic commitment model solve_suc builds, with every flow row
    in, and the hourly on/off variable indices returned for pinning."""
    model, (u, _, _), *_, screen = stochastic_uc._build(system, scen)
    screen.add_rows(model, screen.every_row())
    return model, u


def _min_over_commitments(model, u_idx):
    """Brute-force minimum: pin every on/off pattern in turn and keep the best
    objective over the feasible ones."""
    flat = [int(j) for j in np.asarray(u_idx).ravel()]
    best = np.inf
    best_bits = None
    for bits in itertools.product((0.0, 1.0), repeat=len(flat)):
        for j, b in zip(flat, bits):
            model.lb[j] = b
            model.ub[j] = b
        res = optim.solve(model, gap_tol=1e-9)
        if res.ok and res.objective < best:
            best = res.objective
            best_bits = bits
    assert best_bits is not None, "no feasible commitment pattern found"
    return best, np.array(best_bits).reshape(np.asarray(u_idx).shape)


def test_01_stochastic_commitment_matches_enumeration(uc_oracle_case):
    """Two units, four hours: the MILP answer equals the best of all 2^8
    pinned on/off patterns, well inside the time budget."""
    system, grid, scen = uc_oracle_case
    t0 = time.perf_counter()
    sol = solve_suc(system, scen)
    model, u_idx = _suc_model(system, scen)
    best, _ = _min_over_commitments(model, u_idx)
    elapsed = time.perf_counter() - t0
    assert abs(sol.objective - best) <= 1e-6 * max(1.0, abs(best))
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_02_market_clearing_matches_brute_force(two_gen_system):
    """Three hours, no capability requirement: clearing equals the cheapest of
    all 2^6 commitment patterns."""
    hours = 3
    bids = DamBidSet(two_gen_system.bus_ids, [[60.0, 120.0, 90.0]])
    req = zero_requirements(hours)
    t0 = time.perf_counter()
    out = clear_dam(two_gen_system, bids, req)
    model, idx = build_dam_model(two_gen_system, bids, req, None)
    best, _ = _min_over_commitments(model, idx["u"])
    elapsed = time.perf_counter() - t0
    assert abs(out.objective - best) <= 1e-6 * max(1.0, abs(best))
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_03_derived_requirements_match_recount():
    """The capability requirement derived from a solved stochastic pass equals
    a plain-loop recount of served-load steps, exactly, on 100 random trials."""
    g = make_gen(
        "flex", p_min=5.0, p_max=60.0, segments=((55.0, 30.0),),
        no_load=6.0, startup=20.0, ramp_up=30.0, ramp_down=40.0,
        on=True, p0=25.0, hours_on=3,
    )
    system = single_bus_system(g)
    grid = TimeGrid(hours=4, periods_per_hour=4)
    k = grid.periods_per_hour
    n_t = grid.n_periods
    for trial in range(100):
        rng = np.random.default_rng((9100, trial))
        vals = rng.uniform(10.0, 90.0, size=(3, n_t))
        scen = scenario_set(system, grid, vals)
        sol = solve_suc(system, scen)
        req = suc_requirements(sol, scen)
        served = scen.values - sol.curtail
        sys_net = served.sum(axis=1)
        for h in range(grid.hours):
            up = dn = 0.0
            for s in range(3):
                for step in range(h * k, min(h * k + k, n_t - 1)):
                    d = sys_net[s, step + 1] - sys_net[s, step]
                    up = max(up, k * d)
                    dn = max(dn, -(k * d))
            assert req.up[h] == max(0.0, up), (trial, h)
            assert req.dn[h] == max(0.0, dn), (trial, h)


def test_04_award_shifts_with_deployment_odds():
    """Bundled two-flex-unit case: with no commitment floor the cheap-to-start
    unit g1 carries the up capability; as the odds of actually deploying it
    grow, the stochastic pass switches the floor to the cheap-to-run unit g2
    and the award follows.  The switch point must sit within one grid step of
    the one found by exhaustive enumeration."""
    system = load_system(case_path("ramp_toy"))
    grid = TimeGrid(hours=2, periods_per_hour=1)
    bids = DamBidSet(system.bus_ids, [[100.0, 100.0]])
    req = FrpRequirements([80.0, 0.0], [0.0, 0.0], source="fixed")
    gen_ids = [g.id for g in system.generators]
    i_g1, i_g2 = gen_ids.index("g1"), gen_ids.index("g2")

    def carrier(dam):
        return "g2" if dam.r_up[i_g2, 0] > dam.r_up[i_g1, 0] else "g1"

    free = clear_dam(system, bids, req)
    assert carrier(free) == "g1"
    assert free.sf_up.max() <= 1e-9

    flat = [100.0, 100.0]
    jump = [100.0, 180.0]
    probs = [round(0.05 * i, 2) for i in range(1, 20)]
    flip_pipeline = flip_oracle = None
    for pi in probs:
        scen = scenario_set(system, grid, [flat, jump], probs=[1.0 - pi, pi])
        suc = solve_suc(system, scen)
        dam = clear_dam(system, bids, req, fix_commitments=suc.committed_hours())
        if flip_pipeline is None and carrier(dam) == "g2":
            flip_pipeline = pi
        model, u_idx = _suc_model(system, scen)
        _, pattern = _min_over_commitments(model, u_idx)
        if flip_oracle is None and pattern[i_g2].any():
            flip_oracle = pi
    assert flip_pipeline is not None and flip_oracle is not None
    assert 0.05 < flip_oracle < 0.95, "switch point degenerated to an endpoint"
    assert abs(flip_pipeline - flip_oracle) <= 0.05 + 1e-9


def test_05_prices_match_marginal_and_penalty_values(pricing_system):
    """Energy price equals the marginal segment price; the capability price is
    zero when the requirement row is slack, the shortfall penalty when it is
    impossible, and matches a finite-difference estimate in between."""
    bids = DamBidSet(pricing_system.bus_ids, [[95.0, 95.0]])

    out = clear_dam(pricing_system, bids, zero_requirements(2))
    assert out.lmp[0, 0] == pytest.approx(35.0, rel=1e-6)

    easy = clear_dam(
        pricing_system, bids, FrpRequirements([3.0, 0.0], [0.0, 0.0], "fixed")
    )
    assert easy.sf_up.max() <= 1e-9
    assert easy.price_up[0] == pytest.approx(0.0, abs=1e-9)

    hopeless = clear_dam(
        pricing_system, bids, FrpRequirements([300.0, 0.0], [0.0, 0.0], "fixed")
    )
    assert hopeless.sf_up[0] > 1.0
    assert hopeless.price_up[0] == pytest.approx(
        pricing_system.frp_shortfall_penalty, rel=1e-6
    )

    delta = 0.1
    lo = clear_dam(
        pricing_system, bids, FrpRequirements([18.0, 0.0], [0.0, 0.0], "fixed")
    )
    hi = clear_dam(
        pricing_system, bids,
        FrpRequirements([18.0 + delta, 0.0], [0.0, 0.0], "fixed"),
    )
    assert 0.0 < lo.price_up[0] < pricing_system.frp_shortfall_penalty
    fd = (hi.objective - lo.objective) / delta
    assert fd == pytest.approx(lo.price_up[0], rel=0.01)


def test_06_ar1_error_statistics():
    """Scenario errors: lag-1 autocorrelation within 0.02 of the target,
    per-period variance stationary within 10%, and the zero-correlation case
    draws the sub-stream's independent shocks bit for bit."""
    system = single_bus_system(make_gen("g"))
    grid = TimeGrid(hours=24, periods_per_hour=4)
    forecast = flat_profile(system, grid, 400.0)
    sigma = 0.05 * 400.0
    t0 = time.perf_counter()
    for rho in (0.2, 0.4, 0.6, 0.8):
        scen = gen_ar1_scenarios(forecast, 0.05, rho, 10_000, seed=4242)
        eps = scen.values[:, 0, :] - forecast.values[0][None, :]
        r = np.corrcoef(eps[:, :-1].ravel(), eps[:, 1:].ravel())[0, 1]
        assert abs(r - rho) <= 0.02, f"rho={rho}: measured {r:.4f}"
        var = eps.var(axis=0)
        assert np.all(np.abs(var - sigma**2) <= 0.10 * sigma**2), f"rho={rho}"
    base = gen_ar1_scenarios(forecast, 0.05, 0.0, 10_000, seed=4242)
    shocks = substream(4242, "in-sample").standard_normal(base.values.shape)
    assert np.array_equal(base.values, forecast.values + shocks * sigma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


# -- benchmark corpus, solved in-process ---------------------------------------


@pytest.fixture(scope="module")
def corpus_pipeline():
    """Every (day, method) cell of the bundled corpus, solved in-process so
    the full solution objects are available for auditing."""
    cfg, system = load_config(corpus_path("config.yaml"))
    n, rho = cfg.n_scenarios[0], cfg.rho[0]
    days = []
    for day in cfg.days:
        forecast, bids = _day_profile(system, cfg, day)
        realized = draw_realization(
            forecast, cfg.oos_sigma_frac, cfg.oos_rho, cfg.master_seed,
            labels=("out-of-sample", day.name),
        )
        scen = gen_ar1_scenarios(
            forecast, cfg.sigma_frac, rho, n, cfg.master_seed,
            labels=("in-sample", day.name),
        )
        suc = solve_suc(system, scen, gap_tol=cfg.gap_tol)
        cells = {}
        for method in cfg.methods:
            if method in PERCENTILE_METHODS:
                req = percentile_requirements(
                    forecast, cfg.sigma_frac, PERCENTILE_METHODS[method]
                )
                fix = None
            else:
                req = suc_requirements(suc, scen)
                fix = suc.committed_hours() if method == "suc-fixed" else None
            dam = clear_dam(
                system, bids, req, fix_commitments=fix, gap_tol=cfg.gap_tol
            )
            rtm = simulate_rtm(system, dam, realized)
            rep = settle(system, dam, rtm, mode=cfg.settlement_mode)
            cells[method] = dict(req=req, fix=fix, dam=dam, rtm=rtm, rep=rep)
        days.append(
            dict(name=day.name, bids=bids, realized=realized, scen=scen,
                 suc=suc, cells=cells)
        )
    return system, days


def _audit_rtm(system, dam, rtm, realized, tol=1e-6):
    """Check the realized dispatch against the physical constraints directly:
    nodal balance, line limits, unit limits, and ramp coupling across the
    commitment transitions."""
    grid = rtm.grid
    scale = grid.period_hours
    # the hourly commitment on the sub-period grid: a start or stop happens
    # at the first sub-period of its hour
    k = grid.periods_per_hour
    u = np.repeat(dam.u, k, axis=1)
    v, w = np.zeros_like(u), np.zeros_like(u)
    v[:, ::k], w[:, ::k] = dam.v, dam.w
    assert np.array_equal(u, rtm.u)

    total = rtm.dispatch_total(system)
    inj = np.zeros((len(system.buses), grid.n_periods))
    for i, g in enumerate(system.generators):
        inj[system.bus_index(g.bus)] += total[i]
    net = inj + rtm.curtail - realized.values
    assert np.abs(net.sum(axis=0)).max() <= tol

    if len(system.lines):
        flows = system.isf() @ net
        for ell, line in enumerate(system.lines):
            assert flows[ell].max() <= line.flow_max + tol
            assert flows[ell].min() >= line.flow_min - tol

    for i, g in enumerate(system.generators):
        p = rtm.p[i]
        assert p.min() >= -tol
        assert (p - g.dispatch_range * u[i]).max() <= tol
        ru, rd = g.ramp_up * scale, g.ramp_down * scale
        p0 = g.initial.dispatch_above_min
        u0 = 1.0 if g.initial.on else 0.0
        lift = g.startup_limit - g.p_min
        for k in range(grid.n_periods):
            if k == 0:
                assert p[0] <= p0 + ru * u0 + lift * v[i, 0] + tol
                assert p[0] >= p0 - rd * u0 + (rd - p0) * w[i, 0] - tol
            else:
                assert p[k] - p[k - 1] <= ru * u[i, k - 1] + lift * v[i, k] + tol
                assert (
                    p[k - 1] - p[k]
                    <= rd * u[i, k - 1] + g.dispatch_range * w[i, k] + tol
                )
            if k + 1 < grid.n_periods and w[i, k + 1]:
                assert p[k] <= g.shutdown_limit - g.p_min + tol


def test_07_corpus_passes_physical_audit(corpus_pipeline):
    """Every solved corpus cell: balance within 1e-6 MW, flows and unit limits
    respected, ramp coupling held, and the commitment floor honored whenever
    one was supplied."""
    system, days = corpus_pipeline
    for day in days:
        audit = check_suc_solution(system, day["scen"], day["suc"])
        assert "violations" not in audit, (day["name"], audit)
        for method, cell in day["cells"].items():
            where = f"{day['name']}/{method}"
            worst = check_dam_outcome(
                system, cell["dam"], day["bids"], cell["req"],
                fix_commitments=cell["fix"],
            )
            assert max(worst.values()) <= 1e-6, (where, worst)
            _audit_rtm(system, cell["dam"], cell["rtm"], day["realized"])
            if cell["fix"] is not None:
                assert np.all(cell["dam"].u >= cell["fix"]), where


def test_08_make_whole_and_cost_recovery(corpus_pipeline):
    """A hand-built day settles to the cent, and on every corpus cell each
    generator's revenue plus make-whole covers its as-bid cost."""
    g1 = make_gen(
        "g1", p_min=10.0, p_max=100.0, segments=((90.0, 40.0),),
        no_load=100.0, startup=1000.0, on=True, p0=40.0,
    )
    g2 = make_gen("g2", p_max=50.0, segments=((50.0, 30.0),), on=True, p0=30.0)
    system = single_bus_system(g1, g2)
    grid = TimeGrid(hours=1, periods_per_hour=1)
    dam = DamOutcome(
        gen_ids=["g1", "g2"], bus_ids=["b1"], hours=1,
        u=np.array([[1], [1]]), v=np.array([[1], [0]]), w=np.zeros((2, 1), int),
        p=np.array([[40.0], [30.0]]),
        r_up=np.array([[5.0], [0.0]]), r_dn=np.zeros((2, 1)),
        sf_up=np.zeros(1), sf_dn=np.zeros(1),
        curtail=np.zeros((1, 1)), demand=np.array([[80.0]]),
        lmp=np.array([[35.0]]), price_up=np.array([12.0]),
        price_dn=np.zeros(1), objective=0.0, pricing_objective=0.0, mip_gap=None,
    )
    rtm = RtmOutcome(
        gen_ids=["g1", "g2"], bus_ids=["b1"], grid=grid,
        u=np.array([[1], [1]]), p=np.array([[45.0], [25.0]]),
        curtail=np.zeros((1, 1)), lmp=np.array([[50.0]]),
        commitment_cost=1100.0, dispatch_cost=2550.0,
        unit_dispatch_cost=np.array([45.0 * 40.0, 25.0 * 30.0]), curtailment_cost=0.0,
        shed_mwh=0.0,
    )
    rep = settle(system, dam, rtm, mode="two")
    # g1: sells 50 MWh day-ahead at 35, 5 MWh more in real time at 50, and
    # 5 MW of up capability at 12; runs 45 MW above min at 40 $/MWh plus
    # no-load and startup.  1750 + 250 + 60 = 2060 against 2900 as bid.
    lg1 = rep.gen("g1")
    assert lg1.dam_energy_revenue == pytest.approx(1750.00, abs=0.005)
    assert lg1.rt_deviation_revenue == pytest.approx(250.00, abs=0.005)
    assert lg1.frp_revenue == pytest.approx(60.00, abs=0.005)
    assert lg1.as_bid_cost == pytest.approx(2900.00, abs=0.005)
    assert lg1.make_whole == pytest.approx(840.00, abs=0.005)
    # g2: 1050 day-ahead minus 250 for the 5 MWh real-time shortfall, against
    # 750 as bid; whole, so no uplift.
    lg2 = rep.gen("g2")
    assert lg2.rt_deviation_revenue == pytest.approx(-250.00, abs=0.005)
    assert lg2.make_whole == pytest.approx(0.00, abs=0.005)
    assert rep.total_energy_payment == pytest.approx(2800.00, abs=0.005)
    assert rep.total_frp_payment == pytest.approx(60.00, abs=0.005)
    assert rep.total_make_whole == pytest.approx(840.00, abs=0.005)

    system_c, days = corpus_pipeline
    for day in days:
        for method, cell in day["cells"].items():
            for ledger in cell["rep"].generators:
                assert ledger.make_whole >= 0.0
                assert (
                    ledger.revenue + ledger.make_whole
                    >= ledger.as_bid_cost - 5e-7
                ), (day["name"], method, ledger.gen_id)


# -- benchmark corpus, through the official harness ----------------------------


@pytest.fixture(scope="module")
def benchmark_run(tmp_path_factory):
    cfg, system = load_config(corpus_path("config.yaml"))
    out_dir = str(tmp_path_factory.mktemp("bench"))
    res = run_experiment(system, cfg, out_dir, workers=2)
    assert res.clean, res.failed
    cells_csv, totals_csv = write_reports(out_dir)
    return cells_csv, totals_csv


def _rows(path, keys):
    with open(path, newline="") as fh:
        return {tuple(r[k] for k in keys): r for r in csv.DictReader(fh)}


def _numbers_match(fresh, golden, fields, rel=1e-6):
    for key, grow in golden.items():
        frow = fresh[key]
        for f in fields:
            a, b = float(frow[f]), float(grow[f])
            assert abs(a - b) <= rel * max(1.0, abs(b)), (key, f, a, b)


def test_09_benchmark_matches_frozen_reports(benchmark_run):
    """A fresh run of the bundled corpus reproduces the frozen reports, and
    the headline comparisons hold: the stochastic-floor method is cheapest,
    sheds nothing where the lean percentile rule sheds, and is the one that
    actually pays for ramp capability."""
    cells_csv, totals_csv = benchmark_run
    fresh_cells = Path(cells_csv).read_text()
    fresh_totals = Path(totals_csv).read_text()
    golden_cells = (GOLDEN / "cells.csv").read_text()
    golden_totals = (GOLDEN / "totals.csv").read_text()

    if fresh_cells != golden_cells:
        money = ["cost_usd", "shed_mwh", "frp_payment_usd", "make_whole_usd",
                 "clairvoyant_usd"]
        _numbers_match(
            _rows(cells_csv, ("day", "method")),
            _rows(GOLDEN / "cells.csv", ("day", "method")),
            money,
        )
    if fresh_totals != golden_totals:
        money = ["cost_usd", "shed_mwh", "frp_payment_usd", "make_whole_usd"]
        _numbers_match(
            _rows(totals_csv, ("method",)),
            _rows(GOLDEN / "totals.csv", ("method",)),
            money,
        )

    totals = {r["method"]: r for r in csv.DictReader(open(totals_csv))}
    fixed, free = totals["suc-fixed"], totals["suc-free"]
    assert float(fixed["cost_usd"]) <= float(free["cost_usd"])
    assert float(fixed["cost_usd"]) <= float(totals["p95"]["cost_usd"])
    assert float(fixed["shed_mwh"]) == 0.0
    assert float(totals["p90"]["shed_mwh"]) > 0.0
    assert float(fixed["frp_payment_usd"]) > float(totals["p95"]["frp_payment_usd"])


def test_10_no_method_beats_clairvoyance(benchmark_run):
    """Every cell's realized cost is bounded below by the cost of committing
    with full knowledge of the realized day."""
    cells_csv, _ = benchmark_run
    with open(cells_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    for r in rows:
        cost, ref = float(r["cost_usd"]), float(r["clairvoyant_usd"])
        assert cost >= ref - 1e-6 * max(1.0, abs(ref)), (r["day"], r["method"])

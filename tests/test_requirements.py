"""Requirement rules: extremes of served net-load steps, percentile padding,
and the CSV format."""

import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import norm

from frpsim import (
    NetLoadProfile,
    SystemFileError,
    TimeGrid,
    percentile_requirements,
    solve_suc,
    suc_requirements,
)
from frpsim.requirements import (
    FrpRequirements,
    load_requirements,
    ndtri,
    save_requirements,
    zero_requirements,
)
from frpsim.scenarios import ScenarioSet

from conftest import make_gen, run_python, scenario_set, single_bus_system


def _big_system():
    g = make_gen("g", p_max=10000.0, ramp_up=1e6, ramp_down=1e6,
                 on=True, p0=100.0)
    return single_bus_system(g)


def test_flat_load_needs_nothing():
    system = _big_system()
    grid = TimeGrid(hours=4, periods_per_hour=2)
    scn = scenario_set(system, grid, [[100.0] * 8])
    sol = solve_suc(system, scn)
    req = suc_requirements(sol, scn)
    assert np.array_equal(req.up, np.zeros(4))
    assert np.array_equal(req.dn, np.zeros(4))
    assert req.source == "suc-derived"


def test_steps_scale_to_hourly_mw():
    """A +10 MW step each quarter-hour is a 40 MW/h requirement."""
    system = _big_system()
    grid = TimeGrid(hours=2, periods_per_hour=4)
    ramp = [100.0 + 10.0 * k for k in range(8)]
    scn = scenario_set(system, grid, [ramp])
    sol = solve_suc(system, scn)
    req = suc_requirements(sol, scn)
    assert np.allclose(req.up, [40.0, 40.0])
    assert np.allclose(req.dn, [0.0, 0.0])


def test_worst_scenario_wins_and_day_end_step_skipped():
    system = _big_system()
    grid = TimeGrid(hours=3, periods_per_hour=1)
    scn = scenario_set(
        system, grid,
        [[100.0, 130.0, 90.0], [100.0, 115.0, 60.0]],
    )
    sol = solve_suc(system, scn)
    req = suc_requirements(sol, scn)
    # hour 0 covers the step into hour 1; hour 2's step leaves the day
    assert np.allclose(req.up, [30.0, 0.0, 0.0])
    assert np.allclose(req.dn, [0.0, 55.0, 0.0])


def test_extremes_match_brute_force():
    rng = np.random.default_rng(3)
    system = _big_system()
    grid = TimeGrid(hours=4, periods_per_hour=3)
    vals = 500.0 + 80.0 * rng.standard_normal((5, grid.n_periods))
    scn = scenario_set(system, grid, vals)
    sol = solve_suc(system, scn)
    req = suc_requirements(sol, scn)
    served = scn.values - sol.curtail
    sys_net = served.sum(axis=1)
    for h in range(4):
        worst_up, worst_dn = 0.0, 0.0
        for s in range(5):
            for k in range(h * 3, min(h * 3 + 3, grid.n_periods - 1)):
                step = sys_net[s, k + 1] - sys_net[s, k]
                worst_up = max(worst_up, 3 * step)
                worst_dn = max(worst_dn, -3 * step)
        assert req.up[h] == pytest.approx(worst_up)
        assert req.dn[h] == pytest.approx(worst_dn)


def test_curtailment_reduces_requirement():
    """If recourse sheds part of a spike, the requirement follows the served
    trajectory, not the raw one."""
    g = make_gen("g", p_max=120.0, on=True, p0=100.0)
    system = single_bus_system(g, curtailment=50.0)
    grid = TimeGrid(hours=2, periods_per_hour=1)
    scn = scenario_set(system, grid, [[100.0, 200.0]])
    sol = solve_suc(system, scn)
    assert sol.curtail[0, 0, 1] == pytest.approx(80.0)
    req = suc_requirements(sol, scn)
    assert req.up[0] == pytest.approx(20.0)


def test_percentile_pad_single_bus():
    grid = TimeGrid(hours=2, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[1000.0, 1100.0]]))
    req = percentile_requirements(fc, sigma_frac=2.0 / 70.0, coverage=0.95)
    z = norm.ppf(0.975)
    sigma = 2.0 / 70.0 * np.array([1000.0, 1100.0])
    assert req.up[0] == pytest.approx(100.0 + z * sigma.sum())
    assert req.dn[0] == pytest.approx(max(0.0, -(100.0 - z * sigma.sum())))
    assert req.up[1] == 0.0 and req.dn[1] == 0.0
    assert req.source == "percentile-95"


@pytest.mark.parametrize(
    "coverage, z",
    [(0.90, 1.6448536269514722), (0.95, 1.959963984540054), (0.99, 2.5758293035489004)],
)
def test_percentile_quantile_is_bit_exact(coverage, z):
    """With a flat forecast and unit sigma sum the pad is z itself, so the
    requirement shows the quantile to the last bit; norm.ppf is the oracle."""
    grid = TimeGrid(hours=2, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[1.0, 1.0]]))
    req = percentile_requirements(fc, sigma_frac=0.5, coverage=coverage)
    assert req.up[0] == req.dn[0] == z
    assert z == norm.ppf(0.5 * (1.0 + coverage))


def test_ndtri_port_equals_scipy_bit_for_bit():
    """The cephes port gives scipy.special.ndtri's quantile to the last bit
    over the whole of (0, 1): uniform and evenly spaced points, both tails
    down to the smallest subnormal, both sides of the branch points exp(-2)
    and exp(-32), the coverage levels the corpus uses, the ends and outside
    (nan)."""
    rng = np.random.default_rng(0)
    tail = 10.0 ** -rng.uniform(0.0, 300.0, 20_000)
    edges = [np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)]
    points = np.concatenate([
        rng.random(50_000),
        np.linspace(0.0, 1.0, 30_001),
        tail,
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 20_000),
        [5e-324, np.nextafter(1.0, 0.0), 0.5, -0.5, 1.5, np.nan],
        [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)] + edges,
        [0.5 * (1.0 + c) for c in (0.90, 0.95, 0.99)],
    ])
    ours = np.array([ndtri(float(y)) for y in points])
    assert points.size > 100_000
    assert _bits_or_nan(ours) == _bits_or_nan(scipy_ndtri(points))


def _bits_or_nan(a):
    return np.where(np.isnan(a), np.nan, a).tobytes()


def test_package_import_leaves_out_scipy_stats():
    """scipy.stats costs every frp-sim process about half a second and 21 MB
    at start-up; nothing in the package may import it."""
    code = (
        "import sys, frpsim, frpsim.harness, frpsim.cli\n"
        "assert frpsim.__file__.startswith(sys.argv[1]), frpsim.__file__\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    assert run_python(code) == "[]"


def test_percentile_example_value():
    # step 100 with sigmas 25 + 35: 100 + 1.959964 * 60 = 217.59784
    grid = TimeGrid(hours=2, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[250.0, 350.0]]))
    req = percentile_requirements(fc, sigma_frac=0.1, coverage=0.95)
    assert req.up[0] == pytest.approx(217.59784, abs=1e-4)


def test_percentile_variances_aggregate_across_buses():
    grid = TimeGrid(hours=2, periods_per_hour=1)
    two = NetLoadProfile(
        ("b1", "b2"), grid, np.array([[300.0, 400.0], [400.0, 300.0]])
    )
    req2 = percentile_requirements(two, 0.05, 0.95)
    # same totals on one bus, but per-bus sigmas now add in quadrature
    one = NetLoadProfile(("b1",), grid, np.array([[700.0, 700.0]]))
    req1 = percentile_requirements(one, 0.05, 0.95)
    z = norm.ppf(0.975)
    s0 = 0.05 * np.hypot(300.0, 400.0)
    assert req2.up[0] == pytest.approx(z * 2 * s0)
    assert req1.up[0] == pytest.approx(z * 2 * 0.05 * 700.0)
    assert req2.up[0] < req1.up[0]


def test_percentile_coverage_monotone():
    grid = TimeGrid(hours=3, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[500.0, 620.0, 480.0]]))
    r90 = percentile_requirements(fc, 0.03, 0.90)
    r95 = percentile_requirements(fc, 0.03, 0.95)
    r99 = percentile_requirements(fc, 0.03, 0.99)
    assert np.all(r95.up[:-1] >= r90.up[:-1])
    assert np.all(r99.up[:-1] >= r95.up[:-1])
    assert np.all(r99.dn[:-1] >= r95.dn[:-1])


def test_percentile_rejects_bad_coverage():
    grid = TimeGrid(hours=2, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[1.0, 2.0]]))
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="coverage"):
            percentile_requirements(fc, 0.05, bad)


def test_negative_requirements_clamped_to_zero():
    # big downward step: up requirement would go negative without the floor
    grid = TimeGrid(hours=2, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[1000.0, 200.0]]))
    req = percentile_requirements(fc, 0.01, 0.9)
    assert req.up[0] == 0.0
    assert req.dn[0] > 0.0


def test_requirements_validate_shape_and_sign():
    with pytest.raises(ValueError):
        FrpRequirements([1.0, 2.0], [1.0], "x")
    with pytest.raises(ValueError):
        FrpRequirements([-1.0], [0.0], "x")
    assert zero_requirements(3).hours == 3


def test_csv_round_trip(tmp_path):
    req = FrpRequirements([10.0, 0.0, 3.25], [0.0, 7.5, 1.0], "percentile-90")
    path = tmp_path / "req.csv"
    save_requirements(req, path)
    back = load_requirements(path)
    assert back == req
    text = path.read_text()
    assert text.startswith("# source: percentile-90")
    assert "hour,up_mw,dn_mw" in text
    # the file's bytes, every line, the source line too, ending in "\n"
    sha = "22ded344c05de93c6db18b83ca6a9be4940d8cad1c153eb91d88ace75ce70bbf"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha, path.read_bytes()


def test_csv_hours_must_count_from_zero(tmp_path):
    """The hour column is read: rows whose hours are not 0, 1, ... in order
    are refused in one SystemFileError naming the file and the column."""
    path = tmp_path / "req.csv"
    path.write_text("hour,up_mw,dn_mw\n1,5.0,0.0\n7,0.0,2.0\n")
    with pytest.raises(SystemFileError, match=f"^{re.escape(str(path))}: column hour ") as err:
        load_requirements(path)
    assert err.value.field == "hour"


@st.composite
def _forecasts(draw):
    hours = draw(st.integers(1, 6))
    k = draw(st.sampled_from([1, 2, 4]))
    n_b = draw(st.integers(1, 3))
    level = st.floats(-50.0, 400.0, allow_nan=False, allow_infinity=False)
    hourly = np.array(
        draw(st.lists(st.lists(level, min_size=hours, max_size=hours),
                      min_size=n_b, max_size=n_b))
    )
    buses = tuple(f"b{n}" for n in range(n_b))
    grid = TimeGrid(hours, k)
    sigma = draw(st.floats(0.0, 0.3, allow_nan=False))
    return NetLoadProfile.from_hourly(buses, hourly, grid), sigma


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_forecasts(), st.lists(st.floats(0.001, 0.999), max_size=3))
def test_percentile_requirements_nest_pointwise(case, coverages):
    """A higher coverage pads every step further, so the p90 requirement is
    at most the p95 one, and that at most the p99 one, hour by hour; so for
    any two coverages. The harness's percentile ladder relies on it (and
    still checks it on every day)."""
    forecast, sigma = case
    coverages = sorted({0.90, 0.95, 0.99, *coverages})
    reqs = [percentile_requirements(forecast, sigma, c) for c in coverages]
    for lower, higher in zip(reqs, reqs[1:]):
        assert np.all(lower.up <= higher.up)
        assert np.all(lower.dn <= higher.dn)


@st.composite
def _scenario_draws(draw):
    n_s = draw(st.integers(1, 5))
    n_b = draw(st.integers(1, 3))
    grid = TimeGrid(draw(st.integers(1, 5)), draw(st.sampled_from([1, 2, 4])))
    shape = (n_s, n_b, grid.n_periods)

    def tensor(lo, hi):
        level = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
        flat = draw(st.lists(level, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(flat).reshape(shape)

    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_s, max_size=n_s)))
    order = draw(st.permutations(range(n_s)))
    return grid, tensor(-50.0, 400.0), tensor(0.0, 60.0), weights / weights.sum(), order


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scenario_draws())
def test_suc_requirements_ignore_scenario_order(case):
    """Scenarios are a set: permuting them, their probabilities and the
    solution's curtailment together gives the same requirement arrays.
    `suc_requirements` reads only the curtailment of the solution."""
    grid, values, curtail, probs, order = case
    buses = tuple(f"b{n}" for n in range(values.shape[1]))
    order = list(order)
    reqs = [
        suc_requirements(SimpleNamespace(curtail=c), ScenarioSet(buses, grid, v, p))
        for v, c, p in ((values, curtail, probs), (values[order], curtail[order], probs[order]))
    ]
    assert np.array_equal(reqs[0].up, reqs[1].up)
    assert np.array_equal(reqs[0].dn, reqs[1].dn)

"""Scenario generation: AR(1) statistics, stream isolation, nesting, and the
hourly-to-subhourly interpolation."""

import numpy as np
import pytest

from frpsim import (
    NetLoadProfile,
    TimeGrid,
    draw_realization,
    gen_ar1_scenarios,
    hourly_to_subhourly,
    load_scenarios,
    save_scenarios,
)
from frpsim.scenarios import substream


def _profile(hours=24, periods_per_hour=4, level=100.0, buses=("b1",)):
    grid = TimeGrid(hours=hours, periods_per_hour=periods_per_hour)
    vals = np.full((len(buses), grid.n_periods), float(level))
    return NetLoadProfile(buses, grid, vals)


def test_zero_sigma_reproduces_forecast():
    fc = _profile()
    scn = gen_ar1_scenarios(fc, sigma_frac=0.0, rho=0.5, n_scenarios=5, seed=1)
    assert np.array_equal(scn.values, np.broadcast_to(fc.values, scn.values.shape))


def test_probabilities_are_uniform():
    scn = gen_ar1_scenarios(_profile(), 0.03, 0.0, n_scenarios=7, seed=1)
    assert np.allclose(scn.probabilities, 1.0 / 7.0)
    assert scn.n_scenarios == 7


def test_same_seed_is_bit_identical():
    fc = _profile()
    a = gen_ar1_scenarios(fc, 0.05, 0.4, 6, seed=42)
    b = gen_ar1_scenarios(fc, 0.05, 0.4, 6, seed=42)
    assert np.array_equal(a.values, b.values)
    c = gen_ar1_scenarios(fc, 0.05, 0.4, 6, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_iid_equals_ar1_at_rho_zero_bitwise():
    """At rho = 0 the errors are the sub-stream's independent shocks."""
    fc = _profile()
    scn = gen_ar1_scenarios(fc, 0.05, 0.0, 8, seed=9)
    shocks = substream(9, "in-sample").standard_normal((8, 1, fc.grid.n_periods))
    assert np.array_equal(scn.values, fc.values + shocks * (0.05 * fc.values))


def test_rho_out_of_range_rejected():
    fc = _profile(hours=2, periods_per_hour=1)
    with pytest.raises(ValueError, match="rho"):
        gen_ar1_scenarios(fc, 0.05, 1.0, 2, seed=1)
    with pytest.raises(ValueError, match="rho"):
        gen_ar1_scenarios(fc, 0.05, -0.2, 2, seed=1)


def test_error_std_tracks_sigma_frac():
    fc = _profile(hours=4, periods_per_hour=1, level=200.0)
    scn = gen_ar1_scenarios(fc, 0.05, 0.0, n_scenarios=20000, seed=3)
    err = scn.values[:, 0, :] - 200.0
    assert np.allclose(err.std(axis=0), 0.05 * 200.0, rtol=0.05)
    assert abs(err.mean()) < 0.2


def test_ar1_variance_is_stationary():
    """With constant sigma the damped recursion keeps Var(eps[k]) = sigma^2."""
    fc = _profile(hours=6, periods_per_hour=1, level=100.0)
    scn = gen_ar1_scenarios(fc, 0.1, 0.8, n_scenarios=20000, seed=5)
    err = scn.values[:, 0, :] - 100.0
    assert np.allclose(err.std(axis=0), 10.0, rtol=0.05)


def test_ar1_lag1_autocorrelation():
    fc = _profile(hours=48, periods_per_hour=1)
    for rho in (0.3, 0.7):
        scn = gen_ar1_scenarios(fc, 0.05, rho, n_scenarios=4000, seed=11)
        err = scn.values[:, 0, :] - 100.0
        num = np.mean(err[:, 1:] * err[:, :-1])
        den = np.mean(err * err)
        assert num / den == pytest.approx(rho, abs=0.03)


def test_scenario_sets_nest_in_sample_count():
    fc = _profile()
    small = gen_ar1_scenarios(fc, 0.05, 0.4, 5, seed=21)
    big = gen_ar1_scenarios(fc, 0.05, 0.4, 20, seed=21)
    assert np.array_equal(big.values[:5], small.values)


def test_streams_are_isolated_by_labels():
    """Out-of-sample draws must not depend on how many in-sample sets exist."""
    fc = _profile()
    before = draw_realization(fc, 0.05, 0.4, seed=7)
    gen_ar1_scenarios(fc, 0.05, 0.4, 50, seed=7)  # unrelated consumption
    gen_ar1_scenarios(fc, 0.05, 0.4, 3, seed=7, labels=("in-sample", "day2"))
    after = draw_realization(fc, 0.05, 0.4, seed=7)
    assert np.array_equal(before.values, after.values)
    # and distinct labels give distinct streams
    other = draw_realization(fc, 0.05, 0.4, seed=7, labels=("out-of-sample", "day2"))
    assert not np.array_equal(before.values, other.values)


def test_substream_label_order_matters():
    a = substream(1, "x", "y").standard_normal(4)
    b = substream(1, "y", "x").standard_normal(4)
    assert not np.array_equal(a, b)


def test_negative_net_load_is_allowed():
    grid = TimeGrid(hours=3, periods_per_hour=1)
    fc = NetLoadProfile(("b1",), grid, np.array([[-50.0, 0.0, 50.0]]))
    scn = gen_ar1_scenarios(fc, 0.1, 0.0, 5000, seed=2)
    err = scn.values[:, 0, :] - fc.values[0]
    # sigma scales with |forecast|: 5, 0, 5
    assert err[:, 1].std() == 0.0
    assert np.allclose(err[:, [0, 2]].std(axis=0), 5.0, rtol=0.06)
    assert scn.values[:, 0, 0].mean() == pytest.approx(-50.0, abs=0.5)


def test_interpolation_identity_at_one_period_per_hour():
    hourly = np.array([3.0, 7.0, 5.0])
    out = hourly_to_subhourly(hourly, 1)
    assert np.array_equal(out, hourly)
    out[0] = -1  # must be a copy
    assert hourly[0] == 3.0


def test_interpolation_hits_hour_midpoints():
    # odd split puts one sub-period center exactly at each hour midpoint
    hourly = np.array([10.0, 40.0, 20.0])
    out = hourly_to_subhourly(hourly, 3)
    assert out.shape == (9,)
    assert out[1] == 10.0 and out[4] == 40.0 and out[7] == 20.0
    # linear between midpoints, flat outside
    assert out[0] == 10.0 and out[8] == 20.0
    assert out[2] == pytest.approx(20.0)
    assert out[3] == pytest.approx(30.0)


def test_interpolation_2d_rows_independent():
    hourly = np.array([[10.0, 40.0], [0.0, 0.0]])
    out = hourly_to_subhourly(hourly, 2)
    assert out.shape == (2, 4)
    assert np.array_equal(out[1], np.zeros(4))
    assert out[0, 0] == 10.0 and out[0, 3] == 40.0
    assert out[0, 1] == pytest.approx(17.5) and out[0, 2] == pytest.approx(32.5)


def test_profile_from_hourly_and_total():
    grid = TimeGrid(hours=2, periods_per_hour=2)
    p = NetLoadProfile.from_hourly(("b1", "b2"), [[10.0, 20.0], [1.0, 2.0]], grid)
    assert p.values.shape == (2, 4)
    with pytest.raises(ValueError, match="hourly shape"):
        NetLoadProfile.from_hourly(("b1",), [[1.0, 2.0, 3.0]], grid)


def test_scenario_file_round_trip(tmp_path):
    fc = _profile(hours=3, periods_per_hour=2, buses=("b1", "b2"))
    scn = gen_ar1_scenarios(fc, 0.05, 0.5, 4, seed=13)
    path = tmp_path / "scn.json"
    save_scenarios(scn, path)
    back = load_scenarios(path)
    assert back.buses == scn.buses
    assert back.grid == scn.grid
    assert np.array_equal(back.values, scn.values)
    assert np.array_equal(back.probabilities, scn.probabilities)

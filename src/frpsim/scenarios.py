"""Net-load forecasts and correlated error scenarios.

Forecast errors follow a per-bus AR(1) process on the sub-period grid:
``eps[k] = rho * eps[k-1] + sqrt(1 - rho^2) * eta[k]`` with independent
``eta[k] ~ N(0, sigma[k])`` and no carried-in error at the first period.
``sigma[k]`` is a fixed fraction of the forecast magnitude. Independent draws
are the ``rho = 0`` case: the errors are then the shocks, bit for bit.

All randomness derives from one master seed through named sub-streams, so
in-sample scenario sets, out-of-sample realizations, and stress draws never
perturb each other no matter how many of each are drawn.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .codec import ParameterError, Table, check_nonnegative, floats, read_json, write_json
from .timegrid import GRID, TimeGrid

__all__ = [
    "NetLoadProfile",
    "ScenarioSet",
    "substream",
    "check_draw",
    "gen_ar1_scenarios",
    "draw_realization",
    "hourly_to_subhourly",
    "save_scenarios",
    "load_scenarios",
]


def substream(master_seed, *labels):
    """numpy Generator for a named sub-stream of ``master_seed``.

    Labels are hashed into a spawn key, so ("out-of-sample", "day3") is a
    stream independent of ("in-sample",) under the same master seed.
    """
    key = tuple(zlib.crc32(str(lab).encode()) for lab in labels)
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def hourly_to_subhourly(hourly, periods_per_hour):
    """Interpolate hourly samples onto the sub-period grid.

    Hourly values are anchored at hour midpoints and interpolated linearly
    between them, with flat extension before the first and after the last
    midpoint. For one period per hour this is the identity.
    """
    hourly = np.asarray(hourly, dtype=float)
    k = periods_per_hour
    if k == 1:
        return hourly.copy()
    hours = hourly.shape[-1]
    anchors = np.arange(hours) + 0.5
    targets = (np.arange(hours * k) + 0.5) / k
    if hourly.ndim == 1:
        return np.interp(targets, anchors, hourly)
    return np.vstack([np.interp(targets, anchors, row) for row in hourly])


@dataclass
class NetLoadProfile:
    """Per-bus net load on the sub-period grid, shape (n_buses, n_periods)."""

    buses: tuple
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        self.buses = tuple(self.buses)
        self.values = np.asarray(self.values, dtype=float)
        want = (len(self.buses), self.grid.n_periods)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape}, expected {want}")

    @classmethod
    def from_hourly(cls, buses, hourly, grid):
        """Build a profile from per-bus hourly samples, shape (n_buses, hours)."""
        hourly = np.atleast_2d(np.asarray(hourly, dtype=float))
        if hourly.shape != (len(buses), grid.hours):
            raise ValueError(
                f"hourly shape {hourly.shape}, expected {(len(buses), grid.hours)}"
            )
        return cls(buses, grid, hourly_to_subhourly(hourly, grid.periods_per_hour))


@dataclass
class ScenarioSet:
    """Equally-structured net load scenarios with probabilities.

    ``values`` has shape (n_scenarios, n_buses, n_periods).
    """

    buses: tuple
    grid: TimeGrid
    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        self.buses = tuple(self.buses)
        self.values = np.asarray(self.values, dtype=float)
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        s, n, t = self.values.shape
        if n != len(self.buses) or t != self.grid.n_periods:
            raise ValueError(f"scenario tensor shape {self.values.shape} inconsistent")
        if self.probabilities.shape != (s,):
            raise ValueError("one probability per scenario required")
        if np.any(self.probabilities < 0) or abs(self.probabilities.sum() - 1.0) > 1e-9:
            raise ValueError("probabilities must be nonnegative and sum to 1")

    @property
    def n_scenarios(self):
        return self.values.shape[0]


def check_draw(sigma_frac, rho=0.0, n_scenarios=1, seed=0):
    """ParameterError naming the first parameter of a draw out of its range:
    ``sigma_frac`` must be a finite number >= 0 (a negative one would mirror
    the draws), ``rho`` in [0, 1), ``n_scenarios`` at least 1 and the master
    ``seed`` at least 0."""
    check_nonnegative("sigma_frac", sigma_frac)
    if not 0.0 <= rho < 1.0:
        raise ParameterError("rho", "in [0, 1)", rho)
    if not n_scenarios >= 1:
        raise ParameterError("n_scenarios", "at least 1", n_scenarios)
    if not seed >= 0:
        raise ParameterError("master_seed", "at least 0", seed)


def _ar1_errors(rng, sigma, n_scenarios, rho):
    n, t = sigma.shape
    shocks = rng.standard_normal((n_scenarios, n, t)) * sigma[None, :, :]
    eps = np.empty_like(shocks)
    eps[:, :, 0] = shocks[:, :, 0]
    damp = np.sqrt(1.0 - rho * rho)
    for k in range(1, t):
        eps[:, :, k] = rho * eps[:, :, k - 1] + damp * shocks[:, :, k]
    return eps


def gen_ar1_scenarios(forecast, sigma_frac, rho, n_scenarios, seed, labels=("in-sample",)):
    """Draw equiprobable AR(1) error scenarios around a forecast profile."""
    check_draw(sigma_frac, rho, n_scenarios, seed)
    rng = substream(seed, *labels)
    sigma = sigma_frac * np.abs(forecast.values)
    eps = _ar1_errors(rng, sigma, n_scenarios, rho)
    return ScenarioSet(
        buses=forecast.buses,
        grid=forecast.grid,
        values=forecast.values[None, :, :] + eps,
        probabilities=np.full(n_scenarios, 1.0 / n_scenarios),
    )


def draw_realization(forecast, sigma_frac, rho, seed, labels=("out-of-sample",)):
    """One realized trajectory from the named sub-stream, as a profile."""
    drawn = gen_ar1_scenarios(forecast, sigma_frac, rho, 1, seed, labels)
    return NetLoadProfile(forecast.buses, forecast.grid, drawn.values[0])


# -- file io -----------------------------------------------------------------


SCENARIOS = Table(ScenarioSet, "scenario set", (
    ("buses", "buses", tuple), ("grid", None, GRID),
    ("probabilities", "probabilities", floats), ("values", "values_mw", floats),
))


def save_scenarios(scn, path):
    write_json(path, scn, SCENARIOS)


def load_scenarios(path):
    return read_json(path, SCENARIOS)

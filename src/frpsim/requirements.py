"""Hourly up/down flexible-ramp requirements.

Two ways to set them: extract the binding ramps a stochastic commitment run
actually faced (worst curtailment-adjusted net-load step across scenarios in
each hour), or apply a coverage-percentile rule to the forecast and its error
model. Both express the requirement as MW of hourly ramp capability: the
extreme sub-period step times the number of sub-periods per hour, floored at
zero. The step from the day's last sub-period into the next day is unknowable
and is skipped.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import ndtri

__all__ = [
    "FrpRequirements",
    "suc_requirements",
    "percentile_requirements",
    "zero_requirements",
    "save_requirements",
    "load_requirements",
]


class FrpRequirements:
    """Per-hour up/down ramp requirements in MW, tagged with their origin."""

    def __init__(self, up, dn, source):
        self.up = np.asarray(up, dtype=float)
        self.dn = np.asarray(dn, dtype=float)
        self.source = source
        if self.up.shape != self.dn.shape or self.up.ndim != 1:
            raise ValueError("up/dn must be equal-length vectors")
        if np.any(self.up < 0) or np.any(self.dn < 0):
            raise ValueError("requirements must be nonnegative")

    @property
    def hours(self):
        return len(self.up)

    def __eq__(self, other):
        return (
            isinstance(other, FrpRequirements)
            and self.source == other.source
            and np.array_equal(self.up, other.up)
            and np.array_equal(self.dn, other.dn)
        )


def zero_requirements(hours):
    return FrpRequirements(np.zeros(hours), np.zeros(hours), "zero")


def _hourly_extremes(deltas, grid):
    """Requirement vectors from per-scenario sub-period steps.

    ``deltas[s, k]`` is the system net-load step from sub-period k to k+1
    (so it has n_periods - 1 columns). Each hour takes the worst step whose
    left endpoint falls inside it, scaled to hourly MW and floored at zero.
    """
    k_per_h = grid.periods_per_hour
    up = np.zeros(grid.hours)
    dn = np.zeros(grid.hours)
    for h in range(grid.hours):
        k0 = h * k_per_h
        k1 = min(k0 + k_per_h, deltas.shape[1])
        if k1 <= k0:
            continue  # final hour at one period per hour: nothing to cover
        block = deltas[:, k0:k1]
        up[h] = max(0.0, k_per_h * float(block.max()))
        dn[h] = max(0.0, -k_per_h * float(block.min()))
    return up, dn


def suc_requirements(sol, scenarios):
    """Requirements implied by a stochastic commitment solution.

    The relevant signal is the net load each scenario actually had to follow:
    forecast error realization minus whatever the recourse curtailed. The
    requirement covers the steepest such step over all scenarios in the hour.
    """
    served = scenarios.values - sol.curtail  # (S, N, T)
    sys_net = served.sum(axis=1)
    deltas = np.diff(sys_net, axis=1)
    up, dn = _hourly_extremes(deltas, scenarios.grid)
    return FrpRequirements(up, dn, "suc-derived")


def percentile_requirements(forecast, sigma_frac, coverage):
    """Coverage-percentile rule on the forecast, e.g. coverage=0.95.

    The step from k to k+1 is padded by z * (sigma[k+1] + sigma[k]) upward
    and downward, where z is the two-sided normal quantile for the coverage
    level and per-bus error variances aggregate to the system level.

    z is ``scipy.special.ndtri`` at ``(1 + coverage) / 2``: the standard
    normal quantile that ``scipy.stats.norm.ppf`` evaluates, bit for bit,
    without importing ``scipy.stats`` (which costs every process about half
    a second and 21 MB at start-up).
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    z = ndtri(0.5 * (1.0 + coverage))
    sys_forecast = forecast.values.sum(axis=0)
    sigma = np.sqrt(((sigma_frac * np.abs(forecast.values)) ** 2).sum(axis=0))
    step = np.diff(sys_forecast)
    pad = z * (sigma[1:] + sigma[:-1])
    up, _ = _hourly_extremes((step + pad)[None, :], forecast.grid)
    _, dn = _hourly_extremes((step - pad)[None, :], forecast.grid)
    return FrpRequirements(up, dn, f"percentile-{round(coverage * 100):d}")


# -- file io -----------------------------------------------------------------


def save_requirements(req, path):
    with open(path, "w", newline="") as fh:
        fh.write(f"# source: {req.source}\n")
        writer = csv.writer(fh)
        writer.writerow(["hour", "up_mw", "dn_mw"])
        for h in range(req.hours):
            writer.writerow([h, f"{req.up[h]:.6f}", f"{req.dn[h]:.6f}"])


def load_requirements(path):
    source = "unknown"
    with open(path) as fh:
        first = fh.readline()
        if first.startswith("# source:"):
            source = first.split(":", 1)[1].strip()
        else:
            fh.seek(0)
        rows = list(csv.DictReader(fh))
    up = np.array([float(r["up_mw"]) for r in rows])
    dn = np.array([float(r["dn_mw"]) for r in rows])
    return FrpRequirements(up, dn, source)

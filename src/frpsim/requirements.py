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

import math

import numpy as np

from .codec import SystemFileError, floats, read_csv, write_csv
from .scenarios import check_draw

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


# Moshier's cephes ndtri (the source of scipy.special.ndtri): a rational
# approximation in y - 1/2 on the middle of (0, 1), and in 1/sqrt(-2 log y)
# on the tails, split at exp(-32). Coefficients highest power first; the Q
# tables leave out their leading 1.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x, coefs, monic=False):
    """Horner's rule, as cephes' polevl (or p1evl with ``monic``, the
    leading coefficient 1 left out of ``coefs``)."""
    ans = 1.0 if monic else 0.0
    for c in coefs:
        ans = ans * x + c
    return ans


def ndtri(y):
    """The standard normal quantile at ``y`` (a float), evaluated as cephes'
    ``ndtri`` evaluates it, so it equals ``scipy.special.ndtri`` bit for bit."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0, True))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)  # y above or below exp(-32)
    x = x0 - z * _polevl(z, p) / _polevl(z, q, True)
    return x if upper else -x


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

    z is `ndtri` at ``(1 + coverage) / 2``: a port of Moshier's cephes
    ``ndtri``, the routine behind ``scipy.special.ndtri`` and
    ``scipy.stats.norm.ppf``, so z is theirs bit for bit without importing
    scipy (``scipy.special`` and its array-API chain cost every process about
    20 MB at start-up, ``scipy.stats`` another half second and 21 MB).
    """
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    check_draw(sigma_frac)
    z = ndtri(0.5 * (1.0 + coverage))
    sys_forecast = forecast.values.sum(axis=0)
    sigma = np.sqrt(((sigma_frac * np.abs(forecast.values)) ** 2).sum(axis=0))
    step = np.diff(sys_forecast)
    pad = z * (sigma[1:] + sigma[:-1])
    up, _ = _hourly_extremes((step + pad)[None, :], forecast.grid)
    _, dn = _hourly_extremes((step - pad)[None, :], forecast.grid)
    return FrpRequirements(up, dn, f"percentile-{round(coverage * 100):d}")


# -- file io -----------------------------------------------------------------


# the requirements file's columns, after a "# source: ..." line
COLUMNS = (("hour", ""), ("up_mw", ".6f"), ("dn_mw", ".6f"))


def save_requirements(req, path):
    write_csv(path, COLUMNS, zip(range(req.hours), req.up, req.dn), note=f"source: {req.source}")


def load_requirements(path):
    """Requirements from a CSV `save_requirements` wrote. A missing column, a
    cell that is not a finite number, a negative requirement, or hours that
    are not 0, 1, 2, ... in order raise SystemFileError naming the file and
    the column."""
    note, rows = read_csv(path)
    source = note.split(":", 1)[1].strip() if note and note.startswith("source:") else "unknown"
    header, *rows = rows or [[]]
    columns = []
    for key, _ in COLUMNS:
        try:
            i = header.index(key)
            columns.append(floats([row[i] for row in rows if row]))
        except (IndexError, ValueError):
            raise SystemFileError(f"{path}: column {key} missing or not numeric", path, key) from None
    hours, *columns = columns
    if not np.array_equal(hours, np.arange(len(hours))):
        raise SystemFileError(f"{path}: column hour must count 0, 1, 2, ... in order", path, "hour")
    for (key, _), column in zip(COLUMNS[1:], columns):
        if min(column, default=0.0) < 0:
            raise SystemFileError(f"{path}: column {key} holds a negative requirement", path, key)
    return FrpRequirements(*columns, source)

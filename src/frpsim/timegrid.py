"""Time discretization shared by every model in the package.

A study horizon is ``hours`` market hours, each split into ``periods_per_hour``
equal sub-periods. Commitment decisions live on the hourly grid; dispatch,
scenarios and real-time simulation live on the sub-period grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import ParameterError, Table, int_


@dataclass(frozen=True)
class TimeGrid:
    """Hourly horizon with an integer number of sub-periods per hour."""

    hours: int = 24
    periods_per_hour: int = 1

    def __post_init__(self):
        if self.hours < 1:
            raise ValueError(f"hours must be >= 1, got {self.hours}")
        k = self.periods_per_hour
        if k < 1 or 60 % k != 0:
            raise ParameterError("periods_per_hour", "a positive divisor of 60", k)

    @property
    def n_periods(self):
        """Total sub-periods in the horizon."""
        return self.hours * self.periods_per_hour

    @property
    def period_hours(self):
        """Length of one sub-period in hours (energy weight for MW -> MWh)."""
        return 1.0 / self.periods_per_hour

    def hour_of(self, k):
        """Market hour (0-based) containing 0-based sub-period ``k``."""
        return k // self.periods_per_hour


# a file's time grid, its two keys in the file's top-level mapping
GRID = Table(TimeGrid, "grid", (
    ("hours", "hours", int_), ("periods_per_hour", "periods_per_hour", int_),
))

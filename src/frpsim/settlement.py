"""Generator settlement for one simulated day.

Two-settlement convention: day-ahead energy awards are paid at day-ahead
locational prices, real-time deviations from the award at real-time prices,
and ramp-capability awards once at day-ahead ramp prices (there is no
real-time ramp market here). Awards that are negative by construction around
commitment transitions earn nothing rather than being charged, so every
generator's ramp revenue is nonnegative. A daily make-whole payment tops a
generator up to its as-bid cost (commitment costs plus realized energy at the
real-time LP's cost of the unit's own offer segments) whenever market revenue
falls short. Every term is computed for all generators at once.

The optional single-settlement convention pays the day-ahead award only and
ignores real-time deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import write_csv
from .stochastic_uc import commitment_cost

__all__ = ["GenSettlement", "SettlementReport", "settle", "save_settlement"]

MODES = ("two", "dam-only")

# the ledger's columns, one per GenSettlement field; the TOTAL row gives the
# whole energy payment (day-ahead and deviation) in the first money column
# and leaves the deviation and cost cells empty
LEDGER = (
    ("generator", ""), ("dam_energy_rev_usd", ".2f"), ("rt_deviation_rev_usd", ".2f"),
    ("frp_rev_usd", ".2f"), ("as_bid_cost_usd", ".2f"), ("make_whole_usd", ".2f"),
)


@dataclass
class GenSettlement:
    gen_id: str
    dam_energy_revenue: float
    rt_deviation_revenue: float
    frp_revenue: float
    as_bid_cost: float
    make_whole: float

    @property
    def revenue(self):
        return self.dam_energy_revenue + self.rt_deviation_revenue + self.frp_revenue


@dataclass
class SettlementReport:
    mode: str
    generators: list
    total_energy_payment: float
    total_frp_payment: float
    total_make_whole: float

    def gen(self, gen_id):
        for g in self.generators:
            if g.gen_id == gen_id:
                return g
        raise KeyError(gen_id)


def settle(system, dam, rtm, mode="two"):
    """Settle one day given its cleared DAM outcome and realized RTM run."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    gens = system.generators
    bus = [system.bus_index(g.bus) for g in gens]
    scale = rtm.grid.period_hours
    hour = rtm.grid.hour_of(np.arange(rtm.grid.n_periods))
    dam_total = dam.dispatch_total(system)  # (G, H) MW over one hour = MWh per hour
    rev_da = (dam.lmp[bus] * dam_total).sum(axis=1)
    rev_dev = np.zeros(len(gens))
    if mode == "two":
        dev = rtm.dispatch_total(system) * scale - dam_total[:, hour] * scale
        rev_dev = (rtm.lmp[bus] * dev).sum(axis=1)
    rev_frp = np.maximum(dam.r_up, 0.0) @ dam.price_up + np.maximum(dam.r_dn, 0.0) @ dam.price_dn
    cost = commitment_cost(gens, dam.u, dam.v) + rtm.unit_dispatch_cost
    make_whole = np.maximum(0.0, cost - rev_da - rev_dev - rev_frp)
    rows = zip(rev_da, rev_dev, rev_frp, cost, make_whole)
    return SettlementReport(
        mode=mode,
        generators=[GenSettlement(g.id, *map(float, row)) for g, row in zip(gens, rows)],
        total_energy_payment=float((rev_da + rev_dev).sum()),
        total_frp_payment=float(rev_frp.sum()),
        total_make_whole=float(make_whole.sum()),
    )


def save_settlement(report, path):
    """Write the per-generator ledger plus a TOTAL row, money in cents."""
    rows = [
        (r.gen_id, r.dam_energy_revenue, r.rt_deviation_revenue, r.frp_revenue,
         r.as_bid_cost, r.make_whole)
        for r in report.generators
    ]
    rows.append(("TOTAL", report.total_energy_payment, None, report.total_frp_payment,
                 None, report.total_make_whole))
    write_csv(path, LEDGER, rows)

"""Generator settlement for one simulated day.

Two-settlement convention: day-ahead energy awards are paid at day-ahead
locational prices, real-time deviations from the award at real-time prices,
and ramp-capability awards once at day-ahead ramp prices (there is no
real-time ramp market here). Awards that are negative by construction around
commitment transitions earn nothing rather than being charged, so every
generator's ramp revenue is nonnegative. A daily make-whole payment tops a
generator up to its as-bid cost (commitment costs plus realized energy priced
on its own bid curve) whenever market revenue falls short.

The optional single-settlement convention pays the day-ahead award only and
ignores real-time deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import write_csv

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
    system_cost: float  # commitment + realized dispatch + curtailment penalty
    shed_mwh: float

    def gen(self, gen_id):
        for g in self.generators:
            if g.gen_id == gen_id:
                return g
        raise KeyError(gen_id)


def settle(system, dam, rtm, mode="two"):
    """Settle one day given its cleared DAM outcome and realized RTM run."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    grid = rtm.grid
    scale = grid.period_hours
    dam_total = dam.dispatch_total(system)  # (G, H) MW
    rtm_total = rtm.dispatch_total(system)  # (G, T) MW

    rows = []
    for i, g in enumerate(system.generators):
        n = system.bus_index(g.bus)
        dam_mwh = dam_total[i]  # MW over one hour = MWh per hour
        rev_da = float(dam.lmp[n] @ dam_mwh)
        rev_dev = 0.0
        if mode == "two":
            for k in range(grid.n_periods):
                h = grid.hour_of(k)
                dev = rtm_total[i, k] * scale - dam_mwh[h] * scale
                rev_dev += rtm.lmp[n, k] * dev
        rev_frp = float(
            dam.price_up @ np.maximum(dam.r_up[i], 0.0)
            + dam.price_dn @ np.maximum(dam.r_dn[i], 0.0)
        )
        cost = float(
            g.no_load_cost * dam.u[i].sum()
            + g.startup_cost * dam.v[i].sum()
            + scale * sum(g.dispatch_cost(rtm.p[i, k]) for k in range(grid.n_periods))
        )
        make_whole = max(0.0, cost - rev_da - rev_dev - rev_frp)
        rows.append(
            GenSettlement(
                gen_id=g.id,
                dam_energy_revenue=rev_da,
                rt_deviation_revenue=float(rev_dev),
                frp_revenue=rev_frp,
                as_bid_cost=cost,
                make_whole=make_whole,
            )
        )

    return SettlementReport(
        mode=mode,
        generators=rows,
        total_energy_payment=float(
            sum(r.dam_energy_revenue + r.rt_deviation_revenue for r in rows)
        ),
        total_frp_payment=float(sum(r.frp_revenue for r in rows)),
        total_make_whole=float(sum(r.make_whole for r in rows)),
        system_cost=rtm.total_cost,
        shed_mwh=rtm.shed_mwh,
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

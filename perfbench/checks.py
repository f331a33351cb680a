"""Output checks: goldens, frozen per-cell references, invariants and the
physical audits of the traced run.

Every check returns the set of items it found wrong; an item is a ledger
cell id, or ``<report>:<line>`` for a differing golden report row. Their
union is the benchmark's ``wrong_cells``.
"""

from __future__ import annotations

import os

import numpy as np

AUDIT_TOL = 1e-6  # MW; the acceptance suite's physical-audit tolerance


def golden_rows(out_dir, golden_dir):
    """Report rows that differ from the frozen corpus reports, byte for byte."""
    wrong = set()
    for report in ("cells.csv", "totals.csv"):
        with open(os.path.join(out_dir, report), "rb") as fh:
            fresh = fh.read().splitlines()
        with open(os.path.join(golden_dir, report), "rb") as fh:
            golden = fh.read().splitlines()
        for line in range(max(len(fresh), len(golden))):
            if line >= len(fresh) or line >= len(golden) or fresh[line] != golden[line]:
                wrong.add(f"{report}:{line + 1}")
    return wrong


def cell_reference(cells):
    """Per-cell numbers frozen into a reference file."""
    return {
        cid: {
            "rtm_cost_usd": rec["rtm"]["total_cost_usd"],
            "dam_objective_usd": rec["dam"]["objective_usd"],
            "clairvoyant_usd": rec["clairvoyant_usd"],
        }
        for cid, rec in sorted(cells.items())
    }


def reference_cells(cells, reference, rel_tol):
    """Cells whose numbers differ from the frozen reference by more than
    ``rel_tol``, plus cells the reference does not know. Cells missing from
    the ledger are failures, not wrong cells, so they are not returned."""
    fresh = cell_reference(cells)
    wrong = set(fresh) - set(reference)
    for cid, want in reference.items():
        got = fresh.get(cid)
        if got is None:
            continue
        for key, ref in want.items():
            if abs(got[key] - ref) > rel_tol * max(1.0, abs(ref)):
                wrong.add(cid)
    return wrong


def clairvoyance_cells(cells, rel_tol):
    """Cells whose realized cost beats the clairvoyant bound."""
    return {
        cid
        for cid, rec in cells.items()
        if rec["rtm"]["total_cost_usd"]
        < rec["clairvoyant_usd"] - rel_tol * max(1.0, abs(rec["clairvoyant_usd"]))
    }


# -- physical audits ----------------------------------------------------------


def rtm_residuals(system, rtm, realized):
    """Worst balance, capacity and line-flow residuals (MW) of a real-time
    dispatch against the realized net load."""
    total = rtm.dispatch_total(system)
    inj = np.zeros((len(system.buses), rtm.grid.n_periods))
    for i, g in enumerate(system.generators):
        inj[system.bus_index(g.bus)] += total[i]
    net = inj + rtm.curtail - realized.values
    span = np.array([g.dispatch_range for g in system.generators])[:, None]
    worst = {
        "balance": float(np.abs(net.sum(axis=0)).max()),
        "capacity": float(
            max((rtm.p - span * rtm.u).max(), -rtm.p.min(), -rtm.curtail.min())
        ),
        "flow": 0.0,
    }
    if len(system.lines):
        flows = system.isf() @ net
        fmax = np.array([ln.flow_max for ln in system.lines])[:, None]
        fmin = np.array([ln.flow_min for ln in system.lines])[:, None]
        worst["flow"] = float(max((flows - fmax).max(), (fmin - flows).max(), 0.0))
    return worst


def audit(system, captured):
    """Run every physical audit on the results captured by a traced run.

    ``captured`` holds ``(kind, cells, args)`` tuples; returns the wrong
    cell ids and the worst residual seen per audit kind.
    """
    from frpsim.dayahead import check_dam_outcome
    from frpsim.stochastic_uc import check_suc_solution

    wrong = set()
    worst = {"suc": 0.0, "dam": 0.0, "rtm": 0.0}
    for kind, cells, args in captured:
        if kind == "suc":
            scenarios, sol = args
            res = check_suc_solution(system, scenarios, sol, tol=AUDIT_TOL)
            res.pop("violations", None)
        elif kind == "dam":
            outcome, bids, req, fix = args
            res = check_dam_outcome(system, outcome, bids, req, fix, tol=AUDIT_TOL)
        else:
            rtm, realized = args
            res = rtm_residuals(system, rtm, realized)
        residual = max(res.values())
        worst[kind] = max(worst[kind], residual)
        if residual > AUDIT_TOL:
            wrong.update(cells)
    return wrong, worst

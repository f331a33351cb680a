"""Freeze the per-cell references the benchmark checks against.

    python3 perfbench/freeze_reference.py [grid ...]

Runs each grid (corpus, suc-heavy, ieee14) once at the default seed and
writes ``perfbench/reference/<grid>.json``: per cell, the RTM cost, the DAM
objective and the clairvoyant cost. ``corpus-pool`` runs the corpus grid and
shares its reference. The corpus run must first reproduce the golden
reports.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from runner import GOLDEN_DIR, REFERENCE_DIR, ROOT, expected_cells  # sets sys.path

from frpsim import harness
from perfbench import checks, workloads


def freeze(grid):
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="freeze-", dir=ROOT / ".perfbench_work")
    try:
        cfg, system = harness.load_config(
            workloads.config_path(grid, workloads.DEFAULT_SEED, work)
        )
        result = harness.run_experiment(system, cfg, work)
        harness.write_reports(work)
        cells = harness.aggregate(work)
        if result.failed or len(cells) != expected_cells(cfg):
            raise SystemExit(f"{grid}: cells failed: {result.failed}")
        if grid == "corpus" and checks.golden_rows(work, GOLDEN_DIR):
            raise SystemExit("corpus run does not reproduce tests/golden; not freezing")
    finally:
        shutil.rmtree(work)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{grid}.json"
    with open(path, "w") as fh:
        doc = {"seed": workloads.DEFAULT_SEED, "cells": checks.cell_reference(cells)}
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(cells)} cells)")


if __name__ == "__main__":
    for grid in sys.argv[1:] or ("corpus", "suc-heavy", "ieee14"):
        freeze(grid)

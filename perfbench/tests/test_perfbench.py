"""Tests of the benchmark itself (not of frpsim).

    python3 -m pytest perfbench/tests -q

The last two run real grids and take about a minute together.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, tracing, workloads  # noqa: E402

OTHER_SEED = 7  # any seed but the default


def test_ieee14_days_are_a_function_of_the_seed():
    a = workloads.ieee14_days(OTHER_SEED)
    assert a == workloads.ieee14_days(OTHER_SEED)
    assert a != workloads.ieee14_days(OTHER_SEED + 1)
    for day in a:
        loads = day["hourly_net_load_mw"]
        assert sorted(loads) == sorted(workloads.IEEE14_BUSES)
        assert all(len(v) == 24 and min(v) >= 0.0 for v in loads.values())
        total = [sum(h) for h in zip(*loads.values())]
        assert 150.0 < min(total) and max(total) < 360.0


def test_golden_rows_counts_each_differing_row(tmp_path):
    golden, fresh = tmp_path / "g", tmp_path / "f"
    for d in (golden, fresh):
        d.mkdir()
        (d / "totals.csv").write_text("h\n1\n")
    (golden / "cells.csv").write_text("h\na\nb\nc\n")
    (fresh / "cells.csv").write_text("h\na\nB\n")
    assert checks.golden_rows(fresh, golden) == {"cells.csv:3", "cells.csv:4"}


def test_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    own = tracing.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root["end"] - root["start"], rel=1e-12)
    assert min(own) >= 0.0


def _runner(*args):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "runner.py"), *args],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_ieee14_other_seed_runs_clean_and_repeats(tmp_path):
    res = _runner(
        "--workload", "ieee14", "--seed", str(OTHER_SEED),
        "--work-dir", str(tmp_path), "--mode", "trace",
    )
    assert res["attempted"] == 15 and res["failed"] == 0
    assert res["wrong"] == []
    assert max(res["audit_worst"].values()) <= checks.AUDIT_TOL
    assert res["counts_differ"] == []
    run_s = res["metrics"]["harness.run_s"]
    assert res["self_sum_s"] == pytest.approx(run_s, rel=1e-9)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared - set(res["metrics"]) == {"harness.pool_efficiency"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

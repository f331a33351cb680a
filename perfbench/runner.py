"""One fresh interpreter's share of a benchmark run.

``run.py`` starts this script once per measured grid, so every grid pays the
set-up a user of ``frp-sim run`` pays and its memory is its own. Modes:

- ``setup``: import frpsim, build the workload's config, load it; stop there.
- ``run``: set up, then run the grid untraced and check its outputs.
- ``trace``: set up and run the grid twice in-process with tracing on; the
  first run is audited and gives the per-layer metrics, the second must
  repeat every count.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import frpsim  # noqa: E402
from frpsim import harness  # noqa: E402

from perfbench import checks, tracing, workloads  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
REFERENCE_DIR = ROOT / "perfbench" / "reference"


def cpu_seconds():
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def expected_cells(cfg):
    """Cells a grid produces when none fails."""
    per_day = sum(
        len(cfg.n_scenarios) * len(cfg.rho) if m in harness.SUC_METHODS else 1
        for m in cfg.methods
    )
    return per_day * len(cfg.days)


def reference_for(workload, seed):
    """Frozen per-cell reference that applies to this workload and seed."""
    with open(REFERENCE_DIR / f"{workload.grid}.json") as fh:
        ref = json.load(fh)
    if workload.seeded and ref["seed"] != seed:
        return None
    return ref["cells"]


def output_checks(workload, seed, cfg, out_dir):
    """Return (attempted, failed, wrong cell ids, cells) for one ledger."""
    cells = harness.aggregate(out_dir)
    attempted = expected_cells(cfg)
    wrong = checks.clairvoyance_cells(cells, cfg.gap_tol)
    if workload.grid == "corpus":
        wrong |= checks.golden_rows(out_dir, GOLDEN_DIR)
    ref = reference_for(workload, seed)
    if ref is not None:
        wrong |= checks.reference_cells(cells, ref, cfg.gap_tol)
    return attempted, attempted - len(cells), wrong, cells


def run_grid(system, cfg, work_dir, workers, tracer=None):
    out = tempfile.mkdtemp(prefix="ledger-", dir=work_dir)
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    if tracer is None:
        harness.run_experiment(system, cfg, out, workers=workers)
        harness.write_reports(out)
    else:
        with tracer.span("harness.run"):
            harness.run_experiment(system, cfg, out, workers=workers)
            with tracer.span("harness.report"):
                harness.write_reports(out)
    return out, time.perf_counter() - t0, cpu_seconds() - cpu0


def versions():
    import numpy
    import scipy

    try:
        from scipy.optimize._highspy import _core

        highs = (
            f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}"
            f".{_core.HIGHS_VERSION_PATCH}"
        )
    except (ImportError, AttributeError):
        highs = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
        "nproc": os.cpu_count(),
    }


def traced(args, cfg, system, setup_spans):
    first = tracing.Tracer()
    with tracing.instrument(first, audit=True):
        out, _, _ = run_grid(system, cfg, args.work_dir, 1, first)
    attempted, failed, wrong, cells = output_checks(args.workload, args.seed, cfg, out)
    audit_wrong, worst = checks.audit(system, first.captured)
    for item in audit_wrong:
        if item.startswith("day:"):  # the clairvoyant reference of a day
            wrong.update(c for c in cells if c.startswith(item[4:] + "."))
        else:
            wrong.add(item)
    first.captured.clear()
    metrics = tracing.layer_metrics(first.spans, len(cells))
    self_sum = sum(tracing.self_times(first.spans))

    second = tracing.Tracer()
    with tracing.instrument(second):
        out2, _, _ = run_grid(system, cfg, args.work_dir, 1, second)
    again = tracing.layer_metrics(second.spans, len(harness.aggregate(out2)))
    differ = [k for k in tracing.COUNT_METRICS if metrics[k] != again[k]]

    metrics["system.load_s"] = sum(s["end"] - s["start"] for s in setup_spans)
    metrics["trace.overhead_frac"] = (
        tracing.span_cost() * len(first.spans) / metrics["harness.run_s"]
    )
    metrics["trace.counts_repeat"] = int(not differ)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": sorted(wrong),
        "metrics": metrics,
        "self_sum_s": self_sum,
        "counts_differ": differ,
        "audit_worst": worst,
        "versions": versions(),
        "spans": first.spans,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)
    args.workload = workloads.WORKLOADS[args.workload]

    path = workloads.config_path(args.workload.grid, args.seed, args.work_dir)
    setup = tracing.Tracer()
    if args.mode == "trace":
        with tracing.instrument(setup):
            cfg, system = harness.load_config(path)
    else:
        cfg, system = harness.load_config(path)
    ready = time.monotonic()
    if not Path(frpsim.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"frpsim imported from {frpsim.__file__}, not from {ROOT / 'src'}")

    result = {"ready": ready}
    if args.mode == "run":
        out, run_s, cpu_s = run_grid(system, cfg, args.work_dir, args.workload.workers)
        attempted, failed, wrong, _ = output_checks(args.workload, args.seed, cfg, out)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result.update(
            run_s=run_s, cpu_s=cpu_s, attempted=attempted, failed=failed,
            wrong=sorted(wrong), max_rss_mb=max(own, kids) / 1024.0,
        )
    elif args.mode == "trace":
        result.update(traced(args, cfg, system, setup.spans))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

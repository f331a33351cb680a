"""Benchmark the frpsim experiment grid on one workload.

    python3 perfbench/run.py --workload corpus --seed 111 --seconds 20 --trace 0

With ``--trace 0`` it runs whole grids, each in a fresh interpreter, until
``--seconds`` have passed (at least one), and reports the end-to-end metrics:
set-up time, grid wall time, CPU time and peak RSS of the process tree. With
``--trace 1`` it runs the grid traced in one interpreter and reports the
per-layer metrics. Either way it checks the grid's outputs, prints a readable
summary, and prints one JSON object as its last line. Metric names and units
come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, grid runs included
CHILD_TIMEOUT_S = 170.0
PAGE = os.sysconf("SC_PAGE_SIZE")


def tree_rss(pid):
    """Resident bytes of a process and all of its descendants, from /proc."""
    total, todo = 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            pass  # exited between listing and reading
    return total


class PeakSampler(threading.Thread):
    """Polls the RSS of a process tree and keeps the largest sum seen."""

    def __init__(self, pid, interval=0.1):
        super().__init__(daemon=True)
        self.pid, self.interval, self.peak = pid, interval, 0
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(self.interval):
            self.peak = max(self.peak, tree_rss(self.pid))

    def stop(self):
        self._stop_event.set()
        self.join()


def spawn(args, workload, work, mode):
    """Run runner.py in a fresh interpreter and return its result, with
    ``setup_s`` (spawn to the first call into the harness) and, for grid
    runs, the sampled peak RSS of its process tree."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "runner.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--work-dir", str(work), "--mode", mode,
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    sampler = PeakSampler(proc.pid)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        sampler.stop()
        try:  # the child's pool workers, should any outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"runner {mode} exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["ready"] - t0
    res["peak_rss_mb"] = max(sampler.peak / 2**20, res.get("max_rss_mb", 0.0))
    return res


def timed(args, workload, work):
    """End-to-end metrics from untraced grids."""
    start = time.monotonic()
    grids = []
    while True:
        grids.append(spawn(args, workload, work, "run"))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(grids) > args.seconds:
            break
    setups = [g["setup_s"] for g in grids]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, workload, work, "setup")["setup_s"])
    metrics = {
        key: statistics.median(g[key] for g in grids)
        for key in ("run_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setups)
    print(f"grids: {len(grids)}; setup samples: {len(setups)}")
    for g in grids:
        print(
            f"  run_s {g['run_s']:.3f}  cpu_s {g['cpu_s']:.3f}  "
            f"peak_rss_mb {g['peak_rss_mb']:.1f}  setup_s {g['setup_s']:.3f}"
        )
    wrong = sorted({c for g in grids for c in g["wrong"]})
    return grids, metrics, wrong


def traced(args, workload, work):
    """Per-layer metrics from one traced grid (audited) and its repeat."""
    res = spawn(args, workload, work, "trace")
    metrics = res["metrics"]
    workers = WORKLOADS[workload].workers
    if workers > 1:
        pooled = spawn(args, workload, work, "run")
        res["wrong"] += pooled["wrong"]
        metrics["harness.pool_efficiency"] = metrics["harness.run_s"] / (
            workers * pooled["run_s"]
        )
    else:
        metrics["harness.pool_efficiency"] = 1.0  # no pool to lose time in
    run_s = metrics["harness.run_s"]
    if abs(res["self_sum_s"] - run_s) > 1e-6 * run_s:
        res["wrong"].append("trace:self-times")
    print(f"versions: {json.dumps(res['versions'], sort_keys=True)}")
    print(f"worst audit residual (MW): {json.dumps(res['audit_worst'], sort_keys=True)}")
    print(f"span self times sum to {res['self_sum_s']:.6f} s of harness.run_s {run_s:.6f} s")
    if res["counts_differ"]:
        print(f"counts that did not repeat: {', '.join(res['counts_differ'])}")
    else:
        print("every count repeated exactly in the second traced run")
    spans_path = ROOT / ".perfbench_work" / "traces" / f"{workload}-seed{args.seed}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({k: res[k] for k in ("metrics", "versions", "spans")}, fh)
    print(f"spans: {spans_path.relative_to(ROOT)}")
    return [res], metrics, res["wrong"]


def bench(args, workload, declared):
    """Measure one workload, print its summary and return its result."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        grids, metrics, wrong = (traced if args.trace else timed)(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(g["attempted"] for g in grids)
    failed = sum(g["failed"] for g in grids)
    print(
        f"{workload} seed {args.seed}: cells attempted {attempted}, "
        f"failed_frac {failed / attempted:g} (frac), wrong_cells {len(wrong)} (count)"
    )
    if wrong:
        print(f"wrong: {', '.join(wrong)}")
    for m in declared:
        print(f"{m['name']:>26} {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # end on a termination signal through the finally blocks that stop the runner
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    needed = [ROOT / "src" / "frpsim" / "__init__.py", ROOT / "BENCHMARK.json"]
    if any(WORKLOADS[n].grid == "corpus" for n in names):
        needed += [ROOT / "tests" / "golden" / f for f in ("cells.csv", "totals.csv")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    # byte-compile once so no timed interpreter pays for it
    for d in ("src", "perfbench"):
        compileall.compile_dir(str(ROOT / d), quiet=2)
    results = {name: bench(args, name, declared) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:  # one object for every workload, metrics named <workload>/<metric>
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark harness: run procurement methods over days and score them.

A run is a grid of cells. Scenario-based methods ("suc-fixed" carries the
stochastic pass's commitments into the market run as a floor, "suc-free"
only carries its requirements) get one cell per (day, scenario count, rho);
percentile methods ("p90", "p95", "p99") are scenario-free, so they get one
cell per day and their results apply across the whole grid.

A day's percentile cells are one job, cleared in ascending coverage. A level
whose requirements are, hour by hour, at least those of the level cleared
before it hands that level's market outcome to `clear_dam` as ``relaxed``,
which skips the clearing MILP when that outcome's commitment and bound
certify the higher level (see `dayahead`). The comparison is made on the
arrays each run, not assumed from the coverages. A level that fails fails
its own cell, and the level after it clears without a bound.

Every cell clears the day-ahead market, re-dispatches against the day's
out-of-sample realization (identical across methods by construction: it comes
from a named sub-stream keyed only by the day), settles, and records a
clairvoyant reference cost (the cost of a commitment chosen with the realized
trajectory known in advance).

The output directory is an append-only ledger: one JSON per finished cell,
plus a manifest.jsonl line per attempt. Re-running with the same directory
skips finished cells, so an interrupted run resumes where it stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np
import yaml

from . import stochastic_uc
from .dayahead import DamBidSet, clear_dam
from .realtime import simulate_rtm
from .requirements import percentile_requirements, suc_requirements
from .scenarios import NetLoadProfile, ScenarioSet, draw_realization, gen_ar1_scenarios
from .settlement import settle
from .system import load_system
from .timegrid import TimeGrid

SUC_METHODS = ("suc-fixed", "suc-free")
PERCENTILE_METHODS = {"p90": 0.90, "p95": 0.95, "p99": 0.99}
ALL_METHODS = SUC_METHODS + tuple(PERCENTILE_METHODS)

__all__ = [
    "DayInput",
    "ExperimentConfig",
    "RunResult",
    "LedgerMismatchError",
    "load_config",
    "run_experiment",
    "clairvoyant_cost",
    "aggregate",
    "write_reports",
]


@dataclass
class DayInput:
    name: str
    hourly_net_load: np.ndarray  # (buses, hours) MW, bus order = system order


@dataclass
class ExperimentConfig:
    days: list
    methods: list
    n_scenarios: list
    rho: list
    sigma_frac: float
    periods_per_hour: int
    master_seed: int
    oos_sigma_frac: float
    oos_rho: float
    gap_tol: float = 1e-6
    time_limit: float | None = None
    settlement_mode: str = "two"
    system_path: str | None = None
    # sha256 of the system file's bytes as `load_config` read them
    system_sha256: str | None = None

    def grid(self, hours):
        return TimeGrid(hours=hours, periods_per_hour=self.periods_per_hour)

    def digest(self):
        """Hash of everything that decides a cell's numbers, the system
        file's bytes included, so a ledger can refuse cells of another run.
        The bytes are those the system was loaded from: editing the file
        later does not change the digest of this config."""
        blob = json.dumps(
            {
                "days": [[d.name, d.hourly_net_load.tolist()] for d in self.days],
                "methods": self.methods,
                "n_scenarios": self.n_scenarios,
                "rho": self.rho,
                "sigma_frac": self.sigma_frac,
                "periods_per_hour": self.periods_per_hour,
                "master_seed": self.master_seed,
                "oos": [self.oos_sigma_frac, self.oos_rho],
                "gap_tol": self.gap_tol,
                "time_limit": self.time_limit,
                "settlement": self.settlement_mode,
                "system_sha256": self.system_sha256,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path):
    """Parse an experiment YAML; returns (config, system)."""
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    base = os.path.dirname(os.path.abspath(path))
    system_path = raw["system"]
    if not os.path.isabs(system_path):
        system_path = os.path.join(base, system_path)
    # hash and parse the same bytes, so the digest is that of this system
    with open(system_path, "rb") as fh:
        data = fh.read()
    system = load_system(system_path, data=data)

    methods = list(raw.get("methods", list(ALL_METHODS)))
    for m in methods:
        if m not in ALL_METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {ALL_METHODS}")
    days = []
    for d in raw["days"]:
        loads = d["hourly_net_load_mw"]
        missing = [b for b in system.bus_ids if b not in loads]
        if missing:
            raise ValueError(f"day {d['name']}: no net load for buses {missing}")
        hourly = np.array([loads[b] for b in system.bus_ids], dtype=float)
        days.append(DayInput(name=str(d["name"]), hourly_net_load=hourly))
    oos = raw.get("out_of_sample", {})
    cfg = ExperimentConfig(
        days=days,
        methods=methods,
        n_scenarios=[int(n) for n in raw.get("n_scenarios", [8])],
        rho=[float(r) for r in raw.get("rho", [0.0])],
        sigma_frac=float(raw.get("sigma_frac", 0.03)),
        periods_per_hour=int(raw.get("periods_per_hour", 1)),
        master_seed=int(raw["master_seed"]),
        oos_sigma_frac=float(oos.get("sigma_frac", raw.get("sigma_frac", 0.03))),
        oos_rho=float(oos.get("rho", 0.0)),
        gap_tol=float(raw.get("gap_tol", 1e-6)),
        time_limit=raw.get("time_limit"),
        settlement_mode=str(raw.get("settlement", "two")),
        system_path=system_path,
        system_sha256=hashlib.sha256(data).hexdigest(),
    )
    return cfg, system


# -- per-day shared pieces ----------------------------------------------------


def _day_profile(system, cfg, day):
    grid = cfg.grid(day.hourly_net_load.shape[1])
    forecast = NetLoadProfile.from_hourly(system.bus_ids, day.hourly_net_load, grid)
    bids = DamBidSet(system.bus_ids, day.hourly_net_load)
    return forecast, bids


def clairvoyant_cost(system, realized, gap_tol=1e-6, time_limit=None):
    """Cost of a commitment chosen knowing the realized trajectory: the
    stochastic pass run on that single certain scenario, within
    ``time_limit`` seconds. Returns the reference's record: the cost as
    ``cost_usd`` and the gap, plus what the solve did (its ``record``)."""
    certain = ScenarioSet(
        buses=realized.buses,
        grid=realized.grid,
        values=realized.values[None, :, :],
        probabilities=np.array([1.0]),
    )
    sol = stochastic_uc.solve_suc(system, certain, gap_tol=gap_tol, time_limit=time_limit)
    return {"cost_usd": sol.objective, "mip_gap": sol.mip_gap, **sol.record}


def _cell_id(day_name, method, n=None, rho=None):
    if method in PERCENTILE_METHODS:
        return f"{day_name}.{method}"
    return f"{day_name}.{method}.n{n}.rho{rho:g}"


def _finish_cell(system, cfg, day, method, dam, realized, req, extra, bound_from=None):
    rtm = simulate_rtm(system, dam, realized)
    rep = settle(system, dam, rtm, mode=cfg.settlement_mode)
    rec = {
        "day": day.name,
        "method": method,
        "requirements": {
            "source": req.source,
            "up_mw": req.up.tolist(),
            "dn_mw": req.dn.tolist(),
        },
        "dam": {
            "objective_usd": dam.objective,
            "mip_gap": dam.mip_gap,
            "bound_from": bound_from,
            "shortfall_up_mw": float(dam.sf_up.sum()),
            "shortfall_dn_mw": float(dam.sf_dn.sum()),
            **dam.record,
        },
        "rtm": {
            "total_cost_usd": rtm.total_cost,
            "commitment_cost_usd": rtm.commitment_cost,
            "dispatch_cost_usd": rtm.dispatch_cost,
            "curtailment_cost_usd": rtm.curtailment_cost,
            "shed_mwh": rtm.shed_mwh,
            **rtm.record,
        },
        "settlement": {
            "mode": rep.mode,
            "total_energy_payment_usd": rep.total_energy_payment,
            "total_frp_payment_usd": rep.total_frp_payment,
            "total_make_whole_usd": rep.total_make_whole,
        },
    }
    rec.update(extra)
    return rec


def _run_suc_group(system, cfg, day, n, rho, wanted, realized):
    """Solve the stochastic pass once and finish every dependent cell."""
    forecast, bids = _day_profile(system, cfg, day)
    scen = gen_ar1_scenarios(
        forecast, cfg.sigma_frac, rho, n, cfg.master_seed, labels=("in-sample", day.name)
    )
    suc = stochastic_uc.solve_suc(
        system, scen, gap_tol=cfg.gap_tol, time_limit=cfg.time_limit
    )
    req = suc_requirements(suc, scen)
    suc_meta = {"objective_usd": suc.objective, "mip_gap": suc.mip_gap, **suc.record}
    cells = {}
    for method in wanted:
        fix = suc.committed_hours() if method == "suc-fixed" else None
        dam = clear_dam(
            system, bids, req,
            fix_commitments=fix, gap_tol=cfg.gap_tol, time_limit=cfg.time_limit,
        )
        rec = _finish_cell(
            system, cfg, day, method, dam, realized, req,
            {"n_scenarios": n, "rho": rho, "suc": suc_meta},
        )
        cells[_cell_id(day.name, method, n, rho)] = rec
    return cells, 1  # one stochastic-pass solve


def _run_pct_ladder(system, cfg, day, wanted, realized):
    """Finish the percentile cells ``wanted`` of one day, in the order given
    (ascending coverage). A level gets the outcome of the level before it as
    ``relaxed`` when its requirements are elementwise at least that level's;
    ``bound_from`` names the method whose clearing MILP proved the bound that
    certified it. A level that raises is returned as its exception, and the
    next level clears without a bound."""
    forecast, bids = _day_profile(system, cfg, day)
    cells = {}
    below = None  # (requirements, outcome, method that proved its bound)
    for method in wanted:
        cell_id = _cell_id(day.name, method)
        try:
            req = percentile_requirements(forecast, cfg.sigma_frac, PERCENTILE_METHODS[method])
            nested = (
                below is not None
                and np.all(req.up >= below[0].up) and np.all(req.dn >= below[0].dn)
            )
            dam = clear_dam(
                system, bids, req, gap_tol=cfg.gap_tol, time_limit=cfg.time_limit,
                relaxed=below[1] if nested else None,
            )
            bound_from = below[2] if dam.certified else None
            cells[cell_id] = _finish_cell(
                system, cfg, day, method, dam, realized, req,
                {"n_scenarios": None, "rho": None, "suc": None}, bound_from,
            )
            below = (req, dam, bound_from or method)
        except Exception as exc:  # noqa: BLE001 - a level fails its own cell
            cells[cell_id] = exc
            below = None
    return cells, 0


@dataclass
class RunResult:
    out_dir: str
    done: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # cell/group id -> error string
    suc_pass_solves: int = 0

    @property
    def clean(self):
        return not self.failed


def _write_json(path, doc, **kwargs):
    """Write ``doc`` to ``path`` through a temp file in the same directory,
    synced to disk before it is renamed into place, so a crash mid-write
    leaves no partial file for a resume to take as finished. The file gets
    the permissions of a plain ``open``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, **kwargs)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _append_manifest(out_dir, entry):
    with open(os.path.join(out_dir, "manifest.jsonl"), "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


class LedgerMismatchError(RuntimeError):
    """The output directory holds a run of another config or system."""


def _first_digest(out_dir):
    """The config digest of the first run recorded in ``out_dir``, if any."""
    path = os.path.join(out_dir, "manifest.jsonl")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            if entry.get("event") == "run-start":
                return entry["config_digest"]
    return None


def run_experiment(system, cfg, out_dir, workers=1):
    """Execute every cell of the configured grid, resuming past work.

    Returns a RunResult; failures are recorded and do not stop other cells.
    Raises LedgerMismatchError, before solving anything, when ``out_dir``
    holds a run whose config digest differs: its cells would not be cells of
    this run. Use a fresh directory for a changed config or system.
    """
    digest = cfg.digest()
    recorded = _first_digest(out_dir)
    if recorded is not None and recorded != digest:
        raise LedgerMismatchError(
            f"{out_dir} holds a run of config {recorded}, not {digest}; "
            "use a fresh output directory"
        )
    os.makedirs(out_dir, exist_ok=True)
    cells_dir = os.path.join(out_dir, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    result = RunResult(out_dir=out_dir)
    _append_manifest(
        out_dir, {"event": "run-start", "config_digest": digest, "time": time.time()}
    )

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # 2 MB a serial run skips

        executor = ProcessPoolExecutor(max_workers=workers)
    else:
        executor = contextlib.nullcontext(_Serial())
    with executor as pool:
        # every day's realized trajectory and clairvoyant reference first;
        # what is submitted is module-level, so that it survives pickling
        refs = []
        for day in cfg.days:
            path = os.path.join(out_dir, f"clairvoyant.{day.name}.json")
            solve = not os.path.exists(path)
            refs.append((day, path, pool.submit(_day_reference, system, cfg, day, solve)))
        # a day's cells are submitted once its reference is written; a day
        # whose reference cannot even be computed fails all of them up front
        futures = []  # (job, the clairvoyant cost of its day, future)
        for day, path, ref in refs:
            try:
                realized, rec = ref.result()
                if rec is not None:
                    _write_json(path, {"day": day.name, **rec})
                # a resume reads only the cost, so a file of the cost alone will do
                with open(path) as fh:
                    cost = json.load(fh)["cost_usd"]
            except Exception as exc:  # noqa: BLE001 - day isolation
                ids = [c for job in _day_jobs(cfg, day, None) for c in job[-1]]
                _record_failure(out_dir, result, ids, exc)
                continue
            for job in _day_jobs(cfg, day, realized):
                ids = job[-1]
                fresh = [c for c in ids if not os.path.exists(f"{cells_dir}/{c}.json")]
                if fresh:
                    futures.append((job, cost, pool.submit(_dispatch, system, cfg, job)))
                result.skipped.extend(c for c in ids if c not in fresh)

        for job, cost, fut in futures:
            try:
                cells, n_solves = fut.result()
            except Exception as exc:  # noqa: BLE001 - cell isolation is the point
                _record_failure(out_dir, result, job[-1], exc)
                continue
            result.suc_pass_solves += n_solves
            for cell_id, rec in cells.items():
                path = os.path.join(cells_dir, cell_id + ".json")
                if os.path.exists(path):  # never overwrite ledger entries
                    continue
                try:
                    if isinstance(rec, Exception):
                        raise rec
                    rec["clairvoyant_usd"] = cost
                    _write_json(path, rec, sort_keys=True)
                    result.done.append(cell_id)
                    _append_manifest(
                        out_dir, {"event": "cell", "cell": cell_id, "status": "done"}
                    )
                except Exception as exc:  # noqa: BLE001 - a cell fails alone
                    _record_failure(out_dir, result, [cell_id], exc)

    _append_manifest(
        out_dir,
        {
            "event": "run-end",
            "done": len(result.done),
            "skipped": len(result.skipped),
            "failed": len(result.failed),
            "suc_pass_solves": result.suc_pass_solves,
        },
    )
    return result


class _Serial:
    """The stand-in for a process pool at ``workers=1``: a submitted call
    runs in this process when its result is asked for."""

    def submit(self, fn, *args, **kwargs):
        return SimpleNamespace(result=partial(fn, *args, **kwargs))


def _day_reference(system, cfg, day, solve):
    """A day's realized trajectory and, if ``solve``, the record of its
    clairvoyant reference (else None)."""
    forecast, _ = _day_profile(system, cfg, day)
    realized = draw_realization(
        forecast, cfg.oos_sigma_frac, cfg.oos_rho, cfg.master_seed,
        labels=("out-of-sample", day.name),
    )
    kw = {"gap_tol": cfg.gap_tol, "time_limit": cfg.time_limit}
    return realized, clairvoyant_cost(system, realized, **kw) if solve else None


def _day_jobs(cfg, day, realized):
    """The jobs of one day, as (kind, day, n, rho, methods, realized, cell
    ids): one per stochastic-pass group (scenario count ``n``, rho ``rho``)
    and one for the percentile methods, in ascending coverage (``n`` and
    ``rho`` None)."""
    suc = [m for m in cfg.methods if m in SUC_METHODS]
    for n, rho in itertools.product(cfg.n_scenarios, cfg.rho) if suc else ():
        yield ("suc", day, n, rho, suc, realized, [_cell_id(day.name, m, n, rho) for m in suc])
    pct = sorted((m for m in cfg.methods if m in PERCENTILE_METHODS), key=PERCENTILE_METHODS.get)
    if pct:
        yield ("pct", day, None, None, pct, realized, [_cell_id(day.name, m) for m in pct])


def _dispatch(system, cfg, job):
    kind, day, n, rho, wanted, realized, _ = job
    if kind == "suc":
        return _run_suc_group(system, cfg, day, n, rho, wanted, realized)
    return _run_pct_ladder(system, cfg, day, wanted, realized)


def _record_failure(out_dir, result, ids, exc):
    """Mark the cells ``ids`` failed, except those already in the ledger: a
    job resumed for some of its cells also holds cells an earlier run
    finished."""
    for cell_id in ids:
        if os.path.exists(os.path.join(out_dir, "cells", cell_id + ".json")):
            continue
        result.failed[cell_id] = f"{type(exc).__name__}: {exc}"
        _append_manifest(
            out_dir,
            {"event": "cell", "cell": cell_id, "status": "failed", "error": str(exc)},
        )


# -- reporting ----------------------------------------------------------------


def aggregate(out_dir):
    """Load every finished cell from a ledger directory, sorted by cell id."""
    cells_dir = os.path.join(out_dir, "cells")
    cells = {}
    if os.path.isdir(cells_dir):
        for name in sorted(os.listdir(cells_dir)):
            if name.endswith(".json"):
                with open(os.path.join(cells_dir, name)) as fh:
                    cells[name[:-5]] = json.load(fh)
    return cells


def write_reports(out_dir):
    """Emit cells.csv (tidy per-cell data) and totals.csv (per-method sums,
    percentile methods replicated across the scenario grid). Returns paths."""
    cells = aggregate(out_dir)
    rows = []
    for cell_id, rec in sorted(cells.items()):
        rows.append(
            {
                "day": rec["day"],
                "method": rec["method"],
                "n_scenarios": rec["n_scenarios"],
                "rho": rec["rho"],
                "cost_usd": rec["rtm"]["total_cost_usd"],
                "shed_mwh": rec["rtm"]["shed_mwh"],
                "frp_payment_usd": rec["settlement"]["total_frp_payment_usd"],
                "make_whole_usd": rec["settlement"]["total_make_whole_usd"],
                "clairvoyant_usd": rec["clairvoyant_usd"],
            }
        )
    cells_csv = os.path.join(out_dir, "cells.csv")
    with open(cells_csv, "w") as fh:
        fh.write(
            "day,method,n_scenarios,rho,cost_usd,shed_mwh,"
            "frp_payment_usd,make_whole_usd,clairvoyant_usd\n"
        )
        for r in rows:
            n = "" if r["n_scenarios"] is None else str(r["n_scenarios"])
            rho = "" if r["rho"] is None else f"{r['rho']:g}"
            fh.write(
                f"{r['day']},{r['method']},{n},{rho},"
                f"{r['cost_usd']:.2f},{r['shed_mwh']:.6f},"
                f"{r['frp_payment_usd']:.2f},{r['make_whole_usd']:.2f},"
                f"{r['clairvoyant_usd']:.2f}\n"
            )

    grid_pairs = sorted(
        {(r["n_scenarios"], r["rho"]) for r in rows if r["n_scenarios"] is not None}
    )
    totals = {}
    for r in rows:
        pairs = [(r["n_scenarios"], r["rho"])] if r["n_scenarios"] is not None else (
            grid_pairs or [(None, None)]
        )
        for pair in pairs:
            key = (r["method"], *pair)
            agg = totals.setdefault(
                key, {"cost_usd": 0.0, "shed_mwh": 0.0, "frp_payment_usd": 0.0,
                      "make_whole_usd": 0.0}
            )
            for f in agg:
                agg[f] += r[f]
    totals_csv = os.path.join(out_dir, "totals.csv")
    with open(totals_csv, "w") as fh:
        fh.write("method,n_scenarios,rho,cost_usd,shed_mwh,frp_payment_usd,make_whole_usd\n")
        for (method, n, rho), agg in sorted(
            totals.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]), str(kv[0][2]))
        ):
            n_s = "" if n is None else str(n)
            rho_s = "" if rho is None else f"{rho:g}"
            fh.write(
                f"{method},{n_s},{rho_s},{agg['cost_usd']:.2f},{agg['shed_mwh']:.6f},"
                f"{agg['frp_payment_usd']:.2f},{agg['make_whole_usd']:.2f}\n"
            )
    return cells_csv, totals_csv

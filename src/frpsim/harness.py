"""Benchmark harness: run procurement methods over days and score them.

A run is a grid of cells. Scenario-based methods ("suc-fixed" carries the
stochastic pass's commitments into the market run as a floor, "suc-free"
only carries its requirements) get one cell per (day, scenario count, rho);
percentile methods ("p90", "p95", "p99") are scenario-free, so they get one
cell per day and their results apply across the whole grid.

A job is a day's percentile cells, in ascending coverage, or one
stochastic-pass group's cells, "suc-free" first. One loop (`_dispatch`)
clears a job's markets in that order, each through `clear_dam`. A market
gets as ``relaxed`` the last market of the job that cleared without a floor
and whose requirements are, hour by hour, at most its own; the comparison is
made on the arrays each run, not assumed from the coverages. `clear_dam`
decides whether that outcome certifies the market (see `dayahead`): a
percentile level by a pinned-LP check against the lower level's bound,
skipping its clearing MILP, and suc-fixed, whose requirements are
suc-free's, where suc-free's commitment meets the stochastic commitment
everywhere, building and solving nothing. ``bound_from`` names the method
whose clearing MILP proved the bound. A market that raises fails its own
cell alone; a failed stochastic pass fails its whole group.

Every cell clears (or is settled in) the day-ahead market, re-dispatches
against the day's out-of-sample realization (identical across methods by
construction: it comes from a named sub-stream keyed only by the day),
settles, and records a clairvoyant reference cost (the cost of a commitment
chosen with the realized trajectory known in advance). The re-dispatch reads
only the market's commitment, so a job runs one per distinct commitment: a
cell whose commitment an earlier cell of the job re-dispatched reuses that
outcome, and its ``rtm`` record names that cell as ``shared_from`` (null on
the cell that ran it). A cell that reuses a solve, a settled market, a
shared re-dispatch or the stochastic pass of its group (every cell of the
group after the first one finished), keeps that solve's record with its
work (seconds, rounds, iterations, nodes) read as zero (`optim.reused`), so
that no solve is counted twice.

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
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import optim, stochastic_uc
from .codec import (
    ParameterError, SystemFileError, Table, check_nonnegative, convert, floats, int_, list_,
    number_or_null, read_json, read_mapping, read_text, read_yaml, refuse_unknown, require,
    write_csv, write_json,
)
from .dayahead import DamBidSet, clear_dam
from .realtime import simulate_rtm
from .requirements import percentile_requirements, suc_requirements
from .scenarios import NetLoadProfile, ScenarioSet, check_draw, draw_realization, gen_ar1_scenarios
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


# the config's keys, read as the system file's are; `system` is the system
# file's path, relative to the config's directory, and `time_limit` is kept
# as the YAML gives it, since config digests hash it so
CONFIG = Table(dict, "config", (
    ("system_path", "system", str),
    ("master_seed", "master_seed", int_),
    ("sigma_frac", "sigma_frac", float, 0.03),
    ("periods_per_hour", "periods_per_hour", int_, 1),
    ("gap_tol", "gap_tol", float, 1e-6),
    ("time_limit", "time_limit", number_or_null, None),
    ("settlement_mode", "settlement", str, "two"),
    ("methods", "methods", [str], list(ALL_METHODS)),
    ("n_scenarios", "n_scenarios", [int_], [8]),
    ("rho", "rho", [float], [0.0]),
    ("out_of_sample", "out_of_sample", dict, {}),
    ("days", "days", [dict]),
))


def load_config(path):
    """Parse an experiment YAML; returns (config, system). A missing,
    mistyped (a list, mapping or value of the wrong type), unknown or out of
    range key, an unknown method or a day without a bus's net load raises
    SystemFileError naming the file and the key."""
    where = str(path)
    settings = read_mapping(CONFIG, read_yaml(path), where, strict=True)
    # hash and parse the same text, so the digest is that of this system
    system_path = os.path.join(os.path.dirname(os.path.abspath(path)), settings.pop("system_path"))
    text = read_text(system_path)
    system = load_system(system_path, text=text)

    for m in settings["methods"]:
        if m not in ALL_METHODS:
            raise SystemFileError(f"{where}: unknown method {m!r}; choose from {ALL_METHODS}")
    days = []
    for d in settings.pop("days"):
        day, key = f"{where}: day {d.get('name')}", "hourly_net_load_mw"
        refuse_unknown(d, ("name", key), day)
        loads = convert(dict, require(d, key, day), day, key)
        missing = [b for b in system.bus_ids if b not in loads]
        if missing:
            raise SystemFileError(f"{day}: no net load for buses {missing}")
        refuse_unknown(loads, system.bus_ids, f"{day} {key}")
        hourly = [convert(list_, loads[b], day, f"{key} {b}") for b in system.bus_ids]
        days.append(DayInput(str(require(d, "name", day)), convert(floats, hourly, day, key)))
    oos = settings.pop("out_of_sample")
    refuse_unknown(oos, ("sigma_frac", "rho"), f"{where}: out_of_sample")
    cfg = ExperimentConfig(
        days=days,
        oos_sigma_frac=convert(
            float, oos.get("sigma_frac", settings["sigma_frac"]), where, "out_of_sample sigma_frac"
        ),
        oos_rho=convert(float, oos.get("rho", 0.0), where, "out_of_sample rho"),
        system_path=system_path,
        system_sha256=hashlib.sha256(text.encode()).hexdigest(),
        **settings,
    )
    # the grid, the MIP gap, the time limit and the parameters of the run's
    # draws, checked as they would be drawn: (the key's prefix, sigma_frac,
    # rho, scenario count, seed)
    draws = [("", cfg.sigma_frac, 0.0, 1, cfg.master_seed),
             ("out_of_sample ", cfg.oos_sigma_frac, cfg.oos_rho, 1)]
    draws += [("", 0.0, rho, 1) for rho in cfg.rho] + [("", 0.0, 0.0, n) for n in cfg.n_scenarios]
    prefix = ""
    try:
        cfg.grid(1)
        check_nonnegative("gap_tol", cfg.gap_tol)
        if cfg.time_limit is not None:
            check_nonnegative("time_limit", cfg.time_limit)
        for prefix, *draw in draws:
            check_draw(*draw)
    except ParameterError as exc:
        raise SystemFileError(f"{where}: {prefix}{exc}", where, prefix + exc.name) from None
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


def _finish_cell(system, cfg, day, method, dam, realized, req, extra, rtms, bound_from=None):
    """The record of a cell whose market cleared as ``dam``. ``rtms`` maps
    each commitment the job re-dispatched to (outcome, cell id)."""
    key = np.stack([dam.u, dam.v, dam.w]).tobytes()
    rtm, shared_from = rtms.get(key, (None, None))
    if rtm is None:
        rtm = simulate_rtm(system, dam, realized)
        rtms[key] = (rtm, _cell_id(day.name, method, extra["n_scenarios"], extra["rho"]))
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
            **(rtm.record if shared_from is None else optim.reused(rtm.record)),
            "shared_from": shared_from,
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
        write_json(tmp, doc, **kwargs)
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _append_manifest(out_dir, entry, sync=False):
    """Append ``entry`` as a line of its own: a last line that a crash tore
    is ended first. With ``sync``, the line is on disk when this returns."""
    with open(os.path.join(out_dir, "manifest.jsonl"), "ab+") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - 1))
        torn = fh.read(1) not in (b"", b"\n")
        fh.write(b"\n" * torn + json.dumps(entry, sort_keys=True).encode() + b"\n")
        if sync:
            fh.flush()
            os.fsync(fh.fileno())


class LedgerMismatchError(RuntimeError):
    """The output directory holds a run of another config or system."""


def _first_digest(out_dir):
    """The config digest of the first run recorded in ``out_dir``, if any.
    A line that does not parse was torn by a crash and is skipped: a run
    writes cells only after its run-start line is synced whole. A run-start
    line without a digest raises SystemFileError naming the manifest."""
    path = os.path.join(out_dir, "manifest.jsonl")
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if isinstance(entry, dict) and entry.get("event") == "run-start":
                return str(require(entry, "config_digest", path))
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
        out_dir, {"event": "run-start", "config_digest": digest, "time": time.time()}, sync=True
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
                cost = read_json(path)["cost_usd"]
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
    ids): one per stochastic-pass group (scenario count ``n``, rho ``rho``),
    suc-free first, and one for the percentile methods, in ascending
    coverage (``n`` and ``rho`` None)."""
    # suc-free first: its market may settle suc-fixed's
    suc = [m for m in ("suc-free", "suc-fixed") if m in cfg.methods]
    for n, rho in itertools.product(cfg.n_scenarios, cfg.rho) if suc else ():
        yield ("suc", day, n, rho, suc, realized, [_cell_id(day.name, m, n, rho) for m in suc])
    pct = sorted((m for m in cfg.methods if m in PERCENTILE_METHODS), key=PERCENTILE_METHODS.get)
    if pct:
        yield ("pct", day, None, None, pct, realized, [_cell_id(day.name, m) for m in pct])


def _dispatch(system, cfg, job):
    """Finish the cells of one job (see `_day_jobs`), clearing its markets
    in the order given, as the module docstring says; a market that raises
    is returned as its exception. Returns the cells and the number of
    stochastic-pass solves."""
    kind, day, n, rho, wanted, realized, _ = job
    forecast, bids = _day_profile(system, cfg, day)
    if kind == "suc":
        scen = gen_ar1_scenarios(
            forecast, cfg.sigma_frac, rho, n, cfg.master_seed, labels=("in-sample", day.name)
        )
        suc = stochastic_uc.solve_suc(system, scen, gap_tol=cfg.gap_tol, time_limit=cfg.time_limit)
        suc_req = suc_requirements(suc, scen)
        extra = {"n_scenarios": n, "rho": rho, "suc": {
            "objective_usd": suc.objective, "mip_gap": suc.mip_gap, **suc.record,
        }}

        def market(method):
            return suc_req, suc.committed_hours() if method == "suc-fixed" else None
    else:
        extra = {"n_scenarios": None, "rho": None, "suc": None}

        def market(method):
            coverage = PERCENTILE_METHODS[method]
            return percentile_requirements(forecast, cfg.sigma_frac, coverage), None
    cells, rtms = {}, {}
    # the markets cleared without a floor: (requirements, outcome, method
    # whose clearing MILP proved its bound)
    cleared = []
    for method in wanted:
        cell_id = _cell_id(day.name, method, n, rho)
        try:
            req, fix = market(method)
            below = next((c for c in reversed(cleared)
                          if np.all(c[0].up <= req.up) and np.all(c[0].dn <= req.dn)), None)
            dam = clear_dam(
                system, bids, req, fix_commitments=fix, gap_tol=cfg.gap_tol,
                time_limit=cfg.time_limit, relaxed=None if below is None else below[1],
            )
            bound_from = below[2] if dam.certified else None
            cells[cell_id] = _finish_cell(
                system, cfg, day, method, dam, realized, req, extra, rtms, bound_from,
            )
            if extra["suc"] is not None:  # the group's later cells reuse the pass
                extra = {**extra, "suc": optim.reused(extra["suc"])}
            if fix is None:
                cleared.append((req, dam, bound_from or method))
        except Exception as exc:  # noqa: BLE001 - a market fails its own cell
            cells[cell_id] = exc
    return cells, int(kind == "suc")


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

# cells.csv's columns, one row per cell; totals.csv sums the money and shed
# columns per (method, n_scenarios, rho)
CELLS = (
    ("day", ""), ("method", ""), ("n_scenarios", ""), ("rho", "g"),
    ("cost_usd", ".2f"), ("shed_mwh", ".6f"), ("frp_payment_usd", ".2f"),
    ("make_whole_usd", ".2f"), ("clairvoyant_usd", ".2f"),
)
TOTALS = CELLS[1:-1]


def aggregate(out_dir):
    """Load every finished cell from a ledger directory, sorted by cell id."""
    return {path.stem: read_json(path) for path in sorted(Path(out_dir, "cells").glob("*.json"))}


def write_reports(out_dir):
    """Emit cells.csv (tidy per-cell data) and totals.csv (per-method sums,
    percentile methods replicated across the scenario grid). Returns paths."""
    rows = [
        (
            rec["day"], rec["method"], rec["n_scenarios"], rec["rho"],
            rec["rtm"]["total_cost_usd"], rec["rtm"]["shed_mwh"],
            rec["settlement"]["total_frp_payment_usd"],
            rec["settlement"]["total_make_whole_usd"], rec["clairvoyant_usd"],
        )
        for _, rec in sorted(aggregate(out_dir).items())
    ]
    cells_csv = os.path.join(out_dir, "cells.csv")
    write_csv(cells_csv, CELLS, rows)

    # a row's (n_scenarios, rho) is row[2:4], its summed columns row[4:8]
    grid_pairs = sorted({row[2:4] for row in rows if row[2] is not None})
    totals = {}
    for row in rows:
        for pair in [row[2:4]] if row[2] is not None else grid_pairs or [(None, None)]:
            agg = totals.setdefault((row[1], *pair), [0.0] * 4)
            agg[:] = [a + v for a, v in zip(agg, row[4:8])]
    totals_csv = os.path.join(out_dir, "totals.csv")
    keys = sorted(totals, key=lambda key: tuple(map(str, key)))
    write_csv(totals_csv, TOTALS, [(*key, *totals[key]) for key in keys])
    return cells_csv, totals_csv

"""Spans around the calls into each frpsim module, and the per-layer
metrics derived from them.

Tracing works from outside the program: `instrument` swaps the module
attributes through which frpsim calls its own public functions (and HiGHS,
through ``optim.milp``/``optim.linprog``) for timing wrappers, and puts the
originals back on exit. Spans are kept in memory; `layer_metrics` turns one
traced grid into the per-layer numbers.

A span's self time is its duration minus the time its child spans cover, so
the self times of every span under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager

import numpy as np

# layers whose calls build and solve a model; optim spans are charged to the
# nearest of these above them
MODEL_LAYERS = ("stochastic_uc", "dayahead", "realtime")

# model sizes read from the matrices each layer hands to HiGHS
SIZES = {
    "stochastic_uc": ("rows", "cols", "nnz", "binaries"),
    "dayahead": ("rows", "cols", "nnz", "binaries"),
    "realtime": ("rows", "cols", "nnz"),  # an LP
}
# counts that two traced runs of one seed must repeat exactly
COUNT_METRICS = tuple(
    f"{layer}.{what}" for layer in MODEL_LAYERS for what in ("calls",) + SIZES[layer]
) + (
    "optim.milp_calls", "optim.lp_calls", "optim.mip_nodes", "optim.lp_iters",
    "harness.cells",
)


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index), cell, info
        self._stack = []
        self.captured = []  # (kind, cell ids, args) for the physical audits
        self._job_ids = ()  # cells of the job being run, stamped on every span
        self._job_calls = {}
        self._day_of = {}  # id(realized profile) -> day name

    @contextmanager
    def span(self, name, **info):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "cell": ",".join(self._job_ids) or None,
            "info": info,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if after is not None:
                after(rec, args, kwargs, out)
            return out

        return traced

    def _nth_cell(self, name):
        """The cell a per-cell call belongs to: the harness finishes a job's
        cells in the order of its id list, one call of each kind per cell."""
        k = self._job_calls.get(name, 0)
        self._job_calls[name] = k + 1
        return self._job_ids[k:k + 1]


def _scoped(tracer, name, fn, scope):
    """Wrap a harness call that works for a set of cells: a job, or the
    clairvoyant reference of one day. ``scope(args)`` gives the cell ids."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer._job_ids, tracer._job_calls = scope(args), {}
        try:
            with tracer.span(name):
                return fn(*args, **kwargs)
        finally:
            tracer._job_ids = ()

    return traced


@contextmanager
def instrument(tracer, audit=False):
    """Route frpsim's module-boundary calls through ``tracer``.

    With ``audit`` the results the physical audits need are kept in
    ``tracer.captured``.
    """
    from frpsim import harness, optim, stochastic_uc

    def highs(rec, args, kwargs, res):
        info = rec["info"]
        info["status"] = int(res.status)
        info["cols"] = len(args[0] if args else kwargs["c"])
        if "integrality" in kwargs:  # milp
            mats = [con.A for con in kwargs["constraints"]]
            info["binaries"] = int(np.count_nonzero(kwargs["integrality"]))
            info["nodes"] = int(getattr(res, "mip_node_count", 0) or 0)
        else:  # linprog
            mats = [kwargs[k] for k in ("A_ub", "A_eq") if k in kwargs]
            info["iters"] = int(getattr(res, "nit", 0) or 0)
        info["rows"] = sum(int(m.shape[0]) for m in mats)
        info["nnz"] = sum(int(m.nnz) for m in mats)

    def realization(rec, args, kwargs, out):
        tracer._day_of[id(out)] = kwargs.get("labels", ("",))[-1]

    def capture(kind):
        def keep(rec, args, kwargs, out):
            if kind == "suc":
                tracer.captured.append(("suc", tracer._job_ids, (args[1], out)))
                return
            cells = tracer._nth_cell(kind)
            rec["cell"] = ",".join(cells)
            if kind == "dam":
                fix = kwargs.get("fix_commitments")
                tracer.captured.append(("dam", cells, (out, args[1], args[2], fix)))
            else:
                tracer.captured.append(("rtm", cells, (out, args[2])))

        return keep if audit else None

    patches = [
        (
            harness, "_dispatch",
            _scoped(tracer, "harness.job", harness._dispatch, lambda a: tuple(a[2][-1])),
        ),
        (
            harness, "clairvoyant_cost",
            _scoped(
                tracer, "harness.clairvoyant", harness.clairvoyant_cost,
                lambda a: ("day:" + tracer._day_of.get(id(a[1]), "?"),),
            ),
        ),
        (harness, "gen_ar1_scenarios", tracer.wrap("scenarios", harness.gen_ar1_scenarios)),
        (
            harness, "draw_realization",
            tracer.wrap("scenarios", harness.draw_realization, realization),
        ),
        (harness, "suc_requirements", tracer.wrap("requirements", harness.suc_requirements)),
        (
            harness, "percentile_requirements",
            tracer.wrap("requirements", harness.percentile_requirements),
        ),
        (
            stochastic_uc, "solve_suc",
            tracer.wrap("stochastic_uc", stochastic_uc.solve_suc, capture("suc")),
        ),
        (harness, "clear_dam", tracer.wrap("dayahead", harness.clear_dam, capture("dam"))),
        (
            harness, "simulate_rtm",
            tracer.wrap("realtime", harness.simulate_rtm, capture("rtm")),
        ),
        (harness, "settle", tracer.wrap("settlement", harness.settle)),
        (harness, "load_system", tracer.wrap("system", harness.load_system)),
        (optim, "solve", tracer.wrap("optim.solve", optim.solve)),
        (optim, "fix_and_resolve", tracer.wrap("optim.fix_and_resolve", optim.fix_and_resolve)),
        (optim, "milp", tracer.wrap("optim.milp", optim.milp, highs)),
        (optim, "linprog", tracer.wrap("optim.linprog", optim.linprog, highs)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def self_times(spans):
    """Duration minus the time covered by child spans, per span."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def _owners(spans):
    """Per span: the nearest model layer at or above it, and whether it ran
    inside the clairvoyant reference. Parents precede their children."""
    owner, clair = [], []
    for s in spans:
        p = s["parent"]
        up_owner = owner[p] if p is not None else None
        up_clair = clair[p] if p is not None else False
        owner.append(s["name"] if s["name"] in MODEL_LAYERS else up_owner)
        clair.append(up_clair or s["name"] == "harness.clairvoyant")
    return owner, clair


def layer_metrics(spans, cells):
    """Per-layer metrics of one traced grid whose root span is
    ``harness.run``; ``cells`` is the number of cells the grid produced."""
    dur = [s["end"] - s["start"] for s in spans]
    own = self_times(spans)
    owner, clair = _owners(spans)

    def ids(name, layer=None, clairvoyant=None):
        return [
            i for i, s in enumerate(spans)
            if s["name"] == name
            and (layer is None or owner[i] == layer)
            and (clairvoyant is None or clair[i] == clairvoyant)
        ]

    def total(idx, values=dur):
        return float(sum(values[i] for i in idx))

    def info(idx, key):
        return int(sum(spans[i]["info"].get(key, 0) for i in idx))

    (root,) = ids("harness.run")
    run_s = dur[root]
    milp, lp = ids("optim.milp"), ids("optim.linprog")
    m = {
        "harness.run_s": run_s,
        "harness.self_s": total(
            ids("harness.run") + ids("harness.job") + ids("harness.clairvoyant"), own
        ),
        "harness.report_s": total(ids("harness.report")),
        "harness.clairvoyant_s": total(ids("harness.clairvoyant")),
        "harness.cells": cells,
        "optim.highs_milp_s": total(milp),
        "optim.highs_lp_s": total(lp),
        "optim.milp_calls": len(milp),
        "optim.lp_calls": len(lp),
        "optim.mip_nodes": info(milp, "nodes"),
        "optim.lp_iters": info(lp, "iters"),
        "optim.nonoptimal": sum(spans[i]["info"]["status"] != 0 for i in milp + lp),
        "optim.assembly_s": total(ids("optim.solve") + ids("optim.fix_and_resolve"), own),
        "optim.highs_share": (total(milp) + total(lp)) / run_s,
    }
    for layer in ("scenarios", "requirements", "settlement"):
        idx = ids(layer)
        m[f"{layer}.s"], m[f"{layer}.calls"] = total(idx), len(idx)

    # the stochastic pass proper; its reuse as the clairvoyant reference is
    # counted in harness.clairvoyant_s
    for layer in MODEL_LAYERS:
        scope = False if layer == "stochastic_uc" else None
        calls = ids(layer, clairvoyant=scope)
        # the model's size is read from its first HiGHS call: the MILP, or
        # the LP of a pure-LP model (a DAM's pricing LP repeats its MILP)
        sized = ids("optim.milp", layer, scope) + [
            i for i in ids("optim.linprog", layer, scope)
            if spans[spans[i]["parent"]]["name"] == "optim.solve"
        ]
        m[f"{layer}.s"] = total(calls)
        m[f"{layer}.calls"] = len(calls)
        m[f"{layer}.build_s"] = total(calls, own)
        for key in SIZES[layer]:
            m[f"{layer}.{key}"] = info(sized, key)

    suc_milp = ids("optim.milp", "stochastic_uc", False)
    m["stochastic_uc.solve_s"] = total(suc_milp)
    dam_milp = [dur[i] for i in ids("optim.milp", "dayahead")]
    m["dayahead.milp_s"] = float(sum(dam_milp))
    m["dayahead.milp_p50_s"] = statistics.median(dam_milp) if dam_milp else 0.0
    m["dayahead.milp_max_s"] = max(dam_milp, default=0.0)
    m["dayahead.price_lp_s"] = total(ids("optim.linprog", "dayahead"))
    m["realtime.lp_s"] = total(ids("optim.linprog", "realtime"))
    return m


def span_cost(n=2000):
    """Seconds one traced call adds, measured on an empty function."""
    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    traced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        (lambda: None)()
    return max(traced - (time.perf_counter() - t0), 0.0) / n

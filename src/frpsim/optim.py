"""Thin model-building layer over HiGHS, as bundled with scipy.

Passes build a `Model` from blocks: `add_vars` appends a block of columns
and returns their indices in the block's shape, `add_rows` appends a block
of rows given as padded (rows, terms) arrays of column indices and
coefficients, with zero coefficients dropped; a block of shape ``()`` is one
column or row. The constraint matrix is assembled into CSR form once, on the
first solve; rows added later are appended to it.

The matrix is a `Csr`: plain numpy arrays, built, sliced and turned into the
CSC HiGHS takes with numpy alone (`_csr`, `_take_rows`, `_csc`). Each step
gives the arrays scipy.sparse would, bit for bit (a test compares them), so
HiGHS receives what it did when scipy.sparse built them, without the 20 MB
that scipy.sparse and the scipy._lib chain under it cost every process.

`solve` runs branch and bound when integer variables are present and a plain
LP otherwise; `fix_and_resolve` freezes every integer variable at an
incumbent and re-solves the continuous relaxation of the same matrix to
recover duals for pricing; `complete` pins some columns and solves the rest
as an LP, which turns a commitment into a complete MIP start. Where the
pinned columns leave blocks that share no row (a stochastic model's
scenarios, its commitment pinned), `complete` solves one LP per block, so
the largest LP HiGHS gets is one block's. A time limit reaches `solve` and
`complete` as a deadline, a `time.perf_counter` reading: HiGHS gets what is
left of it (`_budget`), and once it has passed the result is status "limit"
without a HiGHS run.

Every solve goes through scipy's bundled HiGHS binding
(``scipy.optimize._highspy._core._Highs``), loaded from scipy's install
without importing scipy: ``scipy.optimize``'s package init (linprog,
minimize, scipy.linalg, scipy.fft, ...) costs every process about 19 MB and
0.12 s, and the binding needs only numpy. If the binding is already in
``sys.modules`` (someone imported `scipy.optimize` first) it is reused, and
once loaded here it is the module a later ``import scipy.optimize`` finds, so
there is one `_Highs` per process either way. MILPs go through `milp`, which
takes `scipy.optimize.milp`'s keywords plus a MIP start (``setSolution``);
LPs go through `linprog`, which takes `scipy.optimize.linprog`'s keywords and
hands HiGHS exactly what linprog would, so the duals the pricing and
real-time passes read are linprog's. Both take `Csr` matrices and
full-length arrays only, and are kept as the boundary where the benchmark's
tracing and the model fingerprints read each solve's input. One HiGHS run,
`_run_highs`, reads its result straight into a `SolveResult`; `milp` and
`linprog` return it in a `Run`, with the few scipy-coded fields the tracing
reads. `_pass_model` alone hands HiGHS a model, to solve or for
`Model.write_lp`. Options are set one by one, so one HiGHS rejects is named
in an OptimizeWarning; ``highs_s`` on every result is the seconds of HiGHS's
``run`` alone. The binding is private to scipy: `pyproject.toml` requires the
tested scipy, and a test checks that every method used is there.

A MIP start changes where branch and bound starts, not what it proves. HiGHS
checks the start against the rows, bounds and integrality and keeps it only
as a first incumbent; it still stops only when the gap between the best
incumbent and the dual bound is within ``gap_tol``, so the answer is an
optimum of the model within ``gap_tol`` with or without the start. A start
that is infeasible is dropped.

Every MILP runs with HiGHS's presolve on. `complete` runs its LPs with
presolve off: with the commitment pinned an LP is small, and presolve was
most of its time (the corpus grid's 25 relaxations and completions: 0.53 s
with it, 0.20 s without).

Every MILP is handed `MILP_OPTIONS`, which turn off four of HiGHS's primal
heuristics and its symmetry detection. The first two, the root
reduced-cost sub-MIP and feasibility jump, took most of the SUC and DAM
solve time (on one corpus DAM, 3,095 of 4,631 LP iterations) while every
solve still closed at the root. The other two, the RINS and RENS sub-MIPs,
together with symmetry detection, cost the corpus grid's 25 DAM MILPs 4.9
against 4.2 s of HiGHS time and its 5 warm SUCs 1.32 against 1.22 s (every
model re-solved three times, equal optima). Skipping them is sound:

- the optimality proof is unchanged: HiGHS still stops only when the gap
  between incumbent and dual bound is within ``gap_tol``;
- only primal heuristics and symmetry pruning are skipped: the
  heuristics only look for incumbents, and symmetry pruning only skips
  nodes whose subtree mirrors another's; presolve, cuts, the other
  heuristics and branching are as before;
- the models are feasible by construction (every SUC, DAM and clairvoyant
  model carries curtailment slack, every DAM also FRP shortfall slack), so
  an incumbent is never hard to find, which is all the heuristics do.

No solve hands the C heap's free pages back to the OS (glibc's
``malloc_trim``). With a stochastic completion one LP per scenario, a trim
first in `stochastic_uc.solve_suc`, before each of its MILPs or as it
returns moves no benchmark workload's peak RSS by more than 1.2 MB (each
left out alone and all together, at two work-directory path lengths,
three or four runs each on a 2-vCPU VM; `suc-heavy` peaks at 57-59 MB
either way). The path's length still moves that peak, by under 2 MB.

Dual convention: ``duals[r]`` is d(objective)/d(rhs) for row ``r`` (an array
indexed like the rows), so equality rows give marginal prices directly and
binding ``>=`` rows come out nonnegative in a minimization.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np


def _load_highs():
    """scipy's HiGHS binding module, without importing scipy.

    The extension is found from scipy's install location (``find_spec`` of a
    top-level package runs none of it), loaded from
    ``<scipy>/optimize/_highspy/_core`` under its dotted name and registered
    in ``sys.modules``, so a later ``import scipy.optimize`` reuses it instead
    of loading it twice."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed; frpsim needs its HiGHS binding")
    base = os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy", "_core")
    path = next(
        (base + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.exists(base + s)),
        None,
    )
    if path is None:
        raise ImportError(f"no HiGHS binding at {base}*")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_highs = _load_highs()


class Bounds(NamedTuple):
    """Column bounds, as `scipy.optimize.Bounds` carries them."""

    lb: object
    ub: object


class LinearConstraint(NamedTuple):
    """``lb <= A @ x <= ub``, as `scipy.optimize.LinearConstraint` carries it."""

    A: object
    lb: object
    ub: object


class Csr(NamedTuple):
    """A sparse matrix as numpy CSR arrays: row ``r`` holds the entries
    ``indptr[r]:indptr[r + 1]`` of ``indices`` (columns) and ``data``."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @property
    def nnz(self):
        return int(self.indptr[-1])


def _empty(n_cols):
    return Csr(np.zeros(0), np.zeros(0, np.int32), np.zeros(1, np.int32), (0, n_cols))


def _indptr(counts):
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)


def _csr(data, indices, counts, n_cols):
    """Canonical CSR of rows given in order, ``counts[r]`` entries for row
    ``r``: each row's entries sorted by column (stably) and duplicates summed
    left to right in the order given, as scipy's ``sum_duplicates`` sums them
    wherever its per-row sort keeps that order. A sum that cancels stays as
    an explicit zero."""
    n_rows = len(counts)
    key = np.repeat(np.arange(n_rows, dtype=np.int64), counts) * n_cols + indices
    order = np.argsort(key, kind="stable")
    key, data = key[order], data[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    summed = data[first]
    # ufunc.at adds unbuffered, in index order: ((a + b) + c) + ...
    np.add.at(summed, np.cumsum(first)[~first] - 1, data[~first])
    rows, indices = np.divmod(key[first], max(n_cols, 1))
    return Csr(
        summed, indices.astype(np.int32), _indptr(np.bincount(rows, minlength=n_rows)),
        (n_rows, n_cols),
    )


def _vstack(top, bottom):
    """``top`` over ``bottom``, as wide as the wider of the two."""
    return Csr(
        np.concatenate([top.data, bottom.data]),
        np.concatenate([top.indices, bottom.indices]),
        np.concatenate([top.indptr, top.indptr[-1] + bottom.indptr[1:]]),
        (top.shape[0] + bottom.shape[0], max(top.shape[1], bottom.shape[1])),
    )


def _take_rows(mat, rows):
    """The rows ``rows`` of ``mat``, in that order."""
    starts = mat.indptr[rows]
    counts = mat.indptr[rows + 1] - starts
    indptr = _indptr(counts)
    take = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
    return Csr(mat.data[take], mat.indices[take], indptr, (len(rows), mat.shape[1]))


def _csc(mat):
    """``(indptr, indices, data)`` of ``mat`` in CSC form, each column's
    entries in row order: what scipy's ``csr_tocsc`` gives."""
    order = np.argsort(mat.indices, kind="stable")
    rows = np.repeat(np.arange(mat.shape[0], dtype=np.int32), np.diff(mat.indptr))
    counts = np.bincount(mat.indices, minlength=mat.shape[1])
    return _indptr(counts), rows[order], mat.data[order].astype(np.float64)


# HiGHS options for every MILP, on top of mip_rel_gap and time_limit; see the
# module docstring for why skipping these heuristics is sound
MILP_OPTIONS = {
    "mip_heuristic_run_root_reduced_cost": False,
    "mip_heuristic_run_feasibility_jump": False,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_detect_symmetry": False,
}

_SENSES = ("<=", ">=", "==")
_LE, _GE, _EQ = range(3)


def _lp_names(blocks, n):
    """One name per column or row: the block name and the position in the
    block, ``[``/``]`` written ``(``/``)`` and any other character outside
    ``A-Za-z0-9_.,@()`` (which LP readers reserve or refuse, such as a space
    or a colon in a unit id) written ``_``."""
    names = [None] * n
    for name, start, shape in blocks:
        name = re.sub(r"[^A-Za-z0-9_.,@()]", "_", name.replace("[", "(").replace("]", ")"))
        for k, at in enumerate(np.ndindex(*shape)):
            names[start + k] = f"{name}({','.join(map(str, at))})" if shape else name
    return names


class InfeasibleModelError(RuntimeError):
    """A model that should be feasible by construction is not; almost always a
    modeling bug (e.g. recourse without enough slack) rather than bad data."""


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | limit | error
    objective: float | None = None
    x: np.ndarray | None = None
    duals: np.ndarray | None = None  # per row, d(obj)/d(rhs); LP solves only
    mip_gap: float | None = None
    # highs_s, mip_node_count and simplex_iterations are summed over the
    # rounds of `network.FlowScreen.solve` in the result it returns
    mip_node_count: int | None = None  # branch-and-bound nodes; MIP solves only
    mip_dual_bound: float | None = None  # best proven bound; MIP solves only
    highs_s: float | None = None  # seconds inside HiGHS
    simplex_iterations: int | None = None  # simplex, else IPM; LP solves only
    # size of the model handed to HiGHS; binaries counts integer columns
    rows: int | None = None
    cols: int | None = None
    nnz: int | None = None
    binaries: int | None = None

    @property
    def ok(self):
        return self.status == "optimal"

    @property
    def size(self):
        return {
            "rows": self.rows, "cols": self.cols, "nnz": self.nnz, "binaries": self.binaries
        }

    @property
    def highs(self):
        """The HiGHS half of a solve record: ``highs_s``, plus the
        branch-and-bound nodes and dual bound of a MILP or the simplex
        iterations of an LP."""
        if self.binaries:
            return {
                "highs_s": self.highs_s, "mip_node_count": self.mip_node_count,
                "mip_dual_bound": self.mip_dual_bound,
            }
        return {"highs_s": self.highs_s, "simplex_iterations": self.simplex_iterations}


# the work fields of a solve record, read as zero where the solve is reused;
# wall_time_s and start_s are a stochastic pass's
WORK = (
    "wall_time_s", "start_s", "build_s", "highs_s", "screen_rounds", "simplex_iterations",
    "mip_node_count",
)


def reused(record):
    """A solve's record as an answer that reuses the solve keeps it: the
    model's size and bound stay, and its work reads zero, so that no solve
    is counted twice."""
    return {k: reused(v) if isinstance(v, dict) else 0 * v if k in WORK else v
            for k, v in record.items()}


def gap(objective, bound):
    """The relative gap of ``objective`` over a proven lower ``bound``,
    ``(objective - bound) / max(1, |objective|)``: what a certificate that
    skips a MILP must bring within ``gap_tol``."""
    return (objective - bound) / max(1.0, abs(objective))


def certified(res, bound, gap_tol, binaries):
    """The optimal LP result ``res``, a point of a MILP with ``binaries``
    integer columns, as that MILP's answer if ``bound``, a proven lower
    bound on its optimum (+inf where nothing else is feasible), brings it
    within ``gap_tol`` (`gap`); else None. The answer's gap is to
    ``min(bound, objective)``, which is its dual bound, and it has no
    nodes; ``x``, ``duals`` and the work fields are ``res``'s. Every
    certificate that skips a MILP answers through this."""
    if not (res.ok and gap(res.objective, bound) <= gap_tol):  # a NaN bound certifies nothing
        return None
    best = min(bound, res.objective)
    return replace(
        res, mip_gap=gap(res.objective, best), mip_dual_bound=best, mip_node_count=0,
        binaries=binaries,
    )


def _sense_codes(sense, shape):
    if isinstance(sense, str):
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        return np.full(shape, _SENSES.index(sense), dtype=np.int8)
    sense = np.broadcast_to(np.asarray(sense), shape)
    codes = np.full(shape, -1, dtype=np.int8)
    for code, s in enumerate(_SENSES):
        codes[sense == s] = code
    if (codes < 0).any():
        raise ValueError(f"unknown sense in {sorted(set(sense[codes < 0].tolist()))}")
    return codes


def stack_rows(*families):
    """Column and coefficient arrays for `Model.add_rows` from row families.

    A family is a list of ``(cols, coefs)`` terms, each broadcasting to one
    row shape ``S`` shared by every family. Returns ``(cols, coefs)`` of shape
    ``(*S, len(families), terms)``, so the families interleave: the rows at
    one position of ``S`` come together, in family order. Families with
    fewer terms pad with zero coefficients.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for fam in families for term in fam for x in term))
    width = max(len(fam) for fam in families)
    cols = np.zeros(shape + (len(families), width), dtype=np.int64)
    coefs = np.zeros(shape + (len(families), width))
    for f, fam in enumerate(families):
        for t, (col, coef) in enumerate(fam):
            cols[..., f, t] = col
            coefs[..., f, t] = coef
    return cols, coefs


class Model:
    def __init__(self):
        self._n = 0  # columns in use; the arrays below grow by doubling
        self._obj = np.zeros(0)
        self._lb = np.zeros(0)
        self._ub = np.zeros(0)
        self._int = np.zeros(0, dtype=bool)
        self._var_blocks = []  # (name, first column, shape)
        self._row_blocks = []  # (name, first row, shape)
        self._names = (set(), set())  # block names: columns, rows
        self._n_rows = 0
        # rows not yet in the matrix, per block: (sense, rhs, cols, coefs, terms per row)
        self._pending = []
        self._mat = _empty(0)  # the assembled rows
        self._sense = np.zeros(0, dtype=np.int8)
        self._rhs = np.zeros(0)
        self._lo = self._hi = np.zeros(0)

    # the column arrays, as views that callers may write through
    @property
    def obj(self):
        return self._obj[: self._n]

    @property
    def lb(self):
        return self._lb[: self._n]

    @property
    def ub(self):
        return self._ub[: self._n]

    @property
    def integer(self):
        return self._int[: self._n]

    @property
    def n_vars(self):
        return self._n

    @property
    def n_rows(self):
        return self._n_rows

    @property
    def n_integer(self):
        return int(self.integer.sum())

    def _claim(self, kind, name):
        names = self._names[kind]
        if name in names:
            what = ("variable", "constraint")[kind]
            raise ValueError(f"duplicate {what} name {name!r}")
        names.add(name)

    def add_vars(self, name, shape, lb=0.0, ub=np.inf, obj=0.0, integer=False):
        """Add a block of variables; ``lb``, ``ub``, ``obj`` and ``integer``
        broadcast to ``shape``. Returns the column indices, shaped ``shape``
        (C order)."""
        shape = tuple(shape) if isinstance(shape, tuple | list) else (int(shape),)
        self._claim(0, name)
        n = math.prod(shape)
        start, stop = self._n, self._n + n
        if stop > len(self._obj):
            cap = max(stop, 2 * len(self._obj), 64)
            for attr in ("_obj", "_lb", "_ub", "_int"):
                old = getattr(self, attr)
                new = np.zeros(cap, dtype=old.dtype)
                new[:start] = old[:start]
                setattr(self, attr, new)
        for attr, val in (("_obj", obj), ("_lb", lb), ("_ub", ub), ("_int", integer)):
            arr = getattr(self, attr)
            arr[start:stop].reshape(shape)[...] = np.asarray(val, dtype=arr.dtype)
        self._n = stop
        self._var_blocks.append((name, start, shape))
        return np.arange(start, stop).reshape(shape)

    def add_rows(self, name, sense, rhs, cols, coefs):
        """Add a block of rows ``sum(coefs[..., t] * x[cols[..., t]]) <sense> rhs``.

        ``cols`` and ``coefs`` broadcast to one shape ``(*rows, terms)``; a
        row shorter than ``terms`` pads with zero coefficients, which are
        dropped. ``sense`` ("<=", ">=" or "==") and ``rhs`` broadcast to the
        row shape. ``name`` names the block, or is a list of (name, shape)
        pairs that split a line of rows into consecutive blocks. Returns
        the row indices, shaped like the rows."""
        cols, coefs = np.broadcast_arrays(
            np.asarray(cols, dtype=np.int64), np.asarray(coefs, dtype=float)
        )
        shape = cols.shape[:-1]
        codes = _sense_codes(sense, shape).ravel()
        n, width = codes.size, cols.shape[-1]
        cols, coefs = cols.reshape(n, width), coefs.reshape(n, width)
        keep = coefs != 0.0
        idx = cols[keep]
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise IndexError(f"{name}: column index out of range")
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), shape).ravel()
        start = self._n_rows
        for block, size in [(name, shape)] if isinstance(name, str) else name:
            self._claim(1, block)
            self._row_blocks.append((block, self._n_rows, size))
            self._n_rows += math.prod(size)
        self._pending.append((codes, rhs, idx, coefs[keep], keep.sum(axis=1)))
        return np.arange(start, start + n).reshape(shape)

    # -- matrix assembly ---------------------------------------------------

    def _constraint_matrix(self):
        """The constraint matrix (CSR, canonical: sorted columns, duplicate
        terms summed) and its row bounds lo/hi. It is assembled once; rows
        added later are appended to it."""
        if self._pending:
            codes, rhs, idx, data, counts = (
                np.concatenate(part) for part in zip(*self._pending)
            )
            self._pending = []
            self._mat = _vstack(self._mat, _csr(data, idx, counts, self._n))
            self._sense = np.concatenate([self._sense, codes])
            self._rhs = np.concatenate([self._rhs, rhs])
            self._lo = np.where(self._sense == _LE, -np.inf, self._rhs)
            self._hi = np.where(self._sense == _GE, np.inf, self._rhs)
        elif self._mat.shape[1] != self._n:  # columns added since
            self._mat = self._mat._replace(shape=(self._n_rows, self._n))
        return self._mat, self._lo, self._hi

    def _lp_parts(self):
        """linprog's form of the matrix: ``<=`` and ``>=`` rows (the latter
        negated) as A_ub, ``==`` rows as A_eq, with the row numbers of each
        and the sign that maps an A_ub dual back to its row."""
        mat, _, _ = self._constraint_matrix()
        eq = self._sense == _EQ
        ub_rows, eq_rows = np.flatnonzero(~eq), np.flatnonzero(eq)
        flip = np.where(self._sense[ub_rows] == _GE, -1.0, 1.0)
        a_ub = _take_rows(mat, ub_rows)
        a_ub = a_ub._replace(data=a_ub.data * np.repeat(flip, np.diff(a_ub.indptr)))
        return (
            a_ub, flip * self._rhs[ub_rows], ub_rows, flip,
            _take_rows(mat, eq_rows), self._rhs[eq_rows], eq_rows,
        )

    def write_lp(self, path):
        """Dump the model to ``path`` as a file written by HiGHS (debugging
        aid), which ``readModel`` loads back: an MPS file if ``path`` ends in
        ``.mps``, else an LP file, whatever its extension. HiGHS's LP writer
        takes time in proportion to rows times columns, its MPS writer does
        not. Names are `_lp_names`. Raises OSError naming ``path`` if it
        cannot be written."""
        mat, lo, hi = self._constraint_matrix()
        highs = _pass_model(self.obj, mat, lo, hi, self.lb, self.ub, self.integer.astype(np.int32))
        if highs is not None:
            for j, name in enumerate(_lp_names(self._var_blocks, self._n)):
                highs.passColName(j, name)
            for r, name in enumerate(_lp_names(self._row_blocks, self._n_rows)):
                highs.passRowName(r, name)
        path = os.fspath(path)
        # HiGHS takes the format from the extension
        tmp = path + (".mps" if path.endswith(".mps") else ".lp")
        with open(tmp, "w"):  # fails on a missing directory, where HiGHS would crash
            pass
        if highs is None or highs.writeModel(tmp) == _highs.HighsStatus.kError:
            os.remove(tmp)
            raise OSError(f"HiGHS could not write the model to {path}")
        os.replace(tmp, path)


_H = _highs.HighsModelStatus
# HiGHS model status -> SolveResult status; any other is "error"
_STATUS = {
    _H.kOptimal: "optimal", _H.kTimeLimit: "limit", _H.kIterationLimit: "limit",
    _H.kInfeasible: "infeasible", _H.kModelError: "infeasible", _H.kUnbounded: "unbounded",
}
# a MIP stopped at one of these returns its incumbent, if it has one
_STOPPED = (_H.kTimeLimit, _H.kIterationLimit, _H.kSolutionLimit)
# what scipy.optimize.linprog(method="highs") sets on HiGHS besides presolve,
# the time limit and log_to_console (off in every run): no debug checks, no
# output, the dual simplex
_LP_OPTIONS = {"highs_debug_level": 0, "output_flag": False, "simplex_strategy": 1}
# linprog's tolerance when it checks an optimal solution: sqrt(1e-9) * 10
_LP_CHECK_TOL = np.sqrt(1e-9) * 10


def _pass_model(c, a, row_lo, row_hi, lb, ub, integrality):
    """The only hand-off to HiGHS: a fresh one, console logging off, holding
    ``min c @ x`` subject to ``row_lo <= a @ x <= row_hi`` (``a`` a `Csr`,
    handed over as its CSC), ``lb <= x <= ub`` and ``integrality`` (int32 per
    column, all zero for an LP). None if HiGHS refuses the model. Raises
    ValueError naming the array if one holds a NaN, or if the costs or the
    matrix hold an infinity (HiGHS may run without end on such data); a
    bound may be infinite."""
    for name, arr, bound in (("c", c, False), ("a", a.data, False), ("row_lo", row_lo, True),
                             ("row_hi", row_hi, True), ("lb", lb, True), ("ub", ub, True)):
        if (np.isnan(arr) if bound else ~np.isfinite(arr)).any():
            raise ValueError(f"model data {name} holds {'NaN' if bound else 'non-finite'} values")
    highs = _highs._Highs()
    highs.setOptionValue("log_to_console", False)
    indptr, indices, data = _csc(a)
    loaded = highs.passModel(
        c.size, a.shape[0], a.nnz, int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, c, lb, ub, row_lo, row_hi,
        indptr, indices, data, integrality,
    )
    return None if loaded == _highs.HighsStatus.kError else highs


def _run_highs(c, a, row_lo, row_hi, lb, ub, integrality, options, start=None, check=False):
    """Run HiGHS on the model `_pass_model` hands it, and read the result.
    Each option is set on its own; one HiGHS rejects raises an
    OptimizeWarning that names it, and HiGHS runs without it. ``start`` is a
    complete solution for ``setSolution``.

    Returns a `SolveResult` with the model's size, ``highs_s`` (0.0 if HiGHS
    never ran; a refused model is "infeasible") and, for an LP, the simplex,
    else interior-point, iterations. ``x`` and ``objective`` come with an
    optimum, or with a MIP's incumbent at a limit; a MIP then carries its
    gap, nodes and dual bound, an LP its row duals in the order of ``a``'s
    rows. With ``check``, an LP optimum that breaks a row or a bound by more
    than `_LP_CHECK_TOL` is status "error" without a solution, as scipy's
    linprog checks it."""
    binaries = int(np.count_nonzero(integrality))
    res = SolveResult(
        "infeasible", highs_s=0.0, rows=a.shape[0], cols=c.size, nnz=a.nnz, binaries=binaries
    )
    highs = _pass_model(c, a, row_lo, row_hi, lb, ub, integrality)
    if highs is None:
        return res
    for key, val in options.items():
        if highs.setOptionValue(key, val) != _highs.HighsStatus.kOk:
            # imported only here: it loads all of scipy.optimize
            from scipy.optimize import OptimizeWarning

            warnings.warn(
                f"HiGHS rejected option {key}={val!r}; solving without it",
                OptimizeWarning, stacklevel=3,
            )
    if start is not None:
        sol = _highs.HighsSolution()
        sol.col_value = np.asarray(start, dtype=np.float64)
        highs.setSolution(sol)
    t0 = time.perf_counter()
    ran = highs.run()
    res.highs_s = time.perf_counter() - t0
    model_status = highs.getModelStatus()
    res.status = _STATUS.get(model_status, "error")
    if ran == _highs.HighsStatus.kError:  # nothing to read
        if res.ok:
            res.status = "error"
        return res
    info = highs.getInfo()
    if not binaries:  # a MIP's count reads -1 when presolve solves it
        res.simplex_iterations = info.simplex_iteration_count or info.ipm_iteration_count
    incumbent = (
        binaries and model_status in _STOPPED
        and info.objective_function_value < _highs.kHighsInf
    )
    if not (res.ok or incumbent):
        return res
    sol = highs.getSolution()
    res.x, res.objective = np.array(sol.col_value), info.objective_function_value
    if binaries:
        res.mip_gap, res.mip_node_count = info.mip_gap, info.mip_node_count
        res.mip_dual_bound = info.mip_dual_bound
        return res
    res.duals = np.array(sol.row_dual)
    if not check:
        return res
    row = np.array(sol.row_value)
    slack = row_hi - row
    if (
        np.isnan(res.objective) or np.isnan(res.x).any() or np.isnan(slack).any()
        or (res.x < lb - _LP_CHECK_TOL).any() or (res.x > ub + _LP_CHECK_TOL).any()
        or (slack < -_LP_CHECK_TOL).any() or (row - row_lo < -_LP_CHECK_TOL).any()
    ):
        res.status, res.x, res.objective, res.duals = "error", None, None, None
    return res


class Run(NamedTuple):
    """What `milp` and `linprog` return: the `SolveResult`, and under
    scipy's names the fields a wrapper of either reads."""

    result: SolveResult

    @property
    def status(self):
        """scipy's code: 0 optimal, 1 time or iteration limit, 2 infeasible,
        3 unbounded, 4 other."""
        return ("optimal", "limit", "infeasible", "unbounded", "error").index(self.result.status)

    @property
    def nit(self):
        """Simplex, else interior-point, iterations."""
        return self.result.simplex_iterations or 0

    @property
    def mip_node_count(self):
        """Branch-and-bound nodes; None without integers or without a
        solution."""
        return self.result.mip_node_count


def milp(c, *, integrality, bounds, constraints, options, start=None):
    """`scipy.optimize.milp` on scipy's bundled HiGHS binding, plus a MIP start.

    Takes scipy's keywords, each array one entry per column (``integrality``
    int32) and ``constraints`` exactly one `LinearConstraint` whose ``A`` is
    a `Csr`, and hands HiGHS the CSC arrays scipy would. Options, ``start``
    and the result are as in `_run_highs`: HiGHS keeps the start as its first
    incumbent if it is feasible, and drops it otherwise. Returns a `Run`.
    """
    (con,) = constraints
    return Run(_run_highs(
        c, con.A, con.lb, con.ub, bounds.lb, bounds.ub, integrality, options, start
    ))


def linprog(c, *, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds, options):
    """`scipy.optimize.linprog(method="highs")` on the same HiGHS binding.

    Takes linprog's keywords (``A_ub`` and ``A_eq`` each a `Csr` or left
    out, the other arrays full length, ``bounds`` (n, 2); ``options`` with
    ``presolve``, a bool, and perhaps ``time_limit``) and hands HiGHS what
    linprog does: the CSC matrix of ``A_ub`` stacked over ``A_eq``, rows
    ``-inf <= A_ub @ x <= b_ub`` and ``b_eq <= A_eq @ x <= b_eq``, no
    integer column, and linprog's options (`_LP_OPTIONS`). Returns a `Run`
    whose duals are linprog's marginals, ``A_ub``'s then ``A_eq``'s; an
    optimum is checked as linprog checks it (`_run_highs`).
    """
    a = _vstack(*(_empty(c.size) if m is None else m for m in (A_ub, A_eq)))
    b_ub, b_eq = (np.empty(0) if b is None else b for b in (b_ub, b_eq))
    row_lo = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
    row_hi = np.concatenate([b_ub, b_eq])
    lb, ub = bounds.T.copy()
    options = {**options, "presolve": "on" if options["presolve"] else "off", **_LP_OPTIONS}
    return Run(_run_highs(
        c, a, row_lo, row_hi, lb, ub, np.zeros(c.size, np.int32), options, check=True
    ))


def _budget(options, deadline):
    """``options`` with HiGHS's ``time_limit`` set to the seconds left before
    ``deadline`` (a `time.perf_counter` reading; None for no limit, which
    leaves ``options`` as they are), or None once the deadline has passed."""
    if deadline is None:
        return options
    left = deadline - time.perf_counter()
    return {**options, "time_limit": left} if left > 0 else None


def _run_milp(c, a, lo, hi, lb, ub, integer, options, deadline, start=None):
    """Hand ``min c @ x`` subject to ``lo <= a @ x <= hi``, ``lb <= x <= ub``
    and integer columns ``integer`` to `milp` under ``deadline``
    (`_budget`): status "limit", HiGHS not run, once the deadline has
    passed."""
    options = _budget(options, deadline)
    if options is None:
        return SolveResult(status="limit")
    return milp(
        c=c,
        constraints=[LinearConstraint(a, lo, hi)],
        integrality=integer.astype(np.int32),
        bounds=Bounds(lb, ub),
        options=options,
        start=start,
    ).result


def solve(model, gap_tol=1e-6, deadline=None, start=None):
    """Solve to proven optimality (within ``gap_tol`` for MIPs).

    Pure-LP models are routed through `linprog` so the result carries duals;
    models with integer variables never do (fix_and_resolve exists for that).
    ``deadline`` (a `time.perf_counter` reading, or None) bounds HiGHS's
    time: it gets what is left, and once the deadline has passed the result
    is status "limit" and HiGHS is not run. ``start`` (a complete solution,
    e.g. from `complete`) is handed to HiGHS as a MIP start; see the module
    docstring for why that is sound.
    """
    if model.n_vars == 0:
        return SolveResult(
            status="optimal", objective=0.0, x=np.empty(0), duals=np.empty(0),
            rows=0, cols=0, nnz=0, binaries=0,
        )
    integer = model.integer
    if not integer.any():
        return _solve_lp(model, model.lb, model.ub, deadline)
    options = {"mip_rel_gap": gap_tol, **MILP_OPTIONS}
    return _run_milp(
        model.obj.copy(), *model._constraint_matrix(), model.lb.copy(), model.ub.copy(),
        integer, options, deadline, start,
    )


# HiGHS's primal feasibility tolerance, at which `complete` checks the rows
# over pinned columns alone
_FEASIBILITY_TOL = 1e-7


def complete(model, cols, values, deadline=None, blocks=None):
    """The cheapest completion of a partial solution: columns ``cols`` pinned
    at ``values``, every other column continuous, solved on the model's
    current rows with presolve off, each LP in a HiGHS instance of its own
    (freed on return). With no column pinned it is the LP relaxation.
    ``deadline`` is as in `solve`; each LP gets what is left of it.

    ``blocks`` labels each column: -1 for a column that every block may
    use (a first-stage column), else its block (a scenario); None makes
    the model one block. Where every column labelled -1 is pinned and the
    others fall into more than one block, each block is an LP of its own
    (`_by_block`); otherwise the whole pinned model is one LP.

    With every integer column pinned at an integral value, an optimal
    result's ``x`` is a complete MIP start for `solve`. The result has the
    whole model's size, carries the row duals and the simplex iterations,
    and no MIP fields."""
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[cols] = ub[cols] = values
    free = np.ones(model.n_vars, dtype=bool)
    free[cols] = False
    label = np.empty(0) if blocks is None else blocks[free]
    if label.size and 0 <= label.min() < label.max():
        return _by_block(model, lb, ub, free, blocks, deadline)
    return _run_milp(
        model.obj.copy(), *model._constraint_matrix(), lb, ub,
        np.zeros(model.n_vars, dtype=bool), {"presolve": "off"}, deadline,
    )


def _by_block(model, lb, ub, free, blocks, deadline):
    """`complete` of a model whose ``free`` columns fall into blocks
    (labels ``blocks``, each 0 or more) with no row over two of them, the
    other columns pinned at ``lb`` = ``ub``. The optimum is the pinned
    columns' cost plus each block's optimum, and ``x`` the pinned values
    and each block's solution:

    - a row over pinned columns alone is checked against its bounds at
      HiGHS's primal feasibility tolerance, and one it breaks makes the
      result "infeasible", with no HiGHS run;
    - each block is one LP, in block order, through `milp`: its free
      columns, and its rows with the pinned columns' part moved to their
      bounds, each under what is left of ``deadline``;
    - a block that is not optimal, or a deadline that passes before one,
      ends the result there with that status; no later block runs.

    The result has the whole model's size, and ``highs_s`` and
    ``simplex_iterations`` summed over the blocks run; its duals are each
    block's, and 0 on the rows over pinned columns alone (their columns
    are fixed, so any value is a dual there)."""
    mat, lo, hi = model._constraint_matrix()
    n_rows = mat.shape[0]
    at = np.repeat(np.arange(n_rows), np.diff(mat.indptr))  # each entry's row
    pinned = np.where(free, 0.0, lb)
    # each row's pinned part, moved to its bounds
    moved = np.bincount(at, weights=mat.data * pinned[mat.indices], minlength=n_rows)
    lo, hi = lo - moved, hi - moved
    keep = free[mat.indices]
    label = blocks[mat.indices[keep]]
    row_block = np.full(n_rows, -1)
    row_block[at[keep]] = label
    if (row_block[at[keep]] != label).any():
        raise ValueError("a row spans two blocks")
    # a ufunc sum, not a BLAS dot: OpenBLAS threads a dot of over 10,000
    # entries, and its idle thread then slows the HiGHS runs that follow
    res = SolveResult(
        "optimal", objective=float((model.obj * pinned).sum()), x=pinned,
        duals=np.zeros(n_rows), highs_s=0.0, simplex_iterations=0,
        rows=n_rows, cols=model.n_vars, nnz=mat.nnz, binaries=0,
    )
    alone = row_block < 0
    if (lo[alone] > _FEASIBILITY_TOL).any() or (hi[alone] < -_FEASIBILITY_TOL).any():
        return replace(res, status="infeasible", objective=None, x=None, duals=None)
    # the block rows and the free columns, each grouped by block, and each
    # free column's place in its block
    rows = np.argsort(row_block, kind="stable")[np.count_nonzero(alone):]
    cols = np.flatnonzero(free)
    cols = cols[np.argsort(blocks[cols], kind="stable")]
    n_cols = np.bincount(blocks[cols])
    col_at = _indptr(n_cols)
    row_at = _indptr(np.bincount(row_block[rows], minlength=n_cols.size))
    place = np.zeros(model.n_vars, dtype=np.int32)
    place[cols] = np.arange(cols.size) - np.repeat(col_at[:-1], n_cols)
    sub = _take_rows(mat, rows)
    keep = free[sub.indices]
    entries = np.repeat(np.arange(rows.size), np.diff(sub.indptr))[keep]
    indptr = _indptr(np.bincount(entries, minlength=rows.size))
    data, indices = sub.data[keep], place[sub.indices[keep]]
    for s in np.flatnonzero(n_cols):
        (c0, c1), (r0, r1) = col_at[s:s + 2], row_at[s:s + 2]
        a = Csr(data[indptr[r0]:indptr[r1]], indices[indptr[r0]:indptr[r1]],
                indptr[r0:r1 + 1] - indptr[r0], (int(r1 - r0), int(c1 - c0)))
        at_cols, at_rows = cols[c0:c1], rows[r0:r1]
        done = _run_milp(
            model.obj[at_cols], a, lo[at_rows], hi[at_rows], lb[at_cols], ub[at_cols],
            np.zeros(c1 - c0, dtype=bool), {"presolve": "off"}, deadline,
        )
        res.highs_s += done.highs_s or 0.0
        res.simplex_iterations += done.simplex_iterations or 0
        if not done.ok:
            return replace(res, status=done.status, objective=None, x=None, duals=None)
        res.objective += done.objective
        res.x[at_cols] = done.x
        res.duals[at_rows] = done.duals
    return res


def fix_and_resolve(model, x):
    """Re-solve as an LP with every integer variable pinned to its value in
    ``x`` (rounded). This is the pricing run: continuous variables may move,
    commitments may not, and the result carries duals. The constraint matrix
    is the one the MIP solve assembled; only the bounds change."""
    integer = model.integer
    pinned = np.round(np.asarray(x)[integer]) + 0.0  # -0.0 (from u = -1e-12) -> 0.0
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[integer] = pinned
    ub[integer] = pinned
    return _solve_lp(model, lb, ub, None)


def _solve_lp(model, lb, ub, deadline):
    options = _budget({"presolve": True}, deadline)
    if options is None:
        return SolveResult(status="limit")
    a_ub, b_ub, ub_rows, flip, a_eq, b_eq, eq_rows = model._lp_parts()
    kwargs = {}
    if len(ub_rows):
        kwargs["A_ub"], kwargs["b_ub"] = a_ub, b_ub
    if len(eq_rows):
        kwargs["A_eq"], kwargs["b_eq"] = a_eq, b_eq
    res = linprog(
        model.obj.copy(),
        bounds=np.column_stack([lb, ub]),
        options=options,
        **kwargs,
    ).result
    if res.duals is not None:  # linprog's rows, A_ub over A_eq, back to the model's
        duals = np.empty(res.rows)
        duals[ub_rows] = flip * res.duals[: len(ub_rows)]
        duals[eq_rows] = res.duals[len(ub_rows) :]
        res.duals = duals
    return res


def require_optimal(result, context):
    """Raise InfeasibleModelError unless ``result`` is optimal. The message
    names the status, then the MIP gap and dual bound the result holds (a
    MILP stopped at a limit with an incumbent), so a failure at a limit says
    how far from proven it stopped."""
    if result.status == "optimal":
        return result
    held = [
        f"{key} {val:.6g}"
        for key, val in (("mip_gap", result.mip_gap), ("mip_dual_bound", result.mip_dual_bound))
        if val is not None
    ]
    detail = f" ({', '.join(held)})" if held else ""
    raise InfeasibleModelError(f"{context}: solver returned {result.status}{detail}")

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
as an LP, which turns a commitment into a complete MIP start.

Every solve goes through scipy's bundled HiGHS binding
(``scipy.optimize._highspy._core._Highs``), loaded from scipy's install
without importing scipy: ``scipy.optimize``'s package init (linprog,
minimize, scipy.linalg, scipy.fft, ...) costs every process about 19 MB and
0.12 s, and the binding needs only numpy. If the binding is already in
``sys.modules`` (someone imported `scipy.optimize` first) it is reused, and
once loaded here it is the module a later ``import scipy.optimize`` finds, so
there is one `_Highs` per process either way. MILPs go through `milp`, which
takes `scipy.optimize.milp`'s keywords and returns its result fields, plus a
MIP start (``setSolution``); LPs go through `linprog`, which takes
`scipy.optimize.linprog`'s keywords and hands HiGHS exactly what linprog
would, so the duals the pricing and real-time passes read are linprog's. Both
take `Csr` matrices and full-length arrays only, and are kept as the boundary
where the benchmark's tracing and the model fingerprints read each solve.
Both share one HiGHS run (`_run_highs`), and `_pass_model` alone hands HiGHS
a model, to solve or for `Model.write_lp`. Options are set one by one, so one
HiGHS rejects is named in an OptimizeWarning; ``highs_s`` on every result is
the seconds of HiGHS's ``run`` alone. The binding is private to scipy:
`pyproject.toml` requires the tested scipy, and a test checks that every
method used is there.

A MIP start changes where branch and bound starts, not what it proves. HiGHS
checks the start against the rows, bounds and integrality and keeps it only
as a first incumbent; it still stops only when the gap between the best
incumbent and the dual bound is within ``gap_tol``, so the answer is an
optimum of the model within ``gap_tol`` with or without the start. A start
that is infeasible is dropped.

A started MILP runs with MIP presolve off. Only the warm stochastic
commitment passes a start; on it presolve was 0.09-0.18 s of each solve, and
HiGHS's restarts presolve the reduced model anyway. Presolve changes how
HiGHS gets to the proof, not what it proves, so the answer is still an
optimum within ``gap_tol``. Unit output has no alias column (see
`dispatch`), so without presolve HiGHS peaks only 0.3-1.4 MB higher on the
corpus's 16-scenario SUCs; on an 8-scenario ieee14 SUC, whose parallel
per-bus curtailment columns presolve would merge, about 12 MB higher. Cold
MILPs (expected value, clairvoyant, DAM) keep presolve.

Every MILP is handed `MILP_OPTIONS`, which turn off two of HiGHS's root
primal heuristics: the reduced-cost sub-MIP and feasibility jump. On the
SUC and DAM models they took most of the solve time (on one corpus DAM, 3,095
of 4,631 LP iterations) while every solve still closed at the root. Skipping
them is sound:

- the optimality proof is unchanged: HiGHS still stops only when the gap
  between incumbent and dual bound is within ``gap_tol``;
- only primal heuristics are skipped; presolve (but for a started MILP,
  above), cuts, the other heuristics and branching are as before;
- the models are feasible by construction (every SUC, DAM and clairvoyant
  model carries curtailment slack, every DAM also FRP shortfall slack), so
  an incumbent is never hard to find, which is all the two heuristics do.

Dual convention: ``duals[r]`` is d(objective)/d(rhs) for row ``r`` (an array
indexed like the rows), so equality rows give marginal prices directly and
binding ``>=`` rows come out nonnegative in a minimization.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import re
import sys
import time
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
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


class OptimizeResult(SimpleNamespace):
    """The fields of `scipy.optimize.OptimizeResult` that `milp` and
    `linprog` fill, as attributes, plus ``highs_s``: the seconds of the
    HiGHS run alone."""


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
    mip_node_count: int | None = None  # branch-and-bound nodes; MIP solves only
    mip_dual_bound: float | None = None  # best proven bound; MIP solves only
    highs_s: float | None = None  # seconds inside HiGHS
    simplex_iterations: int | None = None  # LP solves only
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


class MilpTotals:
    """What the MILP solves of one model did, over its screening rounds:
    HiGHS seconds and branch-and-bound nodes summed, the last dual bound.
    `add` passes each result through, so it can wrap the solve callback of
    `network.FlowScreen.solve`."""

    def __init__(self):
        self.record = {"highs_s": 0.0, "mip_node_count": 0, "mip_dual_bound": None}

    def add(self, res):
        self.record["highs_s"] += res.highs_s or 0.0
        self.record["mip_node_count"] += res.mip_node_count or 0
        self.record["mip_dual_bound"] = res.mip_dual_bound
        return res


class LpTotals:
    """What the LP solves of one model did, over its screening rounds: HiGHS
    seconds and simplex iterations, summed. `add` passes each result
    through, like `MilpTotals.add`."""

    def __init__(self):
        self.record = {"highs_s": 0.0, "simplex_iterations": 0}

    def add(self, res):
        self.record["highs_s"] += res.highs_s or 0.0
        self.record["simplex_iterations"] += res.simplex_iterations or 0
        return res


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
    one position of ``S`` come together, in family order. A single family
    gives shape ``(*S, terms)``. Families with fewer terms pad with zero
    coefficients.
    """
    shape = np.broadcast_shapes(*(np.shape(x) for fam in families for term in fam for x in term))
    width = max(len(fam) for fam in families)
    cols = np.zeros(shape + (len(families), width), dtype=np.int64)
    coefs = np.zeros(shape + (len(families), width))
    for f, fam in enumerate(families):
        for t, (col, coef) in enumerate(fam):
            cols[..., f, t] = col
            coefs[..., f, t] = coef
    if len(families) == 1:
        return cols[..., 0, :], coefs[..., 0, :]
    return cols, coefs


class Model:
    def __init__(self, name="model"):
        self.name = name
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
        self._lp = None  # the LP split of the matrix, see _lp_parts

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
        n = int(np.prod(shape, dtype=np.int64))
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
            arr[start:stop] = np.broadcast_to(np.asarray(val, dtype=arr.dtype), shape).ravel()
        self._n = stop
        self._var_blocks.append((name, start, shape))
        return np.arange(start, stop).reshape(shape)

    def add_rows(self, name, sense, rhs, cols, coefs):
        """Add a block of rows ``sum(coefs[..., t] * x[cols[..., t]]) <sense> rhs``.

        ``cols`` and ``coefs`` broadcast to one shape ``(*rows, terms)``; a
        row shorter than ``terms`` pads with zero coefficients, which are
        dropped. ``sense`` ("<=", ">=" or "==") and ``rhs`` broadcast to the
        row shape. Returns the row indices, shaped like the rows."""
        cols, coefs = np.broadcast_arrays(
            np.asarray(cols, dtype=np.int64), np.asarray(coefs, dtype=float)
        )
        shape = cols.shape[:-1]
        codes = _sense_codes(sense, shape).ravel()
        self._claim(1, name)
        n, width = codes.size, cols.shape[-1]
        cols, coefs = cols.reshape(n, width), coefs.reshape(n, width)
        keep = coefs != 0.0
        idx = cols[keep]
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise IndexError(f"{name}: column index out of range")
        rhs = np.broadcast_to(np.asarray(rhs, dtype=float), shape).ravel()
        self._pending.append((codes, rhs, idx, coefs[keep], keep.sum(axis=1)))
        start = self._n_rows
        self._n_rows += n
        self._row_blocks.append((name, start, shape))
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
            self._lp = None
        elif self._mat.shape[1] != self._n:  # columns added since
            self._mat = self._mat._replace(shape=(self._n_rows, self._n))
            self._lp = None
        return self._mat, self._lo, self._hi

    def _lp_parts(self):
        """linprog's form of the matrix: ``<=`` and ``>=`` rows (the latter
        negated) as A_ub, ``==`` rows as A_eq, with the row numbers of each
        and the sign that maps an A_ub dual back to its row."""
        mat, _, _ = self._constraint_matrix()
        if self._lp is None:
            eq = self._sense == _EQ
            ub_rows, eq_rows = np.flatnonzero(~eq), np.flatnonzero(eq)
            flip = np.where(self._sense[ub_rows] == _GE, -1.0, 1.0)
            a_ub = _take_rows(mat, ub_rows)
            a_ub = a_ub._replace(data=a_ub.data * np.repeat(flip, np.diff(a_ub.indptr)))
            self._lp = (
                mat, a_ub, flip * self._rhs[ub_rows], ub_rows, flip,
                _take_rows(mat, eq_rows), self._rhs[eq_rows], eq_rows,
            )
        return self._lp

    def write_lp(self, path):
        """Dump the model to ``path`` as an LP file written by HiGHS, whatever
        its extension (debugging aid), which ``readModel`` loads back; names
        are `_lp_names`. Raises OSError naming ``path`` if it cannot be written."""
        mat, lo, hi = self._constraint_matrix()
        highs = _pass_model(self.obj, mat, lo, hi, self.lb, self.ub, self.integer.astype(np.int32))
        if highs is not None:
            for j, name in enumerate(_lp_names(self._var_blocks, self._n)):
                highs.passColName(j, name)
            for r, name in enumerate(_lp_names(self._row_blocks, self._n_rows)):
                highs.passRowName(r, name)
        tmp = f"{os.fspath(path)}.lp"  # HiGHS takes the format from the extension
        with open(tmp, "w"):  # fails on a missing directory, where HiGHS would crash
            pass
        if highs is None or highs.writeModel(tmp) == _highs.HighsStatus.kError:
            os.remove(tmp)
            raise OSError(f"HiGHS could not write the model to {path}")
        os.replace(tmp, path)


_H = _highs.HighsModelStatus
# HiGHS model status -> scipy's status code: 0 optimal, 1 limit,
# 2 infeasible, 3 unbounded, 4 anything else
_HIGHS_STATUS = {
    _H.kOptimal: 0, _H.kTimeLimit: 1, _H.kIterationLimit: 1,
    _H.kInfeasible: 2, _H.kModelError: 2, _H.kUnbounded: 3,
}
_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}
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
    column, all zero for an LP). None if HiGHS refuses the model."""
    highs = _highs._Highs()
    highs.setOptionValue("log_to_console", False)
    indptr, indices, data = _csc(a)
    loaded = highs.passModel(
        c.size, a.shape[0], a.nnz, int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize), 0.0, c, lb, ub, row_lo, row_hi,
        indptr, indices, data, integrality,
    )
    return None if loaded == _highs.HighsStatus.kError else highs


def _run_highs(c, a, row_lo, row_hi, lb, ub, integrality, options, start=None):
    """Run HiGHS on the model `_pass_model` hands it. Each option is set on
    its own; one HiGHS rejects raises an OptimizeWarning that names it, and
    HiGHS runs without it. ``start`` is a complete solution for
    ``setSolution``. Returns the HiGHS instance (None when it holds nothing
    to read: the model was refused or the run failed), its model status and
    the seconds ``run`` took (0.0 if it never ran)."""
    highs = _pass_model(c, a, row_lo, row_hi, lb, ub, integrality)
    if highs is None:
        return None, _H.kModelError, 0.0
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
    seconds = time.perf_counter() - t0
    if ran == _highs.HighsStatus.kError:
        return None, highs.getModelStatus(), seconds
    return highs, highs.getModelStatus(), seconds


def milp(c, *, integrality, bounds, constraints, options, start=None):
    """`scipy.optimize.milp` on scipy's bundled HiGHS binding, plus a MIP start.

    Takes scipy's keywords, each array one entry per column (``integrality``
    int32) and ``constraints`` exactly one `LinearConstraint` whose ``A`` is
    a `Csr`, and hands HiGHS the CSC arrays scipy would. Options and
    ``start`` are as in `_run_highs`: HiGHS keeps the start as its first
    incumbent if it is feasible, and drops it otherwise.

    Returns scipy's result fields: ``status`` (0 optimal, 1 time or iteration
    limit, 2 infeasible, 3 unbounded, 4 other), ``x`` and ``fun`` (None
    without a solution; a MIP stopped at a limit returns its incumbent), and
    ``mip_gap``, ``mip_node_count`` and ``mip_dual_bound``, which are None
    for a model without integers or without a solution; and ``highs_s``.
    """
    (con,) = constraints
    highs, model_status, highs_s = _run_highs(
        c, con.A, con.lb, con.ub, bounds.lb, bounds.ub, integrality, options, start
    )
    res = OptimizeResult(
        status=_HIGHS_STATUS.get(model_status, 4), x=None, fun=None,
        mip_gap=None, mip_node_count=None, mip_dual_bound=None, highs_s=highs_s,
    )
    if highs is None:
        return res
    info = highs.getInfo()
    is_mip = bool(integrality.any())
    stopped = model_status in (_H.kTimeLimit, _H.kIterationLimit, _H.kSolutionLimit)
    incumbent = is_mip and stopped and info.objective_function_value < _highs.kHighsInf
    if not (model_status == _H.kOptimal or incumbent):
        return res
    res.x = np.array(highs.getSolution().col_value)
    res.fun = info.objective_function_value
    if is_mip:
        res.mip_gap = info.mip_gap
        res.mip_node_count = info.mip_node_count
        res.mip_dual_bound = info.mip_dual_bound
    return res


def linprog(c, *, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds, options):
    """`scipy.optimize.linprog(method="highs")` on the same HiGHS binding.

    Takes linprog's keywords (``A_ub`` and ``A_eq`` each a `Csr` or left
    out, the other arrays full length, ``bounds`` (n, 2); ``options`` with
    ``presolve``, a bool, and perhaps ``time_limit``) and hands HiGHS what
    linprog does: the CSC matrix of ``A_ub`` stacked over ``A_eq``, rows
    ``-inf <= A_ub @ x <= b_ub`` and ``b_eq <= A_eq @ x <= b_eq``, no
    integer column, and linprog's options (`_LP_OPTIONS`).

    Returns linprog's ``status`` (codes as `milp`), ``x`` and ``fun`` (None
    without an optimum), ``nit`` (simplex, else interior-point, iterations)
    and ``ineqlin.marginals`` and ``eqlin.marginals`` (the row duals, None
    without an optimum), and ``highs_s``. As linprog does, an optimum that
    breaks a row or a bound by more than `_LP_CHECK_TOL` is status 4.
    linprog's bound marginals, slacks and messages are left out.
    """
    a = _vstack(*(_empty(c.size) if m is None else m for m in (A_ub, A_eq)))
    b_ub, b_eq = (np.empty(0) if b is None else b for b in (b_ub, b_eq))
    row_lo = np.concatenate([np.full(b_ub.size, -np.inf), b_eq])
    row_hi = np.concatenate([b_ub, b_eq])
    lb, ub = bounds.T.copy()
    options = {**options, "presolve": "on" if options["presolve"] else "off", **_LP_OPTIONS}
    highs, model_status, highs_s = _run_highs(
        c, a, row_lo, row_hi, lb, ub, np.zeros(c.size, np.int32), options
    )
    res = OptimizeResult(
        status=_HIGHS_STATUS.get(model_status, 4), x=None, fun=None, nit=0,
        ineqlin=OptimizeResult(marginals=None), eqlin=OptimizeResult(marginals=None),
        highs_s=highs_s,
    )
    if highs is None:
        return res
    info = highs.getInfo()
    res.nit = info.simplex_iteration_count or info.ipm_iteration_count
    if model_status != _H.kOptimal:
        return res
    sol = highs.getSolution()
    res.x = np.array(sol.col_value)
    res.fun = info.objective_function_value
    duals = np.array(sol.row_dual)
    res.ineqlin.marginals, res.eqlin.marginals = duals[: b_ub.size], duals[b_ub.size :]
    slack = row_hi - np.array(sol.row_value)
    if (
        np.isnan(res.fun) or np.isnan(res.x).any() or np.isnan(slack).any()
        or (res.x < lb - _LP_CHECK_TOL).any() or (res.x > ub + _LP_CHECK_TOL).any()
        or (slack[: b_ub.size] < -_LP_CHECK_TOL).any()
        or (np.abs(slack[b_ub.size :]) > _LP_CHECK_TOL).any()
    ):
        res.status = 4
    return res


def _run_milp(model, lb, ub, integer, options, start=None):
    """Hand ``model`` with column bounds ``lb``/``ub`` and integer columns
    ``integer`` to `milp`, as a SolveResult."""
    mat, lo, hi = model._constraint_matrix()
    res = milp(
        c=model.obj.copy(),
        constraints=[LinearConstraint(mat, lo, hi)],
        integrality=integer.astype(np.int32),
        bounds=Bounds(lb, ub),
        options=options,
        start=start,
    )
    status = _STATUS.get(res.status, "error")
    if res.x is None and status == "optimal":
        status = "error"
    return SolveResult(
        status=status,
        objective=None if res.x is None else float(res.fun),
        x=None if res.x is None else np.asarray(res.x),
        mip_gap=res.mip_gap,
        mip_node_count=res.mip_node_count,
        mip_dual_bound=res.mip_dual_bound,
        highs_s=res.highs_s,
        rows=mat.shape[0],
        cols=mat.shape[1],
        nnz=mat.nnz,
        binaries=int(integer.sum()),
    )


def solve(model, gap_tol=1e-6, time_limit=None, start=None):
    """Solve to proven optimality (within ``gap_tol`` for MIPs).

    Pure-LP models are routed through `linprog` so the result carries duals;
    models with integer variables never do (fix_and_resolve exists for that).
    ``start`` (a complete solution, e.g. from `complete`) is handed to HiGHS
    as a MIP start, with MIP presolve off; see the module docstring for why
    both are sound.
    """
    if model.n_vars == 0:
        return SolveResult(
            status="optimal", objective=0.0, x=np.empty(0), duals=np.empty(0),
            rows=0, cols=0, nnz=0, binaries=0,
        )
    integer = model.integer
    if not integer.any():
        return _solve_lp(model, model.lb, model.ub, time_limit)
    options = {"mip_rel_gap": gap_tol, **MILP_OPTIONS}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if start is not None:
        options["presolve"] = "off"
    return _run_milp(model, model.lb.copy(), model.ub.copy(), integer, options, start)


def complete(model, cols, values, time_limit=None):
    """The cheapest completion of a partial solution: columns ``cols`` pinned
    at ``values``, every other column continuous, solved as an LP on the
    model's current rows in a HiGHS instance of its own (freed on return).

    With every integer column pinned at an integral value, an optimal
    result's ``x`` is a complete MIP start for `solve`. The result carries no
    duals or MIP fields."""
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[cols] = ub[cols] = values
    options = {} if time_limit is None else {"time_limit": float(time_limit)}
    return _run_milp(model, lb, ub, np.zeros(model.n_vars, dtype=bool), options)


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


def _solve_lp(model, lb, ub, time_limit):
    mat, a_ub, b_ub, ub_rows, flip, a_eq, b_eq, eq_rows = model._lp_parts()
    kwargs = {}
    if len(ub_rows):
        kwargs["A_ub"], kwargs["b_ub"] = a_ub, b_ub
    if len(eq_rows):
        kwargs["A_eq"], kwargs["b_eq"] = a_eq, b_eq
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = linprog(
        model.obj.copy(),
        bounds=np.column_stack([lb, ub]),
        options=options,
        **kwargs,
    )
    status = _STATUS.get(res.status, "error")
    fields = {
        "highs_s": res.highs_s, "simplex_iterations": int(res.nit),
        "rows": mat.shape[0], "cols": mat.shape[1], "nnz": mat.nnz, "binaries": 0,
    }
    if status != "optimal":
        return SolveResult(status=status, **fields)
    duals = np.empty(mat.shape[0])
    if len(eq_rows):
        duals[eq_rows] = res.eqlin.marginals
    if len(ub_rows):
        duals[ub_rows] = flip * res.ineqlin.marginals
    return SolveResult(
        status="optimal",
        objective=float(res.fun),
        x=np.asarray(res.x),
        duals=duals,
        **fields,
    )


def require_optimal(result, context):
    """Raise InfeasibleModelError unless ``result`` is optimal."""
    if result.status == "optimal":
        return result
    raise InfeasibleModelError(f"{context}: solver returned {result.status}")

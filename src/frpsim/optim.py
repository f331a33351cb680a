"""Thin model-building layer over scipy's HiGHS MILP/LP interface.

Passes build a `Model` from blocks: `add_vars` appends a block of columns
and returns their indices in the block's shape, `add_rows` appends a block
of rows given as padded (rows, terms) arrays of column indices and
coefficients, with zero coefficients dropped. The scalar `add_var` and
`add_constr` are one-element blocks. The constraint matrix is assembled into
CSR form once, on the first solve; rows added later are appended to it.

`solve` runs branch and bound when integer variables are present and a plain
LP otherwise; `fix_and_resolve` freezes every integer variable at an
incumbent and re-solves the continuous relaxation of the same matrix to
recover duals for pricing.

Every MILP is handed `MILP_OPTIONS`, which turn off two of HiGHS's root
primal heuristics: the reduced-cost sub-MIP and feasibility jump. On the
SUC and DAM models they took most of the solve time (on one corpus DAM, 3,095
of 4,631 LP iterations) while every solve still closed at the root. Skipping
them is sound:

- the optimality proof is unchanged: HiGHS still stops only when the gap
  between incumbent and dual bound is within ``gap_tol``;
- only primal heuristics are skipped; presolve, cuts, the other heuristics
  and branching are as before;
- the models are feasible by construction (every SUC, DAM and clairvoyant
  model carries curtailment slack, every DAM also FRP shortfall slack), so
  an incumbent is never hard to find, which is all the two heuristics do.

Dual convention: ``duals[r]`` is d(objective)/d(rhs) for row ``r`` (an array
indexed like the rows), so equality rows give marginal prices directly and
binding ``>=`` rows come out nonnegative in a minimization.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

# HiGHS options for every MILP, on top of mip_rel_gap and time_limit; see the
# module docstring for why skipping these heuristics is sound
MILP_OPTIONS = {
    "mip_heuristic_run_root_reduced_cost": False,
    "mip_heuristic_run_feasibility_jump": False,
}

_SENSES = ("<=", ">=", "==")
_LE, _GE, _EQ = range(3)


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
    highs_s: float | None = None  # seconds inside HiGHS; MIP solves only
    # bound multipliers from LP solves, indexed like the variables
    lower_bound_duals: np.ndarray | None = None
    upper_bound_duals: np.ndarray | None = None
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
        self._mat = sparse.csr_matrix((0, 0))  # the assembled rows
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

    def add_var(self, name, lb=0.0, ub=np.inf, obj=0.0, integer=False):
        """Register one variable, returning its column index."""
        return int(self.add_vars(name, (), lb, ub, obj, integer))

    def add_binary(self, name, obj=0.0):
        return self.add_var(name, lb=0.0, ub=1.0, obj=obj, integer=True)

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

    def add_constr(self, name, terms, sense, rhs):
        """Add one row. ``terms`` maps column index to coefficient (or is an
        iterable of such pairs). Returns the row index."""
        if isinstance(terms, dict):
            terms = terms.items()
        terms = list(terms)
        cols = np.array([j for j, _ in terms], dtype=np.int64)
        coefs = np.array([c for _, c in terms], dtype=float)
        return int(self.add_rows(name, sense, rhs, cols, coefs))

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
            new = sparse.csr_matrix(
                (data, idx, np.concatenate([[0], np.cumsum(counts)])),
                shape=(len(rhs), self._n),
            )
            new.sum_duplicates()
            old = self._mat
            self._mat = sparse.csr_matrix(
                (
                    np.concatenate([old.data, new.data]),
                    np.concatenate([old.indices, new.indices]),
                    np.concatenate([old.indptr, old.indptr[-1] + new.indptr[1:]]),
                ),
                shape=(self._n_rows, self._n),
            )
            self._sense = np.concatenate([self._sense, codes])
            self._rhs = np.concatenate([self._rhs, rhs])
            self._lo = np.where(self._sense == _LE, -np.inf, self._rhs)
            self._hi = np.where(self._sense == _GE, np.inf, self._rhs)
            self._lp = None
        elif self._mat.shape[1] != self._n:  # columns added since
            old = self._mat
            self._mat = sparse.csr_matrix(
                (old.data, old.indices, old.indptr), shape=(self._n_rows, self._n)
            )
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
            a_ub = mat[ub_rows]
            a_ub.data *= np.repeat(flip, np.diff(a_ub.indptr))
            self._lp = (
                mat, a_ub, flip * self._rhs[ub_rows], ub_rows, flip,
                mat[eq_rows], self._rhs[eq_rows], eq_rows,
            )
        return self._lp

    def _names_of(self, blocks, n):
        names = [None] * n
        for name, start, shape in blocks:
            if not shape:
                names[start] = name
                continue
            for k, at in enumerate(np.ndindex(*shape)):
                names[start + k] = f"{name}[{','.join(map(str, at))}]"
        return names

    def write_lp(self, path):
        """Dump the model in CPLEX LP text format (debugging aid). Names are
        the block name and the position in the block."""
        var_names = self._names_of(self._var_blocks, self._n)
        row_names = self._names_of(self._row_blocks, self._n_rows)
        mat, _, _ = self._constraint_matrix()

        def term(j, c, lead):
            sign = "-" if c < 0 else ("" if lead else "+")
            return f"{sign} {abs(c):.12g} {var_names[j]}"

        lines = ["\\ " + self.name, "Minimize", " obj:"]
        objterms = [
            term(j, c, j == 0) for j, c in enumerate(self.obj) if c != 0.0
        ] or ["0 x_nothing"]
        lines[-1] += " " + " ".join(objterms)
        lines.append("Subject To")
        for r, name in enumerate(row_names):
            lo, hi = mat.indptr[r], mat.indptr[r + 1]
            expr = " ".join(
                term(j, c, i == 0)
                for i, (j, c) in enumerate(zip(mat.indices[lo:hi], mat.data[lo:hi]))
            )
            op = ("<=", ">=", "=")[self._sense[r]]
            lines.append(f" {name}: {expr or '0 ' + var_names[0]} {op} {self._rhs[r]:.12g}")
        lines.append("Bounds")
        for j, vname in enumerate(var_names):
            lines.append(f" {self.lb[j]:.12g} <= {vname} <= {self.ub[j]:.12g}")
        ints = [var_names[j] for j in np.flatnonzero(self.integer)]
        if ints:
            lines.append("General")
            lines.append(" " + " ".join(ints))
        lines.append("End")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


_MILP_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}
_LP_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}


def solve(model, gap_tol=1e-6, time_limit=None):
    """Solve to proven optimality (within ``gap_tol`` for MIPs).

    Pure-LP models are routed through `linprog` so the result carries duals;
    models with integer variables never do (fix_and_resolve exists for that).
    """
    if model.n_vars == 0:
        return SolveResult(
            status="optimal", objective=0.0, x=np.empty(0), duals=np.empty(0),
            rows=0, cols=0, nnz=0, binaries=0,
        )
    integer = model.integer
    if not integer.any():
        return _solve_lp(model, model.lb, model.ub, time_limit)

    mat, lo, hi = model._constraint_matrix()
    options = {"mip_rel_gap": gap_tol, **MILP_OPTIONS}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    with warnings.catch_warnings():
        # scipy does not know the MILP_OPTIONS keys and says it passes them
        # on verbatim; an option HiGHS itself rejects still warns
        warnings.filterwarnings(
            "ignore",
            message=r"Unrecognized options detected: .* passed to HiGHS verbatim",
            category=RuntimeWarning,
        )
        t0 = time.perf_counter()
        res = milp(
            c=model.obj.copy(),
            constraints=[LinearConstraint(mat, lo, hi)] if mat.shape[0] else [],
            integrality=integer.astype(int),
            bounds=Bounds(model.lb.copy(), model.ub.copy()),
            options=options,
        )
        highs_s = time.perf_counter() - t0
    status = _MILP_STATUS.get(res.status, "error")
    if res.x is None and status == "optimal":
        status = "error"
    return SolveResult(
        status=status,
        objective=None if res.x is None else float(res.fun),
        x=None if res.x is None else np.asarray(res.x),
        mip_gap=getattr(res, "mip_gap", None),
        mip_node_count=getattr(res, "mip_node_count", None),
        mip_dual_bound=getattr(res, "mip_dual_bound", None),
        highs_s=highs_s,
        rows=mat.shape[0],
        cols=mat.shape[1],
        nnz=mat.nnz,
        binaries=int(integer.sum()),
    )


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
        method="highs",
        options=options,
        **kwargs,
    )
    status = _LP_STATUS.get(res.status, "error")
    size = {"rows": mat.shape[0], "cols": mat.shape[1], "nnz": mat.nnz, "binaries": 0}
    if status != "optimal":
        return SolveResult(status=status, **size)
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
        lower_bound_duals=np.asarray(res.lower.marginals),
        upper_bound_duals=np.asarray(res.upper.marginals),
        **size,
    )


def require_optimal(result, context):
    """Raise InfeasibleModelError unless ``result`` is optimal."""
    if result.status == "optimal":
        return result
    raise InfeasibleModelError(f"{context}: solver returned {result.status}")

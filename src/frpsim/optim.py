"""Thin model-building layer over scipy's HiGHS MILP/LP interface.

Passes build a `Model` by naming variables and constraint rows, then call
`solve` (branch and bound when integer variables are present, plain LP
otherwise) or `fix_and_resolve` (freeze every integer variable at an incumbent
and re-solve the continuous relaxation to recover duals for pricing).

Dual convention: ``duals[row_name]`` is d(objective)/d(rhs) for that row, so
equality rows give marginal prices directly and binding ``>=`` rows come out
nonnegative in a minimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

_SENSES = ("<=", ">=", "==")


class InfeasibleModelError(RuntimeError):
    """A model that should be feasible by construction is not; almost always a
    modeling bug (e.g. recourse without enough slack) rather than bad data."""


@dataclass
class SolveResult:
    status: str  # optimal | infeasible | unbounded | limit | error
    objective: float | None = None
    x: np.ndarray | None = None
    duals: dict | None = None  # row name -> d(obj)/d(rhs); LP solves only
    mip_gap: float | None = None
    mip_node_count: int | None = None  # branch-and-bound nodes; MIP solves only
    mip_dual_bound: float | None = None  # best proven bound; MIP solves only
    # bound multipliers from LP solves, indexed like the variables
    lower_bound_duals: np.ndarray | None = None
    upper_bound_duals: np.ndarray | None = None

    @property
    def ok(self):
        return self.status == "optimal"


class Model:
    def __init__(self, name="model"):
        self.name = name
        self.obj = []
        self.lb = []
        self.ub = []
        self.integer = []
        self.var_names = []
        self.rows = []  # (name, sense, rhs, idx list, coef list)
        self._row_names = set()

    @property
    def n_vars(self):
        return len(self.obj)

    @property
    def n_integer(self):
        return sum(self.integer)

    def add_var(self, name, lb=0.0, ub=np.inf, obj=0.0, integer=False):
        """Register a variable, returning its column index."""
        self.var_names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.obj.append(obj)
        self.integer.append(bool(integer))
        return len(self.obj) - 1

    def add_binary(self, name, obj=0.0):
        return self.add_var(name, lb=0.0, ub=1.0, obj=obj, integer=True)

    def add_constr(self, name, terms, sense, rhs):
        """Add a row. ``terms`` maps column index to coefficient."""
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        if name in self._row_names:
            raise ValueError(f"duplicate constraint name {name!r}")
        self._row_names.add(name)
        if isinstance(terms, dict):
            terms = terms.items()
        idxs, coefs = [], []
        for j, c in terms:
            if c != 0.0:
                idxs.append(j)
                coefs.append(float(c))
        self.rows.append((name, sense, float(rhs), idxs, coefs))

    # -- matrix assembly ---------------------------------------------------

    def _constraint_matrix(self):
        data, ri, ci = [], [], []
        lo = np.empty(len(self.rows))
        hi = np.empty(len(self.rows))
        for r, (_, sense, rhs, idxs, coefs) in enumerate(self.rows):
            ri.extend([r] * len(idxs))
            ci.extend(idxs)
            data.extend(coefs)
            if sense == "<=":
                lo[r], hi[r] = -np.inf, rhs
            elif sense == ">=":
                lo[r], hi[r] = rhs, np.inf
            else:
                lo[r], hi[r] = rhs, rhs
        mat = sparse.csr_matrix(
            (data, (ri, ci)), shape=(len(self.rows), self.n_vars)
        )
        return mat, lo, hi

    def write_lp(self, path):
        """Dump the model in CPLEX LP text format (debugging aid)."""

        def term(j, c, lead):
            sign = "-" if c < 0 else ("" if lead else "+")
            return f"{sign} {abs(c):.12g} {self.var_names[j]}"

        lines = ["\\ " + self.name, "Minimize", " obj:"]
        objterms = [
            term(j, c, j == 0) for j, c in enumerate(self.obj) if c != 0.0
        ] or ["0 x_nothing"]
        lines[-1] += " " + " ".join(objterms)
        lines.append("Subject To")
        for name, sense, rhs, idxs, coefs in self.rows:
            expr = " ".join(term(j, c, i == 0) for i, (j, c) in enumerate(zip(idxs, coefs)))
            op = {"<=": "<=", ">=": ">=", "==": "="}[sense]
            lines.append(f" {name}: {expr or '0 ' + self.var_names[0]} {op} {rhs:.12g}")
        lines.append("Bounds")
        for j, vname in enumerate(self.var_names):
            lines.append(f" {self.lb[j]:.12g} <= {vname} <= {self.ub[j]:.12g}")
        ints = [self.var_names[j] for j in range(self.n_vars) if self.integer[j]]
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
        return SolveResult(status="optimal", objective=0.0, x=np.empty(0), duals={})
    if model.n_integer == 0:
        return _solve_lp(model, model.lb, model.ub, time_limit)

    mat, lo, hi = model._constraint_matrix()
    options = {"mip_rel_gap": gap_tol}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(
        c=np.asarray(model.obj, dtype=float),
        constraints=[LinearConstraint(mat, lo, hi)] if model.rows else [],
        integrality=np.asarray(model.integer, dtype=int),
        bounds=Bounds(np.asarray(model.lb, float), np.asarray(model.ub, float)),
        options=options,
    )
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
    )


def fix_and_resolve(model, x):
    """Re-solve as an LP with every integer variable pinned to its value in
    ``x`` (rounded). This is the pricing run: continuous variables may move,
    commitments may not, and the result carries duals."""
    lb = list(model.lb)
    ub = list(model.ub)
    for j in range(model.n_vars):
        if model.integer[j]:
            v = float(np.round(x[j]))
            lb[j] = v
            ub[j] = v
    return _solve_lp(model, lb, ub, None)


def _solve_lp(model, lb, ub, time_limit):
    c = np.asarray(model.obj, dtype=float)
    data_ub, ri_ub, ci_ub, b_ub, ub_rows = [], [], [], [], []
    data_eq, ri_eq, ci_eq, b_eq, eq_rows = [], [], [], [], []
    for name, sense, rhs, idxs, coefs in model.rows:
        if sense == "==":
            r = len(b_eq)
            ri_eq.extend([r] * len(idxs))
            ci_eq.extend(idxs)
            data_eq.extend(coefs)
            b_eq.append(rhs)
            eq_rows.append(name)
        else:
            flip = -1.0 if sense == ">=" else 1.0
            r = len(b_ub)
            ri_ub.extend([r] * len(idxs))
            ci_ub.extend(idxs)
            data_ub.extend(flip * np.asarray(coefs))
            b_ub.append(flip * rhs)
            ub_rows.append((name, flip))
    kwargs = {}
    if b_ub:
        kwargs["A_ub"] = sparse.csr_matrix(
            (data_ub, (ri_ub, ci_ub)), shape=(len(b_ub), model.n_vars)
        )
        kwargs["b_ub"] = np.asarray(b_ub)
    if b_eq:
        kwargs["A_eq"] = sparse.csr_matrix(
            (data_eq, (ri_eq, ci_eq)), shape=(len(b_eq), model.n_vars)
        )
        kwargs["b_eq"] = np.asarray(b_eq)
    options = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = linprog(
        c,
        bounds=list(zip(lb, ub)),
        method="highs",
        options=options,
        **kwargs,
    )
    status = _LP_STATUS.get(res.status, "error")
    if status != "optimal":
        return SolveResult(status=status)
    duals = {}
    for name, marginal in zip(eq_rows, np.atleast_1d(res.eqlin.marginals) if b_eq else []):
        duals[name] = float(marginal)
    if b_ub:
        for (name, flip), marginal in zip(ub_rows, np.atleast_1d(res.ineqlin.marginals)):
            duals[name] = float(flip * marginal)
    return SolveResult(
        status="optimal",
        objective=float(res.fun),
        x=np.asarray(res.x),
        duals=duals,
        lower_bound_duals=np.asarray(res.lower.marginals),
        upper_bound_duals=np.asarray(res.upper.marginals),
    )


def require_optimal(result, context):
    """Raise InfeasibleModelError unless ``result`` is optimal."""
    if result.status == "optimal":
        return result
    raise InfeasibleModelError(f"{context}: solver returned {result.status}")

"""Solver wrapper tests: small problems with enumerable optima, plus the dual
conventions the pricing pass depends on."""

import itertools
import re
import time
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, OptimizeWarning
from scipy.optimize import linprog as scipy_linprog
from scipy.optimize import milp as scipy_milp

from frpsim import optim
from frpsim.optim import (
    InfeasibleModelError,
    Model,
    SolveResult,
    fix_and_resolve,
    require_optimal,
    solve,
    stack_rows,
)

from conftest import run_python


def test_empty_model_is_trivially_optimal():
    r = solve(Model())
    assert r.ok
    assert r.objective == 0.0
    assert r.x.size == 0


def test_single_var_lp():
    m = Model()
    x = m.add_vars("x", (), obj=1.0)
    m.add_rows("floor", ">=", 3.0, [x], 1.0)
    r = solve(m)
    assert r.ok
    assert r.objective == pytest.approx(3.0)
    assert r.x[x] == pytest.approx(3.0)


def test_duplicate_row_name_rejected():
    m = Model()
    x = m.add_vars("x", ())
    m.add_rows("c", "<=", 1.0, [x], 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        m.add_rows("c", "<=", 2.0, [x], 1.0)


def test_unknown_sense_rejected():
    m = Model()
    x = m.add_vars("x", ())
    with pytest.raises(ValueError, match="sense"):
        m.add_rows("c", "<", 1.0, [x], 1.0)


def test_knapsack_matches_enumeration():
    """0/1 knapsack solved as a MIP vs brute force over all subsets."""
    values = [10.0, 13.0, 7.0, 8.0, 4.0, 6.0]
    weights = [5.0, 6.0, 3.0, 4.0, 2.0, 3.0]
    cap = 11.0

    m = Model()
    xs = m.add_vars("x", len(values), ub=1.0, obj=-np.array(values), integer=True)
    m.add_rows("cap", "<=", cap, xs, weights)
    r = solve(m)
    assert r.ok

    best = max(
        sum(v for v, take in zip(values, pick) if take)
        for pick in itertools.product([0, 1], repeat=len(values))
        if sum(w for w, take in zip(weights, pick) if take) <= cap
    )
    assert -r.objective == pytest.approx(best)
    # MIP solves carry no duals; that's what fix_and_resolve is for
    assert r.duals is None
    assert r.mip_gap is not None and r.mip_gap <= 1e-6 + 1e-12


def test_equality_dual_is_marginal_cost():
    # cheap unit saturates, expensive unit is marginal: price = 50
    m = Model()
    p = m.add_vars("p", 2, ub=60.0, obj=[20.0, 50.0])
    bal = m.add_rows("bal", "==", 80.0, p, 1.0)
    r = solve(m)
    assert r.ok
    assert r.duals[bal] == pytest.approx(50.0)
    assert r.x[p] == pytest.approx([60.0, 20.0])


def test_geq_dual_sign_is_nonnegative_in_minimization():
    """duals[] is d(obj)/d(rhs), so a binding >= row must price >= 0."""

    def cover(rhs):
        m = Model()
        req = m.add_rows("req", ">=", rhs, m.add_vars("xy", 2, obj=[2.0, 3.0]), 1.0)
        return solve(m), req

    (r, req), (r2, _) = cover(10.0), cover(11.0)
    assert r.ok
    assert r.duals[req] == pytest.approx(2.0)  # cheapest way to serve one more unit
    # perturbation check: bump rhs and re-solve
    assert r2.objective - r.objective == pytest.approx(r.duals[req])


def test_complementary_slackness():
    m = Model()
    x = m.add_vars("x", (), ub=100.0, obj=1.0)
    # the roof is slack at the optimum
    floor, roof = m.add_rows("floor_roof", np.array([">=", "<="]), [5.0, 90.0], [[x], [x]], 1.0)
    r = solve(m)
    assert r.ok
    assert r.duals[floor] == pytest.approx(1.0)
    assert r.duals[roof] == 0.0


def test_strong_duality_including_bound_terms():
    """The row duals and the bound multipliers they imply, the reduced costs
    ``c - A'y`` (at the lower bound where positive, the upper where
    negative), price the optimum exactly."""
    rng = np.random.default_rng(7)
    m = Model()
    n = 8
    x = m.add_vars("x", n, ub=rng.uniform(1, 5, n), obj=rng.uniform(-2, 4, n))
    a = np.zeros((2, n))
    a[0] = rng.uniform(0.2, 1.0, n)  # mix
    a[1, [0, 3]] = [1.0, 2.0]  # side
    b = np.array([6.0, 4.0])
    rows = m.add_rows("mix_side", np.array(["==", "<="]), b, np.stack([x, x]), a)
    r = solve(m)
    assert r.ok
    y = r.duals[rows]
    reduced = m.obj - a.T @ y
    bounds = np.where(reduced > 0.0, m.lb, m.ub)
    assert y @ b + reduced @ bounds == pytest.approx(r.objective, abs=1e-8)


def test_infeasible_lp_reported_and_raises():
    m = Model()
    x = m.add_vars("x", (), ub=1.0)
    m.add_rows("impossible", ">=", 2.0, [x], 1.0)
    r = solve(m)
    assert r.status == "infeasible"
    assert not r.ok
    with pytest.raises(InfeasibleModelError, match="pricing"):
        require_optimal(r, "pricing")


def test_limit_failure_names_the_gap_and_bound():
    """A MILP stopped at a limit with an incumbent says how far from proven
    it stopped; a result without MIP fields keeps the plain message."""
    stopped = SolveResult(status="limit", objective=105.0, mip_gap=0.05, mip_dual_bound=99.75)
    with pytest.raises(
        InfeasibleModelError,
        match=r"^clearing: solver returned limit \(mip_gap 0\.05, mip_dual_bound 99\.75\)$",
    ):
        require_optimal(stopped, "clearing")
    with pytest.raises(InfeasibleModelError, match=r"^clearing: solver returned limit$"):
        require_optimal(SolveResult(status="limit"), "clearing")


def test_infeasible_mip_reported():
    m = Model()
    b = m.add_vars("b", (), ub=1.0, integer=True)
    m.add_rows("gap", "==", 1.0, [b], 2.0)
    assert solve(m).status == "infeasible"


def _small_uc_model():
    """One binary unit (fixed cost 100, marginal 10, cap 50) plus an expensive
    always-on unit (marginal 40, cap 100); demand 60."""
    m = Model()
    u = m.add_vars("u", (), ub=1.0, obj=100.0, integer=True)
    p = m.add_vars("p", (), ub=50.0, obj=10.0)
    q = m.add_vars("q", (), ub=100.0, obj=40.0)
    m.add_rows("cap", "<=", 0.0, [p, u], [1.0, -50.0])
    bal = m.add_rows("bal", "==", 60.0, [p, q], 1.0)
    return m, u, bal


def test_fix_and_resolve_recovers_duals_at_incumbent():
    m, u, bal = _small_uc_model()
    r = solve(m)
    assert r.ok
    # committing is worth it: 100 + 50*10 + 10*40 = 1000 < 60*40 = 2400
    assert r.objective == pytest.approx(1000.0)
    lp = fix_and_resolve(m, r.x)
    assert lp.ok
    # binary cost becomes a constant; dispatch must not move
    assert lp.objective == pytest.approx(r.objective)
    assert lp.x[u] == pytest.approx(1.0)
    assert lp.duals[bal] == pytest.approx(40.0)  # q is marginal


def test_fix_and_resolve_at_suboptimal_incumbent_bounds_from_above():
    m, u, _ = _small_uc_model()
    opt = solve(m).objective
    x = np.zeros(m.n_vars)
    x[u] = 0.0  # force the unit off
    lp = fix_and_resolve(m, x)
    assert lp.ok
    assert lp.objective == pytest.approx(2400.0)
    assert lp.objective >= opt - 1e-9


def test_write_lp_raises_naming_a_path_it_cannot_write(tmp_path):
    """The dump is an MPS file for a path ending in ``.mps`` and an LP file
    whatever other extension the path has (HiGHS picks its format from it;
    `test_model_fingerprint` reads both back). A path in a missing directory (on which HiGHS itself
    would crash) and names that collide once mapped to LP-safe ones (which
    HiGHS refuses to write) each raise OSError naming the path, and leave no
    file."""
    m, _, _ = _small_uc_model()
    m.write_lp(tmp_path / "uc.txt")
    assert (tmp_path / "uc.txt").read_text().startswith("\\ File written by HiGHS .lp")
    m.write_lp(tmp_path / "uc.mps")
    assert (tmp_path / "uc.mps").read_text().startswith("NAME")
    missing = tmp_path / "missing" / "uc.lp"
    with pytest.raises(OSError, match=re.escape(str(missing))):
        m.write_lp(missing)
    m.add_vars("a b", ())
    m.add_vars("a:b", ())  # both are written "a_b"
    with pytest.raises(OSError, match=re.escape(str(tmp_path / "uc.lp"))):
        m.write_lp(tmp_path / "uc.lp")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["uc.mps", "uc.txt"]


def test_row_blocks_match_scalar_rows():
    """A block of rows, zero-padded, gives the matrix of the same rows added
    one at a time: zero terms dropped, columns sorted within each row."""
    single, block = Model(), Model()
    for m in (single, block):
        m.add_vars("x", (2, 3), ub=5.0, obj=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    x = np.arange(6).reshape(2, 3)
    single.add_rows("a", "<=", 3.0, [x[0, 2], x[0, 0]], [1.0, -2.0])
    single.add_rows("b", ">=", 1.0, [x[0, 1]], 1.0)
    single.add_rows("c", "<=", 4.0, [x[1, 2], x[1, 0]], [1.0, -2.0])
    single.add_rows("d", ">=", 2.0, [x[1, 1]], 1.0)
    cols, coefs = stack_rows(
        [(x[:, 2], 1.0), (x[:, 0], -2.0)],
        [(x[:, 1], 1.0)],
    )
    assert cols.shape == (2, 2, 2) and coefs[0, 1].tolist() == [1.0, 0.0]
    rows = block.add_rows("ab", np.array(["<=", ">="]), [[3.0, 1.0], [4.0, 2.0]], cols, coefs)
    assert rows.tolist() == [[0, 1], [2, 3]]
    (a, lo_a, hi_a), (b, lo_b, hi_b) = single._constraint_matrix(), block._constraint_matrix()
    for got, want in ((b.indptr, a.indptr), (b.indices, a.indices), (b.data, a.data)):
        assert np.array_equal(got, want)
    assert np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b)
    assert a.nnz == 6


def _dense(mat):
    """``mat`` (an `optim.Csr`) as a dense array."""
    out = np.zeros(mat.shape)
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    np.add.at(out, (rows, mat.indices), mat.data)
    return out


def test_rows_after_a_solve_extend_the_matrix():
    """The matrix is assembled once; a row added after a solve is appended to
    it, and the LP duals come back indexed like the rows."""
    m = Model()
    x = m.add_vars("x", 2, ub=10.0, obj=[1.0, 2.0])
    first = m.add_rows("floor", ">=", 4.0, x[None, :], 1.0)
    r = solve(m)
    assert r.ok and r.x.tolist() == [4.0, 0.0]
    assert (r.rows, r.cols, r.nnz, r.binaries) == (1, 2, 2, 0)
    assembled = m._constraint_matrix()[0]
    cap = m.add_rows("cap", "<=", 1.0, [x[0]], 1.0)
    r = solve(m)
    assert r.ok and r.objective == pytest.approx(1.0 + 2.0 * 3.0)
    mat = m._constraint_matrix()[0]
    assert mat.shape == (2, 2) and np.array_equal(_dense(mat)[:1], _dense(assembled))
    assert r.duals[first[0]] == pytest.approx(2.0)
    assert r.duals[cap] == pytest.approx(-1.0)


def test_fix_and_resolve_reuses_the_matrix():
    m, u, bal = _small_uc_model()
    r = solve(m)
    assert (r.rows, r.cols, r.nnz, r.binaries) == (2, 3, 4, 1)
    mat = m._constraint_matrix()[0]
    lp = fix_and_resolve(m, r.x)
    assert m._constraint_matrix()[0] is mat
    assert lp.duals.shape == (2,) and lp.binaries == 0
    assert m.lb[u] == 0.0  # the pinning lives in the LP's bounds only


def test_duplicate_variable_name_rejected():
    m = Model()
    m.add_vars("x", 3)
    with pytest.raises(ValueError, match="duplicate"):
        m.add_vars("x", ())


def _cover_model():
    m = Model()
    x = m.add_vars("x", 3, ub=1.0, obj=[1.0, 2.0, 3.0], integer=True)
    m.add_rows("cover", ">=", 2.0, x, 1.0)
    return m


def test_milp_options_reach_highs(monkeypatch):
    """Every switch of `optim.MILP_OPTIONS` (two root heuristics, RINS, RENS
    and symmetry detection) reaches the HiGHS call next to the gap, and
    HiGHS accepts them: with every warning an error, a MILP still solves.
    A start keeps presolve unless presolve is asked off; `complete` runs its
    LP with presolve off."""
    seen = []
    real = optim.milp

    def milp(**kw):
        seen.append(kw["options"])
        return real(**kw)

    monkeypatch.setattr(optim, "milp", milp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve(_cover_model(), gap_tol=1e-4)
        warm = solve(_cover_model(), gap_tol=1e-4, start=np.ones(3))
        bare = solve(_cover_model(), gap_tol=1e-4, start=np.ones(3), presolve=False)
        done = optim.complete(_cover_model(), np.arange(2), np.ones(2))
    for res in (r, warm, bare, done):
        assert res.ok and res.objective == pytest.approx(3.0)
    cold, started, unpresolved, completion = seen
    for options in (cold, started, unpresolved):
        for key in (
            "mip_heuristic_run_root_reduced_cost", "mip_heuristic_run_feasibility_jump",
            "mip_heuristic_run_rins", "mip_heuristic_run_rens", "mip_detect_symmetry",
        ):
            assert options[key] is False
        assert options["mip_rel_gap"] == 1e-4
    assert "presolve" not in cold and "presolve" not in started
    assert unpresolved["presolve"] == "off"
    assert completion == {"presolve": "off"}


def _lp_model():
    m = Model()
    x = m.add_vars("x", (), obj=1.0)
    m.add_rows("floor", ">=", 3.0, [x], 1.0)
    return m


def test_a_deadline_becomes_highs_time_limit(monkeypatch):
    """`solve` (MILP and LP) and `complete` give HiGHS the seconds left
    before the deadline as its time limit, and no limit without one."""
    seen = []
    real_milp, real_linprog = optim.milp, optim.linprog
    monkeypatch.setattr(
        optim, "milp", lambda *a, **kw: seen.append(kw["options"]) or real_milp(*a, **kw)
    )
    monkeypatch.setattr(
        optim, "linprog", lambda *a, **kw: seen.append(kw["options"]) or real_linprog(*a, **kw)
    )
    deadline = time.perf_counter() + 100.0
    for res in (
        solve(_cover_model(), deadline=deadline),
        solve(_lp_model(), deadline=deadline),
        optim.complete(_cover_model(), np.arange(2), np.ones(2), deadline),
    ):
        assert res.ok
    assert [0.0 < options["time_limit"] <= 100.0 for options in seen] == [True] * 3
    seen.clear()
    assert solve(_cover_model()).ok and solve(_lp_model()).ok
    assert ["time_limit" in options for options in seen] == [False, False]


def test_past_the_deadline_highs_gets_no_model(monkeypatch):
    """Once the deadline has passed, `solve` (MILP and LP) and `complete`
    return status "limit" without handing HiGHS a model."""

    def refused(*args):
        raise AssertionError("a model reached HiGHS past its deadline")

    monkeypatch.setattr(optim, "_pass_model", refused)
    deadline = time.perf_counter()
    for res in (
        solve(_cover_model(), deadline=deadline),
        solve(_lp_model(), deadline=deadline),
        optim.complete(_cover_model(), np.arange(2), np.ones(2), deadline),
    ):
        assert res.status == "limit" and res.x is None
    with pytest.raises(InfeasibleModelError, match="solver returned limit$"):
        require_optimal(solve(_cover_model(), deadline=deadline - 1.0), "late")


def test_an_option_highs_rejects_still_warns(monkeypatch):
    """Only scipy's note on passing options through is silenced; HiGHS
    refusing one (and so running without it) is not."""
    monkeypatch.setitem(optim.MILP_OPTIONS, "mip_no_such_option", False)
    with pytest.warns(OptimizeWarning, match="mip_no_such_option"):
        assert solve(_cover_model()).ok


def test_fix_and_resolve_pins_are_canonical(monkeypatch):
    """A binary solved at -1e-12 is pinned at +0.0, not at -0.0."""
    seen = []
    real = optim.linprog

    def linprog(c, **kw):
        seen.append(np.asarray(kw["bounds"]))
        return real(c, **kw)

    monkeypatch.setattr(optim, "linprog", linprog)
    m = Model()
    b = m.add_vars("b", (), ub=1.0, obj=1.0, integer=True)
    y = m.add_vars("y", (), obj=2.0)
    m.add_rows("c", ">=", 0.5, [b, y], 1.0)
    r = fix_and_resolve(m, np.array([-1e-12, 0.5]))
    assert r.ok and r.objective == pytest.approx(1.0)
    (bounds,) = seen
    assert bounds[b].tolist() == [0.0, 0.0]
    assert not np.signbit(bounds[b]).any()


def test_lp_solves_report_highs_time_and_simplex_iterations(monkeypatch):
    """An LP's result carries the seconds of its HiGHS run and the
    simplex iterations linprog reports (``nit``); a completion's LP, which
    goes through `optim.milp`, carries its simplex iterations too."""
    seen = []
    real = optim.linprog

    def linprog(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(optim, "linprog", linprog)
    # a transportation LP, 3 supplies by 4 demands, that presolve leaves
    # to the simplex
    m = Model()
    x = m.add_vars("x", (3, 4), obj=[[4, 6, 9, 5], [7, 3, 8, 6], [5, 8, 4, 7]])
    m.add_rows("supply", "<=", [30.0, 40.0, 35.0], x, 1.0)
    m.add_rows("demand", ">=", [20.0, 25.0, 30.0, 15.0], x.T, 1.0)
    r = optim.solve(m)
    (res,) = seen
    assert r.ok and r.highs_s > 0.0
    assert r.simplex_iterations == res.nit >= 1
    assert r.highs == {"highs_s": r.highs_s, "simplex_iterations": r.simplex_iterations}
    done = optim.complete(m, x[0, :1], [20.0])
    assert done.ok and done.simplex_iterations >= 1
    assert done.highs == {"highs_s": done.highs_s, "simplex_iterations": done.simplex_iterations}


def test_private_highs_binding_has_every_method_used():
    """`optim` solves and writes models through scipy's private HiGHS
    binding; a scipy that moves or renames any part it uses fails here, not
    mid-run."""
    from scipy.optimize._highspy import _core

    assert _core is optim._highs
    for name in ("setOptionValue", "passModel", "passColName", "passRowName",
                 "writeModel", "setSolution", "run", "getModelStatus", "getInfo",
                 "getSolution"):
        assert callable(getattr(_core._Highs, name)), name
    for name in ("HighsSolution", "HighsModelStatus", "HighsStatus", "MatrixFormat",
                 "ObjSense", "kHighsInf"):
        assert hasattr(_core, name), name
    info = _core._Highs().getInfo()
    for name in ("objective_function_value", "mip_gap", "mip_node_count", "mip_dual_bound",
                 "simplex_iteration_count", "ipm_iteration_count"):
        assert hasattr(info, name), name
    for name in ("col_value", "row_value", "row_dual"):
        assert hasattr(_core.HighsSolution(), name), name


def test_solves_leave_out_scipy_optimize():
    """scipy.optimize's package init (linprog, minimize, scipy.linalg, ...)
    costs every frp-sim process about 19 MB and 0.12 s; an LP and a MILP
    solve with only the HiGHS binding loaded."""
    code = (
        "import sys, numpy as np, frpsim, frpsim.harness, frpsim.cli\n"
        "from frpsim import optim\n"
        "assert frpsim.__file__.startswith(sys.argv[1]), frpsim.__file__\n"
        "for integer in (False, True):\n"
        "    m = optim.Model()\n"
        "    x = m.add_vars('x', 3, ub=1.0, obj=[1.0, 2.0, 3.0], integer=integer)\n"
        "    m.add_rows('cover', '>=', 1.5, x, 1.0)\n"
        "    r = optim.solve(m)\n"
        "    assert r.ok and r.objective == (3.0 if integer else 2.0), r\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']\n"
        "             and not m.startswith(optim._highs.__name__)))"
    )
    assert run_python(code) == "[]"


def test_solves_leave_out_scipy():
    """scipy.sparse and scipy.special, with the scipy._lib chain they share,
    cost every frp-sim process about 20 MB; the package, an LP, a MILP and
    the percentile rule run with only the HiGHS binding loaded from scipy."""
    code = (
        "import sys, numpy as np, frpsim, frpsim.harness, frpsim.cli\n"
        "from frpsim import NetLoadProfile, TimeGrid, optim, percentile_requirements\n"
        "assert frpsim.__file__.startswith(sys.argv[1]), frpsim.__file__\n"
        "for integer in (False, True):\n"
        "    m = optim.Model()\n"
        "    x = m.add_vars('x', 3, ub=1.0, obj=[1.0, 2.0, 3.0], integer=integer)\n"
        "    m.add_rows('cover', '>=', 1.5, x, 1.0)\n"
        "    r = optim.solve(m)\n"
        "    assert r.ok and r.objective == (3.0 if integer else 2.0), r\n"
        "fc = NetLoadProfile(('b1',), TimeGrid(2, 1), np.array([[1.0, 2.0]]))\n"
        "assert percentile_requirements(fc, 0.1, 0.95).up[0] > 1.0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             and not m.startswith(optim._highs.__name__)))"
    )
    assert run_python(code) == "[]"


def test_highs_s_is_the_run_inside_the_solve():
    """``highs_s`` times HiGHS's run alone, so it is positive and within the
    wall time of the `optim.solve` call that holds it, LP and MILP alike."""
    for integer in (False, True):
        m = Model()
        x = m.add_vars("x", (3, 4), obj=[[4, 6, 9, 5], [7, 3, 8, 6], [5, 8, 4, 7]],
                       integer=integer)
        m.add_rows("supply", "<=", [30.0, 40.0, 35.0], x, 1.0)
        m.add_rows("demand", ">=", [20.0, 25.0, 30.0, 15.0], x.T, 1.0)
        t0 = time.perf_counter()
        r = solve(m)
        wall = time.perf_counter() - t0
        assert r.ok and 0.0 < r.highs_s <= wall


def _bits(a):
    """The bytes of ``a``, integer arrays widened to int64, so -0.0 and 0.0
    differ and int32 and int64 indices do not."""
    a = np.asarray(a)
    return (a.astype(np.int64) if a.dtype.kind in "iu" else a).tobytes()


def _compressed(m):
    return m.indptr, m.indices, m.data


def _same(ours, theirs):
    """Equal arrays, in order, bit for bit."""
    assert [_bits(a) for a in ours] == [_bits(a) for a in theirs]


def _random_rows(seed):
    """Rows as `Model.add_rows` hands them to `optim._csr`: (data, columns,
    entries per row, columns in all). Row 0 holds four terms on one column
    whose sum depends on its order; row 1 a pair that cancels to an explicit
    zero; some rows are empty and the last three columns are never used.

    Short rows (at most 16 entries) carry arbitrary floats. scipy sorts a
    row's entries with ``std::sort``, which in libstdc++ is stable only up to
    16 entries (insertion sort); longer rows therefore carry small integers,
    whose sums are exact in any order, so the comparison tests the sort and
    not the order in which scipy happens to add a long row's duplicates."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = 40, 30
    counts = rng.integers(0, 17, n_rows)
    picked = rng.choice(np.arange(2, n_rows), 10, replace=False)
    counts[picked[:6]] = 0
    counts[picked[6:]] = rng.integers(30, 80, 4)
    counts[0], counts[1] = 5, 3
    cols = rng.integers(0, n_cols - 3, counts.sum())
    data = rng.standard_normal(counts.sum()) * 10.0 ** rng.integers(-6, 7, counts.sum())
    starts = np.concatenate([[0], np.cumsum(counts)])
    for r in np.flatnonzero(counts > 16):
        data[starts[r]:starts[r + 1]] = rng.integers(-4, 5, counts[r])
    cols[0:5] = [7, 2, 7, 7, 7]
    data[0:5] = [1e16, 0.5, 1.0, -1e16, 3.0]  # (1e16 + 1) - 1e16 + 3 = 3
    cols[5:8] = [4, 9, 4]
    data[5:8] = [2.5, 1.0, -2.5]
    return data, cols, counts, n_cols


@pytest.mark.parametrize("seed", range(5))
def test_csr_arrays_equal_scipy_sparse(seed):
    """`optim` assembles, slices and converts its matrix with numpy alone;
    each step gives scipy.sparse's arrays bit for bit: canonical rows
    (columns sorted, duplicates summed in order, cancelled sums kept as
    explicit zeros), row subsets, the CSC `milp` hands HiGHS and the stacked
    CSC `linprog` hands it."""
    data, cols, counts, n_cols = _random_rows(seed)
    ours = optim._csr(data, cols, counts, n_cols)
    theirs = sparse.csr_matrix(
        (data, cols, np.concatenate([[0], np.cumsum(counts)])), shape=(len(counts), n_cols)
    )
    theirs.sum_duplicates()
    assert ours.shape == theirs.shape and ours.nnz == theirs.nnz
    _same(_compressed(ours), _compressed(theirs))
    # row 0: 0.5 at column 2, 3.0 at 7; row 1: the explicit zero at 4, 1.0 at 9
    assert ours.indices[:4].tolist() == [2, 7, 4, 9]
    _same([ours.data[:4]], [[0.5, 3.0, 0.0, 1.0]])
    assert (ours.indptr[1:] == ours.indptr[:-1]).sum() >= 6
    assert ours.indices.max() < ours.shape[1] - 3

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(counts), 60)  # repeats, empty rows and all
    for pick in (rows, np.sort(np.unique(rows)), np.array([], dtype=np.int64)):
        part = optim._take_rows(ours, pick)
        assert part.shape == theirs[pick].shape
        _same(_compressed(part), _compressed(theirs[pick]))

    _same(optim._csc(ours), _compressed(theirs.tocsc()))
    top, bottom = rows[:30], rows[30:]
    stacked = optim._vstack(optim._take_rows(ours, top), optim._take_rows(ours, bottom))
    _same(optim._csc(stacked), _compressed(sparse.csc_array(sparse.vstack([
        sparse.coo_array(theirs[top], dtype=np.float64),
        sparse.coo_array(theirs[bottom], dtype=np.float64),
    ]))))


@pytest.mark.parametrize("first", ["frpsim", "scipy.optimize"])
def test_one_highs_binding_whichever_imports_first(first):
    """frp-sim loads the binding under scipy's name, so scipy.optimize
    imported before or after it finds the same module: one `_Highs` class,
    a binding loaded first is reused, and scipy's own linprog still works."""
    code = (
        "import importlib, sys\n"
        "importlib.import_module(sys.argv[2])\n"
        "first = sys.modules['scipy.optimize._highspy._core']\n"
        "import scipy.optimize\n"
        "from frpsim import optim\n"
        "from scipy.optimize._highspy import _core\n"
        "assert _core is first is optim._highs and _core._Highs is optim._highs._Highs\n"
        "print(scipy.optimize.linprog([1.0], bounds=[(2.0, 3.0)]).fun)"
    )
    assert run_python(code, first) == "2.0"


def _ours(m):
    """The `optim.Csr` of a scipy CSR matrix."""
    return optim.Csr(m.data, m.indices, m.indptr, m.shape)


def _lp_kwargs(case):
    """linprog's keywords for a 3 x 4 transportation LP with <= supply rows,
    >= demand rows (negated into A_ub, as `optim` hands them) and one
    equality, or a variant of it; the matrices as scipy CSR."""
    cost = np.array([[4, 6, 9, 5], [7, 3, 8, 6], [5, 8, 4, 7]], dtype=float)
    supply, demand = np.array([30.0, 40.0, 35.0]), np.array([20.0, 25.0, 30.0, 15.0])
    cells = np.arange(12).reshape(3, 4)
    a_ub = np.zeros((7, 12))
    for i in range(3):
        a_ub[i, cells[i]] = 1.0
    for j in range(4):
        a_ub[3 + j, cells[:, j]] = -1.0
    a_eq = np.zeros((1, 12))
    a_eq[0, cells[0]] = 1.0  # supply 0 ships exactly 20
    if case == "unbounded":  # a cell that pays to ship and no supply caps
        cost[1, 1] = -1.0
        a_ub[1, cells[1, 1]] = 0.0
    bounds = np.column_stack([np.zeros(12), np.full(12, np.inf)])
    kwargs = dict(
        A_ub=sparse.csr_matrix(a_ub), b_ub=np.concatenate([supply, -demand]),
        A_eq=sparse.csr_matrix(a_eq), b_eq=np.array([20.0]), bounds=bounds,
        options={"presolve": True},
    )
    if case == "infeasible":  # more demand than supply
        kwargs["b_ub"] = np.concatenate([supply, -demand - 40.0])
    elif case == "time-limit":
        kwargs["options"]["time_limit"] = 0.0
    return cost.ravel(), kwargs


@pytest.mark.parametrize(
    "case, status",
    [("optimal", 0), ("infeasible", 2), ("unbounded", 3), ("time-limit", 1)],
)
def test_linprog_equals_scipy_field_by_field(case, status):
    """`optim.linprog` hands HiGHS what scipy's linprog does, so every field
    the pricing and real-time passes read is the same, bit for bit: the
    status code, the iterations, the solution and objective, and the row
    duals in linprog's order, ``A_ub``'s marginals then ``A_eq``'s."""
    c, kwargs = _lp_kwargs(case)
    run = optim.linprog(c, **kwargs | {k: _ours(kwargs[k]) for k in ("A_ub", "A_eq")})
    ours = run.result
    theirs = scipy_linprog(c, method="highs", **kwargs)
    assert run.status == theirs.status == status
    assert run.nit == ours.simplex_iterations == theirs.nit
    assert (ours.x is None) == (theirs.x is None)
    if theirs.x is not None:
        assert np.array_equal(ours.x, theirs.x) and ours.objective == theirs.fun
    else:
        assert ours.objective is None
    assert (ours.duals is None) == (theirs.ineqlin.marginals is None)
    if ours.duals is not None:
        scipys = np.concatenate([theirs.ineqlin.marginals, theirs.eqlin.marginals])
        assert _bits(ours.duals) == _bits(scipys)


def _knapsack_kwargs(options=None, integer=True, cap_frac=1 / 3, scipy=False):
    """milp's keywords for a 30-item knapsack as `optim` passes them (a
    `optim.Csr`, full-length arrays) or, with ``scipy``, the same model in
    scipy's types."""
    rng = np.random.default_rng(0)
    values = rng.integers(5, 40, 30).astype(float)
    weights = sparse.csr_matrix(rng.integers(3, 30, 30).astype(float)[None])
    bounds, con = (Bounds, LinearConstraint) if scipy else (optim.Bounds, optim.LinearConstraint)
    return dict(
        c=-values,
        integrality=np.full(30, int(integer), dtype=np.int32),
        bounds=bounds(np.zeros(30), np.ones(30)),
        constraints=[con(
            weights if scipy else _ours(weights),
            np.array([-np.inf]), np.array([cap_frac * weights.sum()]),
        )],
        options=options or {},
    )


@pytest.mark.parametrize(
    "case, kwargs",
    [
        ("optimal", {}),
        ("infeasible", {"cap_frac": -1.0}),
        ("time-limit", {"options": {"time_limit": 0.0}}),
        ("lp-only", {"integer": False}),
    ],
)
def test_milp_gives_scipy_shaped_results(case, kwargs):
    """Status code, solution, objective and MIP fields as
    scipy.optimize.milp gives them for the same call."""
    run = optim.milp(**_knapsack_kwargs(**kwargs))
    ours = run.result
    theirs = scipy_milp(**_knapsack_kwargs(**kwargs, scipy=True))
    assert run.status == theirs.status == {
        "optimal": 0, "infeasible": 2, "time-limit": 1, "lp-only": 0
    }[case]
    assert (ours.x is None) == (theirs.x is None)
    if theirs.x is not None:
        assert np.array_equal(ours.x, theirs.x)
        assert ours.objective == theirs.fun
    for key in ("mip_gap", "mip_node_count", "mip_dual_bound"):
        assert getattr(ours, key) == getattr(theirs, key)
    assert run.mip_node_count == ours.mip_node_count
    if case == "lp-only":
        assert ours.mip_node_count is None and ours.mip_gap is None


def test_milp_keeps_a_feasible_start_and_drops_an_infeasible_one():
    """Stopped before any search, HiGHS returns the start as its incumbent;
    given time it proves the optimum, whatever the start."""
    start = np.zeros(30)
    stopped = optim.milp(**_knapsack_kwargs({"time_limit": 0.0}), start=start)
    assert stopped.status == 1 and np.array_equal(stopped.result.x, start)
    best = optim.milp(**_knapsack_kwargs()).result.objective
    for start in (np.zeros(30), np.ones(30)):  # feasible, then over capacity
        res = optim.milp(**_knapsack_kwargs(), start=start)
        assert res.status == 0 and res.result.objective == pytest.approx(best)


def test_complete_pins_columns_and_solves_the_rest():
    """The completion of a cover with one column pinned is an LP: the others
    take the cheapest fractional fill, and it carries no MIP fields."""
    m = _cover_model()
    done = optim.complete(m, np.array([2]), np.array([1.0]))
    assert done.ok and done.objective == pytest.approx(3.0 + 1.0)
    assert done.x.tolist() == pytest.approx([1.0, 0.0, 1.0])
    assert done.mip_node_count is None and done.binaries == 0
    assert not optim.complete(m, np.array([0, 1, 2]), np.zeros(3)).ok  # cover broken
    # as a start, the pinned completion leaves the proven optimum alone
    assert solve(m, start=done.x).objective == pytest.approx(3.0)


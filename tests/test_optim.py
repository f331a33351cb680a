"""Solver wrapper tests: small problems with enumerable optima, plus the dual
conventions the pricing pass depends on."""

import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning

from frpsim import optim
from frpsim.optim import (
    InfeasibleModelError,
    Model,
    fix_and_resolve,
    require_optimal,
    solve,
    stack_rows,
)


def test_empty_model_is_trivially_optimal():
    r = solve(Model())
    assert r.ok
    assert r.objective == 0.0
    assert r.x.size == 0


def test_single_var_lp():
    m = Model()
    x = m.add_var("x", lb=0.0, obj=1.0)
    m.add_constr("floor", {x: 1.0}, ">=", 3.0)
    r = solve(m)
    assert r.ok
    assert r.objective == pytest.approx(3.0)
    assert r.x[x] == pytest.approx(3.0)


def test_duplicate_row_name_rejected():
    m = Model()
    x = m.add_var("x")
    m.add_constr("c", {x: 1.0}, "<=", 1.0)
    with pytest.raises(ValueError, match="duplicate"):
        m.add_constr("c", {x: 1.0}, "<=", 2.0)


def test_unknown_sense_rejected():
    m = Model()
    x = m.add_var("x")
    with pytest.raises(ValueError, match="sense"):
        m.add_constr("c", {x: 1.0}, "<", 1.0)


def test_knapsack_matches_enumeration():
    """0/1 knapsack solved as a MIP vs brute force over all subsets."""
    values = [10.0, 13.0, 7.0, 8.0, 4.0, 6.0]
    weights = [5.0, 6.0, 3.0, 4.0, 2.0, 3.0]
    cap = 11.0

    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}", obj=-values[i]) for i in range(len(values))]
    m.add_constr("cap", {x: w for x, w in zip(xs, weights)}, "<=", cap)
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
    p1 = m.add_var("p1", lb=0, ub=60, obj=20.0)
    p2 = m.add_var("p2", lb=0, ub=60, obj=50.0)
    bal = m.add_constr("bal", {p1: 1.0, p2: 1.0}, "==", 80.0)
    r = solve(m)
    assert r.ok
    assert r.duals[bal] == pytest.approx(50.0)
    assert r.x[p1] == pytest.approx(60.0)
    assert r.x[p2] == pytest.approx(20.0)


def test_geq_dual_sign_is_nonnegative_in_minimization():
    """duals[] is d(obj)/d(rhs), so a binding >= row must price >= 0."""
    m = Model()
    x = m.add_var("x", lb=0.0, obj=2.0)
    y = m.add_var("y", lb=0.0, obj=3.0)
    req = m.add_constr("req", {x: 1.0, y: 1.0}, ">=", 10.0)
    r = solve(m)
    assert r.ok
    assert r.duals[req] == pytest.approx(2.0)  # cheapest way to serve one more unit
    # perturbation check: bump rhs and re-solve
    m2 = Model()
    x2 = m2.add_var("x", lb=0.0, obj=2.0)
    y2 = m2.add_var("y", lb=0.0, obj=3.0)
    m2.add_constr("req", {x2: 1.0, y2: 1.0}, ">=", 11.0)
    r2 = solve(m2)
    assert r2.objective - r.objective == pytest.approx(r.duals[req])


def test_complementary_slackness():
    m = Model()
    x = m.add_var("x", lb=0, ub=100, obj=1.0)
    floor = m.add_constr("floor", {x: 1.0}, ">=", 5.0)
    roof = m.add_constr("roof", {x: 1.0}, "<=", 90.0)  # slack at optimum
    r = solve(m)
    assert r.ok
    assert r.duals[floor] == pytest.approx(1.0)
    assert r.duals[roof] == 0.0


def test_strong_duality_including_bound_terms():
    rng = np.random.default_rng(7)
    m = Model()
    n = 8
    xs = [m.add_var(f"x{j}", lb=0.0, ub=float(rng.uniform(1, 5)), obj=float(rng.uniform(-2, 4))) for j in range(n)]
    mix = m.add_constr("mix", {xs[j]: float(rng.uniform(0.2, 1.0)) for j in range(n)}, "==", 6.0)
    side = m.add_constr("side", {xs[0]: 1.0, xs[3]: 2.0}, "<=", 4.0)
    r = solve(m)
    assert r.ok
    dual_obj = r.duals[mix] * 6.0 + r.duals[side] * 4.0
    for j in range(n):
        if r.lower_bound_duals[j] != 0.0:
            dual_obj += r.lower_bound_duals[j] * m.lb[j]
        if r.upper_bound_duals[j] != 0.0:
            dual_obj += r.upper_bound_duals[j] * m.ub[j]
    assert dual_obj == pytest.approx(r.objective, abs=1e-8)


def test_infeasible_lp_reported_and_raises():
    m = Model()
    x = m.add_var("x", lb=0.0, ub=1.0)
    m.add_constr("impossible", {x: 1.0}, ">=", 2.0)
    r = solve(m)
    assert r.status == "infeasible"
    assert not r.ok
    with pytest.raises(InfeasibleModelError, match="pricing"):
        require_optimal(r, "pricing")


def test_infeasible_mip_reported():
    m = Model()
    b = m.add_binary("b")
    m.add_constr("gap", {b: 2.0}, "==", 1.0)
    assert solve(m).status == "infeasible"


def _small_uc_model():
    """One binary unit (fixed cost 100, marginal 10, cap 50) plus an expensive
    always-on unit (marginal 40, cap 100); demand 60."""
    m = Model("uc")
    u = m.add_binary("u", obj=100.0)
    p = m.add_var("p", lb=0.0, ub=50.0, obj=10.0)
    q = m.add_var("q", lb=0.0, ub=100.0, obj=40.0)
    m.add_constr("cap", {p: 1.0, u: -50.0}, "<=", 0.0)
    bal = m.add_constr("bal", {p: 1.0, q: 1.0}, "==", 60.0)
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


def test_write_lp_smoke(tmp_path):
    m, _, _ = _small_uc_model()
    path = tmp_path / "uc.lp"
    m.write_lp(path)
    text = path.read_text()
    assert "Minimize" in text
    assert "bal:" in text
    assert "General" in text
    assert "u" in text


def test_row_blocks_match_scalar_rows():
    """A block of rows, zero-padded, gives the matrix of the same rows added
    one at a time: zero terms dropped, columns sorted within each row."""
    scalar, block = Model(), Model()
    for m in (scalar, block):
        m.add_vars("x", (2, 3), ub=5.0, obj=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    x = np.arange(6).reshape(2, 3)
    scalar.add_constr("a", {x[0, 2]: 1.0, x[0, 0]: -2.0}, "<=", 3.0)
    scalar.add_constr("b", {x[0, 1]: 1.0}, ">=", 1.0)
    scalar.add_constr("c", {x[1, 2]: 1.0, x[1, 0]: -2.0}, "<=", 4.0)
    scalar.add_constr("d", {x[1, 1]: 1.0}, ">=", 2.0)
    cols, coefs = stack_rows(
        [(x[:, 2], 1.0), (x[:, 0], -2.0)],
        [(x[:, 1], 1.0)],
    )
    assert cols.shape == (2, 2, 2) and coefs[0, 1].tolist() == [1.0, 0.0]
    rows = block.add_rows("ab", np.array(["<=", ">="]), [[3.0, 1.0], [4.0, 2.0]], cols, coefs)
    assert rows.tolist() == [[0, 1], [2, 3]]
    (a, lo_a, hi_a), (b, lo_b, hi_b) = scalar._constraint_matrix(), block._constraint_matrix()
    for got, want in ((b.indptr, a.indptr), (b.indices, a.indices), (b.data, a.data)):
        assert np.array_equal(got, want)
    assert np.array_equal(lo_a, lo_b) and np.array_equal(hi_a, hi_b)
    assert a.nnz == 6


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
    cap = m.add_constr("cap", {int(x[0]): 1.0}, "<=", 1.0)
    r = solve(m)
    assert r.ok and r.objective == pytest.approx(1.0 + 2.0 * 3.0)
    mat = m._constraint_matrix()[0]
    assert mat.shape == (2, 2) and np.array_equal(mat[:1].toarray(), assembled.toarray())
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
        m.add_var("x")


def _cover_model():
    m = Model()
    xs = [m.add_binary(f"x{i}", obj=1.0 + i) for i in range(3)]
    m.add_constr("cover", {x: 1.0 for x in xs}, ">=", 2.0)
    return m


def test_milp_options_reach_highs(monkeypatch):
    """Both heuristic switches reach the HiGHS call next to the gap, and
    HiGHS accepts them: with every warning an error, a MILP still solves."""
    seen = []
    real = optim.milp

    def milp(**kw):
        seen.append(kw["options"])
        return real(**kw)

    monkeypatch.setattr(optim, "milp", milp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve(_cover_model(), gap_tol=1e-4)
    assert r.ok and r.objective == pytest.approx(3.0)
    (options,) = seen
    assert options["mip_heuristic_run_root_reduced_cost"] is False
    assert options["mip_heuristic_run_feasibility_jump"] is False
    assert options["mip_rel_gap"] == 1e-4


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
    b = m.add_binary("b", obj=1.0)
    y = m.add_var("y", obj=2.0)
    m.add_constr("c", {b: 1.0, y: 1.0}, ">=", 0.5)
    r = fix_and_resolve(m, np.array([-1e-12, 0.5]))
    assert r.ok and r.objective == pytest.approx(1.0)
    (bounds,) = seen
    assert bounds[b].tolist() == [0.0, 0.0]
    assert not np.signbit(bounds[b]).any()


def test_milp_totals_sum_the_rounds_and_keep_the_last_bound():
    totals = optim.MilpTotals()
    for secs, nodes, bound in ((0.5, 3, 10.0), (0.25, 1, 12.0)):
        res = optim.SolveResult(
            "optimal", highs_s=secs, mip_node_count=nodes, mip_dual_bound=bound
        )
        assert totals.add(res) is res
    assert totals.record == {"highs_s": 0.75, "mip_node_count": 4, "mip_dual_bound": 12.0}

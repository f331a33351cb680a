"""Fingerprints of what HiGHS receives for a few representative models.

Each digest hashes the objective, the constraint matrix in canonical CSR form
(``indptr``/``indices``/``data``), the row bounds, the column bounds and the
integrality of one solver call, read at the `optim.milp`/`optim.linprog`
boundary. The digests are frozen: a change to how models are assembled must
hand the solver the same columns and rows, in the same order, with the same
coefficients, bit for bit. A formulation change that moves one on purpose
updates the frozen value with a word on why.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import sparse

from frpsim import (
    DamBidSet,
    FrpRequirements,
    NetLoadProfile,
    TimeGrid,
    clear_dam,
    load_system,
    optim,
    simulate_rtm,
    solve_suc,
)
from frpsim.data import case_path
from frpsim.requirements import zero_requirements

from conftest import force_suc_fallback, scenario_set
from test_network import LOAD, congested  # noqa: F401 - the fixture is used

# Every digest was re-frozen when a unit's output above minimum became the
# sum of its offer-segment columns: each model lost its p column and its
# p = sum-of-segments row per unit and period (see `dispatch`), so every
# matrix changed. The optima did not (test_dispatch_equivalence), but the
# ieee14 models below reach them through one screening round more or less.
FROZEN = {
    "dam-ramp-toy": "4819bd4d7da200a8",
    "dam-ramp-toy-pricing": "e09e4c3f8e9a3fa5",
    "suc-ramp-toy-4pph": "70e561363349bf32",
    # the expected-value MILP and the LP completing its commitment, solved
    # ahead of the stochastic MILP to give it a start
    "suc-ramp-toy-4pph-ev": "27c3c29774712947",
    # the EV model's LP relaxation and the LP completing its rounded
    # commitment, solved ahead of the EV MILP to give it a start; the
    # completion re-frozen when every completion became one LP per block
    # (see `optim.complete`): it holds the dispatch columns and rows alone,
    # the commitment's part of them moved to the row bounds
    "suc-ramp-toy-4pph-ev-relaxation": "ab5997770e831882",
    "suc-ramp-toy-4pph-ev-rounded": "42ed6393f79e8a81",
    # the completion of the EV commitment, one LP per scenario: re-frozen
    # when the pinned extensive form was split by scenario (see
    # `stochastic_uc`); each holds one scenario's columns and rows, the
    # commitment's part of them moved to the row bounds
    "suc-ramp-toy-4pph-completion": (
        "ad01bc36e7431b93", "066206e8405606b0", "75d86e89a783047d"
    ),
    # the EV model's final MILP with the no-good cut that excludes the EV
    # commitment: the bound MILP, solved cold after the completion with the
    # cut of its cost as HiGHS's cutoff, which it certifies (see
    # `stochastic_uc`); the cutoff is an option, not model data
    "suc-ramp-toy-4pph-ev-bound": "4cdfd4396c439a15",
    "suc-congested": "0caca64cfc6a0c56",
    "dam-congested-pricing": "f2f29f6edc444fe5",
    "rtm-congested": "60a2b27519b56898",
    # the last solve of each model of a day whose market stops two units, so
    # the DAM stop terms and the RTM stop-cap rows are both reached
    "dam-stops": "f07ec05724b77972",
    "dam-stops-pricing": "4b0fdc32f93c384f",
    "rtm-stops-2pph": "9d29d74f0d62ecd3",
    # re-frozen when the SUC solved in phases (see `stochastic_uc`): its
    # MILP now holds the flow rows its LP relaxation broke
    "suc-stops-2pph": "5bac3cddb7b0ae00",
}


def _canonical(a):
    m = sparse.csr_array((a.data, a.indices, a.indptr), shape=a.shape)
    m.sum_duplicates()
    return [m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data]


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.kind, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


@pytest.fixture
def solver_inputs(monkeypatch):
    """Digest of every HiGHS call, in call order, as ("milp"|"lp", digest)."""
    seen = []
    real_milp, real_lp = optim.milp, optim.linprog

    def milp(**kw):
        (con,) = kw["constraints"]
        seen.append(("milp", _digest(
            [np.asarray(kw["c"], float)] + _canonical(con.A)
            + [np.broadcast_to(np.asarray(b, float), (con.A.shape[0],))
               for b in (con.lb, con.ub)]
            + [np.asarray(kw["bounds"].lb, float), np.asarray(kw["bounds"].ub, float),
               np.asarray(kw["integrality"], np.int64)]
        )))
        return real_milp(**kw)

    def linprog(c, **kw):
        parts = [np.asarray(c, float), np.asarray(kw["bounds"], float)]
        for a, b in (("A_ub", "b_ub"), ("A_eq", "b_eq")):
            if a in kw:
                parts += _canonical(kw[a]) + [np.asarray(kw[b], float)]
            else:
                parts.append(np.empty(0))
        seen.append(("lp", _digest(parts)))
        return real_lp(c, **kw)

    monkeypatch.setattr(optim, "milp", milp)
    monkeypatch.setattr(optim, "linprog", linprog)
    return seen


def test_ramp_toy_dam_and_pricing(solver_inputs):
    """The clearing MILP with a commitment floor and both requirements, and
    its pricing LP."""
    system = load_system(case_path("ramp_toy"))
    bids = DamBidSet(system.bus_ids, [[150.0, 180.0, 260.0, 330.0, 300.0, 210.0]])
    req = FrpRequirements([0, 30, 60, 40, 20, 0], [10, 10, 0, 20, 40, 0], "test")
    fix = np.zeros((3, 6), dtype=int)
    fix[0] = 1
    fix[1, 3] = 1
    clear_dam(system, bids, req, fix_commitments=fix)
    assert [kind for kind, _ in solver_inputs] == ["milp", "lp"]
    assert solver_inputs[0][1] == FROZEN["dam-ramp-toy"]
    assert solver_inputs[1][1] == FROZEN["dam-ramp-toy-pricing"]


def test_ramp_toy_suc_on_a_sub_hourly_grid(solver_inputs, monkeypatch):
    """Three scenarios at four periods an hour: the within-hour ramp rows,
    the hour-boundary start/stop terms and the probability weights. The
    expected-value MILP and the completion of its commitment, one LP per
    scenario, come first, and the EV MILP's own start, from its rounded LP
    relaxation, before it.
    The bound MILP certifies the completion; with that certificate made to
    fail, the stochastic MILP follows it."""
    system = load_system(case_path("ramp_toy"))
    grid = TimeGrid(5, 4)
    base = np.repeat([150.0, 190.0, 280.0, 320.0, 240.0], 4)
    ramp = np.linspace(0.0, 12.0, grid.n_periods)
    scen = scenario_set(
        system, grid, [base, base + ramp, base - ramp], probs=[0.5, 0.3, 0.2]
    )
    assert solve_suc(system, scen).record["proved_by"] == "ev_bound"
    certified = [
        FROZEN["suc-ramp-toy-4pph-ev-relaxation"],
        FROZEN["suc-ramp-toy-4pph-ev-rounded"],
        FROZEN["suc-ramp-toy-4pph-ev"],
        *FROZEN["suc-ramp-toy-4pph-completion"],
        FROZEN["suc-ramp-toy-4pph-ev-bound"],
    ]
    assert [d for _, d in solver_inputs] == certified
    del solver_inputs[:]
    force_suc_fallback(monkeypatch)
    solve_suc(system, scen)
    assert [d for _, d in solver_inputs] == certified + [FROZEN["suc-ramp-toy-4pph"]]


def test_congested_suc_after_its_flow_rows(congested, solver_inputs, monkeypatch):  # noqa: F811
    """With no EV bound certificate, the last round's model, its flow rows
    in, is the last MILP."""
    grid = TimeGrid(6, 1)
    load = np.asarray(LOAD)
    scen = scenario_set(congested, grid, np.stack([load, 1.04 * load]))
    force_suc_fallback(monkeypatch)
    sol = solve_suc(congested, scen)
    assert sol.record["flow_rows"] >= 1 and sol.record["proved_by"] == "milp"
    assert solver_inputs[-1] == ("milp", FROZEN["suc-congested"])


def test_congested_dam_pricing_and_rtm(congested, solver_inputs):  # noqa: F811
    bids = DamBidSet(congested.bus_ids, LOAD)
    req = FrpRequirements([0, 0, 150, 150, 150, 0], [0] * 6, "test")
    dam = clear_dam(congested, bids, req)
    assert dam.record["flow_rows"] >= 1
    assert solver_inputs[-1] == ("lp", FROZEN["dam-congested-pricing"])
    del solver_inputs[:]
    grid = TimeGrid(6, 2)
    realized = NetLoadProfile(
        congested.bus_ids, grid, 1.02 * np.repeat(bids.values, 2, axis=1)
    )
    rtm = simulate_rtm(congested, dam, realized)
    assert rtm.record["flow_rows"] >= 1
    assert solver_inputs[-1] == ("lp", FROZEN["rtm-congested"])


def test_ieee14_with_stops_dam_pricing_rtm_and_suc(solver_inputs):
    """ieee14 through a load that rises and falls: the DAM starts three
    units and stops two, at hours 3 and 4, and every model screens flows.
    The RTM and SUC run at two periods an hour on the bid load; the SUC's
    LP relaxation is screened first, in three rounds, and is fractional;
    the completion of its rounded commitment meets every flow limit, and
    the MILP, started from it, is the last solve."""
    system = load_system(case_path("ieee14"))
    bids = DamBidSet(
        system.bus_ids, np.asarray(LOAD)[:, [2]] * [1.0, 1.6, 2.2, 1.4, 0.8, 0.6]
    )
    dam = clear_dam(system, bids, zero_requirements(6))
    assert (dam.v.sum(), dam.w.sum()) == (3, 2) and dam.w[:, 1:].sum() == 2
    assert [kind for kind, _ in solver_inputs] == ["milp", "milp", "milp", "lp"]
    assert solver_inputs[2:] == [
        ("milp", FROZEN["dam-stops"]), ("lp", FROZEN["dam-stops-pricing"])
    ]
    grid = TimeGrid(6, 2)
    values = np.repeat(bids.values, 2, axis=1)
    del solver_inputs[:]
    simulate_rtm(system, dam, NetLoadProfile(system.bus_ids, grid, values))
    assert [kind for kind, _ in solver_inputs] == ["lp"] * 3
    assert solver_inputs[-1][1] == FROZEN["rtm-stops-2pph"]
    del solver_inputs[:]
    solve_suc(system, scenario_set(system, grid, values[None]))
    assert [kind for kind, _ in solver_inputs] == ["milp"] * 5
    assert solver_inputs[-1][1] == FROZEN["suc-stops-2pph"]


def _loads_as(model, path):
    """Read the LP file ``path`` back into a fresh HiGHS and require
    ``model``: its column and row counts, every name once, and, with the
    columns (which the reader reorders) matched by name, exactly its costs,
    bounds and integrality; its row bounds and coefficients within 1e-9
    relative (the writer rounds them) and its optimum. Returns the model
    read, as HiGHS's ``getLp`` gives it."""
    highs = optim._highs._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.readModel(str(path)) == optim._highs.HighsStatus.kOk
    lp = highs.getLp()
    assert (lp.num_col_, lp.num_row_) == (model.n_vars, model.n_rows)
    assert len(set(lp.col_names_)) == lp.num_col_ and len(set(lp.row_names_)) == lp.num_row_
    assert list(lp.row_names_) == optim._lp_names(model._row_blocks, model.n_rows)
    at = {name: j for j, name in enumerate(lp.col_names_)}
    order = [at[name] for name in optim._lp_names(model._var_blocks, model.n_vars)]
    for got, want in ((lp.col_cost_, model.obj), (lp.col_lower_, model.lb),
                      (lp.col_upper_, model.ub)):
        assert np.array_equal(np.asarray(got)[order], want)
    integer = np.array([int(t) for t in lp.integrality_] or [0] * lp.num_col_, bool)
    assert np.array_equal(integer[order], model.integer)  # an LP reads back none
    mat, lo, hi = model._constraint_matrix()
    np.testing.assert_allclose(lp.row_lower_, lo, rtol=1e-9)
    np.testing.assert_allclose(lp.row_upper_, hi, rtol=1e-9)
    read, want = np.zeros((2, lp.num_row_, lp.num_col_))
    cols = np.repeat(np.arange(lp.num_col_), np.diff(lp.a_matrix_.start_))
    read[np.asarray(lp.a_matrix_.index_), cols] = lp.a_matrix_.value_
    want[np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr)), mat.indices] = mat.data
    np.testing.assert_allclose(read[:, order], want, rtol=1e-9)
    highs.setOptionValue("mip_rel_gap", 1e-6)
    assert highs.run() == optim._highs.HighsStatus.kOk
    objective = highs.getInfo().objective_function_value
    assert objective == pytest.approx(optim.solve(model).objective, rel=1e-6)
    return lp


@pytest.mark.parametrize("unit", ["g1", "g 1:a"])
def test_write_lp_round_trips_a_dam(tmp_path, two_gen_system, unit):
    """The LP dump of a small DAM (free ``rr`` columns, binaries, ``>=``
    rows) loads back into HiGHS as the same model, also when a unit id holds
    characters an LP file cannot: ``[``/``]`` become ``(``/``)``, a space or
    a colon ``_``."""
    from frpsim.dayahead import _build

    g1, g2 = two_gen_system.generators
    system = dataclasses.replace(two_gen_system, generators=(
        dataclasses.replace(g1, id=unit), g2
    ))
    bids = DamBidSet(system.bus_ids, [[60.0, 120.0, 90.0]])
    model, _ = _build(system, bids, zero_requirements(3), None)
    model.write_lp(tmp_path / "dam.lp")
    lp = _loads_as(model, tmp_path / "dam.lp")
    assert f"rr({unit.replace(' ', '_').replace(':', '_')})(2,1)" in lp.col_names_


def _dump_screened_suc(congested, monkeypatch, path):  # noqa: F811
    """Solve a congested SUC with ``dump_lp=path``; returns the solution and
    the model `solve_suc` dumped."""
    dumped = []
    real = optim.Model.write_lp

    def write_lp(self, path):
        dumped.append(self)
        real(self, path)

    monkeypatch.setattr(optim.Model, "write_lp", write_lp)
    load = np.asarray(LOAD)
    scen = scenario_set(congested, TimeGrid(6, 1), np.stack([load, 1.04 * load]))
    sol = solve_suc(congested, scen, dump_lp=path)
    assert sol.record["flow_rows"] >= 1
    (model,) = dumped
    return sol, model


def test_write_lp_round_trips_a_screened_suc(tmp_path, congested, monkeypatch):  # noqa: F811
    """The dump `solve_suc` writes of a congested SUC is its final screened
    model, flow rows included, and loads back into HiGHS as that model."""
    sol, model = _dump_screened_suc(congested, monkeypatch, tmp_path / "suc.lp")
    lp = _loads_as(model, tmp_path / "suc.lp")
    assert sum(name.startswith("flow") for name in lp.row_names_) == sol.record["flow_rows"]


def test_write_lp_round_trips_a_screened_suc_as_mps(tmp_path, congested, monkeypatch):  # noqa: F811
    """A ``.mps`` path gets HiGHS's MPS writer, whose time does not grow
    with rows times columns as its LP writer's does; the dump is an MPS
    file and loads back into HiGHS as the screened model."""
    sol, model = _dump_screened_suc(congested, monkeypatch, tmp_path / "suc.mps")
    assert (tmp_path / "suc.mps").read_text().startswith("NAME")
    lp = _loads_as(model, tmp_path / "suc.mps")
    assert sum(name.startswith("flow") for name in lp.row_names_) == sol.record["flow_rows"]

"""Fingerprints of what HiGHS receives for a few representative models.

Each digest hashes the objective, the constraint matrix in canonical CSR form
(``indptr``/``indices``/``data``), the row bounds, the column bounds and the
integrality of one solver call, read at the `optim.milp`/`optim.linprog`
boundary. The digests are frozen: a change to how models are assembled must
hand the solver the same columns and rows, in the same order, with the same
coefficients, bit for bit. A formulation change that moves one on purpose
updates the frozen value with a word on why.
"""

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

from conftest import scenario_set
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
    "suc-ramp-toy-4pph-completion": "f2d3f5c8b159f6e1",
    "suc-congested": "0caca64cfc6a0c56",
    "dam-congested-pricing": "f2f29f6edc444fe5",
    "rtm-congested": "60a2b27519b56898",
    # the last solve of each model of a day whose market stops two units, so
    # the DAM stop terms and the RTM stop-cap rows are both reached
    "dam-stops": "f07ec05724b77972",
    "dam-stops-pricing": "4b0fdc32f93c384f",
    "rtm-stops-2pph": "9d29d74f0d62ecd3",
    "suc-stops-2pph": "ebf10b6cc5e3c02d",
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


def test_ramp_toy_suc_on_a_sub_hourly_grid(solver_inputs):
    """Three scenarios at four periods an hour: the within-hour ramp rows,
    the hour-boundary start/stop terms and the probability weights. The
    expected-value MILP and the completion of its commitment come first."""
    system = load_system(case_path("ramp_toy"))
    grid = TimeGrid(5, 4)
    base = np.repeat([150.0, 190.0, 280.0, 320.0, 240.0], 4)
    ramp = np.linspace(0.0, 12.0, grid.n_periods)
    scen = scenario_set(
        system, grid, [base, base + ramp, base - ramp], probs=[0.5, 0.3, 0.2]
    )
    solve_suc(system, scen)
    assert [d for _, d in solver_inputs] == [
        FROZEN["suc-ramp-toy-4pph-ev"],
        FROZEN["suc-ramp-toy-4pph-completion"],
        FROZEN["suc-ramp-toy-4pph"],
    ]


def test_congested_suc_after_its_flow_rows(congested, solver_inputs):  # noqa: F811
    grid = TimeGrid(6, 1)
    load = np.asarray(LOAD)
    sol = solve_suc(congested, scenario_set(congested, grid, np.stack([load, 1.04 * load])))
    assert sol.flow_rows >= 1
    assert solver_inputs[-1] == ("milp", FROZEN["suc-congested"])


def test_congested_dam_pricing_and_rtm(congested, solver_inputs):  # noqa: F811
    bids = DamBidSet(congested.bus_ids, LOAD)
    req = FrpRequirements([0, 0, 150, 150, 150, 0], [0] * 6, "test")
    dam = clear_dam(congested, bids, req)
    assert dam.flow_rows >= 1
    assert solver_inputs[-1] == ("lp", FROZEN["dam-congested-pricing"])
    del solver_inputs[:]
    grid = TimeGrid(6, 2)
    realized = NetLoadProfile(
        congested.bus_ids, grid, 1.02 * np.repeat(bids.values, 2, axis=1)
    )
    rtm = simulate_rtm(congested, dam, realized)
    assert rtm.flow_rows >= 1
    assert solver_inputs[-1] == ("lp", FROZEN["rtm-congested"])


def test_ieee14_with_stops_dam_pricing_rtm_and_suc(solver_inputs):
    """ieee14 through a load that rises and falls: the DAM starts three
    units and stops two, at hours 3 and 4, and every model screens flows.
    The RTM and SUC run at two periods an hour on the bid load."""
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
    assert [kind for kind, _ in solver_inputs] == ["milp"] * 3
    assert solver_inputs[-1][1] == FROZEN["suc-stops-2pph"]


def test_write_lp_names_every_row_and_column_once(tmp_path, two_gen_system):
    """The LP dump of a small DAM, its names built from the blocks: one
    line per row under "Subject To", one bound per column, no name twice."""
    from frpsim.dayahead import _build

    bids = DamBidSet(two_gen_system.bus_ids, [[60.0, 120.0, 90.0]])
    model, _ = _build(two_gen_system, bids, zero_requirements(3), None)
    path = tmp_path / "dam.lp"
    model.write_lp(path)
    lines = path.read_text().splitlines()
    rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
    bounds = lines[lines.index("Bounds") + 1 : lines.index("General")]
    row_names = [ln.split(":")[0].strip() for ln in rows]
    col_names = [ln.split("<=")[1].strip() for ln in bounds]
    assert len(row_names) == len(set(row_names)) == model.n_rows
    assert len(col_names) == len(set(col_names)) == model.n_vars
    general = lines[lines.index("General") + 1].split()
    assert set(general) <= set(col_names) and len(general) == model.n_integer

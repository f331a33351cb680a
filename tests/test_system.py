import dataclasses
import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from frpsim import (
    Bus,
    CostSegment,
    Generator,
    InitialState,
    Line,
    PowerSystem,
    SystemFileError,
    TimeGrid,
    ValidationError,
    compute_isf,
    load_system,
    save_system,
)
from frpsim.dayahead import OUTCOME
from frpsim import codec
from frpsim.data import case_path, corpus_path
from frpsim.scenarios import SCENARIOS, ScenarioSet, save_scenarios
from frpsim.stochastic_uc import SOLUTION, SucSolution, save_suc_solution
from frpsim.system import (
    BUS,
    GENERATOR,
    INITIAL,
    LINE,
    LISTS,
    PENALTIES,
    SEGMENT,
    validate_system,
)
from frpsim.timegrid import GRID

from conftest import make_gen, single_bus_system


def test_timegrid_basics():
    grid = TimeGrid(hours=24, periods_per_hour=4)
    assert grid.n_periods == 96
    assert grid.period_hours == 0.25
    assert grid.hour_of(0) == 0
    assert grid.hour_of(95) == 23


def test_timegrid_rejects_bad_split():
    with pytest.raises(ValueError):
        TimeGrid(hours=24, periods_per_hour=7)
    with pytest.raises(ValueError):
        TimeGrid(hours=0, periods_per_hour=1)


def _line(lid, a, b, x, lim=1000.0):
    return Line(id=lid, from_bus=a, to_bus=b, reactance=x, flow_min=-lim, flow_max=lim)


def test_isf_two_bus():
    buses = (Bus("b1", slack=True), Bus("b2"))
    lines = (_line("l1", "b1", "b2", 0.1),)
    psi = compute_isf(buses, lines)
    # injection at the slack moves nothing; injection at b2 flows back to b1
    assert np.allclose(psi, [[0.0, -1.0]])


def test_isf_triangle_split():
    buses = (Bus("b1", slack=True), Bus("b2"), Bus("b3"))
    lines = (
        _line("l12", "b1", "b2", 0.1),
        _line("l23", "b2", "b3", 0.1),
        _line("l31", "b3", "b1", 0.1),
    )
    psi = compute_isf(buses, lines)
    # 1 MW into b2: two thirds on the direct path, one third around
    inj = psi[:, 1]
    assert np.allclose(inj, [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    assert np.allclose(psi[:, 0], 0.0)


def _flows_by_angle_solve(buses, lines, slack, injections):
    """Independent oracle: DC line flows of per-bus ``injections``, the slack
    taking up the balance, by solving for the bus angles."""
    ids = [b.id for b in buses]
    n = len(ids)
    idx = {b: i for i, b in enumerate(ids)}
    b_bus = np.zeros((n, n))
    for ln in lines:
        i, j = idx[ln.from_bus], idx[ln.to_bus]
        y = 1.0 / ln.reactance
        b_bus[i, i] += y
        b_bus[j, j] += y
        b_bus[i, j] -= y
        b_bus[j, i] -= y
    keep = [i for i in range(n) if i != idx[slack]]
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(b_bus[np.ix_(keep, keep)], np.asarray(injections)[keep])
    return np.array([
        (theta[idx[ln.from_bus]] - theta[idx[ln.to_bus]]) / ln.reactance for ln in lines
    ])


def _isf_by_angle_solve(buses, lines, slack):
    """Independent oracle: per-bus unit injection, solve angles, read flows."""
    return np.column_stack([
        _flows_by_angle_solve(buses, lines, slack, np.eye(len(buses))[col])
        if buses[col].id != slack else np.zeros(len(lines))
        for col in range(len(buses))
    ])


def test_isf_matches_angle_oracle_on_mesh():
    rng = np.random.default_rng(3)
    n = 9
    buses = tuple(Bus(f"b{i}", slack=(i == 0)) for i in range(n))
    lines = [_line(f"t{i}", f"b{i}", f"b{i+1}", float(rng.uniform(0.05, 0.4))) for i in range(n - 1)]
    lines += [
        _line("m1", "b0", "b4", 0.21),
        _line("m2", "b2", "b7", 0.33),
        _line("m3", "b1", "b8", 0.15),
    ]
    lines = tuple(lines)
    psi = compute_isf(buses, lines)
    want = _isf_by_angle_solve(buses, lines, "b0")
    assert np.max(np.abs(psi - want)) < 1e-9
    assert np.max(np.abs(psi[:, 0])) == 0.0


@st.composite
def _connected_networks(draw):
    """A random spanning tree plus random extra lines (parallel ones too),
    random reactances, a random slack bus and random injections."""
    n = draw(st.integers(2, 10))
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    ends += draw(st.lists(pairs, max_size=2 * n))
    slack = draw(st.integers(0, n - 1))
    buses = tuple(Bus(f"b{i}", slack=(i == slack)) for i in range(n))
    lines = tuple(
        _line(f"l{k}", f"b{i}", f"b{j}", draw(st.floats(0.01, 1.0)))
        for k, (i, j) in enumerate(ends)
    )
    injections = np.array(draw(st.lists(st.floats(-500.0, 500.0), min_size=n, max_size=n)))
    return buses, lines, f"b{slack}", injections


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_connected_networks())
def test_isf_matches_angle_solve_on_random_networks(case):
    """On any connected network the slack column is zero and the shift
    factors give the flows of a DC angle solve for any injections."""
    buses, lines, slack, injections = case
    psi = compute_isf(buses, lines)
    assert not psi[:, [b.id for b in buses].index(slack)].any()
    want = _flows_by_angle_solve(buses, lines, slack, injections)
    scale = max(1.0, float(np.abs(injections).sum()))
    assert np.max(np.abs(psi @ injections - want), initial=0.0) <= 1e-9 * scale


def test_isf_disconnected_names_island():
    buses = (Bus("b1", slack=True), Bus("b2"), Bus("b3"))
    lines = (_line("l1", "b1", "b2", 0.1),)
    with pytest.raises(ValidationError) as err:
        compute_isf(buses, lines)
    assert "b3" in str(err.value)


def test_validation_catches_each_breakage(two_gen_system):
    sys0 = two_gen_system
    assert validate_system(sys0) == []

    # no slack bus
    broken = dataclasses.replace(sys0, buses=(Bus("b1"),))
    assert any("slack" in i for i in validate_system(broken))

    # non-monotone segment costs, named by generator and segment
    g_bad = make_gen("gX", segments=((40.0, 50.0), (100.0, 20.0)))
    broken = dataclasses.replace(sys0, generators=sys0.generators + (g_bad,))
    issues = validate_system(broken)
    assert any("gX" in i and "segment 1" in i and "cost" in i for i in issues)

    # last segment must close the dispatch range
    g_bad = make_gen("gY", p_max=90.0, segments=((50.0, 10.0),))
    broken = dataclasses.replace(sys0, generators=(g_bad,))
    assert any("gY" in i and "last segment" in i for i in validate_system(broken))

    # startup limit below minimum output
    g_bad = dataclasses.replace(make_gen("gZ", p_min=20.0, p_max=50.0,
                                         segments=((30.0, 10.0),)), startup_limit=10.0)
    broken = dataclasses.replace(sys0, generators=(g_bad,))
    assert any("gZ" in i and "startup_limit" in i for i in validate_system(broken))

    # inconsistent initial state
    g_bad = dataclasses.replace(
        make_gen("gW"), initial=InitialState(on=False, dispatch_above_min=5.0, hours_off=2)
    )
    broken = dataclasses.replace(sys0, generators=(g_bad,))
    assert any("gW" in i and "dispatch_above_min" in i for i in validate_system(broken))

    # duplicate ids
    broken = dataclasses.replace(sys0, generators=(make_gen("g1"), make_gen("g1")))
    assert any("duplicate" in i for i in validate_system(broken))


def test_validate_raises_with_all_issues(two_gen_system):
    g_bad = make_gen("gX", segments=((40.0, 50.0), (100.0, 20.0)))
    broken = dataclasses.replace(
        two_gen_system,
        buses=(Bus("b1"),),
        generators=two_gen_system.generators + (g_bad,),
    )
    with pytest.raises(ValidationError) as err:
        broken.validate()
    assert len(err.value.issues) >= 2


def test_yaml_round_trip(tmp_path, two_gen_system):
    path = tmp_path / "sys.yaml"
    save_system(two_gen_system, path)
    loaded = load_system(path)
    assert loaded == two_gen_system
    assert loaded.generators[0].segments == two_gen_system.generators[0].segments


def test_yaml_round_trip_with_network(tmp_path):
    buses = (Bus("b1", slack=True), Bus("b2"))
    lines = (_line("l1", "b1", "b2", 0.25, lim=80.0),)
    system = PowerSystem(
        buses=buses, lines=lines,
        generators=(make_gen("g1", bus="b1"), make_gen("g2", bus="b2")),
        curtailment_penalty=4000.0, frp_shortfall_penalty=900.0,
    ).validate()
    path = tmp_path / "net.yaml"
    save_system(system, path)
    assert load_system(path) == system
    system.isf()  # a computed matrix is no part of the system's value
    assert load_system(path) == system


def test_missing_field_is_named(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text(
        """
format_version: 1
penalties: {curtailment_usd_per_mwh: 100.0, frp_shortfall_usd_per_mw: 100.0}
buses: [{id: b1, slack: true}]
generators:
  - id: g1
    bus: b1
    p_min_mw: 0.0
    p_max_mw: 10.0
    cost_segments: [{to_mw: 10.0, usd_per_mwh: 5.0}]
    no_load_usd_per_h: 0.0
    startup_usd: 0.0
    ramp_up_mw_per_h: 10.0
    ramp_down_mw_per_h: 10.0
    startup_limit_mw: 10.0
    min_up_h: 1
    min_down_h: 1
    initial: {committed: false}
"""
    )
    with pytest.raises(SystemFileError) as err:
        load_system(path)
    assert err.value.field == "shutdown_limit_mw"
    assert "g1" in str(err.value)


def _init_fields(cls):
    return sorted(f.name for f in dataclasses.fields(cls) if f.init)


def test_each_table_names_every_field_once():
    """A dataclass field added without a row in its table fails here."""
    tables = (BUS, LINE, SEGMENT, INITIAL, GENERATOR, GRID, SCENARIOS, SOLUTION, OUTCOME)
    for table in tables:
        assert sorted(row[0] for row in table.rows) == _init_fields(table.cls)
    # PowerSystem's fields: its lists and the penalties
    named = [key for key, _, _ in LISTS] + [row[0] for row in PENALTIES.rows]
    assert sorted(named) == _init_fields(PowerSystem)
    for table in (*tables, PENALTIES):
        keys = codec.keys(table)
        assert len(set(keys)) == len(keys)


# sha256 of save_system(load_system(f)) for each shipped system file, taken
# from the writer that spelled every key out by hand
SAVED_SHA256 = {
    "ieee14.yaml": "1a3f81f65f9bdcfe856d385e015d0c7ee164f5afe8cd3ebf6febd4fbaa54f0ab",
    "ramp_toy.yaml": "53f28c63fdd296f890e34e5edbcd4b91d6efe80fa2837f2d5b3b9ac8711b12d1",
    "single_bus_two_gen.yaml": "aa072a683ad5228540c146485ae3f0b87179c0c604ae27596f1ca02c2b6f3873",
    "corpus/system.yaml": "0a0b33c88471738bf08664861d51c29ec197b2531fe22b020de04f7dadd41b12",
}


@pytest.mark.parametrize("name", sorted(SAVED_SHA256))
def test_saved_bytes_are_frozen(tmp_path, name):
    out = tmp_path / "saved.yaml"
    save_system(load_system(case_path(name)), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAVED_SHA256[name]


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
def test_libyaml_parses_every_shipped_yaml_file_as_pyyaml_does(tmp_path, monkeypatch):
    """The codec reads YAML with libyaml's parser; every shipped YAML file
    and every benchmark config parses to equal values under it and under
    PyYAML's own."""
    assert codec.YAML_LOADER is yaml.CSafeLoader
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    workloads = importlib.import_module("perfbench.workloads")
    paths = [case_path(name) for name in SAVED_SHA256] + [corpus_path("config.yaml")]
    paths += [workloads.config_path(grid, 111, str(tmp_path)) for grid in ("suc-heavy", "ieee14")]
    for path in paths:
        text = Path(path).read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


# sha256 of a scenario set and a SUC solution built by hand, as the writers
# that spelled every key out by hand saved them
JSON_SHA256 = {
    "scenarios": "5c179feb6f7f2107718022ff4f27a34fe7297d253f0bb355eedbd9e8b37dc27b",
    "suc": "6c23894dee173143b25cf05e7a33ae2debf03ca1527045d2b7698110748188a1",
}


def test_saved_json_bytes_are_frozen(tmp_path):
    scn = ScenarioSet(
        buses=("b1", "b2"), grid=TimeGrid(2, 2),
        values=np.arange(16.0).reshape(2, 2, 4) * 10.5 - 3.0,
        probabilities=[0.25, 0.75],
    )
    sol = SucSolution(
        gen_ids=["g1", "g2"], bus_ids=["b1"], grid=TimeGrid(2, 1),
        u=np.array([[1, 1], [0, 1]]), v=np.array([[0, 0], [0, 1]]), w=np.zeros((2, 2), int),
        p=np.array([[[30.0, 45.5], [0.0, 12.25]]]), curtail=np.array([[[0.0, 1.5]]]),
        objective=1234.5, commitment_cost=234.25, expected_dispatch_cost=1000.25,
        mip_gap=None, record={"wall_time_s": 0.5, "screen_rounds": 1, "ev_usd": None},
    )
    for name, save, obj in (("scenarios", save_scenarios, scn), ("suc", save_suc_solution, sol)):
        save(obj, tmp_path / name)
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == JSON_SHA256[name]


def test_replace_recomputes_shift_factors():
    """The cached matrix is not carried into a copy made with other lines."""
    system = load_system(case_path("ieee14"))
    system.isf()
    lines = tuple(
        dataclasses.replace(ln, reactance=3 * ln.reactance) if ln.id == "l1_2" else ln
        for ln in system.lines
    )
    changed = dataclasses.replace(system, lines=lines)
    want = compute_isf(changed.buses, changed.lines)
    assert np.max(np.abs(want - system.isf())) > 0.1
    assert np.array_equal(changed.isf(), want)


def test_bundled_cases_validate():
    for name in ("single_bus_two_gen", "ramp_toy", "ieee14"):
        system = load_system(case_path(name))
        assert validate_system(system) == []


def test_ieee14_isf_against_angle_oracle():
    system = load_system(case_path("ieee14"))
    psi = system.isf()
    slack = next(b.id for b in system.buses if b.slack)
    want = _isf_by_angle_solve(system.buses, system.lines, slack)
    assert psi.shape == (len(system.lines), len(system.buses))
    assert np.max(np.abs(psi - want)) < 1e-9

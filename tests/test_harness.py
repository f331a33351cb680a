"""Experiment harness: config parsing, the append-only cell ledger, resume,
percentile/scenario grid bookkeeping, and worker-pool equivalence."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from frpsim import harness, optim, save_system, stochastic_uc
from frpsim.codec import SystemFileError
from frpsim.data import corpus_path
from frpsim.harness import (
    ALL_METHODS,
    PERCENTILE_METHODS,
    LedgerMismatchError,
    aggregate,
    load_config,
    run_experiment,
    write_reports,
)

from conftest import force_suc_fallback, make_gen, run_python, single_bus_system


def _write_inputs(tmp_path, loads_by_day, extra=""):
    """Small always-feasible system plus a config over the given days."""
    g1 = make_gen("g1", p_max=260.0, segments=((160.0, 25.0), (260.0, 40.0)),
                  no_load=6.0, startup=80.0, on=True, p0=100.0)
    g2 = make_gen("g2", p_max=120.0, segments=((120.0, 55.0),),
                  no_load=2.0, startup=25.0)
    system = single_bus_system(g1, g2)
    save_system(system, tmp_path / "system.yaml")
    days = "\n".join(
        f"  - name: {name}\n    hourly_net_load_mw:\n      b1: {list(loads)}"
        for name, loads in loads_by_day.items()
    )
    (tmp_path / "config.yaml").write_text(
        f"""
system: system.yaml
master_seed: 77
sigma_frac: 0.04
n_scenarios: [2, 3]
rho: [0.0, 0.4]
out_of_sample: {{sigma_frac: 0.04, rho: 0.4}}
days:
{days}
{extra}
"""
    )
    return tmp_path / "config.yaml"


DAYS = {"d1": [100.0, 150.0, 210.0, 140.0], "d2": [120.0, 180.0, 240.0, 160.0]}


def test_corpus_config_digest_is_frozen():
    """The corpus config's digest, which names its ledgers and which every
    resumable ledger of it records: a change to what the digest hashes, or
    to how the config or its system file is read, shows here."""
    cfg, _ = load_config(corpus_path("config.yaml"))
    assert cfg.digest() == "08a179cd132cea6e"


def test_load_config(tmp_path):
    path = _write_inputs(tmp_path, DAYS)
    cfg, system = load_config(path)
    assert [d.name for d in cfg.days] == ["d1", "d2"]
    assert cfg.days[0].hourly_net_load.shape == (1, 4)
    assert cfg.methods == list(ALL_METHODS)
    assert cfg.n_scenarios == [2, 3]
    assert cfg.rho == [0.0, 0.4]
    assert cfg.oos_rho == 0.4
    assert system.gen_ids == ["g1", "g2"]
    assert len(cfg.digest()) == 16


def test_config_validation(tmp_path):
    path = _write_inputs(tmp_path, DAYS, extra="methods: [p95, warp-drive]")
    with pytest.raises(ValueError, match="warp-drive"):
        load_config(path)
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        (tmp_path / "config.yaml")
        .read_text()
        .replace("b1:", "zz:")
        .replace("methods: [p95, warp-drive]", "")
    )
    with pytest.raises(ValueError, match="no net load"):
        load_config(bad)
    # a grid that names a cell or a day twice: two days d1, whose cells
    # would hold one day's numbers under the other's clairvoyant file; a
    # repeated scenario count or method, whose cells would be solved twice
    # and the repeats dropped; and two rhos one cell id prints alike
    text = _write_inputs(tmp_path, DAYS).read_text()
    for key, old, new in (
        ("days", "name: d2", "name: d1"),
        ("n_scenarios", "n_scenarios: [2, 3]", "n_scenarios: [2, 2]"),
        ("methods", "rho: [", "methods: [suc-free, p90, p90]\nrho: ["),
        ("rho", "rho: [0.0, 0.4]", "rho: [0.4, 0.4000001]"),
    ):
        assert old in text
        bad.write_text(text.replace(old, new))
        with pytest.raises(SystemFileError, match=f"{key} must be free of repeats") as exc:
            load_config(bad)
        assert exc.value.field == key


def test_unknown_settlement_is_refused_at_load(tmp_path):
    """An unknown settlement mode fails the config as it loads, naming the
    key, before any market is solved."""
    path = _write_inputs(tmp_path, DAYS, extra="settlement: twoo")
    with pytest.raises(SystemFileError, match="settlement must be one of .*, got 'twoo'") as exc:
        load_config(path)
    assert exc.value.field == "settlement"
    path.write_text(path.read_text().replace("twoo", "dam-only"))
    assert load_config(path)[0].settlement_mode == "dam-only"


def test_full_grid_run_and_reports(tmp_path):
    cfg, system = load_config(_write_inputs(tmp_path, DAYS))
    out = tmp_path / "out"
    result = run_experiment(system, cfg, str(out))
    assert result.clean
    # 2 days x 2 n x 2 rho x 2 scenario methods, plus 2 days x 3 percentiles
    assert len(result.done) == 16 + 6
    # one stochastic solve per (day, n, rho); percentiles never solve it
    assert result.suc_pass_solves == 8
    cells = aggregate(str(out))
    assert len(cells) == 22
    for rec in cells.values():
        assert rec["clairvoyant_usd"] > 0.0
        assert rec["rtm"]["total_cost_usd"] > 0.0
    # requirements are shared between the two scenario methods of a group
    a = cells["d1.suc-fixed.n2.rho0"]["requirements"]
    b = cells["d1.suc-free.n2.rho0"]["requirements"]
    assert a == b
    # percentile cells are grid-free
    assert cells["d1.p95"]["n_scenarios"] is None
    assert cells["d1.p95"]["suc"] is None

    cells_csv, totals_csv = write_reports(str(out))
    lines = open(cells_csv).read().strip().splitlines()
    assert len(lines) == 23  # header + cells
    totals = open(totals_csv).read().strip().splitlines()
    # every method appears once per (n, rho) pair in the totals
    assert sum(1 for ln in totals if ln.startswith("p95,")) == 4
    p95_costs = {ln.split(",")[3] for ln in totals if ln.startswith("p95,")}
    assert len(p95_costs) == 1  # replicated, not recomputed


def test_reports_quote_a_day_name_holding_a_comma(tmp_path):
    """A day named "mon,tue" is one quoted cell of cells.csv, so its row has
    the header's fields."""
    rec = {
        "day": "mon,tue", "method": "p95", "n_scenarios": None, "rho": None,
        "rtm": {"total_cost_usd": 10.0, "shed_mwh": 0.5},
        "settlement": {"total_frp_payment_usd": 1.0, "total_make_whole_usd": 0.0},
        "clairvoyant_usd": 9.0,
    }
    (tmp_path / "cells").mkdir()
    (tmp_path / "cells" / "mon,tue.p95.json").write_text(json.dumps(rec))
    cells_csv, totals_csv = write_reports(str(tmp_path))
    with open(cells_csv, newline="") as fh:
        header, row = csv.reader(fh)
    assert row == ["mon,tue", "p95", "", "", "10.00", "0.500000", "1.00", "0.00", "9.00"]
    assert len(header) == len(row)
    with open(totals_csv, newline="") as fh:
        assert list(csv.reader(fh))[1] == ["p95", "", "", "10.00", "0.500000", "1.00", "0.00"]


def test_resume_skips_finished_cells(tmp_path):
    cfg, system = load_config(_write_inputs(tmp_path, DAYS))
    out = tmp_path / "out"
    first = run_experiment(system, cfg, str(out))
    assert first.clean and len(first.done) == 22
    before = {
        name: open(os.path.join(out, "cells", name)).read()
        for name in os.listdir(out / "cells")
    }
    second = run_experiment(system, cfg, str(out))
    assert second.done == []
    assert len(second.skipped) == 22
    assert second.suc_pass_solves == 0
    after = {
        name: open(os.path.join(out, "cells", name)).read()
        for name in os.listdir(out / "cells")
    }
    assert after == before
    # the manifest keeps both run records
    manifest = [
        json.loads(ln) for ln in open(out / "manifest.jsonl").read().splitlines()
    ]
    assert sum(1 for m in manifest if m["event"] == "run-start") == 2


def test_crash_mid_write_leaves_no_partial_cell(tmp_path, monkeypatch):
    """A cell write that dies partway leaves no cells/<id>.json, which a
    resume would take for finished; the resumed run finishes that cell."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    out = tmp_path / "out"
    real_dump = json.dump

    def dies_on_p95(doc, fh, **kwargs):
        if doc.get("method") == "p95":
            fh.write(json.dumps(doc)[:40])
            raise OSError("disk full")
        return real_dump(doc, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dies_on_p95)
    first = run_experiment(system, cfg, str(out))
    assert "d1.p95" in first.failed and "d1.p95" not in first.done
    assert sorted(os.listdir(out / "cells")) == sorted(c + ".json" for c in first.done)
    assert os.path.exists(out / "clairvoyant.d1.json")

    monkeypatch.undo()
    second = run_experiment(system, cfg, str(out))
    assert second.clean and second.done == ["d1.p95"]
    assert aggregate(str(out))["d1.p95"]["method"] == "p95"
    write_reports(str(out))


def test_failed_write_fails_only_the_unwritten_cells(tmp_path, monkeypatch):
    """A stochastic job writes its cells one at a time, suc-free first. When
    the second write fails, the first cell stays finished: in ``done``, not
    in ``failed``, with one manifest line."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    out = tmp_path / "out"
    real_dump = json.dump

    def dies_on_suc_fixed(doc, fh, **kwargs):
        if doc.get("method") == "suc-fixed" and doc.get("day") == "d1":
            raise OSError("disk full")
        return real_dump(doc, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dies_on_suc_fixed)
    result = run_experiment(system, cfg, str(out))
    free = [c for c in result.done if c.startswith("d1.suc-free.")]
    fixed = {c for c in result.failed if c.startswith("d1.suc-fixed.")}
    assert len(free) == 4 and len(fixed) == 4
    assert not any(c.startswith("d1.suc-free.") for c in result.failed)
    assert all(os.path.exists(out / "cells" / f"{c}.json") for c in free)
    assert not any(os.path.exists(out / "cells" / f"{c}.json") for c in fixed)
    manifest = [
        json.loads(ln) for ln in open(out / "manifest.jsonl").read().splitlines()
    ]
    for cell in free:
        lines = [m for m in manifest if m.get("cell") == cell]
        assert [m["status"] for m in lines] == ["done"]


def _percentile_dams(out, day="d1"):
    cells = aggregate(str(out))
    return {m: cells[f"{day}.{m}"]["dam"] for m in PERCENTILE_METHODS}


def test_percentile_ladder_certifies_higher_levels(tmp_path):
    """A day's percentile levels clear in ascending coverage whatever the
    config's order. Here p90's bound certifies p95, and p95 passes it on to
    p99: neither runs a clearing MILP, both are proved by "ladder", and
    both name p90 as the source."""
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p99, p90, p95]")
    cfg, system = load_config(path)
    out = tmp_path / "out"
    assert run_experiment(system, cfg, str(out)).clean
    dam = _percentile_dams(out)
    assert dam["p90"]["bound_from"] is None and dam["p90"]["highs_s"] > 0.0
    assert dam["p90"]["proved_by"] == "milp"
    assert dam["p90"]["mip_gap"] <= cfg.gap_tol
    for method in ("p95", "p99"):
        rec = dam[method]
        assert (rec["bound_from"], rec["proved_by"]) == ("p90", "ladder")
        assert (rec["highs_s"], rec["mip_node_count"]) == (0.0, 0)
        assert rec["mip_dual_bound"] == dam["p90"]["mip_dual_bound"]
        assert abs(rec["mip_gap"]) <= cfg.gap_tol


def test_levels_that_do_not_nest_get_no_bound(tmp_path, monkeypatch):
    """The ladder compares the requirement arrays, not the coverages: with
    each level's hour-0 up requirement below the level before it, no level
    gets a relaxed market, and each runs its own MILP."""
    real = harness.percentile_requirements

    def dips(forecast, sigma_frac, coverage):
        req = real(forecast, sigma_frac, coverage)
        req.up[0] = 1000.0 * (1.0 - coverage)  # 100, 50 and 10 MW
        return req

    relaxed = []
    clear = harness.clear_dam

    def clear_dam(*args, **kwargs):
        relaxed.append(kwargs["relaxed"])
        return clear(*args, **kwargs)

    monkeypatch.setattr(harness, "percentile_requirements", dips)
    monkeypatch.setattr(harness, "clear_dam", clear_dam)
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p90, p95, p99]")
    cfg, system = load_config(path)
    assert run_experiment(system, cfg, str(tmp_path / "out")).clean
    assert relaxed == [None, None, None]
    for rec in _percentile_dams(tmp_path / "out").values():
        assert rec["bound_from"] is None and rec["highs_s"] > 0.0


def test_failed_level_fails_only_its_cell(tmp_path, monkeypatch):
    """A p90 that raises fails d1.p90 alone: p95 clears without a bound,
    and its bound certifies p99."""
    clear = harness.clear_dam

    def clear_dam(system, bids, req, **kwargs):
        if req.source == "percentile-90":
            raise RuntimeError("solver crashed")
        return clear(system, bids, req, **kwargs)

    monkeypatch.setattr(harness, "clear_dam", clear_dam)
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p90, p95, p99]")
    cfg, system = load_config(path)
    out = tmp_path / "out"
    result = run_experiment(system, cfg, str(out))
    assert result.failed == {"d1.p90": "RuntimeError: solver crashed"}
    assert result.done == ["d1.p95", "d1.p99"]
    cells = aggregate(str(out))
    assert cells["d1.p95"]["dam"]["bound_from"] is None
    assert cells["d1.p95"]["dam"]["highs_s"] > 0.0
    assert cells["d1.p99"]["dam"]["bound_from"] == "p95"


def _suc_pair_config(tmp_path):
    """Days a and e, one stochastic-pass group each, suc-fixed and suc-free."""
    days = {"a": [100.0, 150.0, 210.0, 140.0], "e": [240.0, 262.0, 250.0, 230.0]}
    path = _write_inputs(tmp_path, days, extra="methods: [suc-fixed, suc-free]")
    text = path.read_text()
    for old, new in (("sigma_frac: 0.04\n", "sigma_frac: 0.1\n"), ("[2, 3]", "[2]"),
                     ("[0.0, 0.4]", "[0.0]")):
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    return load_config(path)


def test_suc_free_settles_suc_fixed_where_the_floor_holds(tmp_path, monkeypatch):
    """On day a suc-free's market commits every unit-hour the stochastic
    pass commits, so it settles suc-fixed: the same outcome, proved by
    "floor", from a `clear_dam` call that hands HiGHS nothing. On day e the
    stochastic pass commits more, and suc-fixed clears by its own MILP with
    the floor. Every DAM cell is one `clear_dam` call."""
    calls, passed = [], []  # (floor, relaxed, HiGHS models) per clear_dam call
    clear, pass_model = harness.clear_dam, optim._pass_model

    def clear_dam(*args, **kwargs):
        before = len(passed)
        out = clear(*args, **kwargs)
        calls.append((kwargs["fix_commitments"], kwargs["relaxed"], len(passed) - before))
        return out

    monkeypatch.setattr(harness, "clear_dam", clear_dam)
    monkeypatch.setattr(optim, "_pass_model", lambda *a: passed.append(1) or pass_model(*a))
    cfg, system = _suc_pair_config(tmp_path)
    assert run_experiment(system, cfg, str(tmp_path / "out")).clean
    # per day suc-free, then suc-fixed on its floor with suc-free as relaxed
    assert [(floor is None, relaxed is None) for floor, relaxed, _ in calls] == [
        (True, True), (False, False),
    ] * 2
    assert calls[1][2] == 0 and calls[3][2] > 0  # a's suc-fixed solves nothing
    cells = aggregate(str(tmp_path / "out"))
    free, settled = cells["a.suc-free.n2.rho0"], cells["a.suc-fixed.n2.rho0"]
    assert (settled["dam"]["bound_from"], settled["dam"]["proved_by"]) == ("suc-free", "floor")
    for key in ("objective_usd", "mip_gap", "mip_dual_bound", "rows", "nnz", "flow_rows"):
        assert settled["dam"][key] == free["dam"][key], key
    work = ("build_s", "highs_s", "mip_node_count", "screen_rounds")
    assert [settled["dam"][key] for key in work] == [0.0, 0.0, 0, 0]
    assert settled["dam"]["pricing_lp"] == {"highs_s": 0.0, "simplex_iterations": 0}
    assert settled["settlement"] == free["settlement"]
    assert settled["rtm"]["shared_from"] == "a.suc-free.n2.rho0"
    cleared = cells["e.suc-fixed.n2.rho0"]["dam"]
    assert cleared["bound_from"] is None and cleared["highs_s"] > 0.0
    assert cleared["proved_by"] == "milp" and cleared["mip_gap"] <= cfg.gap_tol


def test_failed_suc_free_fails_only_its_cell(tmp_path, monkeypatch):
    """A suc-free market that raises fails its own cell alone: suc-fixed,
    left without a relaxed market, clears by its own MILP on its floor."""
    clear = harness.clear_dam

    def clear_dam(system, bids, req, **kwargs):
        if kwargs["fix_commitments"] is None:
            raise RuntimeError("solver crashed")
        assert kwargs["relaxed"] is None
        return clear(system, bids, req, **kwargs)

    monkeypatch.setattr(harness, "clear_dam", clear_dam)
    cfg, system = _suc_pair_config(tmp_path)
    result = run_experiment(system, cfg, str(tmp_path / "out"))
    assert result.failed == dict.fromkeys(
        ["a.suc-free.n2.rho0", "e.suc-free.n2.rho0"], "RuntimeError: solver crashed"
    )
    assert result.done == ["a.suc-fixed.n2.rho0", "e.suc-fixed.n2.rho0"]
    assert result.suc_pass_solves == 2
    for rec in aggregate(str(tmp_path / "out")).values():
        assert rec["dam"]["bound_from"] is None and rec["dam"]["highs_s"] > 0.0
        assert rec["dam"]["mip_gap"] <= cfg.gap_tol


def test_failed_stochastic_pass_fails_its_group(tmp_path, monkeypatch):
    """A stochastic pass that raises fails its group's cells with its error,
    while the same day's percentile cells finish; a resume retries the
    failed cells alone."""
    draw = harness.gen_ar1_scenarios

    def gen_ar1_scenarios(forecast, sigma_frac, rho, n, *args, **kwargs):
        if n == 3:
            raise RuntimeError("draw crashed")
        return draw(forecast, sigma_frac, rho, n, *args, **kwargs)

    monkeypatch.setattr(harness, "gen_ar1_scenarios", gen_ar1_scenarios)
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [suc-fixed, suc-free, p95]")
    cfg, system = load_config(path)
    out = str(tmp_path / "out")
    result = run_experiment(system, cfg, out)
    failed = [f"d1.{m}.n3.rho{r}" for r in ("0", "0.4") for m in ("suc-free", "suc-fixed")]
    assert result.failed == dict.fromkeys(failed, "RuntimeError: draw crashed")
    assert sorted(result.done) == sorted(
        ["d1.p95"] + [f"d1.{m}.n2.rho{r}" for r in ("0", "0.4") for m in ("suc-free", "suc-fixed")]
    )
    assert result.suc_pass_solves == 2
    monkeypatch.setattr(harness, "gen_ar1_scenarios", draw)
    again = run_experiment(system, cfg, out)
    assert again.clean and sorted(again.done) == sorted(failed)
    assert sorted(again.skipped) == sorted(result.done)


def test_a_job_redispatches_each_commitment_once(tmp_path, monkeypatch):
    """`simulate_rtm` runs once per distinct commitment of a job. A cell
    whose commitment an earlier cell of its job re-dispatched names that
    cell, records no work, and gets the totals, bit for bit, of a fresh
    re-dispatch of its own market."""
    calls, finished = [], []
    real_rtm, real_settle = harness.simulate_rtm, harness.settle

    def simulate_rtm(system, dam, realized):
        rtm = real_rtm(system, dam, realized)
        calls.append((rtm, realized))
        return rtm

    def settle(system, dam, rtm, **kwargs):
        finished.append((dam, rtm))
        return real_settle(system, dam, rtm, **kwargs)

    monkeypatch.setattr(harness, "simulate_rtm", simulate_rtm)
    monkeypatch.setattr(harness, "settle", settle)
    cfg, system = load_config(_write_inputs(tmp_path, DAYS))
    result = run_experiment(system, cfg, str(tmp_path / "out"))
    assert result.clean
    cells = aggregate(str(tmp_path / "out"))
    # cells finish, and are written, job by job in the order of their ids
    jobs = {}
    for cell_id, (dam, _) in zip(result.done, finished):
        rec = cells[cell_id]
        job = (rec["day"], rec["n_scenarios"], rec["rho"])
        jobs.setdefault(job, {}).setdefault(dam.u.tobytes(), []).append(cell_id)
    assert len(calls) == sum(len(seen) for seen in jobs.values()) < len(cells)
    for seen in jobs.values():
        for first, *rest in seen.values():
            assert cells[first]["rtm"]["shared_from"] is None
            assert cells[first]["rtm"]["highs_s"] > 0.0
            for cell_id in rest:
                rtm = cells[cell_id]["rtm"]
                assert rtm["shared_from"] == first
                assert (rtm["highs_s"], rtm["build_s"], rtm["simplex_iterations"]) == (0.0, 0.0, 0)
    realized = {id(rtm): profile for rtm, profile in calls}
    for dam, rtm in finished:
        fresh = real_rtm(system, dam, realized[id(rtm)])
        assert fresh.total_cost == rtm.total_cost and fresh.shed_mwh == rtm.shed_mwh
        for key in ("p", "curtail", "lmp"):
            assert np.array_equal(getattr(fresh, key), getattr(rtm, key)), key


def test_load_config_reads_the_system_file_once(tmp_path, monkeypatch):
    """The digest and the system come from one read of the file, so an edit
    between two reads cannot pair the digest of one file with another."""
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]})
    system_file = str(tmp_path / "system.yaml")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    cfg, system = load_config(path)
    monkeypatch.undo()
    assert opened.count(system_file) == 1
    assert [g.id for g in system.generators] == ["g1", "g2"]
    with open(system_file, "rb") as fh:
        assert cfg.system_sha256 == hashlib.sha256(fh.read()).hexdigest()


def test_run_start_line_is_synced_before_any_cell(tmp_path, monkeypatch):
    """A run syncs its run-start line, once, before it writes any file of
    the ledger: a crash cannot leave synced cells in a ledger whose digest
    was lost, for a run of another config to write into."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p95]"))
    out = tmp_path / "out"
    manifest = out / "manifest.jsonl"
    synced = []  # (is the manifest, its lines then, the ledger's json files then)
    real_fsync = os.fsync

    def fsync(fd):
        is_manifest = os.fstat(fd).st_ino == manifest.stat().st_ino
        synced.append((is_manifest, manifest.read_text().splitlines(), list(out.rglob("*.json"))))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    assert run_experiment(system, cfg, str(out)).clean
    monkeypatch.undo()
    is_manifest, lines, written = synced[0]
    assert is_manifest and written == []
    assert [json.loads(line)["event"] for line in lines] == ["run-start"]
    assert [s[0] for s in synced].count(True) == 1


def test_resume_refuses_a_changed_system(tmp_path):
    """Editing the system file between runs changes the config digest, and
    the second run into the same directory stops before solving anything."""
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p95]")
    cfg, system = load_config(path)
    out = tmp_path / "out"
    assert run_experiment(system, cfg, str(out)).clean
    before = open(out / "manifest.jsonl").read()
    digest = cfg.digest()

    text = (tmp_path / "system.yaml").read_text()
    assert text.count("usd_per_mwh: 55.0") == 1
    (tmp_path / "system.yaml").write_text(text.replace("mwh: 55.0", "mwh: 56.0"))
    cfg2, system2 = load_config(path)
    assert cfg2.digest() != digest
    with pytest.raises(LedgerMismatchError, match="fresh"):
        run_experiment(system2, cfg2, str(out))
    assert open(out / "manifest.jsonl").read() == before

    assert run_experiment(system2, cfg2, str(tmp_path / "fresh")).clean
    # the time limit is part of the digest too
    cfg2.time_limit = 30.0
    with pytest.raises(LedgerMismatchError):
        run_experiment(system2, cfg2, str(tmp_path / "fresh"))


def test_a_torn_first_manifest_line_is_skipped(tmp_path):
    """A crash in a run's first manifest append leaves a torn line and no
    cell. A later run into the directory skips that line, and its own
    run-start starts a line of its own; a config of another digest is still
    refused."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p95]"))
    out = tmp_path / "out"
    out.mkdir()
    torn = '{"config_digest": "08a1'
    (out / "manifest.jsonl").write_text(torn)
    assert run_experiment(system, cfg, str(out)).done == ["d1.p95"]
    first, second, *_ = (out / "manifest.jsonl").read_text().splitlines()
    assert first == torn and json.loads(second)["config_digest"] == cfg.digest()
    assert run_experiment(system, cfg, str(out)).skipped == ["d1.p95"]
    cfg.time_limit = 30.0
    with pytest.raises(LedgerMismatchError):
        run_experiment(system, cfg, str(out))


def test_digest_is_taken_when_the_config_loads(tmp_path):
    """The digest covers the system file as `load_config` read it: an edit
    made afterwards does not change it, and a fresh load sees the edit."""
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]})
    cfg, _ = load_config(path)
    digest = cfg.digest()
    system_file = tmp_path / "system.yaml"
    system_file.write_text(system_file.read_text().replace("mwh: 55.0", "mwh: 56.0"))
    assert cfg.digest() == digest
    assert load_config(path)[0].digest() != digest


def test_cell_records_carry_model_sizes(tmp_path, monkeypatch):
    """What each solve did, with the EV bound made to certify nothing, so
    the stochastic pass runs its MILP; then the same cell with the bound
    certifying the EV commitment, so that no stochastic MILP runs."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    with monkeypatch.context() as m:
        force_suc_fallback(m)
        run_experiment(system, cfg, str(tmp_path / "out"))
    cells = aggregate(str(tmp_path / "out"))
    rec = cells["d1.suc-free.n2.rho0"]
    assert rec["suc"]["proved_by"] == rec["dam"]["proved_by"] == "milp"
    for kind in ("suc", "dam", "rtm"):
        size = rec[kind]
        assert size["rows"] > 0 and size["cols"] > 0 and size["nnz"] >= size["rows"]
    assert rec["suc"]["binaries"] == rec["dam"]["binaries"] == 2 * 4  # u per unit-hour
    assert rec["rtm"]["binaries"] == 0
    # what the LP solves did: the real-time LP's and the DAM pricing LP's
    # HiGHS seconds and simplex iterations, over their screening rounds
    for lp in (rec["rtm"], rec["dam"]["pricing_lp"]):
        assert lp["highs_s"] > 0.0 and lp["simplex_iterations"] >= 1
    # what the MILP solves did: HiGHS seconds, nodes, and the proven bound
    for kind in ("suc", "dam"):
        assert rec[kind]["highs_s"] > 0.0
        assert rec[kind]["mip_node_count"] >= 1
        assert rec[kind]["mip_dual_bound"] == pytest.approx(rec[kind]["objective_usd"], rel=1e-6)
    # the expected-value start of the two-scenario commitment
    suc = rec["suc"]
    assert suc["ev_usd"] <= suc["objective_usd"] * (1 + 1e-6) <= suc["eev_usd"] * (1 + 2e-6)
    assert 0.0 < suc["start_s"] < suc["wall_time_s"] and suc["start_used"] is True
    # the seconds spent building each model, outside HiGHS
    for kind in ("suc", "dam", "rtm"):
        assert rec[kind]["build_s"] > 0.0
    assert suc["build_s"] + suc["highs_s"] < suc["wall_time_s"]
    # certified: the completion is the answer, the cut of its cost the dual
    # bound (`optim.cutoff`); the bound MILP's HiGHS seconds are highs_s,
    # the completion's in start_s
    run_experiment(system, cfg, str(tmp_path / "certified"))
    suc = aggregate(str(tmp_path / "certified"))["d1.suc-free.n2.rho0"]["suc"]
    assert suc["proved_by"] == "ev_bound" and suc["start_used"] is False
    assert suc["objective_usd"] == suc["eev_usd"]
    assert suc["mip_dual_bound"] == optim.cutoff(suc["objective_usd"], cfg.gap_tol)
    assert suc["ev_usd"] <= suc["objective_usd"] and 0.0 < suc["mip_gap"] <= cfg.gap_tol
    assert suc["binaries"] == 2 * 4 and suc["highs_s"] > 0.0
    assert suc["build_s"] + suc["highs_s"] + suc["start_s"] < suc["wall_time_s"]


# what every stochastic or clairvoyant solve records: wall and build
# seconds, gap, screening, model size, HiGHS's record, the MIP start and
# what proved the answer
SOLVE_KEYS = {
    "wall_time_s", "mip_gap", "screen_rounds", "flow_rows", "build_s",
    "rows", "cols", "nnz", "binaries", "highs_s", "mip_node_count", "mip_dual_bound",
    "start_s", "start_used", "proved_by",
}


def test_ledger_keys_are_fixed(tmp_path):
    """The exact keys of a cell's records and of the clairvoyant file, so a
    record cannot gain or lose a field unnoticed. The clairvoyant file may
    carry the expected-value keys of the stochastic record, always null."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    out = tmp_path / "out"
    assert run_experiment(system, cfg, str(out)).clean
    rec = aggregate(str(out))["d1.suc-free.n2.rho0"]
    assert set(rec) == {
        "day", "method", "n_scenarios", "rho", "requirements", "suc", "dam", "rtm",
        "settlement", "clairvoyant_usd",
    }
    assert set(rec["suc"]) == SOLVE_KEYS | {"objective_usd", "ev_usd", "eev_usd"}
    assert set(rec["dam"]) == {
        "objective_usd", "shortfall_up_mw", "shortfall_dn_mw", "screen_rounds",
        "flow_rows", "build_s", "rows", "cols", "nnz", "binaries", "highs_s",
        "mip_node_count", "mip_dual_bound", "proved_by", "pricing_lp", "check_lp", "mip_gap",
        "bound_from",
    }
    assert set(rec["dam"]["pricing_lp"]) == {"highs_s", "simplex_iterations"}
    assert set(rec["rtm"]) == {
        "total_cost_usd", "commitment_cost_usd", "dispatch_cost_usd",
        "curtailment_cost_usd", "shed_mwh", "screen_rounds", "flow_rows", "build_s",
        "rows", "cols", "nnz", "binaries", "highs_s", "simplex_iterations", "shared_from",
    }
    ref = json.loads((out / "clairvoyant.d1.json").read_text())
    ev = {"ev_usd", "eev_usd"}
    assert set(ref) - ev == SOLVE_KEYS | {"day", "cost_usd"}
    assert all(ref[key] is None for key in ev & set(ref))


def test_ledger_counts_each_stochastic_pass_once(tmp_path, monkeypatch):
    """Both cells of a stochastic-pass group carry the pass's record, the
    later one as `optim.reused`: its size, bound and answer, and no work.
    So the pass's work fields, summed over the ledger, are those of the
    passes that ran, each counted once."""
    records = []
    real = stochastic_uc.solve_suc

    def solve_suc(system, scenarios, **kwargs):
        sol = real(system, scenarios, **kwargs)
        if scenarios.n_scenarios > 1:  # not a clairvoyant reference
            records.append(sol.record)
        return sol

    monkeypatch.setattr(stochastic_uc, "solve_suc", solve_suc)
    cfg, system = load_config(_write_inputs(tmp_path, DAYS))
    assert run_experiment(system, cfg, str(tmp_path / "out")).clean
    cells = aggregate(str(tmp_path / "out"))
    assert len(records) == 8
    for key in optim.WORK:
        ran = [rec[key] for rec in records if key in rec]
        summed = [c["suc"][key] for c in cells.values() if c["suc"] and key in c["suc"]]
        assert sum(summed) == pytest.approx(sum(ran), rel=1e-12), key
    assert sum(c["suc"]["highs_s"] for c in cells.values() if c["suc"]) > 0.0
    for n in (2, 3):
        for rho in ("0", "0.4"):
            for day in DAYS:
                first, later = (cells[f"{day}.{m}.n{n}.rho{rho}"]["suc"]
                                for m in ("suc-free", "suc-fixed"))
                assert later == optim.reused(first)


def test_clairvoyant_reference_gets_the_time_limit(tmp_path, monkeypatch):
    """The per-day reference is a full stochastic solve; the config's time
    limit bounds it as it bounds every other solve."""
    seen = []
    real = stochastic_uc.solve_suc

    def solve_suc(system, scenarios, **kwargs):
        seen.append((scenarios.n_scenarios, kwargs.get("time_limit")))
        return real(system, scenarios, **kwargs)

    monkeypatch.setattr(stochastic_uc, "solve_suc", solve_suc)
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="time_limit: 45.0")
    cfg, system = load_config(path)
    run_experiment(system, cfg, str(tmp_path / "out"))
    assert (1, 45.0) in seen  # the reference: one certain scenario
    assert {limit for _, limit in seen} == {45.0}


def test_clairvoyant_file_records_the_solve(tmp_path):
    """The per-day reference file holds what its solve did; a resume reads
    only its cost, so a file holding nothing else still resumes."""
    path = _write_inputs(tmp_path, {"d1": DAYS["d1"]}, extra="methods: [p95]")
    cfg, system = load_config(path)
    out = tmp_path / "out"
    assert run_experiment(system, cfg, str(out)).clean
    ref_file = out / "clairvoyant.d1.json"
    ref = json.loads(ref_file.read_text())
    assert ref["day"] == "d1"
    assert ref["rows"] > 0 and ref["cols"] > 0 and ref["nnz"] >= ref["rows"]
    assert ref["binaries"] == 2 * 4  # u per unit-hour
    assert ref["highs_s"] > 0.0 and ref["mip_node_count"] >= 1
    assert ref["mip_dual_bound"] == pytest.approx(ref["cost_usd"], rel=1e-6)
    assert ref["wall_time_s"] >= ref["highs_s"]
    # the start from its rounded LP relaxation; no expected-value costs
    assert 0.0 < ref["start_s"] < ref["wall_time_s"] and isinstance(ref["start_used"], bool)
    assert ref["ev_usd"] is None and ref["eev_usd"] is None
    cost = aggregate(str(out))["d1.p95"]["clairvoyant_usd"]
    assert cost == ref["cost_usd"]

    # a file from before the record was kept: the cost alone
    ref_file.write_text(json.dumps({"day": "d1", "cost_usd": 1234.5}))
    os.remove(out / "cells" / "d1.p95.json")
    again = run_experiment(system, cfg, str(out))
    assert again.clean and again.done == ["d1.p95"]
    assert aggregate(str(out))["d1.p95"]["clairvoyant_usd"] == 1234.5
    assert json.loads(ref_file.read_text()) == {"day": "d1", "cost_usd": 1234.5}


def test_runs_are_deterministic(tmp_path):
    cfg, system = load_config(_write_inputs(tmp_path, DAYS))
    run_experiment(system, cfg, str(tmp_path / "a"))
    run_experiment(system, cfg, str(tmp_path / "b"))
    csv_a, _ = write_reports(str(tmp_path / "a"))
    csv_b, _ = write_reports(str(tmp_path / "b"))
    assert open(csv_a).read() == open(csv_b).read()


def test_worker_pool_matches_serial(tmp_path):
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    serial = run_experiment(system, cfg, str(tmp_path / "serial"), workers=1)
    pooled = run_experiment(system, cfg, str(tmp_path / "pooled"), workers=2)
    assert serial.clean and pooled.clean
    assert sorted(serial.done) == sorted(pooled.done)
    csv_a, _ = write_reports(str(tmp_path / "serial"))
    csv_b, _ = write_reports(str(tmp_path / "pooled"))
    assert open(csv_a).read() == open(csv_b).read()


def test_failures_are_recorded_not_fatal(tmp_path):
    g = make_gen("g1", p_min=50.0, p_max=100.0, min_up=24,
                 on=True, p0=0.0, hours_on=1)
    system = single_bus_system(g)
    save_system(system, tmp_path / "system.yaml")
    (tmp_path / "config.yaml").write_text(
        """
system: system.yaml
master_seed: 5
n_scenarios: [2]
rho: [0.0]
methods: [suc-free, p95]
days:
  - name: doomed
    hourly_net_load_mw: {b1: [10.0, 10.0]}
"""
    )
    cfg, system = load_config(tmp_path / "config.yaml")
    result = run_experiment(system, cfg, str(tmp_path / "out"))
    assert not result.clean
    assert set(result.failed) == {"doomed.suc-free.n2.rho0", "doomed.p95"}
    manifest = open(tmp_path / "out" / "manifest.jsonl").read()
    assert '"status": "failed"' in manifest


_clairvoyant_cost = harness.clairvoyant_cost


def _clairvoyant_cost_with_pid(*args, **kwargs):
    """`clairvoyant_cost`, its record marked with the process that ran it;
    module-level, so that a pool can pickle it."""
    return {**_clairvoyant_cost(*args, **kwargs), "pid": os.getpid()}


def test_pool_solves_the_references_in_its_workers(tmp_path, monkeypatch):
    """With workers > 1 the clairvoyant references are pool jobs too, so
    the workers fork from a parent that has solved nothing."""
    monkeypatch.setattr(harness, "clairvoyant_cost", _clairvoyant_cost_with_pid)
    cfg, system = load_config(_write_inputs(tmp_path, DAYS, extra="methods: [p95]"))
    out = tmp_path / "out"
    result = run_experiment(system, cfg, str(out), workers=2)
    assert result.clean and sorted(result.done) == ["d1.p95", "d2.p95"]
    pids = {json.loads((out / f"clairvoyant.{d}.json").read_text())["pid"] for d in DAYS}
    assert os.getpid() not in pids
    for day in DAYS:
        ref = json.loads((out / f"clairvoyant.{day}.json").read_text())
        assert aggregate(str(out))[f"{day}.p95"]["clairvoyant_usd"] == ref["cost_usd"]


def test_pool_fails_a_day_whose_reference_fails(tmp_path):
    """As at workers=1, a day whose clairvoyant reference cannot be solved
    fails every one of its cells without running them; other days run."""
    g = make_gen("g1", p_min=50.0, p_max=100.0, min_up=24, on=True, p0=0.0, hours_on=1)
    save_system(single_bus_system(g), tmp_path / "system.yaml")
    (tmp_path / "config.yaml").write_text(
        """
system: system.yaml
master_seed: 5
n_scenarios: [2]
rho: [0.0]
methods: [suc-free, p95]
days:
  - name: doomed
    hourly_net_load_mw: {b1: [10.0, 10.0]}
  - name: fine
    hourly_net_load_mw: {b1: [70.0, 80.0]}
"""
    )
    cfg, system = load_config(tmp_path / "config.yaml")
    out = tmp_path / "out"
    result = run_experiment(system, cfg, str(out), workers=2)
    assert set(result.failed) == {"doomed.suc-free.n2.rho0", "doomed.p95"}
    assert "InfeasibleModelError" in result.failed["doomed.p95"]
    assert sorted(result.done) == ["fine.p95", "fine.suc-free.n2.rho0"]
    assert not (out / "clairvoyant.doomed.json").exists()
    entries = [json.loads(line) for line in open(out / "manifest.jsonl")]
    failed = [e["cell"] for e in entries if e.get("status") == "failed"]
    assert sorted(failed) == sorted(result.failed)


def test_import_leaves_out_the_process_pool():
    """The process pool is imported only when a run asks for workers, so a
    serial run and the CLI do not load multiprocessing (about 2 MB)."""
    code = (
        "import sys, frpsim, frpsim.harness, frpsim.cli\n"
        "assert frpsim.__file__.startswith(sys.argv[1]), frpsim.__file__\n"
        "print(sorted(m for m in sys.modules if m in ('concurrent.futures.process', 'queue')\n"
        "             or m.split('.')[0] == 'multiprocessing'))"
    )
    assert run_python(code) == "[]"

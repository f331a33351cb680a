"""Experiment harness: config parsing, the append-only cell ledger, resume,
percentile/scenario grid bookkeeping, and worker-pool equivalence."""

import json
import os

import numpy as np
import pytest

from frpsim import save_system
from frpsim.harness import (
    ALL_METHODS,
    PERCENTILE_METHODS,
    LedgerMismatchError,
    aggregate,
    load_config,
    run_experiment,
    write_reports,
)

from conftest import make_gen, single_bus_system


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
    """A stochastic job writes its cells one at a time. When the second
    write fails, the first cell stays finished: in ``done``, not in
    ``failed``, with one manifest line."""
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    out = tmp_path / "out"
    real_dump = json.dump

    def dies_on_suc_free(doc, fh, **kwargs):
        if doc.get("method") == "suc-free" and doc.get("day") == "d1":
            raise OSError("disk full")
        return real_dump(doc, fh, **kwargs)

    monkeypatch.setattr(json, "dump", dies_on_suc_free)
    result = run_experiment(system, cfg, str(out))
    fixed = [c for c in result.done if c.startswith("d1.suc-fixed.")]
    free = {c for c in result.failed if c.startswith("d1.suc-free.")}
    assert len(fixed) == 4 and len(free) == 4
    assert not any(c.startswith("d1.suc-fixed.") for c in result.failed)
    assert all(os.path.exists(out / "cells" / f"{c}.json") for c in fixed)
    assert not any(os.path.exists(out / "cells" / f"{c}.json") for c in free)
    manifest = [
        json.loads(ln) for ln in open(out / "manifest.jsonl").read().splitlines()
    ]
    for cell in fixed:
        lines = [m for m in manifest if m.get("cell") == cell]
        assert [m["status"] for m in lines] == ["done"]


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


def test_cell_records_carry_model_sizes(tmp_path):
    cfg, system = load_config(_write_inputs(tmp_path, {"d1": DAYS["d1"]}))
    run_experiment(system, cfg, str(tmp_path / "out"))
    cells = aggregate(str(tmp_path / "out"))
    rec = cells["d1.suc-free.n2.rho0"]
    for kind in ("suc", "dam", "rtm"):
        size = rec[kind]
        assert size["rows"] > 0 and size["cols"] > 0 and size["nnz"] >= size["rows"]
    assert rec["suc"]["binaries"] == rec["dam"]["binaries"] == 2 * 4  # u per unit-hour
    assert rec["rtm"]["binaries"] == 0
    # what the MILP solves did: HiGHS seconds, nodes, and the proven bound
    for kind in ("suc", "dam"):
        assert rec[kind]["highs_s"] > 0.0
        assert rec[kind]["mip_node_count"] >= 1
        assert rec[kind]["mip_dual_bound"] == pytest.approx(rec[kind]["objective_usd"], rel=1e-6)


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

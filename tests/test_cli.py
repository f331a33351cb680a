"""Command-line flows wired end to end through temp files."""

import json
from pathlib import Path

import numpy as np
import pytest

from frpsim import optim, save_system
from frpsim.cli import main
from frpsim.data import case_path

from conftest import make_gen, single_bus_system


def _write_csv(path, buses, values, prefix="h"):
    values = np.atleast_2d(values)
    cols = ",".join(f"{prefix}{i}" for i in range(values.shape[1]))
    rows = [f"bus,{cols}"]
    rows += [",".join([b] + [f"{v}" for v in row]) for b, row in zip(buses, values)]
    path.write_text("\n".join(rows) + "\n")


@pytest.fixture
def workdir(tmp_path):
    g1 = make_gen("g1", p_max=260.0, segments=((160.0, 25.0), (260.0, 40.0)),
                  no_load=6.0, startup=80.0, on=True, p0=100.0)
    g2 = make_gen("g2", p_max=120.0, segments=((120.0, 55.0),),
                  no_load=2.0, startup=25.0)
    save_system(single_bus_system(g1, g2), tmp_path / "system.yaml")
    _write_csv(tmp_path / "forecast.csv", ["b1"], [[100.0, 150.0, 210.0, 140.0]])
    return tmp_path


def test_validate_ok(capsys):
    assert main(["validate", str(case_path("single_bus_two_gen.yaml"))]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_issues(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        Path(case_path("single_bus_two_gen.yaml")).read_text().replace(
            "p_max_mw: 100.0", "p_max_mw: 5.0"
        )
    )
    assert main(["validate", str(bad)]) == 1
    assert "invalid system" in capsys.readouterr().err


def test_full_pipeline(workdir, capsys):
    sys_file = str(workdir / "system.yaml")
    fc = str(workdir / "forecast.csv")

    assert main([
        "gen-scenarios", "--system", sys_file, "--forecast", fc,
        "--sigma", "0.04", "--rho", "0.3", "--n", "3", "--seed", "7",
        "--out", str(workdir / "scen.json"),
    ]) == 0

    assert main([
        "suc-solve", "--system", sys_file,
        "--scenarios", str(workdir / "scen.json"),
        "--out", str(workdir / "suc.json"),
    ]) == 0
    assert "objective" in capsys.readouterr().out

    assert main([
        "frp-req", "--method", "suc",
        "--solution", str(workdir / "suc.json"),
        "--scenarios", str(workdir / "scen.json"),
        "--out", str(workdir / "req.csv"),
    ]) == 0
    assert "suc-derived" in (workdir / "req.csv").read_text()

    assert main([
        "dam-clear", "--system", sys_file, "--bids", fc,
        "--req", str(workdir / "req.csv"),
        "--fix-commitments", str(workdir / "suc.json"),
        "--out", str(workdir / "dam.json"),
    ]) == 0
    dam = json.loads((workdir / "dam.json").read_text())
    assert dam["hours"] == 4

    _write_csv(
        workdir / "realized.csv", ["b1"], [[104.0, 146.0, 215.0, 138.0]], prefix="k"
    )
    assert main([
        "rtm-sim", "--system", sys_file, "--dam", str(workdir / "dam.json"),
        "--realized", str(workdir / "realized.csv"),
        "--settlement-out", str(workdir / "settle.csv"),
    ]) == 0
    out = capsys.readouterr().out
    assert "total cost" in out and "settlement" in out
    assert (workdir / "settle.csv").read_text().count("\n") >= 3

    assert main([
        "sweep", "--system", sys_file, "--forecast", fc,
        "--dam", f"fixed={workdir / 'dam.json'}",
        "--sigmas", "0.0,0.05", "--rho", "0.3", "--seed", "7",
        "--out", str(workdir / "sweep.csv"),
    ]) == 0
    sweep = (workdir / "sweep.csv").read_text().strip().splitlines()
    assert sweep[0] == "method,day,sigma_frac,cost_usd,shed_mwh"
    assert len(sweep) == 3


def test_percentile_req_and_arg_errors(workdir):
    assert main([
        "frp-req", "--method", "p95", "--forecast", str(workdir / "forecast.csv"),
        "--sigma", "0.05", "--out", str(workdir / "req95.csv"),
    ]) == 0
    assert "percentile-95" in (workdir / "req95.csv").read_text()
    with pytest.raises(SystemExit, match="requires"):
        main(["frp-req", "--method", "suc", "--out", str(workdir / "x.csv")])
    with pytest.raises(SystemExit, match="requires"):
        main(["frp-req", "--method", "p90", "--out", str(workdir / "x.csv")])


def test_dam_clear_dumps_an_lp_highs_loads(workdir):
    """``dam-clear --dump-lp`` writes the clearing model as an LP file that
    HiGHS reads back and solves to the objective the market cleared at."""
    fc = str(workdir / "forecast.csv")
    assert main(["frp-req", "--method", "p90", "--forecast", fc,
                 "--out", str(workdir / "req.csv")]) == 0
    assert main([
        "dam-clear", "--system", str(workdir / "system.yaml"), "--bids", fc,
        "--req", str(workdir / "req.csv"), "--out", str(workdir / "dam.json"),
        "--dump-lp", str(workdir / "dam.lp"),
    ]) == 0
    highs = optim._highs._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("mip_rel_gap", 1e-6)
    assert highs.readModel(str(workdir / "dam.lp")) == optim._highs.HighsStatus.kOk
    assert highs.run() == optim._highs.HighsStatus.kOk
    cleared = json.loads((workdir / "dam.json").read_text())["objective_usd"]
    assert highs.getInfo().objective_function_value == pytest.approx(cleared, rel=1e-6)


def test_bad_profile_header(workdir):
    (workdir / "junk.csv").write_text("node,h0\nb1,5\n")
    with pytest.raises(SystemExit, match="bus"):
        main([
            "gen-scenarios", "--system", str(workdir / "system.yaml"),
            "--forecast", str(workdir / "junk.csv"),
            "--sigma", "0.04", "--n", "2", "--seed", "1",
            "--out", str(workdir / "s.json"),
        ])


def test_run_and_report(workdir, capsys):
    (workdir / "config.yaml").write_text(
        """
system: system.yaml
master_seed: 9
sigma_frac: 0.04
n_scenarios: [2]
rho: [0.0]
methods: [suc-fixed, suc-free, p95]
days:
  - name: d1
    hourly_net_load_mw: {b1: [100.0, 150.0, 210.0, 140.0]}
"""
    )
    assert main([
        "run", "--config", str(workdir / "config.yaml"),
        "--out", str(workdir / "ledger"),
    ]) == 0
    out = capsys.readouterr().out
    assert "cells done 3" in out

    assert main(["report", "--ledger", str(workdir / "ledger")]) == 0
    table = capsys.readouterr().out
    assert "d1.p95" in table and "cells.csv" in table
    assert (workdir / "ledger" / "totals.csv").exists()


def test_run_partial_failure_exit_code(tmp_path, capsys):
    g = make_gen("g1", p_min=50.0, p_max=100.0, min_up=24,
                 on=True, p0=0.0, hours_on=1)
    save_system(single_bus_system(g), tmp_path / "system.yaml")
    (tmp_path / "config.yaml").write_text(
        """
system: system.yaml
master_seed: 5
n_scenarios: [2]
rho: [0.0]
methods: [p95]
days:
  - name: doomed
    hourly_net_load_mw: {b1: [10.0, 10.0]}
"""
    )
    assert main([
        "run", "--config", str(tmp_path / "config.yaml"),
        "--out", str(tmp_path / "ledger"),
    ]) == 2
    assert "FAILED doomed.p95" in capsys.readouterr().err


def test_report_empty_ledger(tmp_path, capsys):
    assert main(["report", "--ledger", str(tmp_path)]) == 1
    assert "no finished cells" in capsys.readouterr().err

"""Command-line flows wired end to end through temp files."""

import csv
import functools
import hashlib
import io
import json
import operator
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frpsim import harness, optim, realtime, save_system
from frpsim.cli import main
from frpsim.data import case_path, corpus_path

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


@pytest.mark.parametrize("old, new, named", [
    ("p_max_mw: 100.0", "p_max_mw: lots", "generator g1: p_max_mw must be float"),
    ("min_up_h: 1\n", "min_up_h: two\n", "generator g1: min_up_h must be int"),
    ("lines: []", "lines: null", "system: lines must be a list"),
    ("  - id: g2\n    bus: b1\n", "  - g2\n  - bus: b1\n",
     "generator #position 1: expected a mapping"),
    ("{committed: false", '{committed: "false"',
     "generator g2 initial state: committed must be bool, got 'false'"),
    ("min_up_h: 1\n", "min_up_h: 2.7\n", "generator g1: min_up_h must be int, got 2.7"),
    # a key no table declares, one in each mapping of the file: shift
    # factors come from the lines, so a matrix is refused too
    ("lines: []", "lines: []\nisf: [[0.0]]", "system: unknown key 'isf'"),
    ("lines: []", "lines: []\nisf: [[0.0], []]", "system: unknown key 'isf'"),
    ("frp_shortfall_usd_per_mw: 1500.0\n", "frp_shortfall_usd_per_mw: 1500.0\n  voll: 9.0\n",
     "penalties: unknown key 'voll'"),
    ("{id: b1, slack: true}", "{id: b1, slack: true, kv: 138}", "bus b1: unknown key 'kv'"),
    ("lines: []", "lines: [{id: l1, from: b1, to: b1, reactance_pu: 0.1, flow_min_mw: -1.0, "
     "flow_max_mw: 1.0, rating_mw: 1.0}]", "line l1: unknown key 'rating_mw'"),
    ("no_load_usd_per_h: 5.0", "no_load_usd_per_hr: 5.0",
     "generator g1: unknown key 'no_load_usd_per_hr'"),
    ("{to_mw: 50.0, usd_per_mwh: 20.0}", "{to_mw: 50.0, usd_per_mw: 20.0}",
     "generator g1 segment 0: unknown key 'usd_per_mw'"),
    ("hours_on: 5}", "hours_onn: 5}", "generator g1 initial state: unknown key 'hours_onn'"),
], ids=["float", "int", "list", "mapping", "bool", "integral", "isf", "ragged-isf", "penalties",
        "bus", "line", "generator", "segment", "initial"])
def test_validate_names_a_mistyped_key(tmp_path, capsys, old, new, named):
    """A value of the wrong type, or a key the file's tables do not declare,
    exits 1 with the entity and key it concerns, not with a traceback."""
    text = Path(case_path("single_bus_two_gen.yaml")).read_text()
    assert old in text
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace(old, new, 1))
    assert main(["validate", str(bad)]) == 1
    assert f"malformed system file: {named}" in capsys.readouterr().err


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


def _gen_scenarios_from(workdir, text):
    (workdir / "junk.csv").write_text(text)
    main([
        "gen-scenarios", "--system", str(workdir / "system.yaml"),
        "--forecast", str(workdir / "junk.csv"),
        "--sigma", "0.04", "--n", "2", "--seed", "1",
        "--out", str(workdir / "s.json"),
    ])


def test_bad_profile_header(workdir):
    with pytest.raises(SystemExit, match="bus"):
        _gen_scenarios_from(workdir, "node,h0\nb1,5\n")


@pytest.mark.parametrize(
    "text, where, why",
    [
        ("\nbus,h0\nb1,5\n", "row 1", "header"),
        ("bus,h0,h1\nb1,5,6\nb2,7\n", "row 3", "2 fields, header has 3"),
        ("bus,h0,h1\nb1,5,x\n", "row 2", "could not convert"),
    ],
    ids=["blank-first-line", "ragged-row", "non-numeric"],
)
def test_malformed_profile_csv_names_file_and_row(workdir, text, where, why):
    """A profile CSV from outside fails with a message naming the file and
    the row, not with an IndexError or numpy's shape error."""
    with pytest.raises(SystemExit) as exc:
        _gen_scenarios_from(workdir, text)
    message = str(exc.value)
    assert message.startswith(f"{workdir / 'junk.csv'}: {where}: ") and why in message


@pytest.fixture
def staged(workdir):
    """Each stage file the pipeline writes in ``workdir``, with the command
    that reads it."""
    f = {name: str(workdir / name) for name in (
        "system.yaml", "forecast.csv", "scen.json", "suc.json", "req.csv", "dam.json",
    )}
    dam_clear = ["dam-clear", "--system", f["system.yaml"], "--bids", f["forecast.csv"],
                 "--req", f["req.csv"], "--out", f["dam.json"]]
    commands = {
        "scen.json": ["suc-solve", "--system", f["system.yaml"],
                      "--scenarios", f["scen.json"], "--out", f["suc.json"]],
        "suc.json": [*dam_clear, "--fix-commitments", f["suc.json"]],
        "req.csv": dam_clear,
        "forecast.csv": dam_clear,
        "dam.json": ["rtm-sim", "--system", f["system.yaml"], "--dam", f["dam.json"],
                     "--realized", str(workdir / "realized.csv")],
    }
    _write_csv(workdir / "realized.csv", ["b1"], [[104.0, 146.0, 215.0, 138.0]], prefix="k")
    assert main(["gen-scenarios", "--system", f["system.yaml"], "--forecast", f["forecast.csv"],
                 "--sigma", "0.04", "--n", "3", "--seed", "7", "--out", f["scen.json"]]) == 0
    assert main(commands["scen.json"]) == 0
    assert main(["frp-req", "--method", "suc", "--solution", f["suc.json"],
                 "--scenarios", f["scen.json"], "--out", f["req.csv"]]) == 0
    for name in ("suc.json", "req.csv", "dam.json"):
        assert main(commands[name]) == 0
    return commands


def _truncated(text):
    return text[: len(text) // 2]


def _negative_hour_0(text):
    return re.sub(r"^0,.*$", "0,-5.0,0.0", text, count=1, flags=re.M)


def _byte_ff(text):
    """``text`` with a byte that is not UTF-8 after its first line."""
    first, _, rest = text.encode().partition(b"\n")
    return first + b"\n\xff" + rest


def _missing(text):
    return None


@pytest.mark.parametrize("name, edit, named", [
    ("scen.json", _truncated, "not valid JSON"),
    ("suc.json", _truncated, "not valid JSON"),
    ("dam.json", _truncated, "not valid JSON"),
    ("req.csv", _truncated, "missing or not numeric"),
    ("suc.json", lambda _: '{"gen_ids": ["g1"]}', "missing required field 'hours'"),
    ("dam.json", lambda _: '{"gen_ids": ["g1"]}', "missing required field 'bus_ids'"),
    ("req.csv", lambda text: text.replace(",dn_mw", ",down_mw"), "column dn_mw"),
    ("scen.json", lambda text: text.replace('"probabilities": [', '"probabilities": [1.0, '),
     "one probability per scenario required"),
    ("req.csv", _negative_hour_0, "column up_mw holds a negative requirement"),
    ("req.csv", _byte_ff, "not UTF-8 (invalid start byte at byte "),
    ("forecast.csv", _byte_ff, "not UTF-8 (invalid start byte at byte "),
    ("forecast.csv", _missing, "cannot read (No such file or directory)"),
    ("suc.json", _missing, "cannot read (No such file or directory)"),
], ids=[
    "scenarios", "suc", "dam", "requirements", "suc-keys", "dam-keys", "requirements-column",
    "scenarios-refused", "requirements-negative", "requirements-not-utf8", "bids-not-utf8",
    "bids-missing", "suc-missing",
])
def test_malformed_stage_file_is_named_in_one_line(workdir, staged, name, edit, named):
    """A stage file that is missing, not UTF-8, cut short, lacking a key or
    holding a value its class refuses exits with one line naming the file,
    not with a traceback."""
    path = workdir / name
    text = edit(path.read_text())
    if text is None:
        path.unlink()
    else:
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SystemExit) as exc:
        main(staged[name])
    message = str(exc.value)
    assert message.startswith(f"malformed file: {path}: ") and named in message, message
    assert "\n" not in message


GEN = ["gen-scenarios", "--system", "{w}/system.yaml", "--forecast", "{w}/forecast.csv",
       "--sigma", "0.04", "--n", "2", "--seed", "1", "--out", "{w}/new"]
PCT = ["frp-req", "--method", "p95", "--forecast", "{w}/forecast.csv", "--out", "{w}/new"]
SWEEP = ["sweep", "--system", "{w}/system.yaml", "--forecast", "{w}/forecast.csv",
         "--dam", "a={w}/dam.json", "--sigmas", "0.0,0.05", "--seed", "7", "--out", "{w}/new"]
DAM = ["dam-clear", "--system", "{w}/system.yaml", "--bids", "{w}/forecast.csv", "--req",
       "{w}/req.csv", "--out", "{w}/new"]
SUC = ["suc-solve", "--system", "{w}/system.yaml", "--scenarios", "{w}/scen.json",
       "--out", "{w}/new"]
RUN = ["run", "--config", "{w}/config.yaml", "--out", "{w}/new"]


@pytest.mark.parametrize("argv, named", [
    (GEN + ["--rho", "1.5"], "--rho must be in [0, 1), got 1.5"),
    (GEN + ["--n", "0"], "--n must be at least 1, got 0"),
    (GEN + ["--sigma", "nan"], "--sigma must be a finite number >= 0, got nan"),
    (GEN + ["--sigma", "-0.04"], "--sigma must be a finite number >= 0, got -0.04"),
    (GEN + ["--periods-per-hour", "7"],
     "--periods-per-hour must be a positive divisor of 60, got 7"),
    (PCT + ["--sigma", "nan"], "--sigma must be a finite number >= 0, got nan"),
    (PCT + ["--periods-per-hour", "-4"], "--periods-per-hour must be a positive divisor"),
    (["rtm-sim", "--system", "{w}/system.yaml", "--dam", "{w}/dam.json", "--realized",
      "{w}/realized.csv", "--periods-per-hour", "0", "--settlement-out", "{w}/new"],
     "--periods-per-hour must be a positive divisor of 60, got 0"),
    (SWEEP + ["--periods-per-hour", "7"], "--periods-per-hour must be a positive divisor"),
    (SWEEP + ["--rho", "1.5"], "--rho must be in [0, 1), got 1.5"),
    (SWEEP + ["--sigmas", "0.0,-0.05"], "--sigmas wants comma-separated finite numbers >= 0"),
    (SWEEP + ["--dam", "a={w}/dam.json"], "--dam names 'a' twice"),
    (GEN[:-4] + ["--seed", "-1", "--out", "{w}/new"], "--seed must be at least 0, got -1"),
    (SWEEP[:-4] + ["--seed", "-1", "--out", "{w}/new"], "--seed must be at least 0, got -1"),
    (DAM + ["--gap-tol", "nan"], "--gap-tol must be a finite number >= 0, got nan"),
    (DAM + ["--gap-tol", "-1"], "--gap-tol must be a finite number >= 0, got -1.0"),
    (SUC + ["--gap-tol", "inf"], "--gap-tol must be a finite number >= 0, got inf"),
    (DAM + ["--time-limit", "nan"], "--time-limit must be a finite number >= 0, got nan"),
    (DAM + ["--time-limit", "-1"], "--time-limit must be a finite number >= 0, got -1.0"),
    (SUC + ["--time-limit", "-1"], "--time-limit must be a finite number >= 0, got -1.0"),
    (SUC + ["--time-limit", "inf"], "--time-limit must be a finite number >= 0, got inf"),
    (GEN[:4] + ["{w}/other.csv"] + GEN[5:], "{w}/other.csv: buses do not match system buses"),
    (DAM[:4] + ["{w}/other.csv"] + DAM[5:], "{w}/other.csv: buses do not match system buses"),
    (RUN + ["--workers", "0"], "--workers must be at least 1, got 0"),
    (RUN + ["--workers", "-2"], "--workers must be at least 1, got -2"),
], ids=["rho", "n", "sigma-nan", "sigma-negative", "gen-periods", "req-sigma-nan", "req-periods",
        "rtm-periods", "sweep-periods", "sweep-rho", "sweep-sigmas", "sweep-dam-twice",
        "gen-seed", "sweep-seed", "dam-gap-nan", "dam-gap-negative", "suc-gap-inf",
        "dam-time-nan", "dam-time-negative", "suc-time-negative", "suc-time-inf",
        "gen-buses", "dam-buses", "run-workers-0", "run-workers-negative"])
def test_an_argument_out_of_range_ends_in_one_line(workdir, staged, capsys, argv, named):
    """An argument out of its range, or a profile of other buses than the
    system, ends the command with exit status 1 and one line naming the
    argument or the file, before any output is written."""
    _write_csv(workdir / "other.csv", ["b9"], [[100.0, 150.0, 210.0, 140.0]])
    (workdir / "config.yaml").write_text(CONFIG)
    status, lines = _outcome([a.format(w=workdir) for a in argv], capsys)
    assert (status, len(lines)) == (1, 1), lines
    assert lines[0].startswith(named.format(w=workdir)), lines
    assert not (workdir / "new").exists()


def test_dam_clear_refuses_commitments_of_other_units(workdir, staged):
    path = workdir / "suc.json"
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(doc | {"gen_ids": doc["gen_ids"][::-1]}))
    with pytest.raises(SystemExit, match="units do not match"):
        main(staged["suc.json"])


def test_frp_req_refuses_a_solution_of_other_scenarios(workdir, staged):
    """A SUC solution solved on another scenario set ends frp-req with one
    line naming both files, not with numpy's broadcast error or, for a
    one-scenario set, requirements computed from the wrong scenarios."""
    for n in (1, 2):
        other = workdir / f"other{n}.json"
        assert main(["gen-scenarios", "--system", str(workdir / "system.yaml"),
                     "--forecast", str(workdir / "forecast.csv"), "--sigma", "0.04",
                     "--n", str(n), "--seed", "3", "--out", str(other)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["frp-req", "--method", "suc", "--solution", str(workdir / "suc.json"),
                  "--scenarios", str(other), "--out", str(workdir / "req.csv")])
        assert str(exc.value) == (
            f"{workdir / 'suc.json'}: buses, grid or scenarios differ from {other}"
        )


@pytest.mark.parametrize("name, edit", [
    ("dam.json", lambda text: json.dumps(
        (doc := json.loads(text)) | {"gen_ids": doc["gen_ids"][::-1]}
    )),
    ("realized.csv", lambda text: text.replace("\nb1,", "\nb9,")),
], ids=["dam-units", "realized-buses"])
def test_rtm_sim_refuses_files_of_other_units_or_buses(workdir, staged, name, edit):
    """A DAM file cleared for other units, or a realized profile of other
    buses, ends rtm-sim with one line naming the file, not with
    simulate_rtm's ValueError."""
    path = workdir / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(SystemExit) as exc:
        main(staged["dam.json"])
    message = str(exc.value)
    assert message.startswith(f"{path}: ") and "do not match" in message, message
    assert "\n" not in message


CONFIG = """
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


def _outcome(argv, capsys):
    """(exit status, stderr lines) of ``frp-sim argv``, run in this process:
    a SystemExit message is printed as the console script prints it."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    err = capsys.readouterr().err
    if isinstance(status, str):
        err, status = f"{err}{status}\n", 1
    return status or 0, err.splitlines()


@pytest.mark.parametrize("command, write, named", [
    (["validate", "{path}"], None, "malformed system file: {path}: cannot read"),
    (["run", "--config", "{path}", "--out", "{dir}/ledger"], None,
     "malformed file: {path}: cannot read"),
    (["validate", "{path}"], "format_version: 1\npenalties: {curtailment_usd_per_mwh: 1\n",
     "malformed system file: {path}: not valid YAML ("),
    (["run", "--config", "{path}", "--out", "{dir}/ledger"], CONFIG.split("days:")[0] + "days: [",
     "malformed file: {path}: not valid YAML ("),
    (["report", "--ledger", "{dir}/ledger"], "cell", "malformed file: {path}: not valid JSON ("),
], ids=["validate-missing", "run-missing", "validate-not-yaml", "run-not-yaml", "report-not-json"])
def test_unreadable_input_ends_in_one_line(workdir, capsys, command, write, named):
    """A missing input file, a YAML file that does not parse and a ledger
    cell that is not JSON each end the command with exit status 1 and one
    line that names the file, not with a traceback."""
    path = workdir / "input.yaml"
    if write == "cell":
        path = workdir / "ledger" / "cells" / "d1.p95.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"day": "d1", "method": "p')
    elif write is not None:
        path.write_text(write)
    status, lines = _outcome([a.format(path=path, dir=workdir) for a in command], capsys)
    assert status == 1 and len(lines) == 1, lines
    assert lines[0].startswith(named.format(path=path)), lines


# what a draw puts in place of a value: one of another type than the value's
JUNK = ("x", "", None, True, 2.5, -1, [], {}, [1.0, "x"])
CSV_JUNK = ("x", "", "-1", "nan")


def _paths(doc, path=()):
    """The path of every value in a parsed document: its keys and list
    positions from the top."""
    if not isinstance(doc, (dict, list)):
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield (*path, key)
        yield from _paths(value, (*path, key))


def _mutant(data, kind, raw):
    """``raw``, the bytes of a ``kind`` file ("yaml", "json", "jsonl" or
    "csv"), with one edit drawn: a key deleted, a value retyped, the file
    cut short, or a byte that is not UTF-8 inserted. A CSV's keys are its
    columns, after a ``#`` line if it has one."""
    edit = data.draw(st.sampled_from(["delete", "retype", "truncate", "byte"]), label="edit")
    if edit == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    if edit == "byte":
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + data.draw(st.sampled_from([b"\x80", b"\xc3", b"\xff"])) + raw[at:]
    text = raw.decode()
    if kind == "csv":
        note = text.split("\n", 1)[0] + "\n" if text.startswith("#") else ""
        rows = list(csv.reader(io.StringIO(text[len(note):])))
        j = data.draw(st.integers(0, len(rows[0]) - 1), label="column")
        if edit == "delete":
            rows = [row[:j] + row[j + 1:] for row in rows]
        else:
            i = data.draw(st.integers(0, len(rows) - 1), label="row")
            rows[i][j] = data.draw(st.sampled_from(CSV_JUNK), label="cell")
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return (note + out.getvalue()).encode()
    if kind == "jsonl":
        doc = [json.loads(line) for line in text.splitlines()]
    else:
        doc = yaml.safe_load(text) if kind == "yaml" else json.loads(text)
    at = lambda path: functools.reduce(operator.getitem, path, doc)  # noqa: E731
    paths = [p for p in _paths(doc) if edit == "retype" or isinstance(at(p[:-1]), dict)]
    path = data.draw(st.sampled_from(paths), label="path")
    parent, key = at(path[:-1]), path[-1]
    if edit == "delete":
        del parent[key]
    else:
        junk = [j for j in JUNK if type(j) is not type(parent[key])]
        parent[key] = data.draw(st.sampled_from(junk), label="value")
    if kind == "jsonl":
        return "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in doc).encode()
    return (yaml.safe_dump(doc, sort_keys=False) if kind == "yaml" else json.dumps(doc)).encode()


SYSTEMS = ("ieee14.yaml", "ramp_toy.yaml", "single_bus_two_gen.yaml", "corpus/system.yaml")
MUTATED = (*SYSTEMS, "config.yaml", "scen.json", "suc.json", "dam.json", "req.csv",
           "forecast.csv", "realized.csv", "manifest.jsonl")


def _no_run(system, cfg, out_dir, workers=1):
    """`run_experiment` as far as a config reaches it before any solve."""
    cfg.digest()
    return harness.RunResult(out_dir)


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_input_ends_in_one_line(workdir, staged, capsys, monkeypatch, data):
    """Every input the package reads, with a key deleted, a value retyped,
    cut short or holding a byte that is not UTF-8, ends each subcommand that
    reads it with exit status 0, 1 or 2, never with a traceback; an exit 1
    prints one line, or `validate`'s list of issues, and an exit 2 one
    FAILED line per cell.

    The inputs: the four shipped system files (read by `validate` and
    `gen-scenarios`; every other subcommand reads its system through the
    same `load_system` and error handler as `gen-scenarios`), the corpus
    config (read by `run`, whose solves are left out: `_no_run`), the
    staged scenario, SUC and DAM files, the requirements and the profile
    CSV, and the manifest of a finished run (read by `run` on resume)."""
    f = {name: str(workdir / name) for name in (
        "system.yaml", "forecast.csv", "scen.json", "suc.json", "req.csv", "dam.json",
        "realized.csv", "config.yaml")}
    if not (workdir / "ledger").exists():  # once per test, not per draw
        (workdir / "config.yaml").write_text(CONFIG)
        assert main(["run", "--config", f["config.yaml"], "--out", str(workdir / "ledger")]) == 0
        (workdir / "corpus").mkdir()
        shutil.copy(corpus_path("system.yaml"), workdir / "corpus")
    capsys.readouterr()
    name = data.draw(st.sampled_from(MUTATED), label="input")
    mutant, out = workdir / "mutant", str(workdir / "out")
    gen_scenarios = ["gen-scenarios", "--system", f["system.yaml"], "--forecast", f["forecast.csv"],
                     "--sigma", "0.04", "--n", "2", "--seed", "1", "--out", out]
    dam_clear = ["dam-clear", "--system", f["system.yaml"], "--bids", f["forecast.csv"],
                 "--req", f["req.csv"], "--out", out]
    if name in SYSTEMS:
        source = case_path(name)
        commands = [["validate", str(mutant)],
                    [*gen_scenarios[:2], str(mutant), *gen_scenarios[3:]]]
    elif name == "config.yaml":
        source, mutant = corpus_path(name), workdir / "corpus" / name
        commands = [["run", "--config", str(mutant), "--out", out]]
        monkeypatch.setattr(harness, "run_experiment", _no_run)
    elif name == "manifest.jsonl":
        source, resumed = workdir / "ledger" / name, workdir / "resumed"
        shutil.rmtree(resumed, ignore_errors=True)
        shutil.copytree(workdir / "ledger", resumed)
        mutant = resumed / name
        commands = [["run", "--config", f["config.yaml"], "--out", str(resumed)]]
    else:  # each staged file, mutated, in place of the one each command reads
        source = workdir / name
        commands = [[a.replace(f[name], str(mutant)) for a in argv] for argv in (
            ["suc-solve", "--system", f["system.yaml"], "--scenarios", f["scen.json"],
             "--out", out],
            ["frp-req", "--method", "suc", "--solution", f["suc.json"],
             "--scenarios", f["scen.json"], "--out", out],
            ["frp-req", "--method", "p95", "--forecast", f["forecast.csv"], "--out", out],
            [*dam_clear, "--fix-commitments", f["suc.json"]],
            ["rtm-sim", "--system", f["system.yaml"], "--dam", f["dam.json"],
             "--realized", f["realized.csv"]],
            ["sweep", "--system", f["system.yaml"], "--forecast", f["forecast.csv"],
             "--dam", f"fixed={f['dam.json']}", "--sigmas", "0.0,0.05", "--seed", "7",
             "--out", out],
            gen_scenarios,
        ) if any(f[name] in a for a in argv)]
    kind = Path(name).suffix[1:]
    mutant.write_bytes(_mutant(data, kind, Path(source).read_bytes()))
    try:
        for argv in commands:
            status, lines = _outcome(argv, capsys)
            assert status in (0, 1, 2), (argv, status, lines)
            if status == 1 and not (argv[0] == "validate" and lines[:1] == ["invalid system:"]):
                assert len(lines) == 1, (argv, lines)
            if status == 2:
                assert lines and all(line.startswith("  FAILED ") for line in lines), lines
    finally:
        monkeypatch.undo()


def _every_command_with_system(workdir, staged, p_max):
    """(command, message) for each command but `validate` run on the system
    file with g1's ``p_max_mw: 260.0`` replaced by ``p_max``."""
    path = workdir / "system.yaml"
    text = path.read_text()
    assert "p_max_mw: 260.0" in text
    path.write_text(text.replace("p_max_mw: 260.0", f"p_max_mw: {p_max}"))
    (workdir / "config.yaml").write_text(CONFIG)
    run = ["run", "--config", str(workdir / "config.yaml"), "--out", str(workdir / "ledger")]
    for command in (*staged.values(), run):
        with pytest.raises(SystemExit) as exc:
            main(command)
        yield command, str(exc.value)


def test_every_command_names_a_malformed_system_file(workdir, staged):
    """A mistyped system file ends each command but `validate` with one
    "malformed file:" line that names the file, then the entry and key."""
    path = workdir / "system.yaml"
    for command, message in _every_command_with_system(workdir, staged, "lots"):
        assert message.startswith(
            f"malformed file: {path}: generator g1: p_max_mw must be float"
        ), command


def test_every_command_names_an_invalid_system_file(workdir, staged):
    """A system file that parses but breaks an invariant ends each command
    but `validate` with one line that names the file and every issue."""
    path = workdir / "system.yaml"
    for command, message in _every_command_with_system(workdir, staged, "5.0"):
        assert message.startswith(f"{path}: invalid system: generator g1: last segment"), command
        assert "\n" not in message


@pytest.mark.parametrize("old, new, named", [
    ("master_seed: 9\n", "", "missing required field 'master_seed'"),
    ("rho: [0.0]\n", "rho: [0.0]\nperiods_per_hour: two\n",
     "periods_per_hour must be int, got 'two'"),
    ("n_scenarios: [2]", "n_scenarios: [2.5]", "n_scenarios must be int, got 2.5"),
    ("methods: [suc-fixed,", "methods: [warp-drive,", "unknown method 'warp-drive'"),
    ("n_scenarios: [2]", "n_scenarios: 2", "n_scenarios must be list, got 2"),
    ("methods: [suc-fixed, suc-free, p95]", "methods: p95", "methods must be list, got 'p95'"),
    ("rho: [0.0]\n", "rho: [0.0]\nout_of_sample: [0.01, 0.3]\n",
     "out_of_sample must be dict, got [0.01, 0.3]"),
    ("  - name: d1\n    hourly", "  - d1\n  - hourly", "days must be dict, got 'd1'"),
    ("{b1: [100.0, 150.0, 210.0, 140.0]}", "{b1: 100.0}",
     "day d1: hourly_net_load_mw b1 must be list, got 100.0"),
    # a key no table declares
    ("n_scenarios: [2]", "n_scenario: [16]", "unknown key 'n_scenario'"),
    ("rho: [0.0]\n", "rho: [0.0]\nout_of_sample: {sigma: 0.01}\n",
     "out_of_sample: unknown key 'sigma'"),
    ("  - name: d1\n", "  - name: d1\n    weight: 2\n", "day d1: unknown key 'weight'"),
    ("{b1: [100.0, 150.0, 210.0, 140.0]}", "{b1: [100.0, 150.0, 210.0, 140.0], b2: [1.0]}",
     "day d1 hourly_net_load_mw: unknown key 'b2'"),
    # a value out of its range
    ("sigma_frac: 0.04", "sigma_frac: .nan", "sigma_frac must be a finite number >= 0, got nan"),
    ("sigma_frac: 0.04", "sigma_frac: -0.04", "sigma_frac must be a finite number >= 0"),
    ("rho: [0.0]", "rho: [0.0, 1.0]", "rho must be in [0, 1), got 1.0"),
    ("n_scenarios: [2]", "n_scenarios: [0]", "n_scenarios must be at least 1, got 0"),
    ("rho: [0.0]\n", "rho: [0.0]\nperiods_per_hour: 7\n",
     "periods_per_hour must be a positive divisor of 60, got 7"),
    ("rho: [0.0]\n", "rho: [0.0]\nout_of_sample: {sigma_frac: .inf}\n",
     "out_of_sample sigma_frac must be a finite number >= 0, got inf"),
    ("rho: [0.0]\n", "rho: [0.0]\nout_of_sample: {rho: -0.5}\n",
     "out_of_sample rho must be in [0, 1), got -0.5"),
    ("master_seed: 9\n", "master_seed: -1\n", "master_seed must be at least 0, got -1"),
    ("rho: [0.0]\n", "rho: [0.0]\ngap_tol: .nan\n",
     "gap_tol must be a finite number >= 0, got nan"),
    ("rho: [0.0]\n", "rho: [0.0]\ngap_tol: -0.01\n",
     "gap_tol must be a finite number >= 0, got -0.01"),
    ("rho: [0.0]\n", "rho: [0.0]\ntime_limit: -1\n",
     "time_limit must be a finite number >= 0, got -1"),
    ("rho: [0.0]\n", "rho: [0.0]\ntime_limit: .nan\n",
     "time_limit must be a finite number >= 0, got nan"),
    ("rho: [0.0]\n", "rho: [0.0]\ntime_limit: .inf\n",
     "time_limit must be a finite number >= 0, got inf"),
], ids=["missing", "mistyped", "integral", "method", "scalar-list", "string-list",
        "list-mapping", "string-day", "scalar-load", "unknown", "unknown-oos", "unknown-day",
        "unknown-bus", "nan-sigma", "negative-sigma", "rho", "no-scenarios", "periods",
        "oos-sigma", "oos-rho", "negative-seed", "nan-gap", "negative-gap",
        "negative-time", "nan-time", "inf-time"])
def test_run_names_a_malformed_config_key(workdir, old, new, named):
    """A config missing a key, holding a value of the wrong type or out of
    its range, or holding a key its tables do not declare, ends `run` with
    one "malformed file:" line naming the config and the key, before any
    ledger is written."""
    config = workdir / "config.yaml"
    assert old in CONFIG
    config.write_text(CONFIG.replace(old, new))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config), "--out", str(workdir / "ledger")])
    assert str(exc.value).startswith(f"malformed file: {config}: {named}")
    assert not (workdir / "ledger").exists()


@pytest.mark.parametrize("buses, loads, sigmas, named", [
    (["b1"], [100.0, 150.0, 210.0], "0.0", "{forecast}: buses or hours do not match"),
    (["b9"], [100.0, 150.0, 210.0, 140.0], "0.0", "{forecast}: buses or hours do not match"),
    (["b1"], [100.0, 150.0, 210.0, 140.0], "0.0,abc", "--sigmas wants comma-separated"),
    (["b1"], [100.0, 150.0, 210.0, 140.0], "0.0,nan", "--sigmas wants comma-separated"),
], ids=["hours", "buses", "sigmas", "sigmas-nan"])
def test_sweep_names_a_forecast_of_other_hours_or_a_bad_sigma(
    workdir, staged, buses, loads, sigmas, named
):
    """A forecast of other hours or buses than the system and a DAM file, or
    a --sigmas entry that is not a finite number, ends sweep with one line
    that names the file or argument, not with simulate_rtm's ValueError."""
    forecast = workdir / "other.csv"
    _write_csv(forecast, buses, [loads])
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--system", str(workdir / "system.yaml"), "--forecast", str(forecast),
              "--dam", f"fixed={workdir / 'dam.json'}", "--sigmas", sigmas, "--seed", "7",
              "--out", str(workdir / "sweep.csv")])
    message = str(exc.value)
    assert message.startswith(named.format(forecast=forecast)), message
    assert "\n" not in message
    assert not (workdir / "sweep.csv").exists()


def test_sweep_file_bytes(workdir, staged, monkeypatch):
    """The sweep file `sweep` writes from given rows, byte for byte: a day
    name holding a comma is one quoted cell, and every line ends in "\\n"."""
    rows = [
        {"method": "fixed", "sigma_frac": sigma, "cost_usd": cost, "shed_mwh": shed}
        for sigma, cost, shed in ((0.0, 4419.0, 0.0), (0.05, 4472.951, 1.0 / 3.0))
    ]
    monkeypatch.setattr(realtime, "stress_sweep", lambda *args, **kwargs: rows)
    out = workdir / "sweep.csv"
    assert main(["sweep", "--system", str(workdir / "system.yaml"),
                 "--forecast", str(workdir / "forecast.csv"),
                 "--dam", f"fixed={workdir / 'dam.json'}", "--sigmas", "0.0,0.05",
                 "--seed", "7", "--day", "mon,tue", "--out", str(out)]) == 0
    sha = "6e5e6d5de43080a20c2190f08928fceb60656d624f96199eb8ab93d77ebfcb61"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha, out.read_bytes()


def test_run_and_report(workdir, capsys):
    (workdir / "config.yaml").write_text(CONFIG)
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


def test_run_refuses_a_ledger_of_another_config(workdir, capsys):
    """`run` into a ledger whose first run had another config digest exits 1
    with one line, before it writes anything there."""
    (workdir / "config.yaml").write_text(CONFIG)
    ledger = workdir / "ledger"
    ledger.mkdir()
    manifest = json.dumps({"event": "run-start", "config_digest": "0123456789abcdef"}) + "\n"
    (ledger / "manifest.jsonl").write_text(manifest)
    status, lines = _outcome(["run", "--config", str(workdir / "config.yaml"),
                              "--out", str(ledger)], capsys)
    assert status == 1 and len(lines) == 1
    assert lines[0].startswith(f"refusing to resume: {ledger} holds a run of config 0123456789ab")
    assert (ledger / "manifest.jsonl").read_text() == manifest
    assert sorted(p.name for p in ledger.iterdir()) == ["manifest.jsonl"]


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

"""Command line front end.

Profiles move between commands as small CSVs: hourly files have a header
``bus,h0,h1,...`` with one row per bus, sub-period files use ``bus,k0,k1,...``.
Solutions and market outcomes are JSON written by the corresponding modules.
A malformed input file ends any command with exit status 1 and one line that
names the file and the key or column (`validate`'s reads "malformed system
file:"), not with a traceback; so do a system file that breaks an invariant
(`validate` lists its issues one a line), files that do not fit each other
(other buses, hours or scenarios), and a model the inputs leave without a
solution. An argument out of its range (an error spread, a correlation, a
scenario count, a seed, a grid's split, a MIP gap, a time limit) ends a
command with exit status 1 and one line naming the argument, before any
output is written.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import dayahead, harness, optim, realtime, requirements, scenarios, settlement
from . import stochastic_uc as suc
from .codec import ParameterError, SystemFileError, floats, read_csv, write_csv
from .system import ValidationError, load_system
from .timegrid import TimeGrid


def _read_profile_csv(path):
    """(bus ids, value matrix) from a bus,h0..hN / bus,k0..kN CSV. A
    malformed file exits naming the file and the row (1-based)."""
    note, rows = read_csv(path)
    if note is not None or not rows or not rows[0] or rows[0][0] != "bus":
        raise SystemExit(f"{path}: row 1: expected header starting with 'bus'")
    buses = []
    values = []
    for n, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(rows[0]):
            raise SystemExit(f"{path}: row {n}: {len(row)} fields, header has {len(rows[0])}")
        try:
            values.append(floats(row[1:]))
        except ValueError as exc:
            raise SystemExit(f"{path}: row {n}: {exc}") from None
        buses.append(row[0])
    if not buses or len(rows[0]) < 2:
        raise SystemExit(f"{path}: expected a period column and a bus row")
    return buses, np.asarray(values)


def _hourly_profile(path, periods_per_hour):
    buses, hourly = _read_profile_csv(path)
    grid = TimeGrid(hours=hourly.shape[1], periods_per_hour=periods_per_hour)
    return scenarios.NetLoadProfile.from_hourly(buses, hourly, grid)


def _subperiod_profile(path, periods_per_hour):
    buses, values = _read_profile_csv(path)
    TimeGrid(periods_per_hour=periods_per_hour)  # refuses a split before it divides
    if values.shape[1] % periods_per_hour:
        raise SystemExit(
            f"{path}: {values.shape[1]} columns is not a whole number of hours "
            f"at {periods_per_hour} periods per hour"
        )
    grid = TimeGrid(
        hours=values.shape[1] // periods_per_hour, periods_per_hour=periods_per_hour
    )
    return scenarios.NetLoadProfile(buses, grid, values)


def _cmd_validate(args):
    try:
        load_system(args.system)
    except ValidationError as exc:
        print("invalid system:", file=sys.stderr)
        for issue in exc.issues:
            print(f"  - {issue}", file=sys.stderr)
        return 1
    except SystemFileError as exc:
        # the file is the command's argument: an entry's error names the entry
        what = str(exc) if exc.entity is None else str(exc).removeprefix(f"{args.system}: ")
        print(f"malformed system file: {what}", file=sys.stderr)
        return 1
    print(f"{args.system}: ok")
    return 0


def _cmd_gen_scenarios(args):
    system = load_system(args.system)
    forecast = _hourly_profile(args.forecast, args.periods_per_hour)
    if list(forecast.buses) != system.bus_ids:
        raise SystemExit(f"{args.forecast}: buses do not match system buses")
    scn = scenarios.gen_ar1_scenarios(
        forecast, args.sigma, args.rho, args.n, args.seed
    )
    scenarios.save_scenarios(scn, args.out)
    print(f"wrote {args.n} scenarios to {args.out}")
    return 0


def _cmd_suc_solve(args):
    system = load_system(args.system)
    scn = scenarios.load_scenarios(args.scenarios)
    if list(scn.buses) != system.bus_ids:
        raise SystemExit(f"{args.scenarios}: buses do not match system buses")
    sol = suc.solve_suc(
        system, scn, gap_tol=args.gap_tol, time_limit=args.time_limit,
        dump_lp=args.dump_lp,
    )
    suc.save_suc_solution(sol, args.out)
    print(
        f"objective {sol.objective:.2f} USD "
        f"(commitment {sol.commitment_cost:.2f}, "
        f"expected dispatch {sol.expected_dispatch_cost:.2f}); "
        f"{sol.record['wall_time_s']:.2f}s, {sol.record['screen_rounds']} solve(s), "
        f"{sol.record['flow_rows']} flow rows"
    )
    return 0


def _cmd_frp_req(args):
    if args.method == "suc":
        if not args.solution or not args.scenarios:
            raise SystemExit("--method suc requires --solution and --scenarios")
        sol = suc.load_suc_solution(args.solution)
        scn = scenarios.load_scenarios(args.scenarios)
        shape = (list(scn.buses), scn.grid, scn.n_scenarios)
        if (sol.bus_ids, sol.grid, len(sol.curtail)) != shape:
            raise SystemExit(
                f"{args.solution}: buses, grid or scenarios differ from {args.scenarios}"
            )
        req = requirements.suc_requirements(sol, scn)
    else:
        if not args.forecast:
            raise SystemExit(f"--method {args.method} requires --forecast")
        forecast = _hourly_profile(args.forecast, args.periods_per_hour)
        coverage = harness.PERCENTILE_METHODS[args.method]
        req = requirements.percentile_requirements(forecast, args.sigma, coverage)
    requirements.save_requirements(req, args.out)
    print(f"wrote {req.source} requirements for {req.hours} hours to {args.out}")
    return 0


def _cmd_dam_clear(args):
    system = load_system(args.system)
    buses, hourly = _read_profile_csv(args.bids)
    if buses != system.bus_ids:
        raise SystemExit(f"{args.bids}: buses do not match system buses")
    bids = dayahead.DamBidSet(buses, hourly)
    req = requirements.load_requirements(args.req)
    if req.hours != bids.hours:
        raise SystemExit(f"{args.req}: hours do not match {args.bids}")
    fix = None
    if args.fix_commitments:
        sol = suc.load_suc_solution(args.fix_commitments)
        if sol.gen_ids != system.gen_ids:
            raise SystemExit(f"{args.fix_commitments}: units do not match system units")
        if sol.grid.hours != bids.hours:
            raise SystemExit(f"{args.fix_commitments}: hours do not match {args.bids}")
        fix = sol.committed_hours()
    out = dayahead.clear_dam(
        system, bids, req, fix_commitments=fix, gap_tol=args.gap_tol,
        time_limit=args.time_limit, dump_lp=args.dump_lp,
    )
    dayahead.save_dam_outcome(out, args.out)
    short = out.sf_up.sum() + out.sf_dn.sum()
    print(
        f"cleared at {out.objective:.2f} USD, requirement shortfall {short:.3f} MW, "
        f"wrote {args.out}"
    )
    return 0


def _load_dam(path, system, profile, profile_path):
    """A DAM outcome file; one cleared for other units or buses than
    ``system``'s exits naming the file, and a net-load ``profile`` of other
    buses or hours than the system and the file exits naming its own file."""
    dam = dayahead.load_dam_outcome(path)
    if (dam.gen_ids, dam.bus_ids) != (system.gen_ids, system.bus_ids):
        raise SystemExit(f"{path}: units or buses do not match system units and buses")
    if (list(profile.buses), profile.grid.hours) != (system.bus_ids, dam.hours):
        raise SystemExit(f"{profile_path}: buses or hours do not match the system and {path}")
    return dam


def _cmd_rtm_sim(args):
    system = load_system(args.system)
    realized = _subperiod_profile(args.realized, args.periods_per_hour)
    dam = _load_dam(args.dam, system, realized, args.realized)
    rtm = realtime.simulate_rtm(system, dam, realized)
    print(
        f"total cost {rtm.total_cost:.2f} USD "
        f"(commitment {rtm.commitment_cost:.2f}, dispatch {rtm.dispatch_cost:.2f}, "
        f"curtailment {rtm.curtailment_cost:.2f}); shed {rtm.shed_mwh:.3f} MWh"
    )
    if args.settlement_out:
        rep = settlement.settle(system, dam, rtm, mode=args.settlement)
        settlement.save_settlement(rep, args.settlement_out)
        print(
            f"settlement ({rep.mode}): frp payments {rep.total_frp_payment:.2f} USD, "
            f"make-whole {rep.total_make_whole:.2f} USD -> {args.settlement_out}"
        )
    return 0


# the sweep file's columns, one row per (sigma, method)
SWEEP = (
    ("method", ""), ("day", ""), ("sigma_frac", ".6f"), ("cost_usd", ".2f"), ("shed_mwh", ".6f"),
)


def _cmd_sweep(args):
    system = load_system(args.system)
    forecast = _hourly_profile(args.forecast, args.periods_per_hour)
    dams = {}
    for spec in args.dam:
        name, _, path = spec.partition("=")
        if not path:
            raise SystemExit(f"--dam wants NAME=FILE, got {spec!r}")
        if name in dams:
            raise SystemExit(f"--dam names {name!r} twice")
        dams[name] = _load_dam(path, system, forecast, args.forecast)
    try:
        sigmas = [float(s) for s in args.sigmas.split(",")]
        if not all(0.0 <= s < math.inf for s in sigmas):
            raise ValueError
    except ValueError:
        raise SystemExit(
            f"--sigmas wants comma-separated finite numbers >= 0, got {args.sigmas!r}"
        ) from None
    rows = realtime.stress_sweep(
        system, dams, forecast, sigmas, args.rho, args.seed, day=args.day
    )
    write_csv(
        args.out, SWEEP,
        ((r["method"], args.day, r["sigma_frac"], r["cost_usd"], r["shed_mwh"]) for r in rows),
    )
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_run(args):
    cfg, system = harness.load_config(args.config)
    try:
        result = harness.run_experiment(system, cfg, args.out, workers=args.workers)
    except harness.LedgerMismatchError as exc:
        print(f"refusing to resume: {exc}", file=sys.stderr)
        return 1
    print(
        f"cells done {len(result.done)}, skipped {len(result.skipped)}, "
        f"failed {len(result.failed)}; stochastic-pass solves {result.suc_pass_solves}"
    )
    for cell, err in sorted(result.failed.items()):
        print(f"  FAILED {cell}: {err}", file=sys.stderr)
    return 0 if result.clean else 2


def _cmd_report(args):
    cells = harness.aggregate(args.ledger)
    if not cells:
        print(f"no finished cells under {args.ledger}", file=sys.stderr)
        return 1
    cells_csv, totals_csv = harness.write_reports(args.ledger)
    print(f"{len(cells)} cells -> {cells_csv}, {totals_csv}")
    width = max(len(c) for c in cells)
    print(f"{'cell':<{width}}  {'cost_usd':>14} {'shed_mwh':>10} {'frp_usd':>12}")
    for cell_id, rec in sorted(cells.items()):
        print(
            f"{cell_id:<{width}}  {rec['rtm']['total_cost_usd']:>14.2f} "
            f"{rec['rtm']['shed_mwh']:>10.3f} "
            f"{rec['settlement']['total_frp_payment_usd']:>12.2f}"
        )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="frp-sim",
        description="Two-pass flexible-ramp procurement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system file against all invariants")
    p.add_argument("system")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-scenarios", help="draw net-load error scenarios")
    p.add_argument("--system", required=True)
    p.add_argument("--forecast", required=True, help="hourly per-bus net load CSV")
    p.add_argument("--periods-per-hour", type=int, default=1)
    p.add_argument("--sigma", type=float, required=True, help="error std as a fraction of forecast")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_scenarios)

    p = sub.add_parser("suc-solve", help="solve the stochastic commitment pass")
    p.add_argument("--system", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--dump-lp", default=None)
    p.set_defaults(func=_cmd_suc_solve)

    p = sub.add_parser("frp-req", help="write an hourly requirements CSV")
    p.add_argument(
        "--method", required=True, choices=["suc", *harness.PERCENTILE_METHODS]
    )
    p.add_argument("--solution", help="stochastic pass solution JSON (method suc)")
    p.add_argument("--scenarios", help="scenario JSON the solution was solved on")
    p.add_argument("--forecast", help="hourly per-bus net load CSV (percentile methods)")
    p.add_argument("--periods-per-hour", type=int, default=1)
    p.add_argument("--sigma", type=float, default=0.03)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frp_req)

    p = sub.add_parser("dam-clear", help="clear and price the day-ahead market")
    p.add_argument("--system", required=True)
    p.add_argument("--bids", required=True, help="hourly per-bus net demand CSV")
    p.add_argument("--req", required=True, help="requirements CSV")
    p.add_argument("--fix-commitments", help="stochastic solution JSON to floor commitments")
    p.add_argument("--out", required=True)
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--dump-lp", default=None)
    p.set_defaults(func=_cmd_dam_clear)

    p = sub.add_parser("rtm-sim", help="re-dispatch a DAM schedule against a realization")
    p.add_argument("--system", required=True)
    p.add_argument("--dam", required=True)
    p.add_argument("--realized", required=True, help="sub-period per-bus net load CSV")
    p.add_argument("--periods-per-hour", type=int, default=1)
    p.add_argument("--settlement", choices=list(settlement.MODES), default="two")
    p.add_argument("--settlement-out", help="write the settlement ledger CSV here")
    p.set_defaults(func=_cmd_rtm_sim)

    p = sub.add_parser("sweep", help="stress DAM schedules over growing error spread")
    p.add_argument("--system", required=True)
    p.add_argument("--forecast", required=True)
    p.add_argument("--periods-per-hour", type=int, default=1)
    p.add_argument("--dam", action="append", required=True, metavar="NAME=FILE")
    p.add_argument("--sigmas", required=True, help="comma-separated fractions")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--day", default="day0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("run", help="run a configured benchmark grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="summarize a run ledger directory")
    p.add_argument("--ledger", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


# the argument that sets each model parameter
ARGUMENTS = {"sigma_frac": "--sigma", "rho": "--rho", "n_scenarios": "--n",
             "periods_per_hour": "--periods-per-hour", "master_seed": "--seed",
             "gap_tol": "--gap-tol", "time_limit": "--time-limit", "workers": "--workers"}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:  # named as the command line spells it
        raise SystemExit(ARGUMENTS[exc.name] + str(exc).removeprefix(exc.name)) from None
    except SystemFileError as exc:
        raise SystemExit(f"malformed file: {exc}") from None
    except ValidationError as exc:  # its one line names the file and every issue
        raise SystemExit(str(exc)) from None
    except optim.InfeasibleModelError as exc:  # the inputs leave a model no solution
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())

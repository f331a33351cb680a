import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import frpsim
from frpsim import (
    Bus,
    CostSegment,
    Generator,
    InitialState,
    Line,
    NetLoadProfile,
    PowerSystem,
    ScenarioSet,
    TimeGrid,
    stochastic_uc,
)


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports frpsim from this
    checkout, with ``sys.argv[1]`` its source directory and ``args`` after
    it; returns the standard output, stripped."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(frpsim.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run(
        [sys.executable, "-c", code, src, *args], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip()


def force_suc_fallback(monkeypatch):
    """Make every bound MILP of `solve_suc` read as stopped at a limit once
    it has run, so that no EV bound certificate holds and each round solves
    the stochastic MILP (see `stochastic_uc`)."""
    real = stochastic_uc._ev_bound
    monkeypatch.setattr(
        stochastic_uc, "_ev_bound", lambda *a: dataclasses.replace(real(*a), status="limit")
    )


def make_gen(gid, bus="b1", p_min=0.0, p_max=100.0, segments=None,
             no_load=0.0, startup=0.0, ramp_up=None, ramp_down=None,
             startup_limit=None, shutdown_limit=None, min_up=1, min_down=1,
             on=False, p0=0.0, hours_on=0, hours_off=10):
    """Generator with permissive defaults so tests only spell out what matters."""
    if segments is None:
        segments = ((p_max - p_min, 30.0),)
    segs = tuple(CostSegment(upper, cost) for upper, cost in segments)
    ru = p_max if ramp_up is None else ramp_up
    rd = p_max if ramp_down is None else ramp_down
    su = max(p_min, p_max if startup_limit is None else startup_limit)
    sd = max(p_min, p_max if shutdown_limit is None else shutdown_limit)
    init = (
        InitialState(on=True, dispatch_above_min=p0, hours_on=hours_on or 1)
        if on
        else InitialState(on=False, hours_off=hours_off)
    )
    return Generator(
        id=gid, bus=bus, p_min=p_min, p_max=p_max, segments=segs,
        no_load_cost=no_load, startup_cost=startup, ramp_up=ru, ramp_down=rd,
        startup_limit=su, shutdown_limit=sd, min_up=min_up, min_down=min_down,
        initial=init,
    )


def single_bus_system(*gens, curtailment=5000.0, shortfall=1500.0):
    return PowerSystem(
        buses=(Bus("b1", slack=True),),
        lines=(),
        generators=tuple(gens),
        curtailment_penalty=curtailment,
        frp_shortfall_penalty=shortfall,
    ).validate()


def scenario_set(system, grid, values, probs=None):
    values = np.asarray(values, dtype=float)
    if values.ndim == 2:  # (scenarios, periods) single-bus shorthand
        values = values[:, None, :]
    s = values.shape[0]
    probs = np.full(s, 1.0 / s) if probs is None else np.asarray(probs, float)
    return ScenarioSet(
        buses=system.bus_ids, grid=grid, values=values, probabilities=probs
    )


@pytest.fixture
def two_gen_system():
    """Flexible pair used across dispatch-level tests."""
    g1 = make_gen(
        "g1", p_min=10.0, p_max=100.0,
        segments=((50.0, 20.0), (90.0, 30.0)),
        no_load=5.0, startup=100.0, ramp_up=60.0, ramp_down=60.0,
        startup_limit=40.0, shutdown_limit=40.0,
        on=True, p0=30.0, hours_on=5,
    )
    g2 = make_gen(
        "g2", p_max=80.0, segments=((80.0, 45.0),),
        no_load=2.0, startup=30.0,
    )
    return single_bus_system(g1, g2)


@pytest.fixture
def uc_oracle_case():
    """Small instance sized for exhaustive commitment enumeration.

    Two units, four hours, two scenarios; initial conditions bite (g1 is one
    hour into a two-hour minimum run) and the peak needs both units.
    """
    g1 = make_gen(
        "g1", p_min=20.0, p_max=100.0,
        segments=((40.0, 25.0), (80.0, 40.0)),
        no_load=8.0, startup=150.0, ramp_up=30.0, ramp_down=30.0,
        startup_limit=25.0, shutdown_limit=30.0, min_up=2, min_down=2,
        on=True, p0=10.0, hours_on=1,
    )
    g2 = make_gen(
        "g2", p_max=60.0, segments=((60.0, 55.0),),
        no_load=3.0, startup=40.0, hours_off=3,
    )
    system = single_bus_system(g1, g2, curtailment=2000.0, shortfall=1000.0)
    grid = TimeGrid(hours=4, periods_per_hour=1)
    scen = scenario_set(
        system, grid,
        [[70.0, 95.0, 120.0, 80.0], [80.0, 130.0, 140.0, 60.0]],
        probs=[0.6, 0.4],
    )
    return system, grid, scen


@pytest.fixture
def pricing_system():
    """Two committed units where ramp capability competes with energy."""
    g1 = make_gen(
        "g1", p_max=100.0, segments=((60.0, 20.0), (100.0, 35.0)),
        no_load=4.0, startup=60.0, ramp_up=20.0, ramp_down=100.0,
        on=True, p0=85.0, hours_on=4,
    )
    g2 = make_gen(
        "g2", p_max=50.0, segments=((50.0, 80.0),),
        no_load=1.0, startup=10.0, ramp_up=10.0, ramp_down=50.0,
        startup_limit=50.0, shutdown_limit=50.0, min_down=2,
        on=True, p0=0.0, hours_on=4,
    )
    return single_bus_system(g1, g2)


def flat_profile(system, grid, level):
    vals = np.full((len(system.bus_ids), grid.n_periods), float(level))
    return NetLoadProfile(system.bus_ids, grid, vals)

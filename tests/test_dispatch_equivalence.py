"""Optima of the three passes on seeded random cases, frozen before unit
output became the sum of its offer-segment columns.

Each case is drawn from the parameters of `test_suc._commitment_cases` (two
units, 3-6 hours, ramps, start/stop limits, minimum times and an initial
state), with one or two offer segments per unit so that the sum over
segments is exercised. A case runs the stochastic commitment on two
scenarios at two periods an hour (so the expected-value start and the warm
MILP are both reached), the day-ahead market with both requirements, and
real-time redispatch of that market against a perturbed load. The frozen
values are the SUC objective, the DAM clearing and pricing objectives and
the RTM cost, or None where the pass was infeasible; a reformulation must
reach each within ``GAP_TOL``.
"""

import numpy as np
import pytest

from frpsim import (
    DamBidSet,
    FrpRequirements,
    InfeasibleModelError,
    NetLoadProfile,
    TimeGrid,
    clear_dam,
    simulate_rtm,
    solve_suc,
)

from conftest import make_gen, scenario_set, single_bus_system

GAP_TOL = 1e-6


def _case(seed):
    """A system, its hourly loads, requirements and two sub-hourly loads."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    hours = int(rng.integers(3, 7))
    gens = []
    for gid in ("g1", "g2"):
        p_min, p_max = pick([0.0, 10.0, 30.0]), pick([60.0, 100.0])
        span, cost = p_max - p_min, pick([20.0, 40.0])
        segments = pick([((span, cost),), ((span / 2, cost), (span, cost + 15.0))])
        on = bool(rng.integers(2))
        gens.append(make_gen(
            gid, p_min=p_min, p_max=p_max, segments=segments,
            no_load=pick([0.0, 5.0]),
            startup=pick([0.0, 50.0, 400.0]),
            ramp_up=pick([10.0, 30.0, p_max]),
            ramp_down=pick([10.0, 30.0, p_max]),
            startup_limit=pick([p_min, 40.0, p_max]),
            shutdown_limit=pick([p_min, 40.0, p_max]),
            min_up=int(rng.integers(1, 5)),
            min_down=int(rng.integers(1, 5)),
            on=on,
            p0=pick([0.0, span]) if on else 0.0,
            hours_on=int(rng.integers(1, 6)),
            hours_off=int(rng.integers(1, 6)),
        ))
    system = single_bus_system(*gens, curtailment=1000.0, shortfall=300.0)
    loads = rng.integers(0, 161, hours).astype(float)
    up, dn = rng.integers(0, 41, (2, hours)).astype(float)
    shifts = rng.integers(-20, 21, (2, 2 * hours)).astype(float)
    sub = np.clip(np.repeat(loads, 2) + shifts, 0.0, None)
    return system, loads, (up, dn), sub


def _optima(seed):
    """(SUC objective, DAM objective, DAM pricing objective, RTM cost) of
    case ``seed``; None for a pass that is infeasible or not reached."""
    system, loads, (up, dn), sub = _case(seed)
    grid = TimeGrid(len(loads), 2)
    out = [None] * 4
    try:
        out[0] = solve_suc(system, scenario_set(system, grid, sub), gap_tol=GAP_TOL).objective
    except InfeasibleModelError:
        pass
    try:
        bids = DamBidSet(system.bus_ids, [loads])
        dam = clear_dam(system, bids, FrpRequirements(up, dn, "test"), gap_tol=GAP_TOL)
        out[1:3] = dam.objective, dam.pricing_objective
        realized = NetLoadProfile(system.bus_ids, grid, sub[1:])
        out[3] = simulate_rtm(system, dam, realized).total_cost
    except InfeasibleModelError:
        pass
    return out


FROZEN = {
    0: (268155.0, 186090.0, 186090.0, None),
    1: (None, 128655.0, 128655.0, None),
    2: (95915.0, 74420.0, 74420.0, 103860.0),
    3: (104225.0, 105390.0, 105390.0, 85260.0),
    4: (None, 92920.0, 92920.0, None),
    5: (166060.0, 25030.0, 25030.0, None),
    6: (53880.0, 103720.0, 103720.0, 37720.0),
    7: (161945.0, 154425.0, 154425.0, 147512.5),
    8: (79845.0, 96225.0, 96225.0, 85305.0),
    9: (86238.75, 60700.0, 60700.0, 87752.5),
    10: (166322.5, 123080.0, 123080.0, None),
    11: (None, None, None, None),
    12: (163192.5, 133020.0, 133020.0, 161150.0),
    13: (None, 344100.0, 344100.0, 259752.5),
    14: (None, None, None, None),
    15: (195951.25, 155600.0, 155600.0, None),
    16: (168367.5, 165075.0, 165075.0, 140645.0),
    17: (169460.0, 164425.0, 164425.0, 163615.0),
    18: (126101.25, 146180.0, 146180.0, 128882.5),
    19: (136965.0, 146720.0, 146720.0, 127032.5),
    20: (214649.9999999999, 280695.0, 280695.0, 215985.0),
    21: (180200.0, 130080.0, 130080.0, 91260.0),
    22: (213327.5, 178920.0, 178920.0, 201272.5),
    23: (30160.0, 6750.0, 6750.0, 44990.0),
    24: (70734.99999999999, 75240.0, 75240.0, 72310.0),
    25: (23829.99999999994, 18720.0, 18720.0, 25450.0),
    26: (264890.0, 62060.0, 62060.0, None),
    27: (30913.75, 21910.0, 21910.0, 34842.5),
    28: (235833.75, 282725.0, 282725.0, 263487.5),
    29: (125509.99999999997, 100050.0, 100050.0, 126800.0),
}


@pytest.mark.parametrize("seed", range(30))
def test_optima_match_the_alias_formulation(seed):
    """Every pass is feasible where it was, and reaches the same optimum."""
    for got, want in zip(_optima(seed), FROZEN[seed]):
        assert (got is None) == (want is None), (got, want)
        if want is not None:
            assert abs(got - want) <= GAP_TOL * max(1.0, abs(want)), (got, want)

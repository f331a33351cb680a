"""Two-pass flexible-ramp procurement simulator for day-ahead markets.

Workflow: draw net-load scenarios around a forecast, solve a scenario-based
commitment pass to learn how much hourly ramping capability the day needs
(and which units to prioritize), clear a deterministic day-ahead market that
co-optimizes energy with up/down ramp awards, then re-dispatch the schedule
against out-of-sample realizations and settle. Percentile-rule requirement
methods are included as benchmarks.
"""

from .dayahead import DamBidSet, DamOutcome, clear_dam
from .optim import InfeasibleModelError
from .realtime import RtmOutcome, simulate_rtm, stress_sweep
from .requirements import FrpRequirements, percentile_requirements, suc_requirements
from .scenarios import (
    NetLoadProfile,
    ScenarioSet,
    draw_realization,
    gen_ar1_scenarios,
    hourly_to_subhourly,
    load_scenarios,
    save_scenarios,
)
from .settlement import SettlementReport, settle
from .stochastic_uc import SucSolution, solve_suc
from .system import (
    Bus,
    CostSegment,
    Generator,
    InitialState,
    Line,
    PowerSystem,
    SystemFileError,
    ValidationError,
    compute_isf,
    load_system,
    save_system,
)
from .timegrid import TimeGrid

__version__ = "0.1.0"

__all__ = [
    "Bus",
    "CostSegment",
    "DamBidSet",
    "DamOutcome",
    "FrpRequirements",
    "Generator",
    "InfeasibleModelError",
    "InitialState",
    "Line",
    "NetLoadProfile",
    "PowerSystem",
    "RtmOutcome",
    "ScenarioSet",
    "SettlementReport",
    "SucSolution",
    "SystemFileError",
    "TimeGrid",
    "ValidationError",
    "clear_dam",
    "compute_isf",
    "draw_realization",
    "gen_ar1_scenarios",
    "hourly_to_subhourly",
    "load_scenarios",
    "load_system",
    "percentile_requirements",
    "save_scenarios",
    "save_system",
    "settle",
    "simulate_rtm",
    "solve_suc",
    "stress_sweep",
    "suc_requirements",
    "__version__",
]

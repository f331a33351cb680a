"""Power system data model: buses, lines, generators, penalties, shift factors.

Systems are stored as YAML with explicit units in the key names (MW, hours,
USD). The file's schema is one table per entity (`BUS`, `LINE`, `SEGMENT`,
`INITIAL`, `GENERATOR`, `PENALTIES`) mapping each field to its key, type and
any default; `load_system` reads and `save_system` writes through those same
tables and the file codec (`frpsim.codec`: `read_yaml`, `read_mapping`,
`write_mapping`, `write_yaml`), so a key is spelled once. A file that cannot
be read or parsed, or a missing, mistyped or unknown key, raises
`SystemFileError` naming the file, then the entity and the key.
`load_system` then validates: `validate_system` collects every violation
instead of stopping at the first so a bad file is diagnosed in one pass, and
`ValidationError` names the file. Injection shift factors are computed from
line reactances via the reduced nodal susceptance matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import (
    SystemFileError, Table, bool_, int_, read_list, read_mapping, read_yaml, refuse_unknown,
    require, write_mapping, write_yaml,
)

FORMAT_VERSION = 1

__all__ = [
    "Bus",
    "Line",
    "CostSegment",
    "InitialState",
    "Generator",
    "PowerSystem",
    "SystemFileError",
    "ValidationError",
    "compute_isf",
    "load_system",
    "save_system",
    "validate_system",
]


class ValidationError(ValueError):
    """One or more system invariants are violated.

    ``issues`` holds one human-readable string per violation, each naming the
    entity (and field or segment) it concerns; the message, one line, starts
    with the file's ``path`` when it is given.
    """

    def __init__(self, issues, path=None):
        self.issues = list(issues)
        where = "" if path is None else f"{path}: "
        super().__init__(f"{where}invalid system: " + "; ".join(self.issues))


@dataclass(frozen=True)
class Bus:
    id: str
    slack: bool = False


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: str
    to_bus: str
    reactance: float  # p.u.
    flow_min: float  # MW, <= 0
    flow_max: float  # MW, >= 0


@dataclass(frozen=True)
class CostSegment:
    """One step of a generator's marginal cost curve.

    ``upper`` is the cumulative upper bound (MW above minimum output) through
    this segment; ``cost`` is the segment's marginal cost in $/MWh.
    """

    upper: float
    cost: float


@dataclass(frozen=True)
class InitialState:
    on: bool
    dispatch_above_min: float = 0.0  # MW above P_min, only meaningful if on
    hours_on: int = 0  # consecutive hours on entering the horizon
    hours_off: int = 0  # consecutive hours off entering the horizon


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    p_min: float  # MW
    p_max: float  # MW
    segments: tuple[CostSegment, ...]
    no_load_cost: float  # $/h while committed
    startup_cost: float  # $ per startup
    ramp_up: float  # MW per hour, online
    ramp_down: float  # MW per hour, online
    startup_limit: float  # MW reachable in the startup hour, >= p_min
    shutdown_limit: float  # MW the unit may hold in its final hour, >= p_min
    min_up: int  # hours
    min_down: int  # hours
    initial: InitialState

    @property
    def dispatch_range(self):
        """Width of the dispatchable band above minimum, in MW."""
        return self.p_max - self.p_min


@dataclass
class PowerSystem:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    curtailment_penalty: float  # $/MWh of load not served
    frp_shortfall_penalty: float  # $/MW of unmet ramping requirement
    _isf_cache: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    # -- identity helpers -------------------------------------------------

    @property
    def bus_ids(self):
        return [b.id for b in self.buses]

    @property
    def gen_ids(self):
        return [g.id for g in self.generators]

    def bus_index(self, bus_id):
        return self.bus_ids.index(bus_id)

    # -- shift factors -----------------------------------------------------

    def isf(self):
        """Injection shift factor matrix, shape (n_lines, n_buses), computed
        from the lines once. Column of the slack bus is identically zero."""
        if self._isf_cache is None:
            self._isf_cache = (
                compute_isf(self.buses, self.lines) if self.lines
                else np.zeros((0, len(self.buses)))
            )
        return self._isf_cache

    def validate(self, path=None):
        """``self``, or ValidationError listing every violation (naming the
        file ``path`` it was read from, if given)."""
        issues = validate_system(self)
        if issues:
            raise ValidationError(issues, path)
        return self


def compute_isf(buses, lines):
    """Shift factors from line reactances by inverting the reduced B matrix.

    Flow on a line oriented from_bus -> to_bus is positive in that direction.
    Raises ValidationError naming the stranded buses if the graph is not
    connected through the slack.
    """
    bus_ids = [b.id for b in buses]
    slack_id = next(b.id for b in buses if b.slack)
    n = len(buses)
    idx = {bid: i for i, bid in enumerate(bus_ids)}
    slack = idx[slack_id]

    # connectivity check before any linear algebra
    adjacency = {bid: set() for bid in bus_ids}
    for ln in lines:
        adjacency[ln.from_bus].add(ln.to_bus)
        adjacency[ln.to_bus].add(ln.from_bus)
    seen = {slack_id}
    frontier = [slack_id]
    while frontier:
        nxt = []
        for bid in frontier:
            for nb in adjacency[bid]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    stranded = [bid for bid in bus_ids if bid not in seen]
    if stranded:
        raise ValidationError(
            [f"network is disconnected: no path from slack to {{{', '.join(stranded)}}}"]
        )

    susceptance = np.array([1.0 / ln.reactance for ln in lines])
    incidence = np.zeros((len(lines), n))
    for j, ln in enumerate(lines):
        incidence[j, idx[ln.from_bus]] = 1.0
        incidence[j, idx[ln.to_bus]] = -1.0

    b_branch = susceptance[:, None] * incidence
    b_bus = incidence.T @ b_branch
    keep = [i for i in range(n) if i != slack]
    b_red = b_bus[np.ix_(keep, keep)]
    psi = np.zeros((len(lines), n))
    psi[:, keep] = b_branch[:, keep] @ np.linalg.inv(b_red)
    return psi


# -- validation -------------------------------------------------------------


def validate_system(system):
    """Return a list of invariant violations (empty when the system is valid)."""
    issues = []
    bus_ids = system.bus_ids
    dup = _duplicates(bus_ids)
    if dup:
        issues.append(f"duplicate bus ids: {sorted(dup)}")
    slack_count = sum(1 for b in system.buses if b.slack)
    if slack_count != 1:
        issues.append(f"exactly one slack bus required, found {slack_count}")

    dup = _duplicates([ln.id for ln in system.lines])
    if dup:
        issues.append(f"duplicate line ids: {sorted(dup)}")
    for ln in system.lines:
        if ln.from_bus not in bus_ids or ln.to_bus not in bus_ids:
            issues.append(f"line {ln.id}: endpoint not a known bus")
        if not ln.reactance > 0:
            issues.append(f"line {ln.id}: reactance must be > 0, got {ln.reactance}")
        if ln.flow_min > 0 or ln.flow_max < 0:
            issues.append(
                f"line {ln.id}: flow limits must satisfy flow_min <= 0 <= flow_max"
            )

    dup = _duplicates(system.gen_ids)
    if dup:
        issues.append(f"duplicate generator ids: {sorted(dup)}")
    for g in system.generators:
        issues.extend(_gen_issues(g, bus_ids))

    if system.curtailment_penalty <= 0:
        issues.append("curtailment_penalty must be > 0")
    if system.frp_shortfall_penalty <= 0:
        issues.append("frp_shortfall_penalty must be > 0")

    if slack_count == 1 and system.lines and not issues:
        try:
            compute_isf(system.buses, system.lines)
        except ValidationError as exc:
            issues.extend(exc.issues)
    return issues


def _gen_issues(g, bus_ids):
    issues = []
    tag = f"generator {g.id}"
    if g.bus not in bus_ids:
        issues.append(f"{tag}: bus {g.bus!r} not defined")
    if not 0 <= g.p_min <= g.p_max:
        issues.append(f"{tag}: requires 0 <= p_min <= p_max")
    if not g.segments:
        issues.append(f"{tag}: at least one cost segment required")
    else:
        prev_upper, prev_cost = 0.0, -np.inf
        for s, seg in enumerate(g.segments):
            if seg.upper < prev_upper - 1e-12:
                issues.append(f"{tag} segment {s}: upper bounds must be nondecreasing")
            if seg.cost < prev_cost - 1e-12:
                issues.append(f"{tag} segment {s}: marginal costs must be nondecreasing")
            prev_upper, prev_cost = seg.upper, seg.cost
        if abs(g.segments[-1].upper - g.dispatch_range) > 1e-9:
            issues.append(
                f"{tag}: last segment upper {g.segments[-1].upper} must equal "
                f"p_max - p_min = {g.dispatch_range}"
            )
    if g.ramp_up < 0 or g.ramp_down < 0:
        issues.append(f"{tag}: ramp rates must be >= 0")
    if g.startup_limit < g.p_min:
        issues.append(f"{tag}: startup_limit must be >= p_min")
    if g.shutdown_limit < g.p_min:
        issues.append(f"{tag}: shutdown_limit must be >= p_min")
    if g.min_up < 1 or g.min_down < 1:
        issues.append(f"{tag}: min_up and min_down must be >= 1 hour")
    init = g.initial
    if init.on:
        if init.hours_off != 0:
            issues.append(f"{tag}: initial hours_off must be 0 for an on unit")
        if not 0 <= init.dispatch_above_min <= g.dispatch_range + 1e-9:
            issues.append(f"{tag}: initial dispatch_above_min outside [0, p_max - p_min]")
    else:
        if init.hours_on != 0:
            issues.append(f"{tag}: initial hours_on must be 0 for an off unit")
        if init.dispatch_above_min != 0:
            issues.append(f"{tag}: initial dispatch_above_min must be 0 for an off unit")
    return issues


def _duplicates(ids):
    seen, dup = set(), set()
    for i in ids:
        if i in seen:
            dup.add(i)
        seen.add(i)
    return dup


# -- serialization -----------------------------------------------------------
#
# One table per entity of the system file (see `codec` for the rows' form).

BUS = Table(Bus, "bus", (("id", "id", str), ("slack", "slack", bool_, False)))
LINE = Table(Line, "line", (
    ("id", "id", str),
    ("from_bus", "from", str), ("to_bus", "to", str),
    ("reactance", "reactance_pu", float),
    ("flow_min", "flow_min_mw", float), ("flow_max", "flow_max_mw", float),
))
SEGMENT = Table(CostSegment, "segment", (
    ("upper", "to_mw", float), ("cost", "usd_per_mwh", float),
))
INITIAL = Table(InitialState, "initial state", (
    ("on", "committed", bool_),
    ("dispatch_above_min", "dispatch_above_min_mw", float, 0.0),
    ("hours_on", "hours_on", int_, 0), ("hours_off", "hours_off", int_, 0),
))
GENERATOR = Table(Generator, "generator", (
    ("id", "id", str), ("bus", "bus", str),
    ("p_min", "p_min_mw", float), ("p_max", "p_max_mw", float),
    ("segments", "cost_segments", [SEGMENT]),
    ("no_load_cost", "no_load_usd_per_h", float), ("startup_cost", "startup_usd", float),
    ("ramp_up", "ramp_up_mw_per_h", float), ("ramp_down", "ramp_down_mw_per_h", float),
    ("startup_limit", "startup_limit_mw", float),
    ("shutdown_limit", "shutdown_limit_mw", float),
    ("min_up", "min_up_h", int_), ("min_down", "min_down_h", int_),
    ("initial", "initial", INITIAL),
))
# the two PowerSystem fields the file keeps under `penalties`
PENALTIES = Table(dict, "penalties", (
    ("curtailment_penalty", "curtailment_usd_per_mwh", float),
    ("frp_shortfall_penalty", "frp_shortfall_usd_per_mw", float),
))
# the file's lists, each under the PowerSystem field's name, with the name of
# an entry that has no id
LISTS = (("buses", BUS, "#{}"), ("lines", LINE, "#{}"), ("generators", GENERATOR, "#position {}"))


def load_system(path, text=None):
    """Parse a system YAML file. Raises SystemFileError, naming the file, on
    malformed input and ValidationError (listing every violation) on
    invariant failures.

    ``text``, if given, is the file's text as already read; it is parsed
    instead of opening ``path``, which then only names the file in errors."""
    raw = read_yaml(path, text)
    if not isinstance(raw, dict):
        raise SystemFileError(f"{path}: expected a mapping at top level")
    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SystemFileError(f"{path}: unsupported format_version {version}")
    try:
        refuse_unknown(raw, ["format_version", "penalties", *(k for k, _, _ in LISTS)], "system")
        system = PowerSystem(
            **{
                key: read_list(
                    table, raw.get(key, []), "system", key,
                    lambda i, item: f"{table.name} {item.get('id', unnamed.format(i))}",
                    strict=True,
                )
                for key, table, unnamed in LISTS
            },
            **read_mapping(
                PENALTIES, require(raw, "penalties", "system"), "penalties", strict=True
            ),
        )
    except SystemFileError as exc:  # it names the entry; name the file too
        raise SystemFileError(f"{path}: {exc}", exc.entity, exc.field) from None
    return system.validate(path)


def save_system(system, path):
    doc = {"format_version": FORMAT_VERSION, "penalties": write_mapping(PENALTIES, system)}
    for key, table, _ in LISTS:
        doc[key] = [write_mapping(table, entity) for entity in getattr(system, key)]
    write_yaml(path, doc)

"""Power system data model: buses, lines, generators, penalties, shift factors.

Systems are stored as YAML with explicit units in the key names (MW, hours,
USD). `load_system` parses and validates; `validate_system` collects every
violation instead of stopping at the first so a bad file is diagnosed in one
pass. Injection shift factors are computed from line reactances via the
reduced nodal susceptance matrix unless the file supplies a matrix, in which
case the supplied one wins (a consistency warning is emitted if it disagrees
with the computed one by more than 1e-6).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

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


class SystemFileError(ValueError):
    """A system file is unreadable or structurally malformed (missing or
    mistyped fields). Carries the offending entity/field when known."""

    def __init__(self, message, entity=None, field=None):
        super().__init__(message)
        self.entity = entity
        self.field = field


class ValidationError(ValueError):
    """One or more system invariants are violated.

    ``issues`` holds one human-readable string per violation, each naming the
    entity (and field or segment) it concerns.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("invalid system: " + "; ".join(self.issues))


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

    def dispatch_cost(self, p_above_min):
        """Energy cost in $/h of operating ``p_above_min`` MW above minimum.

        Segments are filled in order; with nondecreasing marginal costs this
        matches what any cost-minimizing dispatch model would choose.
        """
        cost = 0.0
        prev = 0.0
        remaining = p_above_min
        for seg in self.segments:
            width = seg.upper - prev
            take = min(remaining, width)
            if take > 0:
                cost += take * seg.cost
                remaining -= take
            prev = seg.upper
        return cost


@dataclass(eq=False)
class PowerSystem:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    generators: tuple[Generator, ...]
    curtailment_penalty: float  # $/MWh of load not served
    frp_shortfall_penalty: float  # $/MW of unmet ramping requirement
    supplied_isf: np.ndarray | None = None
    _isf_cache: np.ndarray | None = field(default=None, repr=False)

    # -- identity helpers -------------------------------------------------

    @property
    def bus_ids(self):
        return [b.id for b in self.buses]

    @property
    def gen_ids(self):
        return [g.id for g in self.generators]

    @property
    def slack_bus(self):
        for b in self.buses:
            if b.slack:
                return b.id
        raise ValidationError(["no slack bus designated"])

    def bus_index(self, bus_id):
        return self.bus_ids.index(bus_id)

    def gen(self, gen_id):
        for g in self.generators:
            if g.id == gen_id:
                return g
        raise KeyError(gen_id)

    # -- shift factors -----------------------------------------------------

    def isf(self):
        """Injection shift factor matrix, shape (n_lines, n_buses).

        Column of the slack bus is identically zero. Supplied matrices take
        precedence over the computed one.
        """
        if self._isf_cache is None:
            if self.supplied_isf is not None:
                mat = np.asarray(self.supplied_isf, dtype=float)
                if self.lines:
                    computed = compute_isf(self.buses, self.lines)
                    gap = float(np.max(np.abs(mat - computed))) if mat.size else 0.0
                    if gap > 1e-6:
                        warnings.warn(
                            f"supplied shift factors differ from computed ones "
                            f"by up to {gap:.3e}; using the supplied values",
                            stacklevel=2,
                        )
                self._isf_cache = mat
            elif self.lines:
                self._isf_cache = compute_isf(self.buses, self.lines)
            else:
                self._isf_cache = np.zeros((0, len(self.buses)))
        return self._isf_cache

    def validate(self):
        issues = validate_system(self)
        if issues:
            raise ValidationError(issues)
        return self

    def __eq__(self, other):
        if not isinstance(other, PowerSystem):
            return NotImplemented
        if (
            self.buses != other.buses
            or self.lines != other.lines
            or self.generators != other.generators
            or self.curtailment_penalty != other.curtailment_penalty
            or self.frp_shortfall_penalty != other.frp_shortfall_penalty
        ):
            return False
        a, b = self.supplied_isf, other.supplied_isf
        if (a is None) != (b is None):
            return False
        return a is None or bool(np.array_equal(a, b))


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

    if system.supplied_isf is not None:
        mat = np.asarray(system.supplied_isf, dtype=float)
        want = (len(system.lines), len(system.buses))
        if mat.shape != want:
            issues.append(f"isf: shape {mat.shape} does not match (lines, buses) {want}")
        elif mat.size:
            if not np.all(np.isfinite(mat)):
                issues.append("isf: matrix contains non-finite entries")
            elif slack_count == 1:
                col = mat[:, system.bus_index(system.slack_bus)]
                if np.max(np.abs(col)) > 1e-9:
                    issues.append("isf: slack bus column must be zero")

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


def _require(mapping, key, entity):
    if key not in mapping:
        raise SystemFileError(f"{entity}: missing required field {key!r}", entity, key)
    return mapping[key]


def _parse_generator(raw, pos):
    gid = raw.get("id", f"#position {pos}")
    entity = f"generator {gid}"
    segs = _require(raw, "cost_segments", entity)
    if not isinstance(segs, list):
        raise SystemFileError(f"{entity}: cost_segments must be a list", entity, "cost_segments")
    segments = tuple(
        CostSegment(
            upper=float(_require(s, "to_mw", f"{entity} segment {i}")),
            cost=float(_require(s, "usd_per_mwh", f"{entity} segment {i}")),
        )
        for i, s in enumerate(segs)
    )
    init_raw = _require(raw, "initial", entity)
    initial = InitialState(
        on=bool(_require(init_raw, "committed", f"{entity} initial state")),
        dispatch_above_min=float(init_raw.get("dispatch_above_min_mw", 0.0)),
        hours_on=int(init_raw.get("hours_on", 0)),
        hours_off=int(init_raw.get("hours_off", 0)),
    )
    return Generator(
        id=str(_require(raw, "id", entity)),
        bus=str(_require(raw, "bus", entity)),
        p_min=float(_require(raw, "p_min_mw", entity)),
        p_max=float(_require(raw, "p_max_mw", entity)),
        segments=segments,
        no_load_cost=float(_require(raw, "no_load_usd_per_h", entity)),
        startup_cost=float(_require(raw, "startup_usd", entity)),
        ramp_up=float(_require(raw, "ramp_up_mw_per_h", entity)),
        ramp_down=float(_require(raw, "ramp_down_mw_per_h", entity)),
        startup_limit=float(_require(raw, "startup_limit_mw", entity)),
        shutdown_limit=float(_require(raw, "shutdown_limit_mw", entity)),
        min_up=int(_require(raw, "min_up_h", entity)),
        min_down=int(_require(raw, "min_down_h", entity)),
        initial=initial,
    )


def load_system(path, data=None):
    """Parse a system YAML file. Raises SystemFileError on malformed input and
    ValidationError (listing every violation) on invariant failures.

    ``data``, if given, is the file's bytes as already read; they are parsed
    instead of opening ``path``, which then only names the file in errors."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        raw = yaml.safe_load(data)
    except yaml.YAMLError as exc:
        raise SystemFileError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(raw, dict):
        raise SystemFileError(f"{path}: expected a mapping at top level")
    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise SystemFileError(f"{path}: unsupported format_version {version}")

    buses = tuple(
        Bus(id=str(_require(b, "id", f"bus #{i}")), slack=bool(b.get("slack", False)))
        for i, b in enumerate(raw.get("buses", []))
    )
    lines = tuple(
        Line(
            id=str(_require(ln, "id", f"line #{i}")),
            from_bus=str(_require(ln, "from", f"line {ln.get('id', i)}")),
            to_bus=str(_require(ln, "to", f"line {ln.get('id', i)}")),
            reactance=float(_require(ln, "reactance_pu", f"line {ln.get('id', i)}")),
            flow_min=float(_require(ln, "flow_min_mw", f"line {ln.get('id', i)}")),
            flow_max=float(_require(ln, "flow_max_mw", f"line {ln.get('id', i)}")),
        )
        for i, ln in enumerate(raw.get("lines", []))
    )
    generators = tuple(
        _parse_generator(g, i) for i, g in enumerate(raw.get("generators", []))
    )
    pen = _require(raw, "penalties", "system")
    supplied = raw.get("isf")
    system = PowerSystem(
        buses=buses,
        lines=lines,
        generators=generators,
        curtailment_penalty=float(_require(pen, "curtailment_usd_per_mwh", "penalties")),
        frp_shortfall_penalty=float(_require(pen, "frp_shortfall_usd_per_mw", "penalties")),
        supplied_isf=None if supplied is None else np.asarray(supplied, dtype=float),
    )
    system.validate()
    return system


def save_system(system, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "penalties": {
            "curtailment_usd_per_mwh": system.curtailment_penalty,
            "frp_shortfall_usd_per_mw": system.frp_shortfall_penalty,
        },
        "buses": [
            {"id": b.id, **({"slack": True} if b.slack else {})} for b in system.buses
        ],
        "lines": [
            {
                "id": ln.id,
                "from": ln.from_bus,
                "to": ln.to_bus,
                "reactance_pu": ln.reactance,
                "flow_min_mw": ln.flow_min,
                "flow_max_mw": ln.flow_max,
            }
            for ln in system.lines
        ],
        "generators": [
            {
                "id": g.id,
                "bus": g.bus,
                "p_min_mw": g.p_min,
                "p_max_mw": g.p_max,
                "cost_segments": [
                    {"to_mw": s.upper, "usd_per_mwh": s.cost} for s in g.segments
                ],
                "no_load_usd_per_h": g.no_load_cost,
                "startup_usd": g.startup_cost,
                "ramp_up_mw_per_h": g.ramp_up,
                "ramp_down_mw_per_h": g.ramp_down,
                "startup_limit_mw": g.startup_limit,
                "shutdown_limit_mw": g.shutdown_limit,
                "min_up_h": g.min_up,
                "min_down_h": g.min_down,
                "initial": {
                    "committed": g.initial.on,
                    "dispatch_above_min_mw": g.initial.dispatch_above_min,
                    "hours_on": g.initial.hours_on,
                    "hours_off": g.initial.hours_off,
                },
            }
            for g in system.generators
        ],
    }
    if system.supplied_isf is not None:
        doc["isf"] = [[float(v) for v in row] for row in np.asarray(system.supplied_isf)]
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)

"""Power system data model: buses, lines, generators, penalties, shift factors.

Systems are stored as YAML with explicit units in the key names (MW, hours,
USD). The file's schema is one table per entity (`BUS`, `LINE`, `SEGMENT`,
`INITIAL`, `GENERATOR`, `PENALTIES`) mapping each field to its key, type and
any default; `load_system` reads and `save_system` writes through those same
tables, so a key is spelled once. The JSON files the pipeline stages hand
each other (scenario sets, SUC solutions, DAM outcomes) go through the same
reader and writer, `read_json` and `write_json`, each with its own table in
its module, and share the `GRID` table for their time grid. The CSV files the
package writes (requirements, settlement ledgers, sweeps, the run reports)
go through one writer, `write_csv`, each with a column table of (name,
format spec) pairs in its module. A missing or mistyped key raises
`SystemFileError` naming the entity (for a JSON file, the file) and the key.
`load_system` then validates: `validate_system` collects every violation
instead of stopping at the first so a bad file is diagnosed in one pass, and
`ValidationError` names the file. Injection shift factors are computed from
line reactances via the reduced nodal susceptance matrix unless the file
supplies a matrix, in which case the supplied one wins (a consistency
warning is emitted if it disagrees with the computed one by more than 1e-6).
"""

from __future__ import annotations

import csv
import json
import reprlib
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
import yaml

from .timegrid import TimeGrid

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
    _isf_cache: np.ndarray | None = field(default=None, init=False, repr=False)

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

    def validate(self, path=None):
        """``self``, or ValidationError listing every violation (naming the
        file ``path`` it was read from, if given)."""
        issues = validate_system(self)
        if issues:
            raise ValidationError(issues, path)
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
#
# A file's schema: one table per entity, its (field, key, type[, default])
# rows in file order. A type is a converter, a nested Table, or [Table] for a
# list of them; a nested Table under the key None keeps its keys in the parent
# mapping. A row with a default is optional; a flag (a _bool with a default)
# is written only when set.

Table = namedtuple("Table", "cls name rows")


def _bool(value):
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _int(value):
    # an integral float is an int; "2", 2.7 and true are not
    if isinstance(value, bool) or value != int(value):
        raise ValueError(value)
    return int(value)


def _float_or_null(value):
    return None if value is None else float(value)


def _list(value):
    """``value`` if it is a list, else TypeError, as a converter raises."""
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def _floats(value, dtype=float):
    """A (nested) list as a numpy array; a ragged list raises ValueError."""
    return np.asarray(_list(value), dtype=dtype)


def _ints(value):
    return _floats(value, int)


GRID = Table(TimeGrid, "grid", (
    ("hours", "hours", _int), ("periods_per_hour", "periods_per_hour", _int),
))
BUS = Table(Bus, "bus", (("id", "id", str), ("slack", "slack", _bool, False)))
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
    ("on", "committed", _bool),
    ("dispatch_above_min", "dispatch_above_min_mw", float, 0.0),
    ("hours_on", "hours_on", _int, 0), ("hours_off", "hours_off", _int, 0),
))
GENERATOR = Table(Generator, "generator", (
    ("id", "id", str), ("bus", "bus", str),
    ("p_min", "p_min_mw", float), ("p_max", "p_max_mw", float),
    ("segments", "cost_segments", [SEGMENT]),
    ("no_load_cost", "no_load_usd_per_h", float), ("startup_cost", "startup_usd", float),
    ("ramp_up", "ramp_up_mw_per_h", float), ("ramp_down", "ramp_down_mw_per_h", float),
    ("startup_limit", "startup_limit_mw", float),
    ("shutdown_limit", "shutdown_limit_mw", float),
    ("min_up", "min_up_h", _int), ("min_down", "min_down_h", _int),
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


def _require(mapping, key, entity):
    if key not in mapping:
        raise SystemFileError(f"{entity}: missing required field {key!r}", entity, key)
    return mapping[key]


def _convert(kind, value, entity, key):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        name = kind.__name__.lstrip("_").replace("_", " ")
        msg = f"{entity}: {key} must be {name}, got {reprlib.repr(value)}"
        raise SystemFileError(msg, entity, key) from None


def _read(table, raw, entity):
    """Build one ``table`` entity from the mapping ``raw``, naming ``entity`` in
    errors. Nested entries are read first, then the scalars, each in file order.
    A value the entity's class refuses raises SystemFileError too."""
    if not isinstance(raw, dict):
        raise SystemFileError(f"{entity}: expected a mapping, got {reprlib.repr(raw)}", entity)
    values = {}
    for fld, key, kind, *default in sorted(table.rows, key=lambda row: callable(row[2])):
        if key is None:
            values[fld] = _read(kind, raw, entity)
            continue
        value = raw.get(key, *default) if default else _require(raw, key, entity)
        if isinstance(kind, list):
            name = f"{entity} {kind[0].name}"
            values[fld] = _read_list(kind[0], value, entity, key, lambda i, _: f"{name} {i}")
        elif isinstance(kind, Table):
            values[fld] = _read(kind, value, f"{entity} {kind.name}")
        else:
            values[fld] = _convert(kind, value, entity, key)
    try:
        return table.cls(**values)
    except ValueError as exc:
        raise SystemFileError(f"{entity}: {exc}", entity) from None


def _read_list(table, items, where, key, name):
    """``items``, the list under ``where``'s ``key``, as a tuple of ``table``
    entities; ``name(position, mapping)`` names each one."""
    if not isinstance(items, list):
        raise SystemFileError(f"{where}: {key} must be a list", where, key)
    names = [name(i, item if isinstance(item, dict) else {}) for i, item in enumerate(items)]
    return tuple(_read(table, item, entity) for item, entity in zip(items, names))


def _write(table, obj):
    """``obj`` as the mapping ``table`` describes, its keys in file order."""
    doc = {}
    for fld, key, kind, *default in table.rows:
        value = getattr(obj, fld)
        if isinstance(kind, list):
            value = [_write(kind[0], v) for v in value]
        elif isinstance(kind, Table):
            value = _write(kind, value)
        if key is None:
            doc.update(value)
        elif not (default and kind is _bool and value == default[0]):
            doc[key] = value
    return doc


def read_json(table, path):
    """The ``table`` entity in the JSON file at ``path``. A file that is not
    JSON, lacks a key or holds a value of the wrong type or shape raises
    SystemFileError naming the file and the key."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise SystemFileError(f"{path}: not valid JSON ({exc})") from None
    return _read(table, raw, str(path))


def write_json(table, obj, path):
    """``obj`` as the JSON file ``table`` describes; numpy arrays as lists."""
    with open(path, "w") as fh:
        json.dump(_write(table, obj), fh, default=np.ndarray.tolist)


def write_csv(path, columns, rows, note=None):
    """``rows`` as the CSV file ``columns`` describes: a header of the column
    names, then one line per row, its cell ``i`` the row's value ``i`` in the
    format spec of column ``i``, a None an empty cell. ``note``, if given,
    is a first ``# note`` line. Every line ends in ``\\n``."""
    with open(path, "w", newline="") as fh:
        if note is not None:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh, lineterminator="\n")
        names, specs = zip(*columns)
        writer.writerow(names)
        writer.writerows(
            ["" if v is None else format(v, spec) for v, spec in zip(row, specs, strict=True)]
            for row in rows
        )


def load_system(path, data=None):
    """Parse a system YAML file. Raises SystemFileError, naming the file, on
    malformed input and ValidationError (listing every violation) on
    invariant failures.

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
    try:
        system = PowerSystem(
            **{
                key: _read_list(
                    table, raw.get(key, []), "system", key,
                    lambda i, item: f"{table.name} {item.get('id', unnamed.format(i))}",
                )
                for key, table, unnamed in LISTS
            },
            **_read(PENALTIES, _require(raw, "penalties", "system"), "penalties"),
            supplied_isf=None if raw.get("isf") is None else _convert(_floats, raw["isf"], "system", "isf"),
        )
    except SystemFileError as exc:  # it names the entry; name the file too
        raise SystemFileError(f"{path}: {exc}", exc.entity, exc.field) from None
    return system.validate(path)


def save_system(system, path):
    doc = {"format_version": FORMAT_VERSION, "penalties": _write(PENALTIES, system)}
    for key, table, _ in LISTS:
        doc[key] = [_write(table, entity) for entity in getattr(system, key)]
    if system.supplied_isf is not None:
        doc["isf"] = [[float(v) for v in row] for row in np.asarray(system.supplied_isf)]
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)

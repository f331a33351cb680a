"""The file codec: one reader per file format, and the tables files are read
and written through.

A file's schema is one table per entity, its (field, key, type[, default])
rows in file order. A type is a converter, a nested Table, or a one-item list
for a list: [Table] for a list of entities, [converter] for a list of values.
A nested Table under the key None keeps its keys in the parent mapping. A row
with a default is optional; a flag (a `bool_` with a default) is written only
when set. `read_mapping` builds an entity from a mapping and `write_mapping`
writes one back; a missing or mistyped key raises `SystemFileError` naming
the entity and the key. So does, in a file read ``strict`` (the YAML files,
written by hand), a key no row declares (`refuse_unknown`), where a
misspelled key would otherwise read as absent. The JSON stage files are read
leniently, so that an older file still loads with keys no longer read.

Each format has one reader, and every reader opens its file through
`read_text`, so each names the file in one line when it fails: a file that
cannot be opened, is not UTF-8 or does not parse raises `SystemFileError`,
never an `OSError`, a `UnicodeDecodeError` or a parser's own multi-line
error.

- `read_yaml` (the system file, the experiment config) parses with libyaml
  where PyYAML was built with it; `write_yaml` dumps with PyYAML's own
  emitter, whose bytes `save_system` keeps.
- `read_json` and `write_json` (the scenario, SUC and DAM files, the run
  ledger's cells and clairvoyant references).
- `read_csv` (requirements, net-load profiles) and `write_csv` (every CSV
  the package writes, from a column table of (name, format spec) pairs).

`check_shapes` lets an entity's class refuse arrays that do not fit its
ids and grid, which `read_mapping` then names with the file. A model's own
parameter out of its range (an error spread, a correlation, a scenario
count, a seed, a grid's split, a MIP gap) raises `ParameterError`, which
the config reader and the command line name as their key or argument.
"""

from __future__ import annotations

import csv
import io
import json
import math
import reprlib
from collections import namedtuple

import numpy as np
import yaml

# libyaml's parser builds the same values as PyYAML's, about ten times faster
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class SystemFileError(ValueError):
    """An input file is unreadable or structurally malformed (missing or
    mistyped fields). Carries the offending entity/field when known."""

    def __init__(self, message, entity=None, field=None):
        super().__init__(message)
        self.entity = entity
        self.field = field


class ParameterError(ValueError):
    """A parameter outside its range, from a file or a command line; the
    message starts with the parameter's ``name``."""

    def __init__(self, name, want, value):
        super().__init__(f"{name} must be {want}, got {value}")
        self.name = name


def check_nonnegative(name, value):
    """ParameterError naming ``name`` unless ``value`` is a finite number >= 0."""
    if not 0.0 <= value < math.inf:
        raise ParameterError(name, "a finite number >= 0", value)


Table = namedtuple("Table", "cls name rows")


# -- converters: each returns its value or raises TypeError or ValueError; a
# message names one by its name without the trailing underscore


def bool_(value):
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def int_(value):
    # an integral float is an int; "2", 2.7 and true are not
    if isinstance(value, bool) or value != int(value):
        raise ValueError(value)
    return int(value)


def number_or_null(value):
    """``value`` as given if it is None or a number (not a bool)."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise TypeError(value)
    return value


def list_(value):
    if not isinstance(value, list):
        raise TypeError(value)
    return value


def floats(value, dtype=float):
    """A (nested) list of finite numbers as a numpy array; a ragged list, or
    a null, NaN or infinite entry, raises ValueError."""
    array = np.asarray(list_(value), dtype=dtype)
    if not np.isfinite(array).all():
        raise ValueError("not every value is a finite number")
    return array


def ints(value):
    return floats(value, int)


def check_shapes(obj, want):
    """ValueError naming each field of ``obj`` that is not an array of the
    shape ``want`` gives it, so a file's arrays that do not fit its ids and
    grid are refused where the file is read."""
    bad = [f"{key} {np.shape(getattr(obj, key))}, not {shape}"
           for key, shape in want.items() if np.shape(getattr(obj, key)) != shape]
    if bad:
        raise ValueError("shape of " + "; ".join(bad))


# -- the mapping reader and writer


def require(mapping, key, entity):
    if key not in mapping:
        raise SystemFileError(f"{entity}: missing required field {key!r}", entity, key)
    return mapping[key]


def convert(kind, value, entity, key):
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        name = kind.__name__.rstrip("_").replace("_", " ")
        msg = f"{entity}: {key} must be {name}, got {reprlib.repr(value)}"
        raise SystemFileError(msg, entity, key) from None


def keys(table):
    """The keys of a ``table`` entity's mapping, those of a table under None
    included."""
    return [k for _, key, kind, *_ in table.rows for k in (keys(kind) if key is None else [key])]


def refuse_unknown(raw, known, entity):
    """SystemFileError naming the first key of the mapping ``raw`` that is
    not in ``known``."""
    for key in raw:
        if key not in known:
            raise SystemFileError(f"{entity}: unknown key {reprlib.repr(key)}", entity, key)


def read_mapping(table, raw, entity, strict=False):
    """Build one ``table`` entity from the mapping ``raw``, naming ``entity`` in
    errors. Nested entries and lists are read first, then the scalars, each
    in file order. A value the entity's class refuses raises SystemFileError
    too, and so, with ``strict``, does a key no row declares, here or in a
    nested entry."""
    if not isinstance(raw, dict):
        raise SystemFileError(f"{entity}: expected a mapping, got {reprlib.repr(raw)}", entity)
    if strict:
        refuse_unknown(raw, keys(table), entity)
    values = {}
    for fld, key, kind, *default in sorted(table.rows, key=lambda row: callable(row[2])):
        if key is None:
            values[fld] = read_mapping(kind, raw, entity)
            continue
        value = raw.get(key, *default) if default else require(raw, key, entity)
        if isinstance(kind, list) and isinstance(kind[0], Table):
            name = f"{entity} {kind[0].name}"
            values[fld] = read_list(kind[0], value, entity, key, lambda i, _: f"{name} {i}", strict)
        elif isinstance(kind, list):
            items = convert(list_, value, entity, key)
            values[fld] = [convert(kind[0], item, entity, key) for item in items]
        elif isinstance(kind, Table):
            values[fld] = read_mapping(kind, value, f"{entity} {kind.name}", strict)
        else:
            values[fld] = convert(kind, value, entity, key)
    try:
        return table.cls(**values)
    except ValueError as exc:
        raise SystemFileError(f"{entity}: {exc}", entity) from None


def read_list(table, items, where, key, name, strict=False):
    """``items``, the list under ``where``'s ``key``, as a tuple of ``table``
    entities, read as `read_mapping` reads them; ``name(position, mapping)``
    names each one."""
    if not isinstance(items, list):
        raise SystemFileError(f"{where}: {key} must be a list", where, key)
    names = [name(i, item if isinstance(item, dict) else {}) for i, item in enumerate(items)]
    return tuple(read_mapping(table, item, entity, strict) for item, entity in zip(items, names))


def write_mapping(table, obj):
    """``obj`` as the mapping ``table`` describes, its keys in file order."""
    doc = {}
    for fld, key, kind, *default in table.rows:
        value = getattr(obj, fld)
        if isinstance(kind, list):
            value = [write_mapping(kind[0], v) for v in value]
        elif isinstance(kind, Table):
            value = write_mapping(kind, value)
        if key is None:
            doc.update(value)
        elif not (default and kind is bool_ and value == default[0]):
            doc[key] = value
    return doc


# -- one reader and writer per format


def read_text(path):
    """The text of the file at ``path``, which must be UTF-8."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode()
    except OSError as exc:
        raise SystemFileError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise SystemFileError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_yaml(path, text=None):
    """The YAML document in the file at ``path``. ``text``, if given, is the
    file's text as already read; it is parsed instead of opening ``path``,
    which then only names the file in errors."""
    try:
        return yaml.load(read_text(path) if text is None else text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:  # its message spans lines, naming the text, not the file
        problem = " ".join(str(exc).replace('in "<unicode string>",', "at").split())
        raise SystemFileError(f"{path}: not valid YAML ({problem})") from None


def write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def read_json(path, table=None):
    """The JSON document in the file at ``path``, or, given a ``table``, the
    entity it describes. A file that lacks a key or holds a value of the
    wrong type or shape raises SystemFileError naming the file and the
    key."""
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: not valid JSON ({exc})") from None
    return raw if table is None else read_mapping(table, raw, str(path))


def write_json(path, obj, table=None, **kwargs):
    """``obj`` (given a ``table``, the entity it describes) as the JSON file
    at ``path``, numpy arrays as lists; ``kwargs`` go to `json.dump`."""
    doc = obj if table is None else write_mapping(table, obj)
    with open(path, "w") as fh:
        json.dump(doc, fh, default=np.ndarray.tolist, **kwargs)


def read_csv(path):
    """(note, rows) of the CSV file at ``path``: the text of a first line
    that starts with ``#``, without it (else None), and the rows after it,
    each a list of cells; a blank line is an empty row."""
    text, note = read_text(path), None
    if text.startswith("#"):
        first, _, text = text.partition("\n")
        note = first[1:].strip()
    try:
        return note, list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise SystemFileError(f"{path}: not valid CSV ({exc})") from None


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

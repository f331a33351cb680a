"""Unit dispatch physics shared by the stochastic commitment (SUC), the
day-ahead market (DAM) and real-time redispatch (RTM).

`unit_rows` gives the dispatch rows of a whole fleet once, on any
`TimeGrid`, each unit parameter a (units, 1) column (`unit_params`). The
SUC adds all of them on its sub-period grid and the DAM at one period an
hour, both with commitment as columns; the RTM takes commitment as data.
`row_table` expands rows over units, scenarios and periods into one table
per model: the unit rows, and in the DAM its ramp-award rows after them.
`add_row_blocks` writes a table into a model block by block, so each
caller keeps its own per-unit blocks and order. `segment_entries` gives a
unit's output as an injection group for the bus balance, which each pass
writes with `network.FlowScreen.add_balance`.
`physical_residuals` audits a solution against the same physics, written
from the inequalities rather than from the rows, vectorised over
scenarios, units and periods; `bus_injections` is its map from unit
output to bus injections.

A unit's output above minimum ``p`` has no column: every row and injection
reading it holds one term per offer-segment column (`unit_columns`). This
substitutes ``p`` out of a model with a row ``p = sum of segments``; ``p``
costs nothing, so feasible points map one-to-one at the same objective, and
``0 <= p <= DR`` is implied, as the segment widths add up to ``DR`` (to
1e-9 MW, which `system` checks). Each unit saves a column and a row a period.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from . import optim

__all__ = [
    "unit_columns", "unit_rows", "row_table", "add_row_blocks", "segment_lines",
    "segment_entries", "unit_params", "bus_injections", "physical_residuals",
]


def unit_columns(model, name, g, grid):
    """The dispatch columns of unit ``g`` on ``grid``: per period, one
    column per offer segment, at most its width and costed for the period's
    length. The unit's output above minimum is their sum. Returns their
    indices, shape (periods, segments)."""
    widths = np.diff([seg.upper for seg in g.segments], prepend=0.0)
    return model.add_vars(
        name, (grid.n_periods, len(widths)), ub=widths,
        obj=[seg.cost * grid.period_hours for seg in g.segments],
    )


def unit_rows(gens, grid, stops=None):
    """The dispatch rows of every unit of ``gens`` on ``grid``, as
    `row_table` takes them. Per period ``k`` of hour ``h``, with ``p[k]``
    the output above minimum (one term per segment column, each with
    ``p``'s coefficient), ramp rates scaled to the period length and ``DR =
    p_max - p_min``:

    - cap: ``p[k] <= DR * u[h]``
    - rampup: ``p[k] - p[k-1] <= ru * u[h(k-1)] + (startup_limit - p_min) *
      v[h]``, the start term only in an hour's first period
    - rampdn: ``p[k-1] - p[k] <= rd * u[h(k-1)] + DR * w[h]``, the stop term
      only in an hour's first period
    - stopcap, in the last period before hour ``h+1``: ``p[k] <= DR -
      (p_max - shutdown_limit) * w[h+1]``

    The first period runs from the initial state: ``p[0] <= p0 + ru * u0 +
    (startup_limit - p_min) * v[0]`` and ``p[0] >= p0 - rd * u0 + (rd - p0)
    * w[0]``.

    Given ``stops``, the units' 0/1 stops (units, hours) where commitment is
    data, a stopcap row is kept only where the next hour stops the unit.
    """
    n = grid.n_periods
    ks = np.arange(n)
    first = ks == 0
    opens = ks % grid.periods_per_hour == 0  # an hour's first period
    h = ks // grid.periods_per_hour
    prev = (ks - 1).clip(0)
    hn = h[np.minimum(ks + 1, n - 1)]  # the hour of the next period
    span, p_min, p_max, ru, rd, su, sd, p0, u0 = _physics(gens, grid)
    lift = -(su - p_min)
    stopcap = (ks < n - 1) & (hn != h) & (True if stops is None else stops[:, hn] != 0)
    # (sense, rhs, terms, where); a term is (variable, index, coefficient)
    return [
        ("<=", 0.0, [("p", ks, 1.0), ("u", h, -span)], True),
        ("<=", np.where(first, p0 + ru * u0, 0.0), [
            ("p", ks, 1.0), ("p", prev, np.where(first, 0.0, -1.0)),
            ("u", h[prev], np.where(first, 0.0, -ru)), ("v", h, np.where(opens, lift, 0.0)),
        ], True),
        (np.where(first, ">=", "<="), np.where(first, p0 - rd * u0, 0.0), [
            ("p", prev, 1.0), ("p", ks, np.where(first, 0.0, -1.0)),
            ("u", h[prev], np.where(first, 0.0, -rd)),
            ("w", h, np.where(first, -(rd - p0), np.where(opens, -span, 0.0))),
        ], True),
        ("<=", span, [("p", ks, 1.0), ("w", hn, p_max - sd)], stopcap),
    ]


def row_table(rows, var, data=()):
    """The rows ``rows`` of every scenario and unit as one table, which
    `add_row_blocks` writes into a model.

    A row is (sense, rhs, terms, where): sense a value or one per period;
    rhs and ``where``, the periods the row exists in, broadcast to (units,
    periods); a term is (variable, index, coefficient), index one per
    period and coefficient broadcasting to (units, periods). ``var`` maps
    each variable to its columns, (units, hours) or (scenarios, units,
    lines, periods) (`segment_lines`), along whose last axis a term's index
    picks: a term of a variable with several lines, as a unit's output
    above minimum has one per segment, stands for one term per line, and a
    line's -1 pads. The variables in ``data`` map to values instead, and
    their terms move into the right-hand side. Returns (sense, rhs, cols,
    coefs, keep): ``keep`` indexed (scenario, unit, period, row), and the
    others by its flat index (then term).
    """
    var = {x: a[None, :, None] if np.ndim(a) == 2 else a for x, a in var.items()}
    (n,) = np.broadcast_shapes(*(np.shape(at) for row in rows for _, at, _ in row[2]))
    shape = (*np.broadcast_shapes(*(a.shape[:2] for a in var.values())), n, len(rows))
    sense, rhs, keep = np.empty(shape, "<U2"), np.empty(shape), np.empty(shape, bool)
    families = []
    for r, (s, b, terms, where) in enumerate(rows):
        families.append([])
        for x, at, coef in terms:
            picked = var[x][..., at]
            for k in range(picked.shape[2]):
                line = picked[:, :, k]
                if x in data:
                    b = b - coef * line
                else:
                    families[-1].append((line, np.where(line < 0, 0.0, coef)))
        sense[..., r], rhs[..., r], keep[..., r] = s, b, where
    cols, coefs = (a.reshape(keep.size, -1) for a in optim.stack_rows(*families))
    return sense.ravel(), rhs.ravel(), cols, coefs, keep


def add_row_blocks(model, table, blocks):
    """Add the row blocks ``blocks`` of ``table`` (`row_table`) to
    ``model``, in order and in one `optim.Model.add_rows` call. A block is
    (name, (scenario, unit), rows), rows indices or a slice into the
    table's rows; it holds them where they exist, period by period and,
    within a period, in the order given."""
    *flat, keep = table
    cell = np.arange(keep.size).reshape(keep.shape)
    picks = [cell[at][:, rows][keep[at][:, rows]] for _, at, rows in blocks]
    at = np.concatenate(picks)
    names = [(name, pick.shape) for (name, _, _), pick in zip(blocks, picks)]
    model.add_rows(names, *(a[at] for a in flat))


def segment_lines(segs):
    """Each unit's (periods, segments) columns ``segs`` as one (1, units,
    lines, periods) variable of `row_table`: a line per segment, padded
    with -1 to the most segments."""
    lines = np.full((1, len(segs), max(s.shape[1] for s in segs), segs[0].shape[0]), -1)
    for i, s in enumerate(segs):
        lines[0, i, : s.shape[1]] = s.T
    return lines


def segment_entries(system, segs):
    """Each unit's (periods, segments) columns ``segs`` as one injection
    group at its bus: (bus (E,), cols (E, periods), 1.0), as
    `network.FlowScreen.add_balance` takes it."""
    counts = [s.shape[1] for s in segs]
    bus = np.repeat([system.bus_index(g.bus) for g in system.generators], counts)
    return bus, np.concatenate([s.T for s in segs]), 1.0


def unit_params(generators, *names):
    """Attributes ``names`` (dotted, e.g. "initial.dispatch_above_min") of
    every unit as float columns, shape (units, 1): as `operator.attrgetter`
    gives them, one for one name and a tuple for several."""
    get = attrgetter(*names)
    cols = np.array([get(g) for g in generators], dtype=float).reshape(-1, len(names), 1)
    return cols[:, 0] if len(names) == 1 else tuple(cols.swapaxes(0, 1))


def _physics(gens, grid):
    """The unit parameters the dispatch rows and their audit read, as
    (units, 1) columns: the dispatch range, p_min, p_max, the ramp rates
    scaled to ``grid``'s period, the startup and shutdown limits, and the
    initial output above minimum and on/off state."""
    names = "dispatch_range p_min p_max ramp_up ramp_down startup_limit shutdown_limit"
    cols = unit_params(gens, *names.split(), "initial.dispatch_above_min", "initial.on")
    return (*cols[:3], cols[3] * grid.period_hours, cols[4] * grid.period_hours, *cols[5:])


def bus_injections(system, gen_mw):
    """Unit output (..., units, periods) summed onto buses: (..., buses,
    periods), unit by unit in system order."""
    gen_mw = np.asarray(gen_mw, dtype=float)
    inj = np.zeros(gen_mw.shape[:-2] + (len(system.buses), gen_mw.shape[-1]))
    bus_of = [system.bus_index(g.bus) for g in system.generators]
    np.add.at(inj, (Ellipsis, bus_of, slice(None)), gen_mw)
    return inj


def physical_residuals(system, grid, u, v, w, p, curtail, load):
    """Worst violations (MW, 0 when none) of the dispatch physics by a
    solution on ``grid``: output above minimum ``p`` (scenarios, units,
    periods) under the hourly 0/1 commitment ``u``, ``v``, ``w`` (units,
    hours), with ``curtail`` and ``load`` (scenarios, buses, periods).

    Keys: "capacity" (``0 <= p <= DR * u`` and ``curtail >= 0``), "shed"
    (``curtail <= max(load, 0)``: curtailment is load shed, so a bus cannot
    shed more than its own load), "ramp" (ramp-up and ramp-down from the
    initial state and between periods, with the startup and shutdown
    allowances in an hour's first period, and the shutdown limit in the
    period before a stop), "balance" (the worst absolute net injection
    summed over buses) and "flow" (line limits).
    """
    gens = system.generators
    k_per_h = grid.periods_per_hour
    span, p_min, _, ru, rd, su, sd, p0, u0 = _physics(gens, grid)
    opens = np.arange(grid.n_periods) % k_per_h == 0
    on = np.repeat(u, k_per_h, axis=1)
    starts = np.repeat(v, k_per_h, axis=1) * opens
    stops = np.repeat(w, k_per_h, axis=1) * opens

    before = np.concatenate([np.broadcast_to(p0, p.shape[:-1] + (1,)), p[..., :-1]], axis=-1)
    was_on = np.concatenate([u0, on[:, :-1]], axis=1)
    up = before + ru * was_on + (su - p_min) * starts
    floor = before - rd * was_on - span * stops
    # a stop in the first period may take the unit from p0 straight to 0
    floor[..., 0] = (p0 - rd * u0 + (rd - p0) * w[:, :1])[:, 0]
    # the period before a stop holds at most the shutdown limit
    stop_next = np.zeros(on.shape, dtype=bool)
    stop_next[:, :-1] = stops[:, 1:] != 0
    held = np.where(stop_next, p - (sd - p_min), 0.0)

    inj = bus_injections(system, p + p_min * on) + curtail - load
    worst = {
        "capacity": max(0.0, (p - span * on).max(), -p.min(), -np.min(curtail)),
        "shed": max(0.0, (curtail - np.maximum(load, 0.0)).max()),
        "ramp": max(0.0, (p - up).max(), (floor - p).max(), held.max()),
        "balance": np.abs(inj.sum(axis=-2)).max(),
        "flow": 0.0,
    }
    if len(system.lines):
        flows = system.isf() @ inj
        fmax = np.array([ln.flow_max for ln in system.lines])[:, None]
        fmin = np.array([ln.flow_min for ln in system.lines])[:, None]
        worst["flow"] = max(0.0, (flows - fmax).max(), (fmin - flows).max())
    return {key: float(val) for key, val in worst.items()}

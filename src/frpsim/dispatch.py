"""Unit dispatch physics shared by the stochastic commitment (SUC), the
day-ahead market (DAM) and real-time redispatch (RTM).

`add_unit_rows` writes one unit's dispatch rows once, on any `TimeGrid`.
The SUC adds all of them on its sub-period grid and the DAM at one period an
hour, both with commitment as columns; the RTM takes commitment as data.
Each caller adds the rows in its own blocks and order. `add_row_table`
expands a table of rows over periods into model rows: it writes the unit
rows and the DAM's ramp-award rows. `segment_entries` gives a unit's
output as an injection group for the bus balance, which each pass writes
with `network.FlowScreen.add_balance`.
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

from functools import partial
from operator import attrgetter

import numpy as np

from . import optim

__all__ = [
    "unit_columns", "add_unit_rows", "add_row_table", "segment_entries", "unit_params",
    "bus_injections", "physical_residuals",
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


def add_unit_rows(model, g, grid, blocks, seg, u, v, w, fixed=False):
    """Add the dispatch rows of unit ``g`` on ``grid`` to ``model``. Per
    period ``k`` of hour ``h``, with ``p[k]`` the output above minimum (one
    term per segment column, each with ``p``'s coefficient), ramp rates
    scaled to the period length and ``DR = p_max - p_min``:

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

    ``blocks`` maps each row-block name to the rows it holds, as indices
    into (cap, rampup, rampdn, stopcap), as `add_row_table` takes it.
    ``seg`` (periods, segments) holds column indices, and so do ``u``, ``v``
    and ``w`` (hours,) unless ``fixed``: then they are the unit's 0/1
    schedule, their terms move into the right-hand side, the cap row becomes
    an upper bound of 0 on the segments of off periods, and a stopcap row is
    kept only where the next hour stops the unit.
    """
    n = grid.n_periods
    ks = np.arange(n)
    first = ks == 0
    opens = ks % grid.periods_per_hour == 0  # an hour's first period
    h = ks // grid.periods_per_hour
    prev = (ks - 1).clip(0)
    hn = h[np.minimum(ks + 1, n - 1)]  # the hour of the next period
    ru = g.ramp_up * grid.period_hours
    rd = g.ramp_down * grid.period_hours
    p0 = g.initial.dispatch_above_min
    u0 = 1.0 if g.initial.on else 0.0
    lift = -(g.startup_limit - g.p_min)
    # (sense, rhs, terms); a term is (variable, index, coefficient)
    rows = [
        ("<=", 0.0, [("p", ks, 1.0), ("u", h, -g.dispatch_range)]),
        ("<=", np.where(first, p0 + ru * u0, 0.0), [
            ("p", ks, 1.0),
            ("p", prev, np.where(first, 0.0, -1.0)),
            ("u", h[prev], np.where(first, 0.0, -ru)),
            ("v", h, np.where(opens, lift, 0.0)),
        ]),
        (np.where(first, ">=", "<="), np.where(first, p0 - rd * u0, 0.0), [
            ("p", prev, 1.0),
            ("p", ks, np.where(first, 0.0, -1.0)),
            ("u", h[prev], np.where(first, 0.0, -rd)),
            ("w", h, np.where(first, -(rd - p0), np.where(opens, -g.dispatch_range, 0.0))),
        ]),
        ("<=", g.dispatch_range, [("p", ks, 1.0), ("w", hn, g.p_max - g.shutdown_limit)]),
    ]
    keep = np.ones((n, len(rows)), dtype=bool)
    keep[:, 3] = (ks < n - 1) & (hn != h)
    if fixed:
        keep[:, 3] &= w[hn] != 0
        model.ub[seg[u[h] == 0]] = 0.0
    var = {"p": seg.T, "u": u, "v": v, "w": w}
    add_row_table(model, blocks, rows, var, keep, data=("u", "v", "w") if fixed else ())


def add_row_table(model, blocks, rows, var, keep, data=()):
    """Add the rows ``rows`` to ``model`` in every period where ``keep``
    (periods, rows) holds.

    A row is (sense, rhs, terms), sense and rhs a value or one per period; a
    term is (variable, index, coefficient), index and coefficient likewise.
    ``var`` maps each variable to the columns a term's index picks from, or
    to several lines of them, as a unit's output above minimum has one line
    per segment: a term of it stands for one term per line. The variables
    in ``data`` map to values instead, and their terms move into the
    right-hand side. ``blocks`` maps each row-block name to the rows it
    holds, as indices (or a slice) into ``rows``; a block holds them period
    by period and, within a period, in the order given.
    """
    n = keep.shape[0]
    families, rhs = [], []
    for _, b, terms in rows:
        b = np.broadcast_to(np.asarray(b, dtype=float), n).copy()
        fam = []
        for x, at, coef in terms:
            if x in data:
                b -= coef * var[x][at]
            else:
                fam.extend((col, coef) for col in np.atleast_2d(var[x])[:, at])
        families.append(fam)
        rhs.append(b)
    sense = np.column_stack([np.broadcast_to(s, n) for s, _, _ in rows])
    table = (sense, np.column_stack(rhs), *optim.stack_rows(*families), keep)
    for name, picked in blocks.items():
        *block, kept = (a[:, picked] for a in table)
        model.add_rows(name, *(a[kept] for a in block))


def segment_entries(system, segs):
    """Each unit's (periods, segments) columns ``segs`` as one injection
    group at its bus: (bus (E,), cols (E, periods), 1.0), as
    `network.FlowScreen.add_balance` takes it."""
    counts = [s.shape[1] for s in segs]
    bus = np.repeat([system.bus_index(g.bus) for g in system.generators], counts)
    return bus, np.concatenate([s.T for s in segs]), 1.0


def unit_params(generators, name):
    """Attribute ``name`` (dotted, e.g. "initial.dispatch_above_min") of
    every unit as a float column, shape (units, 1)."""
    get = attrgetter(name)
    return np.array([float(get(g)) for g in generators])[:, None]


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
    col = partial(unit_params, gens)
    span, p_min = col("dispatch_range"), col("p_min")
    ru = col("ramp_up") * grid.period_hours
    rd = col("ramp_down") * grid.period_hours
    p0 = col("initial.dispatch_above_min")
    u0 = col("initial.on")
    opens = np.arange(grid.n_periods) % k_per_h == 0
    on = np.repeat(u, k_per_h, axis=1)
    starts = np.repeat(v, k_per_h, axis=1) * opens
    stops = np.repeat(w, k_per_h, axis=1) * opens

    before = np.concatenate([np.broadcast_to(p0, p.shape[:-1] + (1,)), p[..., :-1]], axis=-1)
    was_on = np.concatenate([u0, on[:, :-1]], axis=1)
    up = before + ru * was_on + (col("startup_limit") - p_min) * starts
    floor = before - rd * was_on - span * stops
    # a stop in the first period may take the unit from p0 straight to 0
    floor[..., 0] = (p0 - rd * u0 + (rd - p0) * w[:, :1])[:, 0]
    # the period before a stop holds at most the shutdown limit
    stop_next = np.zeros(on.shape, dtype=bool)
    stop_next[:, :-1] = stops[:, 1:] != 0
    held = np.where(stop_next, p - (col("shutdown_limit") - p_min), 0.0)

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

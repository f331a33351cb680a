"""The bus balance and transmission limits, the latter screened lazily.

Each dispatch block (a SUC scenario, the DAM, the RTM) writes its balance
rows with `FlowScreen.add_balance`, which registers the same injections,
as an affine map of the model's columns and data, for the flow rows.
Models are built without line-flow rows. After each solve the flows
``system.isf() @ injections`` are computed from the solution; rows are added
only for the (line, period) pairs whose flow breaks a limit by more than
`FLOW_TOL`, and the model is re-solved until no pair is broken (iterative
transmission screening: Xavier, Qiu & Ahmed, "Learning to Solve Large-Scale
Security-Constrained Unit Commitment Problems", INFORMS J. Computing 33(2),
2021). No row is added twice, so a violation left only on rows already in the
model is solver tolerance, and the loop stops there.

The answer is the full model's. The screened model is a relaxation of the full
one, and its optimum meets every flow limit, so it is optimal for the full
model. For an LP, zero duals on the omitted rows (all satisfied at the returned
point) complete an optimal dual of the full model, so prices read from the
screened model are prices of the full one.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

__all__ = ["FLOW_TOL", "FlowScreen"]

FLOW_TOL = 1e-6  # MW a flow may pass its limit before its row is added


class FlowScreen:
    """The line-flow rows of one model, added where a solve needs them.

    Each block of periods registered with `add_periods` (by `add_balance`,
    which writes the block's balance rows from the same map) carries its bus
    injections as an affine map of the model's columns; the flow on line
    ``l`` is ``psi[l] @ injections``. A row is keyed (block, line, period,
    side), with side "hi" for the upper limit and "lo" for the lower one.
    ``added`` holds the keys of the rows put into the model; ``rounds``
    counts the solves made by `solve`.
    """

    def __init__(self, system):
        self.lines = system.lines
        self.psi = system.isf()
        self.fmax = np.array([ln.flow_max for ln in self.lines])[:, None]
        self.fmin = np.array([ln.flow_min for ln in self.lines])[:, None]
        self.blocks = []  # (tag, bus (E,), cols (E, K), coefs (E,), const (buses, K))
        self.added = set()
        self.rounds = 0

    def add_periods(self, tag, bus, cols, coefs, const):
        """Register the injections of periods 0..K-1 of one dispatch block.

        Entry ``e`` injects ``coefs[e] * x[cols[e, k]]`` at bus index
        ``bus[e]`` in period ``k``; ``const`` (buses, K) is the injection
        fixed by data. All four are numpy arrays. Row names carry ``tag``,
        so blocks must differ in it.
        """
        if self.lines:
            self.blocks.append((tag, bus, cols, coefs, const))

    def add_balance(self, model, tag, terms, fixed=()):
        """Write the balance rows ``bal{tag}`` of one dispatch block, one per
        period ``k``: its injections sum to zero. Register the same
        injections with `add_periods`.

        ``terms`` are injection groups ``(bus, cols, coef)``: entry ``e``
        injects ``coef[e] * x[cols[e, k]]`` at bus index ``bus[e]`` (``coef``
        broadcasts to ``bus``). ``fixed`` are data injections ``(bus,
        values)``, ``values[e, k]`` MW. A row's right-hand side is minus the
        data injections of its period, summed entry by entry in the order
        given (0.0 with none).
        """
        bus, cols, coefs = (np.concatenate(part) for part in zip(
            *((b, c, np.broadcast_to(coef, len(b))) for b, c, coef in terms)
        ))
        rhs, const = 0.0, np.zeros((self.psi.shape[1], cols.shape[1]))
        if fixed:
            at, values = (np.concatenate(part) for part in zip(*fixed))
            np.add.at(const, at, values)
            # summed from -0.0, the identity of float addition, so that the
            # sign of a zero sum is exact: numpy's default start, +0.0, turns
            # a sum of -0.0 into +0.0
            rhs = -np.ascontiguousarray(values.T).sum(axis=1, initial=-0.0)
        model.add_rows(f"bal{tag}", "==", rhs, cols.T, coefs)
        self.add_periods(tag, bus, cols, coefs, const)

    def flows(self, x):
        """Per block, the (lines, K) flows at solution ``x``."""
        out = []
        for _, bus, cols, coefs, const in self.blocks:
            inj = const.copy()
            np.add.at(inj, bus, coefs[:, None] * x[cols])
            out.append(self.psi @ inj)
        return out

    def violated(self, x):
        """Keys of the rows not yet in the model that ``x`` breaks by more
        than FLOW_TOL."""
        keys = []
        for b, flow in enumerate(self.flows(x)):
            for side, over in (("hi", flow - self.fmax), ("lo", self.fmin - flow)):
                for line, k in zip(*np.nonzero(over > FLOW_TOL)):
                    key = (b, int(line), int(k), side)
                    if key not in self.added:
                        keys.append(key)
        return keys

    def every_row(self):
        """Keys of every row not yet in the model: what the unscreened
        formulation holds."""
        return [
            (b, line, k, side)
            for b, block in enumerate(self.blocks)
            for line in range(len(self.lines))
            for k in range(block[2].shape[1])
            for side in ("hi", "lo")
            if (b, line, k, side) not in self.added
        ]

    def add_rows(self, model, keys):
        """Put the rows ``keys`` into ``model``, in the order given."""
        for b, run in itertools.groupby(keys, key=lambda key: key[0]):
            run = list(run)
            tag, bus, cols, coefs, const = self.blocks[b]
            line = np.array([key[1] for key in run])
            k = np.array([key[2] for key in run])
            hi = np.array([key[3] == "hi" for key in run])
            # one dot product per row, so that a row's right-hand side does
            # not depend on which rows are added with it
            fixed = np.array([self.psi[ln] @ const[:, kk] for ln, kk in zip(line, k)])
            model.add_rows(
                f"flow{tag}.{len(self.added)}",
                np.where(hi, "<=", ">="),
                np.where(hi, self.fmax[line, 0], self.fmin[line, 0]) - fixed,
                cols[:, k].T,
                self.psi[line][:, bus] * coefs,
            )
            self.added.update(run)

    def solve(self, model, solve):
        """Solve ``model`` with ``solve(model)``, add the rows its solution
        breaks, and re-solve until none is broken. Returns the last result,
        with ``highs_s``, ``mip_node_count`` and ``simplex_iterations``
        summed over this call's rounds; a solve that is not optimal (a time
        limit, see `optim.solve`) ends the loop."""
        highs_s, nodes, iterations = 0.0, 0, 0
        while True:
            res = solve(model)
            self.rounds += 1
            highs_s += res.highs_s or 0.0
            nodes += res.mip_node_count or 0
            iterations += res.simplex_iterations or 0
            new = self.violated(res.x) if res.ok else []
            if not new:
                break
            self.add_rows(model, new)
        return dataclasses.replace(
            res, highs_s=highs_s, mip_node_count=nodes, simplex_iterations=iterations
        )

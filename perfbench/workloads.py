"""Benchmark workloads.

Each workload is an experiment config that ``frpsim.harness`` runs exactly as
``frp-sim run --config`` would. The corpus-based workloads use the bundled
corpus, whose inputs are fixed by its own master seed; the ``ieee14`` days
are generated from the benchmark seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import yaml

DEFAULT_SEED = 111  # the corpus master seed; the frozen references use it


@dataclass(frozen=True)
class Workload:
    name: str
    grid: str  # the experiment config it runs; names its frozen reference
    workers: int

    @property
    def seeded(self):
        """Whether the inputs depend on the benchmark seed."""
        return self.grid == "ieee14"


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", "corpus", 1),
        Workload("corpus-pool", "corpus", 2),
        Workload("suc-heavy", "suc-heavy", 1),
        Workload("ieee14", "ieee14", 1),
    )
}

# Bus loads of the standard IEEE 14-bus case (MW); their shares split the
# generated system load across buses. Buses 1, 7 and 8 carry no load.
IEEE14_LOAD_MW = {
    "b2": 21.7, "b3": 94.2, "b4": 47.8, "b5": 7.6, "b6": 11.2, "b9": 29.5,
    "b10": 9.0, "b11": 3.5, "b12": 6.1, "b13": 13.5, "b14": 14.9,
}
IEEE14_BUSES = [f"b{i}" for i in range(1, 15)]
IEEE14_DAYS = 3
# three of the five corpus days keep the run near the others' length, so a
# comparison schedule of 22 runs per workload fits in an hour
SUC_HEAVY_DAYS = ("mon", "wed", "fri")


def ieee14_days(seed, n_days=IEEE14_DAYS):
    """Hourly per-bus net load for ``n_days`` days, a pure function of seed.

    Each day is a daily shape with a one-hour morning ramp steep enough to
    need a start-up, scaled to a drawn peak and split by perturbed IEEE-14
    bus shares.
    """
    rng = np.random.default_rng([seed, 14])
    base = np.array([IEEE14_LOAD_MW.get(b, 0.0) for b in IEEE14_BUSES])
    days = []
    for d in range(n_days):
        peak = rng.uniform(320.0, 345.0)
        ramp_at = int(rng.integers(6, 8))  # hour the morning ramp lands
        night = rng.uniform(0.56, 0.60)
        shape = np.empty(24)
        shape[:ramp_at] = night
        rest = np.arange(24 - ramp_at)
        # plateau that peaks late afternoon, then the evening decline
        shape[ramp_at:] = 0.90 + 0.10 * np.sin(np.pi * rest / 14.0).clip(0.0)
        shape[-4:] = np.linspace(shape[-5], 0.74, 5)[1:]
        shape *= 1.0 + rng.normal(0.0, 0.01, 24)
        shares = base * rng.uniform(0.95, 1.05, base.size)
        shares /= shares.sum()
        load = np.round(peak * shares[:, None] * shape[None, :], 2)
        days.append(
            {
                "name": f"d{d + 1}",
                "hourly_net_load_mw": {
                    b: [float(x) for x in load[n]] for n, b in enumerate(IEEE14_BUSES)
                },
            }
        )
    return days


def config_path(grid, seed, work_dir):
    """Path of the experiment config of a workload's grid, writing it into
    ``work_dir`` first when the grid is derived."""
    from frpsim.data import case_path, corpus_path

    shipped = corpus_path("config.yaml")
    if grid == "corpus":
        return shipped
    with open(shipped) as fh:
        raw = yaml.safe_load(fh)
    if grid == "suc-heavy":
        raw["system"] = corpus_path(raw["system"])
        raw["methods"] = ["suc-fixed", "suc-free"]
        raw["n_scenarios"] = [16]
        raw["days"] = [d for d in raw["days"] if d["name"] in SUC_HEAVY_DAYS]
    elif grid == "ieee14":
        raw["system"] = case_path("ieee14")
        raw["master_seed"] = int(seed)
        raw["days"] = ieee14_days(seed)
    else:
        raise ValueError(f"unknown grid {grid!r}")
    path = os.path.join(work_dir, f"{grid}.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(raw, fh, sort_keys=False)
    return path

"""Benchmark workloads: one model at one truncation, and the jobs run on it.

A job is one `wfspectral` subcommand. A cycle runs every job of the workload
once, in order. All jobs of a workload share one model and truncation, so
every job that records a `decomposition_hash` must record the same one.

The seed draws only the start point x and the four density times, from fixed
ranges. They change the values the jobs compute, not their cost.
"""

import copy
import random
from dataclasses import dataclass, field

# The strong asymmetric benchmark matrix of the test suite (tests/conftest.py).
SIGMA_1 = ((12.0, 14.0, 15.0),
           (14.0, 11.0, 13.0),
           (15.0, 13.0, 0.0))

# SIGMA_1 bordered by a fourth row and column (10, 9, 8, 0).
SIGMA_K4 = ((12.0, 14.0, 15.0, 10.0),
            (14.0, 11.0, 13.0, 9.0),
            (15.0, 13.0, 0.0, 8.0),
            (10.0, 9.0, 8.0, 0.0))

X_RANGE = (0.1, 0.3)                       # every start coordinate
TIME_RANGES = ((0.03, 0.05), (0.15, 0.25),  # one density time from each
               (0.8, 1.2), (1.6, 2.4))


@dataclass(frozen=True)
class Workload:
    name: str
    theta: tuple
    sigma: tuple
    truncation: int
    precision: str
    jobs: tuple                      # subcommands, in cycle order
    extra: dict = field(default_factory=dict)  # further config fields

    @property
    def K(self):
        return len(self.theta)


def _scaled(sigma, factor):
    return tuple(tuple(factor * v for v in row) for row in sigma)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="k3_default",
        theta=(0.01, 0.02, 0.03), sigma=SIGMA_1, truncation=40,
        precision="auto",
        jobs=("spectrum", "density", "normconst", "distance", "converge"),
        extra={"grid_resolution": 100,
               "converge": {"D_list": [16, 24, 32, 40], "n_list": [0, 1],
                            "track": []}}),
    Workload(
        name="k4_d28",
        theta=(0.01, 0.02, 0.03, 0.04), sigma=SIGMA_K4, truncation=28,
        precision="auto",
        jobs=("density", "normconst"),
        extra={"n_max": 562}),
    # 128-bit mpmath path. At 5 x SIGMA_1 a D=10 truncation is far from
    # converged (C_stat off by 21 orders of magnitude, density mass 33), so
    # the checks would fail on it; 0.5 x SIGMA_1 converges at D=8 and the
    # extended path costs the same for any sigma at one size. D=8 rather
    # than 10 gives a run several cycles to take the median over.
    Workload(
        name="strong_selection",
        theta=(0.01, 0.02, 0.03), sigma=_scaled(SIGMA_1, 0.5), truncation=8,
        precision="extended",
        jobs=("normconst", "density"),
        extra={"grid_resolution": 30}),
)}


def job_config(workload, seed):
    """Config document shared by every job of one run."""
    rng = random.Random(seed)
    x = [round(rng.uniform(*X_RANGE), 4) for _ in range(workload.K - 1)]
    times = [round(rng.uniform(*r), 4) for r in TIME_RANGES]
    cfg = {
        "model": {"theta": list(workload.theta),
                  "sigma": [list(row) for row in workload.sigma]},
        "truncation": workload.truncation,
        "precision": workload.precision,
        "x": x,
        "times": times,
    }
    cfg.update(copy.deepcopy(workload.extra))
    return cfg


def warmup_config(workload):
    """The workload's model at truncation 2, for untimed first-call set-up."""
    cfg = job_config(workload, seed=0)
    cfg.update(truncation=2, grid_resolution=4,
               converge={"D_list": [1, 2], "n_list": [0, 1], "track": []})
    return cfg

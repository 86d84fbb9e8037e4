"""Workloads of the weakiv benchmark and the seeded inputs they run on.

Every workload runs the package's CLI with the defaults tau=0.1, alpha=0.05,
benchmark ls, method patnaik, one worker and csv output. A run's --seed picks
an order over a fixed pool of input seeds; the reference outputs of every
pool entry are recorded in references.json, so each invocation's output can be
checked exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

POOL = 32
"""Input seeds per workload that have a recorded reference output."""

COMMON_ARGS = (
    "--tau", "0.1", "--alpha", "0.05", "--benchmark", "ls",
    "--method", "patnaik", "--format", "csv",
)

CSV_ROWS = 40_000
CSV_INSTRUMENTS = 40
CSV_CLUSTERS = 400
"""The clustered moment covariance needs clusters > 2 * instruments; with 50
clusters and 40 instruments it is singular and weakivtest exits 3."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    design: str | None
    """Shipped design for `simulate`; None for the weakivtest workload."""
    reps: int
    """Replications per invocation; one dataset for weakivtest."""
    rows_per_rep: int
    """Data rows behind one replication: the design's n, or the CSV rows."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_me",
            "simulate me_reconstructed: the paper's headline reproduction; "
            "diagonal bias search and quantiles at noncentrality 20-170",
            "me_reconstructed", 200, 10_000,
        ),
        Workload(
            "sim_he",
            "simulate he_reconstructed: same path as sim_me at noncentrality "
            "up to ~4200, where each chi-square CDF sums thousands of terms",
            "he_reconstructed", 100, 10_000,
        ),
        Workload(
            "sim_firststage",
            "simulate me (first stage only): draw and group moments only; "
            "quantile and bias-search changes bypass it",
            "me", 2000, 10_000,
        ),
        Workload(
            "test_csv",
            "weakivtest --cluster --stat both on a 40k-row, 40-instrument CSV: "
            "the only path through data, estimators, fstats and the dense search",
            None, 1, CSV_ROWS,
        ),
    )
}


def input_order(seed):
    """The run's order over the input pool, fixed by the run seed."""
    return random.Random(seed).sample(range(POOL), POOL)


def sim_argv(workload, sim_seed):
    return [
        "simulate", workload.design, "--reps", str(workload.reps),
        "--seed", str(sim_seed), "--workers", "1", *COMMON_ARGS,
    ]


def csv_argv(path):
    argv = ["weakivtest", str(path), "--y", "y", "--x", "x"]
    for j in range(1, CSV_INSTRUMENTS + 1):
        argv += ["--z", f"z{j:02d}"]
    for name in ("const", "w1", "w2"):
        argv += ["--controls", name]
    return argv + ["--cluster", "state", "--stat", "both", "--seed", "0", *COMMON_ARGS]


def write_csv(seed, path, rows=CSV_ROWS, instruments=CSV_INSTRUMENTS,
              clusters=CSV_CLUSTERS):
    """Write the weakivtest input for `seed`: y, x, z01..zK, a constant and two
    covariates as controls, and a cluster label `state`. Instruments and errors
    carry cluster effects; the errors are heteroskedastic in z01, and the
    structural and first-stage errors correlate at 0.5. Values are rounded to
    10 decimals, so the same seed gives a byte-identical file."""
    gen = np.random.Generator(np.random.PCG64(seed))
    state = np.arange(rows) * clusters // rows
    w = gen.standard_normal((rows, 2))
    z = (gen.standard_normal((rows, instruments))
         + 0.5 * gen.standard_normal((clusters, instruments))[state])
    pi = gen.uniform(0.01, 0.04, instruments) * gen.choice([-1.0, 1.0], instruments)
    e = gen.standard_normal((rows, 2)) + 0.3 * gen.standard_normal((clusters, 2))[state]
    scale = np.sqrt(0.5 + 0.5 * z[:, 0] ** 2)
    v = scale * e[:, 1]
    u = scale * (0.5 * e[:, 1] + np.sqrt(0.75) * e[:, 0])
    x = 1.0 + z @ pi + w @ np.array([0.3, -0.2]) + v
    y = 0.5 * x + w @ np.array([-0.1, 0.4]) + u
    cols = np.round(np.column_stack([y, x, z, np.ones(rows), w]), 10)
    header = (["y", "x"] + [f"z{j:02d}" for j in range(1, instruments + 1)]
              + ["const", "w1", "w2", "state"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row, s in zip(cols.tolist(), state.tolist()):
            fh.write(",".join(map(repr, row)) + f",s{s:03d}\n")

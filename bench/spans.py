"""Per-layer tracing of wfspectral jobs, done from outside the program.

`Tracer.install` replaces public functions of the wfspectral modules, and the
two eigensolvers `spectral` calls, with wrappers that record a span (name,
start, end, parent, job) and a few counts. The modules reach these functions
through module or class attribute lookup, so replacing the attribute is
enough; `uninstall` puts the originals back. `jacobi` and `simplex` are not
wrapped: they are called per scalar (about 326k times per assembly at K=4
D=28), so a wrapper there would measure itself.

A span's self time is its duration minus the durations of its child spans.
Each job is one root span, named `cli.self`, so the self times of one job add
up to its traced wall time exactly.
"""

import contextlib
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import mpmath
import numpy as np
import scipy.linalg

from wfspectral import basis, density, indexing, model, spectral

SAMPLER = Path(__file__).resolve().parent / "rss_sampler.py"
SAMPLE_PERIOD = 0.001
MB = 1e6


def _enumeration(counts, args, kwargs, result):
    counts["indexing.U_pad"] = max(counts["indexing.U_pad"], len(args[0]))


def _row(counts, args, kwargs, result):
    counts["basis.recurrence_calls"] += 1
    counts["basis.recurrence_nnz"] += len(result)


def _eval_prefix(counts, args, kwargs, result):
    counts["basis.eval_members_x_points"] += result.size


def _decompose(counts, args, kwargs, result):
    counts["spectral.decompose_calls"] += 1


def _assemble(counts, args, kwargs, result):
    m = result.matrix
    counts["spectral.M_nnz"] += (m.nnz if result.precision_bits is None
                                 else sum(len(row) for row in m))


def _eigensolve(counts, args, kwargs, result):
    counts["indexing.U"] = max(counts["indexing.U"], result.size)
    counts["spectral.precision_bits"] = max(
        counts["spectral.precision_bits"], result.precision_bits or 53)


def _solved(counts, size):
    counts["spectral.eig_computed"] += size
    # Golub & Van Loan: about 9 U^3 flops for all eigenpairs of a dense
    # symmetric matrix; computed from U, not measured
    counts["spectral.eigh_gflop_computed"] += 9.0 * size ** 3 / 1e9


def _eigh(counts, args, kwargs, result):
    _solved(counts, args[0].shape[0])


def _eigsy(counts, args, kwargs, result):
    _solved(counts, args[0].rows)


def _csv(path_arg):
    def count(counts, args, kwargs, result):
        counts["io.csv_mb"] += os.path.getsize(args[path_arg]) / MB
    return count


def _phi(counts, args, kwargs, result):
    sd, pts, n_max, u_m = args
    points = int(np.prod(np.shape(pts)[:-1]))
    counts["density.contraction_gflop_computed"] += (
        2.0 * n_max * u_m * points / 1e9)


def _targets():
    """(owner, attribute, span name, count callback) for every wrapper."""
    return [
        (indexing.BasisEnumeration, "__init__", "indexing.enumerate",
         _enumeration),
        (basis.MultiJacobiBasis, "recurrence_matrix", "basis.recurrence",
         None),
        (basis.MultiJacobiBasis, "row_entries", "basis.recurrence", _row),
        (basis.MultiJacobiBasis, "eval_prefix_cube", "basis.eval_prefix",
         _eval_prefix),
        (basis.MultiJacobiBasis, "log_norms_all", "basis.log_norms", None),
        (basis.MultiJacobiBasis, "log_norm_C", "basis.log_norms", None),
        (model, "q_coefficients", "model.q_coefficients", None),
        (model, "q_tables", "model.q_coefficients", None),
        # spectral binds q_tables by name for its extended path
        (spectral, "q_tables", "model.q_coefficients", None),
        (model, "mean_fitness", "model.fitness", None),
        (model, "log_stationary_unnormalized", "model.fitness", None),
        (spectral, "decompose", "spectral.decompose_self", _decompose),
        (spectral, "assemble_M", "spectral.assemble_self", _assemble),
        (spectral, "symmetrize", "spectral.symmetrize", None),
        (spectral, "eigensolve", "spectral.eigensolve_post", _eigensolve),
        (scipy.linalg, "eigh", "spectral.eigensolve_self", _eigh),
        (mpmath, "eigsy", "spectral.eigensolve_self", _eigsy),
        (spectral, "decomposition_hash", "spectral.hash", None),
        (spectral, "write_eigenvalues_csv", "io.write_csv", _csv(1)),
        (spectral, "write_coefficients_csv", "io.write_csv", _csv(1)),
        (density, "write_density_csv", "io.write_csv", _csv(0)),
        (density, "write_distance_csv", "io.write_csv", _csv(0)),
        (density, "transition_density", "density.series_self", None),
        (density, "distance_to_stationarity", "density.series_self", None),
        (density, "_phi_at", "density.series_self", _phi),
        (density, "normalizing_constant", "density.normconst", None),
    ]


ROOT_SPAN = "cli.self"
SELF_TIME_SPANS = (ROOT_SPAN,) + tuple(dict.fromkeys(
    name for _, _, name, _ in _targets()))

# span name -> peak metric; the peak of a span is the largest RSS rise above
# its starting RSS while it runs, children included
PEAK_SPANS = {
    "spectral.assemble_self": "spectral.assemble_peak_mb",
    "spectral.eigensolve_post": "spectral.eigensolve_peak_mb",
    "density.series_self": "density.peak_mb",
    "density.normconst": "density.peak_mb",
}

MAX_COUNTS = ("indexing.U", "indexing.U_pad", "spectral.precision_bits")

PER_LAYER = (
    [(f"{name}_s", "s") for name in SELF_TIME_SPANS]
    + [("indexing.U", "count"), ("indexing.U_pad", "count"),
       ("basis.recurrence_calls", "count"), ("basis.recurrence_nnz", "count"),
       ("basis.eval_members_x_points", "count"),
       ("spectral.M_nnz", "count"), ("spectral.decompose_calls", "count"),
       ("spectral.eig_computed", "count"), ("spectral.eig_used", "count"),
       ("spectral.eig_use_ratio", "ratio"),
       ("spectral.precision_bits", "bits"),
       ("spectral.eigh_gflop_computed", "GFLOP"),
       ("density.contraction_gflop_computed", "GFLOP"),
       ("io.csv_mb", "MB"),
       ("spectral.assemble_peak_mb", "MB"),
       ("spectral.eigensolve_peak_mb", "MB"),
       ("density.peak_mb", "MB"),
       ("trace.cycle_s", "s"), ("trace.untraced_cycle_s", "s"),
       ("trace.overhead_ratio", "ratio")])


def pairs_used(sub, cfg, size):
    """Eigenpairs a subcommand reads from a decomposition of `size` pairs."""
    if sub == "spectrum":
        return size
    if sub == "normconst":
        return 1
    if sub in ("density", "distance"):
        return min(cfg.get("n_max") or density.DEFAULT_N_MAX, size)
    conv = cfg["converge"]
    wanted = set(conv["n_list"]) | {int(n) for n, _ in conv.get("track", [])}
    return len(wanted) * len(conv["D_list"])


class Tracer:
    """Records spans and counts of the jobs run inside `job()` blocks."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1, job]
        self.jobs = []         # {"id", "sub", "cycle", "counts"}
        self._stack = []
        self._current = None   # the running job's record
        self._saved = []

    def install(self):
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = self._current
            if job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], job["id"]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(job["counts"], args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def job(self, sub, cycle):
        record = {"id": len(self.jobs), "sub": sub, "cycle": cycle,
                  "counts": defaultdict(float)}
        self.jobs.append(record)
        span = [ROOT_SPAN, 0.0, 0.0, -1, record["id"]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._current = record
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._current = None
            self._stack.pop()

    def self_times(self):
        """(name, job id, self seconds) for every span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(name, job, end - start - covered[i])
                for i, (name, start, end, _, job) in enumerate(self.spans)]

    def layer_metrics(self, samples, cfg, untraced_cycle_s):
        """Per-layer metrics: per-cycle sums, then the median over cycles.

        `samples` is the (times, rss bytes) pair from RssSampler.stop over
        the traced cycles; `untraced_cycle_s` is the median untraced cycle.
        """
        cycle_of = {job["id"]: job["cycle"] for job in self.jobs}
        per_cycle = defaultdict(lambda: defaultdict(float))
        for name, job, seconds in self.self_times():
            per_cycle[cycle_of[job]][f"{name}_s"] += seconds
        for name, start, end, parent, job in self.spans:
            bucket = per_cycle[cycle_of[job]]
            if parent < 0:
                bucket["trace.cycle_s"] += end - start
            if name in PEAK_SPANS:
                key = PEAK_SPANS[name]
                bucket[key] = max(bucket[key], _peak(samples, start, end))
        for job in self.jobs:
            bucket = per_cycle[job["cycle"]]
            for key, value in job["counts"].items():
                if key in MAX_COUNTS:
                    bucket[key] = max(bucket[key], value)
                else:
                    bucket[key] += value
            bucket["spectral.eig_used"] += pairs_used(
                job["sub"], cfg, job["counts"]["indexing.U"])
        for bucket in per_cycle.values():
            bucket["spectral.eig_use_ratio"] = (
                bucket["spectral.eig_used"] / bucket["spectral.eig_computed"])
            bucket["trace.untraced_cycle_s"] = untraced_cycle_s
            bucket["trace.overhead_ratio"] = (
                bucket["trace.cycle_s"] / untraced_cycle_s)
        return {name: statistics.median(b[name] for b in per_cycle.values())
                for name, _ in PER_LAYER}

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _peak(samples, start, end):
    times, rss = samples
    lo, hi = np.searchsorted(times, [start, end], side="right")
    if hi <= lo:
        return 0.0
    base = rss[lo - 1] if lo > 0 else rss[lo]
    return max(0.0, float(rss[lo:hi].max() - base) / MB)


class RssSampler:
    """Child process that samples this process's RSS every millisecond."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(SAMPLER), str(os.getpid()),
             str(SAMPLE_PERIOD)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("RSS sampler did not start")

    def stop(self):
        """Stop sampling; return (times, rss bytes) arrays."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=60)
        finally:
            self.close()
        table = np.array([line.split() for line in out.splitlines() if line],
                         dtype=float).reshape(-1, 2)
        return table[:, 0], table[:, 1]

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

#!/usr/bin/env python3
"""wfspectral benchmark: wall time of CLI jobs, checked against oracles.

Run from the repository root:

    python3 bench/run.py --workload k3_default --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: the
next job starts only after the previous one returns. A job is an in-process
`wfspectral.cli.main([...])` call writing into a scratch directory under
`.bench_work/`. BLAS and OpenMP threads are pinned to 1 through
`cli.THREAD_ENV_VARS` before numpy loads. Cycles (every job of the workload
once) repeat while the next one is predicted to end within --seconds; the
first cycle always runs.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced cycles and reports per-layer metrics (see spans.py). Every job's
output is checked outside the timed region (see checks.py); a job that
returns non-zero or fails a check counts as failed. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

# checks and spans import numpy, so they are imported after pin_threads()
from setup_probe import warm_up
from workloads import WORKLOADS, job_config, warmup_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS = 1
SETUP_STARTS = 5      # timed fresh-interpreter set-ups per run, after one
                      # untimed start that compiles the bytecode

END_TO_END = (("cycle_s", "s"), ("density_s", "s"), ("normconst_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
TAIL_PERCENTILES = (99, 90)
TAIL_BEYOND = 10      # samples a tail percentile needs beyond it


def pin_threads():
    from wfspectral import cli
    for var in cli.THREAD_ENV_VARS:
        os.environ[var] = str(THREADS)


def measure_setup(workload, starts, config, out_dir):
    """(import, import + warm-up) seconds of fresh interpreters."""
    times = []
    for i in range(starts + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC),
             str(config), str(out_dir), *workload.jobs],
            capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append([float(v) for v in proc.stdout.split()])
    return times


@contextlib.contextmanager
def capture_decompositions(into):
    """Keep every SpectralDecomposition `spectral.decompose` returns."""
    from wfspectral import spectral
    original = spectral.decompose

    def keep(*args, **kwargs):
        sd = original(*args, **kwargs)
        into.append(sd)
        return sd

    spectral.decompose = keep
    try:
        yield
    finally:
        spectral.decompose = original


class Run:
    """The jobs of one workload run, their timings and their check results."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.cfg = job_config(workload, seed)
        self.work_dir = work_dir
        work_dir.mkdir(parents=True)
        self.cfg_path = work_dir / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg))
        self.jobs = []          # {"sub", "cycle", "traced", "seconds", ...}
        self.digests = {}       # subcommand -> digest of its first output
        self.ref_hash = None    # decomposition_hash shared by every job
        self.resolved = None    # fully resolved config from the first meta

    def job(self, sub, cycle, tracer=None):
        from wfspectral import cli
        out = self.work_dir / sub
        shutil.rmtree(out, ignore_errors=True)
        # A CLI user runs one job per process. Assembly leaves reference
        # cycles that hold its sparse products until the cyclic collector
        # runs, so collect them here, or they pile up from job to job.
        gc.collect()
        argv = [sub, "--config", str(self.cfg_path), "--out", str(out)]
        captured = []
        capture = (capture_decompositions(captured)
                   if sub == "density" and sub not in self.digests
                   else contextlib.nullcontext())
        span = tracer.job(sub, cycle) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings(record=True) as notes, capture, span:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crashed job is a failed job, not a crash
                rc = traceback.format_exc()
            seconds = time.perf_counter() - start
        failures = self.verify(sub, rc, out, captured)
        self.jobs.append({"sub": sub, "cycle": cycle, "traced": bool(tracer),
                          "seconds": seconds, "warnings": len(notes),
                          "failures": failures})

    def verify(self, sub, rc, out, captured):
        import checks
        if rc != 0:
            return [f"{sub}: cli.main returned {rc!r}"]
        meta = checks.read_meta(out, sub)
        if meta is None:
            return [f"{sub}: no readable {checks.META_FILES[sub]}"]
        cfg = meta["config"]
        self.resolved = self.resolved or cfg
        fails = [f"{sub}: meta config differs from the job config at {k}"
                 for k in self.cfg if cfg.get(k) != self.cfg[k]]
        h = meta.get("decomposition_hash")
        if h is not None:
            self.ref_hash = self.ref_hash or h
            if h != self.ref_hash:
                fails.append(f"{sub}: decomposition_hash differs within run")
        digest = checks.digest(out)
        if sub in self.digests:
            if digest != self.digests[sub]:
                fails.append(f"{sub}: output differs from the first {sub} "
                             f"job of this run")
            return fails
        self.digests[sub] = digest
        try:
            fails += checks.ORACLE_CHECKS[sub](
                out, cfg, captured[0] if captured else None)
        except Exception:  # a check that cannot read the output fails it
            fails.append(f"{sub}: check raised "
                         f"{traceback.format_exc(limit=2)}")
        return fails

    def cycles(self, traced):
        """Wall time of each cycle of the given kind."""
        sums = defaultdict(float)
        for job in self.jobs:
            if job["traced"] == traced:
                sums[job["cycle"]] += job["seconds"]
        return list(sums.values())

    def seconds(self, sub):
        return [j["seconds"] for j in self.jobs
                if j["sub"] == sub and not j["traced"]]


def measure(run, seconds, trace):
    """Run cycles while the next is predicted to end within `seconds`.

    With trace, cycles alternate untraced, traced; both kinds run at least
    once. Returns the tracer and the RSS samples of the traced cycles.
    """
    tracer = samples = None
    if trace:
        import numpy as np
        from spans import RssSampler, Tracer
        tracer, times, rss = Tracer(), [], []
    began = time.perf_counter()
    last = {}
    cycle = 0
    while True:
        traced = bool(trace) and cycle % 2 == 1
        elapsed = time.perf_counter() - began
        if cycle >= (2 if trace else 1) and elapsed + last[traced] > seconds:
            break
        start = time.perf_counter()
        if traced:
            sampler = RssSampler()
            try:
                tracer.install()
                for sub in run.workload.jobs:
                    run.job(sub, cycle, tracer)
            finally:
                tracer.uninstall()
                t, r = sampler.stop()
            times.append(t)
            rss.append(r)
        else:
            for sub in run.workload.jobs:
                run.job(sub, cycle)
        last[traced] = time.perf_counter() - start
        cycle += 1
    if trace:
        samples = (np.concatenate(times), np.concatenate(rss))
    return tracer, samples


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, or None."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= TAIL_BEYOND:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def environment(run, seed):
    import mpmath
    import numpy
    import scipy
    from wfspectral import cli
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": run.workload.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": THREADS,
        "thread_env": {v: os.environ.get(v) for v in cli.THREAD_ENV_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "mpmath": mpmath.__version__,
        "load": "closed loop, 1 client, in-process cli.main",
        "jobs": list(run.workload.jobs),
        "config": {k: v for k, v in (run.resolved or {}).items()
                   if k != "out_dir"},
    }


def run_workload(workload, seed, seconds, trace, setup_starts=SETUP_STARTS):
    """Run one workload; return the result document (see module docstring)."""
    import checks
    from spans import PER_LAYER
    from wfspectral import cli
    work_dir = WORK / f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    run = Run(workload, seed, work_dir)
    try:
        warm_cfg = work_dir / "warmup.json"
        warm_cfg.write_text(json.dumps(warmup_config(workload)))
        setup = ([] if trace else measure_setup(
            workload, setup_starts, warm_cfg, work_dir / "probe"))
        warm_up(cli, warm_cfg, work_dir / "warm", workload.jobs)
        tracer, samples = measure(run, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    untraced = run.cycles(traced=False)
    samples_of = {"cycle_s": untraced, "setup_s": [s[1] for s in setup],
                  "density_s": run.seconds("density"),
                  "normconst_s": run.seconds("normconst")}
    report = {}   # name -> (value, unit, sample count)
    if trace:
        layer = tracer.layer_metrics(samples, run.resolved or run.cfg,
                                     statistics.median(untraced))
        n = len(run.cycles(traced=True))
        for name, unit in PER_LAYER:
            report[name] = (layer[name], unit, n)
    else:
        for name, unit in END_TO_END:
            if name == "peak_rss_mb":
                kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                report[name] = (kb * 1024 / 1e6, unit, 1)
            else:
                values = samples_of[name]
                report[name] = (statistics.median(values), unit, len(values))
    by_sub = {sub: run.seconds(sub) for sub in workload.jobs}
    if setup:
        by_sub["setup import only"] = [s[0] for s in setup]
    failed = sum(1 for j in run.jobs if j["failures"])
    return {
        "env": environment(run, seed),
        "tolerances": checks.TOLERANCES,
        "report": report,
        "job_seconds": by_sub,
        "tails": {k: tail(v) for k, v in {**samples_of, **by_sub}.items()
                  if v},
        "jobs": run.jobs,
        "attempted": len(run.jobs),
        "failed": failed,
        "tracer": tracer,
    }


def print_report(result, out=sys.stdout):
    env = result["env"]
    print(f"# wfspectral benchmark: workload {env['workload']}, seed "
          f"{env['seed']}, {env['load']}, {env['threads_pinned']} BLAS thread",
          file=out)
    print("env " + json.dumps(env, sort_keys=True), file=out)
    print("tolerances " + json.dumps(result["tolerances"], sort_keys=True),
          file=out)
    for name, (value, unit, n) in result["report"].items():
        print(f"  {name:36s} {value:>14.6g} {unit:6s} n={n}", file=out)
    for sub, values in result["job_seconds"].items():
        print(f"  job {sub:32s} {statistics.median(values):>14.6g} s      "
              f"n={len(values)} (median; report only)", file=out)
    tails = result["tails"]
    for name, t in tails.items():
        if t:
            print(f"  tail {name}: p{t[0]} = {t[1]:.6g}", file=out)
    if not all(tails.values()):
        print(f"  no tail percentile for "
              f"{', '.join(k for k, t in tails.items() if not t)}: p90 needs "
              f"{TAIL_BEYOND} samples beyond it", file=out)
    a, f = result["attempted"], result["failed"]
    print(f"jobs attempted {a}, failed {f}, fail_ratio {f / a:.6g}", file=out)
    for job in result["jobs"]:
        for msg in job["failures"]:
            print(f"FAIL cycle {job['cycle']} {msg}", file=sys.stderr)


def final_line(result):
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["report"].items()},
    })


def save(result, seed, trace):
    """Keep the full result, and the spans of a traced run, under WORK."""
    stem = f"{result['env']['workload']}-seed{seed}-trace{trace}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    doc = {k: v for k, v in result.items() if k != "tracer"}
    (WORK / "results" / f"{stem}.json").write_text(
        json.dumps(doc, indent=1, default=str))
    if result["tracer"] is not None:
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        result["tracer"].dump(WORK / "traces" / f"{stem}.jsonl")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wfspectral" / "cli.py").is_file():
        print(f"error: {SRC / 'wfspectral'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_threads()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace)
    save(result, args.seed, args.trace)
    print_report(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on a tiny model (K=3, D=6).

Run from the repository root: python3 -m pytest -q bench/tests
"""

import io
import json
import shutil
import subprocess
import sys

import pytest

import run
from spans import PER_LAYER, SELF_TIME_SPANS
from workloads import SIGMA_1, WORKLOADS, Workload, job_config

from wfspectral import density

TINY = Workload(
    name="tiny",
    theta=(0.01, 0.02, 0.03),
    sigma=tuple(tuple(0.2 * v for v in row) for row in SIGMA_1),
    truncation=6, precision="auto",
    jobs=("spectrum", "density", "normconst", "distance", "converge"),
    extra={"grid_resolution": 10,
           "converge": {"D_list": [4, 6], "n_list": [0, 1], "track": []}})

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def _run(trace):
    return run.run_workload(TINY, seed=7, seconds=0.0, trace=trace,
                            setup_starts=1)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_prints_with_unit(trace, section):
    result = _run(trace)
    assert result["failed"] == 0
    out = io.StringIO()
    run.print_report(result, out=out)
    last = json.loads(run.final_line(result))
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in last["metrics"].values())
    lines = out.getvalue().splitlines()
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   and " n=" in line for line in lines), name


def test_benchmark_json_lists_the_per_layer_metrics():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [
        name for name, _ in PER_LAYER]
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_corrupted_output_is_flagged_and_counted(monkeypatch):
    honest = density.normalizing_constant
    monkeypatch.setattr(density, "normalizing_constant",
                        lambda *a, **k: honest(*a, **k) * (1 + 1e-3))
    result = _run(0)
    assert result["attempted"] == len(TINY.jobs)
    assert result["failed"] == 1
    [bad] = [j for j in result["jobs"] if j["failures"]]
    assert bad["sub"] == "normconst"
    assert "quadrature" in bad["failures"][0]
    assert json.loads(run.final_line(result))["correct"] is False


def test_traced_self_times_sum_to_job_time():
    result = _run(1)
    m = {name: value for name, (value, _, _) in result["report"].items()}
    self_total = sum(m[f"{name}_s"] for name in SELF_TIME_SPANS)
    assert self_total == pytest.approx(m["trace.cycle_s"], rel=1e-9)
    assert m["trace.overhead_ratio"] == pytest.approx(
        m["trace.cycle_s"] / m["trace.untraced_cycle_s"])
    assert 0.5 < m["trace.overhead_ratio"] < 3.0
    assert m["indexing.U"] == 28 and m["indexing.U_pad"] == 66
    assert m["spectral.decompose_calls"] == 6   # 4 jobs + 2 converge levels


def test_seed_sets_inputs_and_nothing_else():
    w = WORKLOADS["k4_d28"]
    a, b = job_config(w, 1), job_config(w, 2)
    assert a == job_config(w, 1)
    assert a["x"] != b["x"] and a["times"] != b["times"]
    assert {k: v for k, v in a.items() if k not in ("x", "times")} == {
        k: v for k, v in b.items() if k not in ("x", "times")}
    assert len(a["x"]) == 3 and sum(a["x"]) < 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "k3_default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Command-line interface: subcommands, config plumbing, exit codes.

Everything calls main() in-process with small truncations so the whole file
stays fast. Three subprocess tests cover the ways the front-end is launched:

* test_installed_entry_point installs this checkout into a temporary prefix
  with setuptools and runs the `wfspectral` script that the install
  generated from `[project.scripts]`.
* test_console_script_on_path runs the `wfspectral` script already on PATH;
  it is skipped where none is installed.
* test_module_entry_point runs `python -m wfspectral`.

test_declared_console_script_is_cli_main checks the declaration in-process.
"""

import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from wfspectral import basis as basis_mod
from wfspectral import cli, density, model, oracles, spectral
from wfspectral.errors import ParameterError
from wfspectral.model import ModelParams
from wfspectral.oracles import simplex_quadrature

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run(tmp_path, *args):
    return cli.main([*args, "--out", str(tmp_path)])


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_spectrum_neutral_matches_eigenvalue_table(tmp_path):
    code = run(tmp_path, "spectrum", "--set", "truncation=6")
    assert code == 0
    header, rows = read_csv(tmp_path / "spectrum_eigenvalues.csv")
    assert header == ["n", "Lambda", "norm"]
    assert len(rows) == 28
    p = ModelParams([0.01, 0.02, 0.03], np.zeros((3, 3)))
    got = sorted(float(r[1]) for r in rows)
    want = sorted(model.neutral_eigenvalue(l, p)
                  for l in range(7) for _ in range(l + 1))
    assert np.allclose(got, want, atol=1e-10)
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["config"]["truncation"] == 6
    assert meta["size"] == 28
    assert len(meta["decomposition_hash"]) == 64


def test_spectrum_selected_distinct_eigenvalues(tmp_path, sigma_1):
    code = run(tmp_path, "spectrum",
               "--set", "truncation=24",
               "--set", f"model.sigma={json.dumps(sigma_1.tolist())}")
    assert code == 0
    _, rows = read_csv(tmp_path / "spectrum_eigenvalues.csv")
    lam = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(lam[:36]) > 1e-9)


def test_reruns_are_byte_identical(tmp_path, sigma_1):
    a = tmp_path / "a"
    b = tmp_path / "b"
    argv = ["spectrum", "--set", "truncation=10",
            "--set", f"model.sigma={json.dumps(sigma_1.tolist())}"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    for name in ("spectrum_eigenvalues.csv", "spectrum_coefficients.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_density_grids(tmp_path):
    code = run(tmp_path, "density",
               "--set", "truncation=10",
               "--set", "times=[0.5,1.0]",
               "--set", "grid_resolution=8",
               "--set", "clip_negative=true")
    assert code == 0
    for name in ("density_t0.5.csv", "density_t1.csv"):
        header, rows = read_csv(tmp_path / name)
        assert header == ["y_1", "y_2", "p"]
        assert len(rows) == sum(8 - i - 1 for i in range(8))
        vals = np.array([float(r[2]) for r in rows])
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)
    meta = json.loads((tmp_path / "density_meta.json").read_text())
    assert meta["config"]["clip_negative"] is True
    assert len(meta["outputs"]) == 2
    # per-time truncation diagnostics, one entry per time
    for key in ("tail_weight", "undershoot", "max_density"):
        assert len(meta[key]) == 2
    assert all(u <= 0.0 for u in meta["undershoot"])
    assert all(m > 0.0 for m in meta["max_density"])


@pytest.mark.filterwarnings("ignore:truncation undershoot")
def test_density_reruns_are_byte_identical(tmp_path):
    # both series from S: the density and the distance
    for sub in ("density", "distance"):
        a = tmp_path / sub / "a"
        b = tmp_path / sub / "b"
        argv = [sub, "--set", "truncation=10", "--set", "grid_resolution=8"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        names = sorted(p.name for p in a.glob(f"{sub}*.csv"))
        assert names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        metas = [json.loads((d / f"{sub}_meta.json").read_text())
                 for d in (a, b)]
        for meta in metas:
            del meta["config"], meta["outputs"]
        assert metas[0] == metas[1]
        assert "krylov_steps" in metas[0]


def test_density_csv_line_endings_and_precision(tmp_path):
    run(tmp_path, "density", "--set", "truncation=8",
        "--set", "times=[0.5]", "--set", "grid_resolution=5")
    raw = (tmp_path / "density_t0.5.csv").read_bytes()
    assert b"\r" not in raw
    _, rows = read_csv(tmp_path / "density_t0.5.csv")
    # 17 significant digits survive a float round trip
    for r in rows[:3]:
        assert format(float(r[2]), ".17g") == r[2]


def test_normconst_closed_form(tmp_path):
    code = run(tmp_path, "normconst",
               "--set", "truncation=6",
               "--set", "model.theta=[0.5,0.5,1.0]")
    assert code == 0
    doc = json.loads((tmp_path / "normconst.json").read_text())
    assert doc["C_stat"] == pytest.approx(math.pi, rel=1e-8)
    # a neutral model sits on both bounds: log B(theta) = log pi
    assert doc["log_C_stat_bounds"] == pytest.approx([math.log(math.pi)] * 2,
                                                     rel=1e-12)


def test_normconst_at_truncation_zero(tmp_path):
    # the default model is neutral, so at D=0 (U=1) S = 0 and max|S_ij| =
    # 0: the one-pair solve stops at once, and its residuals read 0
    assert run(tmp_path, "normconst", "--set", "truncation=0") == 0
    doc = json.loads((tmp_path / "normconst.json").read_text())
    assert doc["C_stat"] == pytest.approx(9982.611161389446, rel=1e-15)
    assert doc["C_stat"] == pytest.approx(
        math.gamma(0.01) * math.gamma(0.02) * math.gamma(0.03)
        / math.gamma(0.06), rel=1e-12)
    assert doc["pair_residual"] == doc["embedded_residual"] == 0.0
    assert doc["refine_steps"] == 0


def test_normconst_outside_its_bounds_exit_code(tmp_path, capsys):
    # at sigma_11 = 1000 the series gives C_stat = 7927.9, log 8.98, where
    # Jensen's bound puts log C_stat at 168.0 or more
    code = run(tmp_path, "normconst",
               "--set", "model.sigma=[[1000,0,0],[0,0,0],[0,0,0]]")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "closed-form bounds" in err["message"]
    assert "truncation 40" in err["message"]
    assert not (tmp_path / "normconst.json").exists()


@pytest.mark.parametrize("sub", ["density", "distance", "validate chapman",
                                 "validate mc"])
def test_unconverged_series_exit_code(tmp_path, capsys, sub):
    # the series shares the lead pair whose C_stat, 7925.6 at truncation 12,
    # normconst refuses; its densities are truncation noise, and the
    # composition identity of chapman holds for them all the same. The
    # simulator runs before the solve, so mc gets small sizes, with N above
    # max|sigma|
    mc = ["--set", "mc.N=2000", "--set", "mc.generations=2",
          "--set", "mc.replicates=4"]
    code = run(tmp_path, *sub.split(), "--set", "truncation=12", *mc,
               "--set", "model.sigma=[[1000,0,0],[0,0,0],[0,0,0]]")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "truncation 12" in err["message"]
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*.json"))


def test_converge_table(tmp_path):
    code = run(tmp_path, "converge",
               "--set", "converge.D_list=[2,4]",
               "--set", "converge.n_list=[0,1]",
               "--set", "converge.track=[[1,[0,1]]]")
    assert code == 0
    header, rows = read_csv(tmp_path / "converge.csv")
    assert header == ["D", "kind", "n", "m_tuple", "value"]
    p = ModelParams([0.01, 0.02, 0.03], np.zeros((3, 3)))
    lam_rows = [r for r in rows if r[1] == "Lambda"]
    assert len(lam_rows) == 4
    for r in lam_rows:
        want = model.neutral_eigenvalue(int(r[2]) and 1, p)
        assert float(r[4]) == pytest.approx(
            0.0 if r[2] == "0" else model.neutral_eigenvalue(1, p), abs=1e-10)
    u_rows = [r for r in rows if r[1] == "u"]
    assert len(u_rows) == 2
    assert u_rows[0][3] == "0;1"
    assert all(math.isfinite(float(r[4])) for r in u_rows)


def test_density_times_sharing_a_file_name_are_named(tmp_path, capsys):
    code = run(tmp_path, "density", "--set", "truncation=4",
               "--set", "times=[0.5,0.1234561,1.0,0.1234562,1.0]")
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "[0.1234561, 0.1234562]" in message
    assert "density_t0.123456.csv" in message
    assert not list(tmp_path.glob("density_t*.csv"))


def test_converge_csv_matches_rowwise_bytes(tmp_path, sigma_1):
    sets = {"truncation": 6, "converge.D_list": [3, 5, 4],
            "converge.n_list": [0, 2, 1],
            "converge.track": [[1, [0, 1]], [0, [2, 0]], [2, [1, 1]]],
            "model.sigma": sigma_1.tolist()}
    args = [arg for key, value in sets.items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]
    assert run(tmp_path, "converge", *args) == 0
    rows = spectral.convergence_table(
        ModelParams([0.01, 0.02, 0.03], sigma_1), [3, 5, 4], [0, 2, 1],
        track=[(1, (0, 1)), (0, (2, 0)), (2, (1, 1))])
    lines = ["D,kind,n,m_tuple,value\n"]
    for row in rows:
        for n, v in sorted(row["Lambda"].items()):
            lines.append(f"{row['D']},Lambda,{n},,{v:.17g}\n")
        for (n, m), v in sorted(row["u"].items()):
            mt = ";".join(str(d) for d in m)
            lines.append(f"{row['D']},u,{n},{mt},{v:.17g}\n")
    assert (tmp_path / "converge.csv").read_bytes() == "".join(lines).encode()


def test_distance_curve(tmp_path, sigma_1):
    code = run(tmp_path, "distance",
               "--set", "truncation=12",
               "--set", "model.theta=[0.3,0.4,0.3]",
               "--set", f"model.sigma={json.dumps(sigma_1.tolist())}",
               "--set", "x=[0.3,0.3]",
               "--set", 'distance={"t_min":0.1,"t_max":2.0,"points":8}')
    assert code == 0
    header, rows = read_csv(tmp_path / "distance.csv")
    assert header == ["t", "d2"]
    assert len(rows) == 8
    d2 = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(d2, d2[1:]))


def test_cutoffs_come_from_the_config_before_solving(tmp_path, monkeypatch):
    # the pairs each command asks of the solver at K=3 D=6 (U=28): an
    # integer n_max is capped at U; a null one solves the lead pair for a
    # series from S, in the validate suites too
    asked = []

    def record(p, D, n_eig=None):
        asked.append(n_eig)
        raise ParameterError("recorded, not solved")

    monkeypatch.setattr(spectral, "decompose", record)
    mc = ["--set", "mc.N=500", "--set", "mc.generations=2",
          "--set", "mc.replicates=4"]
    want = {("density", None): 1, ("density", 5): 6, ("density", 100): 28,
            ("distance", None): 1, ("distance", 5): 5,
            ("distance", 100): 28, ("validate chapman", None): 1,
            ("validate chapman", 5): 5, ("validate mc", None): 1,
            ("validate mc", 100): 28}
    for (sub, n_max), n_eig in want.items():
        asked.clear()
        assert run(tmp_path, *sub.split(), "--set", "truncation=6", *mc,
                   "--set", f"n_max={json.dumps(n_max)}") == 2
        assert asked == [n_eig], (sub, n_max)


def test_default_cutoffs_match_the_density_defaults(tmp_path, capsys,
                                                   sigma_1):
    # the CLI default is null, which means all U pairs in every command,
    # as it does in density
    assert cli.DEFAULT_CONFIG["n_max"] is None
    assert "m_max" not in cli.DEFAULT_CONFIG
    sigma = f"model.sigma={json.dumps(sigma_1.tolist())}"
    assert run(tmp_path, "distance", "--set", "truncation=6",
               "--set", sigma) == 0
    _, rows = read_csv(tmp_path / "distance.csv")
    times, d2 = np.array(rows, dtype=float).T
    full = spectral.decompose(ModelParams([0.01, 0.02, 0.03], sigma_1), 6)
    want = density.distance_to_stationarity(
        full, cli.DEFAULT_CONFIG["x"], times, n_max=full.n_eig)
    assert np.allclose(d2, want, rtol=1e-10, atol=0)
    meta = json.loads((tmp_path / "distance_meta.json").read_text())
    assert meta["n_max"] is None and meta["eigenpairs"] == 1
    assert len(meta["krylov_steps"]) == len(meta["krylov_error"]) == 20
    # truncation 0 holds one pair; the refusal names U, not an n_max
    assert run(tmp_path / "D0", "distance", "--set", "truncation=0") == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "U=1" in message and "n_max" not in message


def test_every_default_key_has_a_row():
    def leaves(node, prefix=""):
        for key, value in node.items():
            if isinstance(value, dict):
                yield from leaves(value, prefix + key + ".")
            else:
                yield prefix + key, value

    rows = {path: (default, ok)
            for path, default, ok, _ in cli.CONFIG_KEYS}
    defaults = dict(leaves(cli.DEFAULT_CONFIG))
    assert sorted(defaults) == sorted(
        path for path, (default, _) in rows.items()
        if default is not cli.RETIRED)
    for path, value in defaults.items():
        assert rows[path][1](value), path
    # the one retired key is a row, left out of the defaults; pad and m_max
    # are no rows at all
    assert set(rows) - set(defaults) == {"precision"}


@pytest.mark.parametrize("sub, setting", [
    ("density", "times=0.5"),
    ("density", "times=[]"),
    ("density", "times=[Infinity]"),
    ("density", "x=abc"),
    ("density", "x=[0.3]"),
    ("distance", "x=[NaN,0.3]"),
    ("distance", "distance.points=2.5"),
    ("distance", "distance.points=1"),
    ("distance", "distance=5"),
    ("converge", "converge.D_list=5"),
    ("converge", "converge.n_list=[0,-1]"),
    ("density", "truncation=true"),
    ("density", "n_max=true"),
    # m_max is gone: every series keeps all degrees up to D
    ("density", "m_max=1.5"),
    ("density", "m_max=36"),
    ("normconst", "m_max=6"),
    ("density", "grid_resolution=2.5"),
    ("normconst", "quadrature_resolution=1"),
    ("normconst", "model.theta=abc"),
    ("density", "x=[0.6,0.6]"),
    ("distance", "x=[-0.2,0.3]"),
    ("distance", "distance.t_min=abc"),
    ("distance", "distance.t_max=-1"),
    ("density", "model.sigma=[[1,2],[3]]"),
    ("density", 'model.sigma=[["a",0,0],[0,0,0],[0,0,0]]'),
    ("converge", "converge.track=[[5]]"),
    ("converge", "converge.track=5"),
    ("validate mc", "mc.N=abc"),
    ("validate q", "seed=abc"),
    ("density", "clip_negative=yes"),
    ("validate mc", "mc.record_every=0"),
    # one replicate has no sample variance, so its z-scores divide by 0
    ("validate mc", "mc.replicates=1"),
    ("validate mc", 'mc={"N":500}'),     # the other mc keys go missing
    ("normconst", "trunaction=6"),
    ("normconst", "model.K=3"),
    # a track tuple of the wrong length, with the smallest level listed first
    ("converge", "converge.D_list=[2,4] converge.track=[[0,[0,0,0]]]"),
    # pair 7 is missing at D=2 (U=6) although D=4, listed first, has it
    ("converge", "converge.D_list=[4,2] converge.n_list=[0,7]"),
    # max|sigma| = 15 is too strong for the simulator at N=5
    ("validate mc", "model.sigma=[[12,14,15],[14,11,13],[15,13,0]] mc.N=5"),
    # d^2 sums over n >= 1, so one pair would give 0 at every time
    ("distance", "n_max=1"),
    ("distance", "truncation=0"),
    # two times whose density_t{t:g}.csv names are the same
    ("density", "times=[0.1234561,0.1234562,1.0,1.0]"),
    ("density", "times=[1,1.0]"),
    # a descending grid, and 20 rows of one time
    ("distance", "distance.t_min=3 distance.t_max=0.05"),
    ("distance", "distance.t_min=1 distance.t_max=1"),
])
def test_bad_config_values_rejected_before_solving(tmp_path, capsys,
                                                   monkeypatch, sub, setting):
    def refuse(*args, **kwargs):
        raise AssertionError("a bad config reached the solver")

    monkeypatch.setattr(spectral, "decompose", refuse)
    # one --set per space-separated assignment
    sets = [arg for s in setting.split() for arg in ("--set", s)]
    assert run(tmp_path, *sub.split(), "--set", "truncation=6", *sets) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "parameter"


@pytest.mark.parametrize("sub", ["normconst", "density", "validate mc"])
@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_dir_rejected_before_solving(tmp_path, capsys,
                                                  monkeypatch, sub, under):
    # an existing file, or a path below one, cannot hold the outputs
    calls = []

    def spy(name, original):
        def record(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return record

    monkeypatch.setattr(spectral, "decompose",
                        spy("decompose", spectral.decompose))
    monkeypatch.setattr(oracles, "mc_simulate",
                        spy("mc_simulate", oracles.mc_simulate))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    code = cli.main([*sub.split(), "--set", "truncation=4",
                     "--set", "quadrature_resolution=20", "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parameter"
    assert str(out) in err["message"]
    assert calls == []
    assert afile.read_text() == "kept\n"


@pytest.mark.filterwarnings("ignore:first dropped eigenterm")
def test_subcommands_solve_only_the_pairs_they_read(tmp_path, sigma_1):
    # K=3 D=6: U=28, so n_max=5 keeps density and distance below U/3
    base = ["--set", "truncation=6", "--set", "n_max=5",
            "--set", f"model.sigma={json.dumps(sigma_1.tolist())}"]
    want = {"spectrum": ("spectrum_meta.json", 28, "eigh"),
            "density": ("density_meta.json", 6, "eigh_subset"),
            "normconst": ("normconst.json", 1, "lobpcg"),
            "distance": ("distance_meta.json", 5, "eigh_subset")}
    hashes = set()
    for sub, (name, pairs, solver) in want.items():
        assert run(tmp_path / sub, sub, *base) == 0
        meta = json.loads((tmp_path / sub / name).read_text())
        assert (meta["eigenpairs"], meta["eigensolver"]) == (pairs, solver)
        hashes.add(meta["decomposition_hash"])
    name = "distance_meta.json"
    assert json.loads((tmp_path / "distance" / name).read_text())[
        "n_max"] == 5
    # a null n_max sums all U pairs from S: distance solves the lead pair
    assert run(tmp_path / "null", "distance", *base[:2], *base[4:]) == 0
    meta = json.loads((tmp_path / "null" / name).read_text())
    assert (meta["eigenpairs"], meta["eigensolver"]) == (
        1, "lobpcg")
    assert meta["n_max"] is None
    hashes.add(meta["decomposition_hash"])
    assert len(hashes) == 1
    _, rows = read_csv(tmp_path / "spectrum" / "spectrum_eigenvalues.csv")
    assert len(rows) == 28


def test_decomposition_hash_follows_the_operator(tmp_path, sigma_1):
    def normconst(out, *extra):
        assert run(tmp_path / out, "normconst", "--set", "truncation=6",
                   "--set", f"model.sigma={json.dumps(sigma_1.tolist())}",
                   *extra) == 0
        return (tmp_path / out / "normconst.json").read_bytes()

    first = normconst("a")
    assert normconst("a") == first     # the config records the out dir
    hashes = {json.loads(doc)["decomposition_hash"] for doc in [
        first, normconst("D", "--set", "truncation=7"),
        normconst("sigma", "--set", "model.sigma=[[1,2,3],[2,1,2],[3,2,0]]"),
        normconst("theta", "--set", "model.theta=[0.02,0.02,0.03]")]}
    assert len(hashes) == 4
    # the pad is no option: every assembly pads by the degree of the
    # selection polynomial, and a config that names it is refused
    for pad in (4, 5):
        assert run(tmp_path / f"pad{pad}", "normconst", "--set",
                   "truncation=6", "--set", f"pad={pad}") == 2
        assert not (tmp_path / f"pad{pad}" / "normconst.json").exists()


@pytest.mark.filterwarnings("ignore:truncation undershoot")
def test_m_max_is_an_unknown_key(tmp_path, capsys):
    # every series keeps all degrees up to D, so m_max, null or not, is
    # refused as unknown; the sidecar still records the degrees kept
    for value in ("null", "36"):
        assert run(tmp_path / value, "density", "--set", "truncation=6",
                   "--set", f"m_max={value}") == 2
        assert "unknown config key m_max" in json.loads(
            capsys.readouterr().err)["message"]
    assert run(tmp_path / "kept", "density", "--set", "truncation=6",
               "--set", "grid_resolution=4") == 0
    meta = json.loads((tmp_path / "kept" / "density_meta.json").read_text())
    assert "m_max" not in meta["config"]
    assert meta["m_max"] == 6


def test_auto_and_double_both_mean_double(tmp_path, sigma_1):
    # configs written when "auto" could pick a 128-bit path still run
    sigma = json.dumps((5 * sigma_1).tolist())
    docs = []
    for precision in ("auto", "double"):
        assert run(tmp_path / precision, "normconst", "--set", "truncation=6",
                   "--set", f"model.sigma={sigma}",
                   "--set", f"precision={precision}") == 0
        docs.append(json.loads(
            (tmp_path / precision / "normconst.json").read_text()))
    assert docs[0]["C_stat"] == docs[1]["C_stat"]
    assert docs[0]["decomposition_hash"] == docs[1]["decomposition_hash"]


def test_extended_precision_is_refused(tmp_path, capsys):
    code = run(tmp_path, "normconst", "--set", "truncation=6",
               "--set", "precision=extended")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parameter"
    assert "double" in err["message"] and "agreed" in err["message"]
    assert not (tmp_path / "normconst.json").exists()


def test_readme_config_reference_lists_the_default_keys():
    def names(node):
        for key, value in node.items():
            yield key
            if isinstance(value, dict):
                yield from names(value)

    readme = (ROOT / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    block = re.sub(r"//.*", "", block)
    assert re.findall(r'"(\w+)":', block) == list(names(cli.DEFAULT_CONFIG))
    assert re.findall(r'^  "(\w+)":', block, flags=re.M) == list(
        cli.DEFAULT_CONFIG)


def test_config_file_and_override_precedence(tmp_path):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps({"truncation": 8, "times": [0.3]}))
    code = cli.main(["spectrum", "--config", str(cfg_path),
                     "--set", "truncation=4", "--out", str(tmp_path)])
    assert code == 0
    meta = json.loads((tmp_path / "spectrum_meta.json").read_text())
    assert meta["config"]["truncation"] == 4      # --set beats the file
    assert meta["config"]["times"] == [0.3]       # file beats defaults


def test_malformed_sigma_exit_code_and_message(tmp_path, capsys):
    code = run(tmp_path, "spectrum",
               "--set", "model.sigma=[[0,1,2],[1,0,3],[9,3,0]]")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parameter"
    assert "symmetric" in err["message"]


PAIR_FIELDS = {"pair_residual", "nested_level", "embedded_residual",
               "refine_steps"}


@pytest.mark.filterwarnings("ignore:truncation undershoot")
def test_one_pair_sidecars_record_the_solve(tmp_path, sigma_1):
    # K=3 D=10: U=66, so the lead pair comes from the level-4 block (U=15),
    # refined at level 10
    base = ["--set", "truncation=10", "--set", "grid_resolution=8",
            "--set", f"model.sigma={json.dumps(sigma_1.tolist())}"]
    for sub, name in [("normconst", "normconst.json"),
                      ("density", "density_meta.json"),
                      ("distance", "distance_meta.json")]:
        metas = []
        for out in ("a", "b"):
            assert run(tmp_path / sub / out, sub, *base) == 0
            meta = json.loads((tmp_path / sub / out / name).read_text())
            metas.append({key: meta[key] for key in PAIR_FIELDS})
        assert metas[0] == metas[1]
        info = metas[0]
        assert info["pair_residual"] <= 1e-12
        assert info["nested_level"] == 4
        assert info["refine_steps"] >= 0
        assert info["embedded_residual"] >= info["pair_residual"]
    # at D=2 (U=6) there is no nested level: S is factored whole, and its
    # pair starts the level-D refinement converged; more pairs record none
    assert run(tmp_path / "small", "normconst", "--set", "truncation=2") == 0
    meta = json.loads((tmp_path / "small" / "normconst.json").read_text())
    assert meta["pair_residual"] <= 1e-12
    assert meta["nested_level"] is None
    assert meta["refine_steps"] == 0
    assert meta["embedded_residual"] == meta["pair_residual"]
    assert run(tmp_path / "pairs", "spectrum", *base[:2]) == 0
    meta = json.loads((tmp_path / "pairs" / "spectrum_meta.json").read_text())
    assert not PAIR_FIELDS & set(meta)


def test_indefinite_operator_exit_code(tmp_path, capsys, monkeypatch):
    # an operator with eigenvalues below the one-pair solve's shift
    lam = np.r_[-0.3, -0.05, np.linspace(1.0, 30.0, 28)]
    monkeypatch.setattr(spectral, "symmetrize",
                        lambda om: scipy.sparse.diags(lam, format="csr"))
    code = run(tmp_path, "normconst", "--set", "truncation=29",
               "--set", "model.theta=[0.5,0.5]",
               "--set", "model.sigma=[[0,0],[0,0]]")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert not (tmp_path / "normconst.json").exists()


@pytest.mark.parametrize("sub", ["normconst", "density", "spectrum"])
def test_overflowing_selection_exit_code(tmp_path, capsys, sub):
    # a finite sigma whose selection polynomial overflows double precision
    code = run(tmp_path, sub, "--set", "truncation=6",
               "--set", "model.sigma=[[1e160,0,0],[0,0,0],[0,0,0]]")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
    assert "non-finite operator at truncation 6" in err["message"]
    assert not any(tmp_path.glob("*.json"))


def test_zero_time_rejected(tmp_path, capsys):
    code = run(tmp_path, "density", "--set", "times=[0.0,0.5]",
               "--set", "truncation=6")
    assert code == 2
    assert "positive" in json.loads(capsys.readouterr().err)["message"]


def test_a_time_beyond_double_precision_exit_code(tmp_path, capsys):
    # exp(-t theta) overflows at the Ritz values below 0: the table would
    # hold NaN, or zeros
    code = run(tmp_path, "density", "--set", "truncation=10",
               "--set", "times=[1e300]")
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and "t=1e+300" in err["message"]
    assert not list(tmp_path.glob("density_t*.csv"))
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("sub", ["density", "distance"])
@pytest.mark.parametrize("x", ["[0.3,0.3,0.1]", "[[0.3,0.3]]", "[NaN,0.3]"])
def test_bad_start_point_rejected(tmp_path, capsys, sub, x):
    code = run(tmp_path, sub, "--set", "truncation=6", "--set", f"x={x}")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "parameter"
    assert "start point" in err["message"]


def test_bad_config_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["spectrum", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    missing = tmp_path / "nope.json"
    assert cli.main(["spectrum", "--config", str(missing),
                     "--out", str(tmp_path)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]")
    assert cli.main(["spectrum", "--config", str(arr),
                     "--out", str(tmp_path)]) == 2


def test_bad_set_spec(tmp_path, capsys):
    assert run(tmp_path, "spectrum", "--set", "truncation") == 2
    capsys.readouterr()
    assert run(tmp_path, "spectrum", "--set", "=4") == 2


def test_threads_flag(tmp_path):
    saved = {v: os.environ.get(v) for v in cli.THREAD_ENV_VARS}
    try:
        code = run(tmp_path, "spectrum", "--threads", "2",
                   "--set", "truncation=2")
        assert code == 0
        for var in cli.THREAD_ENV_VARS:
            assert os.environ[var] == "2"
    finally:
        for var, old in saved.items():
            if old is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = old


def test_threads_must_be_positive(tmp_path, capsys):
    assert run(tmp_path, "spectrum", "--threads", "0") == 2


def test_validate_q(tmp_path):
    code = run(tmp_path, "validate", "q")
    assert code == 0
    doc = json.loads((tmp_path / "validate_q.json").read_text())
    assert doc["report"]["passed"] is True
    assert doc["report"]["max_rel_defect"] <= 1e-10


def test_validate_neutral(tmp_path):
    code = run(tmp_path, "validate", "neutral",
               "--set", "model.theta=[0.3,0.4,0.3]")
    assert code == 0
    doc = json.loads((tmp_path / "validate_neutral.json").read_text())
    assert doc["report"]["eigenvalue_defect"] <= 1e-10
    assert doc["report"]["cross_path_rel"] <= 1e-6


def test_validate_orthogonality(tmp_path):
    code = run(tmp_path, "validate", "orthogonality",
               "--set", "model.theta=[0.3,0.4,0.3]",
               "--set", "quadrature_resolution=24")
    assert code == 0
    doc = json.loads((tmp_path / "validate_orthogonality.json").read_text())
    assert doc["report"]["passed"] is True
    # the default theta (0.01, 0.02, 0.03) and resolution 60
    assert run(tmp_path, "validate", "orthogonality") == 0
    doc = json.loads((tmp_path / "validate_orthogonality.json").read_text())
    assert doc["report"]["passed"] is True
    assert doc["config"]["quadrature_resolution"] == 60


@pytest.mark.parametrize("scale", [1 + 1e-4, np.nan])
def test_validate_orthogonality_checks_the_solver_evaluator(
        tmp_path, capsys, monkeypatch, scale):
    # one member off by 1e-4 in the evaluator the density runs must fail,
    # and a non-finite value is refused
    evaluate = basis_mod.MultiJacobiBasis.eval_prefix_cube

    def skewed(self, xi, count=None):
        out = evaluate(self, xi, count)
        out[3] *= scale
        return out

    monkeypatch.setattr(basis_mod.MultiJacobiBasis, "eval_prefix_cube", skewed)
    assert run(tmp_path, "validate", "orthogonality") == 3
    report = tmp_path / "validate_orthogonality.json"
    if np.isnan(scale):
        assert json.loads(capsys.readouterr().err)["error"] == "numerical"
        assert not report.exists()
    else:
        doc = json.loads(report.read_text())
        assert doc["report"]["passed"] is False
        assert doc["report"]["max_rel_defect"] > 1e-4


@pytest.mark.parametrize("which", ["mc", "chapman"])
def test_validate_against_the_simulator_and_composition(tmp_path, which):
    # a null n_max solves the lead pair, and the kernels sum all U pairs
    # from S
    code = run(tmp_path, "validate", which, "--set", "truncation=8",
               "--set", "quadrature_resolution=20", "--set", "mc.N=500",
               "--set", "mc.generations=200", "--set", "mc.replicates=400",
               "--set", "x=[0.3,0.3]",
               "--set", "model.sigma=[[1,2,3],[2,1,2],[3,2,0]]")
    assert code == 0
    doc = json.loads((tmp_path / f"validate_{which}.json").read_text())
    assert doc["suite"] == which
    report = doc["report"]
    assert report["passed"] is True
    # the batched integrals equal one quadrature per axis or per pair
    theta = cli.DEFAULT_CONFIG["model"]["theta"]
    sd = spectral.decompose(ModelParams(theta, [[1, 2, 3], [2, 1, 2],
                                                [3, 2, 0]]), 8, n_eig=1)
    if which == "mc":
        header, rows = read_csv(tmp_path / "mc_summary.csv")
        assert header[:2] == ["generation", "t"]
        assert int(rows[-1][0]) == 200
        x = np.array([0.3, 0.3])
        want = [simplex_quadrature(
            lambda z: z[:, i] * density.smooth_kernel(sd, report["t"], x, z)[0],
            3, 20, theta=theta) for i in range(2)]
        assert np.allclose(report["spectral_mean"], want, rtol=1e-12, atol=0)
    else:
        rng = np.random.default_rng(cli.DEFAULT_CONFIG["seed"])
        defects = []
        for x, y in rng.dirichlet(np.ones(3), size=(5, 2))[..., :2]:
            composed = simplex_quadrature(
                lambda z: density.smooth_kernel(sd, 0.25, x, z)[0]
                * density.smooth_kernel(sd, 0.25, z, y)[:, 0],
                3, 20, theta=theta)
            direct = density.smooth_kernel(sd, 0.5, x, y)[0, 0]
            defects.append(abs(composed - direct) / abs(direct))
        # the defect is itself a relative difference of the integrals,
        # about 2e-11 here, so the two agree in absolute terms
        assert abs(report["max_rel_defect"] - max(defects)) <= 1e-14


@pytest.mark.parametrize("which", ["mc", "chapman"])
def test_validate_refuses_a_k_the_quadrature_cannot_take(
        tmp_path, capsys, monkeypatch, which):
    def refuse(*args, **kwargs):
        raise AssertionError("solved or simulated before the quadrature")

    monkeypatch.setattr(spectral, "decompose", refuse)
    monkeypatch.setattr(oracles, "mc_simulate", refuse)
    code = run(tmp_path, "validate", which, "--set", "truncation=8",
               "--set", "model.theta=[0.1,0.2,0.3,0.4,0.5]",
               "--set", f"model.sigma={json.dumps(np.zeros((5, 5)).tolist())}",
               "--set", "x=[0.1,0.1,0.1,0.1]")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    # the default resolution 60 at K=5 is 60^4 nodes
    assert err == {"error": "parameter", "message": "a resolution-60 tensor "
                   "rule at K=5 has 12960000 nodes, above the budget of "
                   "1048576"}
    assert not (tmp_path / f"validate_{which}.json").exists()


def test_installed_entry_point(tmp_path):
    # Install this checkout into a temporary prefix with setuptools' own
    # install command, which needs neither the network nor `wheel`. Then run
    # the `wfspectral` script it generated from [project.scripts] by name,
    # against the installed copy of the package, not src/.
    pytest.importorskip("setuptools")
    prefix = tmp_path / "prefix"
    bindir, libdir = prefix / "bin", prefix / "lib"
    install = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "-q",
         "egg_info", "--egg-base", str(tmp_path),
         "build", "--build-base", str(tmp_path / "build"),
         "install", "--prefix", str(prefix), "--install-lib", str(libdir),
         "--install-scripts", str(bindir),
         "--single-version-externally-managed",
         "--record", str(tmp_path / "record.txt")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert install.returncode == 0, install.stderr
    env = dict(os.environ, PYTHONPATH=str(libdir),
               PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]))
    out = tmp_path / "out"

    def run_script(*args):
        return subprocess.run(
            ["wfspectral", *args, "--out", str(out)],
            capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)

    ok = run_script("spectrum", "--set", "truncation=3")
    assert ok.returncode == 0, ok.stderr
    assert (out / "spectrum_eigenvalues.csv").exists()
    assert "eigenpairs" in ok.stdout
    bad = run_script("spectrum", "--set", "truncation")
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["error"] == "parameter"


def test_declared_console_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, attr = scripts["wfspectral"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


@pytest.mark.skipif(
    shutil.which("wfspectral") is None,
    reason="no wfspectral console script on PATH; pip install the package to run")
def test_console_script_on_path(tmp_path):
    proc = subprocess.run(
        ["wfspectral", "spectrum", "--set", "truncation=3",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "spectrum_eigenvalues.csv").exists()
    assert "eigenpairs" in proc.stdout


def test_solve_path_loads_no_scipy_special(tmp_path):
    # scipy.special costs 60-80 ms of start-up that no subcommand needs;
    # the libraries the package does use must not pull it in either
    code = """
import sys
import numpy, scipy.linalg, scipy.sparse
def special():
    return {m for m in sys.modules if m.startswith("scipy.special")}
before = special()
import wfspectral.cli, wfspectral.density, wfspectral.spectral
assert wfspectral.cli.main(["normconst", "--set", "truncation=8",
                            "--out", sys.argv[1]]) == 0
print(sorted(special() - before))
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_normconst_run_loads_no_mpmath(tmp_path):
    code = """
import sys
import wfspectral.cli
assert wfspectral.cli.main(["normconst", "--set", "truncation=8",
                            "--out", sys.argv[1]]) == 0
print("mpmath" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_package_and_cli_import_no_numerical_library():
    # --threads sets the BLAS thread variables in main(), which works only
    # if nothing before it has loaded numpy or scipy
    code = """
import sys
import wfspectral, wfspectral.cli, wfspectral.__main__
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_strong_selection_normconst_finishes(tmp_path, sigma_1):
    # 5 x SIGMA_1 at the default truncation 40: "auto" once sent this to a
    # 128-bit solve that did not finish, and the corner ratio was 77% off
    sigma = 5 * sigma_1
    proc = subprocess.run(
        [sys.executable, "-m", "wfspectral", "normconst",
         "--set", f"model.sigma={json.dumps(sigma.tolist())}",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "normconst.json").read_text())
    assert doc["config"]["truncation"] == 40
    p = ModelParams([0.01, 0.02, 0.03], sigma)
    want = simplex_quadrature(lambda y: np.exp(model.mean_fitness(p, y)),
                              3, 120, theta=p.theta)
    assert doc["C_stat"] == pytest.approx(want, rel=1e-6)
    assert 1.0 <= doc["C_stat_kappa"] < 10.0
    assert len(doc["C_stat_point"]) == 2


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def run_module(*args):
        return subprocess.run(
            [sys.executable, "-m", "wfspectral", *args, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env)

    ok = run_module("spectrum", "--set", "truncation=3")
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "spectrum_eigenvalues.csv").exists()
    assert "eigenpairs" in ok.stdout
    bad = run_module("spectrum", "--set", "truncation")
    assert bad.returncode == 2
    assert json.loads(bad.stderr)["error"] == "parameter"

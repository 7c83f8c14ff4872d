"""Batch command-line front-end.

One JSON config document drives every command; --set overrides individual
fields through dotted paths. Outputs are CSV files plus a sidecar JSON that
embeds the fully resolved config, so a run can be reproduced from its
artifacts alone. Exit codes: 0 success, 2 configuration error, 3 numerical
failure (including failed validation suites).

Numerical imports happen inside the command bodies, after --threads has been
translated into the BLAS/OpenMP environment variables.
"""

import argparse
import copy
import json
import os
import sys

from .errors import NumericalError, ParameterError

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# both mean double precision; configs written for the former 128-bit path
# carry the key
PRECISIONS = ("auto", "double")

DEFAULT_CONFIG = {
    "model": {
        "theta": [0.01, 0.02, 0.03],
        "sigma": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    },
    "truncation": 40,
    "pad": 4,
    "n_max": 562,
    "m_max": 36,
    "precision": "auto",
    "grid_resolution": 30,
    "quadrature_resolution": 60,
    "times": [0.04, 0.2, 1.0, 2.0],
    "x": [0.02, 0.02],
    "seed": 20260816,
    "out_dir": ".",
    "clip_negative": False,
    "converge": {
        "D_list": [8, 12, 16, 20, 24],
        "n_list": [0, 1],
        "track": [],
    },
    "distance": {"t_min": 0.05, "t_max": 3.0, "points": 20},
    "mc": {
        "N": 10000,
        "generations": 4000,
        "replicates": 10000,
        "block_size": 1024,
        "record_every": None,
    },
}


def _deep_update(base, extra):
    for key, value in extra.items():
        if (key in base and isinstance(base[key], dict)
                and isinstance(value, dict)):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _apply_override(cfg, assignment):
    if "=" not in assignment:
        raise ParameterError(f"--set needs key=value, got {assignment!r}")
    path, raw = assignment.split("=", 1)
    keys = path.strip().split(".")
    if not all(keys):
        raise ParameterError(f"--set path {path!r} is malformed")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings pass through unquoted
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParameterError("config document must be a JSON object")
    return doc


def resolve_config(args):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        _deep_update(cfg, load_config(args.config))
    for assignment in args.set or ():
        _apply_override(cfg, assignment)
    if args.out:
        cfg["out_dir"] = args.out
    _validate_config(cfg)
    return cfg


def _validate_config(cfg):
    model = cfg.get("model")
    if not isinstance(model, dict) or "theta" not in model or "sigma" not in model:
        raise ParameterError("config.model needs theta and sigma")
    D = cfg.get("truncation")
    if not isinstance(D, int) or D < 0:
        raise ParameterError(f"truncation must be a non-negative integer, got {D!r}")
    if not isinstance(cfg.get("pad"), int) or cfg["pad"] < 0:
        raise ParameterError("pad must be a non-negative integer")
    n_max = cfg.get("n_max")
    if n_max is not None and (not isinstance(n_max, int) or n_max < 1):
        raise ParameterError(f"n_max must be a positive integer, got {n_max!r}")
    m_max = cfg.get("m_max")
    if m_max is not None and (not isinstance(m_max, int) or m_max < 0):
        raise ParameterError(f"m_max must be a non-negative integer, got {m_max!r}")
    if cfg.get("grid_resolution", 2) < 2:
        raise ParameterError("grid_resolution must be >= 2")
    if cfg.get("quadrature_resolution", 2) < 2:
        raise ParameterError("quadrature_resolution must be >= 2")
    times = cfg.get("times", [])
    if not all(isinstance(t, (int, float)) and t > 0 for t in times):
        raise ParameterError("times must all be positive numbers")
    if cfg.get("precision") not in PRECISIONS:
        raise ParameterError(
            f"precision {cfg.get('precision')!r} is not supported: use "
            f"\"double\" or \"auto\". A retired 128-bit path agreed with "
            f"double to 2.5e-14 of the spectral scale on eigenvalues and "
            f"1.6e-11 on coefficients, with sigma entries up to 80")


def _make_model(cfg):
    from .model import ModelParams
    return ModelParams(cfg["model"]["theta"], cfg["model"]["sigma"])


def _cutoffs(cfg):
    """(U, n_max, n_kept, m_max) from the config, before any solve.

    U is the basis size, n_max the configured cutoff capped at U, and n_kept
    the number of eigenpairs a series sums (n_max, or its default).
    """
    from .density import DEFAULT_N_MAX
    from .indexing import total_count
    D = cfg["truncation"]
    U = total_count(_make_model(cfg).K, D)
    n_max = min(cfg["n_max"], U) if cfg.get("n_max") else None
    m_max = min(cfg["m_max"], D) if cfg.get("m_max") is not None else None
    return U, n_max, n_max or min(DEFAULT_N_MAX, U), m_max


def _decompose(cfg, n_eig=None):
    from . import spectral
    p = _make_model(cfg)
    return spectral.decompose(p, cfg["truncation"], pad=cfg["pad"],
                              n_eig=n_eig)


def _solve_meta(sd):
    """Sidecar fields that identify the operator and say how it was solved."""
    from . import spectral
    return {"decomposition_hash": spectral.decomposition_hash(sd),
            "eigenpairs": sd.n_eig, "eigensolver": sd.eigensolver}


def _out_dir(cfg):
    path = cfg.get("out_dir") or "."
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, doc):
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta(cfg, **extra):
    doc = {"config": cfg}
    doc.update(extra)
    return doc


def cmd_spectrum(cfg):
    from . import spectral
    sd = _decompose(cfg)
    out = _out_dir(cfg)
    eig_path = os.path.join(out, "spectrum_eigenvalues.csv")
    coef_path = os.path.join(out, "spectrum_coefficients.csv")
    spectral.write_eigenvalues_csv(sd, eig_path)
    spectral.write_coefficients_csv(sd, coef_path)
    _write_json(os.path.join(out, "spectrum_meta.json"), _meta(
        cfg, **_solve_meta(sd), size=sd.size, outputs=[eig_path, coef_path]))
    print(f"wrote {eig_path} ({sd.n_eig} eigenpairs)")
    return 0


def cmd_density(cfg):
    import numpy as np

    from . import density
    U, n_max, n_kept, m_max = _cutoffs(cfg)
    # the tail warning reads the first dropped eigenvalue
    sd = _decompose(cfg, n_eig=min(n_kept + 1, U))
    x = np.asarray(cfg["x"], dtype=float)
    grid = density.make_grid(sd.params.K, cfg["grid_resolution"])
    out = _out_dir(cfg)
    outputs = []
    diagnostics = {}
    series = density.transition_density(
        sd, cfg["times"], x, grid, n_max=n_max, m_max=m_max,
        clip_negative=cfg["clip_negative"], diagnostics=diagnostics)
    for t, values in zip(cfg["times"], series):
        path = os.path.join(out, f"density_t{t:g}.csv")
        density.write_density_csv(path, grid, values, sd.params.K)
        outputs.append(path)
        print(f"wrote {path} ({len(grid)} points)")
    _write_json(os.path.join(out, "density_meta.json"), _meta(
        cfg, **_solve_meta(sd), n_max=n_max, m_max=m_max, **diagnostics,
        outputs=outputs))
    return 0


def cmd_normconst(cfg):
    from . import density
    *_, m_max = _cutoffs(cfg)
    sd = _decompose(cfg, n_eig=1)
    diagnostics = {}
    value = density.normalizing_constant(sd, m_max=m_max,
                                         diagnostics=diagnostics)
    out = _out_dir(cfg)
    path = os.path.join(out, "normconst.json")
    _write_json(path, _meta(cfg, C_stat=value, **diagnostics,
                            **_solve_meta(sd)))
    print(f"C_stat = {value:.17g}")
    print(f"wrote {path}")
    return 0


def cmd_converge(cfg):
    from . import spectral
    p = _make_model(cfg)
    conv = cfg["converge"]
    track = [(int(n), tuple(m)) for n, m in conv.get("track", [])]
    rows = spectral.convergence_table(
        p, conv["D_list"], conv["n_list"], track=track,
        pad=cfg["pad"])
    out = _out_dir(cfg)
    path = os.path.join(out, "converge.csv")
    with open(path, "w", newline="") as fh:
        fh.write("D,kind,n,m_tuple,value\n")
        for row in rows:
            for n, v in sorted(row["Lambda"].items()):
                fh.write(f"{row['D']},Lambda,{n},,{v:.17g}\n")
            for (n, m), v in sorted(row["u"].items()):
                mt = ";".join(str(d) for d in m)
                fh.write(f"{row['D']},u,{n},{mt},{v:.17g}\n")
    _write_json(os.path.join(out, "converge_meta.json"),
                _meta(cfg, outputs=[path]))
    print(f"wrote {path}")
    return 0


def cmd_distance(cfg):
    import numpy as np

    from . import density
    _, n_max, n_kept, m_max = _cutoffs(cfg)
    sd = _decompose(cfg, n_eig=n_kept)
    x = np.asarray(cfg["x"], dtype=float)
    dist_cfg = cfg["distance"]
    if dist_cfg.get("points", 0) < 2:
        raise ParameterError("distance.points must be >= 2")
    times = np.linspace(dist_cfg["t_min"], dist_cfg["t_max"],
                        dist_cfg["points"])
    values = density.distance_to_stationarity(sd, x, times,
                                              n_max=n_max, m_max=m_max)
    out = _out_dir(cfg)
    path = os.path.join(out, "distance.csv")
    density.write_distance_csv(path, times, values)
    _write_json(os.path.join(out, "distance_meta.json"), _meta(
        cfg, **_solve_meta(sd), outputs=[path]))
    print(f"wrote {path}")
    return 0


# -- validation suites -------------------------------------------------------

def _validate_q(cfg):
    import numpy as np

    from .model import ModelParams, q_coefficients, q_direct, q_polynomial_eval
    rng = np.random.default_rng(cfg["seed"])
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 5))
        theta = rng.uniform(0.05, 2.0, size=K)
        sigma = rng.uniform(-8.0, 8.0, size=(K, K))
        sigma = 0.5 * (sigma + sigma.T)
        sigma[K - 1, K - 1] = 0.0
        p = ModelParams(theta, sigma)
        pts = rng.dirichlet(np.ones(K), size=200)[:, :K - 1]
        via_tables = q_polynomial_eval(q_coefficients(p), pts)
        direct = q_direct(p, pts)
        rel = np.max(np.abs(via_tables - direct) / (1.0 + np.abs(direct)))
        worst = max(worst, float(rel))
    return {"max_rel_defect": worst, "tolerance": 1e-10,
            "passed": bool(worst <= 1e-10)}


def _validate_orthogonality(cfg):
    import numpy as np

    from .basis import MultiJacobiBasis
    from .indexing import BasisEnumeration
    from .oracles import simplex_quadrature
    theta = np.asarray(cfg["model"]["theta"], dtype=float)
    K = len(theta)
    enum = BasisEnumeration(K, 4)
    basis = MultiJacobiBasis(theta, enum)
    res = cfg["quadrature_resolution"]
    U = len(enum)
    worst = 0.0
    norms = np.exp(basis.log_norms_all())
    for i, n in enumerate(enum.indices):
        for j in range(i, U):
            m = enum.indices[j]
            val = simplex_quadrature(
                lambda y: basis.eval_P(n, y) * basis.eval_P(m, y),
                K, res, theta=theta)
            ref = norms[i] if i == j else 0.0
            rel = abs(val - ref) / norms[i]
            worst = max(worst, float(rel))
    return {"max_rel_defect": worst, "tolerance": 1e-6,
            "passed": bool(worst <= 1e-6)}


def _validate_neutral(cfg):
    import numpy as np

    from . import density, spectral
    from .indexing import count_at_degree
    from .model import ModelParams
    theta = cfg["model"]["theta"]
    K = len(theta)
    p = ModelParams(theta, np.zeros((K, K)))
    sd = spectral.decompose(p, 10)
    tt = float(np.sum(theta))
    expect = np.sort(np.array([0.5 * l * (l - 1 + tt)
                               for l in range(11) for _ in range(
                                   count_at_degree(K, l))]))
    eig_defect = float(np.max(np.abs(sd.eigenvalues - expect)))
    rng = np.random.default_rng(cfg["seed"])
    pts = rng.dirichlet(np.ones(K), size=8)[:, :K - 1]
    x = np.full(K - 1, 1.0 / K)
    via_general = density.transition_density(sd, 0.5, x, pts)
    via_neutral = density.neutral_transition_density(p, 0.5, x, pts, 10)
    path_defect = float(np.max(np.abs(via_general - via_neutral)
                               / np.abs(via_neutral)))
    passed = eig_defect <= 1e-10 and path_defect <= 1e-6
    return {"eigenvalue_defect": eig_defect, "cross_path_rel": path_defect,
            "tolerances": [1e-10, 1e-6], "passed": bool(passed)}


def _validate_mc(cfg):
    import numpy as np

    from . import density
    from .oracles import MCConfig, mc_simulate, simplex_quadrature, \
        write_mc_summary_csv
    p = _make_model(cfg)
    _, n_max, n_kept, m_max = _cutoffs(cfg)
    sd = _decompose(cfg, n_eig=n_kept)
    mc_cfg = cfg["mc"]
    config = MCConfig(N=mc_cfg["N"], generations=mc_cfg["generations"],
                      replicates=mc_cfg["replicates"], seed=cfg["seed"],
                      record_every=mc_cfg.get("record_every"),
                      block_size=mc_cfg.get("block_size", 1024))
    x0 = np.asarray(cfg["x"], dtype=float)
    result = mc_simulate(p, config, x0)
    out = _out_dir(cfg)
    write_mc_summary_csv(result, os.path.join(out, "mc_summary.csv"))
    t = result.times[-1]
    mc_mean = result.means[-1][:p.K - 1]
    mc_se = np.sqrt(np.diag(result.covs[-1])[:p.K - 1]
                    / config.replicates)
    theta = np.asarray(p.theta, dtype=float)
    spec_mean = np.empty(p.K - 1)
    for i in range(p.K - 1):
        spec_mean[i] = simplex_quadrature(
            lambda y: y[..., i] * np.squeeze(
                density.smooth_kernel(sd, t, x0, y,
                                      n_max=n_max, m_max=m_max), axis=0),
            p.K, cfg["quadrature_resolution"], theta=theta)
    z = np.abs(spec_mean - mc_mean) / mc_se
    return {"t": float(t), "spectral_mean": spec_mean.tolist(),
            "mc_mean": mc_mean.tolist(), "mc_se": mc_se.tolist(),
            "z_scores": z.tolist(), "tolerance_se": 3.0,
            "passed": bool(np.all(z <= 3.0))}


def _validate_chapman(cfg):
    import numpy as np

    from . import density
    from .oracles import simplex_quadrature
    _, n_max, n_kept, m_max = _cutoffs(cfg)
    sd = _decompose(cfg, n_eig=n_kept)
    p = sd.params
    theta = np.asarray(p.theta, dtype=float)
    s = t = 0.25
    rng = np.random.default_rng(cfg["seed"])
    pairs = rng.dirichlet(np.ones(p.K), size=(5, 2))[..., :p.K - 1]
    worst = 0.0
    res = cfg["quadrature_resolution"]
    for x, y in pairs:
        def integrand(z):
            left = density.smooth_kernel(sd, s, x, z,
                                         n_max=n_max, m_max=m_max)[0]
            right = density.smooth_kernel(sd, t, z, y,
                                          n_max=n_max, m_max=m_max)[:, 0]
            return left * right
        composed = simplex_quadrature(integrand, p.K, res, theta=theta)
        direct = density.smooth_kernel(sd, s + t, x, y,
                                       n_max=n_max, m_max=m_max)[0, 0]
        rel = abs(composed - direct) / abs(direct)
        worst = max(worst, float(rel))
    return {"max_rel_defect": worst, "tolerance": 2e-3,
            "passed": bool(worst <= 2e-3)}


VALIDATORS = {
    "q": _validate_q,
    "orthogonality": _validate_orthogonality,
    "neutral": _validate_neutral,
    "mc": _validate_mc,
    "chapman": _validate_chapman,
}


def cmd_validate(cfg, which):
    report = VALIDATORS[which](cfg)
    out = _out_dir(cfg)
    path = os.path.join(out, f"validate_{which}.json")
    _write_json(path, _meta(cfg, suite=which, report=report))
    status = "PASS" if report["passed"] else "FAIL"
    print(f"validate {which}: {status}")
    print(f"wrote {path}")
    return 0 if report["passed"] else 3


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON job configuration")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config out_dir)")
    common.add_argument("--threads", type=int, metavar="N",
                        help="cap numerical library worker threads")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config field via a dotted path")
    parser = argparse.ArgumentParser(
        prog="wfspectral",
        description="Spectral transition-density solver for multi-allelic "
                    "diffusions with selection and parent-independent "
                    "mutation.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="eigenvalues and eigenvector coefficients")
    sub.add_parser("density", parents=[common],
                   help="transition density grids, one CSV per time point")
    sub.add_parser("normconst", parents=[common],
                   help="stationary normalizing constant")
    sub.add_parser("converge", parents=[common],
                   help="eigenvalue/coefficient traces across truncations")
    sub.add_parser("distance", parents=[common],
                   help="distance to stationarity over a time grid")
    val = sub.add_parser("validate", parents=[common],
                         help="run one independent validation suite")
    val.add_argument("which", choices=sorted(VALIDATORS))
    return parser


COMMANDS = {
    "spectrum": cmd_spectrum,
    "density": cmd_density,
    "normconst": cmd_normconst,
    "converge": cmd_converge,
    "distance": cmd_distance,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print(json.dumps({"error": "parameter",
                              "message": "--threads must be >= 1"}),
                  file=sys.stderr)
            return 2
        for var in THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    try:
        cfg = resolve_config(args)
        if args.command == "validate":
            return cmd_validate(cfg, args.which)
        return COMMANDS[args.command](cfg)
    except ParameterError as exc:
        print(json.dumps({"error": "parameter", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": "numerical", "message": str(exc)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

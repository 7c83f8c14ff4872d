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
import math
import os
import sys

from .errors import NumericalError, ParameterError

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
READS_X = ("density", "distance", "mc")   # the jobs that read x
RETIRED = object()   # the default of a retired key: DEFAULT_CONFIG leaves it out


def _is_finite(v):
    # JSON gives int, float or bool; a bool is no number here
    return type(v) in (int, float) and math.isfinite(v)


def _is_positive(v):
    return _is_finite(v) and v > 0


def _at_least(low, null=False):
    return lambda v: v is None and null or type(v) is int and v >= low


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


# Every config key: dotted path, default, test, and what the value must be.
# A null n_max keeps all U pairs in every series, from the lead pair and S
# by Krylov; an integer n_max above U is capped at U (_decompose).
# Retired keys: configs written while they existed carry them, so the values
# that mean what the code now always does still run.
CONFIG_KEYS = [
    ("model.theta", [0.01, 0.02, 0.03], _list_of(_is_positive),
     "a list of positive finite numbers"),
    ("model.sigma", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
     _list_of(_list_of(_is_finite)), "a list of lists of finite numbers"),
    ("truncation", 40, _at_least(0), "an integer >= 0"),
    ("n_max", None, _at_least(1, null=True), "null or an integer >= 1"),
    ("grid_resolution", 30, _at_least(2), "an integer >= 2"),
    ("quadrature_resolution", 60, _at_least(2), "an integer >= 2"),
    ("times", [0.04, 0.2, 1.0, 2.0],
     lambda v: v != [] and _list_of(_is_positive)(v),
     "a non-empty list of positive finite numbers"),
    ("x", [0.02, 0.02], _list_of(_is_finite),
     "the start point, a list of finite numbers"),
    ("seed", 20260816, lambda v: _at_least(0)(v) and v < 2 ** 64,
     "an integer in [0, 2**64)"),
    ("out_dir", ".", lambda v: isinstance(v, str) and v != "",
     "a directory path"),
    ("clip_negative", False, lambda v: type(v) is bool, "true or false"),
    ("converge.D_list", [8, 12, 16, 20, 24], _list_of(_at_least(0)),
     "a list of integers >= 0"),
    ("converge.n_list", [0, 1], _list_of(_at_least(0)),
     "a list of integers >= 0"),
    ("converge.track", [], _list_of(
        lambda v: isinstance(v, list) and len(v) == 2 and _at_least(0)(v[0])
        and _list_of(_at_least(0))(v[1])),
     "a list of [n, [m...]] pairs of integers >= 0"),
    ("distance.t_min", 0.05, _is_positive, "a positive finite number"),
    ("distance.t_max", 3.0, _is_positive, "a positive finite number"),
    ("distance.points", 20, _at_least(2), "an integer >= 2"),
    ("mc.N", 10000, _at_least(1), "an integer >= 1"),
    ("mc.generations", 4000, _at_least(1), "an integer >= 1"),
    ("mc.replicates", 10000, _at_least(2), "an integer >= 2"),
    ("mc.block_size", 1024, _at_least(1), "an integer >= 1"),
    ("mc.record_every", None, _at_least(1, null=True),
     "null or an integer >= 1"),
    ("precision", RETIRED, lambda v: v in ("double", "auto"),
     '"double" or "auto", or left out: both mean double. A retired 128-bit '
     "path agreed with double to 2.5e-14 of the spectral scale on "
     "eigenvalues and 1.6e-11 on coefficients, with sigma entries up to 80"),
]


def _put(cfg, keys, value):
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


DEFAULT_CONFIG = {}
for _path, _default, *_ in CONFIG_KEYS:
    if _default is not RETIRED:
        _put(DEFAULT_CONFIG, _path.split("."), _default)
ROWS = {row[0] for row in CONFIG_KEYS}


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
    _put(cfg, keys, value)


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
    _validate_config(cfg, getattr(args, "which", args.command) in READS_X)
    return cfg


def _leaves(node, prefix=""):
    """(dotted path, value) of every entry below the config's tables."""
    for key, value in node.items():
        path = prefix + key
        if isinstance(value, dict) and path not in ROWS:
            yield from _leaves(value, path + ".")
        else:
            yield path, value


def _validate_config(cfg, reads_x):
    """Reject a config before any solve, and any key CONFIG_KEYS does not
    list; x against K only if the job reads it."""
    given = dict(_leaves(cfg))
    for path, default, ok, what in CONFIG_KEYS:
        if path not in given:
            if default is RETIRED:
                continue
            raise ParameterError(f"{path} must be {what}; it is missing")
        if not ok(value := given.pop(path)):
            raise ParameterError(f"{path} must be {what}, got {value!r}")
    if given:
        raise ParameterError(f"unknown config key {min(given)}: see the "
                             "config reference for the keys")
    span = cfg["distance"]
    if span["t_min"] >= span["t_max"]:
        raise ParameterError(
            f"distance.t_min must be below distance.t_max, got "
            f"{span['t_min']!r} and {span['t_max']!r}")
    x, K = cfg["x"], len(cfg["model"]["theta"])
    if reads_x:
        if len(x) != K - 1:
            raise ParameterError(f"start point needs {K - 1} numbers, got {x!r}")
        from .simplex import clamp_simplex
        clamp_simplex(x)   # a point off the simplex raises


def _make_model(cfg):
    from .model import ModelParams
    return ModelParams(cfg["model"]["theta"], cfg["model"]["sigma"])


def _size(cfg):
    """The basis size U of the config, before any solve."""
    from .indexing import total_count
    return total_count(len(cfg["model"]["theta"]), cfg["truncation"])


def _decompose(cfg, n_eig=None):
    """The config's n_eig lowest pairs, all U for None; an n_eig above U is
    capped at U, as an integer n_max is."""
    from . import spectral
    n_eig = n_eig and min(n_eig, _size(cfg))
    return spectral.decompose(_make_model(cfg), cfg["truncation"],
                              n_eig=n_eig)


def _series_decomposition(cfg, beyond):
    """(sd, n_max) for a series: a null n_max solves the lead pair and sums
    all U from S, an integer one (capped at U) n_max + beyond pairs. An
    unconverged truncation's C_stat exits 3 before any output."""
    from . import density
    n_max = cfg["n_max"]
    sd = _decompose(cfg, n_eig=1 if n_max is None else n_max + beyond)
    density.normalizing_constant(sd)
    return sd, n_max and min(n_max, sd.size)


def _solve_meta(sd):
    """Sidecar fields that identify the operator and say how it was solved;
    a one-pair solve adds its residuals and route (spectral._lowest_pair)."""
    from . import spectral
    return {"decomposition_hash": spectral.decomposition_hash(sd),
            "eigenpairs": sd.n_eig, "eigensolver": sd.eigensolver,
            **sd.pair_solve}


def _write_json(path, doc):
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _meta(cfg, **extra):
    return {"config": cfg, **extra}


def cmd_spectrum(cfg):
    from . import spectral
    sd = _decompose(cfg)
    out = cfg["out_dir"]
    eig_path = os.path.join(out, "spectrum_eigenvalues.csv")
    coef_path = os.path.join(out, "spectrum_coefficients.csv")
    spectral.write_eigenvalues_csv(sd, eig_path)
    spectral.write_coefficients_csv(sd, coef_path)
    _write_json(os.path.join(out, "spectrum_meta.json"), _meta(
        cfg, **_solve_meta(sd), size=sd.size, outputs=[eig_path, coef_path]))
    print(f"wrote {eig_path} ({sd.n_eig} eigenpairs)")
    return 0


def cmd_density(cfg):
    from . import density
    # bench/checks.py reads the tables back by these names
    names = [f"density_t{t:g}.csv" for t in cfg["times"]]
    for name in names:
        same = [t for t, other in zip(cfg["times"], names) if other == name]
        if len(same) > 1:
            raise ParameterError(
                f"times {same} would all write {name}; give times that "
                "differ in their first 6 significant digits")
    # the tail warning of an integer n_max reads the first dropped pair
    sd, n_max = _series_decomposition(cfg, beyond=1)
    grid = density.make_grid(sd.params.K, cfg["grid_resolution"])
    out = cfg["out_dir"]
    outputs = []
    diagnostics = {}
    series = density.transition_density(
        sd, cfg["times"], cfg["x"], grid, n_max=n_max,
        clip_negative=cfg["clip_negative"], diagnostics=diagnostics)
    for name, values in zip(names, series):
        path = os.path.join(out, name)
        density.write_density_csv(path, grid, values, sd.params.K)
        outputs.append(path)
        print(f"wrote {path} ({len(grid)} points)")
    # bench/checks.py reads m_max back; every series keeps all degrees
    _write_json(os.path.join(out, "density_meta.json"), _meta(
        cfg, **_solve_meta(sd), n_max=n_max, m_max=sd.D, **diagnostics,
        outputs=outputs))
    return 0


def cmd_normconst(cfg):
    from . import density
    sd = _decompose(cfg, n_eig=1)
    diagnostics = {}
    value = density.normalizing_constant(sd, diagnostics=diagnostics)
    out = cfg["out_dir"]
    path = os.path.join(out, "normconst.json")
    _write_json(path, _meta(cfg, C_stat=value, **diagnostics,
                            **_solve_meta(sd)))
    print(f"C_stat = {value:.17g}")
    print(f"wrote {path}")
    return 0


def cmd_converge(cfg):
    from . import csvout, spectral
    p = _make_model(cfg)
    conv = cfg["converge"]
    track = [(int(n), tuple(m)) for n, m in conv["track"]]
    rows = spectral.convergence_table(p, conv["D_list"], conv["n_list"],
                                      track=track)
    lines = []
    for row in rows:
        lines += [(row["D"], "Lambda", n, "", v)
                  for n, v in sorted(row["Lambda"].items())]
        lines += [(row["D"], "u", n, ";".join(str(d) for d in m), v)
                  for (n, m), v in sorted(row["u"].items())]
    out = cfg["out_dir"]
    path = os.path.join(out, "converge.csv")
    # one block of five columns, empty when D_list is
    csvout.write_csv(path, ["D", "kind", "n", "m_tuple", "value"],
                     [list(zip(*lines)) or [()] * 5])
    _write_json(os.path.join(out, "converge_meta.json"),
                _meta(cfg, outputs=[path]))
    print(f"wrote {path}")
    return 0


def cmd_distance(cfg):
    import numpy as np

    from . import density
    n_max, U = cfg["n_max"], _size(cfg)
    if U < 2 or n_max == 1:
        # d^2 sums over the pairs n >= 1; with one pair it is 0 at every t
        raise ParameterError(f"distance needs 2 pairs or more, got U={U}"
                             + (f" and n_max={n_max}" if n_max else ""))
    sd, n_max = _series_decomposition(cfg, beyond=0)
    dist_cfg = cfg["distance"]
    times = np.linspace(dist_cfg["t_min"], dist_cfg["t_max"],
                        dist_cfg["points"])
    diagnostics = {}
    values = density.distance_to_stationarity(
        sd, cfg["x"], times, n_max=n_max, diagnostics=diagnostics)
    out = cfg["out_dir"]
    path = os.path.join(out, "distance.csv")
    density.write_distance_csv(path, times, values)
    _write_json(os.path.join(out, "distance_meta.json"), _meta(
        cfg, **_solve_meta(sd), n_max=n_max, **diagnostics, outputs=[path]))
    print(f"wrote {path}")
    return 0


# -- validation suites -------------------------------------------------------

def _quadrature_nodes(cfg):
    """The validation rule for the config's model, taken before any solve or
    simulation: a K the rule cannot take exits 2 at once."""
    from .oracles import simplex_quadrature_nodes
    theta = cfg["model"]["theta"]
    return simplex_quadrature_nodes(len(theta), cfg["quadrature_resolution"],
                                    theta=theta)


def _finite(values):
    """values, refused as oracles.simplex_quadrature refuses its integrand."""
    import numpy as np
    if not np.all(np.isfinite(values)):
        raise NumericalError("integrand produced non-finite samples")
    return values


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
    from .simplex import to_cube
    points, w = _quadrature_nodes(cfg)
    theta = cfg["model"]["theta"]
    basis = MultiJacobiBasis(theta, BasisEnumeration(len(theta), 4))
    # the Gram matrix of the evaluator the density and normconst run
    P = basis.eval_prefix_cube(to_cube(points))
    gram = _finite((P * w) @ P.T)
    norms = np.exp(basis.log_norms_all())
    # upper triangle, each row scaled by its member's norm
    defect = np.triu(np.abs(gram - np.diag(norms))) / norms[:, None]
    worst = float(defect.max())
    return {"max_rel_defect": worst, "tolerance": 1e-6,
            "passed": bool(worst <= 1e-6)}


def _validate_neutral(cfg):
    import numpy as np

    from . import density, spectral
    from .indexing import count_at_degree
    from .model import ModelParams, neutral_eigenvalue
    theta = cfg["model"]["theta"]
    K = len(theta)
    p = ModelParams(theta, np.zeros((K, K)))
    sd = spectral.decompose(p, 10)
    expect = np.sort([neutral_eigenvalue(l, p) for l in range(11)
                      for _ in range(count_at_degree(K, l))])
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
    from .oracles import MCConfig, mc_simulate, write_mc_summary_csv
    z, w = _quadrature_nodes(cfg)
    p = _make_model(cfg)
    mc_cfg = cfg["mc"]
    config = MCConfig(N=mc_cfg["N"], generations=mc_cfg["generations"],
                      replicates=mc_cfg["replicates"], seed=cfg["seed"],
                      record_every=mc_cfg["record_every"],
                      block_size=mc_cfg["block_size"])
    x0 = np.asarray(cfg["x"], dtype=float)
    result = mc_simulate(p, config, x0)   # refuses a model before the solve
    sd, n_max = _series_decomposition(cfg, beyond=0)
    out = cfg["out_dir"]
    write_mc_summary_csv(result, os.path.join(out, "mc_summary.csv"))
    t = result.times[-1]
    mc_mean = result.means[-1][:p.K - 1]
    mc_se = np.sqrt(np.diag(result.covs[-1])[:p.K - 1]
                    / config.replicates)
    k = _finite(density.smooth_kernel(sd, t, x0, z, n_max=n_max)[0])
    spec_mean = (w * k) @ z
    score = np.abs(spec_mean - mc_mean) / mc_se
    return {"t": float(t), "spectral_mean": spec_mean.tolist(),
            "mc_mean": mc_mean.tolist(), "mc_se": mc_se.tolist(),
            "z_scores": score.tolist(), "tolerance_se": 3.0,
            "passed": bool(np.all(score <= 3.0))}


def _validate_chapman(cfg):
    import numpy as np

    from . import density
    z, w = _quadrature_nodes(cfg)
    sd, n_max = _series_decomposition(cfg, beyond=0)
    K = sd.params.K
    s = t = 0.25
    rng = np.random.default_rng(cfg["seed"])
    pairs = rng.dirichlet(np.ones(K), size=(5, 2))[..., :K - 1]
    xs, ys = pairs[:, 0], pairs[:, 1]
    left = density.smooth_kernel(sd, s, xs, z, n_max=n_max)     # (5, M)
    right = density.smooth_kernel(sd, t, z, ys, n_max=n_max)    # (M, 5)
    composed = _finite(left * right.T) @ w
    direct = np.diag(density.smooth_kernel(sd, s + t, xs, ys, n_max=n_max))
    worst = float(np.max(np.abs(composed - direct) / np.abs(direct)))
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
    out = cfg["out_dir"]
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
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise ParameterError("--threads must be >= 1")
            for var in THREAD_ENV_VARS:
                os.environ[var] = str(args.threads)
        cfg = resolve_config(args)
        # made before any job, so an unusable one costs no solve
        try:
            os.makedirs(cfg["out_dir"], exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"out_dir must be a directory path: {exc}")
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

"""Correctness checks on the files one job wrote.

Each check returns a list of failure messages; an empty list is a pass. The
oracles are the ones the acceptance criteria use: Gauss-Jacobi quadrature
over the simplex for the stationary constant and the density mass, and the
eigenvalue properties any valid decomposition has. The checks run outside the
timed region.
"""

import hashlib
import json
import os
import warnings

import numpy as np

from wfspectral import density, model, spectral
from wfspectral.model import ModelParams
from wfspectral.oracles import simplex_quadrature

TOLERANCES = {
    "lambda0_abs": 1e-6,        # |Lambda_0| (acceptance criterion 04)
    "lambda0_rise": 1e-12,      # Lambda_0 non-increasing in D (criterion 04)
    "norm_abs": 1e-8,           # |C-weighted norm - 1| of every eigenvector
    "normconst_rel": 1e-4,      # C_stat against quadrature (criterion 08)
    "mass_abs": 1e-3,           # density mass against 1 (criterion 07)
    "density_csv_rel": 1e-9,    # CSV rows against the job's eigensystem,
                                # relative to the largest |p| in the file
    "quadrature_resolution": 60,
}

META_FILES = {
    "spectrum": "spectrum_meta.json",
    "density": "density_meta.json",
    "normconst": "normconst.json",
    "distance": "distance_meta.json",
    "converge": "converge_meta.json",
}


def read_meta(out_dir, sub):
    """The sidecar JSON a job wrote, or None when it is missing or invalid."""
    try:
        with open(os.path.join(out_dir, META_FILES[sub])) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def digest(out_dir):
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _quadrature(cfg, f):
    theta = np.asarray(cfg["model"]["theta"], dtype=float)
    return simplex_quadrature(f, len(theta), TOLERANCES["quadrature_resolution"],
                              theta=theta)


def check_spectrum(out_dir, cfg, sd=None):
    table = _table(os.path.join(out_dir, "spectrum_eigenvalues.csv"))
    lam, norms = table[:, 1], table[:, 2]
    fails = []
    if np.any(np.diff(lam) < 0):
        fails.append("spectrum: eigenvalues do not ascend")
    if abs(lam[0]) > TOLERANCES["lambda0_abs"]:
        fails.append(f"spectrum: |Lambda_0| = {abs(lam[0]):.3e}")
    worst = float(np.max(np.abs(norms - 1.0)))
    if worst > TOLERANCES["norm_abs"]:
        fails.append(f"spectrum: worst |norm - 1| = {worst:.3e}")
    return fails


def check_normconst(out_dir, cfg, sd=None):
    c_stat = read_meta(out_dir, "normconst")["C_stat"]
    p = ModelParams(cfg["model"]["theta"], cfg["model"]["sigma"])
    ref = _quadrature(cfg, lambda y: np.exp(model.mean_fitness(p, y)))
    rel = abs(c_stat / ref - 1.0)
    if not rel <= TOLERANCES["normconst_rel"]:
        return [f"normconst: C_stat {c_stat:.17g} vs quadrature {ref:.17g} "
                f"(rel {rel:.3e})"]
    return []


def check_density(out_dir, cfg, sd):
    """Ties the CSVs to the job's eigensystem `sd`, then checks its mass.

    The meta hash must be the hash of `sd`, and sampled CSV rows must equal
    the density recomputed from `sd`. For K=3, the kernel of `sd` must
    integrate to 1 under quadrature at every density time.
    """
    meta = read_meta(out_dir, "density")
    fails = []
    if meta["decomposition_hash"] != spectral.decomposition_hash(sd):
        fails.append("density: meta hash is not the job's eigensystem")
    n_max, m_max = meta["n_max"], meta["m_max"]
    x = np.asarray(cfg["x"], dtype=float)
    K = len(cfg["model"]["theta"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation-undershoot notices
        for t in cfg["times"]:
            table = _table(os.path.join(out_dir, f"density_t{t:g}.csv"))
            rows = np.unique(np.linspace(0, len(table) - 1, 16).astype(int))
            again = density.transition_density(
                sd, t, x, table[rows, :-1], n_max=n_max, m_max=m_max,
                clip_negative=cfg["clip_negative"])
            scale = np.max(np.abs(table[:, -1]))
            worst = float(np.max(np.abs(again - table[rows, -1]))) / scale
            if not worst <= TOLERANCES["density_csv_rel"]:
                fails.append(f"density t={t:g}: CSV differs from the "
                             f"eigensystem by {worst:.3e} of max |p|")
            if K != 3:
                continue
            mass = _quadrature(cfg, lambda y: density.smooth_kernel(
                sd, t, x, y, n_max=n_max, m_max=m_max)[0])
            if not abs(mass - 1.0) <= TOLERANCES["mass_abs"]:
                fails.append(f"density t={t:g}: mass {mass:.9f}")
    return fails


def check_distance(out_dir, cfg, sd=None):
    d2 = _table(os.path.join(out_dir, "distance.csv"))[:, 1]
    if np.all(d2 > 0) and np.all(np.diff(d2) < 0):
        return []
    return ["distance: d2 is not positive and strictly decreasing"]


def check_converge(out_dir, cfg, sd=None):
    lam0 = []
    with open(os.path.join(out_dir, "converge.csv")) as fh:
        next(fh)
        for line in fh:
            D, kind, n, _, value = line.rstrip("\n").split(",")
            if kind == "Lambda" and n == "0":
                lam0.append((int(D), float(value)))
    lam0 = [v for _, v in sorted(lam0)]
    fails = []
    if len(lam0) != len(cfg["converge"]["D_list"]):
        fails.append("converge: missing Lambda_0 rows")
    elif any(b - a > TOLERANCES["lambda0_rise"] for a, b in zip(lam0, lam0[1:])):
        fails.append("converge: Lambda_0 rises with D")
    elif abs(lam0[-1]) > TOLERANCES["lambda0_abs"]:
        fails.append(f"converge: |Lambda_0| = {abs(lam0[-1]):.3e} at max D")
    return fails


ORACLE_CHECKS = {
    "spectrum": check_spectrum,
    "density": check_density,
    "normconst": check_normconst,
    "distance": check_distance,
    "converge": check_converge,
}

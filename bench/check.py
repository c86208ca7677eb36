"""Output check for one benchmark study, valid for any seed.

The check recomputes the analytic solution at every evaluation point from
the curve, surface or field definition, independently of closeeval, and
compares the CSV's exact column with it.  It bounds every row's error,
checks the convergence orders where the acceptance suite anchors them
(2D: the concave and convex targets 5pi/4 and pi/4; HG: the expansion
residual), and requires the rows plus the rejections to account for every
attempted (target, eps) request.  Tolerances allow any correct
reordering of floating-point sums, so there is no digest comparison
against a stored run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter

import numpy as np
from scipy.special import sph_harm_y

import workloads

# Order anchors: (target parameter, {method: (slope, tolerance)}).
ANCHORS_2D = ((5*math.pi/4, {"sub": (1.0, 0.25), "asym2": (2.0, 0.3),
                             "asym3": (3.0, 0.5)}),
              (math.pi/4, {"sub": (1.0, 0.25), "asym2": (2.0, 0.3),
                           "asym3": (3.0, 0.5)}))
SLOPE_HG = (3.0, 0.3)
FIT_WINDOW = {"2d-kite": (1e-6, 1e-2), "hg": (1e-3, 1e-1)}
ERROR_FLOOR = 1e-14
# Largest absolute error allowed on any row, by (problem, n) and method;
# about ten times the worst seen over many seeds.  The plain rule (ptr)
# breaks down near the boundary by design and is only required finite.
ERROR_BOUNDS = {("2d-kite", 200): {"sub": 1e-4, "asym2": 4e-3,
                                   "asym3": 2e-4},
                ("3d-mushroom", 16): {"numerical": 1e-3, "asym2": 1e-3},
                ("3d-mushroom", 24): {"numerical": 3e-5, "asym2": 1e-3}}
EXACT_RTOL = 1e-11
HG_EXACT_TOL = 1e-8


class CheckError(Exception):
    """The study's outputs are wrong or incomplete."""


def _fail(message: str):
    raise CheckError(message)


def read_rows(path: str) -> list:
    """results.csv as (target, eps, method, value, exact, abs_error)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["target_param", "eps", "method", "value",
                                  "exact", "abs_error"]:
            _fail("results.csv has an unexpected header")
        return [(t, float(e), m, float(v), float(x), float(a))
                for t, e, m, v, x, a in reader]


def read_rejections(path: str) -> list:
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return [(t, float(e), m) for t, e, m, _ in reader]


# -- analytic solutions, vectorized over rows --------------------------

def _kite_exact(t, eps, x0):
    """-(1/2pi) log|x - x0| at x = y(t) - eps nu(t) on the kite."""
    y = np.stack([np.cos(t) + 0.65*np.cos(2*t) - 0.65, 1.5*np.sin(t)], -1)
    d1 = np.stack([-np.sin(t) - 1.3*np.sin(2*t), 1.5*np.cos(t)], -1)
    nu = np.stack([d1[:, 1], -d1[:, 0]], -1)/np.hypot(d1[:, :1], d1[:, 1:])
    x = y - eps[:, None]*nu
    return -np.log(np.linalg.norm(x - np.asarray(x0), axis=-1))/(2*math.pi)


def _mushroom_exact(theta, phi, eps, source):
    """1/|x - source| at x = y - eps nu on the mushroom surface
    y = P(cos theta) diag(1, 2, 1) d(theta, phi)."""
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    cp, sp = np.cos(phi)[:, None], np.sin(phi)[:, None]
    q = 1.0 + 100.0*(1.0 - c)**2
    P, dP = 2.0 - 1.0/q, -200.0*(1.0 - c)/q**2
    A = np.array([1.0, 2.0, 1.0])
    d = np.hstack([s*cp, s*sp, c])
    d_th = np.hstack([c*cp, c*sp, -s])
    d_ph = np.hstack([-s*sp, s*cp, np.zeros_like(s)])
    y = P*A*d
    nu = np.cross(-dP*s*A*d + P*A*d_th, P*A*d_ph)
    nu *= np.sign(np.sum(nu*y, axis=-1, keepdims=True))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    x = y - eps[:, None]*nu
    return 1.0/np.linalg.norm(x - np.asarray(source), axis=-1)


def _slice_angles(label: str):
    """(theta, phi) of a 3D target label."""
    if label.startswith("x1x3:"):
        s0 = float(label[5:])
        return (s0, 0.0) if s0 <= math.pi else (2*math.pi - s0, math.pi)
    if label.startswith("x1x2:"):
        return math.pi/2, float(label[5:])
    theta, phi = label.split(";")
    return float(theta), float(phi)


def _hg_exact(config, eps):
    """L psi(omega) = sum (g^n - 1) c_nm Y_nm(omega) with g = 1 - eps."""
    theta, phi = config["hg_omega"]
    total = np.zeros_like(eps)
    for n, m, re, im in config["hg_field"]:
        y = (complex(re, im)*sph_harm_y(n, m, theta, phi)).real
        total += ((1.0 - eps)**n - 1.0)*y
    return total


def analytic(config, labels, eps):
    """The exact solution at every row's evaluation point."""
    problem = config["problem"]
    if problem == "2d-kite":
        t = np.array([float(t) for t in labels])
        return _kite_exact(t, eps, config["x0"])
    if problem == "3d-mushroom":
        angles = {t: _slice_angles(t) for t in set(labels)}
        theta = np.array([angles[t][0] for t in labels])
        phi = np.array([angles[t][1] for t in labels])
        return _mushroom_exact(theta, phi, eps, config["source"])
    return _hg_exact(config, eps)


# -- checks -------------------------------------------------------------

def fit_slope(pairs, lo: float, hi: float, method: str) -> float:
    """Least-squares slope of log10(error) on log10(eps) inside [lo, hi],
    dropping errors at the roundoff floor for asymptotic methods."""
    floor = 0.0 if method in ("ptr", "sub", "numerical") else ERROR_FLOOR
    sel = [(e, a) for e, a in pairs
           if lo*(1 - 1e-9) <= e <= hi*(1 + 1e-9) and a > floor]
    if len(sel) < 4:
        _fail(f"only {len(sel)} points to fit {method}")
    x = np.log10([e for e, _ in sel])
    y = np.log10([a for _, a in sel])
    return float(np.polyfit(x, y, 1)[0])


def _check_counts(workload, rows, rejections) -> int:
    methods = workloads.methods(workload)
    per_request = Counter((t, e) for t, e, *_ in rows)
    rejected = Counter((t, e) for t, e, _ in rejections)
    if any(k != len(methods) for k in per_request.values()):
        _fail("a request is missing a method row or repeats one")
    if any(k != len(methods) for k in rejected.values()):
        _fail("a rejected request is missing a method or repeats one")
    if set(per_request) & set(rejected):
        _fail("a request is both evaluated and rejected")
    seen = len(per_request) + len(rejected)
    if seen != workloads.requests(workload):
        _fail(f"{seen} requests accounted for, "
              f"{workloads.requests(workload)} attempted")
    if {m for _, _, m, *_ in rows} - set(methods):
        _fail("rows name a method that was not requested")
    return len(rejected)


def _first_bad(mask, rows) -> str:
    t, eps, method = rows[int(np.flatnonzero(mask)[0])][:3]
    return f"{t} eps={eps!r} {method}"


def _check_values(workload, rows) -> None:
    config = workload.config
    labels = [r[0] for r in rows]
    methods = np.array([r[2] for r in rows])
    eps, value, exact, err = (np.array([r[i] for r in rows])
                              for i in (1, 3, 4, 5))
    bad = ~(np.isfinite(value) & np.isfinite(exact) & np.isfinite(err))
    if bad.any():
        _fail(f"non-finite row at {_first_bad(bad, rows)}")
    bad = np.abs(err - np.abs(value - exact)) > 1e-12*np.maximum(1.0,
                                                                 abs(exact))
    if bad.any():
        _fail(f"abs_error is not |value - exact| at {_first_bad(bad, rows)}")
    want = analytic(config, labels, eps)
    if config["problem"] == "hg":
        bad = np.abs(exact - want) > HG_EXACT_TOL
    else:
        bad = np.abs(exact - want) > EXACT_RTOL*np.maximum(1.0, abs(want))
    if bad.any():
        _fail(f"exact column differs from the analytic solution at "
              f"{_first_bad(bad, rows)}")
    bounds = ERROR_BOUNDS.get((config["problem"], config.get("n")), {})
    for method, bound in bounds.items():
        bad = (methods == method) & (err > bound)
        if bad.any():
            _fail(f"error above {bound:.0e} at {_first_bad(bad, rows)}")


def _check_orders(workload, rows, fits) -> None:
    problem = workload.config["problem"]
    if problem == "2d-kite":
        n = workload.config["n"]
        anchors = []
        for t, slopes in ANCHORS_2D:
            k = round((t + math.pi)*n/(2*math.pi)) % n
            anchors.append((-math.pi + 2*math.pi*k/n, slopes))
    elif problem == "hg":
        anchors = [(None, {"hg_asym": SLOPE_HG})]
    else:
        return
    lo, hi = FIT_WINDOW[problem]
    for node, slopes in anchors:
        labels = {t for t, *_ in rows
                  if node is None or abs(float(t) - node) < 1e-9}
        if len(labels) != 1:
            _fail(f"no unique rows for the anchor target {node}")
        label = labels.pop()
        for method, (want, tol) in slopes.items():
            pairs = [(e, a) for t, e, m, _, _, a in rows
                     if t == label and m == method]
            ours = fit_slope(pairs, lo, hi, method)
            theirs = [f["slope"] for f in fits
                      if f["target"] == label and f["method"] == method]
            if len(theirs) != 1:
                _fail(f"fits.json lacks one fit for {label} {method}")
            for slope in (ours, theirs[0]):
                if abs(slope - want) > tol:
                    _fail(f"{method} slope {slope:.4f} at {label} is not "
                          f"{want} +- {tol}")


def check_outputs(workload, out_dir: str) -> dict:
    """Check one study's output directory; raise CheckError if it is wrong.

    Returns the row count, the rejected request count and the digest of
    results.csv, which must not change between runs of one code version.
    """
    results = os.path.join(out_dir, "results.csv")
    try:
        rows = read_rows(results)
        rejections = read_rejections(os.path.join(out_dir, "rejections.csv"))
        with open(os.path.join(out_dir, "fits.json")) as fh:
            fits = json.load(fh)["fits"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckError(f"unreadable output: {exc}") from None
    rejected = _check_counts(workload, rows, rejections)
    _check_values(workload, rows)
    _check_orders(workload, rows, fits)
    with open(results, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"rows": len(rows), "rejected_requests": rejected,
            "requests": workloads.requests(workload),
            "results_sha256": digest}

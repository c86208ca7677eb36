"""The benchmark's workloads: one closeeval study each, built from a seed.

The seed picks data only (source points, the HG field and the angles),
never sizes, so the cost of a workload is the same for every seed.  Each
workload is a study configuration as a user would write it, plus how the
3D density cache is prepared before the timed call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Why each workload exists, and which layer it leans on.
WHY = {
    "kite-sweep": "2D kite, every node at n=200: per-request point_inside "
                  "dominates, and 594 requests are wrongly rejected",
    "mushroom-sweep": "3D mushroom n=16, 32 slice targets, warm density "
                      "cache: mu re-synthesised on rotated grids per eps",
    "mushroom-solve": "3D mushroom n=24, one target, empty cache: Galerkin "
                      "assembly (sph_basis_matrix on 2n^2 grids) dominates",
    "hg-study": "HG expansion against direct quadrature with up to 8000 "
                "polar nodes: Gauss-Legendre rule builds dominate",
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Workload:
    """One study: the CLI subcommand, its JSON config, and the cache mode.

    cache is None (no density cache), "warm" (filled before timing) or
    "empty" (a fresh directory for every timed call).
    """

    name: str
    command: str
    config: dict
    cache: str = None


def eps_count(eps_range: str) -> int:
    """Number of eps values in a 'lo:hi:per_decade' grid."""
    lo, hi, per = eps_range.split(":")
    return int(round(math.log10(float(hi)/float(lo))*int(per))) + 1


def target_count(config: dict) -> int:
    """Evaluation targets of a study config."""
    if config["problem"] == "hg":
        return 1
    targets = config["targets"]
    if targets == "all-nodes":  # every node of a 2D grid
        return config["n"]
    slice_count = config.get("slice_count", 16)
    return sum(slice_count if isinstance(t, str) else 1 for t in targets)


def requests(workload: Workload) -> int:
    """(target, eps) requests the study attempts."""
    return target_count(workload.config)*eps_count(workload.config["eps_range"])


def methods(workload: Workload) -> tuple:
    return tuple(workload.config.get("methods", ("hg_asym",)))


def _real_field(rng, degree: int) -> list:
    """[n, m, re, im] rows of a real field: c_{n,-m} = (-1)^m conj(c_nm)."""
    rows = []
    for n in range(degree + 1):
        rows.append([n, 0, float(rng.normal()), 0.0])
        for m in range(1, n + 1):
            re, im = float(rng.normal()), float(rng.normal())
            sign = (-1)**m
            rows.append([n, m, re, im])
            rows.append([n, -m, sign*re, -sign*im])
    return rows


def build(name: str, seed: int) -> Workload:
    """The workload called name, with its data drawn from seed."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    if name == "kite-sweep":
        x0 = [float(v) for v in np.array([1.85, 1.65])
              + rng.uniform(-0.15, 0.15, 2)]
        return Workload(name, "run", {
            "problem": "2d-kite", "n": 200,
            "methods": ["ptr", "sub", "asym2", "asym3"],
            "eps_range": "1e-6:1e-1:25", "targets": "all-nodes", "x0": x0})
    if name == "hg-study":
        omega = [float(rng.uniform(0.3, np.pi - 0.3)),
                 float(rng.uniform(-np.pi, np.pi))]
        return Workload(name, "hg", {
            "problem": "hg", "eps_range": "1e-3:1e-1:25",
            "hg_field": _real_field(rng, 6), "hg_omega": omega})
    source = [float(v) for v in np.array([5.0, 4.0, 3.0])
              + rng.uniform(-0.5, 0.5, 3)]
    if name == "mushroom-sweep":
        return Workload(name, "run", {
            "problem": "3d-mushroom", "n": 16,
            "methods": ["numerical", "asym2"], "eps_range": "1e-4:1e-1:25",
            "targets": ["x1x3-slice", "x1x2-slice"], "source": source},
            cache="warm")
    target = [float(rng.uniform(0.8, 2.3)), float(rng.uniform(-np.pi, np.pi))]
    return Workload(name, "run", {
        "problem": "3d-mushroom", "n": 24,
        "methods": ["numerical", "asym2"], "eps_range": "1e-3:1e-1:5",
        "targets": [target], "source": source}, cache="empty")

"""Nystrom solution of the interior Dirichlet boundary integral equation in
the plane.

The harmonic function is represented as a double-layer potential with
density mu,

    u(x) = (1/2pi) int_B [nu_y . (x - y) / |x - y|^2] mu(y) dsigma(y),

and the boundary condition gives (K - 1/2 I) mu = f on B.  The operator is
discretized with the N-point periodic trapezoid rule; the kernel's
coincidence limit is -kappa(t) J(t) / 2, which makes the quadrature
spectrally accurate for analytic curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry2d import Curve2D, CurvePoint2D, curve_grid, point_inside

MIN_NODES = 16  # smallest (even) Nystrom node count
# Largest Nystrom node count.  Assembly holds (n, n, 2) kernel differences,
# about 48 n^2 bytes: a 2d-kite run peaks at 824 MB at n = 4096.
MAX_NODES = 4096


@dataclass(frozen=True, eq=False)
class DensityGrid2D:
    """Density samples on the N-node periodic grid, with the data that
    produced them and the curve geometry at the nodes."""

    curve: Curve2D
    n: int
    mu: np.ndarray
    f: np.ndarray
    geometry: CurvePoint2D


def dirichlet_data(curve: Curve2D, x0, n: int) -> np.ndarray:
    """Boundary samples of u(x) = -(1/2pi) log|x - x0| for an exterior
    source point x0."""
    x0 = np.asarray(x0, dtype=float)
    if point_inside(curve, x0):
        raise ValueError("source point must lie outside the curve")
    pos = curve_grid(curve, n).position
    r = np.linalg.norm(pos - x0, axis=-1)
    if np.min(r) < 1e-12:
        raise ValueError("source point coincides with the boundary")
    return -np.log(r)/(2*np.pi)


def harmonic_source(x, x0) -> np.ndarray:
    """The exact solution -(1/2pi) log|x - x0| at arbitrary points."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    return -np.log(np.linalg.norm(x - x0, axis=-1))/(2*np.pi)


def kernel_matrix(curve: Curve2D, n: int) -> np.ndarray:
    """PTR samples of the double-layer kernel times the Jacobian.

    Entry (i, j) is nu(t_j) . (y_i - y_j) / |y_i - y_j|^2 * J(t_j) for
    i != j, and the analytic coincidence limit -kappa J / 2 on the diagonal.
    """
    g = curve_grid(curve, n)
    diff = g.position[:, None, :] - g.position[None, :, :]
    r2 = np.sum(diff*diff, axis=-1)
    np.fill_diagonal(r2, 1.0)
    K = np.sum(g.normal[None, :, :]*diff, axis=-1)/r2*g.jacobian[None, :]
    np.fill_diagonal(K, -0.5*g.curvature*g.jacobian)
    return K

def assemble_nystrom(curve: Curve2D, n: int) -> np.ndarray:
    """Dense system matrix for (K - 1/2 I) mu = f at the PTR nodes."""
    if n < MIN_NODES or n > MAX_NODES or n % 2:
        raise ValueError(f"node count must be even and in [{MIN_NODES}, "
                         f"{MAX_NODES}]")
    return kernel_matrix(curve, n)/n - 0.5*np.eye(n)


def solve_density(curve: Curve2D, f: np.ndarray, n: int) -> DensityGrid2D:
    """Direct dense solve of the Nystrom system."""
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise ValueError("data samples must match the node count")
    A = assemble_nystrom(curve, n)
    mu = np.linalg.solve(A, f)
    resid = np.max(np.abs(A @ mu - f))
    if resid > 1e-12*max(np.max(np.abs(f)), 1.0):
        raise RuntimeError(f"Nystrom solve residual too large: {resid:.3e}")
    return DensityGrid2D(curve, n, mu, f, curve_grid(curve, n))


def dlp_sum(geometry: CurvePoint2D, x, mu):
    """PTR sum of the double-layer potential at x for density samples mu
    (an array over the grid nodes, or a constant):

        (1/n) sum_j nu_j . (x - y_j) / |x - y_j|^2 J_j mu_j.

    x is one point (returns a float) or stacked points of shape (k, 2)
    (returns one value per point).  No treatment of the near-singularity;
    every 2D quadrature of the potential is this sum with a different
    density."""
    x = np.asarray(x, dtype=float)
    diff = x[..., None, :] - geometry.position
    r2 = np.sum(diff*diff, axis=-1)
    K = np.sum(geometry.normal*diff, axis=-1)/r2
    out = np.sum(K*geometry.jacobian*mu, axis=-1)/geometry.jacobian.size
    return float(out) if x.ndim == 1 else out


def gauss_interior_value(curve: Curve2D, x, n: int) -> float:
    """PTR quadrature of the unit-density double-layer potential at x;
    equals -1 for interior points, up to quadrature error."""
    return dlp_sum(curve_grid(curve, n), x, 1.0)

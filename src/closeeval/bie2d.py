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
from functools import cached_property

import numpy as np

from .geometry2d import Curve2D, CurvePoint2D, curve_grid, point_inside
from .spectral import periodic_derivative

MIN_NODES = 16  # smallest (even) Nystrom node count
# Largest Nystrom node count.  Assembly holds five (n, n) arrays, 40 n^2
# bytes.
MAX_NODES = 4096
# Points per block of a stacked dlp_sum.  A block's kernel temporaries,
# a few times 8*32*n bytes, then stay below glibc's mmap threshold at the
# study sizes, so they are reused from the heap instead of being mapped
# and returned to the OS on every call.
_POINT_BLOCK = 32


@dataclass(frozen=True, eq=False)
class DensityGrid2D:
    """Density samples on the n-node periodic grid, with the data that
    produced them and the curve geometry at the nodes."""

    curve: Curve2D
    mu: np.ndarray
    f: np.ndarray
    geometry: CurvePoint2D

    @property
    def n(self) -> int:
        return self.mu.size

    @cached_property
    def derivatives(self):
        """(mu'', f', f'') at the nodes, spectral derivatives in the grid
        parameter; built on first use and kept, since every target's
        asymptotic coefficients read them."""
        return (periodic_derivative(self.mu, 2),
                periodic_derivative(self.f, 1),
                periodic_derivative(self.f, 2))


def dirichlet_data(curve: Curve2D, x0, n: int) -> np.ndarray:
    """Boundary samples of u(x) = -(1/2pi) log|x - x0| for an exterior
    source point x0."""
    x0 = np.asarray(x0, dtype=float)
    if point_inside(curve, x0):
        raise ValueError("source point must lie outside the curve")
    pos = curve_grid(curve, n).position
    with np.errstate(over="ignore"):  # a far source is refused just below
        if np.min(np.linalg.norm(pos - x0, axis=-1)) < 1e-12:
            raise ValueError("source point coincides with the boundary")
        data = harmonic_source(pos, x0)
    if not np.all(np.isfinite(data)):
        raise ValueError("source point too far away: the data overflow")
    return data


def harmonic_source(x, x0) -> np.ndarray:
    """The exact solution -(1/2pi) log|x - x0| at arbitrary points."""
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    return -np.log(np.linalg.norm(x - x0, axis=-1))/(2*np.pi)


def _kernel(geometry: CurvePoint2D, x) -> np.ndarray:
    """nu_j . (x - y_j) / |x - y_j|^2 J_j at points x of shape (..., 2), with
    a trailing axis over the nodes j; x and y components are taken apart, so
    nu_x dx + nu_y dy and dx^2 + dy^2 are single additions."""
    pos, nu = geometry.position, geometry.normal
    dx = x[..., 0, None] - pos[:, 0]
    dy = x[..., 1, None] - pos[:, 1]
    return (nu[:, 0]*dx + nu[:, 1]*dy)/(dx*dx + dy*dy)*geometry.jacobian


def kernel_matrix(curve: Curve2D, n: int) -> np.ndarray:
    """PTR samples of the double-layer kernel times the Jacobian.

    Entry (i, j) is nu(t_j) . (y_i - y_j) / |y_i - y_j|^2 * J(t_j) for
    i != j, and the analytic coincidence limit -kappa J / 2 on the diagonal.
    """
    g = curve_grid(curve, n)
    with np.errstate(invalid="ignore"):  # 0/0 on the diagonal
        K = _kernel(g, g.position)
    np.fill_diagonal(K, -0.5*g.curvature*g.jacobian)
    return K

def assemble_nystrom(curve: Curve2D, n: int) -> np.ndarray:
    """Dense system matrix for (K - 1/2 I) mu = f at the PTR nodes."""
    if n < MIN_NODES or n > MAX_NODES or n % 2:
        raise ValueError(f"node count must be even and in [{MIN_NODES}, "
                         f"{MAX_NODES}]")
    return kernel_matrix(curve, n)/n - 0.5*np.eye(n)


def solve_density(curve: Curve2D, f: np.ndarray) -> DensityGrid2D:
    """Direct dense solve of the Nystrom system at the n nodes of the data
    samples f."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("data samples must be a vector")
    n = f.size
    A = assemble_nystrom(curve, n)
    mu = np.linalg.solve(A, f)
    resid = np.max(np.abs(A @ mu - f))
    if resid > 1e-12*max(np.max(np.abs(f)), 1.0):
        raise RuntimeError(f"Nystrom solve residual too large: {resid:.3e}")
    return DensityGrid2D(curve, mu, f, curve_grid(curve, n))


def dlp_sum(geometry: CurvePoint2D, x, mu):
    """PTR sum of the double-layer potential at x for density samples mu:

        (1/n) sum_j nu_j . (x - y_j) / |x - y_j|^2 J_j mu_j.

    x is one point or stacked points of shape (k, 2).  mu is a constant,
    one density (an array over the grid nodes) or stacked densities of
    shape (d, n), which share the kernel.  The result has one value per
    density and point, shape (d, k) when both are stacked; a single
    density at a single point gives a float.  Each value is reduced as a
    one-point, one-density call reduces it, so stacking does not change
    a bit.  The points are summed _POINT_BLOCK at a time, so the kernel
    temporaries keep one small size whatever the number of points.  No
    treatment of the near-singularity; every 2D quadrature of the
    potential is this sum with a different density."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    lead = mu.shape[:-1]
    points = x.reshape(-1, 2)
    if mu.ndim > 1:  # a point axis between density and node
        mu = mu[..., None, :]
    out = np.empty(lead + (len(points),))
    for i in range(0, len(points), _POINT_BLOCK):
        part = slice(i, i + _POINT_BLOCK)
        out[..., part] = np.sum(_kernel(geometry, points[part])*mu, axis=-1)
    out = (out/geometry.jacobian.size).reshape(lead + x.shape[:-1])
    return float(out) if out.ndim == 0 else out

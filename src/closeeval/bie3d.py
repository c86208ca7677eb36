"""Galerkin solution of the 3D boundary integral equation in spherical-
harmonic coefficient space.

The double-layer operator is applied by a three-step quadrature: rotate the
parameter sphere so the singular point sits at the pole, average the
subtracted integrand over the azimuth with a 2N-point trapezoid rule, then
integrate the polar angle with an N-point mapped Gauss-Legendre rule.  The
subtraction uses the on-boundary Gauss identity, so the operator value for
a function g at a boundary point y0 is

    K g (y0) = (1/4pi) oint K(y0, y) [g(y) - g(y0)] dsigma  -  g(y0)/2.

Each Galerkin column applies the operator to one basis harmonic, which is
evaluable anywhere in closed form; the projection grid uses Gauss-Legendre
colatitudes so that analysis is exact for band-limited columns.

The rows of the Galerkin matrix are the 2N^2 nodes of that grid, each with
its own rotated quadrature grid.  The 2N rows of one colatitude differ only
by a turn about the x3-axis, under which Y_nm gains a phase e^{im phi}, so
the assembly evaluates the basis once per colatitude (N times in all) and
phases it for the other rows of that colatitude.  The quadrature grids of a
colatitude's rows are built in a few stacked blocks.  Only the m >= 0
columns are assembled: the kernel is real, so the others are their
conjugates (DECISIONS.md D10).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry3d import Surface3D, direction, rotated_frame, surface_point_and_normal
from .spectral import (SphericalCoeffs, analysis_operator, mapped_rule,
                       periodic_nodes, sph_half_basis, sph_synthesis)

# Largest Galerkin degree.  Assembly evaluates the basis at n grids of
# 2n^2 nodes (O(n^5) values) and spends O(n^6) flops in dense products.
MAX_DEGREE = 32
# Quadrature nodes per stacked block of Galerkin rows (see _row_block).
_BLOCK_NODES = 2**14


@dataclass(eq=False)
class Density3D:
    """Spherical-harmonic density representation tied to a surface, with
    the Dirichlet data sampler that produced it (None when unknown)."""

    surface: Surface3D
    coeffs: SphericalCoeffs
    data: Callable = None

    @property
    def N(self) -> int:
        return self.coeffs.N

    def __call__(self, theta, phi) -> np.ndarray:
        """Real density values at arbitrary parameters."""
        return np.real(sph_synthesis(self.coeffs, theta, phi))

    def save(self, path: str) -> None:
        """Write the coefficients as JSON, atomically: a temporary file in
        the same directory replaces path only once it is complete."""
        rows = []
        for n in range(self.N):
            for m in range(-n, n + 1):
                c = self.coeffs.get(n, m)
                rows.append([n, m, float(c.real), float(c.imag)])
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump({"N": self.N, "coeffs": rows}, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path: str, surface: Surface3D,
             data: Callable = None) -> "Density3D":
        """Read a file written by save; raises ValueError when its content
        is not a complete table of finite coefficients."""
        with open(path) as fh:
            payload = json.load(fh)
        try:
            out = SphericalCoeffs.zeros(int(payload["N"]))
            rows = payload["coeffs"]
            if len(rows) != out.N*out.N:
                raise ValueError("coefficient count does not match N")
            for n, m, re, im in rows:
                out.c[SphericalCoeffs.index(int(n), int(m))] = re + 1j*im
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed density file: {exc!r}") from None
        if not np.all(np.isfinite(out.c)):
            raise ValueError("density coefficients must be finite")
        return cls(surface, out, data)


def rotated_grid(surface: Surface3D, theta0, phi0, n: int):
    """The three-step quadrature grid whose pole sits at (theta0, phi0):
    the polar weights, shape (n, 1), then rotated_frame's (y, W, nu, theta,
    phi) on the mapped Gauss-Legendre x 2n-azimuth nodes.  Stacked poles
    (theta0, phi0 of shape (k,)) give k grids along a leading axis."""
    rule = mapped_rule(n)
    return (rule.weights[:, None],) + rotated_frame(
        surface, theta0, phi0, rule.nodes[:, None],
        periodic_nodes(2*n)[None, :])


def dlp_weights(grid, x):
    """Double-layer quadrature row for the point x on a rotated_grid:
    entries w_j K(x, y_jk) W_jk; x of shape (..., 1, 1, 3) stacks points,
    one row each.

    (1/4n) sum w_j K W g approximates (1/4pi) oint K(x, y) g(y) dsigma; the
    callers apply the 1/4n factor to their own sums, so no rounding is added
    when 4n is not a power of two.
    """
    w, y, W, nu, _, _ = grid
    diff = np.asarray(x, dtype=float) - y
    r2 = np.sum(diff*diff, axis=-1)
    kern = np.sum(nu*diff, axis=-1)/r2**1.5
    del diff, r2  # the largest arrays for stacked x: let the row reuse them
    return w*kern*W


def subtracted_weights(surface: Surface3D, theta0, phi0, n: int):
    """Kernel-times-area quadrature row for the rotated grid about a
    boundary target: entries (1/4pi) w_j dt K(y0, y_jk) W_jk, plus the node
    parameters needed to sample densities there.  Stacked targets (theta0,
    phi0 of shape (k,)) give one row each along a leading axis."""
    grid = rotated_grid(surface, theta0, phi0, n)
    y0, _ = surface_point_and_normal(surface, theta0, phi0)
    kw = (1.0/(4*n))*dlp_weights(grid, y0[..., None, None, :])
    return kw, grid[4], grid[5]


def apply_K_subtracted(surface: Surface3D, g: Callable, theta0: float,
                       phi0: float, n: int) -> float:
    """Boundary double-layer operator applied to g at (theta0, phi0).

    g(theta, phi) must be evaluable at arbitrary parameters.  The subtracted
    integrand vanishes when g is constant, so constants map to -g/2 exactly
    up to roundoff.
    """
    kw, theta, phi = subtracted_weights(surface, theta0, phi0, n)
    g0 = complex(np.asarray(g(np.full(1, theta0), np.full(1, phi0))).ravel()[0])
    vals = np.asarray(g(theta, phi))
    out = np.sum(kw*(vals - g0)) - 0.5*g0
    return out if np.iscomplexobj(vals) else float(np.real(out))


def assemble_galerkin(surface: Surface3D, n: int) -> np.ndarray:
    """Dense coefficient-space matrix of (K - 1/2 I), size n^2 by n^2.

    Column (n', m') holds the spherical analysis of the grid function
    produced by applying the boundary operator to Y_{n'm'} and subtracting
    half the harmonic again.
    """
    return _assemble(surface, n)[0]


def _assemble(surface: Surface3D, n: int):
    """The Galerkin matrix and the analysis_operator(n) it was built on,
    which a solve reuses to project its data."""
    if n > MAX_DEGREE:
        raise ValueError("coefficient degree beyond desk scale")
    TH, PH, G, P = analysis_operator(n)  # basis at the projection nodes
    nphi = 2*n
    m = np.concatenate([np.arange(-d, d + 1) for d in range(n)])
    half = np.flatnonzero(m >= 0)  # sph_half_basis's columns, in its order
    # rotation_matrix(theta, phi) = R_z(phi) rotation_matrix(theta, 0), so
    # the grid about (theta_i, phi_k) is the grid about (theta_i, phi_0)
    # turned by phi_k - phi_0, where Y_nm gains e^{im(phi_k - phi_0)}
    turn = np.exp(1j*np.outer(PH[0] - PH[0, 0], m[half]))
    block = _row_block(n)
    Ah = np.zeros((n*n, half.size), dtype=complex)
    KW = np.empty((nphi, 2*n*n))
    for i in range(n):
        for k in range(0, nphi, block):
            kw, theta, phi = subtracted_weights(surface, TH[i, k:k + block],
                                                PH[i, k:k + block], n)
            KW[k:k + block] = kw.reshape(len(kw), -1)
            if k == 0:
                base = theta[0], phi[0]
        rows = slice(i*nphi, (i + 1)*nphi)
        # operator applied to every m >= 0 basis column at once:
        # sum kw (Y - Y0)  -  Y0/2  -  Y0/2
        V = (turn*(KW @ sph_half_basis(*base, n))
             - G[rows, half]*(KW.sum(axis=1) + 1.0)[:, None])
        Ah += P[:, rows] @ V  # P @ V by colatitude: no (2n^2, n^2/2) V
    A = np.empty((n*n, n*n), dtype=complex)
    A[:, half] = Ah
    del Ah
    # a real kernel maps the real fields Y_nm + (-1)^m conj(Y_nm) to real
    # fields, so A[(n',m'), (n,-m)] = (-1)^(m+m') conj(A[(n',-m'), (n,m)])
    neg = np.flatnonzero(m < 0)
    mirror = np.arange(n*n) - 2*m  # flat slot of (n, -m)
    sign = (-1.0)**m
    mirrored = A[np.ix_(mirror, mirror[neg])]
    np.conj(mirrored, out=mirrored)
    mirrored *= np.outer(sign, sign[neg])
    A[:, neg] = mirrored
    return A, (TH, PH, G, P)


def _row_block(n: int) -> int:
    """Rows of one colatitude whose quadrature grids one stacked
    subtracted_weights call builds: equal blocks of at most _BLOCK_NODES
    grid nodes, so the geometry temporaries stay small beside the basis
    and projection that the assembly holds (DECISIONS.md D10)."""
    nphi, nodes = 2*n, 2*n*n
    blocks = -(-nphi*nodes//_BLOCK_NODES)
    return -(-nphi//blocks)


def project_boundary_data(f: Callable, n: int) -> SphericalCoeffs:
    """Spherical analysis of boundary data sampled on the projection grid."""
    return _project(f, analysis_operator(n))


def _project(f: Callable, operator) -> SphericalCoeffs:
    TH, PH, _, P = operator
    return SphericalCoeffs(TH.shape[0], P @ np.asarray(f(TH, PH)).ravel())


def solve_density3d(surface: Surface3D, f: Callable, n: int,
                    matrix: np.ndarray = None) -> Density3D:
    """Solve (K - 1/2 I) mu = f for the density coefficients.

    f(theta, phi) samples the Dirichlet data at surface parameters.  Pass a
    precomputed Galerkin matrix to skip assembly (it dominates the cost).
    """
    if matrix is None:
        A, operator = _assemble(surface, n)  # one analysis_operator per solve
    else:
        A, operator = matrix, analysis_operator(n)
    fhat = _project(f, operator)
    del operator  # its basis and projection, 21 MB at n=24, before the solve
    muhat = np.linalg.solve(A, fhat.c)
    resid = np.max(np.abs(A @ muhat - fhat.c))
    if resid > 1e-10*max(np.max(np.abs(fhat.c)), 1.0):
        raise RuntimeError(f"Galerkin solve residual too large: {resid:.3e}")
    return Density3D(surface, SphericalCoeffs(n, muhat), f)


def harmonic_point_source_3d(surface: Surface3D, source) -> Callable:
    """Boundary sampler of u(x) = 1/|x - source| for an exterior source."""
    src = np.asarray(source, dtype=float)
    if surface.contains(src):
        raise ValueError("source point must lie outside the surface")

    def data(theta, phi):
        y = surface.point_of_direction(direction(theta, phi))
        return 1.0/np.linalg.norm(y - src, axis=-1)

    return data


def exact_point_source_3d(x, source) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 1.0/np.linalg.norm(x - np.asarray(source, dtype=float), axis=-1)


def dlp_far_3d(density: Density3D, x, n: int = 32) -> float:
    """Plain three-step quadrature of the double-layer potential at an
    interior point well separated from the boundary (any grid pole serves;
    this one is fixed at (0.9, 0.3))."""
    grid = rotated_grid(density.surface, 0.9, 0.3, n)
    return float((1.0/(4*n))*np.sum(dlp_weights(grid, x)*density(*grid[4:])))


def gauss_interior_value_3d(surface: Surface3D, x, n: int) -> float:
    """Three-step quadrature of the unit-density double-layer potential at
    an interior point, on the grid with its pole at (1.0, 0.5); equals -1
    up to quadrature error."""
    w = dlp_weights(rotated_grid(surface, 1.0, 0.5, n), x)
    return float((1.0/(4*n))*np.sum(w))

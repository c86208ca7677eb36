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
its own rotated quadrature grid, built in a few stacked blocks per
colatitude.  Every row's grid is the same local (s, t) grid, rotated by
R_z(phi_k) R_y(theta_i).  So a row's kernel weights are projected onto
local harmonics (an FFT over t and one Legendre table at the N polar
nodes), turned to global harmonics by the Wigner matrices d^l(theta_i),
and phased by e^{im phi_k}; the basis is evaluated only at the N row poles
(theta_i, 0) (DECISIONS.md D14).  Only the m >= 0 columns are assembled:
the kernel is real, so the others are their conjugates (DECISIONS.md D10).
Each colatitude's longitude FFT is kept, and the projection contracts them
over colatitudes once per order (DECISIONS.md D11, D14).
"""

from __future__ import annotations

import json
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry3d import (Surface3D, _rotated_frame, direction,
                         direction_angles, surface_point_and_normal)
from .spectral import (SphericalCoeffs, _analysis, _jy_eigenvectors,
                       _legendre_table, _tri, _wigner_d, analysis_grid,
                       mapped_rule, periodic_nodes, sph_analysis,
                       sph_half_basis, sph_synthesis)

# Largest Galerkin degree.  Assembly builds 2n^2 rotated grids of 2n^2
# nodes (O(n^4) geometry) and reaches the basis through local harmonics and
# Wigner rotations (O(n^5) flops); it holds the matrix and the rows' spectra,
# n^4 complex values each.  A mushroom solve at n = 64 takes about 25 s and
# 560 MB on one BLAS thread.
MAX_DEGREE = 64
# Revision of the Galerkin solver that saved densities record; raise it
# whenever the assembled matrix changes, so that densities solved by
# earlier code are solved again instead of trusted.
SOLVER_REVISION = 1
# Quadrature nodes per stacked block of Galerkin rows (see _row_block).
_BLOCK_NODES = 2**14


@contextmanager
def _atomic_write(path: str):
    """Write path through a temporary file in its directory, which
    replaces path only if the block completes; lines end in a bare LF."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _integer(value) -> int:
    """An integral number as an int; a bool, a string or a number with a
    fractional part is refused, not truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


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

    def save(self, path: str, record: dict = None) -> None:
        """Write the coefficients as JSON, atomically: a temporary file in
        the same directory replaces path only once it is complete.  A record
        (JSON values, such as the problem and the source) is stored with
        SOLVER_REVISION, for load to check."""
        rows = []
        for n in range(self.N):
            for m in range(-n, n + 1):
                c = self.coeffs.get(n, m)
                rows.append([n, m, float(c.real), float(c.imag)])
        payload = {"N": self.N, "coeffs": rows}
        if record is not None:
            payload["record"] = dict(record, solver=SOLVER_REVISION)
        with _atomic_write(path) as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path: str, surface: Surface3D, data: Callable = None,
             record: dict = None) -> "Density3D":
        """Read a file written by save; raises ValueError when its content
        is not a table of finite coefficients that gives each (n, m) of
        degree below N once, with integral N, n and m, or, given a record,
        when the file's record is missing or is not that record with this
        SOLVER_REVISION."""
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("malformed density file: not a JSON object")
        if record is not None and payload.get("record") != dict(
                record, solver=SOLVER_REVISION):
            raise ValueError("density file was solved for another problem, "
                             "source or solver revision")
        try:
            N, rows = _integer(payload["N"]), payload["coeffs"]
            if len(rows) != N*N:
                raise ValueError("coefficient count does not match N")
            slots = [SphericalCoeffs.index(_integer(n), _integer(m))
                     for n, m, _, _ in rows]
            if len(set(slots)) != len(slots):
                raise ValueError("a coefficient (n, m) is given twice")
            out = SphericalCoeffs.zeros(N)
            out.c[slots] = [re + 1j*im for _, _, re, im in rows]
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed density file: {exc!r}") from None
        if not np.all(np.isfinite(out.c)):
            raise ValueError("density coefficients must be finite")
        return cls(surface, out, data)


@lru_cache(maxsize=8)
def _local_grid(n: int):
    """rotated_grid's polar weights, shape (n, 1), and the directions
    d(s, t) and area factor sin(s) of its unrotated (n, 2n) grid, built once
    per n; read-only, since every call shares them."""
    rule = mapped_rule(n)
    S, T = np.broadcast_arrays(rule.nodes[:, None],
                               periodic_nodes(2*n)[None, :])
    out = (rule.weights[:, None], direction(S, T), np.sin(S))
    for a in out:
        a.setflags(write=False)
    return out


def rotated_grid(surface: Surface3D, theta0, phi0, n: int):
    """The three-step quadrature grid whose pole sits at (theta0, phi0):
    the polar weights, shape (n, 1), then rotated_frame's (y, area-weighted
    normal, direction) on the mapped Gauss-Legendre x 2n-azimuth nodes.
    Stacked poles (theta0, phi0 of shape (k,)) give k grids along a leading
    axis.  The unrotated grid's directions are built once per n."""
    weights, local, jacobian = _local_grid(n)
    return (weights,) + _rotated_frame(surface, theta0, phi0, local,
                                       jacobian)


def dlp_weights(grid, x):
    """Double-layer quadrature row for the point x on a rotated_grid:
    entries w_j K(x, y_jk) W_jk; x of shape (..., 1, 1, 3) stacks points,
    one row each.

    (1/4n) sum w_j K W g approximates (1/4pi) oint K(x, y) g(y) dsigma; the
    callers apply the 1/4n factor to their own sums, so no rounding is added
    when 4n is not a power of two.
    """
    w, y, area_normal, _ = grid
    diff = np.asarray(x, dtype=float) - y
    r2 = _dot(diff, diff)
    kern = _dot(area_normal, diff)/(r2*np.sqrt(r2))
    del diff, r2  # the largest arrays for stacked x: let the row reuse them
    return w*kern


def _dot(a, b):
    """Dot products of 3-vectors along the last axis."""
    return np.einsum("...i,...i->...", a, b)


def subtracted_weights(surface: Surface3D, theta0, phi0, n: int):
    """Kernel-times-area quadrature row for the rotated grid about a
    boundary target: entries (1/4pi) w_j dt K(y0, y_jk) W_jk, plus the node
    directions, where a density is sampled.  Stacked targets (theta0, phi0
    of shape (k,)) give one row each along a leading axis."""
    grid = rotated_grid(surface, theta0, phi0, n)
    y0, _ = surface_point_and_normal(surface, theta0, phi0)
    kw = (1.0/(4*n))*dlp_weights(grid, y0[..., None, None, :])
    return kw, grid[3]


def apply_K_subtracted(surface: Surface3D, g: Callable, theta0: float,
                       phi0: float, n: int) -> float:
    """Boundary double-layer operator applied to g at (theta0, phi0).

    g(theta, phi) must be evaluable at arbitrary parameters.  The subtracted
    integrand vanishes when g is constant, so constants map to -g/2 exactly
    up to roundoff.
    """
    kw, d = subtracted_weights(surface, theta0, phi0, n)
    g0 = complex(np.asarray(g(np.full(1, theta0), np.full(1, phi0))).ravel()[0])
    vals = np.asarray(g(*direction_angles(d, phi0)))
    out = np.sum(kw*(vals - g0)) - 0.5*g0
    return out if np.iscomplexobj(vals) else float(np.real(out))


def assemble_galerkin(surface: Surface3D, n: int) -> np.ndarray:
    """Dense coefficient-space matrix of (K - 1/2 I), size n^2 by n^2.

    Column (n', m') holds the spherical analysis of the grid function
    produced by applying the boundary operator to Y_{n'm'} and subtracting
    half the harmonic again.
    """
    if n > MAX_DEGREE:
        raise ValueError(f"coefficient degree {n} beyond desk scale: the "
                         f"Galerkin assembly supports n <= {MAX_DEGREE}")
    th, wth, ph = analysis_grid(n)
    nphi = 2*n
    m = np.concatenate([np.arange(-d, d + 1) for d in range(n)])
    half = np.flatnonzero(m >= 0)  # sph_half_basis's columns, in its order
    # rotation_matrix(theta, phi) = R_z(phi) R_y(theta): the grid about
    # (theta_i, phi_k) is the grid about (theta_i, 0) turned by phi_k, where
    # Y_nm gains e^{im phi_k}
    turn = np.exp(1j*np.outer(ph, m[half]))
    rule = mapped_rule(n)
    local = _legendre_table(np.cos(rule.nodes), np.sin(rule.nodes), n)
    eigvecs = [_jy_eigenvectors(d) for d in range(n)]
    block = _row_block(n)
    spectra = np.empty((n, nphi, half.size), dtype=complex)
    KW = np.empty((nphi, n, nphi))
    for i in range(n):
        for k in range(0, nphi, block):
            phi = ph[k:k + block]
            KW[k:k + block] = subtracted_weights(
                surface, np.full(phi.size, th[i]), phi, n)[0]
        # operator applied to every m >= 0 basis column at once:
        # sum kw (Y - Y0)  -  Y0/2  -  Y0/2, with Y0 turned like the grid
        Y0 = sph_half_basis(th[i:i + 1], np.zeros(1), n)
        V = turn*(_rotated_sums(KW, local, th[i], eigvecs).T
                  - Y0*(KW.sum(axis=(1, 2)) + 1.0)[:, None])
        spectra[i] = np.fft.fft(V, axis=0)
    del V, KW
    Ah = _analysis(spectra, th, wth)
    del spectra
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
    return A


def _rotated_sums(KW, local, beta, eigvecs):
    """sum_jq kw_jq Y_lm(R_y(beta) d(s_j, t_q)) for every row kw of KW
    (rows, n, 2n) and every 0 <= m <= l < n, shape (n(n+1)/2, rows).

    Each row's local coefficients c_lm' = sum_jq kw_jq Y_lm'(s_j, t_q) come
    from an FFT over the 2n azimuths t_q = -pi + pi q/n, where
    sum_q kw_q e^{im't_q} = (-1)^m' conj(rfft(kw)[m']), and one product per
    order m' with the Legendre table local at the polar nodes s_j.  kw is
    real, so c_{l,-m'} = (-1)^m' conj(c_lm').  The Wigner matrices d^l(beta)
    carry them to Y_lm(R_y(beta) .) (DECISIONS.md D14)."""
    rows, n = KW.shape[0], KW.shape[1]
    # (m', j, row), contiguous, so each order is one real product
    F = np.ascontiguousarray(np.fft.rfft(KW)[..., :n].transpose(2, 1, 0))
    out = np.empty((local.shape[0], rows), dtype=complex)
    for mp in range(n):
        slots = _tri(np.arange(mp, n)) + mp
        out[slots] = (local[slots] @ F[mp].view(float)).view(complex)
    for l in range(n):
        # X = out[l's slots] = sum_j Pbar rfft(kw), so c_lm' is
        # (-1)^m' conj(X_m') and c_{l,-m'} is X_m'.  With d_+ the columns
        # m' >= 0 of d^l, d_- the columns -m' <= 0 with m' = 0 zeroed, and
        # S = diag((-1)^m'),
        # sum_m' d_mm' c_lm' = (d_+ S + d_-) Re X - i (d_+ S - d_-) Im X
        X = out[_tri(l):_tri(l + 1)]
        d = _wigner_d(eigvecs[l], beta, l)
        plus, minus = d[:, l:]*(-1.0)**np.arange(l + 1), d[:, l::-1]
        minus[:, 0] = 0.0
        re = (plus + minus) @ X.real
        im = (plus - minus) @ X.imag
        X.real, X.imag = re, -im
    return out


def _row_block(n: int) -> int:
    """Rows of one colatitude whose quadrature grids one stacked
    subtracted_weights call builds: equal blocks of at most _BLOCK_NODES
    grid nodes, so the geometry temporaries stay small beside the matrix
    that the assembly holds (DECISIONS.md D10)."""
    nphi, nodes = 2*n, 2*n*n
    blocks = -(-nphi*nodes//_BLOCK_NODES)
    return -(-nphi//blocks)


def project_boundary_data(f: Callable, n: int) -> SphericalCoeffs:
    """Spherical analysis of boundary data sampled on the projection grid."""
    theta, _, phi = analysis_grid(n)
    return sph_analysis(np.asarray(f(*np.meshgrid(theta, phi,
                                                  indexing="ij"))), n)


def solve_density3d(surface: Surface3D, f: Callable, n: int,
                    matrix: np.ndarray = None) -> Density3D:
    """Solve (K - 1/2 I) mu = f for the density coefficients.

    f(theta, phi) samples the Dirichlet data at surface parameters.  Pass a
    precomputed Galerkin matrix to skip assembly (it dominates the cost).
    """
    A = assemble_galerkin(surface, n) if matrix is None else matrix
    fhat = project_boundary_data(f, n)
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
        return exact_point_source_3d(
            surface.point_of_direction(direction(theta, phi)), src)

    return data


def exact_point_source_3d(x, source) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 1.0/np.linalg.norm(x - np.asarray(source, dtype=float), axis=-1)


def gauss_interior_value_3d(surface: Surface3D, x, n: int) -> float:
    """Three-step quadrature of the unit-density double-layer potential at
    an interior point, on the grid with its pole at (1.0, 0.5); equals -1
    up to quadrature error."""
    w = dlp_weights(rotated_grid(surface, 1.0, 0.5, n), x)
    return float((1.0/(4*n))*np.sum(w))

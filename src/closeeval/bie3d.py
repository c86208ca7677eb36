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

Every surface here maps to itself under x1 -> -x1 and x2 -> -x2, that is
phi -> pi - phi and phi -> -phi, and the operator commutes with both.  So
in the real harmonic basis (Y_n0, sqrt2 Re Y_nm, sqrt2 Im Y_nm) the matrix
is four real blocks, (m even, m odd) x (cos, sin), each about N^2/4
square; they are assembled, stored and solved apart (DECISIONS.md D19).
The rows are the nodes (theta_i, phi_j) of that grid, each with its own
rotated quadrature grid, but only those at 0 <= phi_j <= pi/2 are computed:
the reflections give the others, and a row enters the longitude sums once
per point of its orbit.  Every row's grid is the same local (s, t) grid,
rotated by R_z(phi_j) R_y(theta_i), and a linear map of the grid about
(theta_i, 0), from which a colatitude's rows are built (DECISIONS.md D32).
So a row's kernel weights are projected onto local harmonics (an FFT over
t and one Legendre table at the N polar nodes), turned to global harmonics
by d^l(theta_i) (_rotated_rows,
once per degree for a block of colatitudes; DECISIONS.md D31) and phased by
e^{im phi_j}; the basis is evaluated only at the N row poles (theta_i, 0)
(DECISIONS.md D14).

Close evaluation reaches a density on a target's rotated grid by the
transpose: the density's coefficients are rotated to the target by the
same _rotated_rows, and the same Legendre table and one product with a
table of the azimuthal waves give its values (DECISIONS.md D30).
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

from .geometry3d import (Surface3D, direction, rotation_matrix,
                         surface_point_and_normal)
from .spectral import (SphericalCoeffs, _legendre_table, _rotated_coefficients,
                       _rotated_rows, _tri, analysis_grid, mapped_rule,
                       periodic_nodes, sph_analysis)

# Largest Galerkin degree.  Assembly builds N rotated grids of 2N^2 nodes
# and N^2(N/2 + 1) kernel rows from them, reaches the basis through local
# harmonics and their rotation, and holds the four real blocks: O(N^5)
# flops, N^4/4 stored values.
MAX_DEGREE = 96
# Revision of the Galerkin solver that saved densities record; raise it
# whenever the assembled matrix changes, so that densities solved by
# earlier code are solved again instead of trusted.
SOLVER_REVISION = 5
# Local-coefficient and longitude-sum values per block of colatitudes (see
# _colatitude_block): 16 MB, every colatitude at once up to n = 38.
_COLATITUDE_VALUES = 2**21


@contextmanager
def _atomic_write(path: str):
    """Write path through a temporary file in its directory, which
    replaces path only if the block completes; lines end in a bare LF.
    An OSError names path, not the temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), path) from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _integer(value) -> int:
    """An integral number as an int; a bool, a string or a number with a
    fractional part is refused, not truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, numbers.Integral))
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"must be an integer, not {value!r}")
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
            fh.write(json.dumps(payload))

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
    """rotated_grid's polar weights, shape (n, 1), the directions d(s, t)
    and area factor sin(s) of its unrotated (n, 2n) grid, the Legendre
    table at its n polar nodes s_j as one pair per order m' (the slots
    _tri(l) + m' for l = m'..n-1, the contiguous rows there), and the
    azimuthal table of _rotated_synthesis, built once per n; read-only,
    since every call shares them.

    Row 2m' of the azimuthal table is a_m' cos(m't_q) and row 2m' + 1 is
    -a_m' sin(m't_q) at the 2n azimuths t_q = -pi + pi q/n, with a_0 = 1
    and a_m' = 2 for m' > 0: a row of interleaved (Re G_m', Im G_m') times
    it is Re sum_m' a_m' G_m' e^{im't_q}.  The phase m't_q is taken as
    pi (m'q mod 2n)/n plus m'pi, which is exact in the integers, so no
    rounding of the angle grows with m'."""
    rule = mapped_rule(n)
    t = periodic_nodes(2*n)
    S, T = np.broadcast_arrays(rule.nodes[:, None], t[None, :])
    order = np.arange(n)[:, None]
    phase = np.pi*((order*np.arange(2*n)) % (2*n))/n
    scale = np.where(order > 0, 2.0, 1.0)*(-1.0)**order
    waves = np.stack([scale*np.cos(phase), -scale*np.sin(phase)],
                     axis=1).reshape(2*n, 2*n)
    table = _legendre_table(np.cos(rule.nodes), np.sin(rule.nodes), n)
    orders = tuple((slots, table[slots]) for slots in
                   (_tri(np.arange(mp, n)) + mp for mp in range(n)))
    out = (rule.weights[:, None], direction(S, T), np.sin(S), orders, waves)
    for a in (*out[:3], *sum(orders, ()), waves):
        a.setflags(write=False)
    return out


def rotated_grid(surface: Surface3D, theta0: float, phi0: float, n: int):
    """The three-step quadrature grid whose pole sits at (theta0, phi0):
    the polar weights, shape (n, 1), then the position and area-weighted
    normal (the unit normal times the rotated area element, which absorbs
    the sin(s) pole factor) at the directions R(theta0, phi0) d(s, t) of
    the mapped Gauss-Legendre x 2n-azimuth nodes."""
    weights, local, jacobian, _, _ = _local_grid(n)
    R = rotation_matrix(theta0, phi0)
    d = (local.reshape(-1, 3) @ R.T).reshape(local.shape)
    return (weights,) + surface.area_normal(d, jacobian)


def _rotated_synthesis(coeffs: SphericalCoeffs, theta0: float,
                       phi0: float):
    """(mu*, mu): the real part of the expansion coeffs at the pole
    (theta0, phi0) and at the nodes of rotated_grid about it at the degree
    N = coeffs.N, shape (N, 2N).

    The transpose of the assembly's rotated sums (_local_coefficients,
    _rotate_block).  The grid is the local (s, t) grid
    turned by R = rotation_matrix(theta0, phi0), so mu(R d(s_j, t_q)) is
    the local expansion with the rotated coefficients b_lm'
    (spectral._rotated_coefficients), a real function: b_l0 Y_l0 plus
    2 Re sum_m'>0 b_lm' Y_lm'.  One product per order m' with the Legendre
    table at the polar nodes sums it over l, into G_jm', and one product
    with the azimuthal table of _local_grid sums it over m' at the 2N
    azimuths.  At the pole s = 0 only m' = 0 is left:
    mu* = sum_l b_l0 sqrt((2l+1)/4pi) (DECISIONS.md D30)."""
    N = coeffs.N
    _, _, _, orders, waves = _local_grid(N)
    b = _rotated_coefficients(coeffs, theta0, phi0)
    degree = np.arange(N)
    mu_star = float(b[orders[0][0]].real @ np.sqrt((2*degree + 1)/(4*np.pi)))
    # (polar node j, order m', re/im)
    G = np.empty((N, N, 2))
    parts = b.view(float).reshape(-1, 2)
    for mp, (slots, table) in enumerate(orders):
        G[:, mp] = table.T @ parts[slots]
    return mu_star, G.reshape(N, 2*N) @ waves


def dlp_weights(grid, x):
    """Double-layer quadrature row for the point x on a rotated_grid:
    entries w_j K(x, y_jk) W_jk; x of shape (..., 1, 1, 3) stacks points,
    one row each.

    (1/4n) sum w_j K W g approximates (1/4pi) oint K(x, y) g(y) dsigma; the
    callers apply the 1/4n factor to their own sums, so no rounding is added
    when 4n is not a power of two.  The x, y and z components are taken
    apart, as in the 2D kernel, so each dot product is two additions.

    The temporaries, the largest arrays for stacked x, are one workspace
    filled in place, with the row as scratch before it is written, in the
    order of (nu . d)/(r^2 sqrt(r^2)) with r^2 = (dx dx + dy dy) + dz dz.
    One allocation per call, larger than any other of a 3D sweep, makes
    glibc's malloc keep the heap between targets; five separate ones were
    returned to the system and faulted in again on every target
    (DECISIONS.md D30).
    """
    w, y, area_normal = grid
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    dx, dy, dz, r2 = np.empty((4,) + shape)
    row = np.empty(shape)
    for i, d in enumerate((dx, dy, dz)):
        np.subtract(x[..., i], y[..., i], out=d)
    np.multiply(dx, dx, out=r2)
    r2 += np.multiply(dy, dy, out=row)
    r2 += np.multiply(dz, dz, out=row)
    kern = np.multiply(area_normal[..., 0], dx, out=dx)
    kern += np.multiply(area_normal[..., 1], dy, out=dy)
    kern += np.multiply(area_normal[..., 2], dz, out=dz)
    return _kernel(w, kern, r2, dy, row)


def _kernel(w, num, r2, root, out):
    """The tail of both 3D kernels: w num/(r^2 sqrt(r^2)) written to out,
    with r2 overwritten and root, of r2's shape, as scratch."""
    r2 *= np.sqrt(r2, out=root)
    np.divide(num, r2, out=out)
    return np.multiply(w, out, out=out)


def subtracted_weights(surface: Surface3D, theta0: float, phi0, n: int):
    """Kernel-times-area quadrature rows for the rotated grids about the
    boundary targets (theta0, phi0): entries (1/4pi) w_j dt K(y0, y_jk) W_jk,
    shape (n, 2n), or one row per entry of a vector phi0.  All come from
    the grid about (theta0, 0), which the turn by phi maps by
    A = S R_z(phi) S^-1 (Surface3D): the numerator W . (y0 - y) is the same
    for every phi, and r^2 is (y0 - y)^T A^T A (y0 - y) (DECISIONS.md D32).
    """
    w, y, area_normal = rotated_grid(surface, theta0, 0.0, n)
    y0, _ = surface_point_and_normal(surface, theta0, 0.0)
    c, s, q = np.cos(phi0), np.sin(phi0), surface.axes[1]/surface.axes[0]
    g = np.stack([c*c + (s*q)**2, c*c + (s/q)**2, np.ones_like(c),
                  2*c*s*(q - 1/q)], axis=-1).reshape(-1, 4)
    # one workspace, filled in place: the rows, then dx, dy, dz (squared
    # for the product with g), dx dy and the numerator
    work = np.empty((len(g) + 5,) + y.shape[:-1])
    out, terms, num = work[:-5], work[-5:-1], work[-1]
    dx, dy, dz, dxy = terms
    np.subtract(y0, y, out=np.moveaxis(terms[:3], 0, -1))
    np.multiply(area_normal[..., 0], dx, out=num)
    num += np.multiply(area_normal[..., 1], dy, out=dxy)
    num += np.multiply(area_normal[..., 2], dz, out=dxy)
    np.multiply(dx, dy, out=dxy)
    np.square(terms[:3], out=terms[:3])
    np.matmul(g, terms.reshape(4, -1), out=out.reshape(len(g), -1))
    w = (1.0/(4*n))*w
    for r2 in out:  # the tail row by row, with dx dy as scratch
        _kernel(w, num, r2, dxy, r2)
    return out.reshape(np.shape(phi0) + y.shape[:-1])


def assemble_galerkin(surface: Surface3D, n: int) -> tuple:
    """(K - 1/2 I) in the real harmonic basis: four real square blocks, one
    per block of _real_basis(n), which the operator does not couple
    (DECISIONS.md D19).

    Entry ((n', m'), (n, m)) of a block is the real analysis, onto the
    n'm' function, of the grid function produced by applying the boundary
    operator to the nm function and subtracting half of it again.
    """
    if n > MAX_DEGREE:
        raise ValueError(f"coefficient degree {n} beyond desk scale: the "
                         f"Galerkin assembly supports n <= {MAX_DEGREE}")
    th, wth, ph = analysis_grid(n)
    # the rows at 0 <= phi_j = pi j/n <= pi/2 stand for the others: each is
    # counted once per point of its orbit under phi -> -phi, phi -> pi - phi
    quarter = ph[n:n + n//2 + 1]
    j = np.arange(quarter.size)
    orbit = 4.0 - 2*(j == 0) - 2*(2*j == n)
    waves = np.arange(n)[:, None]*quarter
    cos_sum, sin_sum = orbit*np.cos(waves), orbit*np.sin(waves)
    # the order m of each column of the m >= 0 harmonics
    order = np.concatenate([np.arange(d + 1) for d in range(n)])
    # rotation_matrix(theta, phi) = R_z(phi) R_y(theta): the grid about
    # (theta_i, phi_j) is the grid about (theta_i, 0) turned by phi_j, where
    # Y_nm gains e^{im phi_j}
    turn = np.exp(1j*np.outer(quarter, order))
    by_order = _local_grid(n)[3]
    # the m >= 0 harmonics at the row poles (theta_i, 0) are the Legendre
    # values there, which the analysis also weighs
    P = _legendre_table(np.cos(th), np.sin(th), n)
    poles, wP = P.T, P*((np.pi/n)*wth)
    # per block: its functions' m >= 0 harmonic columns, their orders and the
    # rows of each order (the functions run by order, then by degree)
    basis = []
    for dn, dm in _real_basis(n):
        # dm is sorted and m >= 0, so its distinct orders are where it steps
        orders = dm[np.diff(dm, prepend=-1) != 0]
        basis.append((_tri(dn) + dm, orders,
                       np.append(np.searchsorted(dm, orders), dm.size)))
    blocks = [np.zeros((cols.size, cols.size)) for cols, _, _ in basis]
    chunk = _colatitude_block(n)
    for first in range(0, n, chunk):
        part = slice(first, min(first + chunk, n))
        # by (harmonic, row, colatitude): a degree's rows are stacked columns
        X = np.empty((_tri(n), quarter.size, part.stop - first),
                     dtype=complex)
        total = np.empty(X.shape[1:])
        for c, i in enumerate(range(first, part.stop)):
            KW = subtracted_weights(surface, th[i], quarter, n)
            X[..., c] = _local_coefficients(KW, by_order)
            total[:, c] = KW.sum(axis=(1, 2))
            del KW  # freed before the next colatitude's rows are allocated
        _rotate_block(X, th[part], n)
        sums = [np.empty((orders.size, X.shape[2], cols.size))
                for cols, orders, _ in basis]
        for c, i in enumerate(range(first, part.stop)):
            # operator applied to every m >= 0 harmonic at once:
            # sum kw (Y - Y0)  -  Y0/2  -  Y0/2, with Y0 turned like the grid
            V = turn*(X[..., c].T - poles[i]*(total[:, c] + 1.0)[:, None])
            # longitude sums of Re V (cos functions) and Im V (sin
            # functions) against cos m'phi and sin m'phi
            for (cols, orders, _), T, weights, field in zip(
                    basis, sums, (cos_sum, sin_sum)*2, (V.real, V.imag)*2):
                T[:, c] = weights[orders] @ field[:, cols]
        # the sums against the Legendre rows over these colatitudes, one
        # product per order
        for B, (cols, _, edges), T in zip(blocks, basis, sums):
            for k, Tm in enumerate(T):
                r = slice(edges[k], edges[k + 1])
                B[r] += wP[cols[r], part] @ Tm
    # the cos and sin functions with m > 0 are sqrt2 Re Y and sqrt2 Im Y
    for B, (cols, _, _) in zip(blocks, basis):
        scale = np.where(order[cols] > 0, np.sqrt(2.0), 1.0)
        B *= np.outer(scale, scale)
    return tuple(blocks)


def _local_coefficients(KW, orders):
    """X_m' = sum_j Pbar_lm'(s_j) rfft(kw_j)[m'] for every row kw of KW
    (rows, n, 2n) and 0 <= m' <= l < n, shape (n(n+1)/2, rows), with orders
    the Legendre table at the polar nodes s_j by order (_local_grid).  A
    row's local sums
    c_lm' = sum_jq kw_jq Y_lm'(s_j, t_q) are c_lm' = (-1)^m' conj(X_m') and
    c_{l,-m'} = X_m', since sum_q kw_q e^{im't_q} = (-1)^m'
    conj(rfft(kw)[m']) at t_q = -pi + pi q/n and kw is real
    (DECISIONS.md D14)."""
    rows, n = KW.shape[0], KW.shape[1]
    # (m', j, row), contiguous, so each order is one real product
    F = np.ascontiguousarray(np.fft.rfft(KW)[..., :n].transpose(2, 1, 0))
    out = np.empty((n*(n + 1)//2, rows), dtype=complex)
    for Fm, (slots, table) in zip(F, orders):
        out[slots] = (table @ Fm.view(float)).view(complex)
    return out


def _rotate_block(X, theta, n: int):
    """Turn X (n(n+1)/2, rows, colatitudes) of _local_coefficients in place
    into sum_jq kw_jq Y_lm(R_y(theta_c) d(s_j, t_q)) for each row kw at
    colatitude theta_c, one _rotated_rows call per degree (D31)."""
    sign = (-1.0)**np.arange(n)[:, None]
    # e^{-ik theta_c} for k = 1-n..n-1 and each column (row, colatitude)
    k = np.arange(1 - n, n)[:, None]
    turn = np.exp(-1j*k*np.tile(theta, X.shape[1]))
    for l in range(n):
        Xl = X[_tri(l):_tri(l + 1)].reshape(l + 1, -1)
        c = np.concatenate((Xl[::-1], sign[1:l + 1]*np.conj(Xl[1:])))
        Xl[:] = _rotated_rows(c, turn[n - 1 - l:n + l])


def _colatitude_block(n: int) -> int:
    """Colatitudes whose local coefficients (n(n+1)/2 complex values for
    each of n/2 + 1 rows) and longitude sums the assembly holds at once,
    about n^3 values each: equal blocks of at most _COLATITUDE_VALUES
    values, so they stay small beside the four blocks (n^4/4 values) at
    high degree (DECISIONS.md D19, D31)."""
    blocks = -(-n*n**3//_COLATITUDE_VALUES)
    return -(-n//blocks)


def _real_basis(N: int) -> list:
    """The real orthonormal harmonics of degree below N in four blocks:
    (m even, cos), (m even, sin), (m odd, cos), (m odd, sin).  The cos
    functions are Y_n0 and sqrt2 Re Y_nm, the sin functions sqrt2 Im Y_nm
    (m >= 1).  Per block, the degree n and order m >= 0 of each function,
    by ascending m and then n."""
    out = []
    for parity in (0, 1):
        for first in (parity, parity or 2):
            pairs = [(d, m) for m in range(first, N, 2) for d in range(m, N)]
            out.append(tuple(np.array(pairs, dtype=int).reshape(-1, 2).T))
    return out


def _to_real(c: np.ndarray, N: int) -> list:
    """Complex coefficients c (N^2,) in the real basis, one vector per
    block of _real_basis(N): <f, C_nm> = (c_nm + (-1)^m c_{n,-m})/sqrt2 and
    <f, S_nm> = i (c_nm - (-1)^m c_{n,-m})/sqrt2, and <f, Y_n0> = c_n0 as
    the half sum of c_n0 twice.  The vectors are complex when f is not
    real."""
    out = []
    for (n, m), sin in zip(_real_basis(N), (False, True)*2):
        w = np.where(m > 0, np.sqrt(0.5), 0.5)
        plus, minus = c[n*n + n + m], (-1.0)**m*c[n*n + n - m]
        out.append(1j*w*(plus - minus) if sin else w*(plus + minus))
    return out


def _from_real(parts: list, N: int) -> np.ndarray:
    """The inverse of _to_real: c_nm = (a_cos - i a_sin)/sqrt2 and
    (-1)^m c_{n,-m} = (a_cos + i a_sin)/sqrt2, and c_n0 = a_cos as the sum
    of two halves."""
    c = np.zeros(N*N, dtype=complex)
    for (n, m), a, sin in zip(_real_basis(N), parts, (False, True)*2):
        w = np.where(m > 0, np.sqrt(0.5), 0.5)
        c[n*n + n + m] += -1j*w*a if sin else w*a
        c[n*n + n - m] += (-1.0)**m*(1j*w*a if sin else w*a)
    return c


def project_boundary_data(f: Callable, n: int) -> SphericalCoeffs:
    """Spherical analysis of boundary data sampled on the projection grid."""
    theta, _, phi = analysis_grid(n)
    return sph_analysis(f(*np.meshgrid(theta, phi, indexing="ij")))


def solve_density3d(surface: Surface3D, f: Callable, n: int) -> Density3D:
    """Solve (K - 1/2 I) mu = f for the density coefficients.

    f(theta, phi) samples the Dirichlet data at surface parameters.  The
    data's coefficients are carried into the real basis, each block of
    assemble_galerkin is solved with its real and imaginary parts as two
    right-hand sides, and the density is carried back.
    """
    blocks = assemble_galerkin(surface, n)
    fhat = project_boundary_data(f, n)
    tol = 1e-10*max(np.max(np.abs(fhat.c)), 1.0)
    parts = []
    for B, rhs in zip(blocks, _to_real(fhat.c, n)):
        rhs = np.stack([rhs.real, rhs.imag], axis=1)
        x = np.linalg.solve(B, rhs)
        resid = np.max(np.abs(B @ x - rhs), initial=0.0)
        if resid > tol:
            raise RuntimeError(f"Galerkin solve residual too large: "
                               f"{resid:.3e}")
        parts.append(x[:, 0] + 1j*x[:, 1])
    return Density3D(surface, SphericalCoeffs(_from_real(parts, n)), f)


def harmonic_point_source_3d(surface: Surface3D, source) -> Callable:
    """Boundary sampler of u(x) = 1/|x - source| for an exterior source.
    A source inside the surface, or on it (within 1e-12 in the stretched
    radial coordinate of Surface3D.contains), is refused."""
    src = np.asarray(source, dtype=float)
    if surface.contains(src):
        raise ValueError("source point must lie outside the surface")
    r, P, _ = surface._radii(src)
    if r - P < 1e-12:
        raise ValueError("source point lies on the surface")

    def data(theta, phi):
        return exact_point_source_3d(
            surface.point_of_direction(direction(theta, phi)), src)

    return data


def exact_point_source_3d(x, source) -> np.ndarray:
    r = np.asarray(x, dtype=float) - np.asarray(source, dtype=float)
    with np.errstate(over="ignore"):  # u = 1/inf = 0 at a far source
        return 1.0/np.linalg.norm(r, axis=-1)

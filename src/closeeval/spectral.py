"""Spectral utilities: Fourier differentiation, Gauss-Legendre rules, and
spherical harmonics.

Periodic grids hold samples at phi_j = -pi + 2*pi*j/N for j = 0..N-1.
Spherical-harmonic coefficients use orthonormal complex harmonics with the
Condon-Shortley phase,

    Y_nm(theta, phi) = Pbar_n^m(cos theta) * exp(i*m*phi),

where Pbar is the fully normalized associated Legendre function, so that
<Y_nm, Y_n'm'> = delta over the unit sphere.  A real field has conjugate
symmetry c_{n,-m} = (-1)^m * conj(c_{nm}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class QuadratureRule1D:
    """Nodes and weights of a 1D quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must have equal length")


def _legendre_pair(n: int, theta: np.ndarray):
    """P_n(cos theta) and D = n(P_{n-1} - x P_n) = (1 - x^2) P_n'(x).

    The three-term recurrence runs on P_k and d_k = P_k - P_{k-1} (Reinsch's
    form), driven by u = 1 - x = 2 sin^2(theta/2).  u keeps its relative
    accuracy near x = 1, where the plain recurrence in the rounded x costs
    the end weights about 1e-11 relative at n = 4096.
    """
    u = 2*np.sin(theta/2)**2
    p, d = 1 - u, -u  # P_1 and d_1
    for k in range(1, n):
        d = (k*d - (2*k + 1)*u*p)/(k + 1)
        p = p + d
    return p, n*(u*p - d)

def _legendre_minus_one(N: int, theta: np.ndarray) -> np.ndarray:
    """P_n(cos theta) - 1 for n < N, shape (N, theta.size): _legendre_pair's
    recurrence, accumulating q_k = P_k - 1 in place of P_k.  Row 0 is
    exactly 0, and no row cancels near theta = 0, where every P_n is 1."""
    u = 2*np.sin(theta/2)**2
    out = np.zeros((N, theta.size))
    if N > 1:
        out[1] = d = -u
    for k in range(1, N - 1):
        d = (k*d - (2*k + 1)*u*(1 + out[k]))/(k + 1)
        out[k + 1] = out[k] + d
    return out

def _legendre_rule(n: int):
    """N-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method in theta (x = cos theta) from Tricomi's guess, over the
    ceil(n/2) nodes x >= 0; the weights are w = 2 sin^2(theta)/D^2.  The
    other half is mirrored, so the rule is exactly symmetric and, for odd n,
    its middle node is exactly 0.  O(n^2) work (DECISIONS.md D9).
    """
    k = np.arange(1, (n + 1)//2 + 1)
    theta = np.arccos(np.cos(np.pi*(4*k - 1)/(4*n + 2))
                      * (1 - (n - 1)/(8*n**3)))
    # Tricomi's guess is close enough for quadratic convergence from the
    # first step: at most three steps reach 1e-10 (n up to 8192), and after
    # a step that small the error is below rounding.  The 20 only bounds
    # the loop.
    for _ in range(20):
        p, dp = _legendre_pair(n, theta)
        step = p*np.sin(theta)/dp
        theta = theta + step
        if np.max(np.abs(step)/theta) < 1e-10:
            break
    _, dp = _legendre_pair(n, theta)
    half_x = np.cos(theta)
    half_w = 2*np.sin(theta)**2/dp**2
    if n % 2:
        half_x[-1] = 0.0
    return (np.concatenate((-half_x[:n//2], half_x[::-1])),
            np.concatenate((half_w[:n//2], half_w[::-1])))

@lru_cache(maxsize=128)
def _gl_cached(n: int):
    # cached because the 3D grids reuse a few small rules and the HG
    # quadrature check of the tests asks for rules of up to thousands of
    # nodes, in power-of-two sizes that repeat.
    return _legendre_rule(n)

def gauss_legendre(n: int) -> QuadratureRule1D:
    """N-point Gauss-Legendre rule on [-1, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    z, w = _gl_cached(int(n))
    return QuadratureRule1D(z.copy(), w.copy())

def mapped_rule(n: int) -> QuadratureRule1D:
    """Gauss-Legendre rule mapped to [0, pi] via s = pi*(z+1)/2.

    The weights carry the pi/2 Jacobian, so they sum to pi.
    """
    base = gauss_legendre(n)
    return QuadratureRule1D(np.pi*(base.nodes + 1)/2, (np.pi/2)*base.weights)


def periodic_nodes(n: int) -> np.ndarray:
    """Equispaced parameter grid phi_j = -pi + 2*pi*j/n."""
    return -np.pi + 2*np.pi*np.arange(n)/n

def periodic_derivative(values: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of the trigonometric interpolant of a periodic grid.

    order 1 zeroes the Nyquist mode (its interpolant derivative has no
    consistent sample representation); order 2 keeps the Nyquist mode with
    its real symmetric coefficient -(N/2)^2.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 4 or n % 2:
        raise ValueError("grid size must be even and at least 4")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    k = np.fft.rfftfreq(n, d=1.0/n)  # 0, 1, ..., n/2
    vh = np.fft.rfft(v)
    if order == 1:
        vh = vh*(1j*k)
        vh[-1] = 0.0
    else:
        vh = vh*(-k*k)
    return np.fft.irfft(vh, n)


# ----------------------------------------------------------------------
# spherical harmonics
# ----------------------------------------------------------------------

@dataclass(eq=False)
class SphericalCoeffs:
    """Coefficients c_nm for degrees n < N, stored in the flat order
    (0,0), (1,-1), (1,0), (1,1), (2,-2), ... of length N^2."""

    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        if self.c.ndim != 1 or self.N*self.N != self.c.size:
            raise ValueError("coefficient vector must have length N^2")

    @property
    def N(self) -> int:
        return math.isqrt(self.c.size)

    @staticmethod
    def index(n: int, m: int) -> int:
        if abs(m) > n:
            raise ValueError("require |m| <= n")
        return n*n + n + m

    @classmethod
    def zeros(cls, N: int) -> "SphericalCoeffs":
        return cls(np.zeros(N*N, dtype=complex))

    def get(self, n: int, m: int) -> complex:
        return self.c[self.index(n, m)]


def _tri(n: int) -> int:
    """Offset of degree n in the (n, m >= 0) triangular order."""
    return n*(n + 1)//2

def _legendre_table(x: np.ndarray, sx: np.ndarray, nmax: int) -> np.ndarray:
    """Normalized associated Legendre values Pbar_n^m(x) for 0<=m<=n<nmax,
    shape (nmax(nmax+1)/2, x.size), row _tri(n) + m.

    Three-term recurrence in n, run for every order m at once, so it takes
    nmax steps; the normalization is carried through every step so no
    intermediate overflows for n up to a few hundred.  x = cos(theta) and
    sx = sin(theta) >= 0 are flat arrays.
    """
    P = np.empty((_tri(nmax), x.size))
    P[0] = 0.5/np.sqrt(np.pi)
    for n, (sectoral, diagonal, a, b) in enumerate(
            _legendre_coefficients(nmax), start=1):
        row, prev, prev2 = _tri(n), _tri(n - 1), _tri(n - 2)
        P[row + n] = sectoral*sx*P[prev + n - 1]
        P[row + n - 1] = diagonal*x*P[prev + n - 1]
        P[row:row + n - 1] = ((a*x)*P[prev:prev + n - 1]
                              - b*P[prev2:prev2 + n - 1])
    return P

@lru_cache(maxsize=32)
def _legendre_coefficients(nmax: int) -> tuple:
    """_legendre_table's factors for each degree 1 <= n < nmax: the
    sectoral factor of Pbar_n^n, the diagonal factor of Pbar_n^{n-1}, and
    the (n-1, 1) columns a and b of the three-term step for m < n - 1.
    Built once per nmax and read-only, since every table of that size
    shares them."""
    out = []
    for n in range(1, nmax):
        m = np.arange(n - 1)[:, None]
        a = np.sqrt((4.0*n*n - 1)/(n*n - m*m))
        b = np.sqrt(((n - 1.0)**2 - m*m)*(2*n + 1)/((n*n - m*m)*(2*n - 3.0)))
        a.setflags(write=False)
        b.setflags(write=False)
        out.append((-np.sqrt((2*n + 1)/(2.0*n)), np.sqrt(2*n + 1.0), a, b))
    return tuple(out)

def sph_half_basis(theta, phi, N: int) -> np.ndarray:
    """The Y_nm with 0 <= m <= n < N at the given angles, shape (npoints,
    N(N+1)/2), in the order (0,0), (1,0), (1,1), (2,0), ...

    The m < 0 harmonics follow as Y_{n,-m} = (-1)^m conj(Y_nm).  The result
    is the transpose of a harmonic-major array, so .T gives each harmonic's
    values contiguously without a copy.  e^{im phi} is the m-th repeated
    product of e^{i phi}.
    """
    th = np.asarray(theta, dtype=float).ravel()
    ph = np.asarray(phi, dtype=float).ravel()
    powers = np.empty((N, th.size), dtype=complex)
    powers[0] = 1.0
    eip = np.exp(1j*ph)
    for m in range(1, N):
        powers[m] = powers[m - 1]*eip
    P = _legendre_table(np.cos(th), np.sin(th), N)
    out = np.empty(P.shape, dtype=complex)
    for n in range(N):
        rows = slice(_tri(n), _tri(n + 1))
        np.multiply(P[rows], powers[:n + 1], out=out[rows])
    return out.T

def _half_coefficients(coeffs: SphericalCoeffs):
    """The degree n of each sph_half_basis column and the two coefficients
    a = c_nm and b = (-1)^m c_{n,-m} (0 when m = 0) that multiply it, so
    that sum_{|m|<=n} c_nm Y_nm = sum_{m>=0} (a Y_nm + b conj(Y_nm))."""
    n = np.repeat(np.arange(coeffs.N), np.arange(1, coeffs.N + 1))
    m = np.arange(n.size) - n*(n + 1)//2
    b = np.where(m > 0, (-1.0)**m*coeffs.c[n*n + n - m], 0.0)
    return n, coeffs.c[n*n + n + m], b


def analysis_grid(N: int):
    """Quadrature grid for spherical analysis: N Gauss-Legendre colatitudes
    (nodes in cos(theta), so the sin(theta) area factor is absorbed) crossed
    with 2N uniform longitudes.

    Returns (theta (N,), theta_weights (N,), phi (2N,)).
    """
    rule = gauss_legendre(N)
    theta = np.arccos(rule.nodes[::-1])
    return theta, rule.weights[::-1].copy(), periodic_nodes(2*N)

def sph_analysis(values: np.ndarray) -> SphericalCoeffs:
    """Project samples on the analysis_grid(N) mesh onto Y_nm, n < N.

    values has shape (N, 2N), theta index first; N is read from it.  Exact
    (to roundoff) for fields band-limited below degree N.  phi_0 = -pi makes
    the longitude sums an FFT times (-1)^m; each order m is one product of
    its Legendre rows with its FFT bin (DECISIONS.md D11).
    """
    v = np.asarray(values)
    if v.ndim != 2 or v.shape[1] != 2*v.shape[0]:
        raise ValueError("values must be sampled on the (N, 2N) analysis grid")
    N = len(v)
    theta, weights, _ = analysis_grid(N)
    spectra = np.fft.fft(v, axis=1)
    P = _legendre_table(np.cos(theta), np.sin(theta), N)*((np.pi/N)*weights)
    out = np.empty(N*N, dtype=complex)
    for m in range(1 - N, N):
        n = np.arange(abs(m), N)
        # conj(Y_nm) has a second (-1)^m when m < 0, so the signs cancel there
        sign = (-1.0)**m if m > 0 else 1.0
        out[n*n + n + m] = (sign*P[_tri(n) + abs(m)]) @ spectra[:, m % (2*N)]
    return SphericalCoeffs(out)

@lru_cache(maxsize=None)
def _jy_eigenvectors(l: int) -> np.ndarray:
    """Real orthogonal eigenvectors of J_y for degree l, in the order
    m = -l..l, with eigenvalues -l..l ascending.

    J_y = (J_+ - J_-)/2i is Hermitian and purely imaginary; with
    T = diag(i^m), T^-1 J_y T is the real symmetric tridiagonal matrix with
    off-diagonal -sqrt(l(l+1) - m(m+1))/2, whose eigenvectors U are real.
    The eigenvectors of J_y are T U (DECISIONS.md D14).  Built once per
    degree and read-only, since the Galerkin assembly and every 3D target
    share them (DECISIONS.md D30)."""
    m = np.arange(-l, l)
    off = -0.5*np.sqrt(l*(l + 1.0) - m*(m + 1.0))
    U = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))[1]
    U.setflags(write=False)
    return U

@lru_cache(maxsize=None)
def _rotation_factors(l: int) -> tuple:
    """_rotated_rows' read-only factors for degree l: U^T, the rows m >= 0
    of U = _jy_eigenvectors(l), and exact columns i^-m and i^m (m >= 0)."""
    U = _jy_eigenvectors(l)
    power = np.array([1, 1j, -1, -1j])[np.arange(-l, l + 1) % 4][:, None]
    power.setflags(write=False)
    return U.T, U[l:], power[::-1], power[l:]

def _rotated_rows(x: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """The rows m = 0..l of d^l(beta) x, shape (l+1, K), for stacked
    complex columns x (2l+1, K) in the order m' = -l..l, with
    turn[k + l] = e^{-ik beta} (k = -l..l) of each column's beta, shape
    (2l+1, K), or (2l+1, 1) for one angle.

    Y_lm(R_y(beta) p) = sum_m' d_mm'(beta) Y_lm'(p) for R_y(beta) =
    rotation_matrix(beta, 0), and d^l(beta) = T U E U^T T^-1 with
    T = diag(i^m), U = _jy_eigenvectors(l) and E = diag(e^{-ik beta})
    (DECISIONS.md D14); d^l(beta)^T = d^l(-beta), so conj(turn) applies
    the transpose.  U multiplies the real and imaginary parts as two real
    columns, and no Wigner matrix is formed (DECISIONS.md D31)."""
    columns, rows, inverse, power = _rotation_factors((len(x) - 1)//2)
    y = (columns @ (inverse*x).view(float)).view(complex)*turn
    return (rows @ y.view(float)).view(complex)*power


def _rotated_coefficients(coeffs: SphericalCoeffs, theta: float,
                          phi: float) -> np.ndarray:
    """The coefficients b_lm' with 0 <= m' <= l < N, in _legendre_table's
    row order _tri(l) + m', of p -> Re f(R p) for f = sum c_lm Y_lm and
    R = rotation_matrix(theta, phi) = R_z(phi) R_y(theta).  That function
    is real, so its m' < 0 coefficients are (-1)^m' conj(b_lm').

    Re f has the coefficients e_lm = (c_lm + (-1)^m conj(c_{l,-m}))/2, and
    Y_lm(R_z(phi) R_y(theta) p) = e^{im phi} sum_m' d_mm'(theta) Y_lm'(p)
    (_rotated_rows), so b = d^l(theta)^T w = d^l(-theta) w for
    w_m = e_lm e^{im phi} (DECISIONS.md D30, D31)."""
    N = coeffs.N
    n = np.repeat(np.arange(N), 2*np.arange(N) + 1)
    m = np.arange(N*N) - n*n - n
    e = 0.5*(coeffs.c + (-1.0)**m*np.conj(coeffs.c[n*n + n - m]))
    w = (e*np.exp(1j*m*phi))[:, None]
    turn = np.exp(1j*np.arange(1 - N, N)*theta)[:, None]
    out = np.empty((_tri(N), 1), dtype=complex)
    for l in range(N):
        out[_tri(l):_tri(l + 1)] = _rotated_rows(w[l*l:(l + 1)**2],
                                                 turn[N - 1 - l:N + l])
    return out[:, 0]

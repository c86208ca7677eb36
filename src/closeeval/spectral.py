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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class QuadratureRule1D:
    """Nodes and weights of a 1D quadrature rule on the tagged domain."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: str  # "[-1,1]" or "[0,pi]"

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
    # quadrature check (apply_L_direct) asks for rules of up to thousands of
    # nodes, in power-of-two sizes that repeat.
    return _legendre_rule(n)

def gauss_legendre(n: int) -> QuadratureRule1D:
    """N-point Gauss-Legendre rule on [-1, 1]."""
    if n < 1:
        raise ValueError("need at least one node")
    z, w = _gl_cached(int(n))
    return QuadratureRule1D(z.copy(), w.copy(), "[-1,1]")

def mapped_rule(n: int) -> QuadratureRule1D:
    """Gauss-Legendre rule mapped to [0, pi] via s = pi*(z+1)/2.

    The weights carry the pi/2 Jacobian, so they sum to pi.
    """
    base = gauss_legendre(n)
    return QuadratureRule1D(np.pi*(base.nodes + 1)/2, (np.pi/2)*base.weights,
                            "[0,pi]")


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

    N: int
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        if self.c.shape != (self.N*self.N,):
            raise ValueError("coefficient vector must have length N^2")

    @staticmethod
    def index(n: int, m: int) -> int:
        if abs(m) > n:
            raise ValueError("require |m| <= n")
        return n*n + n + m

    @classmethod
    def zeros(cls, N: int) -> "SphericalCoeffs":
        return cls(N, np.zeros(N*N, dtype=complex))

    @classmethod
    def single(cls, N: int, n: int, m: int, value: complex = 1.0) -> "SphericalCoeffs":
        if n >= N:
            raise ValueError("degree exceeds table size")
        out = cls.zeros(N)
        out.c[cls.index(n, m)] = value
        return out

    def get(self, n: int, m: int) -> complex:
        return self.c[self.index(n, m)]

    def degrees(self) -> np.ndarray:
        """Degree n of each flat slot."""
        return np.repeat(np.arange(self.N), 2*np.arange(self.N) + 1)


def _legendre_table(x: np.ndarray, sx: np.ndarray, nmax: int) -> dict:
    """Normalized associated Legendre values Pbar_n^m(x) for 0<=m<=n<nmax.

    Three-term recurrence in n for each order m, with the normalization
    carried through every step so no intermediate overflows for n up to
    a few hundred.  sx = sin(theta) >= 0 accompanies x = cos(theta).
    """
    P = {(0, 0): np.full(x.shape, 0.5/np.sqrt(np.pi))}
    for m in range(1, nmax):
        P[(m, m)] = -np.sqrt((2*m + 1)/(2.0*m))*sx*P[(m - 1, m - 1)]
    for m in range(nmax - 1):
        P[(m + 1, m)] = np.sqrt(2*m + 3.0)*x*P[(m, m)]
    for m in range(nmax):
        for n in range(m + 2, nmax):
            a = np.sqrt((4.0*n*n - 1)/(n*n - m*m))
            b = np.sqrt(((n - 1.0)**2 - m*m)*(2*n + 1)/((n*n - m*m)*(2*n - 3.0)))
            P[(n, m)] = a*x*P[(n - 1, m)] - b*P[(n - 2, m)]
    return P

def sph_harm_eval(n: int, m: int, theta, phi):
    """Single orthonormal spherical harmonic Y_nm at the given angles."""
    if abs(m) > n:
        raise ValueError("require |m| <= n")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    P = _legendre_table(np.cos(th), np.sin(th), n + 1)
    val = P[(n, abs(m))]*np.exp(1j*abs(m)*ph)
    if m < 0:
        val = (-1)**(-m)*np.conj(val)
    return val

def sph_basis_matrix(theta, phi, N: int) -> np.ndarray:
    """All Y_nm for n < N at the given angles, shape (npoints, N^2).

    Column order matches SphericalCoeffs.  Shared by the transforms and by
    the 3D solver, which evaluates every basis function on rotated grids.
    """
    th = np.asarray(theta, dtype=float).ravel()
    ph = np.asarray(phi, dtype=float).ravel()
    P = _legendre_table(np.cos(th), np.sin(th), N)
    eip = np.exp(1j*ph)
    powers = [np.ones(th.size, dtype=complex)]
    for _ in range(1, N):
        powers.append(powers[-1]*eip)
    cols = np.empty((th.size, N*N), dtype=complex)
    for n in range(N):
        for m in range(0, n + 1):
            v = P[(n, m)]*powers[m]
            cols[:, SphericalCoeffs.index(n, m)] = v
            if m:
                cols[:, SphericalCoeffs.index(n, -m)] = (-1)**m*np.conj(v)
    return cols


def analysis_grid(N: int):
    """Quadrature grid for spherical analysis: N Gauss-Legendre colatitudes
    (nodes in cos(theta), so the sin(theta) area factor is absorbed) crossed
    with 2N uniform longitudes.

    Returns (theta (N,), theta_weights (N,), phi (2N,)).
    """
    rule = gauss_legendre(N)
    theta = np.arccos(rule.nodes[::-1])
    return theta, rule.weights[::-1].copy(), periodic_nodes(2*N)

def analysis_operator(N: int):
    """The analysis_grid(N) mesh, the basis on it, and the projection onto
    Y_nm, n < N.

    Returns (theta, phi, B, P): mesh angles of shape (N, 2N), theta index
    first; B = sph_basis_matrix(theta, phi, N) of shape (2N^2, N^2); and
    P = B^H diag(w) of shape (N^2, 2N^2), which maps flattened mesh samples
    to coefficients, exactly for fields band-limited below degree N.
    """
    theta, wth, phi = analysis_grid(N)
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    B = sph_basis_matrix(TH, PH, N)
    wrow = np.repeat(wth, 2*N)*(np.pi/N)
    return TH, PH, B, (np.conj(B)*wrow[:, None]).T

def sph_analysis(values: np.ndarray, N: int) -> SphericalCoeffs:
    """Project samples on the analysis_grid(N) mesh onto Y_nm, n < N.

    values has shape (N, 2N), theta index first.  Exact (to roundoff) for
    fields band-limited below degree N.
    """
    v = np.asarray(values)
    if v.shape != (N, 2*N):
        raise ValueError("values must be sampled on the (N, 2N) analysis grid")
    P = analysis_operator(N)[3]
    return SphericalCoeffs(N, P @ v.ravel())

def sph_synthesis(coeffs: SphericalCoeffs, theta, phi) -> np.ndarray:
    """Evaluate the truncated expansion at arbitrary angles (complex output)."""
    th = np.asarray(theta, dtype=float)
    sh = th.shape
    B = sph_basis_matrix(theta, phi, coeffs.N)
    return (B @ coeffs.c).reshape(sh)


def spherical_laplacian(coeffs: SphericalCoeffs) -> SphericalCoeffs:
    """Laplace-Beltrami operator on the sphere: multiplies c_nm by -n(n+1)."""
    n = coeffs.degrees()
    return SphericalCoeffs(coeffs.N, coeffs.c*(-n*(n + 1.0)))


def pole_second_derivative_average(sampler, h: float = 1e-3,
                                   n_azimuth: int = 64) -> float:
    """Azimuthal average of the second polar derivative at a rotated pole,
    (1/pi) * int_0^pi  d^2/ds^2 psi(s, t)|_{s=0} dt.

    sampler(s, t) evaluates the field in a frame whose pole is the point of
    interest; both arguments are arrays of equal shape.  Central differences
    in s (the reflection psi(-h, t) = psi(h, t + pi) is built into the full
    2*pi azimuth average) with one Richardson step (h, h/2).  The result
    equals half the spherical Laplacian of the field at the pole.
    """
    t = periodic_nodes(n_azimuth)
    pole = float(np.asarray(sampler(np.zeros(1), np.zeros(1))).ravel()[0])

    def avg(step):
        ring = np.asarray(sampler(np.full(n_azimuth, step), t), dtype=float)
        return 2.0*(ring.mean() - pole)/step**2

    a1, a2 = avg(h), avg(h/2)
    return (4.0*a2 - a1)/3.0

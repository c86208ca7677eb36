"""Forward-peaked scattering toolbox: the Henyey-Greenstein phase function,
the scattering operator L, its nonlocal leading-order operator, the
two-term asymptotic expansion in eps = 1 - g, and the Poisson-kernel
connection on the unit sphere.

With p the HG phase function and Omega' . Omega = cos(s),

    L psi (Omega) = (1/4pi) int p(Omega . Omega') [psi(Omega') - psi(Omega)] dsigma'

has eigenvalues g^n - 1 on spherical harmonics of degree n.  As g -> 1 the
operator is approximated by

    L psi ~ (eps + eps^2) L32 psi - (eps^2/2) Lap_S2 psi,

where L32 (eigenvalues -n) integrates the pole-even part of psi against
(1 - cos s)^{-3/2} and Lap_S2 is the spherical Laplacian.  The Poisson
kernel for the unit ball at radius 1 - eps coincides with p at g = 1 - eps,
which is what connects the scattering expansion to close evaluation of
harmonic functions.

On a band-limited field the eigenvalues give L psi in closed form
(apply_L_spectral); the quadrature apply_L_direct is its independent check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry3d import rotated_angles
from .spectral import (SphericalCoeffs, mapped_rule, periodic_nodes,
                       sph_basis_matrix, spherical_laplacian, sph_synthesis)

# Polar nodes of the L32 quadrature, whose pole-subtracted integrand is smooth.
_L32_POLAR_NODES = 64
# Largest field degree of an HG study.  The L32 rings take 64*max(16, 2N)
# nodes times N^2 basis values: 4.6e6 at degree 32, 3.5e9 at 300.
MAX_DEGREE = 32
# Ring nodes times N^2 basis values that _ring_average synthesises at once,
# 16 MB of complex basis, so its memory does not grow with the polar rule.
_RING_BLOCK_VALUES = 1 << 20


@dataclass(frozen=True)
class HGParams:
    """Anisotropy factor g in (-1, 1); eps = 1 - g in the forward-peaked
    regime."""

    g: float

    def __post_init__(self):
        if not -1 < self.g < 1:
            raise ValueError("anisotropy factor must satisfy |g| < 1")

    @property
    def eps(self) -> float:
        return 1.0 - self.g


@dataclass(eq=False)
class IntensityField:
    """Direction-dependent intensity as a truncated harmonic expansion."""

    coeffs: SphericalCoeffs

    @property
    def N(self) -> int:
        return self.coeffs.N

    def __call__(self, theta, phi) -> np.ndarray:
        return np.real(sph_synthesis(self.coeffs, theta, phi))


def p_hg(cos_theta, g: float):
    """Henyey-Greenstein phase function (1-g^2)/(1+g^2-2g cos)^{3/2},
    normalized so that (1/2) int_0^pi p sin = 1."""
    if not -1 < g < 1:
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    c = np.asarray(cos_theta, dtype=float)
    if np.any(np.abs(c) > 1 + 1e-12):
        raise ValueError("cosine argument outside [-1, 1]")
    return (1.0 - g*g)/(1.0 + g*g - 2.0*g*np.clip(c, -1.0, 1.0))**1.5


def _azimuth_count(psi: IntensityField) -> int:
    return max(16, 2*psi.N)


def _ring_average(psi: IntensityField, omega, s_nodes):
    """Azimuthal means of psi - psi(omega) on polar rings about omega,
    synthesised a block of polar nodes at a time."""
    theta0, phi0 = float(omega[0]), float(omega[1])
    t = periodic_nodes(_azimuth_count(psi))
    rows = max(1, _RING_BLOCK_VALUES//(t.size*psi.N**2))
    means = np.empty(s_nodes.size)
    for i in range(0, s_nodes.size, rows):
        th, ph = rotated_angles(s_nodes[i:i + rows, None], t[None, :],
                                theta0, phi0)
        means[i:i + rows] = psi(th, ph).mean(axis=1)
    psi0 = float(psi(np.full(1, theta0), np.full(1, phi0))[0])
    return means - psi0


def _polar_default(psi: IntensityField, peak_eps: float):
    # enough polar nodes to resolve both the field and the kernel peak,
    # rounded up to a power of two so that a sweep reuses a few cached rules
    n = max(64, 2*psi.N, int(np.ceil(8.0/max(peak_eps, 1e-6))))
    return 1 << (n - 1).bit_length()


def apply_L_direct(psi: IntensityField, omega, g: float,
                   n_polar: int = None) -> float:
    """Scattering operator by quadrature in the frame with omega at the pole.

    Spectrally accurate for band-limited psi once the polar rule resolves
    the kernel peak of width 1 - g.
    """
    if not -1 < g < 1:
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    if n_polar is None:
        n_polar = _polar_default(psi, 1.0 - abs(g))
    elif g > 1.0 - 2.0/n_polar:
        warnings.warn("polar rule too coarse for the phase-function peak",
                      RuntimeWarning)
    rule = mapped_rule(n_polar)
    az = _ring_average(psi, omega, rule.nodes)
    kern = p_hg(np.cos(rule.nodes), g)
    return float(0.5*np.sum(rule.weights*kern*az*np.sin(rule.nodes)))


def apply_L_spectral(psi: IntensityField, omega, g):
    """Exact scattering operator from its eigen-action,
    sum c_nm (g^n - 1) Y_nm(omega), for a number g (returns a float) or an
    array of g (returns one value per g).
    """
    gs = np.asarray(g, dtype=float)
    if not np.all(np.abs(gs) < 1):
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    row = sph_basis_matrix(np.full(1, omega[0]), np.full(1, omega[1]),
                           psi.N)[0]
    lam = gs.reshape(-1, 1)**psi.coeffs.degrees() - 1.0
    out = np.real(lam @ (row*psi.coeffs.c))
    return float(out[0]) if gs.ndim == 0 else out.reshape(gs.shape)


def apply_L32(psi: IntensityField, omega) -> float:
    """Nonlocal leading-order operator: integral of the azimuth-averaged,
    pole-subtracted field against (1 - cos s)^{-3/2} sin s / (2 sqrt 2).

    The averaged integrand extends continuously to the pole (it limits to
    a multiple of the spherical Laplacian), and the open polar rule never
    places a node at s = 0.
    """
    rule = mapped_rule(_L32_POLAR_NODES)
    az = _ring_average(psi, omega, rule.nodes)
    kern = (1.0 - np.cos(rule.nodes))**-1.5
    return float(np.sum(rule.weights*kern*az*np.sin(rule.nodes))
                 / (2.0*np.sqrt(2.0)))


def apply_L_asymptotic(psi: IntensityField, omega, eps):
    """Two-term forward-peaked expansion (eps + eps^2) L32 - (eps^2/2) Lap
    for a number eps (returns a float) or an array of eps (returns one value
    per eps); L32 and Lap at omega are computed once for all of them."""
    e = np.asarray(eps, dtype=float)
    if not np.all((0 < e) & (e < 0.5)):
        raise ValueError("expansion parameter must lie in (0, 0.5)")
    lap = IntensityField(spherical_laplacian(psi.coeffs))
    lap0 = float(lap(np.full(1, omega[0]), np.full(1, omega[1]))[0])
    out = (e + e*e)*apply_L32(psi, omega) - 0.5*e*e*lap0
    return float(out) if e.ndim == 0 else out


def poisson_close_eval(f: SphericalCoeffs, ystar, eps: float) -> float:
    """Harmonic extension of boundary data f on the unit sphere, evaluated
    at radius 1 - eps along the direction ystar = (theta*, phi*).

    The Poisson kernel equals the HG phase function at g = 1 - eps and has
    unit mass, so the extension is f(ystar) plus the scattering operator
    at that g, taken here from its eigen-action.  Equals
    sum c_nm (1-eps)^n Y_nm(ystar).
    """
    if not 0 < eps < 1:
        raise ValueError("depth parameter must lie in (0, 1)")
    field = IntensityField(f)
    f0 = float(field(np.full(1, ystar[0]), np.full(1, ystar[1]))[0])
    return f0 + apply_L_spectral(field, ystar, 1.0 - eps)

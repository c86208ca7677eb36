"""Forward-peaked scattering toolbox: the scattering operator L of the
Henyey-Greenstein phase function, its nonlocal leading-order operator, the
two-term asymptotic expansion in eps = 1 - g, and the Poisson-kernel
connection on the unit sphere.

With p(c) = (1 - g^2)/(1 + g^2 - 2gc)^{3/2} the HG phase function and
Omega' . Omega = cos(s),

    L psi (Omega) = (1/4pi) int p(Omega . Omega') [psi(Omega') - psi(Omega)] dsigma'

has eigenvalues g^n - 1 on spherical harmonics of degree n.  As g -> 1 the
operator is approximated by

    L psi ~ (eps + eps^2) L32 psi - (eps^2/2) Lap_S2 psi,

where L32 (eigenvalues -n) integrates the pole-even part of psi against
(1 - cos s)^{-3/2} and Lap_S2 is the spherical Laplacian.  The Poisson
kernel for the unit ball at radius 1 - eps coincides with p at g = 1 - eps,
which is what connects the scattering expansion to close evaluation of
harmonic functions.

Every operator here is rotation invariant, so on a band-limited field it
multiplies the degree-n part of psi by a number: the azimuthal mean of
that part on the ring at angle s about omega is P_n(cos s) times its value
at omega.  Each function evaluates the degree parts s_n(omega) once and
dots them with its multipliers (DECISIONS.md D16).  The direct quadrature
of L in the frame with omega at the pole, their independent check, lives
with the tests (tests/references.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (SphericalCoeffs, _half_coefficients,
                       _legendre_minus_one, mapped_rule, sph_half_basis,
                       sph_synthesis)

# Polar nodes of the L32 quadrature, whose pole-subtracted integrand is smooth.
_L32_POLAR_NODES = 64
# Largest field degree of an HG study.  The 64-node polar rule gives the L32
# multipliers lambda_n = -n to 7.1e-15 up to degree 32 and 1.4e-14 up to 48,
# but only to 4.1e-9 up to 64 (DECISIONS.md D16).
MAX_DEGREE = 32


@dataclass(eq=False)
class IntensityField:
    """Direction-dependent intensity as a truncated harmonic expansion."""

    coeffs: SphericalCoeffs

    @property
    def N(self) -> int:
        return self.coeffs.N

    def __call__(self, theta, phi) -> np.ndarray:
        return np.real(sph_synthesis(self.coeffs, theta, phi))


def _degree_values(coeffs: SphericalCoeffs, omega) -> np.ndarray:
    """s_n = Re sum_{|m|<=n} c_nm Y_nm(omega) for n < N, from one
    sph_half_basis row; they sum to the field's value at omega, whether or
    not the coefficients are conjugate symmetric."""
    n, a, b = _half_coefficients(coeffs)
    y = sph_half_basis(np.full(1, omega[0]), np.full(1, omega[1]),
                       coeffs.N)[0]
    return np.bincount(n, np.real(a*y + b*np.conj(y)), coeffs.N)


def _l32_multipliers(N: int) -> np.ndarray:
    """lambda_n for n < N: the paper's polar quadrature of L32 on a field
    whose ring means about omega are P_n(cos s) - 1 times its value there,

        lambda_n = (1/2 sqrt 2) sum_j w_j u_j^{-3/2} sin s_j (P_n(cos s_j) - 1),

    with u = 1 - cos s = 2 sin^2(s/2).  The exact values are -n; lambda_0 is
    exactly 0.  The open polar rule never places a node at s = 0."""
    rule = mapped_rule(_L32_POLAR_NODES)
    s = rule.nodes
    kern = rule.weights*(2*np.sin(s/2)**2)**-1.5*np.sin(s)
    return (_legendre_minus_one(N, s) @ kern)/(2.0*np.sqrt(2.0))


def apply_L_spectral(psi: IntensityField, omega, g):
    """Exact scattering operator from its eigen-action,
    sum_n (g^n - 1) s_n(omega), for a number g (returns a float) or an
    array of g (returns one value per g).
    """
    gs = np.asarray(g, dtype=float)
    if not np.all(np.abs(gs) < 1):
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    lam = gs.reshape(-1, 1)**np.arange(psi.N) - 1.0
    out = lam @ _degree_values(psi.coeffs, omega)
    return float(out[0]) if gs.ndim == 0 else out.reshape(gs.shape)


def apply_L32(psi: IntensityField, omega) -> float:
    """Nonlocal leading-order operator: integral of the azimuth-averaged,
    pole-subtracted field against (1 - cos s)^{-3/2} sin s / (2 sqrt 2),
    taken degree by degree (_l32_multipliers).
    """
    return float(_l32_multipliers(psi.N) @ _degree_values(psi.coeffs, omega))


def apply_L_asymptotic(psi: IntensityField, omega, eps):
    """Two-term forward-peaked expansion (eps + eps^2) L32 - (eps^2/2) Lap
    for a number eps (returns a float) or an array of eps (returns one value
    per eps); L32 and Lap at omega are computed once for all of them."""
    e = np.asarray(eps, dtype=float)
    if not np.all((0 < e) & (e < 0.5)):
        raise ValueError("expansion parameter must lie in (0, 0.5)")
    s = _degree_values(psi.coeffs, omega)
    n = np.arange(psi.N)
    l32 = float(_l32_multipliers(psi.N) @ s)
    lap0 = float((-n*(n + 1.0)) @ s)
    out = (e + e*e)*l32 - 0.5*e*e*lap0
    return float(out) if e.ndim == 0 else out


def poisson_close_eval(f: SphericalCoeffs, ystar, eps: float) -> float:
    """Harmonic extension of boundary data f on the unit sphere, evaluated
    at radius 1 - eps along the direction ystar = (theta*, phi*).

    The Poisson kernel equals the HG phase function at g = 1 - eps and has
    unit mass, so the extension is f(ystar) plus the scattering operator
    at that g: sum_n (1 - eps)^n s_n(ystar).
    """
    if not 0 < eps < 1:
        raise ValueError("depth parameter must lie in (0, 1)")
    return float((1.0 - eps)**np.arange(f.N) @ _degree_values(f, ystar))

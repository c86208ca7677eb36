"""Forward-peaked scattering toolbox: the scattering operator L of the
Henyey-Greenstein phase function and its two-term asymptotic expansion in
eps = 1 - g, the two columns of an hg study.

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
harmonic functions: the extension at radius 1 - eps is psi(omega) plus
L psi(omega) at that g.

Every operator here is rotation invariant, so on a band-limited field it
multiplies the degree-n part of psi by a number: the azimuthal mean of
that part on the ring at angle s about omega is P_n(cos s) times its value
at omega.  Each function evaluates the degree parts s_n(omega) once and
dots them with its multipliers (DECISIONS.md D16).  The direct quadrature
of L in the frame with omega at the pole, their independent check, L32
alone and that harmonic extension live with the tests
(tests/references.py).
"""

from __future__ import annotations

import numpy as np

from .spectral import (SphericalCoeffs, _legendre_minus_one, _legendre_table,
                       _tri, mapped_rule)

# Polar nodes of the L32 quadrature, whose pole-subtracted integrand is smooth.
_L32_POLAR_NODES = 64
# Largest field degree of an HG study.  The 64-node polar rule gives the L32
# multipliers lambda_n = -n to 7.1e-15 up to degree 32 and 1.4e-14 up to 48,
# but only to 4.1e-9 up to 64 (DECISIONS.md D16).
MAX_DEGREE = 32


def _degree_values(coeffs: SphericalCoeffs, omega) -> np.ndarray:
    """s_n = Re sum_{|m|<=n} c_nm Y_nm(omega) for n < N; they sum to the
    field's value at omega, whether or not the coefficients are conjugate
    symmetric.  Only the Y_nm with m >= 0 are formed, as Legendre values
    times repeated products of the array e^{i phi} (DECISIONS.md D34), and
    sum_{|m|<=n} c_nm Y_nm = sum_{m>=0} (a Y_nm + b conj(Y_nm)) with
    a = c_nm and b = (-1)^m c_{n,-m} (0 when m = 0)."""
    N = coeffs.N
    theta, eip = np.full(1, omega[0]), np.exp(1j*np.full(1, omega[1]))
    powers = np.empty((N, 1), dtype=complex)
    powers[0] = 1.0
    for m in range(1, N):
        powers[m] = powers[m - 1]*eip
    n = np.repeat(np.arange(N), np.arange(1, N + 1))
    m = np.arange(n.size) - _tri(n)
    y = _legendre_table(np.cos(theta), np.sin(theta), N)[:, 0]*powers[m, 0]
    a = coeffs.c[n*n + n + m]
    b = np.where(m > 0, (-1.0)**m*coeffs.c[n*n + n - m], 0.0)
    return np.bincount(n, np.real(a*y + b*np.conj(y)), N)


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


def apply_L_spectral(psi: SphericalCoeffs, omega, eps):
    """Exact scattering operator at g = 1 - eps on the field with harmonic
    coefficients psi, from its eigen-action sum_n (g^n - 1) s_n(omega), for
    a number eps (returns a float) or an array of eps (returns one value
    per eps); |g| < 1 asks for eps in (0, 2).  For g > 0, g^n - 1 is
    expm1(n log1p(-eps)), formed from eps itself: a rounded g = 1 - eps
    would lose a small eps's low bits, and all of it below 1.1e-16.
    """
    e = np.asarray(eps, dtype=float)
    if not np.all((0 < e) & (e < 2)):
        raise ValueError("eps must lie in (0, 2), so that |1 - eps| < 1")
    col, n = e.reshape(-1, 1), np.arange(psi.N)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(col < 1, np.expm1(n*np.log1p(-col)),
                       (1.0 - col)**n - 1.0)
    out = lam @ _degree_values(psi, omega)
    return float(out[0]) if e.ndim == 0 else out.reshape(e.shape)


def apply_L_asymptotic(psi: SphericalCoeffs, omega, eps):
    """Two-term forward-peaked expansion (eps + eps^2) L32 - (eps^2/2) Lap
    for a number eps (returns a float) or an array of eps (returns one value
    per eps); L32 and Lap at omega are computed once for all of them."""
    e = np.asarray(eps, dtype=float)
    if not np.all((0 < e) & (e < 0.5)):
        raise ValueError("expansion parameter must lie in (0, 0.5)")
    s = _degree_values(psi, omega)
    n = np.arange(psi.N)
    l32 = float(_l32_multipliers(psi.N) @ s)
    lap0 = float((-n*(n + 1.0)) @ s)
    out = (e + e*e)*l32 - 0.5*e*e*lap0
    return float(out) if e.ndim == 0 else out


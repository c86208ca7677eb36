"""Evaluation of the 2D double-layer potential at points close to the
boundary: the plain quadrature baseline, the singularity-subtracted
quadrature, and two asymptotic approximations in the distance parameter.

The evaluation point is x = y* - eps*ell*nu* for a boundary target
y* = y(t_k) at a quadrature node.  Writing y_d = y* - y(t), the first two
kernels of the distance expansion are

    K1 = ell * [2 (nu . y_d)(nu* . y_d) - (nu . nu*) |y_d|^2] / |y_d|^4
    K2 = ell^2 * [(nu . y_d)(4 (nu* . y_d)^2 - |y_d|^2)
                  - 2 |y_d|^2 (nu . nu*)(nu* . y_d)] / |y_d|^6

and the corrected trapezoid sums replace the singular quadrature cell at
t_k by its analytic limit, contributing the local derivative terms below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bie2d import DensityGrid2D, dlp_sum
from .geometry2d import Curve2D, curve_eval, point_inside
from .spectral import periodic_derivative


@dataclass(frozen=True, eq=False)
class CloseEvalRequest2D:
    """One close evaluation: target node index k, distance eps, scale ell."""

    density: DensityGrid2D
    k: int
    eps: float
    ell: float = 1.0

    def __post_init__(self):
        if self.eps <= 0 or self.ell <= 0:
            raise ValueError("eps and ell must be positive")
        if not 0 <= self.k < self.density.n:
            raise ValueError("target index out of range")
        if not point_inside(self.density.curve, self.point()):
            raise ValueError("evaluation point falls outside the domain")

    def target(self):
        g = self.density.geometry
        return g.position[self.k], g.normal[self.k]

    def point(self) -> np.ndarray:
        ystar, nustar = self.target()
        return ystar - self.eps*self.ell*nustar


def dlp_ptr(request: CloseEvalRequest2D) -> float:
    """Plain PTR evaluation at x; exhibits O(1) error once eps is smaller
    than the node spacing."""
    return dlp_sum(request.density.geometry, request.point(),
                   request.density.mu)


def dlp_subtraction(request: CloseEvalRequest2D) -> float:
    """Subtracted quadrature: u = -mu* + PTR of K(x, y) [mu - mu*]."""
    return float(_subtracted(request.density, request.k, request.point()))


def _subtracted(density: DensityGrid2D, k: int, points):
    """The subtracted quadrature for target k at one point (a float) or at
    stacked points of shape (m, 2) (one value per point)."""
    mustar = density.mu[k]
    return -mustar + dlp_sum(density.geometry, points, density.mu - mustar)


def _kernels(y, nu, ystar, nustar, ell: float):
    """K1 and K2 at boundary points y with normals nu for the target
    (y*, nu*); the arrays broadcast over leading axes."""
    yd = ystar - y
    r2 = np.sum(yd*yd, axis=-1)
    if np.any(r2 < 1e-28):
        raise ValueError("kernel evaluated at the coincidence point")
    nd = np.sum(nu*yd, axis=-1)
    nsd = np.sum(nustar*yd, axis=-1)
    ndot = np.sum(nu*nustar, axis=-1)
    K1 = ell*(2*nd*nsd - ndot*r2)/r2**2
    K2 = ell*ell*(nd*(4*nsd*nsd - r2) - 2*r2*ndot*nsd)/r2**3
    return K1, K2


def _kernels_at(curve: Curve2D, t, t_star: float, ell: float):
    gt = curve_eval(curve, t)
    gs = curve_eval(curve, np.asarray(t_star))
    return _kernels(gt.position, gt.normal, gs.position, gs.normal, ell)


def kernel_K1_2d(curve: Curve2D, t, t_star: float, ell: float = 1.0):
    """First expansion kernel at parameters t for the target y(t_star)."""
    return _kernels_at(curve, t, t_star, ell)[0]

def kernel_K2_2d(curve: Curve2D, t, t_star: float, ell: float = 1.0):
    """Second expansion kernel at parameters t for the target y(t_star)."""
    return _kernels_at(curve, t, t_star, ell)[1]


def asym_coefficients(density: DensityGrid2D, k: int, ell: float = 1.0):
    """(f*, U1, U2+local) for one target: the eps-independent pieces of both
    asymptotic methods, U1 and U2 being the corrected trapezoid sums of
    K1 [mu - mu*] and K2 [mu - mu*] with their local derivative terms.

    The harness computes them once per target and reuses them across a
    sweep.
    """
    g = density.geometry
    n = density.n
    mu = density.mu
    mup = periodic_derivative(mu, 1)
    mupp = periodic_derivative(mu, 2)
    J_k = g.jacobian[k]

    mask = np.arange(n) != k
    K1, K2 = _kernels(g.position[mask], g.normal[mask], g.position[k],
                      g.normal[k], ell)
    dmu = mu[mask] - mu[k]
    U1 = np.sum(K1*g.jacobian[mask]*dmu)/n - ell*mupp[k]/(2*n*J_k)
    U2 = np.sum(K2*g.jacobian[mask]*dmu)/n \
        - ell*ell*g.curvature[k]*mupp[k]/(4*n*J_k)
    local = -ell*ell*np.dot(g.d1[k], g.d2[k])/(4*J_k**4)*mup[k] \
        + ell*ell*mupp[k]/(4*J_k**2)
    return float(density.f[k]), float(U1), float(U2 + local)


def asym_eps2(request: CloseEvalRequest2D) -> float:
    """First asymptotic approximation u ~ f(y*) + eps*U1."""
    fstar, U1, _ = asym_coefficients(request.density, request.k, request.ell)
    return float(fstar + request.eps*U1)

def asym_eps3(request: CloseEvalRequest2D) -> float:
    """Second asymptotic approximation u ~ f(y*) + eps*U1 + eps^2*(U2 + local
    derivative terms)."""
    fstar, U1, U2loc = asym_coefficients(request.density, request.k,
                                         request.ell)
    return float(fstar + request.eps*U1 + request.eps**2*U2loc)

"""Evaluation of the 2D double-layer potential at points close to the
boundary: the plain quadrature baseline, the singularity-subtracted
quadrature, and two asymptotic approximations in the distance parameter.

The evaluation point is x = y* - eps*ell*nu* for a boundary target
y* = y(t_k) at a quadrature node, with nu* the outward normal, so that
u(x) ~ f(y*) + eps U1 + eps^2 U2.  Writing y_d = y* - y(t), the first
coefficient U1 = -ell d_nu u is the corrected trapezoid sum of

    K1 = ell * [2 (nu . y_d)(nu* . y_d) - (nu . nu*) |y_d|^2] / |y_d|^4

times mu - mu*, whose singular cell at t_k is replaced by its analytic
limit, a local term in mu''.  The second coefficient is the normal Taylor
coefficient (ell^2/2) d_nu^2 u.  In normal coordinates Laplace's equation
reads d_nu^2 u = -f_ss - kappa d_nu u on the boundary, so

    U2 = -(ell^2/2) f_ss + (ell/2) kappa U1,

with f_ss the second arclength derivative of the Dirichlet data and kappa
the signed curvature, +1 on the counterclockwise unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bie2d import DensityGrid2D, dlp_sum
from .geometry2d import Curve2D, curve_eval, point_inside


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
    return float(_ptr_and_sub(request.density, request.k, request.point())[1])


def _ptr_and_sub(density: DensityGrid2D, k: int, points):
    """(ptr, sub) for target k at one point or at stacked points of shape
    (m, 2): one kernel sum over the two densities mu and mu - mu*, with
    sub = -mu* + PTR of K [mu - mu*].  Each value equals the one-point
    call of its method bit for bit."""
    mustar = density.mu[k]
    ptr, dsub = dlp_sum(density.geometry, points,
                        np.stack([density.mu, density.mu - mustar]))
    return ptr, -mustar + dsub


def _kernel_K1(y, nu, ystar, nustar, ell: float):
    """K1 at boundary points y with normals nu for the target (y*, nu*);
    the arrays broadcast over leading axes."""
    yd = ystar - y
    r2 = np.sum(yd*yd, axis=-1)
    if np.any(r2 < 1e-28):
        raise ValueError("kernel evaluated at the coincidence point")
    nd = np.sum(nu*yd, axis=-1)
    nsd = np.sum(nustar*yd, axis=-1)
    ndot = np.sum(nu*nustar, axis=-1)
    return ell*(2*nd*nsd - ndot*r2)/r2**2


def kernel_K1_2d(curve: Curve2D, t, t_star: float, ell: float = 1.0):
    """First expansion kernel at parameters t for the target y(t_star)."""
    gt = curve_eval(curve, t)
    gs = curve_eval(curve, np.asarray(t_star))
    return _kernel_K1(gt.position, gt.normal, gs.position, gs.normal, ell)


def asym_coefficients(density: DensityGrid2D, k: int, ell: float = 1.0):
    """(f*, U1, U2) for one target: the eps-independent pieces of both
    asymptotic methods.  U1 is the corrected trapezoid sum of K1 [mu - mu*]
    and U2 follows from f and U1 by Laplace's equation.

    The harness computes them once per target and reuses them across a
    sweep.  The three spectral derivatives they read (mu'', f', f'') are
    computed once per density (`DensityGrid2D.derivatives`).
    """
    g = density.geometry
    n = density.n
    mu = density.mu
    mupp, f_t, f_tt = density.derivatives
    J_k = g.jacobian[k]

    mask = np.arange(n) != k
    K1 = _kernel_K1(g.position[mask], g.normal[mask], g.position[k],
                    g.normal[k], ell)
    dmu = mu[mask] - mu[k]
    U1 = np.sum(K1*g.jacobian[mask]*dmu)/n - ell*mupp[k]/(2*n*J_k)
    ft, ftt = f_t[k], f_tt[k]
    fss = (ftt - np.dot(g.d1[k], g.d2[k])/J_k**2*ft)/J_k**2
    U2 = -ell*ell*fss/2 + ell*g.curvature[k]*U1/2
    return float(density.f[k]), float(U1), float(U2)


def asym_eps2(request: CloseEvalRequest2D) -> float:
    """First asymptotic approximation u ~ f(y*) + eps*U1."""
    fstar, U1, _ = asym_coefficients(request.density, request.k, request.ell)
    return float(fstar + request.eps*U1)

def asym_eps3(request: CloseEvalRequest2D) -> float:
    """Second asymptotic approximation u ~ f(y*) + eps*U1 + eps^2*U2."""
    fstar, U1, U2 = asym_coefficients(request.density, request.k, request.ell)
    return float(fstar + request.eps*U1 + request.eps**2*U2)

"""Evaluation of the 2D double-layer potential at points close to the
boundary: the plain quadrature baseline, the singularity-subtracted
quadrature, and two asymptotic approximations in the distance parameter.
close_eval_2d gives every method's value at one target, over one eps or a
vector of them.

The evaluation point is x = y* - eps*nu* for a boundary target
y* = y(t_k) at a quadrature node, with nu* the outward normal, so that eps
is the distance and u(x) ~ f(y*) + eps U1 + eps^2 U2.  Writing
y_d = y* - y(t), the first coefficient U1 = -d_nu u is the corrected
trapezoid sum of

    K1 = [2 (nu . y_d)(nu* . y_d) - (nu . nu*) |y_d|^2] / |y_d|^4

times mu - mu*, whose singular cell at t_k is replaced by its analytic
limit, a local term in mu''.  The second coefficient is the normal Taylor
coefficient (1/2) d_nu^2 u.  In normal coordinates Laplace's equation
reads d_nu^2 u = -f_ss - kappa d_nu u on the boundary, so

    U2 = -f_ss/2 + kappa U1/2,

with f_ss the second arclength derivative of the Dirichlet data and kappa
the signed curvature, +1 on the counterclockwise unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bie2d import DensityGrid2D, dlp_sum
from .geometry2d import point_inside

METHODS = ("ptr", "sub", "asym2", "asym3")


@dataclass(frozen=True, eq=False)
class CloseEvalRequest2D:
    """One close-evaluation point, target node index k and distance eps,
    checked on construction: a point outside the curve is a ValueError.
    The study tests its 2D points with it; close_eval_2d computes the
    methods' values."""

    density: DensityGrid2D
    k: int
    eps: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0 <= self.k < self.density.n:
            raise ValueError("target index out of range")
        if not point_inside(self.density.curve, self.point()):
            raise ValueError("evaluation point falls outside the domain")

    def point(self) -> np.ndarray:
        return _eval_points(self.density, self.k, self.eps)


def _eval_points(density: DensityGrid2D, k: int, eps):
    """y* - eps*nu* of target k at each eps of an array, or at a number
    eps without an array step (each 2D request calls this once)."""
    g = density.geometry
    if isinstance(eps, np.ndarray):
        eps = eps[..., None]
    return g.position[k] - eps*g.normal[k]


def close_eval_2d(density: DensityGrid2D, k: int, eps,
                  methods=METHODS) -> dict:
    """{method: value of u at y* - eps*nu*} for target node k: a float
    per method for a number eps, an array over a vector of eps.  ptr and
    sub share one kernel sum over mu and mu - mu*; the asymptotic methods
    share the target's (f*, U1, U2).

    The points are not tested for interiority; the caller tests them
    (geometry2d.point_inside, as CloseEvalRequest2D does).  An eps so small
    that a point's squared distance to y* is 0 in floating point is
    refused: that point is y*, on the boundary, where the kernel is 0/0."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps) & (eps > 0)):
        raise ValueError("eps must be finite and positive")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown 2D methods {unknown}")
    if not 0 <= k < density.n:
        raise ValueError("target index out of range")
    x = _eval_points(density, k, eps)
    gap = x - density.geometry.position[k]
    if np.any(gap[..., 0]*gap[..., 0] + gap[..., 1]*gap[..., 1] == 0):
        raise ValueError("eps is so small that y* - eps*nu* rounds onto y*")
    values = {}
    if {"ptr", "sub"} & set(methods):
        mustar = density.mu[k]
        values["ptr"], dsub = dlp_sum(
            density.geometry, x, np.stack([density.mu, density.mu - mustar]))
        values["sub"] = -mustar + dsub
    if {"asym2", "asym3"} & set(methods):
        fstar, U1, U2 = asym_coefficients(density, k)
        values["asym2"] = fstar + eps*U1
        values["asym3"] = fstar + eps*U1 + eps*eps*U2
    if eps.ndim == 0:
        return {m: float(values[m]) for m in methods}
    return {m: values[m] for m in methods}


def _kernel_K1(y, nu, ystar, nustar):
    """K1 at boundary points y with normals nu for the target (y*, nu*);
    the arrays broadcast over leading axes."""
    yd = ystar - y
    r2 = np.sum(yd*yd, axis=-1)
    if np.any(r2 < 1e-28):
        raise ValueError("kernel evaluated at the coincidence point")
    nd = np.sum(nu*yd, axis=-1)
    nsd = np.sum(nustar*yd, axis=-1)
    ndot = np.sum(nu*nustar, axis=-1)
    return (2*nd*nsd - ndot*r2)/r2**2


def asym_coefficients(density: DensityGrid2D, k: int):
    """(f*, U1, U2) for one target: the eps-independent pieces of both
    asymptotic methods.  U1 is the corrected trapezoid sum of K1 [mu - mu*]
    and U2 follows from f and U1 by Laplace's equation.

    close_eval_2d computes them once per call, for every eps.  The three
    spectral derivatives they read (mu'', f', f'') are computed once per
    density (`DensityGrid2D.derivatives`).
    """
    g = density.geometry
    n = density.n
    mu = density.mu
    mupp, f_t, f_tt = density.derivatives
    J_k = g.jacobian[k]

    mask = np.arange(n) != k
    K1 = _kernel_K1(g.position[mask], g.normal[mask], g.position[k],
                    g.normal[k])
    dmu = mu[mask] - mu[k]
    U1 = np.sum(K1*g.jacobian[mask]*dmu)/n - mupp[k]/(2*n*J_k)
    ft, ftt = f_t[k], f_tt[k]
    fss = (ftt - np.dot(g.d1[k], g.d2[k])/J_k**2*ft)/J_k**2
    U2 = -fss/2 + g.curvature[k]*U1/2
    return float(density.f[k]), float(U1), float(U2)

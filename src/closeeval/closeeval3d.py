"""Close evaluation of the 3D double-layer potential: the subtracted
three-step quadrature at interior points and the first asymptotic
approximation in the distance parameter.

For a boundary target y* = y(theta*, phi*) and x = y* - eps*ell*nu*, the
numerical method uses the interior Gauss identity,

    u(x) = -mu(y*) + (1/4pi) oint K(x, y) [mu(y) - mu(y*)] dsigma,

and the asymptotic method is u ~ f(y*) + eps*U1 with U1 the rotated
quadrature of K1 [mu - mu*], where, with y_d = y* - y(s, t),

    K1 = ell * [3 (nu . y_d)(nu* . y_d) - |y_d|^2 (nu . nu*)] / |y_d|^5.

Every integrand is assembled with the area element of the rotated
parameterization, which absorbs the sin(s) pole factor, so the azimuthal
averages extend continuously to the pole.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .bie3d import Density3D, _dot, dlp_weights, rotated_grid
from .geometry3d import Surface3D, direction_angles, surface_point_and_normal


@dataclass(frozen=True, eq=False)
class CloseEvalRequest3D:
    """Close evaluation at one target over distances eps, a number or an
    array; n defaults to the density degree.  The rotated grid, mu* and
    mu - mu* on it are built on first use and shared by every method.

    A point outside the surface is a ValueError.  inside=True tells the
    request that its caller has already found every point inside, so the
    containment test is not repeated."""

    density: Density3D
    theta_star: float
    phi_star: float
    eps: float | np.ndarray
    ell: float = 1.0
    n: int = 0
    inside: InitVar[bool] = False

    def __post_init__(self, inside):
        eps = np.asarray(self.eps, dtype=float)
        if np.any(eps <= 0) or self.ell <= 0:
            raise ValueError("eps and ell must be positive")
        object.__setattr__(self, "eps", float(eps) if eps.ndim == 0 else eps)
        if self.n == 0:
            object.__setattr__(self, "n", self.density.N)
        if not (inside or np.all(self.density.surface.contains(self.point()))):
            raise ValueError("evaluation point falls outside the domain")

    def target(self):
        return surface_point_and_normal(self.density.surface,
                                        self.theta_star, self.phi_star)

    def point(self) -> np.ndarray:
        return _points(self.density.surface, self.theta_star, self.phi_star,
                       self.eps, self.ell)

    @cached_property
    def grid(self):
        """The rotated_grid about the target, at resolution n."""
        return rotated_grid(self.density.surface, self.theta_star,
                            self.phi_star, self.n)

    @cached_property
    def mu_star(self) -> float:
        """The density at the target."""
        return float(self.density(np.full(1, self.theta_star),
                                  np.full(1, self.phi_star))[0])

    @cached_property
    def dmu(self) -> np.ndarray:
        """mu - mu* on the grid."""
        theta, phi = direction_angles(self.grid[3], self.phi_star)
        return self.density(theta, phi) - self.mu_star


def _points(surface: Surface3D, theta_star: float, phi_star: float, eps,
            ell: float) -> np.ndarray:
    """Evaluation points y* - eps*ell*nu*, one row per entry of eps."""
    ystar, nustar = surface_point_and_normal(surface, theta_star, phi_star)
    return ystar - np.multiply.outer(np.asarray(eps)*ell, nustar)


def dlp_numerical_3d(request: CloseEvalRequest3D):
    """Subtracted three-step quadrature at the interior points, one per eps."""
    w = dlp_weights(request.grid, request.point()[..., None, None, :])
    return -request.mu_star + (1.0/(4*request.n))*np.sum(w*request.dmu,
                                                           axis=(-2, -1))


def _kernel_K1(y, nu, ystar, nustar, ell: float):
    """K1 at boundary points y with normals nu for the target (y*, nu*).
    K1 is linear in nu, so the area-weighted normal gives K1 times the area
    element."""
    yd = ystar - y
    r2 = _dot(yd, yd)
    if np.any(r2 < 1e-28):
        raise ValueError("kernel evaluated at the coincidence point")
    nd = _dot(nu, yd)
    nsd = _dot(nustar, yd)
    ndot = _dot(nu, nustar)
    return ell*(3*nd*nsd - r2*ndot)/r2**2.5


def asym_correction_3d(request: CloseEvalRequest3D) -> float:
    """The eps-independent correction U1: rotated quadrature of
    K1 [mu - mu*] with the pole cell regularized by the subtraction."""
    w, y, area_normal, _ = request.grid
    ystar, nustar = request.target()
    K1W = _kernel_K1(y, area_normal, ystar, nustar, request.ell)
    return float((1.0/(4*request.n))*np.sum(w*K1W*request.dmu))


def asym_eps2_3d(request: CloseEvalRequest3D):
    """Asymptotic approximation u ~ f(y*) + eps*U1, with the boundary datum
    f(y*) read from the data sampler attached to the density."""
    if request.density.data is None:
        raise ValueError("density carries no data sampler")
    f_star = float(np.asarray(
        request.density.data(np.full(1, request.theta_star),
                             np.full(1, request.phi_star))).ravel()[0])
    return f_star + request.eps*asym_correction_3d(request)

"""Close evaluation of the 3D double-layer potential: the subtracted
three-step quadrature at interior points and the first asymptotic
approximation in the distance parameter.  close_eval_3d gives every
method's value at one target, over one eps or a vector of them.

For a boundary target y* = y(theta*, phi*) and x = y* - eps*nu*, the
numerical method uses the interior Gauss identity,

    u(x) = -mu(y*) + (1/4pi) oint K(x, y) [mu(y) - mu(y*)] dsigma,

and the asymptotic method is u ~ f(y*) + eps*U1 with U1 the rotated
quadrature of K1 [mu - mu*], where, with y_d = y* - y(s, t),

    K1 = [3 (nu . y_d)(nu* . y_d) - |y_d|^2 (nu . nu*)] / |y_d|^5.

Every integrand is assembled with the area element of the rotated
parameterization, which absorbs the sin(s) pole factor, so the azimuthal
averages extend continuously to the pole.
"""

from __future__ import annotations

import numpy as np

from .bie3d import Density3D, _rotated_synthesis, dlp_weights, rotated_grid
from .geometry3d import surface_point_and_normal

METHODS = ("numerical", "asym2")


def _points(ystar, nustar, eps) -> np.ndarray:
    """Evaluation points y* - eps*nu*, one row per entry of eps."""
    return ystar - np.multiply.outer(eps, nustar)


def _kernel_K1(y, nu, ystar, nustar):
    """K1 at boundary points y with normals nu for the target (y*, nu*).
    K1 is linear in nu, so the area-weighted normal gives K1 times the area
    element.  The x, y and z components are taken apart, so each dot
    product is two additions, in the order x, y, z."""
    dx, dy, dz = (ystar[i] - y[..., i] for i in range(3))
    r2 = dx*dx + dy*dy + dz*dz
    if np.any(r2 < 1e-28):
        raise ValueError("kernel evaluated at the coincidence point")
    nx, ny, nz = nu[..., 0], nu[..., 1], nu[..., 2]
    nd = nx*dx + ny*dy + nz*dz
    nsd = nustar[0]*dx + nustar[1]*dy + nustar[2]*dz
    ndot = nx*nustar[0] + ny*nustar[1] + nz*nustar[2]
    return (3*nd*nsd - r2*ndot)/r2**2.5


def close_eval_3d(density: Density3D, theta_star: float, phi_star: float,
                  eps, methods=METHODS) -> dict:
    """{method: value of u at y* - eps*nu*} for the target
    y* = y(theta*, phi*): a float per method for a number eps, an array
    over a vector of eps.  One (y*, nu*), one rotated grid at the density
    degree, and mu* and mu - mu* on it serve every method; mu* and mu on
    the grid come from one synthesis of the density's coefficients rotated
    to the target (bie3d._rotated_synthesis).  numerical is the subtracted
    three-step quadrature; asym2 is f(y*) + eps*U1, with f(y*) read from
    the data sampler attached to the density and U1 the rotated quadrature
    of K1 [mu - mu*], whose pole cell the subtraction regularizes.

    The points are not tested for interiority; the caller tests them
    (Surface3D.contains)."""
    eps = np.asarray(eps, dtype=float)
    if not np.all(np.isfinite(eps) & (eps > 0)):
        raise ValueError("eps must be finite and positive")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown 3D methods {unknown}")
    if "asym2" in methods and density.data is None:
        raise ValueError("density carries no data sampler")
    surface, n = density.surface, density.N
    ystar, nustar = surface_point_and_normal(surface, theta_star, phi_star)
    grid = rotated_grid(surface, theta_star, phi_star, n)
    mu_star, mu = _rotated_synthesis(density.coeffs, theta_star, phi_star)
    dmu = mu - mu_star
    values = {}
    if "numerical" in methods:
        x = _points(ystar, nustar, eps)
        w = dlp_weights(grid, x[..., None, None, :])
        values["numerical"] = -mu_star + (1.0/(4*n))*np.sum(w*dmu,
                                                            axis=(-2, -1))
    if "asym2" in methods:
        w, y, area_normal = grid
        K1W = _kernel_K1(y, area_normal, ystar, nustar)
        U1 = float((1.0/(4*n))*np.sum(w*K1W*dmu))
        f_star = float(np.asarray(density.data(
            np.full(1, theta_star), np.full(1, phi_star))).ravel()[0])
        values["asym2"] = f_star + eps*U1
    if eps.ndim == 0:
        return {m: float(values[m]) for m in methods}
    return {m: values[m] for m in methods}

"""Analytic closed surfaces parameterized over the sphere, and the rotation
that carries a chosen surface point to the coordinate pole.

Surfaces are radial graphs over a stretched sphere,

    y(theta, phi) = P(cos theta) * diag(axes) * d(theta, phi),

with d the unit direction and P a smooth profile of c = cos(theta).  Working
with the direction d rather than the angles keeps every quantity smooth
across the poles, and the rotated quadrature frames below never divide by
sin(s).

The rotation R(theta*, phi*) maps the coordinate north pole to the direction
d(theta*, phi*); its columns are the unit vectors (u, v, w) obtained by
differentiating d with respect to theta and phi at the target.  Positions
and normals all come from Surface3D.area_normal, and every rotated grid
from one rotation of the directions d(s, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

_POLE_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Surface3D:
    """Radial surface profile over the stretched unit sphere.

    profile/profile_prime are functions of c = cos(theta); axes scales the
    three coordinates.  orient is +1 when the (theta, phi) cross product
    already points outward, fixed once by a ray test at construction.
    """

    kind: str
    profile: Callable[[np.ndarray], np.ndarray]
    profile_prime: Callable[[np.ndarray], np.ndarray]
    axes: np.ndarray
    orient: float = 1.0

    def point_of_direction(self, d: np.ndarray) -> np.ndarray:
        P = self.profile(d[..., 2])
        return P[..., None]*(self.axes*d)

    def area_normal(self, d, jacobian):
        """Position at the directions d, and the area-weighted normal
        orient*(y_1 x y_2) for a tangent pair (e1, e2) of the unit sphere at
        d with e1 x e2 = jacobian*d; it points outward where jacobian > 0.

        For y = P(d_3) S d with S = diag(axes), the cross product of the
        pushed-forward pair is
        det(S) jacobian P S^-1 ((P + P' d_3) d - P' e_3),
        so neither the tangents nor their pushforwards are formed, and the
        profile is evaluated once per node.  It is 0 where jacobian is.
        """
        P = self.profile(d[..., 2])[..., None]
        dP = self.profile_prime(d[..., 2])[..., None]
        g = (P + dP*d[..., 2:3])*d
        g[..., 2] -= dP[..., 0]
        g *= P*jacobian[..., None]
        g *= (self.orient*np.prod(self.axes))/self.axes
        return P*(self.axes*d), g

    def contains(self, x):
        """Interiority test for these star-shaped surfaces: in stretched
        coordinates z = x/axes the boundary is the radial graph |z| = P.
        x may stack points along leading axes; the answer has their shape."""
        z = np.asarray(x, dtype=float)/self.axes
        r = np.linalg.norm(z, axis=-1)
        centre = r < _POLE_TOL
        return centre | (r < self.profile(z[..., 2]/np.where(centre, 1.0, r)))


def unit_sphere() -> Surface3D:
    one = lambda c: np.ones_like(np.asarray(c, dtype=float))
    zero = lambda c: np.zeros_like(np.asarray(c, dtype=float))
    return _oriented(Surface3D("unit-sphere", one, zero, np.ones(3)))

def mushroom() -> Surface3D:
    """Dimpled, axis-stretched test surface: profile 2 - 1/(1 + 100(1-c)^2)
    with axes (1, 2, 1)."""
    def prof(c):
        return 2.0 - 1.0/(1.0 + 100.0*(1.0 - c)**2)
    def dprof(c):
        return -200.0*(1.0 - c)/(1.0 + 100.0*(1.0 - c)**2)**2
    return _oriented(Surface3D("mushroom", prof, dprof, np.array([1.0, 2.0, 1.0])))

def custom_radial(profile, profile_prime, axes=(1.0, 1.0, 1.0)) -> Surface3D:
    """Star-shaped surface from an analytic profile of c = cos(theta).

    Both the profile and its c-derivative must be supplied in closed form;
    the kernels need exact normals.  The profile must be finite and
    positive on [-1, 1], which is checked on a fixed grid there: where it
    vanishes, the surface frame degenerates.
    """
    s = Surface3D("custom-radial", profile, profile_prime,
                  np.asarray(axes, dtype=float))
    if np.any(s.axes <= 0):
        raise ValueError("axis scales must be positive")
    with np.errstate(all="ignore"):
        values = np.asarray(profile(np.linspace(-1.0, 1.0, 129)), dtype=float)
    if not np.all(np.isfinite(values) & (values > 0)):
        raise ValueError("profile must be finite and positive on [-1, 1]")
    return _oriented(s)

def _oriented(s: Surface3D) -> Surface3D:
    """Fix the normal orientation outward by a ray test from the origin."""
    y, area_normal = s.area_normal(direction(1.1, 0.3), np.ones(()))
    if float(np.sum(y*area_normal)) < 0:
        return Surface3D(s.kind, s.profile, s.profile_prime, s.axes, -s.orient)
    return s


def direction(theta, phi) -> np.ndarray:
    """Unit direction d(theta, phi) with theta the colatitude.

    theta and phi broadcast against each other.
    """
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    return np.stack([np.sin(th)*np.cos(ph), np.sin(th)*np.sin(ph),
                     np.cos(th)], axis=-1)


def direction_angles(d, phi_pole: float):
    """Angles (theta, phi) of the unit directions d, the inverse of
    direction: quadrant-aware arctangents keep theta in [0, pi] and phi in
    (-pi, pi], and phi falls back to phi_pole where d is a coordinate pole.
    """
    rho = np.hypot(d[..., 0], d[..., 1])
    theta = np.arctan2(rho, d[..., 2])
    phi = np.where(rho < _POLE_TOL, phi_pole, np.arctan2(d[..., 1], d[..., 0]))
    return theta, phi


def rotation_matrix(theta_star, phi_star) -> np.ndarray:
    """Proper rotation with third column d(theta*, phi*).

    theta* and phi* broadcast against each other; their shape leads the
    result, so stacked angles give stacked (..., 3, 3) matrices.
    """
    ct, st = np.cos(theta_star), np.sin(theta_star)
    cp, sp = np.cos(phi_star), np.sin(phi_star)
    R = np.zeros(np.broadcast(ct, cp).shape + (3, 3))
    R[..., 0, 0], R[..., 0, 1], R[..., 0, 2] = ct*cp, -sp, st*cp
    R[..., 1, 0], R[..., 1, 1], R[..., 1, 2] = ct*sp, cp, st*sp
    R[..., 2, 0], R[..., 2, 2] = -st, ct
    return R


def _rotated_frame(surface: Surface3D, theta_star, phi_star, local,
                   jacobian):
    """rotated_frame from the directions local = d(s, t) of the unrotated
    grid and its area factor jacobian = sin(s): the directions are rotated
    by each pole's matrix, and positions and normals built at them."""
    R = rotation_matrix(theta_star, phi_star)
    d = (local.reshape(-1, 3) @ np.swapaxes(R, -1, -2)).reshape(
        R.shape[:-2] + local.shape)
    y, area_normal = surface.area_normal(d, jacobian)
    return y, area_normal, d


def rotated_frame(surface: Surface3D, theta_star, phi_star, s, t):
    """Quadrature geometry on the grid whose pole sits at (theta*, phi*).

    s and t are broadcast to a common shape; returns (position, area-weighted
    normal, direction).  The area-weighted normal orient*(y_s x y_t) is the
    outward unit normal times the area element of the rotated
    parameterization, which absorbs the sin(s) pole factor; the direction
    R(theta*, phi*) d(s, t) of each node is what a density is sampled at
    (direction_angles turns it into the unrotated parameters, with phi*
    where a node is a coordinate pole).

    Stacked poles (theta*, phi* of shape (k,)) give one grid per pole along
    a leading axis.
    """
    S, T = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(t, dtype=float))
    # the rotated tangents d_s and d_t have d_s x d_t = sin(s) d
    return _rotated_frame(surface, theta_star, phi_star, direction(S, T),
                          np.sin(S))


def surface_point_and_normal(surface: Surface3D, theta_star, phi_star):
    """Position and outward unit normal at one surface point, or at each of
    stacked points (leading axes of theta*, phi*).

    The area-weighted normal is taken for the rotation frame's orthonormal
    tangent pair (u, v), whose u x v is the direction d itself, instead of
    the (theta, phi) coordinate basis, so the result is well defined at the
    parameter poles too.  Raises ValueError when the frame degenerates at
    any of the points.
    """
    d = direction(theta_star, phi_star)
    y, area_normal = surface.area_normal(d, np.ones(d.shape[:-1]))
    W = np.linalg.norm(area_normal, axis=-1, keepdims=True)
    if np.any(W < _POLE_TOL):
        raise ValueError("degenerate surface frame")
    return y, area_normal/W

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
    three coordinates.  The area normal points outward wherever the profile
    and the axes are positive (area_normal), so no orientation is stored.

    Since the profile depends on cos(theta) alone, every such surface maps
    to itself under x1 -> -x1 and x2 -> -x2.  The Galerkin solver relies on
    both reflections: it computes a quarter of the rows and splits the
    matrix into four real blocks (DECISIONS.md D19).  A surface class
    without them would need the full assembly back.

    For the same reason the grid about (theta, phi) is A = S R_z(phi) S^-1,
    S = diag(axes), times the grid about (theta, 0), and its area normals
    A^-T times theirs, so the solver builds a colatitude's rows from one
    grid (DECISIONS.md D32).
    """

    profile: Callable[[np.ndarray], np.ndarray]
    profile_prime: Callable[[np.ndarray], np.ndarray]
    axes: np.ndarray

    def point_of_direction(self, d: np.ndarray) -> np.ndarray:
        P = self.profile(d[..., 2])
        return P[..., None]*(self.axes*d)

    def area_normal(self, d, jacobian):
        """Position at the directions d, and the area-weighted normal
        y_1 x y_2 for a tangent pair (e1, e2) of the unit sphere at d with
        e1 x e2 = jacobian*d.

        For y = P(d_3) S d with S = diag(axes), the cross product of the
        pushed-forward pair is
        N = det(S) jacobian P S^-1 ((P + P' d_3) d - P' e_3),
        so neither the tangents nor their pushforwards are formed, and the
        profile is evaluated once per node.  It is 0 where jacobian is, and
        y . N = det(S) jacobian P^3, so it points outward where jacobian > 0.
        """
        P = self.profile(d[..., 2])[..., None]
        dP = self.profile_prime(d[..., 2])[..., None]
        g = (P + dP*d[..., 2:3])*d
        g[..., 2] -= dP[..., 0]
        g *= P*jacobian[..., None]
        g *= np.prod(self.axes)/self.axes
        return P*(self.axes*d), g

    def contains(self, x):
        """Interiority test for these star-shaped surfaces: in stretched
        coordinates z = x/axes the boundary is the radial graph |z| = P.
        x may stack points along leading axes; the answer has their shape."""
        r, P, centre = self._radii(x)
        return centre | (r < P)

    def _radii(self, x):
        """|z| and the boundary radius P in the direction of z = x/axes,
        and where |z| is too small for a direction (taken as the pole)."""
        z = np.asarray(x, dtype=float)/self.axes
        with np.errstate(over="ignore"):  # a far point is at radius inf
            r = np.linalg.norm(z, axis=-1)
        centre = r < _POLE_TOL
        return r, self.profile(z[..., 2]/np.where(centre, 1.0, r)), centre


def unit_sphere() -> Surface3D:
    one = lambda c: np.ones_like(np.asarray(c, dtype=float))
    zero = lambda c: np.zeros_like(np.asarray(c, dtype=float))
    return Surface3D(one, zero, np.ones(3))

def mushroom() -> Surface3D:
    """Dimpled, axis-stretched test surface: profile 2 - 1/(1 + 100(1-c)^2)
    with axes (1, 2, 1)."""
    def prof(c):
        return 2.0 - 1.0/(1.0 + 100.0*(1.0 - c)**2)
    def dprof(c):
        return -200.0*(1.0 - c)/(1.0 + 100.0*(1.0 - c)**2)**2
    return Surface3D(prof, dprof, np.array([1.0, 2.0, 1.0]))


def direction(theta, phi) -> np.ndarray:
    """Unit direction d(theta, phi) with theta the colatitude.

    theta and phi broadcast against each other.
    """
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    return np.stack([np.sin(th)*np.cos(ph), np.sin(th)*np.sin(ph),
                     np.cos(th)], axis=-1)


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
    """(position, area-weighted normal) at each node of the grid whose pole
    sits at (theta*, phi*), from the directions local = d(s, t) of the
    unrotated grid and its area factor jacobian = sin(s).

    The area-weighted normal is the outward unit normal times the area
    element of the rotated parameterization, which absorbs the sin(s) pole
    factor.  The node directions R(theta*, phi*) d(s, t) are formed here
    and not returned: a density reaches the grid through its rotated
    coefficients (DECISIONS.md D30).  Stacked poles (theta*, phi* of shape
    (k,)) give one grid per pole along a leading axis.
    """
    R = rotation_matrix(theta_star, phi_star)
    d = (local.reshape(-1, 3) @ np.swapaxes(R, -1, -2)).reshape(
        R.shape[:-2] + local.shape)
    return surface.area_normal(d, jacobian)


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

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
differentiating d with respect to theta and phi at the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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

    def frame_of_direction(self, d, e1, e2):
        """Position, tangents along directions e1/e2, area element, normal.

        e1 and e2 are tangent vectors to the unit sphere at d (the pushforward
        arguments); the area element is |y_1 x y_2| for that pair.  Where the
        pair degenerates (a parameter pole) the area element is genuinely 0,
        but the normal direction is still well defined; it is rebuilt there
        from an orthonormal tangent pair.
        """
        P = self.profile(d[..., 2])
        dP = self.profile_prime(d[..., 2])
        Sd = self.axes*d

        def push(e):
            return dP[..., None]*e[..., 2:3]*Sd + P[..., None]*(self.axes*e)

        y1, y2 = push(e1), push(e2)
        cr = np.cross(y1, y2)
        W = np.linalg.norm(cr, axis=-1)
        safe = np.where(W[..., None] < _POLE_TOL, 1.0, W[..., None])
        nu = self.orient*cr/safe
        deg = W < _POLE_TOL
        if np.any(deg):
            n1 = np.linalg.norm(e1, axis=-1, keepdims=True)
            seed = np.where(np.abs(d[..., 2:3]) < 0.9,
                            np.array([0.0, 0.0, 1.0]),
                            np.array([1.0, 0.0, 0.0]))
            a = np.cross(d, seed)
            a = a/np.linalg.norm(a, axis=-1, keepdims=True)
            ok = n1 > _POLE_TOL
            a = np.where(ok, e1/np.where(ok, n1, 1.0), a)
            crf = np.cross(push(a), push(np.cross(d, a)))
            crf = self.orient*crf/np.linalg.norm(crf, axis=-1, keepdims=True)
            nu = np.where(deg[..., None], crf, nu)
        return self.point_of_direction(d), y1, y2, W, nu

    def contains(self, x):
        """Interiority test for these star-shaped surfaces: in stretched
        coordinates z = x/axes the boundary is the radial graph |z| = P.
        x may stack points along leading axes; the answer has their shape."""
        z = np.asarray(x, dtype=float)/self.axes
        r = np.linalg.norm(z, axis=-1)
        centre = r < _POLE_TOL
        return centre | (r < self.profile(z[..., 2]/np.where(centre, 1.0, r)))


@dataclass(frozen=True, eq=False)
class SurfacePoint3D:
    position: np.ndarray
    y_theta: np.ndarray
    y_phi: np.ndarray
    normal: Optional[np.ndarray]
    area_element: np.ndarray


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
    the kernels need exact normals.
    """
    s = Surface3D("custom-radial", profile, profile_prime,
                  np.asarray(axes, dtype=float))
    if np.any(s.axes <= 0):
        raise ValueError("axis scales must be positive")
    return _oriented(s)

def _oriented(s: Surface3D) -> Surface3D:
    """Fix the normal orientation outward by a ray test from the origin."""
    d = direction(np.array(1.1), np.array(0.3))
    e1, e2 = _angle_tangents(np.array(1.1), np.array(0.3))
    y, _, _, _, nu = s.frame_of_direction(d, e1, e2)
    if float(np.sum(y*nu)) < 0:
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

def _angle_tangents(theta, phi):
    """Partial derivatives of d with respect to theta and phi (the phi one
    carries its sin(theta) factor, so area elements vanish like sin at poles)."""
    th, ph = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                 np.asarray(phi, dtype=float))
    e_th = np.stack([np.cos(th)*np.cos(ph), np.cos(th)*np.sin(ph),
                     -np.sin(th)], axis=-1)
    e_ph = np.stack([-np.sin(th)*np.sin(ph), np.sin(th)*np.cos(ph),
                     np.zeros_like(th)], axis=-1)
    return e_th, e_ph


def surface_eval(surface: Surface3D, theta, phi,
                 want_normal: bool = True) -> SurfacePoint3D:
    """Surface geometry at (theta, phi): position, both partials, the area
    element W = |y_theta x y_phi|, and the unit outward normal.

    The normal is undefined where W vanishes (the parameter poles); asking
    for it there raises.
    """
    d = direction(theta, phi)
    e_th, e_ph = _angle_tangents(theta, phi)
    y, y_th, y_ph, W, nu = surface.frame_of_direction(d, e_th, e_ph)
    if want_normal:
        if np.any(W < _POLE_TOL):
            raise ValueError("unit normal requested at a parameter pole")
    else:
        nu = None
    return SurfacePoint3D(y, y_th, y_ph, nu, W)


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


def rotated_angles(s, t, theta_star: float, phi_star: float):
    """Angles (theta, phi) of the direction R(theta*, phi*) d(s, t).

    Quadrant-aware arctangents keep theta in [0, pi] and phi in (-pi, pi];
    at the rotated pole (s = 0) phi falls back to phi* by convention.
    """
    s = np.asarray(s, dtype=float); t = np.asarray(t, dtype=float)
    ct, st = np.cos(theta_star), np.sin(theta_star)
    cp, sp = np.cos(phi_star), np.sin(phi_star)
    ss, cs = np.sin(s), np.cos(s)
    stt, ctt = np.sin(t), np.cos(t)
    xi = ct*cp*ss*ctt - sp*ss*stt + st*cp*cs
    eta = ct*sp*ss*ctt + cp*ss*stt + st*sp*cs
    zeta = -st*ss*ctt + ct*cs
    rho = np.hypot(xi, eta)
    theta = np.arctan2(rho, zeta)
    phi = np.where(rho < _POLE_TOL, phi_star, np.arctan2(eta, xi))
    return theta, phi


def rotated_frame(surface: Surface3D, theta_star, phi_star, s, t):
    """Quadrature geometry on the grid whose pole sits at (theta*, phi*).

    s and t are broadcast to a common shape; returns (position, W, normal,
    theta, phi) where W = |y_s x y_t| is the area element of the rotated
    parameterization (it absorbs the sin(s) pole factor) and (theta, phi)
    are the unrotated parameters of each node, for density synthesis.

    Stacked poles (theta*, phi* of shape (k,)) give one grid per pole along
    a leading axis.  The directions and tangents on the fixed (s, t) grid
    are built once and rotated by each pole's matrix.
    """
    S, T = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(t, dtype=float))
    R = rotation_matrix(theta_star, phi_star)
    RT = np.swapaxes(R, -1, -2)
    shape = R.shape[:-2] + S.shape + (3,)
    e_s, e_t = _angle_tangents(S, T)
    d, e_s, e_t = ((v.reshape(-1, 3) @ RT).reshape(shape)
                   for v in (direction(S, T), e_s, e_t))
    y, y_s, y_t, W, nu = surface.frame_of_direction(d, e_s, e_t)
    theta = np.arctan2(np.hypot(d[..., 0], d[..., 1]), d[..., 2])
    phi = np.arctan2(d[..., 1], d[..., 0])
    return y, W, nu, theta, phi


def surface_point_and_normal(surface: Surface3D, theta_star, phi_star):
    """Position and outward unit normal at one surface point, or at each of
    stacked points (leading axes of theta*, phi*).

    Pushes forward the orthonormal tangent pair (u, v) of the rotation
    frame instead of the (theta, phi) coordinate basis, so the result is
    well defined at the parameter poles too.  Raises ValueError when the
    frame degenerates at any of the points.
    """
    R = rotation_matrix(theta_star, phi_star)
    y, y1, y2, W, nu = surface.frame_of_direction(R[..., 2], R[..., 0],
                                                  R[..., 1])
    if np.any(W < _POLE_TOL):
        raise ValueError("degenerate surface frame")
    return y, nu

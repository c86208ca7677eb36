"""Analytic closed plane curves and their differential geometry.

A curve is a trigonometric polynomial in each coordinate,

    y_i(t) = sum_k c_ik cos(k t) + s_ik sin(k t),    t in [-pi, pi],

parameterized counterclockwise, so every derivative is available in closed
form.  The unit outward normal is nu = (y2', -y1')/J with J = |y'|, and the
signed curvature kappa = (y1' y2'' - y2' y1'')/J^3 is +1 on the unit circle
with this orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import json
import numpy as np

from .spectral import periodic_nodes

_DEGENERACY_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class Curve2D:
    """Closed curve given by cosine/sine coefficient tables per coordinate.

    cos1[k]/sin1[k] multiply cos(k t)/sin(k t) in the first coordinate,
    cos2/sin2 likewise in the second.  Arrays are indexed by harmonic k
    starting at 0 (the k=0 sine slot is inert).
    """

    kind: str
    cos1: np.ndarray
    sin1: np.ndarray
    cos2: np.ndarray
    sin2: np.ndarray

    def __post_init__(self):
        K = max(len(np.atleast_1d(a)) for a in
                (self.cos1, self.sin1, self.cos2, self.sin2))
        for name in ("cos1", "sin1", "cos2", "sin2"):
            a = np.zeros(K)
            src = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            a[:src.size] = src
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_polygons", {})

    def _coord(self, t, which: int, deriv: int):
        c = self.cos1 if which == 0 else self.cos2
        s = self.sin1 if which == 0 else self.sin2
        k = np.arange(c.size, dtype=float)
        t = np.asarray(t, dtype=float)
        kt = np.multiply.outer(t, k)
        ck, sk = np.cos(kt), np.sin(kt)
        if deriv == 0:
            basis_c, basis_s = ck, sk
            fac = np.ones_like(k)
        elif deriv == 1:
            basis_c, basis_s = -sk, ck
            fac = k
        elif deriv == 2:
            basis_c, basis_s = -ck, -sk
            fac = k*k
        else:
            raise ValueError("deriv must be 0, 1 or 2")
        return basis_c @ (fac*c) + basis_s @ (fac*s)

    def position(self, t):
        return np.stack([self._coord(t, 0, 0), self._coord(t, 1, 0)], axis=-1)

    def derivative(self, t, order: int = 1):
        return np.stack([self._coord(t, 0, order),
                         self._coord(t, 1, order)], axis=-1)


@dataclass(frozen=True, eq=False)
class CurvePoint2D:
    position: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    normal: np.ndarray
    jacobian: np.ndarray
    curvature: np.ndarray


def kite() -> Curve2D:
    """y(t) = (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""
    return Curve2D("kite",
                   cos1=[-0.65, 1.0, 0.65], sin1=[0.0],
                   cos2=[0.0], sin2=[0.0, 1.5])

def star(amplitude: float = 0.3, frequency: int = 5) -> Curve2D:
    """Polar curve r(t) = 1 + a cos(w t), expanded into trig coefficients.

    r cos t and r sin t are exact trig polynomials:
    r cos t = cos t + (a/2)(cos(w+1)t + cos(w-1)t) and similarly for sin.
    """
    w, a = int(frequency), float(amplitude)
    if w < 1:
        raise ValueError("frequency must be a positive integer")
    c1 = np.zeros(w + 2); s2 = np.zeros(w + 2)
    c1[1] += 1.0; s2[1] += 1.0
    c1[w + 1] += a/2; c1[abs(w - 1)] += a/2
    s2[w + 1] += a/2; s2[abs(w - 1)] -= a/2  # k=0 sine slot is inert
    return Curve2D("star", cos1=c1, sin1=[0.0], cos2=[0.0], sin2=s2)

def circle(radius: float = 1.0) -> Curve2D:
    if radius <= 0:
        raise ValueError("radius must be positive")
    return Curve2D("circle", cos1=[0.0, radius], sin1=[0.0],
                   cos2=[0.0], sin2=[0.0, radius])

def fourier_custom(cos1, sin1, cos2, sin2) -> Curve2D:
    return Curve2D("fourier-custom", cos1, sin1, cos2, sin2)

def load_curve(path: str) -> Curve2D:
    """Read a fourier-custom curve from a JSON coefficient file."""
    with open(path) as fh:
        data = json.load(fh)
    return fourier_custom(data["cos1"], data["sin1"],
                          data["cos2"], data["sin2"])


def curve_eval(curve: Curve2D, t) -> CurvePoint2D:
    """Position, derivatives, outward normal, Jacobian and curvature at t.

    Accepts scalar or array parameters; raises if the parameterization
    degenerates (J below 1e-14) anywhere in the batch.
    """
    pos = curve.position(t)
    d1 = curve.derivative(t, 1)
    d2 = curve.derivative(t, 2)
    J = np.linalg.norm(d1, axis=-1)
    if np.any(J <= _DEGENERACY_TOL):
        raise ValueError("degenerate parameterization: |y'| vanishes")
    normal = np.stack([d1[..., 1], -d1[..., 0]], axis=-1)/J[..., None]
    kappa = (d1[..., 0]*d2[..., 1] - d1[..., 1]*d2[..., 0])/J**3
    return CurvePoint2D(pos, d1, d2, normal, J, kappa)


def curve_grid(curve: Curve2D, n: int) -> CurvePoint2D:
    """Geometry at the N equispaced nodes t_j = -pi + 2*pi*j/n."""
    if n < 4 or n % 2:
        raise ValueError("node count must be even and at least 4")
    return curve_eval(curve, periodic_nodes(n))


def _polygon(curve: Curve2D, samples: int):
    """(x1, y1, y2, x2 - x1, y2 - y1) over the edges of the closed polygon
    through `samples` equispaced curve points, built once per curve."""
    edges = curve._polygons.get(samples)
    if edges is None:
        p = curve.position(periodic_nodes(samples))
        x1, y1 = p[:, 0], p[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        edges = curve._polygons[samples] = (x1, y1, y2, x2 - x1, y2 - y1)
    return edges


def point_inside(curve: Curve2D, x, samples: int = 2048) -> bool:
    """Even-odd ray test against a fine polygonal sampling of the curve."""
    x = np.asarray(x, dtype=float)
    x1, y1, y2, dx, dy = _polygon(curve, samples)
    cond = (y1 > x[1]) != (y2 > x[1])
    xint = x1[cond] + (x[1] - y1[cond])*dx[cond]/dy[cond]
    return bool(np.count_nonzero(xint > x[0]) % 2)

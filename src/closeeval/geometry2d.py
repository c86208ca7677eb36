"""Analytic closed plane curves and their differential geometry.

A curve is a trigonometric polynomial in each coordinate,

    y_i(t) = sum_k c_ik cos(k t) + s_ik sin(k t),    t in [-pi, pi],

parameterized counterclockwise, so every derivative is available in closed
form.  The unit outward normal is nu = (y2', -y1')/J with J = |y'|, and the
signed curvature kappa = (y1' y2'' - y2' y1'')/J^3 is +1 on the unit circle
with this orientation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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

    def position(self, t):
        return _series(self, t)[0]


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
    return Curve2D(cos1=[-0.65, 1.0, 0.65], sin1=[0.0],
                   cos2=[0.0], sin2=[0.0, 1.5])

def star() -> Curve2D:
    """Polar curve r(t) = 1 + 0.3 cos(5t), expanded into trig coefficients:
    r cos t = cos t + 0.15 (cos 6t + cos 4t) and
    r sin t = sin t + 0.15 (sin 6t - sin 4t)."""
    return Curve2D(cos1=[0.0, 1.0, 0.0, 0.0, 0.15, 0.0, 0.15], sin1=[0.0],
                   cos2=[0.0], sin2=[0.0, 1.0, 0.0, 0.0, -0.15, 0.0, 0.15])


def _series(curve: Curve2D, t):
    """(y, y', y'') at t, each of shape t.shape + (2,), from one table of
    cos(k t) and sin(k t).  A coordinate with cosine and sine coefficients
    (c, s) has (k s, -k c) for y' and (-k^2 c, -k^2 s) for y''."""
    k = np.arange(curve.cos1.size, dtype=float)
    kt = np.multiply.outer(np.asarray(t, dtype=float), k)
    ck, sk = np.cos(kt), np.sin(kt)

    def coords(c1, s1, c2, s2):
        return np.stack([ck @ c1 + sk @ s1, ck @ c2 + sk @ s2], axis=-1)

    c1, s1, c2, s2 = curve.cos1, curve.sin1, curve.cos2, curve.sin2
    return (coords(c1, s1, c2, s2),
            coords(k*s1, -k*c1, k*s2, -k*c2),
            coords(-k*k*c1, -k*k*s1, -k*k*c2, -k*k*s2))


def curve_eval(curve: Curve2D, t) -> CurvePoint2D:
    """Position, derivatives, outward normal, Jacobian and curvature at t.

    Accepts scalar or array parameters; raises if the parameterization
    degenerates (J below 1e-14) anywhere in the batch.
    """
    pos, d1, d2 = _series(curve, t)
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
    """The closed polygon through `samples` equispaced curve points, split
    into its maximal y-monotone chains, built once per curve and samples.

    Each chain is (rising, y, x): whether y rises along its edges as the
    curve runs, then its vertex coordinates in ascending y, as memoryviews
    of float arrays (8 bytes a vertex, read as Python floats).  Horizontal
    edges, which no horizontal ray crosses, belong to no chain.
    """
    chains = curve._polygons.get(samples)
    if chains is None:
        p = curve.position(periodic_nodes(samples))
        rise = np.sign(np.roll(p[:, 1], -1) - p[:, 1])  # of edge i to i + 1
        starts = np.flatnonzero(rise != np.roll(rise, 1))
        ends = np.append(starts[1:], starts[:1] + samples)
        chains = []
        for a, b, up in zip(starts.tolist(), ends.tolist(),
                            rise[starts].tolist()):
            if up:  # edges a..b-1, as vertices a..b in ascending y
                v = np.arange(a, b + 1) % samples
                v = v if up > 0 else v[::-1]
                chains.append((up > 0, memoryview(p[v, 1]),
                               memoryview(p[v, 0])))
        chains = curve._polygons[samples] = tuple(chains)
    return chains


def point_inside(curve: Curve2D, x, samples: int = 2048) -> bool:
    """Even-odd ray test against a fine polygonal sampling of the curve.

    The ray runs from x in +x.  An edge whose end heights satisfy
    y_lo <= x[1] < y_hi is crossed where it meets the ray, and at most one
    edge of each y-monotone chain qualifies, found by bisection.  The
    crossing is computed from the edge's start vertex as the curve runs.
    """
    x = np.asarray(x, dtype=float)
    px, py = float(x[0]), float(x[1])
    inside = False
    for rising, ys, xs in _polygon(curve, samples):
        j = bisect_right(ys, py)  # ys[j - 1] <= py < ys[j]
        if 0 < j < len(ys):
            i, k = (j - 1, j) if rising else (j, j - 1)
            if xs[i] + (py - ys[i])*(xs[k] - xs[i])/(ys[k] - ys[i]) > px:
                inside = not inside
    return inside

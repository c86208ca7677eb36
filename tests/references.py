"""Independent references that several test files check the package
against; no study runs them.

apply_L_direct is the direct quadrature of the Henyey-Greenstein scattering
operator, the check of hgscatter.apply_L_spectral's eigen-action.
pole_second_derivative_average is the finite-difference pole curvature
that the two-term expansion's Laplacian term is checked against.
"""

import warnings

import numpy as np

from closeeval.hgscatter import IntensityField, _ring_average
from closeeval.spectral import mapped_rule, periodic_nodes

# Largest polar rule of apply_L_direct.  Its default count 8/(1 - |g|),
# rounded up to a power of two, reaches it at |g| = 0.999.  The rule build is
# O(n^2): 0.7 s at 8192 nodes, minutes at the 2^17 that g = 0.9999 asks for.
MAX_POLAR_NODES = 8192


def p_hg(cos_theta, g: float):
    """Henyey-Greenstein phase function (1-g^2)/(1+g^2-2g cos)^{3/2},
    normalized so that (1/2) int_0^pi p sin = 1."""
    if not -1 < g < 1:
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    c = np.asarray(cos_theta, dtype=float)
    if np.any(np.abs(c) > 1 + 1e-12):
        raise ValueError("cosine argument outside [-1, 1]")
    return (1.0 - g*g)/(1.0 + g*g - 2.0*g*np.clip(c, -1.0, 1.0))**1.5


def _polar_default(psi: IntensityField, peak_eps: float):
    # enough polar nodes to resolve both the field and the kernel peak,
    # rounded up to a power of two so that a sweep reuses a few cached rules
    n = max(64, 2*psi.N, int(np.ceil(8.0/peak_eps)))
    return 1 << (n - 1).bit_length()


def apply_L_direct(psi: IntensityField, omega, g: float,
                   n_polar: int = None) -> float:
    """Scattering operator by quadrature in the frame with omega at the pole.

    Spectrally accurate for band-limited psi once the polar rule resolves
    the kernel peak of width 1 - g.  Raises ValueError when that would take
    more than MAX_POLAR_NODES polar nodes (|g| > 0.999 by default).
    """
    if not -1 < g < 1:
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    if n_polar is None:
        n_polar = _polar_default(psi, 1.0 - abs(g))
    elif g > 1.0 - 2.0/n_polar:
        warnings.warn("polar rule too coarse for the phase-function peak",
                      RuntimeWarning)
    if n_polar > MAX_POLAR_NODES:
        raise ValueError(f"{n_polar} polar nodes exceed MAX_POLAR_NODES = "
                         f"{MAX_POLAR_NODES} (g = {g})")
    rule = mapped_rule(n_polar)
    az = _ring_average(psi, omega, rule.nodes)
    kern = p_hg(np.cos(rule.nodes), g)
    return float(0.5*np.sum(rule.weights*kern*az*np.sin(rule.nodes)))


def pole_second_derivative_average(sampler, h: float = 1e-3,
                                   n_azimuth: int = 64) -> float:
    """Azimuthal average of the second polar derivative at a rotated pole,
    (1/pi) * int_0^pi  d^2/ds^2 psi(s, t)|_{s=0} dt.

    sampler(s, t) evaluates the field in a frame whose pole is the point of
    interest; both arguments are arrays of equal shape.  Central differences
    in s (the reflection psi(-h, t) = psi(h, t + pi) is built into the full
    2*pi azimuth average) with one Richardson step (h, h/2).  The result
    equals half the spherical Laplacian of the field at the pole.
    """
    t = periodic_nodes(n_azimuth)
    pole = float(np.asarray(sampler(np.zeros(1), np.zeros(1))).ravel()[0])

    def avg(step):
        ring = np.asarray(sampler(np.full(n_azimuth, step), t), dtype=float)
        return 2.0*(ring.mean() - pole)/step**2

    a1, a2 = avg(h), avg(h/2)
    return (4.0*a2 - a1)/3.0

"""Independent references that several test files check the package
against; no study runs them.

apply_L_direct and apply_L32_rings are the direct quadratures of the
Henyey-Greenstein scattering operator and of its leading-order operator on
rotated rings about omega, the checks of hgscatter's degree multipliers.
pole_second_derivative_average is the finite-difference pole curvature
that the two-term expansion's Laplacian term is checked against.
sph_harm_eval and sph_basis_matrix give the harmonics one at a time and as
the dense basis with the m < 0 columns, and rotated_angles the angles of a
rotated grid's nodes.
"""

import warnings

import numpy as np

from closeeval.geometry3d import direction_angles, rotated_frame, unit_sphere
from closeeval.hgscatter import _L32_POLAR_NODES, IntensityField
from closeeval.spectral import (_legendre_table, _tri, mapped_rule,
                                periodic_nodes)

# Largest polar rule of apply_L_direct.  Its default count 8/(1 - |g|),
# rounded up to a power of two, reaches it at |g| = 0.999.  The rule build is
# O(n^2): 0.7 s at 8192 nodes, minutes at the 2^17 that g = 0.9999 asks for.
MAX_POLAR_NODES = 8192
# Ring nodes times N^2 basis values that _ring_average synthesises at once,
# 16 MB of complex basis, so its memory does not grow with the polar rule.
_RING_BLOCK_VALUES = 1 << 20


def rotated_angles(s, t, theta_star: float, phi_star: float):
    """Angles (theta, phi) of the direction R(theta*, phi*) d(s, t) that
    rotated_frame gives each node; where a node is a coordinate pole phi is
    phi*."""
    return direction_angles(
        rotated_frame(unit_sphere(), theta_star, phi_star, s, t)[2], phi_star)


def sph_harm_eval(n: int, m: int, theta, phi):
    """Single orthonormal spherical harmonic Y_nm at the given angles."""
    if abs(m) > n:
        raise ValueError("require |m| <= n")
    th = np.asarray(theta, dtype=float)
    ph = np.asarray(phi, dtype=float)
    P = _legendre_table(np.cos(th).ravel(), np.sin(th).ravel(), n + 1)
    val = P[_tri(n) + abs(m)].reshape(th.shape)*np.exp(1j*abs(m)*ph)
    if m < 0:
        val = (-1)**(-m)*np.conj(val)
    return val


def sph_basis_matrix(theta, phi, N: int) -> np.ndarray:
    """All Y_nm for n < N at the given angles, shape (npoints, N^2), in
    SphericalCoeffs' column order.  Per degree, the m >= 0 slice is
    sph_half_basis's, written in place, and the m < 0 slice its conjugate
    copy.  The result is the transpose of a harmonic-major array."""
    th = np.asarray(theta, dtype=float).ravel()
    ph = np.asarray(phi, dtype=float).ravel()
    powers = np.empty((N, th.size), dtype=complex)
    powers[0] = 1.0
    eip = np.exp(1j*ph)
    for m in range(1, N):
        powers[m] = powers[m - 1]*eip
    P = _legendre_table(np.cos(th), np.sin(th), N)
    rows = np.empty((N*N, th.size), dtype=complex)
    for n in range(N):
        h = rows[n*n + n:(n + 1)**2]
        np.multiply(P[_tri(n):_tri(n + 1)], powers[:n + 1], out=h)
        # m = -n .. -1 from m = n .. 1, then the sign on the odd m
        np.conj(h[:0:-1], out=rows[n*n:n*n + n])
        odd = rows[n*n + (n + 1) % 2:n*n + n:2]
        np.negative(odd, out=odd)
    return rows.T


def _azimuth_count(psi: IntensityField) -> int:
    return max(16, 2*psi.N)


def _ring_average(psi: IntensityField, omega, s_nodes):
    """Azimuthal means of psi - psi(omega) on polar rings about omega,
    synthesised a block of polar nodes at a time."""
    theta0, phi0 = float(omega[0]), float(omega[1])
    t = periodic_nodes(_azimuth_count(psi))
    rows = max(1, _RING_BLOCK_VALUES//(t.size*psi.N**2))
    means = np.empty(s_nodes.size)
    for i in range(0, s_nodes.size, rows):
        th, ph = rotated_angles(s_nodes[i:i + rows, None], t[None, :],
                                theta0, phi0)
        means[i:i + rows] = psi(th, ph).mean(axis=1)
    psi0 = float(psi(np.full(1, theta0), np.full(1, phi0))[0])
    return means - psi0


def apply_L32_rings(psi: IntensityField, omega) -> float:
    """Leading-order operator by the polar quadrature of the ring means of
    psi - psi(omega) about omega against (1 - cos s)^{-3/2} sin s/(2 sqrt 2),
    on the polar rule of hgscatter's L32 multipliers.

    The averaged integrand extends continuously to the pole (it limits to
    a multiple of the spherical Laplacian), and the open polar rule never
    places a node at s = 0.
    """
    rule = mapped_rule(_L32_POLAR_NODES)
    az = _ring_average(psi, omega, rule.nodes)
    kern = (1.0 - np.cos(rule.nodes))**-1.5
    return float(np.sum(rule.weights*kern*az*np.sin(rule.nodes))
                 / (2.0*np.sqrt(2.0)))


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

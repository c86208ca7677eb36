"""Independent references that several test files check the package
against, and the test-only helpers that left the package (DECISIONS.md
D23, D26); no study runs them.

apply_L_direct and apply_L32_rings are the direct quadratures of the
Henyey-Greenstein scattering operator and of its leading-order operator on
rotated rings about omega, the checks of hgscatter's degree multipliers.
pole_second_derivative_average is the finite-difference pole curvature
that the two-term expansion's Laplacian term is checked against.
sph_harm_eval and sph_basis_matrix give the harmonics one at a time and as
the dense basis with the m < 0 columns, and sph_synthesis (that dense
basis times the coefficients) and density_values the expansion and a
density at scattered angles, the check of the rotated synthesis that close
evaluation uses, with synthesis_bound the scale of its tolerance.
direction_angles converts directions back to angles, rotated_frame gives a
rotated grid's geometry and node directions at any (s, t), for one pole or
for stacked poles, which the package's one-pole grids do not take, and
rotated_angles and grid_angles the angles of its nodes.
unit_circle and radial_surface build shapes that no study runs on.
galerkin_matrix turns the Galerkin assembly's real blocks back into the
complex n^2 x n^2 matrix.  _wigner_d forms the Wigner matrices d^l(beta)
that spectral._rotated_rows applies without forming them.  dlp_weights_einsum and kernel_K1_einsum are
the 3D kernels with their dot products taken by einsum, the form the
component-wise kernels replaced.
single, degrees and spherical_laplacian build a one-harmonic field, list
each coefficient slot's degree and apply the Laplace-Beltrami operator.
apply_L32 and poisson_close_eval are hgscatter's leading-order operator and
the Poisson-kernel harmonic extension, from its degree multipliers.
errors_for and fit_for pick one target and method's errors and fit out of
a study result.
gauss_interior_value and gauss_interior_value_3d are the unit-density
potentials at a point, -1 inside by the Gauss identity, and
apply_K_subtracted the 3D boundary operator applied to a callable, on one
target's subtracted quadrature row.  direct_subtracted_weights builds that
row from the target's own rotated grid, the construction that
bie3d.subtracted_weights replaced by a map of the grid about (theta0, 0).
"""

import warnings
from typing import Callable

import numpy as np

from closeeval.bie2d import dlp_sum
from closeeval.bie3d import _from_real, _to_real, dlp_weights, rotated_grid
from closeeval.geometry2d import Curve2D, curve_grid
from closeeval.geometry3d import (_POLE_TOL, Surface3D, direction,
                                  rotation_matrix, surface_point_and_normal,
                                  unit_sphere)
from closeeval.hgscatter import (_L32_POLAR_NODES, _degree_values,
                                 _l32_multipliers)
from closeeval.spectral import (SphericalCoeffs, _legendre_table, _tri,
                                mapped_rule, periodic_nodes)

# Largest polar rule of apply_L_direct.  Its default count 8/(1 - |g|),
# rounded up to a power of two, reaches it at |g| = 0.999.  The rule build is
# O(n^2): 0.7 s at 8192 nodes, minutes at the 2^17 that g = 0.9999 asks for.
MAX_POLAR_NODES = 8192
# Ring nodes times N^2 basis values that _ring_average synthesises at once,
# 16 MB of complex basis, so its memory does not grow with the polar rule.
_RING_BLOCK_VALUES = 1 << 20


def unit_circle() -> Curve2D:
    """y(t) = (cos t, sin t)."""
    return Curve2D(cos1=[0.0, 1.0], sin1=[0.0], cos2=[0.0], sin2=[0.0, 1.0])


def radial_surface(profile, profile_prime, axes) -> Surface3D:
    """The radial surface P(cos theta) diag(axes) d(theta, phi); a positive
    profile and positive axes make it outward, as unit_sphere and mushroom
    are."""
    return Surface3D(profile, profile_prime, np.asarray(axes, dtype=float))


def single(N: int, n: int, m: int, value: complex = 1.0) -> SphericalCoeffs:
    """The degree < N coefficients of value times Y_nm alone."""
    if n >= N:
        raise ValueError("degree exceeds table size")
    out = SphericalCoeffs.zeros(N)
    out.c[SphericalCoeffs.index(n, m)] = value
    return out


def degrees(coeffs: SphericalCoeffs) -> np.ndarray:
    """Degree n of each flat coefficient slot."""
    return np.repeat(np.arange(coeffs.N), 2*np.arange(coeffs.N) + 1)


def spherical_laplacian(coeffs: SphericalCoeffs) -> SphericalCoeffs:
    """Laplace-Beltrami operator on the sphere: multiplies c_nm by -n(n+1)."""
    n = degrees(coeffs)
    return SphericalCoeffs(coeffs.c*(-n*(n + 1.0)))


def errors_for(result, target: str, method: str):
    """(eps, abs_error) arrays for one target/method of a study result, eps
    descending; empty if the study has no such rows."""
    for b in result.blocks:
        if b.target == target and method in b.values:
            return b.eps, np.abs(b.values[method] - b.exact)
    return np.empty(0), np.empty(0)


def fit_for(result, target: str, method: str):
    """The OrderFit of one target/method of a study result."""
    for f in result.fits:
        if f.target == target and f.method == method:
            return f
    raise KeyError(f"no fit for {target!r}/{method!r}")


def gauss_interior_value(curve: Curve2D, x, n: int) -> float:
    """PTR quadrature of the unit-density double-layer potential at x;
    equals -1 for interior points, up to quadrature error."""
    return dlp_sum(curve_grid(curve, n), x, 1.0)


def gauss_interior_value_3d(surface: Surface3D, x, n: int) -> float:
    """Three-step quadrature of the unit-density double-layer potential at
    an interior point, on the grid with its pole at (1.0, 0.5); equals -1
    up to quadrature error."""
    w = dlp_weights(rotated_grid(surface, 1.0, 0.5, n), x)
    return float((1.0/(4*n))*np.sum(w))


def direct_subtracted_weights(surface: Surface3D, theta0: float,
                              phi0: float, n: int):
    """Kernel-times-area quadrature row for the rotated grid about one
    boundary target: entries (1/4pi) w_j dt K(y0, y_jk) W_jk."""
    grid = rotated_grid(surface, theta0, phi0, n)
    y0, _ = surface_point_and_normal(surface, theta0, phi0)
    return (1.0/(4*n))*dlp_weights(grid, y0[None, None, :])


def apply_K_subtracted(surface: Surface3D, g: Callable, theta0: float,
                       phi0: float, n: int) -> float:
    """Boundary double-layer operator applied to g at (theta0, phi0).

    g(theta, phi) must be evaluable at arbitrary parameters.  The subtracted
    integrand vanishes when g is constant, so constants map to -g/2 exactly
    up to roundoff.
    """
    kw = direct_subtracted_weights(surface, theta0, phi0, n)
    g0 = complex(np.asarray(g(np.full(1, theta0), np.full(1, phi0))).ravel()[0])
    vals = np.asarray(g(*grid_angles(theta0, phi0, n)))
    out = np.sum(kw*(vals - g0)) - 0.5*g0
    return out if np.iscomplexobj(vals) else float(np.real(out))


def direction_angles(d, phi_pole: float):
    """Angles (theta, phi) of the unit directions d, the inverse of
    direction: quadrant-aware arctangents keep theta in [0, pi] and phi in
    (-pi, pi], and phi falls back to phi_pole where d is a coordinate pole.
    """
    rho = np.hypot(d[..., 0], d[..., 1])
    theta = np.arctan2(rho, d[..., 2])
    phi = np.where(rho < _POLE_TOL, phi_pole, np.arctan2(d[..., 1], d[..., 0]))
    return theta, phi


def sph_synthesis(coeffs: SphericalCoeffs, theta, phi) -> np.ndarray:
    """Evaluate the truncated expansion at arbitrary angles (complex output),
    as the dense basis times the coefficients."""
    th = np.asarray(theta, dtype=float)
    return (sph_basis_matrix(th, phi, coeffs.N) @ coeffs.c).reshape(th.shape)


def density_values(density, theta, phi) -> np.ndarray:
    """Real values of a Density3D at arbitrary parameters."""
    return np.real(sph_synthesis(density.coeffs, theta, phi))


def synthesis_bound(coeffs: SphericalCoeffs) -> float:
    """sum |c_lm| sqrt((2l+1)/4pi), a bound on the expansion's modulus,
    since |Y_lm| <= sqrt((2l+1)/4pi) everywhere."""
    n = degrees(coeffs)
    return float(np.abs(coeffs.c) @ np.sqrt((2*n + 1)/(4*np.pi)))


def rotated_frame(surface: Surface3D, theta_star, phi_star, s, t):
    """(position, area-weighted normal, direction) at the nodes (s, t),
    broadcast together, of the grid whose pole sits at (theta*, phi*);
    stacked poles (theta*, phi* broadcast together) give one grid per pole
    along leading axes."""
    S, T = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(t, dtype=float))
    local = direction(S, T)
    poles = np.broadcast(np.asarray(theta_star), np.asarray(phi_star))
    R = np.reshape([rotation_matrix(*pole) for pole in poles],
                   poles.shape + (3, 3))
    d = (local.reshape(-1, 3) @ np.swapaxes(R, -1, -2)).reshape(
        R.shape[:-2] + local.shape)
    # the rotated tangents d_s and d_t have d_s x d_t = sin(s) d
    return surface.area_normal(d, np.sin(S)) + (d,)


def grid_angles(theta0: float, phi0: float, n: int):
    """Angles (theta, phi) of the nodes of rotated_grid(., theta0, phi0, n);
    phi is phi0 where a node is a coordinate pole.  On the unit sphere a
    node's position is its direction."""
    return direction_angles(rotated_grid(unit_sphere(), theta0, phi0, n)[1],
                            phi0)


def rotated_angles(s, t, theta_star: float, phi_star: float):
    """Angles (theta, phi) of the direction R(theta*, phi*) d(s, t) that
    rotated_frame gives each node; where a node is a coordinate pole phi is
    phi*."""
    return direction_angles(
        rotated_frame(unit_sphere(), theta_star, phi_star, s, t)[2], phi_star)


def _dot3(a, b):
    """Dot products of 3-vectors along the last axis, by einsum."""
    return np.einsum("...i,...i->...", a, b)


def dlp_weights_einsum(grid, x):
    """bie3d.dlp_weights with einsum dot products."""
    w, y, area_normal = grid
    diff = np.asarray(x, dtype=float) - y
    r2 = _dot3(diff, diff)
    return w*(_dot3(area_normal, diff)/(r2*np.sqrt(r2)))


def kernel_K1_einsum(y, nu, ystar, nustar):
    """closeeval3d._kernel_K1 with einsum dot products."""
    yd = ystar - y
    r2 = _dot3(yd, yd)
    return (3*_dot3(nu, yd)*_dot3(nustar, yd)
            - r2*_dot3(nu, nustar))/r2**2.5


def galerkin_matrix(blocks, n: int) -> np.ndarray:
    """The complex Galerkin matrix in SphericalCoeffs' order from
    assemble_galerkin's four real blocks: column j is the unit coefficient
    vector e_j carried into the real basis, through the blocks and back."""
    A = np.empty((n*n, n*n), dtype=complex)
    for j, e in enumerate(np.eye(n*n)):
        A[:, j] = _from_real([B @ a for B, a in zip(blocks, _to_real(e, n))],
                             n)
    return A


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
    SphericalCoeffs' column order.  Per degree, the m >= 0 slice is the
    Legendre rows times e^{im phi}, written in place, and the m < 0 slice
    its conjugate copy.  The result is the transpose of a harmonic-major
    array."""
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


def _azimuth_count(psi: SphericalCoeffs) -> int:
    return max(16, 2*psi.N)


def _ring_average(psi: SphericalCoeffs, omega, s_nodes):
    """Azimuthal means of psi - psi(omega) on polar rings about omega, for
    the real field with harmonic coefficients psi, synthesised a block of
    polar nodes at a time."""
    theta0, phi0 = float(omega[0]), float(omega[1])
    t = periodic_nodes(_azimuth_count(psi))
    rows = max(1, _RING_BLOCK_VALUES//(t.size*psi.N**2))
    means = np.empty(s_nodes.size)
    for i in range(0, s_nodes.size, rows):
        th, ph = rotated_angles(s_nodes[i:i + rows, None], t[None, :],
                                theta0, phi0)
        means[i:i + rows] = np.real(sph_synthesis(psi, th, ph)).mean(axis=1)
    psi0 = float(np.real(sph_synthesis(psi, np.full(1, theta0),
                                       np.full(1, phi0))[0]))
    return means - psi0


def apply_L32_rings(psi: SphericalCoeffs, omega) -> float:
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


def apply_L32(psi: SphericalCoeffs, omega) -> float:
    """Nonlocal leading-order operator: integral of the azimuth-averaged,
    pole-subtracted field against (1 - cos s)^{-3/2} sin s / (2 sqrt 2),
    taken degree by degree (hgscatter._l32_multipliers)."""
    return float(_l32_multipliers(psi.N) @ _degree_values(psi, omega))


def poisson_close_eval(f: SphericalCoeffs, ystar, eps: float) -> float:
    """Harmonic extension of boundary data f on the unit sphere, evaluated
    at radius 1 - eps along the direction ystar = (theta*, phi*).

    The Poisson kernel equals the HG phase function at g = 1 - eps and has
    unit mass, so the extension is f(ystar) plus the scattering operator
    at that g: sum_n (1 - eps)^n s_n(ystar).
    """
    if not 0 < eps < 1:
        raise ValueError("depth parameter must lie in (0, 1)")
    return float((1.0 - eps)**np.arange(f.N) @ _degree_values(f, ystar))


def p_hg(cos_theta, g: float):
    """Henyey-Greenstein phase function (1-g^2)/(1+g^2-2g cos)^{3/2},
    normalized so that (1/2) int_0^pi p sin = 1."""
    if not -1 < g < 1:
        raise ValueError("anisotropy factor must satisfy |g| < 1")
    c = np.asarray(cos_theta, dtype=float)
    if np.any(np.abs(c) > 1 + 1e-12):
        raise ValueError("cosine argument outside [-1, 1]")
    return (1.0 - g*g)/(1.0 + g*g - 2.0*g*np.clip(c, -1.0, 1.0))**1.5


def _polar_default(psi: SphericalCoeffs, peak_eps: float):
    # enough polar nodes to resolve both the field and the kernel peak,
    # rounded up to a power of two so that a sweep reuses a few cached rules
    n = max(64, 2*psi.N, int(np.ceil(8.0/peak_eps)))
    return 1 << (n - 1).bit_length()


def apply_L_direct(psi: SphericalCoeffs, omega, g: float,
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


def _wigner_d(U: np.ndarray, beta, rows: int = 0) -> np.ndarray:
    """Wigner d^l(beta) = exp(-i beta J_y) from U = _jy_eigenvectors(l):
    the rows m = rows - l .. l and every column m' = -l .. l.  An array of
    angles gives one matrix per angle along leading axes.

    Y_lm(R_y(beta) p) = sum_m' d_mm' Y_lm'(p), with R_y = rotation_matrix(
    beta, 0).  d_mm' = Re(i^(m-m') sum_k U_mk U_m'k e^{-ik beta}), and the
    eigenvalues k = -l..l are used exactly."""
    l = (len(U) - 1)//2
    k = np.arange(-l, l + 1)
    top = U[rows:]
    angle = np.asarray(beta, dtype=float)[..., None, None]*k
    C = (top*np.cos(angle)) @ U.T
    S = (top*np.sin(angle)) @ U.T
    # i^(m-m') (C - iS) is real: C where m - m' is even, S where it is odd,
    # with the sign of the power of i
    gap = (k[rows:, None] - k[None, :]) % 4
    return np.choose(gap, (C, S, -C, -S))

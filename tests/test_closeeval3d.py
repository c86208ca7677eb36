import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import closeeval3d, spectral
from closeeval.bie3d import (Density3D, _rotated_synthesis,
                             exact_point_source_3d,
                             harmonic_point_source_3d, rotated_grid,
                             solve_density3d)
from closeeval.closeeval3d import (METHODS, _kernel_K1, _points,
                                   close_eval_3d)
from closeeval.geometry3d import (mushroom, surface_point_and_normal,
                                  unit_sphere)
from closeeval.spectral import SphericalCoeffs

from references import (density_values, grid_angles, kernel_K1_einsum,
                        rotated_angles, single, sph_harm_eval)

SOURCE = (5.0, 4.0, 3.0)


def _kernel_K1_3d(surface, s, t, theta_star, phi_star):
    # the first expansion kernel on the rotated grid about the target, with
    # the unit normal, which stays defined where the rotated grid meets a
    # parameter pole; surface_point_and_normal takes one point at a time
    th, ph = np.broadcast_arrays(*rotated_angles(s, t, theta_star, phi_star))
    frames = [surface_point_and_normal(surface, *p)
              for p in zip(th.flat, ph.flat)]
    y, nu = (np.reshape(a, th.shape + (3,)) for a in zip(*frames))
    ystar, nustar = surface_point_and_normal(surface, theta_star, phi_star)
    return _kernel_K1(y, nu, ystar, nustar)


def _azimuthal_average_profile(density, theta_star, phi_star):
    # the azimuth-averaged integrand K1 W [mu - mu*] of U1 at each polar
    # node of the grid at the density degree, diagnostic for its
    # continuous extension to the pole
    _, y, area_normal = rotated_grid(density.surface, theta_star, phi_star,
                                     density.N)
    ystar, nustar = surface_point_and_normal(density.surface, theta_star,
                                             phi_star)
    K1W = _kernel_K1(y, area_normal, ystar, nustar)
    mu_star, mu = _rotated_synthesis(density.coeffs, theta_star, phi_star)
    dmu = mu - mu_star
    return np.mean(K1W*dmu, axis=1)


def _padded(density, N):
    # the same function with zero coefficients up to degree N - 1, whose
    # evaluation grid has N polar nodes
    c = np.zeros(N*N, dtype=complex)
    c[:density.N**2] = density.coeffs.c
    return Density3D(density.surface, SphericalCoeffs(c), density.data)


def _target_points(surface, theta, phi, eps):
    """The evaluation points y* - eps*nu* of the target (theta, phi)."""
    return _points(*surface_point_and_normal(surface, theta, phi), eps)


def sphere_kernel_closed_form(s):
    # on the unit sphere the first expansion kernel depends only on the
    # polar gap: (1 - c)(c - 3) / (2(1 - c))^(5/2) with c = cos s
    c = np.cos(s)
    return (1 - c)*(c - 3)/(2*(1 - c))**2.5


@pytest.fixture(scope="module")
def sphere_source_density():
    sph = unit_sphere()
    f = harmonic_point_source_3d(sph, SOURCE)
    return solve_density3d(sph, f, 8)


def _y10_density(N=24):
    data = lambda th, ph: np.real(sph_harm_eval(1, 0, th, ph))
    return Density3D(unit_sphere(), single(N, 1, 0, -1.5),
                     data)


def test_kernel_antipode_value():
    # the antipodal node of the rotated grid sits at a parameter pole;
    # the closed form there is exactly -1/4
    for ts, ps in [(0.0, 0.0), (1.1, 0.7), (np.pi, -0.2)]:
        v = _kernel_K1_3d(unit_sphere(), np.pi, 0.3, ts, ps)
        assert_allclose(v, -0.25, atol=1e-13)


def test_kernel_azimuth_independence_on_sphere():
    s = np.array([0.4, 1.3, 2.8])[:, None]
    t = np.linspace(-np.pi, np.pi, 9)[None, :]
    v = _kernel_K1_3d(unit_sphere(), s, t, 0.9, 0.4)
    assert np.max(np.ptp(v, axis=1)) < 1e-13


def test_kernel_closed_form_on_sphere():
    s = np.linspace(0.2, 3.0, 15)
    v = _kernel_K1_3d(unit_sphere(), s, 0.0, 1.2, -0.6)
    assert_allclose(v, sphere_kernel_closed_form(s), atol=1e-13)


def test_kernel_finite_on_mushroom():
    s = np.linspace(0.05, np.pi, 40)[:, None]
    t = np.linspace(-np.pi, np.pi, 16)[None, :]
    v = _kernel_K1_3d(mushroom(), s, t, 1.3, 0.9)
    assert np.all(np.isfinite(v))


def test_kernel_coincidence_raises():
    with pytest.raises(ValueError):
        _kernel_K1_3d(unit_sphere(), 0.0, 0.0, 0.9, 0.4)


def test_constant_density_is_exact():
    c = 2.3
    mu0 = c/np.sqrt(4*np.pi)
    d = Density3D(unit_sphere(), single(8, 0, 0, c),
                  lambda th, ph: np.full(np.shape(th), -mu0))
    v = close_eval_3d(d, 1.0, 0.5, 1e-3)
    assert abs(v["numerical"] + mu0) < 1e-14
    assert_allclose(v["asym2"], -mu0, rtol=1e-15)
    # U1 is zero: the asymptotic value does not move with eps
    u1 = (close_eval_3d(d, 1.0, 0.5, 0.3)["asym2"] - v["asym2"])/(0.3 - 1e-3)
    assert abs(u1) < 1e-15


def test_methods_agree_on_degree_one_field():
    # with first-degree data the interior solution is linear in eps, so
    # both evaluations track the exact value to quadrature precision
    d = _y10_density(24)
    for ts, ps in [(0.9, 0.4), (2.0, -2.0)]:
        exact = 0.7*np.real(sph_harm_eval(1, 0, ts, ps))
        num, asym = close_eval_3d(d, ts, ps, 0.3).values()
        assert abs(num - exact) < 1e-6
        assert abs(asym - exact) < 1e-6
        assert abs(num - asym) < 1e-6


def test_asymptotic_error_is_second_order(sphere_source_density):
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        asym = close_eval_3d(sphere_source_density, 1.1, 0.6, eps)["asym2"]
        errs.append(abs(asym - exact_point_source_3d(
            _target_points(sphere_source_density.surface, 1.1, 0.6, eps),
            SOURCE)))
    assert 50 < errs[0]/errs[1] < 200
    assert 50 < errs[1]/errs[2] < 200


def test_numerical_error_stays_small_near_boundary(sphere_source_density):
    d = _padded(sphere_source_density, 24)
    for eps in (1e-1, 1e-2, 1e-3):
        num = close_eval_3d(d, 1.1, 0.6, eps, methods=("numerical",))
        err = abs(num["numerical"] - exact_point_source_3d(
            _target_points(d.surface, 1.1, 0.6, eps), SOURCE))
        assert err < 1e-6


def test_azimuthal_profile_extends_to_pole(sphere_source_density):
    prof = _azimuthal_average_profile(_padded(sphere_source_density, 24),
                                      1.1, 0.6)
    assert prof.shape == (24,)
    assert np.all(np.isfinite(prof))
    scale = np.max(np.abs(prof))
    # no pole blow-up: the cell nearest the pole stays on scale and
    # varies smoothly into its neighbors
    assert abs(prof[0]) <= 5*scale
    assert abs(prof[0] - prof[1]) < 0.05*scale


def test_correction_matches_asym_recomposition(sphere_source_density):
    # the asymptotic value is f* + eps U1 with one U1 for every eps
    fstar = float(sphere_source_density.data(np.full(1, 0.7),
                                             np.full(1, -0.3))[0])
    eps = np.array([2e-2, 1e-3])
    asym = close_eval_3d(sphere_source_density, 0.7, -0.3, eps)["asym2"]
    u1 = (asym[0] - fstar)/2e-2
    assert u1 != 0
    assert_allclose(asym, fstar + eps*u1, rtol=1e-15)


def test_request_defaults_and_validation(sphere_source_density):
    d = sphere_source_density
    v = close_eval_3d(d, 1.0, 0.5, 1e-2)
    assert tuple(v) == METHODS
    assert v == close_eval_3d(d, 1.0, 0.5, 1e-2, METHODS)
    for kw in ({"eps": 0.0}, {"eps": [1e-2, -1e-3]},
               {"methods": ("numerical", "asym3")}):
        args = {"density": d, "theta_star": 1.0, "phi_star": 0.5,
                "eps": 1e-2, **kw}
        with pytest.raises(ValueError):
            close_eval_3d(**args)
    # interiority is the caller's test: a point that exits through the far
    # side of the sphere is evaluated, and contains finds it outside
    assert set(close_eval_3d(d, 1.0, 0.5, 2.5)) == set(METHODS)
    assert not d.surface.contains(_target_points(d.surface, 1.0, 0.5, 2.5))


def test_eps_vector_matches_scalar_requests():
    # one call over several eps shares the rotated grid and the density
    # samples, and gives exactly the values of one call per eps
    surf = mushroom()
    rng = np.random.default_rng(3)
    coeffs = SphericalCoeffs(rng.normal(size=64) + 1j*rng.normal(size=64))
    d = Density3D(surf, coeffs, harmonic_point_source_3d(surf, SOURCE))
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    vec = close_eval_3d(d, 1.3, 0.9, np.array(eps))
    for method in METHODS:
        scalars = [close_eval_3d(d, 1.3, 0.9, e, methods=(method,))[method]
                   for e in eps]
        assert all(isinstance(v, float) for v in scalars)
        assert vec[method].shape == (4,)
        assert vec[method].tolist() == scalars


def test_asym_requires_data_or_override():
    d = Density3D(unit_sphere(), single(8, 0, 0, 1.0))
    with pytest.raises(ValueError):
        close_eval_3d(d, 1.0, 0.5, 1e-2)
    with pytest.raises(ValueError):
        close_eval_3d(d, 1.0, 0.5, 1e-2, methods=("asym2",))
    num = close_eval_3d(d, 1.0, 0.5, 1e-2, methods=("numerical",))
    assert list(num) == ["numerical"]


def test_request_builds_one_grid_for_every_method(monkeypatch):
    # one call builds the grid once and makes one rotated synthesis, which
    # gives mu* and mu on the grid together, for both methods; its values
    # are those of one call per method
    d = _y10_density(8)
    eps = np.array([1e-1, 1e-3])
    expected = [close_eval_3d(d, 0.9, 0.4, eps, methods=(m,))[m]
                for m in METHODS]
    calls = {"grid": 0, "synthesis": 0}
    grid, synthesis = closeeval3d.rotated_grid, closeeval3d._rotated_synthesis

    def counted_grid(*args):
        calls["grid"] += 1
        return grid(*args)

    def counted_synthesis(*args):
        calls["synthesis"] += 1
        return synthesis(*args)

    monkeypatch.setattr(closeeval3d, "rotated_grid", counted_grid)
    monkeypatch.setattr(closeeval3d, "_rotated_synthesis", counted_synthesis)
    values = close_eval_3d(d, 0.9, 0.4, eps)
    assert calls == {"grid": 1, "synthesis": 1}
    for method, want in zip(METHODS, expected):
        assert values[method].tolist() == want.tolist()


@pytest.mark.parametrize("surface", [unit_sphere, mushroom],
                         ids=["sphere", "mushroom"])
def test_component_K1_matches_einsum_form(surface):
    # K1 with the components taken apart is the einsum form to a few ulps
    # of its largest value on the rotated grid
    s = surface()
    for theta, phi in [(0.3, 0.0), (1.2, 2.0), (2.9, -1.0), (0.0, 0.4)]:
        _, y, area_normal = rotated_grid(s, theta, phi, 12)
        ystar, nustar = surface_point_and_normal(s, theta, phi)
        got = _kernel_K1(y, area_normal, ystar, nustar)
        want = kernel_K1_einsum(y, area_normal, ystar, nustar)
        assert np.max(np.abs(got - want)) <= 1e-15*np.max(np.abs(want))


@pytest.mark.parametrize("theta,phi", [(0.9, 0.4), (0.0, 1.3), (np.pi, 0.0),
                                       (2.2, -2.5)])
def test_joint_synthesis_matches_two_separate_calls(theta, phi):
    # the one rotated synthesis gives mu on the grid and mu* at the target
    # jointly; two scattered syntheses, at the grid's node directions and
    # at the target, give them to rounding (1e-15 of sum |c_lm|), and
    # close_eval_3d reads mu* and mu - mu* from the joint one
    d = solve_density3d(mushroom(), harmonic_point_source_3d(
        mushroom(), SOURCE), 10)
    mu_star, mu = _rotated_synthesis(d.coeffs, theta, phi)
    scale = np.sum(np.abs(d.coeffs.c))
    on_grid = density_values(d, *grid_angles(theta, phi, d.N))
    single = density_values(d, np.full(1, theta), np.full(1, phi))[0]
    assert np.max(np.abs(mu - on_grid)) <= 1e-15*scale
    assert abs(mu_star - single) <= 1e-15*scale
    eps = np.array([1e-1, 1e-2, 1e-3])
    x = _target_points(d.surface, theta, phi, eps)
    grid = rotated_grid(d.surface, theta, phi, d.N)
    w = closeeval3d.dlp_weights(grid, x[..., None, None, :])
    numerical = -mu_star + (1.0/(4*d.N))*np.sum(w*(mu - mu_star),
                                                axis=(-2, -1))
    got = close_eval_3d(d, theta, phi, eps, methods=("numerical",))
    assert got["numerical"].tolist() == numerical.tolist()


def test_no_table_grows_with_the_targets():
    # the rotation reads the J_y eigenvectors and its factors, one entry of
    # each per degree; more targets, at new colatitudes, add none
    d = _y10_density(12)
    close_eval_3d(d, 0.9, 0.4, 1e-2)
    caches = (spectral._jy_eigenvectors, spectral._rotation_factors)
    held = [cache.cache_info().currsize for cache in caches]
    assert held[1] >= 12
    for theta in np.linspace(0.0, np.pi, 9):
        close_eval_3d(d, theta, 2*theta, 1e-2)
    assert [cache.cache_info().currsize for cache in caches] == held

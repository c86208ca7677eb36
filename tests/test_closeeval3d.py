import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import closeeval3d
from closeeval.bie3d import (Density3D, assemble_galerkin,
                             exact_point_source_3d,
                             harmonic_point_source_3d, solve_density3d)
from closeeval.closeeval3d import (CloseEvalRequest3D, _kernel_K1,
                                   asym_correction_3d, asym_eps2_3d,
                                   dlp_numerical_3d)
from closeeval.geometry3d import (mushroom, surface_point_and_normal,
                                  unit_sphere)
from closeeval.spectral import SphericalCoeffs

from references import rotated_angles, sph_harm_eval

SOURCE = (5.0, 4.0, 3.0)


def _kernel_K1_3d(surface, s, t, theta_star, phi_star, ell=1.0):
    # the first expansion kernel on the rotated grid about the target, with
    # the unit normal, which stays defined where the rotated grid meets a
    # parameter pole
    y, nu = surface_point_and_normal(
        surface, *rotated_angles(s, t, theta_star, phi_star))
    ystar, nustar = surface_point_and_normal(surface, theta_star, phi_star)
    return _kernel_K1(y, nu, ystar, nustar, ell)


def _azimuthal_average_profile(request):
    # the azimuth-averaged integrand K1 W [mu - mu*] of U1 at each polar
    # node, diagnostic for its continuous extension to the pole
    _, y, area_normal, _ = request.grid
    ystar, nustar = request.target()
    K1W = _kernel_K1(y, area_normal, ystar, nustar, request.ell)
    return np.mean(K1W*request.dmu, axis=1)


def sphere_kernel_closed_form(s):
    # on the unit sphere the first expansion kernel depends only on the
    # polar gap: (1 - c)(c - 3) / (2(1 - c))^(5/2) with c = cos s
    c = np.cos(s)
    return (1 - c)*(c - 3)/(2*(1 - c))**2.5


@pytest.fixture(scope="module")
def sphere_source_density():
    sph = unit_sphere()
    A = assemble_galerkin(sph, 8)
    f = harmonic_point_source_3d(sph, SOURCE)
    return solve_density3d(sph, f, 8, matrix=A)


def _y10_density(N=24):
    data = lambda th, ph: np.real(sph_harm_eval(1, 0, th, ph))
    return Density3D(unit_sphere(), SphericalCoeffs.single(N, 1, 0, -1.5),
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


def test_kernel_scales_with_ell():
    v1 = _kernel_K1_3d(mushroom(), 1.0, 0.5, 0.8, 0.3, ell=1.0)
    v3 = _kernel_K1_3d(mushroom(), 1.0, 0.5, 0.8, 0.3, ell=3.0)
    assert_allclose(v3, 3*v1, rtol=1e-14)


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
    d = Density3D(unit_sphere(), SphericalCoeffs.single(8, 0, 0, c),
                  lambda th, ph: np.full(np.shape(th), -mu0))
    r = CloseEvalRequest3D(d, 1.0, 0.5, 1e-3)
    assert abs(dlp_numerical_3d(r) + mu0) < 1e-14
    assert abs(asym_correction_3d(r)) < 1e-15
    assert_allclose(asym_eps2_3d(r), -mu0, rtol=1e-15)


def test_methods_agree_on_degree_one_field():
    # with first-degree data the interior solution is linear in eps, so
    # both evaluations track the exact value to quadrature precision
    d = _y10_density(24)
    for ts, ps in [(0.9, 0.4), (2.0, -2.0)]:
        r = CloseEvalRequest3D(d, ts, ps, 0.3)
        exact = 0.7*np.real(sph_harm_eval(1, 0, ts, ps))
        num = dlp_numerical_3d(r)
        asym = asym_eps2_3d(r)
        assert abs(num - exact) < 1e-6
        assert abs(asym - exact) < 1e-6
        assert abs(num - asym) < 1e-6


def test_asymptotic_error_is_second_order(sphere_source_density):
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        r = CloseEvalRequest3D(sphere_source_density, 1.1, 0.6, eps)
        errs.append(abs(asym_eps2_3d(r)
                        - exact_point_source_3d(r.point(), SOURCE)))
    assert 50 < errs[0]/errs[1] < 200
    assert 50 < errs[1]/errs[2] < 200


def test_numerical_error_stays_small_near_boundary(sphere_source_density):
    for eps in (1e-1, 1e-2, 1e-3):
        r = CloseEvalRequest3D(sphere_source_density, 1.1, 0.6, eps, n=24)
        err = abs(dlp_numerical_3d(r)
                  - exact_point_source_3d(r.point(), SOURCE))
        assert err < 1e-6


def test_azimuthal_profile_extends_to_pole(sphere_source_density):
    r = CloseEvalRequest3D(sphere_source_density, 1.1, 0.6, 1e-2, n=24)
    prof = _azimuthal_average_profile(r)
    assert prof.shape == (24,)
    assert np.all(np.isfinite(prof))
    scale = np.max(np.abs(prof))
    # no pole blow-up: the cell nearest the pole stays on scale and
    # varies smoothly into its neighbors
    assert abs(prof[0]) <= 5*scale
    assert abs(prof[0] - prof[1]) < 0.05*scale


def test_correction_matches_asym_recomposition(sphere_source_density):
    r = CloseEvalRequest3D(sphere_source_density, 0.7, -0.3, 2e-2)
    u1 = asym_correction_3d(r)
    fstar = float(sphere_source_density.data(np.full(1, 0.7),
                                             np.full(1, -0.3))[0])
    assert_allclose(asym_eps2_3d(r), fstar + 2e-2*u1, rtol=1e-15)


def test_request_defaults_and_validation(sphere_source_density):
    d = sphere_source_density
    r = CloseEvalRequest3D(d, 1.0, 0.5, 1e-2)
    assert r.n == d.N
    with pytest.raises(ValueError):
        CloseEvalRequest3D(d, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        CloseEvalRequest3D(d, 1.0, 0.5, 1e-2, ell=0.0)
    with pytest.raises(ValueError):
        CloseEvalRequest3D(d, 1.0, 0.5, 2.5)  # exits through the far side


def test_eps_vector_matches_scalar_requests():
    # one request over several eps shares the rotated grid and the density
    # samples, and gives exactly the values of one request per eps
    surf = mushroom()
    rng = np.random.default_rng(3)
    coeffs = SphericalCoeffs(8, rng.normal(size=64) + 1j*rng.normal(size=64))
    d = Density3D(surf, coeffs, harmonic_point_source_3d(surf, SOURCE))
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    vec = CloseEvalRequest3D(d, 1.3, 0.9, np.array(eps))
    assert vec.point().shape == (4, 3)
    for evaluate in (dlp_numerical_3d, asym_eps2_3d):
        scalars = [evaluate(CloseEvalRequest3D(d, 1.3, 0.9, e)) for e in eps]
        assert all(isinstance(v, float) for v in scalars)
        values = evaluate(vec)
        assert values.shape == (4,)
        assert values.tolist() == scalars
    with pytest.raises(ValueError):
        CloseEvalRequest3D(d, 1.3, 0.9, np.array([1e-2, 5.0]))  # outside


def test_asym_requires_data_or_override():
    d = Density3D(unit_sphere(), SphericalCoeffs.single(8, 0, 0, 1.0))
    r = CloseEvalRequest3D(d, 1.0, 0.5, 1e-2)
    with pytest.raises(ValueError):
        asym_eps2_3d(r)


def test_request_builds_one_grid_for_every_method(monkeypatch):
    # the grid, mu* and mu - mu* are built once per request, whichever
    # methods read them, and the values are those of a fresh request each
    d = _y10_density(8)
    fresh = lambda: CloseEvalRequest3D(d, 0.9, 0.4, np.array([1e-1, 1e-3]))
    methods = (dlp_numerical_3d, asym_eps2_3d, _azimuthal_average_profile)
    expected = [method(fresh()) for method in methods]
    calls = {"grid": 0, "synthesis": 0}
    grid, synthesis = closeeval3d.rotated_grid, Density3D.__call__

    def counted_grid(*args):
        calls["grid"] += 1
        return grid(*args)

    def counted_synthesis(self, theta, phi):
        calls["synthesis"] += 1
        return synthesis(self, theta, phi)

    monkeypatch.setattr(closeeval3d, "rotated_grid", counted_grid)
    monkeypatch.setattr(Density3D, "__call__", counted_synthesis)
    r = fresh()
    for method, values in zip(methods, expected):
        assert method(r).tolist() == values.tolist()
    assert calls == {"grid": 1, "synthesis": 2}

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import references
from closeeval import hgscatter, spectral
from closeeval.hgscatter import (IntensityField, apply_L32,
                                 apply_L_asymptotic, apply_L_spectral,
                                 poisson_close_eval)
from closeeval.spectral import (SphericalCoeffs, mapped_rule,
                                spherical_laplacian)

from references import (MAX_POLAR_NODES, apply_L32_rings, apply_L_direct,
                        p_hg, sph_harm_eval, _polar_default, _ring_average)

OMEGA = (1.1, 0.7)


def _field(n, m, value=1.0, N=6):
    return IntensityField(SphericalCoeffs.single(N, n, m, value))


def _at(psi, omega=OMEGA):
    return float(psi(np.full(1, omega[0]), np.full(1, omega[1]))[0])


def _random_band_limited(rng, N):
    c = SphericalCoeffs.zeros(N)
    for n in range(N):
        c.c[SphericalCoeffs.index(n, 0)] = rng.normal()
        for m in range(1, n + 1):
            z = rng.normal() + 1j*rng.normal()
            c.c[SphericalCoeffs.index(n, m)] = z
            c.c[SphericalCoeffs.index(n, -m)] = (-1)**m*np.conj(z)
    return c


def test_phase_function_values():
    assert_allclose(p_hg(0.3, 0.0), 1.0, atol=1e-15)
    # forward peak at g = 0.9: (1 - g^2)/(1 - g)^3 = 190
    assert_allclose(p_hg(1.0, 0.9), 190.0, rtol=1e-12)
    assert_allclose(p_hg(-1.0, 0.9), (1 - 0.81)/(1.9)**3, rtol=1e-12)


def test_phase_function_validation():
    with pytest.raises(ValueError):
        p_hg(0.5, 1.0)
    with pytest.raises(ValueError):
        p_hg(1.5, 0.5)


@pytest.mark.parametrize("g,n,tol", [(0.5, 128, 1e-12), (0.9, 512, 1e-9)])
def test_phase_function_normalization(g, n, tol):
    rule = mapped_rule(n)
    total = 0.5*np.sum(rule.weights*p_hg(np.cos(rule.nodes), g)
                       * np.sin(rule.nodes))
    assert_allclose(total, 1.0, atol=tol)


def test_operator_annihilates_constants():
    psi = _field(0, 0, 3.7)
    assert abs(apply_L_direct(psi, OMEGA, 0.6)) < 1e-15
    assert abs(apply_L32(psi, OMEGA)) < 1e-15
    assert abs(apply_L_asymptotic(psi, OMEGA, 0.1)) < 1e-15


@pytest.mark.parametrize("g", [0.3, 0.5, 0.7, 0.9])
def test_operator_eigenvalues(g):
    worst = 0.0
    for n in range(5):
        for m in (-n, 0, n):
            psi = _field(n, m, 1.0 + 0.5j)
            v = apply_L_direct(psi, OMEGA, g)
            worst = max(worst, abs(v - (g**n - 1)*_at(psi)))
    assert worst < 1e-12


def test_isotropic_limit():
    # g = 0 scatters to the mean: L psi = mean(psi) - psi
    rng = np.random.default_rng(11)
    c = _random_band_limited(rng, 5)
    psi = IntensityField(c)
    mean = float(np.real(c.get(0, 0)))/np.sqrt(4*np.pi)
    v = apply_L_direct(psi, OMEGA, 0.0)
    assert_allclose(v, mean - _at(psi), atol=1e-12)


def test_coarse_polar_rule_warns():
    psi = _field(2, 0)
    with pytest.warns(RuntimeWarning):
        apply_L_direct(psi, OMEGA, 0.95, n_polar=32)


def test_default_polar_rule_is_a_power_of_two():
    psi = _field(2, 0)
    assert _polar_default(psi, 0.5) == 64
    assert _polar_default(psi, 1e-2) == 1024
    assert _polar_default(psi, 1e-3) == 8192
    sizes = {_polar_default(psi, eps) for eps in np.logspace(-3, -1, 51)}
    assert sizes == {128, 256, 512, 1024, 2048, 4096, 8192}


def test_polar_rule_above_the_cap_raises_before_it_is_built():
    # g = 0.9999 asks for 2^17 polar nodes, a rule that takes minutes
    psi = _field(2, 0)
    built = spectral._gl_cached.cache_info().misses
    start = time.perf_counter()
    for g, n_polar in ((0.9999, None), (-0.9999, None),
                       (0.5, MAX_POLAR_NODES + 1)):
        with pytest.raises(ValueError, match="MAX_POLAR_NODES"):
            apply_L_direct(psi, OMEGA, g, n_polar=n_polar)
    assert time.perf_counter() - start < 1.0
    assert spectral._gl_cached.cache_info().misses == built


@pytest.mark.parametrize("g", [-0.4, 0.0, 0.5, 0.9])
def test_spectral_action_matches_quadrature(g):
    psi = IntensityField(_random_band_limited(np.random.default_rng(3), 6))
    assert_allclose(apply_L_spectral(psi, OMEGA, g),
                    apply_L_direct(psi, OMEGA, g), atol=1e-12)


def test_spectral_action_over_a_g_array():
    psi = IntensityField(_random_band_limited(np.random.default_rng(8), 5))
    gs = np.array([[0.1, 0.5], [0.9, 0.99]])
    v = apply_L_spectral(psi, OMEGA, gs)
    assert v.shape == (2, 2)
    for g, got in zip(gs.ravel(), v.ravel()):
        assert isinstance(apply_L_spectral(psi, OMEGA, g), float)
        assert_allclose(got, apply_L_spectral(psi, OMEGA, g), atol=1e-14)
    for bad in (1.0, -1.0, [0.5, 1.2]):
        with pytest.raises(ValueError):
            apply_L_spectral(psi, OMEGA, bad)


def test_leading_operator_eigenvalues():
    for n in (0, 1, 2, 3, 4, 16, hgscatter.MAX_DEGREE):
        psi = _field(n, 1 if n else 0, N=max(6, n + 1))
        v = apply_L32(psi, OMEGA)
        assert abs(v - (-n)*_at(psi)) < 1e-10


def test_leading_operator_multipliers():
    # the 64-node polar rule's lambda_n against the exact -n, up to the
    # degree cap of an HG study
    lam = hgscatter._l32_multipliers(hgscatter.MAX_DEGREE + 1)
    assert lam[0] == 0.0
    n = np.arange(lam.size)
    assert np.max(np.abs(lam + n)) <= 1e-13


def test_degree_multipliers_match_rings_without_conjugate_symmetry():
    # a degree-32 field whose coefficients have no conjugate symmetry: its
    # value is the real part of the synthesis, and each degree part the
    # real part of that degree's sum
    rng = np.random.default_rng(32)
    N = hgscatter.MAX_DEGREE + 1
    c = SphericalCoeffs(N, rng.standard_normal(N*N)
                        + 1j*rng.standard_normal(N*N))
    psi = IntensityField(c)
    parts = hgscatter._degree_values(c, OMEGA)
    assert_allclose(parts.sum(), _at(psi), rtol=1e-13)
    for g in (0.3, 0.8):
        assert_allclose(apply_L_spectral(psi, OMEGA, g),
                        apply_L_direct(psi, OMEGA, g), rtol=1e-10)
    l32 = apply_L32_rings(psi, OMEGA)
    assert_allclose(apply_L32(psi, OMEGA), l32, rtol=1e-10)
    lap0 = _at(IntensityField(spherical_laplacian(c)))
    for eps in (1e-3, 0.1):
        assert_allclose(apply_L_asymptotic(psi, OMEGA, eps),
                        (eps + eps*eps)*l32 - 0.5*eps*eps*lap0, rtol=1e-10)


def test_leading_integrand_extends_to_pole():
    # near s = 0 the averaged integrand limits to Lap psi / sqrt(2)
    psi = _field(3, 1)
    rule = mapped_rule(64)
    az = _ring_average(psi, OMEGA, rule.nodes)  # 16 azimuth nodes
    integrand = (1 - np.cos(rule.nodes))**-1.5*az*np.sin(rule.nodes)
    lap0 = _at(IntensityField(spherical_laplacian(psi.coeffs)))
    assert_allclose(integrand[0], lap0/np.sqrt(2), rtol=1e-4)


def test_ring_average_in_blocks_matches_one_block(monkeypatch):
    psi = IntensityField(_random_band_limited(np.random.default_rng(3), 9))
    rule = mapped_rule(100)
    whole = _ring_average(psi, OMEGA, rule.nodes)
    # 7 polar rings per block: 15 blocks, the last one partial
    monkeypatch.setattr(references, "_RING_BLOCK_VALUES", 7*18*81 + 5)
    blocked = _ring_average(psi, OMEGA, rule.nodes)
    assert np.max(np.abs(blocked - whole)) <= 1e-15
    assert np.max(np.abs(whole)) > 0.1


def test_asymptotic_exact_through_degree_two():
    # the two-term expansion reproduces g^n - 1 exactly for n <= 2
    for n, m in [(1, 0), (2, 1)]:
        psi = _field(n, m)
        for eps in (0.05, 0.2, 0.4):
            v = apply_L_asymptotic(psi, OMEGA, eps)
            assert abs(v - ((1 - eps)**n - 1)*_at(psi)) < 1e-10


def test_asymptotic_residual_is_third_order():
    rng = np.random.default_rng(4)
    fields = [_field(3, 1), IntensityField(_random_band_limited(rng, 5))]
    epss = np.logspace(-1, -3, 9)
    for psi in fields:
        errs = []
        for eps in epss:
            v = apply_L_asymptotic(psi, OMEGA, eps)
            ref = apply_L_direct(psi, OMEGA, 1.0 - eps)
            errs.append(abs(v - ref))
        slope = np.polyfit(np.log10(epss), np.log10(errs), 1)[0]
        assert 2.7 < slope < 3.3


def test_asymptotic_validation():
    psi = _field(1, 0)
    for eps in (0.0, 0.5, -0.1, [0.1, 0.5]):
        with pytest.raises(ValueError):
            apply_L_asymptotic(psi, OMEGA, eps)


def test_asymptotic_eps_array_equals_scalar_calls():
    psi = IntensityField(_random_band_limited(np.random.default_rng(12), 7))
    epss = np.logspace(-3, np.log10(0.45), 17)
    values = apply_L_asymptotic(psi, OMEGA, epss)
    assert values.shape == epss.shape
    assert values.tolist() == [apply_L_asymptotic(psi, OMEGA, float(eps))
                               for eps in epss]


def test_operator_equivariant_under_azimuth_shift():
    rng = np.random.default_rng(9)
    c = _random_band_limited(rng, 5)
    alpha = 0.8
    shifted = SphericalCoeffs.zeros(5)
    for n in range(5):
        for m in range(-n, n + 1):
            shifted.c[SphericalCoeffs.index(n, m)] = \
                np.exp(-1j*m*alpha)*c.get(n, m)
    v0 = apply_L_direct(IntensityField(c), OMEGA, 0.7)
    v1 = apply_L_direct(IntensityField(shifted), (OMEGA[0], OMEGA[1] + alpha),
                        0.7)
    assert_allclose(v1, v0, atol=1e-9)


def test_poisson_constant_data():
    c = SphericalCoeffs.single(4, 0, 0, np.sqrt(4*np.pi))
    for eps in (0.01, 0.2, 0.6):
        assert_allclose(poisson_close_eval(c, OMEGA, eps), 1.0, atol=1e-12)


def test_poisson_single_harmonic():
    c = SphericalCoeffs.single(6, 3, 1, 1.0)
    v = poisson_close_eval(c, OMEGA, 0.2)
    ref = 0.8**3*np.real(sph_harm_eval(3, 1, OMEGA[0], OMEGA[1]))
    assert_allclose(v, ref, atol=1e-10)


def test_poisson_matches_harmonic_extension():
    rng = np.random.default_rng(21)
    c = _random_band_limited(rng, 5)
    for eps in (0.05, 0.3):
        scaled = SphericalCoeffs(5, c.c*(1 - eps)**c.degrees())
        ref = _at(IntensityField(scaled))
        assert_allclose(poisson_close_eval(c, OMEGA, eps), ref, atol=1e-9)


def test_poisson_is_data_plus_phase_function_quadrature():
    # the Poisson kernel at radius 1 - eps is the HG phase function at
    # g = 1 - eps, so the quadrature of L reproduces the closed form
    rng = np.random.default_rng(23)
    c = _random_band_limited(rng, 6)
    psi = IntensityField(c)
    for eps in (0.05, 0.3):
        ref = _at(psi) + apply_L_direct(psi, OMEGA, 1.0 - eps)
        assert abs(poisson_close_eval(c, OMEGA, eps) - ref) <= 1e-10


def test_poisson_kernel_is_phase_function():
    rng = np.random.default_rng(17)
    for _ in range(100):
        cth = rng.uniform(-1, 1)
        eps = rng.uniform(1e-3, 0.9)
        r = 1 - eps
        pk = (1 - r*r)/(1 + r*r - 2*r*cth)**1.5
        assert_allclose(p_hg(cth, r), pk, rtol=1e-14)


def test_poisson_validation():
    c = SphericalCoeffs.single(4, 0, 0, 1.0)
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            poisson_close_eval(c, OMEGA, eps)


def test_intensity_field_basics():
    psi = _field(2, 1, 1.5, N=7)
    assert psi.N == 7
    th = np.linspace(0.2, 3.0, 5)
    vals = psi(th, 0.3*th)
    assert vals.dtype == np.float64 and vals.shape == (5,)

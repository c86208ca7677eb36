"""Acceptance suite: one test per headline result, top to bottom.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  The single strict-xfail marks a target that is defective
by construction; the decision ledger holds the measured analysis.
"""

import time

import numpy as np
import pytest

from closeeval.bie2d import (DensityGrid2D, assemble_nystrom,
                             gauss_interior_value)
from closeeval.bie3d import (Density3D, apply_K_subtracted,
                             exact_point_source_3d, gauss_interior_value_3d,
                             harmonic_point_source_3d, solve_density3d)
from closeeval.closeeval2d import (CloseEvalRequest2D, asym_eps2, asym_eps3,
                                   dlp_ptr, dlp_subtraction)
from closeeval.closeeval3d import (CloseEvalRequest3D, asym_eps2_3d,
                                   dlp_numerical_3d)
from closeeval.geometry2d import curve_grid, kite, star
from closeeval.geometry3d import (direction, mushroom, rotation_matrix,
                                  unit_sphere)
from closeeval.harness import StudyConfig, eps_grid, fit_order, run_error_map
from closeeval.hgscatter import IntensityField, apply_L_asymptotic
from closeeval.spectral import (SphericalCoeffs, analysis_grid, sph_analysis,
                                sph_synthesis, spherical_laplacian)

from references import (apply_L_direct, pole_second_derivative_average,
                        rotated_angles, sph_harm_eval)

EPS_FINE = eps_grid(1e-6, 1e-1, 25)
TARGETS_2D = (5*np.pi/4, np.pi/4)  # concave-side and convex-side targets
SLOPES_2D = {"sub": (1.0, 0.25), "asym2": (2.0, 0.3), "asym3": (3.0, 0.5)}
MUSHROOM_TARGETS = ((1.130980, 0.0), (1.569941, 0.310474))


def _study_2d(problem):
    t0 = time.perf_counter()
    cfg = StudyConfig(problem=problem, n=128,
                      methods=("ptr", "sub", "asym2", "asym3"),
                      eps=EPS_FINE, targets=TARGETS_2D)
    return run_error_map(cfg), time.perf_counter() - t0


@pytest.fixture(scope="module")
def kite_study():
    return _study_2d("2d-kite")


@pytest.fixture(scope="module")
def star_study():
    return _study_2d("2d-star")


def _labels(result):
    seen = []
    for row in result.rows:
        if row.target not in seen:
            seen.append(row.target)
    return seen


def _check_orders(result):
    for label in _labels(result):
        for method, (want, tol) in SLOPES_2D.items():
            fit = result.fit_for(label, method)
            assert abs(fit.slope - want) <= tol, (label, method, fit.slope)


def _check_third_order_floor(result):
    label_a = _labels(result)[0]
    eps, err = result.errors_for(label_a, "asym3")
    sel = eps <= 1e-4*(1 + 1e-12)
    assert np.count_nonzero(sel) >= 50
    assert err[sel].max() <= 1e-12


def _plain_rule_worst_error(problem):
    cfg = StudyConfig(problem=problem, n=128, methods=("ptr",),
                      eps=(1e-6,), targets="all-nodes")
    result = run_error_map(cfg)
    assert len(result.rows) == 128
    return max(row.abs_error for row in result.rows)


def test_criterion_01_kite_convergence_orders(kite_study):
    result, elapsed = kite_study
    _check_orders(result)
    assert elapsed <= 60.0


def test_criterion_02_kite_third_order_error_floor(kite_study):
    result, _ = kite_study
    _check_third_order_floor(result)


def test_criterion_03_kite_plain_rule_breakdown():
    assert _plain_rule_worst_error("2d-kite") >= 1e-2


def test_criterion_04_star_repeats_kite_checks(star_study):
    result, elapsed = star_study
    _check_orders(result)
    assert elapsed <= 60.0
    _check_third_order_floor(result)
    assert _plain_rule_worst_error("2d-star") >= 1e-2


def test_criterion_05_gauss_identity_interior_and_rowsums():
    # interior points at least 0.3 from each boundary
    for curve in (kite(), star()):
        value = gauss_interior_value(curve, np.zeros(2), 128)
        assert abs(value + 1.0) <= 1e-10
    assert abs(gauss_interior_value_3d(unit_sphere(),
                                       np.array([0.5, 0.0, 0.0]), 16)
               + 1.0) <= 1e-6
    assert abs(gauss_interior_value_3d(mushroom(), np.zeros(3), 16)
               + 1.0) <= 1e-6
    # row sums of the discrete boundary operator; the five-lobed star
    # needs twice the nodes to reach the same floor (see decision ledger)
    for curve, n in ((kite(), 128), (star(), 256)):
        A = assemble_nystrom(curve, n)
        assert np.max(np.abs(A @ np.ones(n) + 1.0)) <= 1e-10


def test_criterion_06_sphere_operator_eigenvalues():
    t0 = time.perf_counter()
    sphere = unit_sphere()
    directions = ((0.7, 0.3), (1.9, 2.5), (2.6, 5.1))
    worst = 0.0
    for n in range(7):
        lam = -1.0/(2*(2*n + 1))
        for m in range(-n, n + 1):
            def field(theta, phi, n=n, m=m):
                return sph_harm_eval(n, m, theta, phi)
            for th0, ph0 in directions:
                got = apply_K_subtracted(sphere, field, th0, ph0, 32)
                want = lam*sph_harm_eval(n, m, th0, ph0)
                worst = max(worst, abs(got - want))
    assert worst <= 1e-7
    assert time.perf_counter() - t0 <= 120.0


def test_criterion_07_sphere_close_eval_and_mushroom_decay():
    sphere = unit_sphere()

    def data(theta, phi):
        return np.real(sph_harm_eval(2, 0, theta, phi))

    # the coefficient density solves the boundary equation for this data
    # (spectral eigenrelation); checked pointwise before use
    density = Density3D(sphere, SphericalCoeffs.single(24, 2, 0, -5.0/3.0),
                        data)
    mu0 = float(density(np.full(1, 1.1), np.full(1, 0.6))[0])
    resid = (apply_K_subtracted(sphere, density, 1.1, 0.6, 24)
             - 0.5*mu0 - float(data(1.1, 0.6)))
    assert abs(resid) <= 1e-7

    ts, ps = 0.9, 0.4
    fstar = float(data(ts, ps))
    grid = eps_grid(1e-4, 1e-1, 25)
    errs = []
    for eps in grid:
        req = CloseEvalRequest3D(density, ts, ps, eps)
        errs.append(abs(asym_eps2_3d(req) - (1 - eps)**2*fstar))
    fit = fit_order(grid, errs, "asym2", lo=1e-4, hi=1e-1)
    assert abs(fit.slope - 2.0) <= 0.4
    req = CloseEvalRequest3D(density, ts, ps, 0.3)
    assert abs(dlp_numerical_3d(req) - 0.49*fstar) <= 1e-6

    # mushroom run at n = 32: at both reference targets the asymptotic
    # error has order 2 on [1e-3, 1e-1] and decays monotonically over the
    # decade grid
    surf = mushroom()
    source = np.array([5.0, 4.0, 3.0])
    d32 = solve_density3d(surf, harmonic_point_source_3d(surf, source), 32)
    grid = np.array(eps_grid(1e-3, 1e-1, 25))
    for ts2, ps2 in MUSHROOM_TARGETS:
        req = CloseEvalRequest3D(d32, ts2, ps2, grid)
        exact = exact_point_source_3d(req.point(), source)
        fit = fit_order(grid, np.abs(asym_eps2_3d(req) - exact), "asym2",
                        lo=1e-3, hi=1e-1)
        assert abs(fit.slope - 2.0) <= 0.4, (ts2, ps2, fit.slope)
        req = CloseEvalRequest3D(d32, ts2, ps2, [1e-1, 1e-2, 1e-3, 1e-4])
        exact = exact_point_source_3d(req.point(), source)
        errs = np.abs(asym_eps2_3d(req) - exact)
        assert np.all(np.diff(errs) <= 0), errs


def test_criterion_08_scattering_eigenvalues_and_degree_one_cancellation():
    omegas = ((0.8, 0.5), (2.1, 3.9))
    for g in (0.3, 0.7):
        for n in range(5):
            lam = g**n - 1.0
            for m in range(-n, n + 1):
                psi = IntensityField(SphericalCoeffs.single(8, n, m))
                for omega in omegas:
                    want = lam*float(psi(np.full(1, omega[0]),
                                         np.full(1, omega[1]))[0])
                    got = apply_L_direct(psi, omega, g)
                    assert abs(got - want) <= 1e-7, (n, m, g, omega)
    # degree-1 field: the two-term expansion cancels the operator exactly
    psi = IntensityField(SphericalCoeffs.single(4, 1, 0))
    omega = (1.2, 0.7)
    for eps in (1e-1, 1e-2, 1e-3):
        resid = abs(apply_L_asymptotic(psi, omega, eps)
                    - apply_L_direct(psi, omega, 1.0 - eps))
        assert resid <= 1e-10


@pytest.mark.xfail(strict=True,
                   reason="the two-term expansion is exact for fields of "
                          "degree <= 2, so this residual is roundoff noise "
                          "with no third-order window to fit; genuine "
                          "third-order decay appears from degree 3 up (see "
                          "the module suite and the decision ledger)")
def test_criterion_08_quadratic_field_residual_slope():
    psi = IntensityField(SphericalCoeffs.single(8, 2, 0))
    omega = (1.2, 0.7)
    grid = eps_grid(1e-3, 1e-1, 25)
    resid = [abs(apply_L_asymptotic(psi, omega, eps)
                 - apply_L_direct(psi, omega, 1.0 - eps)) for eps in grid]
    fit = fit_order(grid, resid, "hg_asym", lo=1e-3, hi=1e-1)
    assert abs(fit.slope - 3.0) <= 0.3


def _random_real_field(rng, N):
    coeffs = SphericalCoeffs.zeros(N)
    for n in range(N):
        coeffs.c[SphericalCoeffs.index(n, 0)] = rng.normal()
        for m in range(1, n + 1):
            z = rng.normal() + 1j*rng.normal()
            coeffs.c[SphericalCoeffs.index(n, m)] = z
            coeffs.c[SphericalCoeffs.index(n, -m)] = (-1)**m*np.conj(z)
    return coeffs


def test_criterion_09_pole_curvature_identity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        coeffs = _random_real_field(rng, 8)
        psi = IntensityField(coeffs)
        lap = IntensityField(spherical_laplacian(coeffs))
        for _ in range(3):
            tp = rng.uniform(0.2, np.pi - 0.2)
            pp = rng.uniform(0.0, 2*np.pi)

            def sampler(s, t, tp=tp, pp=pp):
                return psi(*rotated_angles(s, t, tp, pp))

            got = pole_second_derivative_average(sampler)
            want = 0.5*float(lap(np.full(1, tp), np.full(1, pp))[0])
            worst = max(worst, abs(got - want))
    assert worst <= 1e-6


def test_criterion_10_property_suite(tmp_path):
    # constant-density exactness, 2D: subtraction returns -mu*, the
    # asymptotic forms return f(y*), the plain rule matches deep inside
    A = assemble_nystrom(kite(), 128)
    ones = np.ones(128)
    d2 = DensityGrid2D(kite(), 128, ones, A @ ones, curve_grid(kite(), 128))
    k = 80
    req = CloseEvalRequest2D(d2, k, 1e-3)
    assert abs(dlp_subtraction(req) + 1.0) <= 1e-13
    assert abs(asym_eps2(req) - d2.f[k]) <= 1e-13
    assert abs(asym_eps3(req) - d2.f[k]) <= 1e-13
    assert abs(dlp_ptr(CloseEvalRequest2D(d2, k, 0.7)) + 1.0) <= 1e-13

    # constant-density exactness, 3D
    coeffs = SphericalCoeffs.single(8, 0, 0, np.sqrt(4*np.pi))

    def unit_data(theta, phi):
        return np.ones_like(np.asarray(theta, dtype=float))

    d3 = Density3D(unit_sphere(), coeffs, unit_data)
    req3 = CloseEvalRequest3D(d3, 1.0, 0.5, 1e-2)
    assert abs(dlp_numerical_3d(req3) + 1.0) <= 1e-13
    assert abs(asym_eps2_3d(req3) - 1.0) <= 1e-13

    # rotation round-trip
    rng = np.random.default_rng(5)
    for _ in range(20):
        s, tp = rng.uniform(0.05, np.pi - 0.05, 2)
        t, pp = rng.uniform(0.0, 2*np.pi, 2)
        R = rotation_matrix(tp, pp)
        th2, ph2 = rotated_angles(np.full(1, s), np.full(1, t), tp, pp)
        assert np.linalg.norm(direction(th2, ph2)[0]
                              - R @ direction(s, t)) <= 1e-12

    # spherical-harmonic analysis/synthesis round-trip
    coeffs = _random_real_field(rng, 12)
    theta_g, _, phi_g = analysis_grid(12)
    TH, PH = np.meshgrid(theta_g, phi_g, indexing="ij")
    back = sph_analysis(sph_synthesis(coeffs, TH, PH), 12)
    assert np.max(np.abs(back.c - coeffs.c)) <= 1e-10

    # bit-identical rerun of a full study
    base = dict(problem="2d-kite", n=64,
                methods=("ptr", "sub", "asym2", "asym3"),
                eps=eps_grid(1e-4, 1e-2, 5), targets=TARGETS_2D)
    run_error_map(StudyConfig(out_dir=str(tmp_path/"run1"), **base))
    run_error_map(StudyConfig(out_dir=str(tmp_path/"run2"), **base))
    first = (tmp_path/"run1"/"results.csv").read_bytes()
    second = (tmp_path/"run2"/"results.csv").read_bytes()
    assert first == second

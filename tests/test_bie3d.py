import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import bie3d
from closeeval.bie3d import (Density3D, apply_K_subtracted, assemble_galerkin,
                             dlp_weights, exact_point_source_3d,
                             gauss_interior_value_3d,
                             harmonic_point_source_3d, project_boundary_data,
                             rotated_grid, solve_density3d,
                             subtracted_weights)
from closeeval.geometry3d import direction_angles, mushroom, unit_sphere
from closeeval.spectral import SphericalCoeffs, analysis_grid

from references import sph_basis_matrix, sph_harm_eval

SOURCE = (5.0, 4.0, 3.0)


def sphere_eigenvalue(n):
    # double-layer operator eigenvalue on the unit sphere
    return -1.0/(2*(2*n + 1))


@pytest.fixture(scope="module")
def sphere_matrix():
    return assemble_galerkin(unit_sphere(), 8)


def test_operator_maps_constants_exactly():
    ones = lambda th, ph: np.ones_like(th)
    for surf in (unit_sphere(), mushroom()):
        for (t0, p0) in [(0.7, 0.3), (2.2, -1.4)]:
            v = apply_K_subtracted(surf, ones, t0, p0, 12)
            assert abs(v + 0.5) < 1e-14


def test_operator_eigenvalues_on_sphere():
    worst = 0.0
    for n in range(4):
        for m in range(-n, n + 1):
            g = lambda th, ph, n=n, m=m: sph_harm_eval(n, m, th, ph)
            for (t0, p0) in [(0.7, 0.3), (2.1, -1.0)]:
                val = apply_K_subtracted(unit_sphere(), g, t0, p0, 16)
                ref = sphere_eigenvalue(n)*sph_harm_eval(n, m, t0, p0)
                worst = max(worst, abs(val - ref))
    assert worst < 1e-13


def test_operator_resolution_agreement_on_mushroom():
    # the same operator value from two quadrature resolutions
    g = lambda th, ph: sph_harm_eval(1, 0, th, ph)
    k24 = apply_K_subtracted(mushroom(), g, 1.2, 0.7, 24)
    k32 = apply_K_subtracted(mushroom(), g, 1.2, 0.7, 32)
    assert abs(k24 - k32) < 2e-6


def test_galerkin_sphere_is_nearly_diagonal(sphere_matrix):
    A = sphere_matrix
    assert A.shape == (64, 64)
    off = A - np.diag(np.diag(A))
    assert np.max(np.abs(off)) < 1e-12
    assert abs(A[0, 0] + 1.0) < 1e-13
    diag = np.diag(A)
    for n in range(5):
        ref = sphere_eigenvalue(n) - 0.5
        for m in range(-n, n + 1):
            dev = abs(diag[SphericalCoeffs.index(n, m)] - ref)
            # the subtracted quadrature resolves low degrees to roundoff
            # and degree ~N/2 to a few digits at this resolution
            assert dev < (1e-8 if n <= 2 else 1e-5)


def _per_row_galerkin(surface, n):
    # the assembly with one basis evaluation per analysis-grid row, and a
    # dense basis G and projection P = G^H diag(w) on the analysis grid
    theta, wth, phi = analysis_grid(n)
    TH, PH = np.meshgrid(theta, phi, indexing="ij")
    G = sph_basis_matrix(TH, PH, n)
    P = (np.conj(G)*(np.repeat(wth, 2*n)*(np.pi/n))[:, None]).T
    V = np.empty((2*n*n, n*n), dtype=complex)
    for row, (th, ph) in enumerate(zip(TH.ravel(), PH.ravel())):
        kw, d = subtracted_weights(surface, th, ph, n)
        B = sph_basis_matrix(*direction_angles(d, ph), n)
        V[row] = kw.ravel() @ B - G[row]*(np.sum(kw) + 1.0)
    return P @ V


@pytest.mark.parametrize("name,n", [("unit_sphere", 8), ("mushroom", 8),
                                    ("mushroom", 12), ("mushroom", 1),
                                    ("mushroom", 9)])
def test_galerkin_matches_per_row_reference(name, n):
    # n = 1 has no m < 0 column to mirror; n = 9 has an odd degree count
    surface = {"unit_sphere": unit_sphere, "mushroom": mushroom}[name]()
    diff = assemble_galerkin(surface, n) - _per_row_galerkin(surface, n)
    assert np.max(np.abs(diff)) <= 1e-12


def test_per_row_galerkin_has_the_mirror_symmetry():
    # the premise of assembling only the m >= 0 columns, checked on the
    # reference, which assembles every column
    n = 8
    A = _per_row_galerkin(mushroom(), n)
    m = np.concatenate([np.arange(-d, d + 1) for d in range(n)])
    mirror = np.arange(n*n) - 2*m
    sign = (-1.0)**m
    mirrored = np.outer(sign, sign)*np.conj(A[np.ix_(mirror, mirror)])
    assert np.max(np.abs(A - mirrored)) <= 1e-13


def test_galerkin_evaluates_basis_only_at_row_poles(monkeypatch):
    calls = {"subtracted_weights": [], "sph_half_basis": []}

    def counted(name):
        fn = getattr(bie3d, name)

        def wrapper(*args, **kwargs):
            calls[name].append(np.size(args[1]))
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bie3d, name, counted(name))
    A = assemble_galerkin(mushroom(), 8)
    # per colatitude of the 8 x 16 analysis grid, the half basis at its
    # pole (theta_i, 0) alone: the rows' grids reach the basis through
    # local harmonics and Wigner rotation; the 16 rows of a colatitude
    # (2048 grid nodes) fit in one stacked geometry call
    assert calls == {"subtracted_weights": [16]*8,
                     "sph_half_basis": [1]*8}
    # smaller blocks change the call pattern, not the matrix
    calls["subtracted_weights"].clear()
    monkeypatch.setattr(bie3d, "_BLOCK_NODES", 700)
    blocked = assemble_galerkin(mushroom(), 8)
    assert calls["subtracted_weights"] == [6, 6, 4]*8
    assert np.max(np.abs(blocked - A)) <= 1e-15


def test_solve_holds_no_dense_analysis_operator():
    # a dense basis and projection on the 512-node analysis grid would be
    # 2 MB each at n = 16; the solve peaks at about 5.7 MB without them
    # and at 9.7 MB with them
    f = harmonic_point_source_3d(mushroom(), SOURCE)
    tracemalloc.start()
    try:
        d = solve_density3d(mushroom(), f, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7*2**20
    assert d.N == 16


def test_galerkin_degree_cap():
    with pytest.raises(ValueError):
        assemble_galerkin(unit_sphere(), 65)


def test_projection_recovers_band_limited_data():
    def f(th, ph):
        return (3.0*sph_harm_eval(0, 0, th, ph)
                + 2.0*sph_harm_eval(2, 1, th, ph)
                - 1.5*sph_harm_eval(3, -2, th, ph))
    c = project_boundary_data(f, 8)
    assert_allclose(c.get(0, 0), 3.0, atol=1e-13)
    assert_allclose(c.get(2, 1), 2.0, atol=1e-13)
    assert_allclose(c.get(3, -2), -1.5, atol=1e-13)
    assert abs(c.get(5, 0)) < 1e-13


def test_solve_constant_data(sphere_matrix):
    # f = 1 is sqrt(4 pi) Y00; the n = 0 system entry is -1
    f = lambda th, ph: np.ones_like(th)
    d = solve_density3d(unit_sphere(), f, 8, matrix=sphere_matrix)
    assert_allclose(d.coeffs.get(0, 0), -np.sqrt(4*np.pi), rtol=1e-12)
    assert np.max(np.abs(d.coeffs.c[1:])) < 1e-12


def test_solve_harmonic_data_ratio(sphere_matrix):
    # on the sphere each harmonic mode solves to -(2n+1)/(n+1) its datum
    for n, m in [(1, 0), (2, 1), (3, -2)]:
        g = lambda th, ph, n=n, m=m: sph_harm_eval(n, m, th, ph)
        d = solve_density3d(unit_sphere(), g, 8, matrix=sphere_matrix)
        assert_allclose(d.coeffs.get(n, m), -(2*n + 1)/(n + 1), rtol=1e-6)


def test_solve_equivariant_under_azimuth_shift(sphere_matrix):
    alpha = 0.6
    base = lambda th, ph: sph_harm_eval(3, 2, th, ph)
    shifted = lambda th, ph: sph_harm_eval(3, 2, th, ph - alpha)
    d0 = solve_density3d(unit_sphere(), base, 8, matrix=sphere_matrix)
    d1 = solve_density3d(unit_sphere(), shifted, 8, matrix=sphere_matrix)
    assert_allclose(d1.coeffs.get(3, 2),
                    np.exp(-2j*alpha)*d0.coeffs.get(3, 2), rtol=1e-10)


def test_density_synthesis_is_real(sphere_matrix):
    f = harmonic_point_source_3d(unit_sphere(), SOURCE)
    d = solve_density3d(unit_sphere(), f, 8, matrix=sphere_matrix)
    th = np.linspace(0.1, 3.0, 7)
    vals = d(th, 0.5*th)
    assert vals.dtype == np.float64 and vals.shape == (7,)


def test_density_save_load_round_trip(tmp_path, sphere_matrix):
    f = harmonic_point_source_3d(unit_sphere(), SOURCE)
    d = solve_density3d(unit_sphere(), f, 8, matrix=sphere_matrix)
    path = tmp_path/"density.json"
    d.save(str(path))
    d2 = Density3D.load(str(path), unit_sphere())
    assert d2.N == d.N
    assert_allclose(d2.coeffs.c, d.coeffs.c, atol=1e-16)
    assert d2.data is None


def test_interior_source_rejected():
    with pytest.raises(ValueError):
        harmonic_point_source_3d(unit_sphere(), (0.3, 0.0, 0.0))
    with pytest.raises(ValueError):
        harmonic_point_source_3d(mushroom(), (0.0, 0.0, 0.0))


def _dlp_far_3d(density, x, n=32):
    # plain three-step quadrature of the double-layer potential at an
    # interior point well separated from the boundary (any grid pole
    # serves; this one is fixed at (0.9, 0.3))
    grid = rotated_grid(density.surface, 0.9, 0.3, n)
    mu = density(*direction_angles(grid[3], 0.3))
    return float((1.0/(4*n))*np.sum(dlp_weights(grid, x)*mu))


def test_sphere_far_field_reconstruction(sphere_matrix):
    f = harmonic_point_source_3d(unit_sphere(), SOURCE)
    d = solve_density3d(unit_sphere(), f, 8, matrix=sphere_matrix)
    for x in [np.array([0.2, 0.1, -0.3]), np.zeros(3)]:
        err = abs(_dlp_far_3d(d, x) - exact_point_source_3d(x, SOURCE))
        assert err < 1e-12


def test_mushroom_truncation_error_decays():
    f = harmonic_point_source_3d(mushroom(), SOURCE)
    errs = []
    for N in (8, 12, 16):
        d = solve_density3d(mushroom(), f, N)
        errs.append(abs(_dlp_far_3d(d, np.zeros(3), n=48)
                        - exact_point_source_3d(np.zeros(3), SOURCE)))
    assert errs[0] > 2*errs[1] > 4*errs[2]
    assert errs[2] < 1e-6


def test_gauss_identity_3d():
    assert abs(gauss_interior_value_3d(unit_sphere(), (0.5, 0.0, 0.0), 16)
               + 1) < 1e-6
    assert abs(gauss_interior_value_3d(mushroom(), (0.0, 0.0, 0.0), 16)
               + 1) < 1e-6
    # exterior points integrate to zero
    assert abs(gauss_interior_value_3d(unit_sphere(), (3.0, 0.0, 0.0), 16)) \
        < 1e-6

import functools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import bie3d
from closeeval.bie3d import (Density3D, assemble_galerkin, dlp_weights,
                             exact_point_source_3d, harmonic_point_source_3d,
                             project_boundary_data, rotated_grid,
                             solve_density3d, subtracted_weights)
from closeeval.geometry3d import mushroom, unit_sphere
from closeeval.spectral import (SphericalCoeffs, _legendre_table,
                                analysis_grid, mapped_rule)

from references import (apply_K_subtracted, density_values,
                        direct_subtracted_weights, dlp_weights_einsum,
                        galerkin_matrix, gauss_interior_value_3d, grid_angles,
                        radial_surface, sph_basis_matrix, sph_harm_eval,
                        sph_synthesis, synthesis_bound)

SOURCE = (5.0, 4.0, 3.0)


def three_axis():
    # a radial surface with three different axes: it keeps only the two
    # reflections x1 -> -x1 and x2 -> -x2 that the assembly relies on
    return radial_surface(lambda c: 1.5 + 0.3*c - 0.2*c*c,
                          lambda c: 0.3 - 0.4*c, axes=(1.0, 1.7, 0.8))


SURFACES = {"unit_sphere": unit_sphere, "mushroom": mushroom,
            "custom_radial": three_axis}


def sphere_eigenvalue(n):
    # double-layer operator eigenvalue on the unit sphere
    return -1.0/(2*(2*n + 1))


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


def test_galerkin_sphere_is_nearly_diagonal():
    A = galerkin_matrix(assemble_galerkin(unit_sphere(), 8), 8)
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
        kw = direct_subtracted_weights(surface, th, ph, n)
        B = sph_basis_matrix(*grid_angles(th, ph, n), n)
        V[row] = kw.ravel() @ B - G[row]*(np.sum(kw) + 1.0)
    return P @ V


@pytest.mark.parametrize("name,n", [("unit_sphere", 8), ("mushroom", 8),
                                    ("mushroom", 12), ("mushroom", 1),
                                    ("mushroom", 9), ("custom_radial", 8)])
def test_galerkin_matches_per_row_reference(name, n):
    # n = 1 has a single harmonic and three empty blocks; n = 9 has an odd
    # degree count, so no longitude at pi/2
    surface = SURFACES[name]()
    diff = (galerkin_matrix(assemble_galerkin(surface, n), n)
            - _per_row_galerkin(surface, n))
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


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_grid_about_a_longitude_is_a_map_of_the_grid_about_zero(name):
    # the premise of building a colatitude's rows from one grid: the grid
    # about (theta, phi) is A = S R_z(phi) S^-1 times the grid about
    # (theta, 0), S = diag(axes), and its area normals are A^-T times
    # theirs; three_axis has a1 != a0, so A^T A has an xy entry
    surface = SURFACES[name]()
    S = np.diag(surface.axes)
    for theta in (0.0, 0.4, 1.3, 2.9):
        w0, y0, an0 = rotated_grid(surface, theta, 0.0, 12)
        for phi in (0.7, np.pi/2, 2.0, -2.5):
            c, s = np.cos(phi), np.sin(phi)
            A = S @ np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) \
                @ np.linalg.inv(S)
            w, y, an = rotated_grid(surface, theta, phi, 12)
            assert np.array_equal(w, w0)
            assert np.max(np.abs(y - y0 @ A.T)) <= 1e-15*np.max(np.abs(y))
            assert np.max(np.abs(an - an0 @ np.linalg.inv(A))) \
                <= 1e-15*np.max(np.abs(an))


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("n,bound", [(8, 1e-13), (16, 5e-13), (24, 2e-12)])
def test_mapped_rows_match_the_direct_construction(name, n, bound):
    # every row of every colatitude of the analysis grid, built from the
    # grid about (theta, 0), against the row built on its own grid about
    # (theta, phi); they differ by the rounding of y0 - y near the pole
    # (largest differences 3.7e-14, 2.5e-13 and 1.1e-12 of the row's
    # largest weight at n = 8, 16 and 24)
    surface = SURFACES[name]()
    theta, _, phi = analysis_grid(n)
    for th in theta:
        got = subtracted_weights(surface, th, phi, n)
        want = np.stack([direct_subtracted_weights(surface, th, p, n)
                         for p in phi])
        assert got.shape == want.shape == (2*n, n, 2*n)
        scale = np.max(np.abs(want), axis=(1, 2))
        assert np.all(np.max(np.abs(got - want), axis=(1, 2))
                      <= bound*scale)
    # a number phi gives one row
    row = subtracted_weights(surface, theta[1], 0.3, n)
    assert row.shape == (n, 2*n)
    want = direct_subtracted_weights(surface, theta[1], 0.3, n)
    assert np.max(np.abs(row - want)) <= bound*np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(SURFACES))
@pytest.mark.parametrize("n", [8, 9])
def test_per_row_galerkin_is_real_and_keeps_the_order_parity(name, n):
    # the premise of the four real blocks, checked on the reference, which
    # assembles every row and column: the reflections x2 -> -x2 and
    # x1 -> -x1 make the matrix real and decouple orders of different parity
    A = _per_row_galerkin(SURFACES[name](), n)
    m = np.concatenate([np.arange(-d, d + 1) for d in range(n)])
    assert np.max(np.abs(A.imag)) <= 1e-13
    assert np.max(np.abs(A[(m[:, None] - m[None, :]) % 2 == 1])) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 9, 24])
def test_local_grid_splits_the_legendre_table_by_order(n):
    # _local_grid holds, for each order m', the slots _tri(l) + m'
    # (l = m'..n-1) and the Legendre table's rows at the mapped polar nodes
    # there, contiguous and read-only; together they are every row once
    nodes = mapped_rule(n).nodes
    table = _legendre_table(np.cos(nodes), np.sin(nodes), n)
    orders = bie3d._local_grid(n)[3]
    assert len(orders) == n
    for mp, (slots, rows) in enumerate(orders):
        assert slots.tolist() == [l*(l + 1)//2 + mp for l in range(mp, n)]
        assert np.array_equal(rows, table[slots])
        assert rows.flags.c_contiguous
        assert not slots.flags.writeable and not rows.flags.writeable
    every = np.concatenate([slots for slots, _ in orders])
    assert sorted(every.tolist()) == list(range(len(table)))


def test_galerkin_evaluates_basis_only_at_row_poles(monkeypatch):
    # per function, the size of the argument that counts its points
    calls = {"subtracted_weights": [], "rotated_grid": [],
             "_legendre_table": []}
    points = {"subtracted_weights": 2, "rotated_grid": 2,
              "_legendre_table": 1}

    def counted(name):
        fn = getattr(bie3d, name)

        def wrapper(*args, **kwargs):
            calls[name].append(np.size(args[points[name]]))
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(bie3d, name, counted(name))
    # a local grid cache of its own, so the local table is built here
    monkeypatch.setattr(bie3d, "_local_grid",
                        functools.lru_cache(bie3d._local_grid.__wrapped__))
    assemble_galerkin(mushroom(), 8)
    # the Legendre table once at the 8 local polar nodes, with the local
    # grid, and once at the 8 row poles (theta_i, 0), where it is the m >= 0
    # basis: the rows' grids reach the basis through local harmonics and
    # Wigner rotation.  Per colatitude of the 8 x 16 analysis grid, only the
    # 5 rows at 0 <= phi <= pi/2 are computed (the reflections give the
    # others), in one subtracted_weights call that builds one rotated grid,
    # about (theta_i, 0)
    assert calls == {"subtracted_weights": [5]*8, "rotated_grid": [1]*8,
                     "_legendre_table": [8, 8]}


def test_galerkin_colatitude_blocks_change_the_pattern_not_the_matrix(
        monkeypatch):
    # at high degree the local coefficients and longitude sums are held
    # for a block of colatitudes at a time, and each degree's rows of a
    # block are rotated in one batch; a small budget splits the 8
    # colatitudes of n = 8 into blocks of 3, 3 and 2, whose 5 rows each
    # give batches of 15, 15 and 10 columns
    columns = []
    rotated_rows = bie3d._rotated_rows

    def counted(x, turn):
        columns.append(x.shape[1])
        return rotated_rows(x, turn)

    monkeypatch.setattr(bie3d, "_rotated_rows", counted)
    A = assemble_galerkin(mushroom(), 8)
    assert columns == [40]*8
    columns.clear()
    monkeypatch.setattr(bie3d, "_COLATITUDE_VALUES", 2000)
    blocked = assemble_galerkin(mushroom(), 8)
    assert columns == [15]*8 + [15]*8 + [10]*8
    assert max(np.max(np.abs(b - a)) for a, b in zip(A, blocked)) <= 1e-15


def test_solve_holds_no_dense_analysis_operator():
    # a dense basis and projection on the 512-node analysis grid would be
    # 2 MB each at n = 16; the solve peaks at about 1.5 MB without them
    # (5.7 MB when it held the complex matrix) and at 9.7 MB with them
    f = harmonic_point_source_3d(mushroom(), SOURCE)
    tracemalloc.start()
    try:
        d = solve_density3d(mushroom(), f, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7*2**20
    assert d.N == 16


def test_galerkin_assembly_holds_no_formed_rotation():
    # with its caches warm, an n = 24 assembly peaks at about 4.0 MB; with
    # a folded Wigner table of every degree and colatitude, and the
    # temporaries of forming it, it peaked at 5.7 MB
    assemble_galerkin(mushroom(), 24)
    tracemalloc.start()
    try:
        assemble_galerkin(mushroom(), 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5*2**20


def test_galerkin_degree_cap():
    with pytest.raises(ValueError):
        assemble_galerkin(unit_sphere(), 97)


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


def test_solve_constant_data():
    # f = 1 is sqrt(4 pi) Y00; the n = 0 system entry is -1
    f = lambda th, ph: np.ones_like(th)
    d = solve_density3d(unit_sphere(), f, 8)
    assert_allclose(d.coeffs.get(0, 0), -np.sqrt(4*np.pi), rtol=1e-12)
    assert np.max(np.abs(d.coeffs.c[1:])) < 1e-12


def test_solve_harmonic_data_ratio():
    # on the sphere each harmonic mode solves to -(2n+1)/(n+1) its datum
    for n, m in [(1, 0), (2, 1), (3, -2)]:
        g = lambda th, ph, n=n, m=m: sph_harm_eval(n, m, th, ph)
        d = solve_density3d(unit_sphere(), g, 8)
        assert_allclose(d.coeffs.get(n, m), -(2*n + 1)/(n + 1), rtol=1e-6)


def test_solve_equivariant_under_azimuth_shift():
    alpha = 0.6
    base = lambda th, ph: sph_harm_eval(3, 2, th, ph)
    shifted = lambda th, ph: sph_harm_eval(3, 2, th, ph - alpha)
    d0 = solve_density3d(unit_sphere(), base, 8)
    d1 = solve_density3d(unit_sphere(), shifted, 8)
    assert_allclose(d1.coeffs.get(3, 2),
                    np.exp(-2j*alpha)*d0.coeffs.get(3, 2), rtol=1e-10)


def test_density_synthesis_is_real():
    # a density is synthesised on a target's rotated grid: mu* is a float
    # and mu a real array on the (N, 2N) grid
    f = harmonic_point_source_3d(unit_sphere(), SOURCE)
    d = solve_density3d(unit_sphere(), f, 8)
    mu_star, mu = bie3d._rotated_synthesis(d.coeffs, 1.1, 0.5)
    assert isinstance(mu_star, float)
    assert mu.dtype == np.float64 and mu.shape == (8, 16)


def _complex_coeffs(rng, N):
    # coefficients of no real field, so the real part that the synthesis
    # gives differs from the expansion
    return SphericalCoeffs(rng.standard_normal(N*N)
                           + 1j*rng.standard_normal(N*N))


def _scattered(coeffs, theta, phi, nodes):
    # Re f at the chosen nodes of the rotated grid, then at the target,
    # from one synthesis at their directions
    th, ph = grid_angles(theta, phi, coeffs.N)
    return np.real(sph_synthesis(coeffs, np.append(th[nodes], theta),
                                 np.append(ph[nodes], phi)))


@pytest.mark.parametrize("N", [1, 2, 9, 16, 32])
def test_rotated_synthesis_matches_scattered_synthesis(N):
    # mu* and mu on the whole rotated grid, from the coefficients rotated to
    # the target, against a synthesis at the grid's node directions, to
    # 1e-14 of the bound on |f|; at the poles theta* = 0 and pi and at
    # random targets
    rng = np.random.default_rng(N)
    coeffs = _complex_coeffs(rng, N)
    scale = synthesis_bound(coeffs)
    targets = [(0.0, 0.7), (np.pi, -2.0)] + list(zip(
        rng.uniform(0, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)))
    for theta, phi in targets:
        mu_star, mu = bie3d._rotated_synthesis(coeffs, theta, phi)
        ref = _scattered(coeffs, theta, phi, np.s_[:])
        assert isinstance(mu_star, float) and mu.shape == (N, 2*N)
        assert abs(mu_star - ref[-1]) <= 1e-14*scale
        assert np.max(np.abs(mu.ravel() - ref[:-1])) <= 1e-14*scale


def test_rotated_synthesis_at_max_degree_matches_at_a_few_nodes():
    # a synthesis on the whole grid would need a basis of more than 1 GB at
    # MAX_DEGREE; a few nodes, the first and last polar ones among them,
    # and the target check the rotation up to its highest degree
    N = bie3d.MAX_DEGREE
    rng = np.random.default_rng(N)
    coeffs = _complex_coeffs(rng, N)
    scale = synthesis_bound(coeffs)
    nodes = (np.array([0, 7, 48, N - 1]), np.array([0, 101, 150, 2*N - 1]))
    for theta, phi in [(0.0, 1.0), (np.pi, 2.0), (2.2, -0.4)]:
        mu_star, mu = bie3d._rotated_synthesis(coeffs, theta, phi)
        ref = _scattered(coeffs, theta, phi, nodes)
        assert abs(mu_star - ref[-1]) <= 1e-14*scale
        assert np.max(np.abs(mu[nodes] - ref[:-1])) <= 1e-14*scale


def test_density_save_load_round_trip(tmp_path):
    f = harmonic_point_source_3d(unit_sphere(), SOURCE)
    d = solve_density3d(unit_sphere(), f, 8)
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
    mu = density_values(density, *grid_angles(0.9, 0.3, n))
    return float((1.0/(4*n))*np.sum(dlp_weights(grid, x)*mu))


def test_sphere_far_field_reconstruction():
    f = harmonic_point_source_3d(unit_sphere(), SOURCE)
    d = solve_density3d(unit_sphere(), f, 8)
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


def test_workspace_kernel_is_the_plain_expression_bitwise():
    # dlp_weights fills one workspace in place, in the order of the plain
    # component expression, so its weights are bitwise those of the plain
    # expression, for stacked points
    surface = mushroom()
    eps = np.array([1e-1, 1e-4])
    for theta, phi in [(1.2, 2.0), (0.4, 0.0), (0.4, 1.0), (0.4, 2.0)]:
        grid = rotated_grid(surface, theta, phi, 12)
        y0, nu0 = bie3d.surface_point_and_normal(surface, theta, phi)
        x = (y0 - np.multiply.outer(eps, nu0))[..., None, None, :]
        w, y, an = grid
        dx, dy, dz = (x[..., i] - y[..., i] for i in range(3))
        r2 = dx*dx + dy*dy + dz*dz
        plain = w*((an[..., 0]*dx + an[..., 1]*dy + an[..., 2]*dz)
                   /(r2*np.sqrt(r2)))
        assert dlp_weights(grid, x).tolist() == plain.tolist()


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_component_kernel_matches_einsum_form(name):
    # the component-wise dot products move a weight by a few ulps of the
    # row's largest entry, at interior points near the surface and at the
    # boundary target of each grid
    surface = SURFACES[name]()
    eps = np.array([1e-1, 1e-3, 1e-6])
    for theta, phi in [(0.3, 0.0), (1.2, 2.0), (2.9, -1.0), (0.0, 0.4),
                       (1.1, 0.0), (1.1, 0.7), (1.1, 1.5)]:
        grid = rotated_grid(surface, theta, phi, 12)
        y0, nu0 = bie3d.surface_point_and_normal(surface, theta, phi)
        x = (y0 - np.multiply.outer(eps, nu0))[:, None, None, :]
        for points in (x, y0[None, None, :]):
            got = dlp_weights(grid, points)
            want = dlp_weights_einsum(grid, points)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15*np.max(np.abs(want))

import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import bie2d
from closeeval.bie2d import (MAX_NODES, DensityGrid2D, assemble_nystrom,
                             dirichlet_data, dlp_sum, harmonic_source,
                             kernel_matrix, solve_density)
from closeeval.geometry2d import curve_grid, kite, star

from references import gauss_interior_value, unit_circle

X0 = np.array([1.85, 1.65])


def _solved(curve, n, x0=X0):
    return solve_density(curve, dirichlet_data(curve, x0, n))


def test_dirichlet_data_values():
    f = dirichlet_data(unit_circle(), (2.0, 0.0), 32)
    # first node is t = -pi, position (-1, 0), distance 3
    assert_allclose(f[0], -np.log(3.0)/(2*np.pi), atol=1e-15)


def test_dirichlet_data_rejects_interior_source():
    with pytest.raises(ValueError):
        dirichlet_data(kite(), (0.0, 0.0), 64)
    with pytest.raises(ValueError):
        dirichlet_data(star(), (0.1, -0.2), 64)


def test_harmonic_source_vectorized():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    u = harmonic_source(x, X0)
    assert u.shape == (2,)
    assert_allclose(u[0], -np.log(np.linalg.norm(X0))/(2*np.pi), atol=1e-15)


def test_solve_reconstructs_harmonic_function_kite():
    d = _solved(kite(), 128)
    for x in [(0.0, 0.0), (-0.5, 0.4), (-0.3, 0.0)]:
        x = np.asarray(x, dtype=float)
        assert abs(dlp_sum(d.geometry, x, d.mu)
                   - harmonic_source(x, X0)) < 1e-13


def test_solve_reconstructs_harmonic_function_star():
    d = _solved(star(), 128)
    for x in [(0.0, 0.0), (0.2, -0.1), (-0.3, 0.25)]:
        x = np.asarray(x, dtype=float)
        assert abs(dlp_sum(d.geometry, x, d.mu)
                   - harmonic_source(x, X0)) < 1e-11


def test_solver_is_spectrally_accurate():
    # deep interior error should collapse by many orders from n=32 to n=64
    target = np.array([0.0, 0.0])
    errs = {}
    for n in (32, 64):
        d = _solved(kite(), n)
        errs[n] = abs(dlp_sum(d.geometry, target, d.mu)
                      - harmonic_source(target, X0))
    assert errs[64] < 1e-12
    assert errs[64] < 1e-4*errs[32]


def test_gauss_identity_interior_and_exterior():
    assert abs(gauss_interior_value(kite(), (0.0, 0.0), 128) + 1) < 1e-12
    assert abs(gauss_interior_value(star(), (0.1, 0.0), 128) + 1) < 1e-12
    # exterior points integrate to zero
    assert abs(gauss_interior_value(kite(), X0, 128)) < 1e-12
    assert abs(gauss_interior_value(star(), (2.0, 2.0), 128)) < 1e-12


def test_system_row_sums():
    # unit density is mapped to -1 by (K - 1/2 I), so each row sums to -1;
    # the five-lobed star needs more nodes to reach the spectral floor
    for curve, n in ((kite(), 128), (star(), 256)):
        A = assemble_nystrom(curve, n)
        assert np.max(np.abs(A @ np.ones(n) + 1)) < 1e-12


def test_kernel_matrix_diagonal_is_curvature_limit():
    # on the unit circle kappa = J = 1, so the diagonal is -1/2 everywhere
    K = kernel_matrix(unit_circle(), 64)
    assert_allclose(np.diag(K), -0.5, atol=1e-13)


def _kernel_matrix_reference(curve, n):
    """The kernel matrix from one (n, n, 2) array of node differences, as
    kernel_matrix built it before it shared dlp_sum's kernel."""
    g = curve_grid(curve, n)
    diff = g.position[:, None, :] - g.position[None, :, :]
    r2 = np.sum(diff*diff, axis=-1)
    np.fill_diagonal(r2, 1.0)
    K = np.sum(g.normal[None, :, :]*diff, axis=-1)/r2*g.jacobian[None, :]
    np.fill_diagonal(K, -0.5*g.curvature*g.jacobian)
    return K


@pytest.mark.parametrize("n", [64, 200, 1024])
@pytest.mark.parametrize("curve", [kite(), star(), unit_circle()],
                         ids=["kite", "star", "circle"])
def test_kernel_matrix_equals_difference_array_reference(curve, n):
    assert np.array_equal(kernel_matrix(curve, n),
                          _kernel_matrix_reference(curve, n))


def test_assemble_rejects_bad_node_counts():
    with pytest.raises(ValueError):
        assemble_nystrom(kite(), 15)
    with pytest.raises(ValueError):
        assemble_nystrom(kite(), 8)
    with pytest.raises(ValueError):
        assemble_nystrom(kite(), MAX_NODES + 2)  # raises before allocating


def test_stacked_dlp_sum_equals_point_calls():
    d = _solved(kite(), 200)
    g = d.geometry
    eps = np.array([1e-1, 1e-3, 1e-6])
    x = g.position[::9, None] - eps[:, None]*g.normal[::9, None]
    x = x.reshape(-1, 2)  # 23 targets x 3 eps
    for mu in (d.mu, 1.0, d.mu - d.mu[3]):
        stacked = dlp_sum(g, x, mu)
        assert stacked.shape == (len(x),)
        single = [dlp_sum(g, xi, mu) for xi in x]
        assert all(type(v) is float for v in single)
        assert all(stacked[i] == v for i, v in enumerate(single))


def test_stacked_densities_equal_separate_calls():
    # (d, n) densities share one kernel; each value is bitwise the value of
    # a call with that density alone, at stacked points and at one point
    d = _solved(kite(), 200)
    g = d.geometry
    eps = np.array([1e-1, 1e-3, 1e-6])
    x = (g.position[::9, None] - eps[:, None]*g.normal[::9, None]).reshape(
        -1, 2)
    mus = np.stack([d.mu, d.mu - d.mu[3], np.ones(200), -2.0*d.mu])
    stacked = dlp_sum(g, x, mus)
    assert stacked.shape == (4, len(x))
    for mu, row in zip(mus, stacked):
        assert np.array_equal(row, dlp_sum(g, x, mu))
    one = dlp_sum(g, x[5], mus)
    assert one.shape == (4,)
    assert [float(v) for v in one] == [dlp_sum(g, x[5], mu) for mu in mus]


@pytest.mark.parametrize("k", [1, 31, 32, 33, 126])
def test_blocked_dlp_sum_equals_one_block(monkeypatch, k):
    # dlp_sum sums _POINT_BLOCK points at a time; every value is bitwise
    # that of one block holding all the points, for one density, stacked
    # densities and a constant
    d = _solved(kite(), 200)
    g = d.geometry
    x = g.position[np.arange(k) % 200] \
        - np.linspace(1e-6, 1e-1, k)[:, None]*g.normal[np.arange(k) % 200]
    mus = (d.mu, np.stack([d.mu, d.mu - d.mu[3]]), 1.0)
    blocked = [dlp_sum(g, x, mu) for mu in mus]
    monkeypatch.setattr(bie2d, "_POINT_BLOCK", 1000)
    for mu, got in zip(mus, blocked):
        want = dlp_sum(g, x, mu)
        assert got.shape == want.shape == np.shape(mu)[:-1] + (k,)
        assert np.array_equal(got, want)


def test_solve_rejects_mismatched_data():
    # the node count is the data's length: data that are not a vector, or
    # of an odd or too small length, are refused
    for f in (np.zeros((8, 8)), np.zeros(63), np.zeros(8), 1.0):
        with pytest.raises(ValueError):
            solve_density(kite(), f)


def test_density_grid_contents():
    d = _solved(kite(), 64)
    assert isinstance(d, DensityGrid2D)
    assert d.n == 64 and d.mu.shape == (64,) and d.f.shape == (64,)
    assert d.geometry.position.shape == (64, 2)
    # the solved density satisfies the discrete system
    A = assemble_nystrom(kite(), 64)
    assert np.max(np.abs(A @ d.mu - d.f)) < 1e-13

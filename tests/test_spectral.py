import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval.spectral import (SphericalCoeffs, _jy_eigenvectors,
                                _legendre_coefficients, _legendre_table,
                                _rotated_rows, _tri,
                                analysis_grid, gauss_legendre,
                                mapped_rule, periodic_derivative,
                                periodic_nodes, sph_analysis, sph_half_basis)

from references import (_wigner_d, degrees, pole_second_derivative_average,
                        rotated_angles, single, sph_basis_matrix,
                        sph_harm_eval, sph_synthesis, spherical_laplacian)


def _random_band_limited(rng, N):
    """Real random field of degree < N as coefficients."""
    c = SphericalCoeffs.zeros(N)
    for n in range(N):
        for m in range(0, n + 1):
            re, im = rng.standard_normal(2)
            if m == 0:
                im = 0.0
            c.c[SphericalCoeffs.index(n, m)] = re + 1j*im
            c.c[SphericalCoeffs.index(n, -m)] = (-1)**m*(re - 1j*im)
    return c


# ---------------------------------------------------------------- derivative

def test_derivative_of_cosine():
    t = periodic_nodes(32)
    d2 = periodic_derivative(np.cos(t), 2)
    assert_allclose(d2, -np.cos(t), atol=1e-12)
    d1 = periodic_derivative(np.cos(t), 1)
    assert_allclose(d1, -np.sin(t), atol=1e-12)


def test_derivative_of_constant_is_zero():
    for order in (1, 2):
        assert_allclose(periodic_derivative(np.full(16, 3.7), order), 0.0,
                        atol=1e-13)


def test_derivative_exp_cos_analytic():
    t = periodic_nodes(64)
    d2 = periodic_derivative(np.exp(np.cos(t)), 2)
    exact = (np.sin(t)**2 - np.cos(t))*np.exp(np.cos(t))
    assert_allclose(d2, exact, atol=1e-10)


def test_derivative_exact_for_trig_polynomials():
    n = 32
    t = periodic_nodes(n)
    rng = np.random.default_rng(0)
    v = np.zeros(n)
    d1_exact = np.zeros(n)
    for k in range(1, n//2):  # strictly below the Nyquist mode
        a, b = rng.standard_normal(2)
        v += a*np.cos(k*t) + b*np.sin(k*t)
        d1_exact += -a*k*np.sin(k*t) + b*k*np.cos(k*t)
    assert_allclose(periodic_derivative(v, 1), d1_exact, atol=1e-12*n)


def test_derivative_validates_input():
    with pytest.raises(ValueError):
        periodic_derivative(np.zeros(7), 1)
    with pytest.raises(ValueError):
        periodic_derivative(np.zeros(16), 3)


# ---------------------------------------------------------------- quadrature

def test_gauss_legendre_textbook_values():
    r1 = gauss_legendre(1)
    assert_allclose(r1.nodes, [0.0], atol=1e-15)
    assert_allclose(r1.weights, [2.0], atol=1e-15)
    r2 = gauss_legendre(2)
    assert_allclose(sorted(r2.nodes), [-1/np.sqrt(3), 1/np.sqrt(3)],
                    atol=1e-15)
    assert_allclose(r2.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_degree_exactness():
    for n in (3, 8, 16):
        rule = gauss_legendre(n)
        p = 2*n - 1
        got = np.sum(rule.weights*rule.nodes**p)
        assert abs(got - 0.0) <= 1e-13  # odd power integrates to zero
        got = np.sum(rule.weights*rule.nodes**(p - 1))
        exact = 2.0/(p)  # int x^(2n-2) = 2/(2n-1)
        assert abs(got - exact) <= 1e-12*abs(exact) + 1e-14


def test_gauss_legendre_end_weights_match_high_precision():
    # mpmath at 40 digits: Newton's method in theta on mpmath.legendre(n,
    # cos theta) from the largest double node, then w = 2 sin^2(theta)/D^2
    # with D = n(P_{n-1} - x P_n).  scipy's are off by 2.1e-7 and 1.0e-8
    # relative.  A float64 O(n) recurrence gathers rounding like sqrt(n)*eps:
    # measured 6.0e-16 and 6.7e-15 relative.
    exact = {4096: 4.4220385139094867252306892756842368e-07,
             8192: 1.1056446260090729088334198380001988e-07}
    for n, w in exact.items():
        weights = gauss_legendre(n).weights
        assert_allclose(weights[[0, -1]], w, rtol=1e-14, atol=0)


def test_gauss_legendre_is_exactly_symmetric():
    for n in (*range(1, 40), 64, 127, 4096):
        rule = gauss_legendre(n)
        assert np.all(rule.nodes == -rule.nodes[::-1]), n
        assert np.all(rule.weights == rule.weights[::-1]), n
        assert np.all(np.diff(rule.nodes) > 0), n
        if n % 2:
            assert rule.nodes[n//2] == 0.0, n


def test_gauss_legendre_matches_scipy():
    from scipy.special import roots_legendre
    for n in (4096, 8192):  # before the loop below evicts their rules
        assert np.max(np.abs(gauss_legendre(n).nodes
                             - roots_legendre(n)[0])) <= 1e-15, n
    for n in range(1, 201):
        rule = gauss_legendre(n)
        x, w = roots_legendre(n)
        assert np.max(np.abs(rule.nodes - x)) <= 1e-15, n
        # scipy's end weights are off by up to 3.0e-14 for n <= 200 (n=165,
        # against mpmath), where this rule's are within 1e-18
        assert np.max(np.abs(rule.weights - w)) <= 4e-14, n


def test_mapped_rule_integrates_sine():
    rule = mapped_rule(8)
    assert_allclose(np.sum(rule.weights), np.pi, atol=1e-12)
    assert_allclose(np.sum(rule.weights*np.sin(rule.nodes)), 2.0, atol=1e-12)


def test_gauss_legendre_rejects_empty():
    with pytest.raises(ValueError):
        gauss_legendre(0)


# ---------------------------------------------------------------- harmonics

def test_y00_is_constant():
    th = np.array([0.3, 1.2, 2.9])
    ph = np.array([-2.0, 0.4, 3.0])
    assert_allclose(sph_harm_eval(0, 0, th, ph), 1/np.sqrt(4*np.pi),
                    atol=1e-15)


def test_sph_harm_matches_scipy():
    from scipy.special import sph_harm_y
    rng = np.random.default_rng(1)
    th = rng.uniform(0.01, np.pi - 0.01, 40)
    ph = rng.uniform(-np.pi, np.pi, 40)
    for n, m in [(1, 0), (3, 2), (5, -4), (8, 8), (12, -7)]:
        got = sph_harm_eval(n, m, th, ph)
        ref = sph_harm_y(n, m, th, ph)
        assert_allclose(got, ref, atol=1e-12)


def _nodes_with_poles(rng, k):
    """k random nodes plus theta = 0 and pi, and phi = -pi and pi."""
    th = np.concatenate([[0.0, np.pi, 0.0, np.pi, 1.0, 2.0],
                         rng.uniform(0, np.pi, k)])
    ph = np.concatenate([[0.3, -1.2, np.pi, -np.pi, np.pi, -np.pi],
                         rng.uniform(-np.pi, np.pi, k)])
    return th, ph


def test_basis_matrix_matches_scipy_with_poles():
    from scipy.special import sph_harm_y
    N = 32
    th, ph = _nodes_with_poles(np.random.default_rng(3), 40)
    n = degrees(SphericalCoeffs.zeros(N))
    m = np.concatenate([np.arange(-d, d + 1) for d in range(N)])
    ref = sph_harm_y(n[None, :], m[None, :], th[:, None], ph[:, None])
    assert_allclose(sph_basis_matrix(th, ph, N), ref, rtol=0, atol=1e-12)


def test_basis_matrix_m_nonnegative_columns_are_the_half_basis():
    N = 32
    th, ph = _nodes_with_poles(np.random.default_rng(4), 40)
    B = sph_basis_matrix(th, ph, N)
    half = sph_half_basis(th, ph, N)
    assert half.shape == (th.size, N*(N + 1)//2)
    cols = [SphericalCoeffs.index(n, m) for n in range(N)
            for m in range(n + 1)]
    assert np.array_equal(B[:, cols], half)


def test_synthesis_of_complex_coefficients_matches_the_basis():
    # coefficients of no real field, so the m < 0 terms are independent
    rng = np.random.default_rng(5)
    N = 12
    c = SphericalCoeffs(rng.standard_normal(N*N)
                        + 1j*rng.standard_normal(N*N))
    th, ph = _nodes_with_poles(rng, 30)
    ref = sph_basis_matrix(th, ph, N) @ c.c
    assert_allclose(sph_synthesis(c, th, ph), ref, rtol=0, atol=1e-13)
    grid = sph_synthesis(c, th[:30].reshape(5, 6), ph[:30].reshape(5, 6))
    assert_allclose(grid.ravel(), ref[:30], rtol=0, atol=1e-13)


def test_sph_harm_rejects_bad_order():
    with pytest.raises(ValueError):
        sph_harm_eval(2, 3, 0.5, 0.5)


def test_orthonormality():
    N = 6
    th, wth, ph = analysis_grid(N)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    B = sph_basis_matrix(TH.ravel(), PH.ravel(), N)
    w = np.repeat(wth, ph.size)*(np.pi/N)
    G = (B.conj()*w[:, None]).T @ B
    assert_allclose(G, np.eye(N*N), atol=1e-12)


def test_analysis_of_constant():
    N = 5
    th, _, ph = analysis_grid(N)
    TH, _PH = np.meshgrid(th, ph, indexing="ij")
    coeffs = sph_analysis(np.ones_like(TH))
    assert_allclose(coeffs.get(0, 0), np.sqrt(4*np.pi), atol=1e-12)
    rest = coeffs.c.copy()
    rest[SphericalCoeffs.index(0, 0)] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_round_trip_single_harmonic():
    N = 6
    th, _, ph = analysis_grid(N)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    vals = sph_harm_eval(3, 2, TH, PH)
    coeffs = sph_analysis(vals)
    back = sph_synthesis(coeffs, TH, PH)
    assert_allclose(back, vals, atol=1e-10)


def test_round_trip_random_field():
    rng = np.random.default_rng(2)
    N = 8
    c = _random_band_limited(rng, N)
    th, _, ph = analysis_grid(N)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    vals = sph_synthesis(c, TH, PH)
    assert np.max(np.abs(vals.imag)) < 1e-11  # conjugate symmetry holds
    got = sph_analysis(vals)
    assert_allclose(got.c, c.c, atol=1e-10)


@pytest.mark.parametrize("N", [1, 2, 9, 16])
def test_analysis_matches_dense_projection(N):
    # the FFT-and-Legendre analysis against the dense projection
    # conj(B)^T diag(w) on the same grid, for a complex field with no
    # conjugate symmetry
    th, wth, ph = analysis_grid(N)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    w = np.repeat(wth, ph.size)*(np.pi/N)
    P = (np.conj(sph_basis_matrix(TH, PH, N))*w[:, None]).T
    rng = np.random.default_rng(N)
    vals = rng.standard_normal((N, 2*N)) + 1j*rng.standard_normal((N, 2*N))
    got = sph_analysis(vals)
    assert np.max(np.abs(got.c - P @ vals.ravel())) <= 1e-14


def test_analysis_rejects_a_grid_of_the_wrong_shape():
    for values in (np.ones((4, 6)), np.ones(8), np.ones((2, 4, 1)), 1.0):
        with pytest.raises(ValueError):
            sph_analysis(values)


# ---------------------------------------------------------------- rotation

WIGNER_DEGREES = 64


def _turn(l, betas):
    """e^{-ik beta} for k = -l..l (rows) and each angle (columns)."""
    return np.exp(-1j*np.outer(np.arange(-l, l + 1), betas))


def test_rotated_rows_at_zero_is_the_identity():
    for l in range(WIGNER_DEGREES):
        eye = np.eye(2*l + 1, dtype=complex)
        d = _rotated_rows(eye, _turn(l, [0.0]))
        assert np.max(np.abs(d - eye[l:])) <= 1e-14


def test_rotated_rows_of_stacked_angles_match_the_wigner_matrices():
    # one column per (angle, m'), as the Galerkin assembly stacks a block
    # of colatitudes; conj(turn) applies the transpose, as close
    # evaluation does.  The formed matrices rotate the harmonics:
    # Y_lm(R_y(beta) p) = sum_m' d_mm'(beta) Y_lm'(p) at random points p,
    # with R_y(beta) = rotation_matrix(beta, 0)
    betas = np.array([0.0, 0.4, 1.9, 2.9, np.pi])
    rng = np.random.default_rng(4)
    th = np.arccos(rng.uniform(-1, 1, 40))
    ph = rng.uniform(-np.pi, np.pi, 40)
    N = WIGNER_DEGREES
    B = sph_basis_matrix(th, ph, N)
    rotated = [sph_basis_matrix(*rotated_angles(th, ph, beta, 0.0), N)
               for beta in betas]
    for l in range(N):
        U = _jy_eigenvectors(l)
        d = _wigner_d(U, betas)
        eye = np.eye(2*l + 1, dtype=complex)
        turn = np.repeat(_turn(l, betas), 2*l + 1, axis=1)
        got = _rotated_rows(np.tile(eye, betas.size), turn)
        back = _rotated_rows(np.tile(eye, betas.size), np.conj(turn))
        cols = slice(l*l, (l + 1)**2)
        for j, beta in enumerate(betas):
            block = slice(j*(2*l + 1), (j + 1)*(2*l + 1))
            assert np.max(np.abs(got[:, block] - d[j, l:])) <= 1e-14
            assert np.max(np.abs(back[:, block] - d[j][:, l:].T)) <= 1e-14
            assert np.max(np.abs(rotated[j][:, cols]
                                 - B[:, cols] @ d[j].T)) <= 1e-13


@pytest.mark.parametrize("beta", [0.3, 1.7, np.pi])
def test_rotated_rows_keep_the_norm_of_a_real_field(beta):
    # d^l is orthogonal and real, so it keeps the norm of a real field's
    # coefficients c_{l,-m} = (-1)^m conj(c_lm), and of the rotated field,
    # whose rows m >= 0 give the rest
    rng = np.random.default_rng(int(10*beta))
    for l in range(WIGNER_DEGREES):
        m = np.arange(-l, l + 1)
        c = rng.standard_normal((2*l + 1, 3)) + 1j*rng.standard_normal(
            (2*l + 1, 3))
        c = (c + (-1.0)**m[:, None]*np.conj(c[::-1]))/2
        b = _rotated_rows(c, _turn(l, [beta]))
        kept = np.abs(b[0])**2 + 2*np.sum(np.abs(b[1:])**2, axis=0)
        assert np.max(np.abs(kept - np.sum(np.abs(c)**2, axis=0))
                      / np.sum(np.abs(c)**2, axis=0)) <= 1e-14


def test_rotated_rows_at_the_largest_galerkin_degree():
    # l = MAX_DEGREE - 1, the largest degree that the assembly rotates
    l = 95
    betas = np.array([0.2, 1.3, 2.6])
    U = _jy_eigenvectors(l)
    d = _wigner_d(U, betas, l)
    eye = np.eye(2*l + 1, dtype=complex)
    got = _rotated_rows(np.tile(eye, betas.size),
                        np.repeat(_turn(l, betas), 2*l + 1, axis=1))
    for j in range(betas.size):
        block = got[:, j*(2*l + 1):(j + 1)*(2*l + 1)]
        assert np.max(np.abs(block - d[j])) <= 1e-14


# The reference matrices (tests/references.py) that the rotation tests
# above compare against are themselves checked here against the rotated
# harmonics, so the comparison is to an independent truth.

def test_wigner_d_at_zero_is_the_identity():
    for l in range(WIGNER_DEGREES):
        d = _wigner_d(_jy_eigenvectors(l), 0.0)
        assert np.max(np.abs(d - np.eye(2*l + 1))) <= 1e-14


@pytest.mark.parametrize("beta", [0.3, 1.7, np.pi])
def test_wigner_d_is_orthogonal(beta):
    for l in range(WIGNER_DEGREES):
        d = _wigner_d(_jy_eigenvectors(l), beta)
        assert np.max(np.abs(d @ d.T - np.eye(2*l + 1))) <= 1e-14


@pytest.mark.parametrize("beta", [0.4, 1.9, 2.9])
def test_wigner_d_rotates_the_harmonics(beta):
    # Y_lm(R_y(beta) p) = sum_m' d_mm'(beta) Y_lm'(p) at random points p,
    # with R_y(beta) = rotation_matrix(beta, 0); the m >= 0 columns of
    # sph_basis_matrix are sph_half_basis
    rng = np.random.default_rng(int(10*beta))
    th = np.arccos(rng.uniform(-1, 1, 40))
    ph = rng.uniform(-np.pi, np.pi, 40)
    N = WIGNER_DEGREES
    B = sph_basis_matrix(th, ph, N)
    rotated = sph_basis_matrix(*rotated_angles(th, ph, beta, 0.0), N)
    for l in range(N):
        U = _jy_eigenvectors(l)
        d = _wigner_d(U, beta)
        cols = slice(l*l, (l + 1)**2)
        assert np.max(np.abs(rotated[:, cols] - B[:, cols] @ d.T)) <= 1e-13
        # the rows m >= 0 alone (the same sums, blocked differently)
        assert np.max(np.abs(_wigner_d(U, beta, l) - d[l:])) <= 1e-15


def test_wigner_d_of_stacked_angles_is_each_angle_alone():
    # an array of angles gives one matrix per angle (the same sums,
    # blocked differently)
    betas = np.array([0.4, 1.9, 2.9])
    for l in range(WIGNER_DEGREES):
        U = _jy_eigenvectors(l)
        stacked = _wigner_d(U, betas, l)
        assert stacked.shape == (3, l + 1, 2*l + 1)
        for beta, d in zip(betas, stacked):
            assert np.max(np.abs(d - _wigner_d(U, beta, l))) <= 1e-15


def test_coeff_index_layout():
    assert SphericalCoeffs.index(0, 0) == 0
    assert SphericalCoeffs.index(1, -1) == 1
    assert SphericalCoeffs.index(1, 1) == 3
    assert SphericalCoeffs.index(3, 0) == 12
    with pytest.raises(ValueError):
        SphericalCoeffs.index(1, 2)


def test_coeffs_read_the_degree_bound_from_their_length():
    # N is not given beside the coefficients: their length must be N^2
    assert SphericalCoeffs(np.zeros(16)).N == 4
    assert SphericalCoeffs.zeros(3).c.shape == (9,)
    for c in (np.zeros(15), np.zeros((4, 4))):
        with pytest.raises(ValueError):
            SphericalCoeffs(c)


# ---------------------------------------------------------------- laplacian

def test_laplacian_eigenvalues():
    lap = spherical_laplacian(single(4, 1, 0))
    assert_allclose(lap.get(1, 0), -2.0, atol=1e-15)
    lap = spherical_laplacian(single(4, 0, 0, 2.5))
    assert_allclose(lap.get(0, 0), 0.0, atol=1e-15)


def _pole_sampler(coeffs, pole):
    def sampler(s, t):
        th, ph = rotated_angles(s, t, pole[0], pole[1])
        return np.real(sph_synthesis(coeffs, th, ph))
    return sampler


def test_pole_average_constant_is_zero():
    c = single(3, 0, 0, 4.0)
    got = pole_second_derivative_average(_pole_sampler(c, (0.7, 1.1)))
    assert abs(got) < 1e-9


def test_pole_average_y20_at_north_pole():
    c = single(4, 2, 0)
    got = pole_second_derivative_average(_pole_sampler(c, (0.0, 0.0)))
    ref = 0.5*(-6.0)*np.real(sph_harm_eval(2, 0, 0.0, 0.0))
    assert abs(got - ref) < 1e-6


def test_pole_average_y11_generic_pole():
    c = SphericalCoeffs.zeros(4)
    c.c[SphericalCoeffs.index(1, 1)] = 1.0
    c.c[SphericalCoeffs.index(1, -1)] = -1.0  # real combination
    pole = (1.3, 0.8)
    got = pole_second_derivative_average(_pole_sampler(c, pole))
    lap = spherical_laplacian(c)
    ref = 0.5*np.real(sph_synthesis(lap, np.array([pole[0]]),
                                    np.array([pole[1]])))[0]
    assert abs(got - ref) < 1e-6


def test_pole_average_matches_laplacian_random_fields():
    rng = np.random.default_rng(3)
    for trial in range(5):
        c = _random_band_limited(rng, 8)
        lap = spherical_laplacian(c)
        pole = (rng.uniform(0.2, np.pi - 0.2), rng.uniform(-np.pi, np.pi))
        got = pole_second_derivative_average(_pole_sampler(c, pole))
        ref = 0.5*np.real(sph_synthesis(lap, np.array([pole[0]]),
                                        np.array([pole[1]])))[0]
        assert abs(got - ref) < 1e-6


def test_pole_average_step_refinement():
    rng = np.random.default_rng(4)
    c = _random_band_limited(rng, 8)
    pole = (1.0, 0.4)
    lap = spherical_laplacian(c)
    ref = 0.5*np.real(sph_synthesis(lap, np.array([pole[0]]),
                                    np.array([pole[1]])))[0]
    sampler = _pole_sampler(c, pole)
    errs = [abs(pole_second_derivative_average(sampler, h=h) - ref)
            for h in (4e-2, 2e-2, 1e-2)]
    assert errs[2] < errs[0]
    assert errs[2] < 1e-6


def _fresh_legendre_table(x, sx, nmax):
    # _legendre_table with every step's factors computed in the step, as
    # before they were kept per nmax
    P = np.empty((_tri(nmax), x.size))
    P[0] = 0.5/np.sqrt(np.pi)
    for n in range(1, nmax):
        row, prev, prev2 = _tri(n), _tri(n - 1), _tri(n - 2)
        P[row + n] = -np.sqrt((2*n + 1)/(2.0*n))*sx*P[prev + n - 1]
        P[row + n - 1] = np.sqrt(2*n + 1.0)*x*P[prev + n - 1]
        m = np.arange(n - 1)[:, None]
        a = np.sqrt((4.0*n*n - 1)/(n*n - m*m))
        b = np.sqrt(((n - 1.0)**2 - m*m)*(2*n + 1)/((n*n - m*m)*(2*n - 3.0)))
        P[row:row + n - 1] = ((a*x)*P[prev:prev + n - 1]
                              - b*P[prev2:prev2 + n - 1])
    return P


@pytest.mark.parametrize("nmax", [1, 2, 3, 17, 64, 97])
def test_cached_recurrence_matches_fresh_one_bitwise(nmax):
    theta = np.concatenate([np.linspace(0.0, np.pi, 41), [1e-9, np.pi/2]])
    x, sx = np.cos(theta), np.sin(theta)
    fresh = _fresh_legendre_table(x, sx, nmax)
    for _ in range(2):  # the first call builds the factors, the second reuses
        assert np.array_equal(_legendre_table(x, sx, nmax), fresh)


def test_recurrence_factors_built_once_per_size_and_read_only():
    factors = _legendre_coefficients(24)
    assert _legendre_coefficients(24) is factors
    assert len(factors) == 23
    for n, (_, _, a, b) in enumerate(factors, start=1):
        assert a.shape == b.shape == (n - 1, 1)
        for column in (a, b):
            with pytest.raises(ValueError):
                column[...] = 0.0

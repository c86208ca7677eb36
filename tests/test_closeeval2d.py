import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval.bie2d import (DensityGrid2D, assemble_nystrom, dirichlet_data,
                             harmonic_source, solve_density)
from closeeval.closeeval2d import (METHODS, CloseEvalRequest2D, _eval_points,
                                   _kernel_K1, asym_coefficients,
                                   close_eval_2d)
from closeeval.geometry2d import (CurvePoint2D, curve_eval, curve_grid, kite,
                                  star)
from closeeval.spectral import periodic_derivative

from references import unit_circle

X0 = np.array([1.85, 1.65])
N = 128
K_CONCAVE = 16  # node t = -3*pi/4, the concave-side reference target
K_CONVEX = 80   # node t = pi/4, the convex-side reference target


def _solved(curve, n):
    return solve_density(curve, dirichlet_data(curve, X0, n))


@pytest.fixture(scope="module")
def kite_density():
    return _solved(kite(), N)


def _kernel_K1_2d(curve, t, t_star):
    # the first kernel of the distance expansion at parameters t for the
    # target y(t_star)
    gt = curve_eval(curve, t)
    gs = curve_eval(curve, np.asarray(t_star))
    return _kernel_K1(gt.position, gt.normal, gs.position, gs.normal)


def _kernel_K2(y, nu, ystar, nustar):
    # the second kernel of the distance expansion, with y_d = y* - y:
    # K2 = [(nu . y_d)(4 (nu* . y_d)^2 - |y_d|^2)
    #       - 2 |y_d|^2 (nu . nu*)(nu* . y_d)] / |y_d|^6
    yd = ystar - y
    r2 = np.sum(yd*yd, axis=-1)
    nd = np.sum(nu*yd, axis=-1)
    nsd = np.sum(nustar*yd, axis=-1)
    ndot = np.sum(nu*nustar, axis=-1)
    return (nd*(4*nsd*nsd - r2) - 2*r2*ndot*nsd)/r2**3


def _k2_reference(density, k):
    # U2 the long way, independent of Laplace's equation: the
    # corrected trapezoid sum of K2 [mu - mu*] and the local derivative
    # terms of its singular cell
    g = density.geometry
    n = density.n
    mu = density.mu
    mup = periodic_derivative(mu, 1)
    mupp = periodic_derivative(mu, 2)
    J_k = g.jacobian[k]
    mask = np.arange(n) != k
    K2 = _kernel_K2(g.position[mask], g.normal[mask], g.position[k],
                    g.normal[k])
    U2 = np.sum(K2*g.jacobian[mask]*(mu[mask] - mu[k]))/n \
        - g.curvature[k]*mupp[k]/(4*n*J_k)
    local = -np.dot(g.d1[k], g.d2[k])/(4*J_k**4)*mup[k] \
        + mupp[k]/(4*J_k**2)
    return U2 + local


def _exact_U2(density, k):
    # (1/2) nu . Hess(u) nu at y* for u = -(1/2pi) log|x - x0|
    g = density.geometry
    r = g.position[k] - X0
    r2 = np.dot(r, r)
    nr = np.dot(g.normal[k], r)
    return -(1/r2 - 2*nr*nr/r2**2)/(4*np.pi)


def _errors(density, k, eps):
    CloseEvalRequest2D(density, k, eps)  # the point is inside the kite
    exact = harmonic_source(_eval_points(density, k, eps), X0)
    return {m: abs(v - exact)
            for m, v in close_eval_2d(density, k, eps).items()}


def test_kernel_values_on_circle():
    # antipodal target on the unit circle: closed forms -1/4 and -1/8
    assert_allclose(_kernel_K1_2d(unit_circle(), np.pi, 0.0), -0.25,
                    atol=1e-15)
    gt, gs = curve_eval(unit_circle(), np.pi), curve_eval(unit_circle(), 0.0)
    assert_allclose(_kernel_K2(gt.position, gt.normal, gs.position,
                               gs.normal), -0.125, atol=1e-15)


def test_kernels_shift_invariant_on_circle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t, ts, s = rng.uniform(-np.pi, np.pi, 3)
        if abs(t - ts) < 0.1:
            continue
        assert_allclose(_kernel_K1_2d(unit_circle(), t + s, ts + s),
                        _kernel_K1_2d(unit_circle(), t, ts), atol=1e-12)


def test_kernel_coincidence_raises():
    with pytest.raises(ValueError):
        _kernel_K1_2d(kite(), 0.7, 0.7)


def test_constant_density_is_exact(kite_density):
    # unit density: the potential is identically -1 inside, the subtraction
    # rule reproduces it exactly and every other method hits the grid floor
    A = assemble_nystrom(kite(), N)
    ones = np.ones(N)
    d = DensityGrid2D(kite(), ones, A @ ones, curve_grid(kite(), N))
    for k in (K_CONCAVE, K_CONVEX):
        v = close_eval_2d(d, k, 1e-3)
        assert abs(v["sub"] + 1) < 1e-14
        assert abs(v["asym2"] + 1) < 1e-13
        assert abs(v["asym3"] + 1) < 1e-13
    # far from the boundary even the plain rule is exact
    assert abs(close_eval_2d(d, K_CONVEX, 0.5)["ptr"] + 1) < 1e-12


def test_far_field_quadratures_are_spectral(kite_density):
    # eps = 0.5 from the convex-side target is a deep interior point
    e = _errors(kite_density, K_CONVEX, 0.5)
    assert e["ptr"] < 1e-13
    assert e["sub"] < 1e-13


@pytest.mark.xfail(strict=True,
                   reason="the asymptotic forms truncate after the eps^2 "
                          "term, leaving ~1e-4 residuals at eps = 0.5; they "
                          "only match the quadratures in the small-eps "
                          "regime (see the decision ledger)")
def test_far_field_all_methods_agree(kite_density):
    vals = list(close_eval_2d(kite_density, K_CONVEX, 0.5).values())
    assert np.max(vals) - np.min(vals) < 1e-10


@pytest.mark.xfail(strict=True,
                   reason="the point 0.5 inside the concave-side target is "
                          "only 0.132 from the opposite boundary sheet, so "
                          "the plain rule keeps a ~2e-6 error there; the "
                          "1e-10 far-field figure only holds at targets "
                          "whose inward ray stays deep (see the decision "
                          "ledger)")
def test_far_field_plain_rule_at_concave_target(kite_density):
    assert _errors(kite_density, K_CONCAVE, 0.5)["ptr"] < 1e-10


def test_plain_rule_breaks_down_at_tiny_eps(kite_density):
    assert _errors(kite_density, K_CONCAVE, 1e-6)["ptr"] >= 1e-2


def test_regression_error_value_convex_target(kite_density):
    # frozen from the first verified run; guards against silent drift in
    # the correction-sum arithmetic
    err = _errors(kite_density, K_CONVEX, 1e-3)["asym2"]
    assert err == pytest.approx(8.2431900e-10, rel=1e-3)


def test_subtraction_error_peaks_at_intermediate_distance(kite_density):
    grid = np.logspace(-5, -0.5, 46)
    for k in (K_CONCAVE, K_CONVEX):
        errs = [_errors(kite_density, k, eps)["sub"] for eps in grid]
        peak = grid[int(np.argmax(errs))]
        assert 3e-3 <= peak <= 1e-1


def test_subtraction_beats_plain_near_boundary(kite_density):
    for k in (K_CONCAVE, K_CONVEX):
        e = _errors(kite_density, k, 1e-4)
        assert e["sub"] < 1e-3*e["ptr"]


def test_method_ordering_near_boundary(kite_density):
    # asymptotic orders win once eps is below the node spacing
    for k in (K_CONCAVE, K_CONVEX):
        for eps in (1e-3, 1e-4):
            e = _errors(kite_density, k, eps)
            assert e["asym3"] <= e["asym2"] <= e["sub"] <= e["ptr"]


def test_errors_decay_by_decades(kite_density):
    for m in ("sub", "asym2"):
        errs = [_errors(kite_density, K_CONVEX, eps)[m]
                for eps in (1e-3, 1e-4, 1e-5)]
        assert errs[0] > errs[1] > errs[2]


def test_asym_errors_monotone_over_decade_grid(kite_density):
    # non-increasing from 1e-1 down to 1e-6, except below the roundoff floor
    decades = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    for m in ("asym2", "asym3"):
        for k in (K_CONCAVE, K_CONVEX):
            errs = [_errors(kite_density, k, eps)[m] for eps in decades]
            for a, b in zip(errs, errs[1:]):
                assert b <= a or (a < 1e-13 and b < 1e-13)


def test_correction_sums_order_independent(kite_density):
    # the off-target kernel sums must not depend on summation order
    nodes = np.delete(np.arange(N), K_CONVEX)
    t = -np.pi + 2*np.pi*nodes/N
    ts = float(-np.pi + 2*np.pi*K_CONVEX/N)
    terms = _kernel_K1_2d(kite(), t, ts) \
        * kite_density.geometry.jacobian[nodes] \
        * (kite_density.mu[nodes] - kite_density.mu[K_CONVEX])
    assert np.all(np.isfinite(terms))
    rng = np.random.default_rng(11)
    forward = np.sum(terms)
    for _ in range(5):
        assert abs(np.sum(rng.permutation(terms)) - forward) < 1e-13


def test_shift_equivariance(kite_density):
    # rolling the periodic grid must not change any evaluated value
    d = kite_density
    s = 37
    g = d.geometry
    rolled = CurvePoint2D(np.roll(g.position, s, axis=0),
                          np.roll(g.d1, s, axis=0),
                          np.roll(g.d2, s, axis=0),
                          np.roll(g.normal, s, axis=0),
                          np.roll(g.jacobian, s),
                          np.roll(g.curvature, s))
    dr = DensityGrid2D(d.curve, np.roll(d.mu, s), np.roll(d.f, s), rolled)
    for k in (K_CONCAVE, K_CONVEX):
        v = close_eval_2d(d, k, 1e-3)
        vr = close_eval_2d(dr, (k + s) % N, 1e-3)
        for m in METHODS:
            assert_allclose(vr[m], v[m], atol=1e-13)


def test_asym_coefficients_recompose(kite_density):
    for k in (K_CONCAVE, K_CONVEX):
        fstar, u1, u2 = asym_coefficients(kite_density, k)
        for eps in (1e-2, 1e-4):
            v = close_eval_2d(kite_density, k, eps)
            assert_allclose(v["asym2"], fstar + eps*u1, rtol=1e-15)
            assert_allclose(v["asym3"], fstar + eps*u1 + eps**2*u2,
                            rtol=1e-15)


def test_asym_coefficients_differentiate_once_per_density(monkeypatch):
    # mu'', f' and f'' are taken once per density, not once per target
    orders = []
    monkeypatch.setattr("closeeval.bie2d.periodic_derivative",
                        lambda v, k: orders.append(k) or
                        periodic_derivative(v, k))
    d = _solved(kite(), 64)
    for k in range(64):
        fstar, u1, u2 = asym_coefficients(d, k)
        assert u2 == (-_fss(d, k)/2 + d.geometry.curvature[k]*u1/2)
    assert sorted(orders) == [1, 2, 2]


def _fss(d, k):
    """f_ss at node k from freshly taken derivatives of the data."""
    g = d.geometry
    J = g.jacobian[k]
    ft = periodic_derivative(d.f, 1)[k]
    ftt = periodic_derivative(d.f, 2)[k]
    return (ftt - np.dot(g.d1[k], g.d2[k])/J**2*ft)/J**2


@pytest.mark.parametrize("curve,n", [(kite, 200), (star, 256)])
def test_U2_is_the_normal_taylor_coefficient(curve, n):
    # U2 = (1/2) d_nu^2 u, here against the source's exact Hessian
    d = _solved(curve(), n)
    err = [abs(asym_coefficients(d, k)[2] - _exact_U2(d, k))
           for k in range(n)]
    assert max(err) <= 5e-12


@pytest.mark.parametrize("curve,n,tol", [(kite, 128, 2e-11),
                                         (star, 256, 3e-11)])
def test_U2_matches_the_K2_sum(curve, n, tol):
    # Laplace's equation and the K2 correction sum give the same coefficient
    d = _solved(curve(), n)
    diff = [abs(asym_coefficients(d, k)[2] - _k2_reference(d, k))
            for k in range(n)]
    assert max(diff) <= tol


def test_request_geometry(kite_density):
    r = CloseEvalRequest2D(kite_density, K_CONVEX, 2e-2)
    g = kite_density.geometry
    ystar, nustar = g.position[K_CONVEX], g.normal[K_CONVEX]
    assert_allclose(r.point(), ystar - 2e-2*nustar, atol=1e-16)
    assert_allclose(np.linalg.norm(r.point() - ystar), 2e-2, rtol=1e-13)


def test_request_validation(kite_density):
    with pytest.raises(ValueError):
        CloseEvalRequest2D(kite_density, K_CONVEX, 0.0)
    with pytest.raises(ValueError):
        CloseEvalRequest2D(kite_density, N, 1e-3)
    with pytest.raises(ValueError):
        CloseEvalRequest2D(kite_density, -1, 1e-3)
    with pytest.raises(ValueError):
        CloseEvalRequest2D(kite_density, K_CONVEX, 5.0)


def test_evaluator_validation(kite_density):
    # the evaluator refuses what CloseEvalRequest2D refuses, except a point
    # outside the curve: interiority is the caller's test
    for kw in ({"eps": 0.0}, {"eps": [1e-2, -1e-3]}, {"k": N}, {"k": -1},
               {"methods": ("ptr", "asym4")}):
        args = {"density": kite_density, "k": K_CONVEX, "eps": 1e-3, **kw}
        with pytest.raises(ValueError):
            close_eval_2d(**args)
    assert set(close_eval_2d(kite_density, K_CONVEX, 5.0)) == set(METHODS)


def test_eps_vector_matches_scalar_requests(kite_density):
    # one call over several eps gives exactly the values of one call per
    # eps, as floats, for every method and any subset of them
    eps = [2e-1, 2e-2, 2e-3, 2e-4]
    for methods in (METHODS, ("asym3", "ptr"), ("sub",)):
        vec = close_eval_2d(kite_density, K_CONCAVE, np.array(eps), methods)
        assert tuple(vec) == methods
        for i, e in enumerate(eps):
            one = close_eval_2d(kite_density, K_CONCAVE, e, methods)
            assert all(isinstance(v, float) for v in one.values())
            assert [vec[m][i] for m in methods] == list(one.values())

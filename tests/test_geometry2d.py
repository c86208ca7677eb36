import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval.geometry2d import (Curve2D, circle, curve_eval, curve_grid,
                                  fourier_custom, kite, load_curve,
                                  point_inside, star)
from closeeval.spectral import periodic_nodes

CURVES = {"kite": kite(), "star": star(), "circle": circle()}


def test_kite_anchor_points():
    p = curve_eval(kite(), 0.0)
    assert_allclose(p.position, [1.0, 0.0], atol=1e-15)
    p = curve_eval(kite(), np.pi/2)
    assert_allclose(p.position, [-1.3, 1.5], atol=1e-15)


def test_kite_contains_reference_target():
    # y(5*pi/4) is the deep concave-side target used in the error studies
    p = curve_eval(kite(), 5*np.pi/4)
    assert_allclose(p.position, [-1.3571, -1.0607], atol=5e-5)


def test_star_anchor_points():
    p = curve_eval(star(), 0.0)
    assert_allclose(p.position, [1.3, 0.0], atol=1e-15)
    # r(t) = 1 + 0.3 cos(5t) against the expanded trigonometric coordinates
    for t in np.linspace(-np.pi, np.pi, 17):
        r = 1 + 0.3*np.cos(5*t)
        p = curve_eval(star(), t)
        assert_allclose(p.position, [r*np.cos(t), r*np.sin(t)], atol=1e-13)


def test_circle_curvature_is_plus_one():
    for t in (0.0, 1.0, -2.2):
        p = curve_eval(circle(), t)
        assert_allclose(p.curvature, 1.0, atol=1e-13)
        assert_allclose(p.normal, p.position, atol=1e-13)  # outward on unit circle


def test_periodicity():
    for crv in CURVES.values():
        a = curve_eval(crv, -np.pi)
        b = curve_eval(crv, np.pi)
        assert_allclose(a.position, b.position, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_normal_orthogonal_and_unit(name):
    crv = CURVES[name]
    t = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    p = curve_eval(crv, t)
    assert np.max(np.abs(np.sum(p.normal*p.d1, axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(p.normal**2, axis=-1) - 1)) < 1e-12
    assert np.all(p.jacobian > 0)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_curvature_cross_product_identity(name):
    crv = CURVES[name]
    t = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    p = curve_eval(crv, t)
    cross = p.d1[:, 0]*p.d2[:, 1] - p.d1[:, 1]*p.d2[:, 0]
    assert_allclose(p.curvature, cross/p.jacobian**3, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_derivatives_match_finite_differences(name):
    crv = CURVES[name]
    h = 1e-5
    for t in (0.3, 2.0, -1.1):
        p = curve_eval(crv, t)
        fd1 = (curve_eval(crv, t + h).position
               - curve_eval(crv, t - h).position)/(2*h)
        scale = np.maximum(np.abs(p.d1), 1.0)
        assert np.max(np.abs(fd1 - p.d1)/scale) < 1e-7


@pytest.mark.parametrize("name", sorted(CURVES))
def test_normal_points_outward(name):
    crv = CURVES[name]
    for t in np.linspace(-np.pi, np.pi, 32, endpoint=False):
        p = curve_eval(crv, t)
        assert point_inside(crv, p.position - 1e-3*p.normal)
        assert not point_inside(crv, p.position + 1e-3*p.normal)


def test_point_inside_reference_points():
    assert point_inside(kite(), (0.0, 0.0))
    assert not point_inside(kite(), (1.85, 1.65))  # the 2D source location
    assert point_inside(star(), (0.2, -0.1))
    assert not point_inside(star(), (2.0, 0.0))


def _fresh_polygon_inside(curve, x, samples=2048):
    """Reference even-odd test that builds its polygon on every call."""
    p = curve.position(periodic_nodes(samples))
    x1, y1 = p[:, 0], p[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    cond = (y1 > x[1]) != (y2 > x[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (x[1] - y1)*(x2 - x1)/(y2 - y1)
    return bool(np.sum(cond & (xint > x[0])) % 2)


@pytest.mark.parametrize("name", ["kite", "star"])
def test_memoised_polygon_matches_fresh_reference(name):
    crv = CURVES[name]
    g = curve_grid(crv, 200)
    decisions = []
    for d in (-0.3, -1e-3, -1e-6, 1e-6, 1e-3, 0.3):  # negative is inward
        for y, nu in zip(g.position, g.normal):
            x = y + d*nu
            inside = point_inside(crv, x)
            assert inside == _fresh_polygon_inside(crv, x)
            decisions.append(inside)
    assert 0 < sum(decisions) < len(decisions)


def test_polygon_built_once_per_curve(monkeypatch):
    sizes = []
    position = Curve2D.position

    def counted(self, t):
        sizes.append(np.size(t))
        return position(self, t)

    monkeypatch.setattr(Curve2D, "position", counted)
    crv = kite()
    for x1 in np.linspace(-1.0, 1.0, 50):
        point_inside(crv, (x1, 0.1))
    assert sizes == [2048]
    point_inside(crv, (0.0, 0.0), samples=512)
    point_inside(crv, (0.5, 0.0), samples=512)
    assert sizes == [2048, 512]
    point_inside(kite(), (0.0, 0.0))  # a new curve builds its own
    assert sizes == [2048, 512, 2048]


def test_coefficients_are_read_only():
    cos1 = np.array([-0.65, 1.0, 0.65])
    crv = Curve2D("kite", cos1, [0.0], [0.0], [0.0, 1.5])
    for name in ("cos1", "sin1", "cos2", "sin2"):
        with pytest.raises(ValueError):
            getattr(crv, name)[0] = 1.0
    cos1[0] = 0.0  # the caller's table stays its own
    assert crv.cos1[0] == -0.65


def test_curve_grid_layout():
    g = curve_grid(kite(), 8)
    assert g.position.shape == (8, 2)
    t = periodic_nodes(8)
    assert_allclose(t, -np.pi + 2*np.pi*np.arange(8)/8, atol=1e-15)
    assert_allclose(g.position[0], curve_eval(kite(), -np.pi).position,
                    atol=1e-14)


def test_curve_grid_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        curve_grid(kite(), 7)
    with pytest.raises(ValueError):
        curve_grid(kite(), 2)


def test_degenerate_curve_rejected():
    flat = fourier_custom([0.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        curve_eval(flat, 0.5)


def test_load_curve_round_trip(tmp_path):
    path = tmp_path/"curve.json"
    import json
    spec = {"cos1": [0.0, 1.0], "sin1": [0.0],
            "cos2": [0.0], "sin2": [0.0, 1.0]}
    path.write_text(json.dumps(spec))
    crv = load_curve(str(path))
    p = curve_eval(crv, 0.7)
    assert_allclose(p.position, [np.cos(0.7), np.sin(0.7)], atol=1e-14)

import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval.geometry3d import (Surface3D, custom_radial, direction,
                                  direction_angles, mushroom, rotated_frame,
                                  rotation_matrix, surface_point_and_normal,
                                  unit_sphere)
from closeeval.spectral import mapped_rule, periodic_nodes

from references import rotated_angles

SURFACES = {"sphere": unit_sphere(), "mushroom": mushroom()}


def _pushed_cross(surface, d, e1, e2):
    # position and orient*(y_1 x y_2) from the pushed-forward tangents
    # y_i = P'(d_3) (e_i)_3 S d + P S e_i of a tangent pair (e1, e2) of the
    # unit sphere at d, with S = diag(axes)
    P = surface.profile(d[..., 2])[..., None]
    dP = surface.profile_prime(d[..., 2])[..., None]
    Sd = surface.axes*d

    def push(e):
        return dP*e[..., 2:3]*Sd + P*(surface.axes*e)

    return P*Sd, surface.orient*np.cross(push(e1), push(e2))


def _unrotated_frame(surface, theta, phi):
    # the grid about the pole (0, 0) is the unrotated (theta, phi) grid
    return rotated_frame(surface, 0.0, 0.0, theta, phi)


def test_sphere_anchor_points():
    y, nu = surface_point_and_normal(unit_sphere(), np.pi/2, 0.0)
    assert_allclose(y, [1.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(nu, [1.0, 0.0, 0.0], atol=1e-15)
    _, area_normal, _ = _unrotated_frame(unit_sphere(), np.pi/2, 0.0)
    assert_allclose(np.linalg.norm(area_normal), 1.0, atol=1e-15)


def test_mushroom_anchor_points():
    # equator: profile(0) = 2 - 1/101, stretched by 2 along the second axis
    P0 = 2.0 - 1.0/101.0
    y, _ = surface_point_and_normal(mushroom(), np.pi/2, np.pi/2)
    assert_allclose(y, [0.0, 2*P0, 0.0], atol=1e-13)
    # dimple center: profile(1) = 1 exactly
    y, nu = surface_point_and_normal(mushroom(), 0.0, 0.0)
    assert_allclose(y, [0.0, 0.0, 1.0], atol=1e-15)
    assert_allclose(nu, [0.0, 0.0, 1.0], atol=1e-12)
    # opposite pole: profile(-1) = 2 - 1/401
    y, nu = surface_point_and_normal(mushroom(), np.pi, 0.0)
    assert_allclose(y, [0.0, 0.0, -(2.0 - 1.0/401.0)], atol=1e-14)
    assert_allclose(nu, [0.0, 0.0, -1.0], atol=1e-12)


def test_rotation_matrix_basics():
    assert_allclose(rotation_matrix(0.0, 0.0), np.eye(3), atol=1e-15)
    R = rotation_matrix(np.pi/2, 0.0)
    assert_allclose(R, [[0, 0, 1], [0, 1, 0], [-1, 0, 0]], atol=1e-15)


@pytest.mark.parametrize("theta,phi", [(0.7, -2.1), (2.9, 0.4), (1.5708, 3.1)])
def test_rotation_matrix_proper_orthogonal(theta, phi):
    R = rotation_matrix(theta, phi)
    assert_allclose(R.T @ R, np.eye(3), atol=1e-14)
    assert_allclose(np.linalg.det(R), 1.0, atol=1e-14)
    assert_allclose(R[:, 2], direction(theta, phi), atol=1e-14)


def test_rotated_angles_pole_and_antipode():
    # s = 0 lands on the chosen pole itself
    th, ph = rotated_angles(0.0, 1.234, 0.8, -0.5)
    assert_allclose([th, ph], [0.8, -0.5], atol=1e-14)
    # s = pi/2, t = 0 from the pole (pi/2, 0) reaches the south pole
    th, ph = rotated_angles(np.pi/2, 0.0, np.pi/2, 0.0)
    assert_allclose(th, np.pi, atol=1e-14)


def test_rotated_angles_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        s, t = rng.uniform(0.05, np.pi - 0.05), rng.uniform(-np.pi, np.pi)
        ts, ps = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
        th, ph = rotated_angles(s, t, ts, ps)
        R = rotation_matrix(ts, ps)
        assert_allclose(direction(th, ph), R @ direction(s, t), atol=1e-12)
        assert 0 <= th <= np.pi


def test_rotated_angles_broadcasts():
    s = np.linspace(0.1, 3.0, 5)[:, None]
    t = periodic_nodes(8)
    th, ph = rotated_angles(s, t, 0.9, 0.2)
    assert th.shape == (5, 8) and ph.shape == (5, 8)


def _patch_area(surface, n_polar=32, n_azimuth=64):
    rule = mapped_rule(n_polar)
    t = periodic_nodes(n_azimuth)
    _, area_normal, _ = _unrotated_frame(surface, rule.nodes[:, None],
                                         t[None, :])
    W = np.linalg.norm(area_normal, axis=-1)
    return (2*np.pi/n_azimuth)*np.sum(rule.weights @ W)


def test_sphere_area():
    assert_allclose(_patch_area(unit_sphere()), 4*np.pi, rtol=1e-12)


def test_stretched_sphere_volume_via_divergence():
    # axes (1, 2, 1) triple the enclosed volume; divergence theorem:
    # 3V = integral of y . nu dA
    surf = custom_radial(lambda c: np.ones_like(np.asarray(c, float)),
                         lambda c: np.zeros_like(np.asarray(c, float)),
                         axes=(1.0, 2.0, 1.0))
    rule = mapped_rule(48)
    t = periodic_nodes(96)
    y, area_normal, _ = _unrotated_frame(surf, rule.nodes[:, None],
                                         t[None, :])
    flux = np.sum(y*area_normal, axis=-1)
    vol = (2*np.pi/96)*np.sum(rule.weights @ flux)/3.0
    assert_allclose(vol, 2*(4*np.pi/3), rtol=1e-10)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_normals_point_outward(name):
    surf = SURFACES[name]
    rule = mapped_rule(6)
    for th in rule.nodes:
        for ph in periodic_nodes(6):
            y, nu = surface_point_and_normal(surf, th, ph)
            assert surf.contains(y - 1e-4*nu)
            assert not surf.contains(y + 1e-4*nu)


def test_contains_reference_points():
    assert unit_sphere().contains((0.5, 0.0, 0.0))
    assert not unit_sphere().contains((1.5, 0.0, 0.0))
    m = mushroom()
    assert m.contains((0.0, 0.0, 0.0))
    assert m.contains((0.0, 2.5, 0.0))  # stretched axis reaches ~3.98
    assert not m.contains((0.0, 4.1, 0.0))
    # the dimple: radius 1 at the north pole, ~2 at the south pole
    assert m.contains((0.0, 0.0, 0.9))
    assert not m.contains((0.0, 0.0, 1.5))
    assert m.contains((0.0, 0.0, -1.5))
    assert not m.contains((5.0, 4.0, 3.0))  # the exterior source point


def test_rotated_frame_has_zero_area_at_its_pole():
    # the node s = 0 of the unrotated grid is the parameter pole
    y, area_normal, _ = _unrotated_frame(unit_sphere(), 0.0, 0.0)
    assert_allclose(y, [0.0, 0.0, 1.0], atol=1e-15)
    assert_allclose(np.linalg.norm(area_normal), 0.0, atol=1e-15)


def test_point_and_normal_is_pole_safe():
    for ts, ps in [(0.0, 0.0), (np.pi, 1.0), (0.3, -2.0)]:
        y, nu = surface_point_and_normal(unit_sphere(), ts, ps)
        assert_allclose(y, direction(ts, ps), atol=1e-14)
        assert_allclose(nu, direction(ts, ps), atol=1e-12)
        assert_allclose(np.linalg.norm(nu), 1.0, atol=1e-13)


def test_rotated_frame_shapes_and_area():
    rule = mapped_rule(24)
    t = periodic_nodes(48)
    y, area_normal, d = rotated_frame(unit_sphere(), 0.9, 0.4,
                                      rule.nodes[:, None], t[None, :])
    assert y.shape == (24, 48, 3) and area_normal.shape == (24, 48, 3)
    assert d.shape == (24, 48, 3)
    W = np.linalg.norm(area_normal, axis=-1)
    area = (2*np.pi/48)*np.sum(rule.weights @ W)
    assert_allclose(area, 4*np.pi, rtol=1e-12)
    # on the sphere the rotated position is its own normal, and the angles
    # of the reported directions re-synthesize it
    assert_allclose(area_normal/W[..., None], y, atol=1e-13)
    assert_allclose(direction(*direction_angles(d, 0.4)), y, atol=1e-12)


@pytest.mark.parametrize("surface", [
    mushroom(), custom_radial(lambda c: 1.5 + 0.3*c**3,
                              lambda c: 0.9*c**2, axes=(0.7, 1.0, 1.8))])
def test_area_normal_is_the_cross_product_of_the_pushed_tangents(surface):
    # the closed form against orient*(y_1 x y_2) = W*nu from the pushed
    # forward pair, for random tangent pairs of either handedness
    rng = np.random.default_rng(3)
    d = direction(np.arccos(rng.uniform(-1, 1, 50)),
                  rng.uniform(-np.pi, np.pi, 50))
    e1, e2 = (a - np.sum(a*d, axis=-1, keepdims=True)*d
              for a in rng.standard_normal((2, 50, 3)))
    jacobian = np.sum(np.cross(e1, e2)*d, axis=-1)
    y, area_normal = surface.area_normal(d, jacobian)
    y_ref, area_normal_ref = _pushed_cross(surface, d, e1, e2)
    assert_allclose(y, y_ref, rtol=0, atol=1e-15)
    assert_allclose(area_normal, area_normal_ref, rtol=0, atol=1e-13)


def test_rotated_frame_matches_rotated_angles():
    rule = mapped_rule(8)
    t = periodic_nodes(8)
    _, _, d = rotated_frame(mushroom(), 1.1, -0.7,
                            rule.nodes[:, None], t[None, :])
    th, ph = direction_angles(d, -0.7)
    th2, ph2 = rotated_angles(rule.nodes[:, None], t[None, :], 1.1, -0.7)
    assert_allclose(th, th2, atol=1e-12)
    wrapped = np.mod(ph - ph2 + np.pi, 2*np.pi) - np.pi
    assert_allclose(wrapped, 0.0, atol=1e-12)


# rows of a stack, poles included
STACKED_POLES = (np.array([0.0, 0.7, np.pi, 2.2, 1.5]),
                 np.array([0.4, -2.1, 1.0, 3.1, np.pi]))


def test_stacked_rotation_matrix_matches_scalar_calls():
    R = rotation_matrix(*STACKED_POLES)
    assert R.shape == (5, 3, 3)
    for r, (ts, ps) in enumerate(zip(*STACKED_POLES)):
        assert_allclose(R[r], rotation_matrix(ts, ps), rtol=0, atol=1e-15)


def test_stacked_point_and_normal_matches_scalar_calls():
    y, nu = surface_point_and_normal(mushroom(), *STACKED_POLES)
    assert y.shape == nu.shape == (5, 3)
    for r, (ts, ps) in enumerate(zip(*STACKED_POLES)):
        y1, nu1 = surface_point_and_normal(mushroom(), ts, ps)
        assert_allclose(y[r], y1, rtol=0, atol=1e-15)
        assert_allclose(nu[r], nu1, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_point_and_normal_matches_the_pushed_tangents(name):
    # the rotation frame's (u, v) pushed forward, poles included
    surface = SURFACES[name]
    R = rotation_matrix(*STACKED_POLES)
    y_ref, cross = _pushed_cross(surface, R[..., 2], R[..., 0], R[..., 1])
    y, nu = surface_point_and_normal(surface, *STACKED_POLES)
    assert_allclose(y, y_ref, rtol=0, atol=1e-15)
    assert_allclose(nu, cross/np.linalg.norm(cross, axis=-1, keepdims=True),
                    rtol=0, atol=1e-15)


def test_stacked_rotated_frame_matches_scalar_calls():
    rule = mapped_rule(8)
    s, t = rule.nodes[:, None], periodic_nodes(16)[None, :]
    stacked = rotated_frame(mushroom(), *STACKED_POLES, s, t)
    assert stacked[0].shape == stacked[1].shape == (5, 8, 16, 3)
    assert stacked[2].shape == (5, 8, 16, 3)
    for r, (ts, ps) in enumerate(zip(*STACKED_POLES)):
        for got, ref in zip(stacked, rotated_frame(mushroom(), ts, ps, s, t)):
            assert_allclose(got[r], ref, rtol=0, atol=1e-15)


def test_stacked_point_and_normal_raises_on_one_degenerate_frame():
    # the profile 1 - c vanishes at the north pole, where the frame's two
    # pushed-forward tangents are parallel; custom_radial rejects it, so
    # the surface is built directly
    cone = Surface3D("cone", lambda c: 1.0 - c, lambda c: -np.ones_like(c),
                     np.ones(3))
    surface_point_and_normal(cone, np.array([0.5, 2.0]), np.zeros(2))
    with pytest.raises(ValueError):
        surface_point_and_normal(cone, np.array([0.5, 0.0, 2.0]),
                                 np.zeros(3))


def test_custom_radial_validation():
    one = lambda c: np.ones_like(np.asarray(c, float))
    zero = lambda c: np.zeros_like(np.asarray(c, float))
    with pytest.raises(ValueError):
        custom_radial(one, zero, axes=(1.0, -1.0, 1.0))


@pytest.mark.parametrize("profile", [
    lambda c: 1.0 - c,                          # vanishes at c = 1
    lambda c: 1.0 + c,                          # vanishes at c = -1
    lambda c: 0.5 - c*c,                        # negative near the poles
    lambda c: 1.0/(c - 0.5),                    # infinite at c = 0.5
    lambda c: np.sqrt(c + 0.5),                 # NaN for c < -0.5
])
def test_custom_radial_rejects_a_profile_that_is_not_positive(profile):
    with pytest.raises(ValueError, match="positive"):
        custom_radial(profile, lambda c: np.zeros_like(c))

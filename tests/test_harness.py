import functools
import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import spectral
from closeeval.bie2d import (MAX_NODES, dirichlet_data, harmonic_source,
                             solve_density)
from closeeval.closeeval2d import (CloseEvalRequest2D, asym_eps2, asym_eps3,
                                   dlp_ptr, dlp_subtraction)
from closeeval.geometry2d import kite
from closeeval.harness import (METHODS_2D, METHODS_3D, PROBLEMS_2D,
                               PROBLEMS_3D, ConfigError,
                               InsufficientDataError,
                               NumericalError, StudyConfig, apply_overrides,
                               config_from_dict, eps_grid, fit_order,
                               fit_results, load_config, parse_eps_range,
                               read_results_csv, run_error_map, run_hg_study,
                               write_outputs, _targets_2d)
from closeeval.hgscatter import IntensityField, apply_L_direct

EPS_2D = eps_grid(1e-5, 0.5, 5)
TARGETS_2D = (5*np.pi/4, np.pi/4)


def _kite_config(**kw):
    base = dict(problem="2d-kite", n=128, methods=("ptr", "sub", "asym2",
                                                   "asym3"),
                eps=EPS_2D, targets=TARGETS_2D)
    base.update(kw)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def kite_result():
    return run_error_map(_kite_config())


def test_eps_grid_layout():
    g = eps_grid(1e-3, 1e-1, 2)
    assert len(g) == 5
    assert g[0] == pytest.approx(1e-1) and g[-1] == pytest.approx(1e-3)
    assert all(a > b for a, b in zip(g, g[1:]))


def test_eps_grid_validation():
    with pytest.raises(ConfigError):
        eps_grid(1e-1, 1e-3, 5)
    with pytest.raises(ConfigError):
        eps_grid(0.0, 1e-1, 5)
    with pytest.raises(ConfigError):
        eps_grid(1e-3, 1e-1, 0)


def test_parse_eps_range():
    g = parse_eps_range("1e-6:1e-1:25")
    assert len(g) == 126
    assert g[0] == pytest.approx(1e-1) and g[-1] == pytest.approx(1e-6)
    for bad in ("1:2", "a:b:3", "1e-3:1e-1:x"):
        with pytest.raises(ConfigError):
            parse_eps_range(bad)


def test_config_validation():
    with pytest.raises(ConfigError):
        _kite_config(problem="2d-triangle")
    with pytest.raises(ConfigError):
        _kite_config(methods=())
    with pytest.raises(ConfigError):
        _kite_config(methods=("ptr", "bogus"))
    with pytest.raises(ConfigError):
        _kite_config(methods=("numerical",))  # 3D-only method
    with pytest.raises(ConfigError):
        _kite_config(n=2)
    with pytest.raises(ConfigError):
        _kite_config(n=MAX_NODES + 2)
    assert _kite_config(n=MAX_NODES).n == MAX_NODES
    with pytest.raises(ConfigError):
        _kite_config(ell=0.0)
    with pytest.raises(ConfigError):
        _kite_config(eps=(1e-3, 1e-2))  # ascending
    with pytest.raises(ConfigError):
        _kite_config(eps=(1e-2, 0.0))
    with pytest.raises(ConfigError):
        _kite_config(fit_lo=1e-2, fit_hi=1e-4)
    with pytest.raises(ConfigError):
        _kite_config(fit_lo=float("nan"))
    with pytest.raises(ConfigError):
        _kite_config(targets=(0.5, float("inf")))


def test_config_defaults_per_family():
    c2 = _kite_config(eps=())
    assert c2.fit_lo == 1e-6 and c2.fit_hi == 1e-2
    assert len(c2.eps) == 126  # five decades at 25 per decade
    c3 = StudyConfig(problem="3d-sphere", n=8, methods=("numerical",))
    assert c3.fit_lo == 1e-4 and c3.fit_hi == 1e-1
    assert c3.eps[0] == pytest.approx(1e-1)
    chg = StudyConfig(problem="hg", n=8, hg_field=((1, 0, 1.0, 0.0),))
    assert chg.fit_lo == 1e-3 and chg.fit_hi == 1e-1


@pytest.mark.parametrize("problem", PROBLEMS_2D + PROBLEMS_3D + ("hg",))
def test_config_from_dict_defaults_are_study_config_defaults(problem):
    c = config_from_dict({"problem": problem})
    assert c == StudyConfig(problem=problem)
    assert c.n == (128 if problem in PROBLEMS_2D else 16)
    assert c.methods == (METHODS_2D if problem in PROBLEMS_2D else
                         METHODS_3D if problem in PROBLEMS_3D else
                         ("hg_asym",))


def test_config_from_dict_minimal():
    c = config_from_dict({"problem": "2d-kite"})
    assert c.n == 128
    assert c.methods == ("ptr", "sub", "asym2", "asym3")
    assert c.targets == "all-nodes"


def test_config_from_dict_rejections():
    with pytest.raises(ConfigError):
        config_from_dict({"problem": "2d-kite", "mystery": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"n": 64})
    with pytest.raises(ConfigError):
        config_from_dict({"problem": "2d-kite", "eps": [1e-2],
                          "eps_range": "1e-3:1e-1:5"})
    with pytest.raises(ConfigError):
        config_from_dict({"problem": "2d-kite", "eps": ["abc"]})
    with pytest.raises(ConfigError):
        config_from_dict({"problem": "2d-kite", "eps_range": 7})
    with pytest.raises(ConfigError):
        config_from_dict({"problem": "2d-kite",
                          "eps_range": {"lo": 1e-3, "hi": 1e-1}})


def test_config_from_dict_eps_forms():
    c = config_from_dict({"problem": "2d-kite", "eps": [1e-3, 1e-1, 1e-2]})
    assert c.eps == (1e-1, 1e-2, 1e-3)  # sorted descending
    c = config_from_dict({"problem": "2d-kite",
                          "eps_range": {"lo": 1e-2, "hi": 1e-1,
                                        "per_decade": 3}})
    assert len(c.eps) == 4
    c = config_from_dict({"problem": "2d-kite", "eps_range": "1e-2:1e-1:3"})
    assert len(c.eps) == 4


def test_config_from_dict_targets():
    c = config_from_dict({"problem": "2d-kite", "targets": [0.7853, 3.9269]})
    assert c.targets == (0.7853, 3.9269)
    c = config_from_dict({"problem": "3d-sphere",
                          "targets": ["x1x3-slice", [0.9, 0.4]]})
    assert c.targets == ("x1x3-slice", (0.9, 0.4))
    with pytest.raises(ConfigError):
        config_from_dict({"problem": "2d-kite", "targets": [None]})


def test_load_config(tmp_path):
    path = tmp_path/"study.json"
    path.write_text(json.dumps({"problem": "2d-star", "n": 64,
                                "targets": [0.7853981633974483]}))
    c = load_config(str(path))
    assert c.problem == "2d-star" and c.n == 64
    with pytest.raises(ConfigError):
        load_config(str(tmp_path/"missing.json"))
    bad = tmp_path/"bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_apply_overrides():
    c = _kite_config()
    c2 = apply_overrides(c, n=128, eps_range="1e-3:1e-1:5",
                         methods="ptr, sub", out="/tmp/x", cache="/tmp/c")
    assert c2.n == 128 and len(c2.eps) == 11
    assert c2.methods == ("ptr", "sub")
    assert c2.out_dir == "/tmp/x" and c2.cache_dir == "/tmp/c"
    assert apply_overrides(c) is c
    with pytest.raises(ConfigError):
        apply_overrides(c, methods="bogus")


def test_fit_order_synthetic():
    eps = np.logspace(-5, -1, 21)
    f = fit_order(eps, eps**2, "sub")
    assert abs(f.slope - 2.0) < 1e-10
    assert f.n_points == 16  # points inside the default window


def test_fit_order_floor_filtering():
    eps = np.logspace(-5, -2, 16)
    err = 1e-3*eps**3
    # asym methods drop sub-floor errors; slope still comes out right
    err_floored = np.where(err < 1e-14, 1e-16, err)
    f = fit_order(eps, err_floored, "asym3", lo=1e-6, hi=1e-2)
    assert abs(f.slope - 3.0) < 1e-6
    assert f.n_points == np.count_nonzero(err >= 1e-14)


def test_fit_order_insufficient_points():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    with pytest.raises(InsufficientDataError):
        fit_order(eps, eps**2, "sub", lo=1e-3, hi=1e-1)
    with pytest.raises(ValueError):
        fit_order(eps, eps[:2], "sub")


def test_insufficient_is_numerical_error():
    assert issubclass(InsufficientDataError, NumericalError)


def test_run_error_map_row_accounting(kite_result):
    res = kite_result
    c = res.config
    total = len(c.eps)*len(c.methods)*2  # two targets
    assert len(res.rows) + len(res.rejections) == total
    assert all(r.abs_error == abs(r.value - r.exact) for r in res.rows)


def test_run_targets_snap_to_grid_nodes(kite_result):
    labels = sorted({r.target for r in kite_result.rows})
    # 5*pi/4 snaps to the grid node -3*pi/4; pi/4 is itself a node
    assert labels == [repr(-3*np.pi/4), repr(np.pi/4)]


def test_run_fits_recover_known_orders(kite_result):
    lbl = repr(np.pi/4)
    assert abs(kite_result.fit_for(lbl, "sub").slope - 1.0) < 0.15
    assert abs(kite_result.fit_for(lbl, "asym2").slope - 2.0) < 0.15
    assert abs(kite_result.fit_for(lbl, "asym3").slope - 3.0) < 0.15


def test_errors_for_ordering(kite_result):
    eps, err = kite_result.errors_for(repr(np.pi/4), "sub")
    assert len(eps) == len(kite_result.config.eps)
    assert all(a > b for a, b in zip(eps, eps[1:]))
    with pytest.raises(KeyError):
        kite_result.fit_for("nowhere", "sub")


def test_rejections_recorded_not_fatal():
    cfg = _kite_config(eps=(3.0,) + EPS_2D)
    res = run_error_map(cfg)
    assert res.rejections
    assert all(rej.eps == 3.0 for rej in res.rejections)
    assert all("outside" in rej.reason for rej in res.rejections)
    total = len(cfg.eps)*len(cfg.methods)*2
    assert len(res.rows) + len(res.rejections) == total


def test_2d_sweep_equals_per_request_methods():
    cfg = _kite_config(n=64, eps=(3.0, 1.2, 0.7) + EPS_2D)
    res = run_error_map(cfg)
    density = solve_density(kite(), dirichlet_data(kite(), cfg.x0, cfg.n),
                            cfg.n)
    methods = {"ptr": dlp_ptr, "sub": dlp_subtraction, "asym2": asym_eps2,
               "asym3": asym_eps3}
    rows, rejections = [], []
    for label, k in _targets_2d(cfg, cfg.n):
        for eps in cfg.eps:
            try:
                req = CloseEvalRequest2D(density, k, eps, cfg.ell)
            except ValueError as exc:
                rejections += [(label, eps, m, str(exc)) for m in cfg.methods]
                continue
            exact = float(harmonic_source(req.point(), cfg.x0))
            for m in cfg.methods:
                value = methods[m](req)
                rows.append((label, eps, m, value, exact, abs(value - exact)))
    assert rejections and len(rows) > 2*len(cfg.methods)
    assert [(r.target, r.eps, r.method, r.value, r.exact, r.abs_error)
            for r in res.rows] == rows
    assert [(r.target, r.eps, r.method, r.reason)
            for r in res.rejections] == rejections


def test_string_targets_rejected_for_2d():
    with pytest.raises(ConfigError):
        run_error_map(_kite_config(targets=("x1x3-slice",)))


def test_hg_requires_run_hg_study():
    cfg = StudyConfig(problem="hg", n=8, hg_field=((1, 0, 1.0, 0.0),))
    with pytest.raises(ConfigError):
        run_error_map(cfg)
    with pytest.raises(ConfigError):
        run_hg_study(_kite_config())


def test_run_hg_study_slope_and_rejections():
    cfg = StudyConfig(problem="hg", n=8,
                      hg_field=((3, 1, 1.0, 0.0), (1, 0, 0.5, 0.0)),
                      eps=(0.7,) + tuple(np.logspace(-1, -3, 11)))
    res = run_hg_study(cfg)
    assert [r.method for r in res.rows] == ["hg_asym"]*11
    assert len(res.rejections) == 1 and res.rejections[0].eps == 0.7
    assert abs(res.fit_for("hg", "hg_asym").slope - 3.0) < 0.3


def _real_hg_field(rng, degree):
    # [n, m, re, im] rows with c_{n,-m} = (-1)^m conj(c_nm)
    rows = []
    for n in range(degree + 1):
        rows.append((n, 0, rng.normal(), 0.0))
        for m in range(1, n + 1):
            re, im = rng.normal(), rng.normal()
            rows += [(n, m, re, im), (n, -m, (-1)**m*re, -(-1)**m*im)]
    return tuple(rows)


def test_run_hg_study_exact_matches_quadrature():
    # the closed-form exact column against the independent quadrature; eps
    # in [1e-2, 1e-1] keeps every polar rule at or below 1024 nodes
    rows = _real_hg_field(np.random.default_rng(5), 6)
    omega = (1.3, -0.4)
    res = run_hg_study(StudyConfig(problem="hg", n=8, hg_field=rows,
                                   hg_omega=omega,
                                   eps=tuple(eps_grid(1e-2, 1e-1, 10))))
    coeffs = spectral.SphericalCoeffs.zeros(7)
    for n, m, re, im in rows:
        coeffs.c[spectral.SphericalCoeffs.index(n, m)] = re + 1j*im
    psi = IntensityField(coeffs)
    assert len(res.rows) == 11
    for row in res.rows:
        direct = apply_L_direct(psi, omega, 1.0 - row.eps)
        assert abs(row.exact - direct) <= 1e-13, row.eps


def test_run_hg_study_builds_no_large_rule(monkeypatch):
    built = []

    def counted(n):
        built.append(n)
        return roots(n)

    roots = spectral.roots_legendre
    monkeypatch.setattr(spectral, "roots_legendre", counted)
    # an empty rule cache of its own, so every rule the study uses is built
    monkeypatch.setattr(spectral, "_gl_cached", functools.lru_cache(
        maxsize=128)(spectral._gl_cached.__wrapped__))
    rows = _real_hg_field(np.random.default_rng(6), 6)
    res = run_hg_study(StudyConfig(problem="hg", n=8, hg_field=rows,
                                   eps=tuple(eps_grid(1e-3, 1e-1, 25))))
    assert len(res.rows) == 51
    # only the L32 rule: the exact column comes from the eigen-action
    assert max(built, default=0) <= 64


def test_hg_field_validation():
    with pytest.raises(ConfigError):
        run_hg_study(StudyConfig(problem="hg", n=8))
    with pytest.raises(ConfigError):
        run_hg_study(StudyConfig(problem="hg", n=8,
                                 hg_field=((1, 5, 1.0, 0.0),)))
    with pytest.raises(ConfigError):  # one large eps keeps any rule small
        run_hg_study(StudyConfig(problem="hg", n=8, eps=(0.1,),
                                 hg_field=((33, 0, 1.0, 0.0),)))


def test_write_outputs_deterministic(tmp_path, kite_result):
    pairs = []
    for sub in ("a", "b"):
        cfg = _kite_config(eps=(3.0,) + EPS_2D, out_dir=str(tmp_path/sub))
        res = run_error_map(cfg)
        paths = write_outputs(res)
        pairs.append(paths)
    for key in ("results", "fits", "plot", "rejections"):
        with open(pairs[0][key], "rb") as fa, open(pairs[1][key], "rb") as fb:
            assert fa.read() == fb.read()


def test_outputs_written_once_by_run(tmp_path):
    out = tmp_path/"study"
    cfg = _kite_config(out_dir=str(out))
    run_error_map(cfg)
    assert sorted(os.listdir(out)) == ["fits.json", "plot.gp", "results.csv"]
    with open(out/"fits.json") as fh:
        fits = json.load(fh)["fits"]
    assert {f["method"] for f in fits} <= {"ptr", "sub", "asym2", "asym3"}
    with open(out/"plot.gp") as fh:
        assert "set logscale xy" in fh.read()


def test_results_csv_round_trip(tmp_path, kite_result):
    cfg = _kite_config(out_dir=str(tmp_path))
    res = run_error_map(cfg)
    paths = write_outputs(res)
    rows = read_results_csv(paths["results"])
    assert len(rows) == len(res.rows)
    assert set(rows) == set(res.rows)
    refit = {(f.target, f.method): f.slope
             for f in fit_results(rows, lo=cfg.fit_lo, hi=cfg.fit_hi)}
    for f in res.fits:
        assert_allclose(refit[(f.target, f.method)], f.slope, atol=1e-12)


def test_read_results_csv_validation(tmp_path):
    bad = tmp_path/"x.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(ConfigError):
        read_results_csv(str(bad))
    bad.write_text("target_param,eps,method,value,exact,abs_error\n1,2\n")
    with pytest.raises(ConfigError):
        read_results_csv(str(bad))
    with pytest.raises(ConfigError):
        read_results_csv(str(tmp_path/"missing.csv"))


def test_3d_sweep_with_cache(tmp_path):
    cache = tmp_path/"cache"
    cfg = StudyConfig(problem="3d-sphere", n=8,
                      methods=("numerical", "asym2"),
                      eps=(1e-1, 1e-2, 1e-3),
                      targets=((0.9, 0.4),), cache_dir=str(cache))
    res1 = run_error_map(cfg)
    cached = list(cache.glob("density_*.json"))
    assert len(cached) == 1
    res2 = run_error_map(cfg)
    assert res1.rows == res2.rows
    label = f"{0.9!r};{0.4!r}"
    assert {r.target for r in res1.rows} == {label}
    for r in res1.rows:
        assert r.abs_error < 1e-4


def test_3d_sweep_rejects_points_outside():
    cfg = StudyConfig(problem="3d-sphere", n=8,
                      methods=("numerical", "asym2"),
                      eps=(2.5, 1e-1, 1e-2), targets=((0.9, 0.4),))
    res = run_error_map(cfg)
    assert sorted(r.method for r in res.rejections) == ["asym2", "numerical"]
    assert all(r.eps == 2.5 for r in res.rejections)
    assert all("outside" in r.reason for r in res.rejections)
    assert sorted((r.eps, r.method) for r in res.rows) == [
        (1e-2, "asym2"), (1e-2, "numerical"),
        (1e-1, "asym2"), (1e-1, "numerical")]


def test_3d_slice_targets():
    cfg = StudyConfig(problem="3d-sphere", n=8, methods=("asym2",),
                      eps=(1e-2,), slice_count=4)
    res = run_error_map(cfg)
    labels = {r.target for r in res.rows}
    assert len(labels) == 8
    assert all(l.startswith(("x1x3:", "x1x2:")) for l in labels)


def test_all_node_error_pattern_2d():
    # at eps = 1e-3 the plain rule is badly wrong somewhere on the kite
    # while the third-order form stays tight everywhere
    cfg = _kite_config(eps=(1e-3,), targets="all-nodes")
    res = run_error_map(cfg)
    ptr = [r.abs_error for r in res.rows if r.method == "ptr"]
    asym3 = [r.abs_error for r in res.rows if r.method == "asym3"]
    assert len(ptr) == len(asym3) == 128
    assert max(ptr) >= 1e-2
    assert max(asym3) <= 1e-9


def test_mushroom_slice_error_band():
    # the numerical method's error along the x1x3 slice sits in one
    # resolution-limited band rather than blowing up anywhere
    cfg = StudyConfig(problem="3d-mushroom", n=16, methods=("numerical",),
                      eps=(1e-2,), targets=("x1x3-slice",), slice_count=16)
    res = run_error_map(cfg)
    errs = np.array([r.abs_error for r in res.rows])
    assert errs.shape == (16,)
    assert errs.min() >= 1e-6 and errs.max() <= 1e-3
    assert errs.max()/errs.min() < 50

import functools
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from closeeval import harness, spectral
from closeeval.bie2d import (MAX_NODES, dirichlet_data, harmonic_source,
                             solve_density)
from closeeval.bie3d import SOLVER_REVISION
from closeeval.closeeval2d import (CloseEvalRequest2D, asym_eps2, asym_eps3,
                                   dlp_ptr, dlp_subtraction)
from closeeval.geometry2d import kite
from closeeval.geometry3d import Surface3D
from closeeval.harness import (METHODS_2D, METHODS_3D, PROBLEMS_2D,
                               PROBLEMS_3D, ConfigError,
                               InsufficientDataError,
                               NumericalError, StudyConfig, apply_overrides,
                               config_from_dict, eps_grid, fit_order,
                               fit_results, load_config, parse_eps_range,
                               ErrorStudyResult, read_results_csv,
                               run_error_map, run_hg_study, write_outputs,
                               _targets_2d)
from closeeval.hgscatter import IntensityField

from references import apply_L_direct

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


@pytest.mark.parametrize("config", [
    # 1.0 and 1.01 snap to one node at n = 64
    _kite_config(n=64, eps=eps_grid(1e-4, 1e-2, 3), targets=(1.0, 1.01)),
    # the second angle pair repeats the first
    StudyConfig(problem="3d-sphere", n=8, methods=("asym2",),
                eps=eps_grid(1e-4, 1e-2, 3),
                targets=((0.9, 0.4), (1.2, 0.3), (0.9, 0.4)))],
    ids=["2d", "3d"])
def test_targets_naming_one_point_are_evaluated_once(tmp_path, config):
    result = run_error_map(replace(config, out_dir=str(tmp_path)))
    labels = [b.target for b in result.blocks]
    assert len(labels) == len(set(labels)) == len(config.targets) - 1
    lines = (tmp_path/"results.csv").read_text().splitlines()[1:]
    assert len(lines) == len(set(lines)) == result.row_count
    assert result.row_count == len(labels)*len(config.eps)*len(config.methods)
    # each eps counts once (the asymptotic fits may floor a point)
    assert result.fits
    assert max(f.n_points for f in result.fits) == len(config.eps)


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
        return build(n)

    build = spectral._legendre_rule
    monkeypatch.setattr(spectral, "_legendre_rule", counted)
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


def test_interrupted_write_keeps_previous_outputs(tmp_path, kite_result,
                                                  monkeypatch):
    # a failure partway through results.csv leaves the file of the previous
    # run whole, and no temporary file beside it
    result = ErrorStudyResult(
        StudyConfig(**{**vars(kite_result.config), "out_dir": str(tmp_path)}),
        kite_result.blocks, kite_result.rejections, kite_result.fits)
    write_outputs(result)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []
    fmt_column = harness._fmt_column

    def failing(values):
        calls.append(len(values))
        if len(calls) == 15:
            raise OSError("No space left on device")
        return fmt_column(values)

    # a block formats eps and exact once, then value and abs_error per
    # method: the 15th column is inside the second target's block, after
    # the first block has been written
    monkeypatch.setattr(harness, "_fmt_column", failing)
    with pytest.raises(OSError):
        write_outputs(result)
    per_block = 2 + 2*len(result.config.methods)
    assert len(result.blocks) == 2 and per_block < len(calls) < 2*per_block
    assert len(result.rows) > 100
    assert len(result.blocks[0].eps)*len(result.config.methods) > 50
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def _row_by_row_outputs(result, out):
    """The writer that formatted results.csv one ResultRow at a time,
    kept as the reference the column writer must match byte for byte.
    Its fits come from fit_results over the rows."""
    fmt = lambda x: repr(float(x))
    os.makedirs(out)
    order = {}
    for r in result.rows + result.rejections:
        order.setdefault(r.target, len(order))
    rows = sorted(result.rows,
                  key=lambda r: (order[r.target], r.method, -r.eps))
    with open(os.path.join(out, "results.csv"), "w") as fh:
        fh.write(harness.CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([r.target, fmt(r.eps), r.method, fmt(r.value),
                               fmt(r.exact), fmt(r.abs_error)]) + "\n")
    fits = fit_results(result.rows, result.config.fit_lo,
                       result.config.fit_hi)
    fits.sort(key=lambda f: (order[f.target], f.method))
    with open(os.path.join(out, "fits.json"), "w") as fh:
        json.dump({"fits": [vars(f) for f in fits]}, fh, indent=2)
        fh.write("\n")
    if result.rejections:
        rej = sorted(result.rejections,
                     key=lambda r: (order[r.target], r.method, -r.eps))
        with open(os.path.join(out, "rejections.csv"), "w") as fh:
            fh.write("target_param,eps,method,reason\n")
            for r in rej:
                fh.write(",".join([r.target, fmt(r.eps), r.method,
                                   json.dumps(r.reason)]) + "\n")
    with open(os.path.join(out, "plot.gp"), "w") as fh:
        fh.write(harness._gnuplot_script(sorted({r.method
                                                 for r in result.rows})))


_WRITER_STUDIES = {
    # rejections at eps = 3; the last two targets snap to one node
    "2d-rejections": lambda: _kite_config(
        n=64, eps=(3.0,) + EPS_2D,
        targets=(5*np.pi/4, np.pi/4, np.pi/4 + 1e-3)),
    # 14 of the 64 nodes reject every eps
    "2d-all-rejected": lambda: _kite_config(n=64, eps=(3.0, 1.2, 0.7),
                                            targets="all-nodes"),
    # rejections at eps = 2.5 (3D) and 0.7 (hg)
    "3d-sphere": lambda: StudyConfig(
        problem="3d-sphere", n=8, eps=(2.5, 1e-1, 1e-2, 1e-3, 1e-4),
        targets=((0.9, 0.4), "x1x2-slice"), slice_count=3),
    "hg": lambda: StudyConfig(
        problem="hg", n=8, hg_field=((3, 1, 1.0, 0.0), (1, 0, 0.5, 0.0)),
        eps=(0.7,) + tuple(np.logspace(-1, -3, 11))),
}


@pytest.mark.parametrize("study", _WRITER_STUDIES)
def test_column_writer_matches_row_by_row_writer(tmp_path, study):
    cfg = replace(_WRITER_STUDIES[study](), out_dir=str(tmp_path/"columns"))
    run = run_hg_study if cfg.problem == "hg" else run_error_map
    result = run(cfg)
    assert result.rejections and result.row_count == len(result.rows) > 0
    _row_by_row_outputs(result, tmp_path/"rows")
    names = ["fits.json", "plot.gp", "rejections.csv", "results.csv"]
    for name in names:
        assert ((tmp_path/"columns"/name).read_bytes()
                == (tmp_path/"rows"/name).read_bytes()), name
    assert sorted(os.listdir(tmp_path/"columns")) == names


def test_all_node_study_holds_no_rows_or_file_in_memory(tmp_path):
    # the sweep keeps columns and results.csv is written one target at a
    # time.  At n = 200 the study peaks at 3.6 MiB of traced allocations;
    # with a ResultRow per row it peaked at 28.2 MiB, and the 10.1 MiB
    # results.csv held whole as one string would exceed the bound alone
    cfg = StudyConfig(problem="2d-kite", n=200, targets="all-nodes",
                      out_dir=str(tmp_path))
    tracemalloc.start()
    try:
        result = run_error_map(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8*2**20
    assert result.row_count > 90000


def test_3d_sweep_tests_each_point_once(monkeypatch):
    tested = []
    contains = Surface3D.contains

    def counted(self, x):
        tested.append(math.prod(np.shape(x)[:-1]))
        return contains(self, x)

    monkeypatch.setattr(Surface3D, "contains", counted)
    cfg = StudyConfig(problem="3d-sphere", n=8, eps=(2.5, 1e-1, 1e-2),
                      targets=((0.9, 0.4), (1.2, -0.3)))
    res = run_error_map(cfg)
    # the source check, then each target's three points once
    assert tested == [1, 3, 3]
    assert len(res.rejections) == 2*2 and res.row_count == 2*2*2


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


@pytest.mark.parametrize("record", [None, {"solver": 0}])
def test_3d_cache_file_from_another_solver_is_solved_again(tmp_path, record,
                                                          monkeypatch):
    # a complete, readable density file without the record of its problem,
    # source and solver revision (the format of earlier versions), or with
    # another revision, is a miss: the study re-solves and rewrites it
    cfg = StudyConfig(problem="3d-sphere", n=8, methods=("numerical",),
                      eps=(1e-1, 1e-2), targets=((0.9, 0.4),),
                      cache_dir=str(tmp_path))
    path = harness._density_cache_path(cfg)
    payload = {"N": 8, "coeffs": [[n, m, 1.0, 0.0] for n in range(8)
                                  for m in range(-n, n + 1)]}
    if record is not None:
        payload["record"] = dict(harness._density_record(cfg), **record)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    res = run_error_map(cfg)
    assert res.rows == run_error_map(replace(cfg, cache_dir=None)).rows
    with open(path) as fh:
        saved = json.load(fh)
    assert saved["record"] == {"problem": "3d-sphere",
                               "source": [5.0, 4.0, 3.0],
                               "solver": SOLVER_REVISION}
    assert saved["coeffs"] != payload["coeffs"]
    # the rewritten file is a hit
    monkeypatch.setattr(harness, "solve_density3d", None)
    assert run_error_map(cfg).rows == res.rows


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

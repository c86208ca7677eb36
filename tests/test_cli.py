import csv
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from closeeval import cli, harness, hgscatter
from closeeval.bie3d import Density3D
from closeeval.geometry3d import unit_sphere
from closeeval.harness import NumericalError

import references


def _write_config(tmp_path, payload, name="study.json"):
    path = tmp_path/name
    path.write_text(json.dumps(payload))
    return str(path)


def _kite_payload(out):
    return {"problem": "2d-kite", "n": 64,
            "targets": [0.7853981633974483],
            "eps_range": "1e-4:1e-2:5", "out": out}


def test_run_succeeds(tmp_path, capsys):
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, _kite_payload(str(out)))
    assert cli.main(["run", cfg]) == 0
    text = capsys.readouterr().out
    assert "rows: " in text and "rejections: 0" in text
    assert "method=sub" in text
    assert (out/"results.csv").exists()
    assert (out/"fits.json").exists()


def test_run_flag_overrides(tmp_path, capsys):
    cfg = _write_config(tmp_path, _kite_payload(None))
    out = tmp_path/"flagged"
    assert cli.main(["run", cfg, "--n", "64", "--methods", "ptr,sub",
                     "--eps-range", "1e-3:1e-2:4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "asym2" not in text
    assert (out/"results.csv").exists()
    with open(out/"results.csv") as fh:
        body = fh.read()
    assert "asym2" not in body and "ptr" in body


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"problem": "2d-dodecahedron"})
    assert cli.main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_missing_config_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path/"none.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("problem,n", [("3d-sphere", 97), ("2d-kite", 65),
                                       ("2d-kite", 14),
                                       ("2d-kite", 1000000)])
def test_run_unsupported_resolution_exits_2(tmp_path, capsys, problem, n):
    # beyond the Galerkin degree cap; an odd node count; too few nodes;
    # beyond the Nystrom node cap, checked before anything is allocated
    cfg = _write_config(tmp_path, {"problem": problem})
    assert cli.main(["run", cfg, "--n", str(n)]) == 2
    assert "resolution n" in capsys.readouterr().err


def test_run_nan_eps_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"problem": "2d-kite", "n": 64,
                                   "eps": [1e-2, float("nan"), 1e-3]})
    assert cli.main(["run", cfg]) == 2
    assert "eps values must be finite" in capsys.readouterr().err


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("payload", [
    {"problem": "2d-kite", "n": 128, "eps": [1e-300]},
    {"problem": "2d-star", "n": 128, "eps": [1e-300, 5e-324]},
    {"problem": "2d-kite", "n": 128, "targets": [-np.pi, 0.0, 1.0],
     "eps": [1e-100, 1e-300]},
])
def test_2d_point_that_rounds_onto_its_node_is_a_rejection(tmp_path,
                                                           payload):
    # y* - eps*nu* equal to y* in floating point lies on the boundary: it
    # is rejected, not evaluated as a 0/0 kernel sum (which wrote nan rows
    # and warned)
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, dict(payload, out=str(out)))
    assert cli.main(["run", cfg]) == 0
    rows = _csv_rows(out/"results.csv")
    rejected = _csv_rows(out/"rejections.csv")
    assert np.all(np.isfinite([float(r[c]) for r in rows
                               for c in ("value", "exact", "abs_error")]))
    # every (target, eps, method) is a row or a rejection, never both
    keys = [(r["target_param"], float(r["eps"]), r["method"])
            for r in rows + rejected]
    config = harness.load_config(cfg)
    assert sorted(keys) == sorted(
        (label, eps, m) for label, _ in harness._targets_2d(config)
        for eps in config.eps for m in config.methods)


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # a UnicodeDecodeError once escaped as a traceback
    cfg = tmp_path/"c.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", str(cfg)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ['{"N": 8, "coeffs": [[0, 0, 1.0',
                                     '{"N": 8, "coeffs": []}'])
def test_run_replaces_corrupt_density_cache(tmp_path, capsys, corrupt):
    cache = tmp_path/"cache"
    payload = {"problem": "3d-sphere", "n": 8, "targets": [[0.9, 0.4]],
               "eps_range": "1e-3:1e-1:2", "cache": str(cache)}
    cfg = _write_config(tmp_path, dict(payload, out=str(tmp_path/"a")))
    assert cli.main(["run", cfg]) == 0
    (path,) = cache.glob("density_*.json")
    path.write_text(corrupt)
    cfg = _write_config(tmp_path, dict(payload, out=str(tmp_path/"b")))
    assert cli.main(["run", cfg]) == 0
    assert Density3D.load(str(path), unit_sphere()).N == 8
    assert [p.name for p in cache.iterdir()] == [path.name]
    assert (tmp_path/"a"/"results.csv").read_text() \
        == (tmp_path/"b"/"results.csv").read_text()


_KITE = {"problem": "2d-kite", "n": 64, "targets": [0.7853981633974483],
         "eps_range": "1e-3:1e-2:2"}
_SPHERE = {"problem": "3d-sphere", "n": 8, "targets": [[0.9, 0.4]],
           "eps_range": "1e-3:1e-2:2"}
_HG = {"problem": "hg", "hg_field": [[1, 0, 1.0, 0.0]],
       "eps_range": "1e-3:1e-2:2"}
_KITE_EPS = {k: v for k, v in _KITE.items() if k != "eps_range"}


@pytest.mark.parametrize("command,payload", [
    ("run", dict(_KITE, x0=[1.0])),
    ("run", dict(_KITE, x0=[0, 0])),  # source inside the curve
    # |y - x0|^2 overflows: the boundary data are -inf, not a study of NaN
    ("run", dict(_KITE, x0=[1e200, 1e200])),
    ("run", dict(_SPHERE, source=[5, 4])),
    ("run", dict(_SPHERE, source=[0.1, 0, 0])),  # source inside
    ("run", dict(_SPHERE, source=[1, 0, 0])),  # on the surface
    ("run", dict(_SPHERE, source=[0, 0.6, 0.8])),
    # (1, 2, 1)*P(c)*d on the mushroom, P(0) = 2 - 1/101, d = (0, 1, 0)
    ("run", dict(_SPHERE, problem="3d-mushroom",
                 source=[0.0, 2*(2.0 - 1.0/101.0), 0.0])),
    ("hg", dict(_HG, hg_omega=[1.0])),
    ("hg", dict(_HG, hg_field=[[1, 0, "nan", 0.0]])),
    ("hg", dict(_HG, hg_field=5)),
    ("hg", dict(_HG, hg_field=[5])),
    # one large eps keeps the study small should the degree cap be missing
    ("hg", {"problem": "hg", "hg_field": [[33, 0, 1.0, 0.0]],
            "eps": [0.1]}),
    ("hg", {"problem": "hg", "eps": [0.1]}),  # no field
    # the L32 sum over degrees overflows: every value was -inf
    ("hg", {"problem": "hg", "hg_field": [[3, 0, 1e308, 0]],
            "eps": [0.1, 0.01, 0.001, 0.0001]}),
    # two rows of one (n, m) sum to an infinite coefficient
    ("hg", {"problem": "hg", "hg_field": [[3, 0, 1.7e308, 0]]*2,
            "eps": [0.1, 0.01, 0.001, 0.0001]}),
], ids=["x0-length", "x0-inside", "x0-overflow", "source-length",
        "source-inside", "source-on-sphere-axis", "source-on-sphere",
        "source-on-mushroom", "omega-length", "field-nan", "field-int",
        "field-row-int", "field-degree-33", "field-empty", "field-overflow",
        "field-sum-overflow"])
def test_bad_source_or_field_exits_2(tmp_path, capsys, command, payload):
    # whether refused when the config is loaded or by the study's setup,
    # the run leaves no output or cache directory, nor their parents
    flags = ["--out", str(tmp_path/"new"/"out")]
    if payload["problem"].startswith("3d"):
        flags += ["--cache", str(tmp_path/"new"/"cache")]
    cfg = _write_config(tmp_path, payload)
    assert cli.main([command, cfg, *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["study.json"]


def test_refused_setup_keeps_directories_that_existed(tmp_path, capsys):
    out = tmp_path/"out"
    out.mkdir()
    cfg = _write_config(tmp_path, dict(_SPHERE, source=[0.1, 0, 0]))
    assert cli.main(["run", cfg, "--out", str(out), "--cache",
                     str(out/"cache")]) == 2
    assert "config error" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


def test_far_3d_source_runs_without_a_warning(tmp_path, capsys):
    # |y - source| overflows to inf, so the data and the exact values are
    # exactly 0; numpy once warned of the overflow on the way
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, dict(_SPHERE, source=[1e200]*3,
                                       out=str(out)))
    assert cli.main(["run", cfg]) == 0
    rows = harness.read_results_csv(str(out/"results.csv"))
    assert rows and all(r.exact == 0.0 for r in rows)


@pytest.mark.parametrize("problem,far", [("3d-sphere", 1e300),
                                         ("3d-mushroom", 1e200)])
def test_far_3d_point_is_rejected_without_a_warning(tmp_path, capsys,
                                                    problem, far):
    # |x|^2 of the far point overflows, so its radius is inf and it is
    # outside; numpy once warned of the overflow on the way
    cfg = _write_config(tmp_path, {"problem": problem, "n": 8,
                                   "targets": [[1.0, 0.5]], "eps": [far, 0.1]})
    assert cli.main(["run", cfg]) == 0
    assert "rows: 2  rejections: 2" in capsys.readouterr().out


@pytest.mark.parametrize("payload,named", [
    (dict(_KITE, ell=1.0), "'ell'"),
    (dict(_KITE, eps_range={"lo": 1e-3, "hi": 1e-2, "per_decade": 2}),
     "string lo:hi:per-decade"),
    (dict(_KITE, fit_lo=1e-5), "'fit_lo'"),
    (dict(_HG, fit_hi=1e-2), "'fit_hi'"),
    (dict(_SPHERE, targets="x1x3-slice", slice_count=16), "'slice_count'"),
], ids=["ell", "eps-range-object", "fit_lo", "fit_hi", "slice_count"])
def test_deleted_input_form_exits_2(tmp_path, capsys, payload, named):
    # eps is the distance, so there is no ell scale; an eps range has one
    # spelling; the fit window is the family's, and a slice has 16 targets
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, dict(payload, out=str(out)))
    assert cli.main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not out.exists()


def test_readme_study_configs_run(tmp_path, capsys):
    readme = pathlib.Path(__file__).parents[1]/"README.md"
    configs = [json.loads(block) for block in re.findall(
        r"^```json\n(.*?)^```", readme.read_text(), re.M | re.S)]
    assert len(configs) == 3
    for i, config in enumerate(configs):
        flags = ["--out", str(tmp_path/f"out{i}")]
        if "cache" in config:
            flags += ["--cache", str(tmp_path/"cache")]
        cfg = _write_config(tmp_path, config, name=f"readme{i}.json")
        assert cli.main(["run", cfg, *flags]) == 0, config
        assert (tmp_path/f"out{i}"/"results.csv").exists()


@pytest.mark.parametrize("payload", [
    dict(_KITE, targets=[]),
    # slice_count is no config key: a slice has 16 targets
    dict(_SPHERE, targets="all-nodes", slice_count=0),
    dict(_SPHERE, targets="all-nodes", slice_count=-3),
], ids=["no-targets", "slice-count-0", "slice-count-negative"])
def test_empty_study_exits_2(tmp_path, capsys, payload):
    cfg = _write_config(tmp_path, payload)
    assert cli.main(["run", cfg, "--out", str(tmp_path/"out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    dict(_KITE, methods=5),
    dict(_KITE, methods=[]),
    dict(_KITE, eps_range="a:1:1"),
    dict(_KITE, n=float("inf")),
    dict(_KITE, targets=[float("nan")]),
    dict(_KITE, targets=[float("inf")]),
    dict(_SPHERE, targets=5),
    dict(_SPHERE, targets=[[float("inf"), 0.3]]),
    # fit_lo and slice_count are no config keys, whatever their value
    dict(_KITE, fit_lo=float("nan")),
    dict(_KITE, fit_lo=0),
    dict(_KITE, fit_lo=-1),
    dict(_KITE, out=5),
    dict(_KITE, n=64.7),
    dict(_KITE, n="64"),
    dict(_KITE, n=True),
    dict(_SPHERE, targets="all-nodes", slice_count=2.9),
    dict(_KITE, eps_range="1e-3:1e-2:2.5"),
    dict(_KITE, eps_range="1e-3:1e-2:two"),
    dict(_HG, hg_field=[[1.5, 0.9, 1.0, 0.0]]),
    dict(_HG, hg_field=[[1, False, 1.0, 0.0]]),
    dict(_HG, hg_field=[[10**400, 0, 1.0, 0.0]]),
], ids=["methods-int", "methods-empty", "eps-range-text", "n-infinite",
        "target-nan", "target-infinite", "targets-int",
        "target-pair-infinite", "fit-lo-nan", "fit-lo-zero",
        "fit-lo-negative", "out-int", "n-fraction",
        "n-string", "n-bool", "slice-count-fraction",
        "per-decade-fraction", "per-decade-string", "field-row-fraction",
        "field-row-bool", "field-row-huge"])
def test_bad_value_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                            payload):
    # each of these once ended in a traceback, or in a study that ran
    def no_solve(*args):
        raise AssertionError("solved a study with a bad config")

    monkeypatch.setattr(harness, "solve_density", no_solve)
    monkeypatch.setattr(harness, "_solve_3d", no_solve)
    monkeypatch.setattr(harness, "apply_L_asymptotic", no_solve)
    cfg = _write_config(tmp_path, payload)
    command = "hg" if payload["problem"] == "hg" else "run"
    assert cli.main([command, cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    dict(_KITE_EPS, eps=[True, 0.5]),
    dict(_KITE_EPS, eps=["0.5", 0.1]),
    dict(_KITE, x0=["1.85", True]),
    # fit_lo and fit_hi are no config keys, whatever their value
    dict(_KITE, fit_lo=False),
    dict(_KITE, fit_hi="1e-2"),
    dict(_KITE, targets=[True]),
    dict(_SPHERE, source=[5.0, 4.0, True]),
    dict(_SPHERE, targets=[[0.9, "0.4"]]),
    dict(_HG, hg_omega=[True, 0.7]),
    dict(_HG, hg_field=[[0, 0, True, "2"]]),
    dict(_HG, hg_field=[[1, 0, 10**400, 0.0]]),
], ids=["eps-bool", "eps-string", "x0-string-and-bool", "fit-lo-bool",
        "fit-hi-string", "target-bool", "source-bool", "target-pair-string",
        "omega-bool", "field-row-bool-and-string", "field-row-huge-real"])
def test_float_key_refuses_bool_or_string(tmp_path, capsys, monkeypatch,
                                          payload):
    # each once ran, reading true as 1.0 and "2" as 2.0, or (a real too
    # large for a float) ended in a traceback
    def no_solve(*args):
        raise AssertionError("solved a study with a bad config")

    monkeypatch.setattr(harness, "solve_density", no_solve)
    monkeypatch.setattr(harness, "_solve_3d", no_solve)
    monkeypatch.setattr(harness, "apply_L_asymptotic", no_solve)
    cfg = _write_config(tmp_path, payload)
    command = "hg" if payload["problem"] == "hg" else "run"
    assert cli.main([command, cfg]) == 2
    assert "config error" in capsys.readouterr().err


_UNREAD_VALUES = {"x0": [1.85, 1.65], "source": [5.0, 4.0, 3.0],
                  "hg_field": [[1, 0, 1.0, 0.0]], "hg_omega": [1.0, 0.7],
                  "targets": "all-nodes"}


@pytest.mark.parametrize("family,key", [
    ("2d", "cache"), ("2d", "--cache"), ("2d", "source"),
    ("2d", "hg_field"), ("2d", "hg_omega"),
    ("3d", "x0"), ("3d", "hg_field"), ("3d", "hg_omega"),
    ("hg", "cache"), ("hg", "x0"), ("hg", "source"), ("hg", "targets")])
def test_key_the_family_never_reads_exits_2(tmp_path, capsys, monkeypatch,
                                            family, key):
    # each of these once ran as if the key were absent
    def no_solve(*args):
        raise AssertionError("solved a study with a key it never reads")

    monkeypatch.setattr(harness, "solve_density", no_solve)
    monkeypatch.setattr(harness, "_solve_3d", no_solve)
    monkeypatch.setattr(harness, "apply_L_asymptotic", no_solve)
    cache = str(tmp_path/"cache")
    payload = dict({"2d": _KITE, "3d": _SPHERE, "hg": _HG}[family])
    flags = [key, cache] if key == "--cache" else []
    if not flags:
        payload[key] = cache if key == "cache" else _UNREAD_VALUES[key]
    cfg = _write_config(tmp_path, payload)
    command = "hg" if family == "hg" else "run"
    assert cli.main([command, cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(key.lstrip("-")) in err
    assert not os.path.exists(cache)


def _blocker(tmp_path):
    # a file where a directory is asked for
    path = tmp_path/"blocker"
    path.write_text("not a directory")
    return path


@pytest.mark.parametrize("command,payload,flags", [
    ("run", _KITE, ["--out", "FILE"]),
    ("run", _KITE, ["--out", "FILE/sub"]),
    ("run", dict(_SPHERE, cache="FILE"), []),
    ("hg", _HG, ["--out", "FILE"]),
], ids=["run-out", "run-out-below-a-file", "3d-cache", "hg-out"])
def test_directory_path_that_is_a_file_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, payload, flags):
    # each once ended in a traceback, the 3D cache only after the solve
    def no_solve(*args):
        raise AssertionError("solved a study whose files cannot be written")

    monkeypatch.setattr(harness, "solve_density", no_solve)
    monkeypatch.setattr(harness, "solve_density3d", no_solve)
    blocker = _blocker(tmp_path)

    def fill(value):
        return value.replace("FILE", str(blocker)) \
            if isinstance(value, str) else value

    cfg = _write_config(tmp_path, {k: fill(v) for k, v in payload.items()})
    assert cli.main([command, cfg, *map(fill, flags)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(blocker) in err
    assert blocker.read_text() == "not a directory"


def test_fit_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, _kite_payload(str(out)))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    blocker = _blocker(tmp_path)
    assert cli.main(["fit", str(out/"results.csv"), "--out",
                     str(blocker)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(blocker) in err
    assert blocker.read_text() == "not a directory"


@pytest.mark.parametrize("source", ["flag", "range-key", "list"])
def test_eps_count_above_cap_exits_2_without_an_out_directory(
        tmp_path, capsys, source):
    # 1e11 per decade once ended in numpy's "Unable to allocate 3.64 TiB"
    out = tmp_path/"out"
    payload, flags = dict(_KITE_EPS, out=str(out)), []
    if source == "flag":
        flags = ["--eps-range", "1e-6:1e-1:100000000000"]
    elif source == "range-key":
        payload["eps_range"] = "1e-6:1e-1:100000000000"
    else:
        payload["eps"] = np.logspace(-1, -4, harness.MAX_EPS_COUNT
                                     + 1).tolist()
    assert cli.main(["run", _write_config(tmp_path, payload), *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(harness.MAX_EPS_COUNT) in err
    assert not out.exists()


@pytest.mark.parametrize("blocked", ["results", "density-cache", "fits"])
def test_output_path_that_is_a_directory_exits_2(tmp_path, capsys, blocked):
    # each once ended in an IsADirectoryError traceback from os.replace
    out = tmp_path/"out"
    args = ["run", _write_config(tmp_path, _kite_payload(str(out)))]
    if blocked == "results":
        in_the_way = out/"results.csv"
    elif blocked == "density-cache":
        args = ["run", _write_config(tmp_path, dict(
            _SPHERE, cache=str(tmp_path/"cache")))]
        in_the_way = pathlib.Path(
            harness._density_cache_path(harness.load_config(args[1])))
    else:
        assert cli.main(args) == 0
        args = ["fit", str(out/"results.csv"), "--out", str(tmp_path/"f")]
        in_the_way = tmp_path/"f"/"fits.json"
    in_the_way.mkdir(parents=True)
    (in_the_way/"kept").write_text("kept")
    capsys.readouterr()
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {in_the_way}: ")
    assert "Traceback" not in err
    # the directory is untouched, and no temporary file is left beside it
    assert [p.name for p in in_the_way.iterdir()] == ["kept"]
    assert (in_the_way/"kept").read_text() == "kept"
    assert [p.name for p in in_the_way.parent.iterdir()] == [in_the_way.name]


@pytest.mark.parametrize("payload,targets", [
    ({"problem": "2d-kite", "n": 64, "eps": [1.2, 0.9]},
     [1.5707963267948966, 0.0]),
    ({"problem": "3d-mushroom", "n": 8, "eps": [3.0, 2.5]},
     [[0.364, 0.0], [1.155, 0.0]]),
], ids=["2d", "3d"])
def test_target_losing_every_eps(tmp_path, payload, targets):
    # the first target's points all fall outside the domain; it leaves one
    # rejection per (eps, method) and no rows, and the other target's rows
    # are those of a study without it
    both, alone = tmp_path/"both", tmp_path/"alone"
    for out, kept in ((both, targets), (alone, targets[1:])):
        cfg = _write_config(tmp_path, dict(payload, targets=kept,
                                           out=str(out)))
        assert cli.main(["run", cfg]) == 0
    assert (both/"results.csv").read_text() \
        == (alone/"results.csv").read_text()
    lines = (both/"rejections.csv").read_text().splitlines()[1:]
    rejected = [line.split(",")[:3] for line in lines]
    labels = {target for target, _, _ in rejected}
    assert len(labels) == 1
    assert all(label not in (both/"results.csv").read_text()
               for label in labels)
    methods = {"2d-kite": ("ptr", "sub", "asym2", "asym3"),
               "3d-mushroom": ("numerical", "asym2")}[payload["problem"]]
    assert sorted((float(e), m) for _, e, m in rejected) == sorted(
        (e, m) for e in payload["eps"] for m in methods)
    assert not (alone/"rejections.csv").exists()
    # rerunning without the lost target into the same directory removes
    # the earlier run's rejections
    cfg = _write_config(tmp_path, dict(payload, targets=targets[1:],
                                       out=str(both)))
    assert cli.main(["run", cfg]) == 0
    assert not (both/"rejections.csv").exists()


def test_run_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, _kite_payload(None))

    def boom(config):
        raise NumericalError("solver fell over")

    monkeypatch.setattr(cli, "run_error_map", boom)
    assert cli.main(["run", cfg]) == 3
    assert "numerical failure: solver fell over" in capsys.readouterr().err


def test_fit_stdout(tmp_path, capsys):
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, _kite_payload(str(out)))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["fit", str(out/"results.csv"),
                     "--eps-range", "1e-4:1e-2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    methods = {f["method"] for f in payload["fits"]}
    assert {"sub", "asym2", "asym3"} <= methods
    sub = next(f for f in payload["fits"] if f["method"] == "sub")
    assert 0.7 < sub["slope"] < 1.3


def test_fit_window_is_read_as_given(tmp_path, capsys):
    # LO and HI are recorded as written, and K is ignored, even 0
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, _kite_payload(str(out)))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    for window in ("3e-5:7e-2", "3e-5:7e-2:0"):
        assert cli.main(["fit", str(out/"results.csv"),
                         "--eps-range", window]) == 0
        fits = json.loads(capsys.readouterr().out)["fits"]
        assert fits and all((f["fit_lo"], f["fit_hi"]) == (3e-5, 7e-2)
                            for f in fits)


@pytest.mark.parametrize("window", ["1e-3:inf", "nan:1e-2", "1e-2:1e-3",
                                    "0:1e-2", "1e-3", "1e-3:1e-2:5:7",
                                    "a:1e-2"])
def test_fit_bad_window_exits_2(tmp_path, capsys, window):
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, _kite_payload(str(out)))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["fit", str(out/"results.csv"),
                     "--eps-range", window]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps-range", "--eps"])
@pytest.mark.parametrize("command, value, message", [
    ("run", "-1:1e-1:5", "eps range needs finite 0 < lo < hi"),
    ("fit", "-1:1e-2", "fit window needs finite 0 < lo < hi"),
])
def test_negative_eps_range_is_a_config_error(tmp_path, capsys, command,
                                              value, message, flag):
    # a range that starts with "-", given as a separate argument after the
    # flag or an abbreviation of it, reaches the range check, and no
    # directory is made
    out = tmp_path/"out"
    if command == "run":
        source = _write_config(tmp_path, _kite_payload(str(out)))
    else:
        source = tmp_path/"results.csv"
        source.write_text(harness.CSV_HEADER + "\n")
    assert cli.main([command, str(source), flag, value,
                     "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_drops_non_finite_errors(tmp_path, capsys):
    # four infinite errors once gave "slope": NaN, which is not JSON
    csv = tmp_path/"results.csv"
    csv.write_text(harness.CSV_HEADER + "\n" + "".join(
        f"x,{eps!r},ptr,1.0,1.0,inf\n" for eps in (1e-1, 1e-2, 1e-3, 1e-4)))
    assert cli.main(["fit", str(csv), "--eps-range", "1e-5:1"]) == 0
    text = capsys.readouterr().out

    def not_json(constant):
        raise AssertionError(f"fits.json holds {constant}")

    assert json.loads(text, parse_constant=not_json) == {"fits": []}


def test_fit_of_rows_at_one_eps_gives_no_slope(tmp_path, capsys):
    # four rows at one eps once gave "slope": NaN and a numpy warning
    csv = tmp_path/"results.csv"
    csv.write_text(harness.CSV_HEADER + "\n" + "".join(
        f"x,0.001,sub,1.0,1.0,{err!r}\n" for err in (1e-3, 2e-3, 3e-3, 4e-3)))
    assert cli.main(["fit", str(csv)]) == 0
    assert json.loads(capsys.readouterr().out) == {"fits": []}


def test_fit_to_directory(tmp_path, capsys):
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, _kite_payload(str(out)))
    assert cli.main(["run", cfg]) == 0
    capsys.readouterr()
    fitdir = tmp_path/"fits"
    assert cli.main(["fit", str(out/"results.csv"), "--out",
                     str(fitdir)]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(fitdir/"fits.json") as fh:
        assert "fits" in json.load(fh)


def test_fit_missing_csv_exits_2(tmp_path, capsys):
    assert cli.main(["fit", str(tmp_path/"no.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_hg_command(tmp_path, capsys):
    out = tmp_path/"hg"
    cfg = _write_config(tmp_path, {
        "problem": "hg",
        "hg_field": [[3, 1, 1.0, 0.0]],
        "eps_range": "1e-3:1e-1:5",
        "out": str(out)})
    assert cli.main(["hg", cfg]) == 0
    text = capsys.readouterr().out
    assert "method=hg_asym" in text
    assert (out/"results.csv").exists()


def test_hg_eps_whose_g_rounds_to_one_is_evaluated(tmp_path):
    # 1 - eps == 1 for eps below half an ulp of 1: the exact operator forms
    # its eigenvalue (1 - eps)^3 - 1 from eps, not from the rounded g, so
    # such an eps is a row whose exact value keeps eps, not a rejection
    out = tmp_path/"hg"
    cfg = _write_config(tmp_path, {"problem": "hg",
                                   "hg_field": [[3, 1, 1.0, 0.0]],
                                   "out": str(out)})
    assert cli.main(["hg", cfg, "--eps-range", "1e-18:1e-1:2"]) == 0
    assert not (out/"rejections.csv").exists()
    rows = harness.read_results_csv(str(out/"results.csv"))
    # 17 decades at two eps per decade, four of them below 1e-16
    assert len(rows) == 35
    tiny = [r for r in rows if 1.0 - r.eps == 1.0]
    assert len(tiny) == 4
    s3 = hgscatter._degree_values(
        references.single(4, 3, 1, 1.0), (1.0, 0.7))[3]
    for r in tiny:
        assert r.exact != 0.0
        assert r.exact == pytest.approx(
            np.expm1(3*np.log1p(-r.eps))*s3, rel=1e-15, abs=0)


def test_huge_2d_target_snaps_to_a_node(tmp_path):
    # a finite parameter of any size is taken modulo 2*pi before it snaps,
    # so it cannot overflow the node index
    out = tmp_path/"out"
    cfg = _write_config(tmp_path, dict(_KITE, targets=[1e308, -1e308],
                                       out=str(out)))
    assert cli.main(["run", cfg]) == 0
    rows = harness.read_results_csv(str(out/"results.csv"))
    nodes = {float(r.target) for r in rows}
    assert 1 <= len(nodes) <= 2
    grid = -np.pi + 2*np.pi*np.arange(64)/64
    assert nodes <= set(grid.tolist())
    want = {grid[round((t + np.pi) % (2*np.pi)*64/(2*np.pi)) % 64]
            for t in (1e308, -1e308)}
    assert nodes == want


def test_hg_config_with_a_resolution_exits_2(tmp_path, capsys):
    # no hg code reads n: the field's degree comes from hg_field alone
    cfg = _write_config(tmp_path, dict(_HG, n=8, out=str(tmp_path/"out")))
    assert cli.main(["hg", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path/"out").exists()


@pytest.mark.parametrize("payload", [_HG, _KITE, _SPHERE],
                         ids=["hg", "2d", "3d"])
def test_run_and_hg_are_one_command(tmp_path, capsys, payload):
    # hg is another name for run: both write the same files for any problem
    cfg = _write_config(tmp_path, payload)
    for command in ("run", "hg"):
        assert cli.main([command, cfg, "--out", str(tmp_path/command)]) == 0
    assert capsys.readouterr().out.count("rows: ") == 2
    names = sorted(p.name for p in (tmp_path/"run").iterdir())
    assert names == sorted(p.name for p in (tmp_path/"hg").iterdir())
    assert "results.csv" in names
    for name in names:
        assert (tmp_path/"run"/name).read_bytes() \
            == (tmp_path/"hg"/name).read_bytes()


@pytest.mark.parametrize("payload,window", [
    (dict(_kite_payload(None), targets=[2.0, -0.7853981633974483]), None),
    (dict(_SPHERE, problem="3d-mushroom", targets=[[1.2, 0.4], [0.9, 0.4]],
          eps_range="1e-3:1e-1:4"), "1e-4:1e-1"),
    (dict(_HG, hg_field=[[3, 1, 1.0, 0.0], [2, 0, 0.5, 0.0]],
          eps_range="1e-3:1e-1:4"), "1e-3:1e-1"),
    (dict(_SPHERE, targets=["x1x3-slice", [0.9, 0.4]],
          eps_range="1e-6:1e-1:4"), None),
    (dict(_SPHERE, targets=[[1.2, 0.4], [0.9, 0.4]],
          eps_range="1e-6:1e-1:4"), None),
    (dict(_HG, hg_field=[[3, 1, 1.0, 0.0], [2, 0, 0.5, 0.0]],
          eps_range="1e-6:1e-1:4"), None),
], ids=["2d", "3d", "hg", "3d-slice-no-flag", "3d-pairs-no-flag",
        "hg-no-flag"])
def test_fit_of_a_run_reproduces_its_fits(tmp_path, capsys, payload, window):
    # fits come back in the order the run wrote them, its targets in sweep
    # order, not sorted by label; over the run's window, given as a flag or
    # read from the labels' family (the 2D window once served every file,
    # so 3D and hg refits without a flag differed from the run's fits)
    cfg = _write_config(tmp_path, dict(payload, out=str(tmp_path/"run")))
    assert cli.main(["run", cfg]) == 0
    argv = ["fit", str(tmp_path/"run"/"results.csv"), "--out",
            str(tmp_path/"fit")]
    assert cli.main(argv + (["--eps-range", window] if window else [])) == 0
    capsys.readouterr()
    written = (tmp_path/"run"/"fits.json").read_bytes()
    assert json.loads(written)["fits"]
    assert (tmp_path/"fit"/"fits.json").read_bytes() == written


def _src_env():
    # the environment with this checkout's src first on PYTHONPATH
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_script_help():
    # without an installed console script, run the module it points at
    env = None
    command = ["closeeval", "--help"]
    if shutil.which("closeeval") is None:
        env = _src_env()
        command = [sys.executable, "-m", "closeeval.cli", "--help"]
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "fit" in proc.stdout


def test_python_m_closeeval_help():
    proc = subprocess.run([sys.executable, "-m", "closeeval", "--help"],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0
    assert "run" in proc.stdout and "fit" in proc.stdout


_SCIPY_LOADED = """
import runpy, sys
import closeeval.cli
def loaded():
    return [name in sys.modules for name in ("scipy", "numpy.ma")]
seen = [loaded()]
for argv in (["run", sys.argv[1]], ["hg", sys.argv[2]]):
    sys.argv = ["closeeval", *argv]
    try:
        runpy.run_module("closeeval", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        assert done.code == 0, argv
    seen.append(loaded())
print(seen)
"""


def test_no_study_imports_scipy(tmp_path):
    # closeeval needs numpy alone: importing its CLI, which loads every
    # module, and running a study of each family, as ``python -m closeeval``
    # does, loads no scipy.  Nor does it load numpy.ma, which costs a cold
    # 3D solve about a megabyte and several milliseconds
    sphere = _write_config(tmp_path, dict(_SPHERE, out=str(tmp_path/"3d")),
                           "sphere.json")
    hg = _write_config(tmp_path, dict(_HG, out=str(tmp_path/"hg")),
                       "hg.json")
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LOADED, sphere, hg],
                          capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([[False, False]]*3)
    assert (tmp_path/"3d"/"results.csv").exists()
    assert (tmp_path/"hg"/"results.csv").exists()

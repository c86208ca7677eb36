import json
import os
import shutil
import subprocess
import sys

import pytest

from closeeval import cli, harness
from closeeval.bie3d import Density3D
from closeeval.geometry3d import unit_sphere
from closeeval.harness import NumericalError


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


@pytest.mark.parametrize("problem,n", [("3d-sphere", 40), ("2d-kite", 65),
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
                                   "eps": [1e-2, "nan", 1e-3]})
    assert cli.main(["run", cfg]) == 2
    assert "eps values must be finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("command,payload", [
    ("run", dict(_KITE, x0=[1.0])),
    ("run", dict(_KITE, x0=[0, 0])),  # source inside the curve
    ("run", dict(_SPHERE, source=[5, 4])),
    ("run", dict(_SPHERE, source=[0.1, 0, 0])),  # source inside
    ("hg", dict(_HG, hg_omega=[1.0])),
    ("hg", dict(_HG, hg_field=[[1, 0, "nan", 0.0]])),
    ("hg", dict(_HG, hg_field=5)),
    ("hg", dict(_HG, hg_field=[5])),
    # one large eps keeps the study small should the degree cap be missing
    ("hg", {"problem": "hg", "hg_field": [[33, 0, 1.0, 0.0]],
            "eps": [0.1]}),
], ids=["x0-length", "x0-inside", "source-length", "source-inside",
        "omega-length", "field-nan", "field-int", "field-row-int",
        "field-degree-33"])
def test_bad_source_or_field_exits_2(tmp_path, capsys, command, payload):
    cfg = _write_config(tmp_path, payload)
    assert cli.main([command, cfg, "--out", str(tmp_path/"out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    dict(_KITE, targets=[]),
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
    dict(_KITE, eps_range={"lo": "a", "hi": 1, "per_decade": 1}),
    dict(_KITE, n=float("inf")),
    dict(_KITE, targets=[float("nan")]),
    dict(_KITE, targets=[float("inf")]),
    dict(_SPHERE, targets=5),
    dict(_SPHERE, targets=[[float("inf"), 0.3]]),
    dict(_KITE, fit_lo=float("nan")),
    dict(_KITE, out=5),
], ids=["methods-int", "methods-empty", "eps-range-text", "n-infinite",
        "target-nan", "target-infinite", "targets-int",
        "target-pair-infinite", "fit-lo-nan", "out-int"])
def test_bad_value_exits_2_before_any_solve(tmp_path, capsys, monkeypatch,
                                            payload):
    # each of these once ended in a traceback, or in a study that ran
    def no_solve(*args):
        raise AssertionError("solved a study with a bad config")

    monkeypatch.setattr(harness, "solve_density", no_solve)
    monkeypatch.setattr(harness, "_solve_3d", no_solve)
    cfg = _write_config(tmp_path, payload)
    assert cli.main(["run", cfg]) == 2
    assert "config error" in capsys.readouterr().err


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
        "problem": "hg", "n": 8,
        "hg_field": [[3, 1, 1.0, 0.0]],
        "eps_range": "1e-3:1e-1:5",
        "out": str(out)})
    assert cli.main(["hg", cfg]) == 0
    text = capsys.readouterr().out
    assert "method=hg_asym" in text
    assert (out/"results.csv").exists()


def test_hg_on_2d_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, _kite_payload(None))
    assert cli.main(["hg", cfg]) == 2
    assert "config error" in capsys.readouterr().err


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

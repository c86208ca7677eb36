"""Tests of the benchmark's own pieces: span self times, the output check,
the tracer's counters and the seeded workload inputs.

Run from the repository root: PYTHONPATH=src python -m pytest bench
"""

import csv
import json
import math
import os
import shutil
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import workloads  # noqa: E402
from check import CheckError, check_outputs  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    spans = [["cli", "root", -1, 0.0, 10.0],
             ["harness", "a", 0, 1.0, 4.0],
             ["spectral", "b", 1, 2.0, 3.0],
             ["harness", "c", 0, 5.0, 9.0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def _small_kite():
    """kite-sweep cut down to its two anchor targets."""
    base = workloads.build("kite-sweep", 3)
    config = dict(base.config, targets=[5*math.pi/4, math.pi/4])
    return workloads.Workload(base.name, base.command, config, base.cache)


def _run(workload, out):
    from closeeval import cli
    path = out.parent/"config.json"
    path.write_text(json.dumps(workload.config))
    assert cli.main([workload.command, str(path), "--out", str(out)]) == 0


def _rewrite(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture(scope="module")
def kite_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("kite")/"out"
    workload = _small_kite()
    _run(workload, out)
    return workload, out


def test_check_accepts_a_correct_study(kite_out):
    workload, out = kite_out
    summary = check_outputs(workload, str(out))
    assert summary["requests"] == 2*126
    assert summary["rows"] + 4*summary["rejected_requests"] == 4*2*126


def _copy(out, tmp_path):
    dest = tmp_path/"copy"
    shutil.copytree(out, dest)
    return dest


def _perturb(rows, method, delta, keep_error):
    for row in rows[1:]:
        if row[2] == method and float(row[1]) < 1e-3:
            value = float(row[3]) + delta
            row[3] = repr(value)
            if not keep_error:
                row[5] = repr(abs(value - float(row[4])))
            return rows
    raise AssertionError("no row to perturb")


@pytest.mark.parametrize("keep_error", [True, False])
def test_check_rejects_a_perturbed_value(kite_out, tmp_path, keep_error):
    workload, out = kite_out
    dest = _copy(out, tmp_path)
    _rewrite(dest/"results.csv",
             lambda rows: _perturb(rows, "asym3", 1e-3, keep_error))
    with pytest.raises(CheckError):
        check_outputs(workload, str(dest))


def test_check_rejects_a_changed_row_count(kite_out, tmp_path):
    workload, out = kite_out
    dest = _copy(out, tmp_path)
    _rewrite(dest/"results.csv", lambda rows: rows[:-1])
    with pytest.raises(CheckError, match="missing a method"):
        check_outputs(workload, str(dest))
    _rewrite(dest/"results.csv",
             lambda rows: [r for r in rows if not r[0] == rows[-1][0]])
    with pytest.raises(CheckError, match="attempted"):
        check_outputs(workload, str(dest))


def test_tracer_counts_requests_and_restores_functions(tmp_path):
    import closeeval.bie2d
    import closeeval.closeeval2d
    original = closeeval.bie2d.point_inside
    post_init = closeeval.closeeval2d.CloseEvalRequest2D.__post_init__
    workload = _small_kite()
    tracer = Tracer()
    tracer.install()
    try:
        assert closeeval.bie2d.point_inside is not original
        _run(workload, tmp_path/"out")
    finally:
        tracer.uninstall()
    assert closeeval.bie2d.point_inside is original
    assert closeeval.closeeval2d.CloseEvalRequest2D.__post_init__ is post_init
    layers = tracer.layer_metrics()
    assert layers["cli.calls"] == 1
    assert layers["closeeval2d.requests"] == 2*126
    # one interiority test per request, plus the source check in the data
    assert layers["geometry2d.inside_tests"] == 2*126 + 1
    assert layers["geometry2d.polygon_edges"] == 2048*(2*126 + 1)
    assert layers["harness.rows_written"] > 0
    assert all(v >= 0 for k, v in layers.items() if k.endswith("self_s"))
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    root = tracer.spans[0]
    assert root[1] == "cli.main"
    assert total == pytest.approx(root[4] - root[3], rel=1e-9)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_inputs_depend_on_seed_only_through_data(name):
    assert workloads.build(name, 11) == workloads.build(name, 11)
    first = workloads.build(name, 1)
    sizes = set()
    for seed in range(1, 21):
        w = workloads.build(name, seed)
        sizes.add((w.command, w.cache, workloads.requests(w),
                   workloads.methods(w), w.config.get("n"),
                   w.config["eps_range"], len(w.config.get("hg_field", ()))))
    assert len(sizes) == 1
    assert workloads.build(name, 2).config != first.config

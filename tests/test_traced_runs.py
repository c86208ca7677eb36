"""The benchmark's traced runs (bench/tracer.py) of a 3D study with a
density cache and of an hg study, each through cli.main: every name that
the tracer binds must still be there for its counters to read."""

import json
import sys
from pathlib import Path

import closeeval.bie3d
from closeeval import cli

sys.path.insert(0, str(Path(__file__).parents[1]/"bench"))

from tracer import Tracer  # noqa: E402


def _traced(tmp_path, name, config):
    path = tmp_path/f"{name}.json"
    path.write_text(json.dumps(config))
    command = "hg" if config["problem"] == "hg" else "run"
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main([command, str(path), "--out", str(tmp_path/name)])
    finally:
        tracer.uninstall()
    return code, tracer.layer_metrics()


def test_traced_mushroom_study_misses_then_hits_the_cache(tmp_path):
    solve = closeeval.bie3d.solve_density3d
    config = {"problem": "3d-mushroom", "n": 8,
              "methods": ["numerical", "asym2"], "eps_range": "1e-3:1e-1:5",
              "targets": [[1.1, 0.4]], "source": [5.0, 4.0, 3.0],
              "cache": str(tmp_path/"cache")}
    code, miss = _traced(tmp_path, "miss", config)
    assert code == 0
    assert miss["harness.density_cache_misses"] == 1
    assert miss["harness.density_cache_hits"] == 0
    assert miss["bie3d.galerkin_rows"] > 0
    code, hit = _traced(tmp_path, "hit", config)
    assert code == 0
    assert hit["harness.density_cache_hits"] == 1
    assert hit["harness.density_cache_misses"] == 0
    for layers in (miss, hit):
        assert layers["cli.calls"] == 1
        assert layers["closeeval3d.calls"] > 0
        assert layers["harness.rows_written"] == 11*2
    assert ((tmp_path/"hit"/"results.csv").read_bytes()
            == (tmp_path/"miss"/"results.csv").read_bytes())
    assert closeeval.bie3d.solve_density3d is solve


def test_traced_hg_study(tmp_path):
    config = {"problem": "hg", "eps_range": "1e-3:1e-1:5",
              "hg_field": [[3, 1, 1.0, 0.0], [1, 0, 0.5, 0.0]]}
    code, layers = _traced(tmp_path, "hg", config)
    assert code == 0
    assert layers["cli.calls"] == 1
    assert layers["hgscatter.calls"] > 0
    assert layers["harness.rows_written"] == 11

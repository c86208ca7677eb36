import ast
import dataclasses
import importlib
import inspect
import json
import re
import types
from pathlib import Path

import numpy as np
import pytest

import closeeval
import closeeval.cli
from closeeval import (bie2d, bie3d, closeeval2d, geometry2d, geometry3d,
                       spectral)
from closeeval.harness import ResultBlock, StudyConfig, config_from_dict


def test_package_binds_only_submodules():
    # each name has one import path, its module: once every module is
    # loaded, the package's public attributes are those modules alone
    public = {name: obj for name, obj in vars(closeeval).items()
              if not name.startswith("_")}
    assert public and all(isinstance(obj, types.ModuleType)
                          for obj in public.values()), public
    assert not hasattr(closeeval, "__all__")


PACKAGE = Path(closeeval.__file__).parent


def test_hgscatter_imports_from_spectral_alone():
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE/"hgscatter.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names
                            if a.name.startswith("closeeval"))
    assert imported == {"spectral"}


def test_no_module_names_the_deleted_duplicates():
    # the ring rotation and the dense and single-harmonic bases live only
    # in tests/references.py; the 2D duplicates are folded into one
    # function each (closeeval2d.close_eval_2d, geometry2d._series) or
    # deleted; every study runs through the one sweep of
    # harness.run_error_map; each family has one close-evaluation function
    # and the HG operators take coefficients; the 3D kernels take the
    # vector components apart, so no einsum dot helper or call is left;
    # the constructors of shapes that no study runs on, and the public
    # rotated-grid wrapper, are deleted; the operators, coefficient helpers
    # and result lookups that only tests call live in tests/references.py;
    # eps is the distance, so no module names a scale ell; the package
    # re-exports nothing, so no __all__ is left; a density reaches a
    # target's grid through its rotated coefficients, so neither the
    # scattered synthesis, the density's call nor the conversion of
    # directions to angles is left; the Wigner matrices are applied through
    # the J_y eigenvectors and never formed, so no formed or folded table
    # is left; a colatitude's Galerkin rows come from one grid, so no
    # stacked row blocks are left; every 3D frame has one pole, so no
    # stacked frame helper is left, and the HG operators form their own
    # harmonic row, so no half basis or its coefficient split is left
    deleted = {"rotated_angles", "sph_basis_matrix", "sph_harm_eval",
               "_ptr_and_sub", "_coord", "_descending", "run_hg_study",
               "_sweep_2d", "_sweep_3d", "_by_target", "_cmd_hg",
               "CloseEvalRequest3D", "dlp_numerical_3d", "asym_correction_3d",
               "asym_eps2_3d", "dlp_ptr", "dlp_subtraction", "asym_eps2",
               "asym_eps3", "_method", "_columns", "IntensityField",
               "evaluators", "_dot", "einsum", "circle", "fourier_custom",
               "load_curve", "custom_radial", "rotated_frame", "apply_L32",
               "poisson_close_eval", "spherical_laplacian", "degrees",
               "single", "errors_for", "fit_for", "ell",
               "gauss_interior_value", "gauss_interior_value_3d",
               "apply_K_subtracted", "__all__", "sph_synthesis",
               "direction_angles", "__call__", "_wigner_d",
               "_wigner_tables", "_row_block", "_BLOCK_NODES",
               "_rotated_frame", "sph_half_basis", "_half_coefficients"}
    for path in sorted(PACKAGE.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                names.add(node.value)
        assert not names & deleted, (path.name, names & deleted)


def _inputs(obj) -> set:
    # the fields of a dataclass, or the parameters of any other callable
    if dataclasses.is_dataclass(obj):
        return {f.name for f in dataclasses.fields(obj)}
    return set(inspect.signature(obj).parameters)


def _modules():
    return [importlib.import_module(f"closeeval.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py"))
            if not path.stem.startswith("_")]


def test_each_input_is_given_once():
    # eps is the distance, so no public function or dataclass of any module
    # takes a scale ell, and a size is read from the array that carries it
    checked = 0
    for mod in _modules():
        for name, obj in vars(mod).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if isinstance(obj, types.FunctionType) or (
                    dataclasses.is_dataclass(obj) and isinstance(obj, type)):
                assert "ell" not in _inputs(obj), f"{mod.__name__}.{name}"
                checked += 1
    assert checked >= 60
    assert len(dataclasses.fields(StudyConfig)) == 11
    assert _inputs(bie2d.solve_density) == {"curve", "f"}
    assert _inputs(spectral.sph_analysis) == {"values"}
    assert _inputs(spectral.SphericalCoeffs) == {"c"}
    assert _inputs(bie2d.DensityGrid2D) == {"curve", "mu", "f", "geometry"}


def test_curve_has_no_derivative_method():
    assert not hasattr(geometry2d.Curve2D, "derivative")


def _harness_imports(module: str) -> set:
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE/"harness.py").read_text())):
        if (isinstance(node, ast.ImportFrom) and node.level
                and node.module == module):
            imported.update(a.name for a in node.names)
    return imported


def test_harness_computes_no_2d_method():
    # closeeval2d alone knows how a 2D method is computed and which methods
    # there are; the harness makes its requests and asks for every
    # method's column
    assert _harness_imports("closeeval2d") == {
        "METHODS", "CloseEvalRequest2D", "_eval_points", "close_eval_2d"}


def test_harness_computes_no_3d_method():
    # closeeval3d alone knows how a 3D method is computed and which methods
    # there are; the harness tests the points and asks for every method's
    # column
    assert _harness_imports("closeeval3d") == {"METHODS", "_points",
                                               "close_eval_3d"}


@pytest.mark.parametrize("module", ["closeeval2d", "closeeval3d"])
def test_one_close_evaluation_function_per_family(module):
    # a family's public functions are its one evaluator, plus, in 2D, the
    # asymptotic coefficients that it reads
    mod = importlib.import_module(f"closeeval.{module}")
    public = {name for name, obj in vars(mod).items()
              if not name.startswith("_")
              and isinstance(obj, types.FunctionType)
              and obj.__module__ == mod.__name__}
    assert public == ({"close_eval_2d", "asym_coefficients"}
                      if module == "closeeval2d" else {"close_eval_3d"})


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1]/"pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert closeeval.__version__ == version


def _array_dataclasses():
    # one factory per dataclass whose fields hold arrays
    kite = geometry2d.kite
    sphere_density = lambda: bie3d.Density3D(
        geometry3d.unit_sphere(), spectral.SphericalCoeffs.zeros(2))
    kite_density = lambda: bie2d.solve_density(
        kite(), bie2d.dirichlet_data(kite(), (1.85, 1.65), 16))
    return {
        "Curve2D": kite,
        "CurvePoint2D": lambda: geometry2d.curve_eval(kite(), 0.3),
        "Surface3D": geometry3d.unit_sphere,
        "QuadratureRule1D": lambda: spectral.mapped_rule(4),
        "SphericalCoeffs": lambda: spectral.SphericalCoeffs.zeros(2),
        "DensityGrid2D": kite_density,
        "Density3D": sphere_density,
        "CloseEvalRequest2D": lambda: closeeval2d.CloseEvalRequest2D(
            kite_density(), 3, 1e-2),
        "ResultBlock": lambda: ResultBlock(
            "t", np.ones(2), np.ones(2), {"ptr": np.ones(2)}),
    }


@pytest.mark.parametrize("name", sorted(_array_dataclasses()))
def test_array_dataclasses_compare_by_identity(name):
    # == between two equal-valued instances is a bool, not an elementwise
    # array comparison, and every instance is hashable
    make = _array_dataclasses()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert (a == b) is False and (a == a) is True and (a != b) is True
    assert len({a, b, a}) == 2


def _readme_json_blocks() -> list:
    text = (Path(__file__).parents[1]/"README.md").read_text()
    return re.findall(r"^```json\n(.*?)^```$", text, re.M | re.S)


def test_readme_json_examples_are_valid_configs():
    # every configuration README shows is one that config_from_dict
    # accepts, so an example naming a deleted key fails here
    blocks = _readme_json_blocks()
    assert len(blocks) >= 3
    for block in blocks:
        config_from_dict(json.loads(block))

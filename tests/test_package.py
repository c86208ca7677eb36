import ast
import re
import types
from pathlib import Path

import numpy as np
import pytest

import closeeval


def test_all_lists_public_objects_not_modules():
    assert len(set(closeeval.__all__)) == len(closeeval.__all__)
    for name in closeeval.__all__:
        obj = getattr(closeeval, name)
        assert not isinstance(obj, types.ModuleType), name
    # every public object bound in the package is listed, and no more
    bound = {name for name, obj in vars(closeeval).items()
             if not name.startswith("_")
             and not isinstance(obj, types.ModuleType)}
    assert bound == set(closeeval.__all__)


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
    # in tests/references.py
    deleted = {"rotated_angles", "sph_basis_matrix", "sph_harm_eval"}
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


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1]/"pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert closeeval.__version__ == version


def _array_dataclasses():
    # one factory per dataclass whose fields hold arrays
    sphere_density = lambda: closeeval.Density3D(
        closeeval.unit_sphere(), closeeval.SphericalCoeffs.zeros(2))
    kite_density = lambda: closeeval.solve_density(
        closeeval.kite(), closeeval.dirichlet_data(closeeval.kite(),
                                                   (1.85, 1.65), 16), 16)
    return {
        "Curve2D": closeeval.kite,
        "CurvePoint2D": lambda: closeeval.curve_eval(closeeval.kite(), 0.3),
        "Surface3D": closeeval.unit_sphere,
        "QuadratureRule1D": lambda: closeeval.mapped_rule(4),
        "SphericalCoeffs": lambda: closeeval.SphericalCoeffs.zeros(2),
        "IntensityField": lambda: closeeval.IntensityField(
            closeeval.SphericalCoeffs.zeros(2)),
        "DensityGrid2D": kite_density,
        "Density3D": sphere_density,
        "CloseEvalRequest2D": lambda: closeeval.CloseEvalRequest2D(
            kite_density(), 3, 1e-2),
        "CloseEvalRequest3D": lambda: closeeval.CloseEvalRequest3D(
            sphere_density(), 1.0, 0.5, 1e-2),
        "ResultBlock": lambda: closeeval.ResultBlock(
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

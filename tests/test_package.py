import re
import types
from pathlib import Path

import closeeval


def test_all_lists_public_objects_not_modules():
    assert len(set(closeeval.__all__)) == len(closeeval.__all__)
    for name in closeeval.__all__:
        obj = getattr(closeeval, name)
        assert not isinstance(obj, types.ModuleType), name


def test_version_matches_pyproject():
    text = (Path(__file__).parents[1]/"pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"', text, re.M).group(1)
    assert closeeval.__version__ == version

"""mobanom depends on numpy alone.

Every ``import`` in ``src/mobanom`` is scanned with ``ast``: each must name a
standard-library module, numpy or mobanom itself, so a new third-party import
anywhere, inside a function included, fails here. ``pyproject.toml`` must list
numpy as its one dependency.
"""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mobanom"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "mobanom"}


def foreign_imports():
    """(file, top-level module) of every import in the package that is not allowed."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import stays in mobanom
                names = [node.module]
            else:
                continue
            found += [(str(path.relative_to(SRC)), name.split(".")[0]) for name in names
                      if name.split(".")[0] not in ALLOWED]
    return found


def test_the_package_imports_only_the_standard_library_and_numpy():
    assert foreign_imports() == []


def test_pyproject_depends_on_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["dependencies"]
    assert [re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0] for dep in dependencies] == ["numpy"]


def test_the_scan_sees_a_third_party_import(tmp_path, monkeypatch):
    (tmp_path / "rogue.py").write_text(
        "import os, json\n"
        "import numpy as np\n"
        "import requests\n"
        "from urllib3.util import Retry\n"
        "from . import core\n"
        "from mobanom.core import Dataset\n"
        "def post(url):\n"
        "    import certifi.core\n"
    )
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    assert foreign_imports() == [("rogue.py", "requests"), ("rogue.py", "urllib3"), ("rogue.py", "certifi")]

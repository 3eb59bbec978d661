import ast
import re
import sys
from pathlib import Path

import pytest

import groupedbh

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages() -> set[str]:
    """The top-level names of every absolute import in the package's
    modules, at module level or inside a function."""
    names = set()
    for path in Path(groupedbh.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names


def test_every_imported_package_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_") for dep in project["dependencies"]}
    third_party = _imported_packages() - set(sys.stdlib_module_names) - {"groupedbh"}
    assert third_party >= {"numpy", "scipy", "orjson"}
    assert third_party - declared == set()

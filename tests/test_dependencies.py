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


def _unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, by ast: a name counts as
    read where it is loaded or listed in ``__all__``. An import on a line
    marked ``# noqa: F401`` is kept for its side effect."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" not in lines[node.lineno - 1]:
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(Path(groupedbh.__file__).parent.glob("*.py"))
        if (found := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_the_unused_import_check_sees_a_leftover():
    source = "import os\nimport sys  # noqa: F401\nfrom itertools import chain, repeat\nfrom . import x, y\n__all__ = ['x']\ny = repeat(os.sep)\n"
    assert _unused_imports(source) == ["line 3: chain", "line 4: y"]

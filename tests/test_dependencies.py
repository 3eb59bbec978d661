import ast
import builtins
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


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, classes and constants of the
    modules {module name: source} that no module reads outside their own
    definition. A module reads its own names by loading them, and another
    module's through ``from .module import name`` or ``module.name``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    defined, used = [], set()
    for module, tree in trees.items():
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            names = [stmt.name] if hasattr(stmt, "name") else [t.id for t in targets if isinstance(t, ast.Name)]
            defined += [(module, name) for name in names if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in names:
                    used.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    used.add((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    used.update((node.module, alias.name) for alias in node.names)
    return [f"{module}.{name}" for module, name in defined if (module, name) not in used]


def test_every_private_name_is_used_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(Path(groupedbh.__file__).parent.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_the_dead_private_name_check_sees_a_leftover():
    sources = {
        "a": "_LIMIT = 3\n_unused = 1\ndef _loop(n):\n    return _loop(n - 1) if n else _LIMIT\ndef _kept():\n    pass\nclass _Old:\n    pass\n",
        "b": "from .a import _kept\ndef _truth():\n    pass\ndef f():\n    return _kept()\n",
        "c": "from . import a\ndef g():\n    return a._Old\n",
    }
    assert _dead_private_names(sources) == ["a._unused", "a._loop", "b._truth"]


def _exception_classes(source: str) -> list[str]:
    """The classes a module defines with a base that is a builtin exception
    or is named like one (…Error, …Exception, …Warning)."""

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        named_like_one = name.endswith(("Error", "Exception", "Warning"))
        return named_like_one or isinstance(builtin, type) and issubclass(builtin, BaseException)

    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(is_exception(str(getattr(base, "id", getattr(base, "attr", None)))) for base in node.bases)
    ]


def test_no_module_defines_an_exception_class():
    # the boundary is ValueError in the library and OSError for files; the CLI exits 2 on either
    defined = {
        path.name: found
        for path in sorted(Path(groupedbh.__file__).parent.glob("*.py"))
        if (found := _exception_classes(path.read_text()))
    }
    assert defined == {}


def test_the_exception_class_check_sees_one():
    source = (
        "import numpy as np\nclass Plan:\n    pass\nclass InputError(ValueError):\n    pass\n"
        "class Stop(KeyboardInterrupt):\n    pass\nclass Axis(np.exceptions.AxisError):\n    pass\n"
        "class Mixed(Plan, LookupError):\n    pass\n"
    )
    assert _exception_classes(source) == ["InputError", "Stop", "Axis", "Mixed"]

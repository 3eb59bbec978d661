import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _spans():
    """perfbench/spans.py, which holds the traced layers and the rule that
    picks their public functions."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_functions() -> set[str]:
    """TRACED_FUNCTIONS of perfbench/run.py, read from its source."""
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED_FUNCTIONS" for t in node.targets):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/run.py assigns no TRACED_FUNCTIONS")


def test_traced_functions_are_the_public_functions_of_the_traced_layers():
    # the benchmark reports a per-layer metric for each listed name only: a
    # public function added to a traced module is timed in no layer, and
    # one removed leaves a metric that reads 0
    spans = _spans()
    public = {
        f"{layer}.{name}"
        for layer in spans.LAYERS
        for name, _ in spans.public_functions(importlib.import_module(f"groupedbh.{layer}"))
    }
    assert public == _traced_functions()

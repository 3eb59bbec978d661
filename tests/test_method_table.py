"""The weight functions of `test` and `simulate` are looked up by name at each
call: a wrapper rebound on the name, as perfbench's tracer rebinds one on
every module attribute that holds the original, must be the one called."""

import inspect
import sys
from collections import Counter

import numpy as np
import pytest

from groupedbh import cli, simulate, weights
from groupedbh.classification import ClassificationForest, forest_from_grid, save_forest

WEIGHT_FUNCTIONS = [
    name
    for name, obj in vars(weights).items()
    if name.endswith("_weights") and not name.startswith("_")
    and inspect.isfunction(obj) and obj.__module__ == weights.__name__
]


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Count the calls of every public weight function, wrapped on every
    `groupedbh` module attribute that holds it."""
    counts = Counter()
    modules = [mod for name, mod in list(sys.modules.items()) if name.split(".")[0] == "groupedbh"]
    for name in WEIGHT_FUNCTIONS:
        fn = getattr(weights, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.mark.parametrize("adaptive", [False, True], ids=["oracle", "adaptive"])
@pytest.mark.parametrize("method", ["flat", "hier", "sway", "gen"])
def test_cli_calls_the_rebound_weight_function(tmp_path, calls, method, adaptive):
    grid = forest_from_grid((4, 5))
    forest = ClassificationForest(n=grid.n, trees=grid.trees[:1]) if method == "hier" else grid
    save_forest(forest, tmp_path / "spec.json")
    rng = np.random.default_rng(1)
    (tmp_path / "p.txt").write_text("".join(f"{p!r}\n" for p in rng.uniform(size=grid.n).tolist()))
    (tmp_path / "truth.txt").write_text("".join(f"{int(t)}\n" for t in rng.uniform(size=grid.n) < 0.5))
    args = ["test", "--pvalues", str(tmp_path / "p.txt"), "--method", method, "--out", str(tmp_path / "out.csv")]
    args += ["--adaptive"] if adaptive else ["--truth", str(tmp_path / "truth.txt")]
    if method != "flat":
        args += ["--spec", str(tmp_path / "spec.json")]
    assert cli.main(args) == 0
    assert calls[f"{'da' if adaptive else 'oracle'}_{method}_weights"] == 1


def test_simulate_calls_the_rebound_weight_functions(calls):
    plan = simulate.SimulationPlan(m=10, n=10, one_minus_pi0_grid=(0.5,), replicates=1)
    simulate._replicate_block((plan, simulate.simulation_tree(plan.m, plan.n)), (0, 0, 1))
    assert calls == Counter(oracle_flat_weights=1, da_flat_weights=1, oracle_hier_weights=1, da_hier_weights=1)

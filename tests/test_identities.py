import math

import numpy as np
import pytest

from groupedbh.classification import flat_tree, validate_tree, validate_forest
from groupedbh.identities import (
    check_condition1,
    check_loo_bound,
    check_monotone,
    check_reductions,
    random_forest,
    random_tree,
    random_truth,
    run_sweep,
)
from groupedbh.weights import da_flat_weights, da_hier_weights, oracle_flat_weights


def test_condition1_pass_and_fail():
    truth = np.array([1, 1, 0, 1], dtype=bool)
    good = oracle_flat_weights(truth)
    assert check_condition1(good, truth).passed
    report = check_condition1(good * 1.01, truth)
    assert not report.passed
    assert report.value == pytest.approx(4.0 / 1.01, rel=1e-12)
    assert report.target == 4.0


def test_condition1_infinite_weights_contribute_zero():
    truth = np.ones(4, dtype=bool)
    w = np.array([np.inf, np.inf, 2.0, 2.0])
    report = check_condition1(w, truth)
    assert report.value == pytest.approx(1.0)
    assert not report.passed  # equality genuinely fails here


def test_loo_bound_flat_case():
    rng = np.random.default_rng(0)
    p = rng.uniform(size=30)
    truth = rng.uniform(size=30) < 0.5
    report = check_loo_bound(lambda q: da_flat_weights(q, 0.5), p, truth)
    assert report.passed
    assert report.value == 0.0  # no excess over N


def test_monotone_flags_a_decreasing_rule():
    rng = np.random.default_rng(1)
    p = rng.uniform(size=20)

    def bad_rule(q):
        return np.full(q.size, 1.0 / (1.0 + q.sum()))  # decreases as p rises

    report = check_monotone(bad_rule, p, np.random.default_rng(2), trials=20)
    assert not report.passed
    good = check_monotone(lambda q: da_flat_weights(q, 0.5), p, np.random.default_rng(2), trials=20)
    assert good.passed


def test_random_tree_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(30):
        tree = random_tree(rng)
        assert validate_tree(tree) == []


def test_random_forest_is_valid():
    rng = np.random.default_rng(4)
    for _ in range(15):
        forest = random_forest(rng)
        assert validate_forest(forest) == []


def test_random_truth_keeps_groups_mixed():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tree = random_tree(rng)
        truth = random_truth(rng, tree)
        for node in tree.root.walk():
            pi0 = truth[node.members].mean()
            assert 0.0 < pi0 < 1.0


def test_reduction_reports_pass():
    rng = np.random.default_rng(6)
    reports = check_reductions(rng, trials=10)
    names = [r.name for r in reports]
    assert names == [
        "reduction_flat",
        "reduction_oneway",
        "recursion_equivalence",
        "reduction_gen_single",
    ]
    assert all(r.passed for r in reports)


def test_sweep_passes_and_is_bookkept():
    reports = run_sweep(seed=12, trials=8, monotone_trials=5)
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    by_name = {}
    for r in reports:
        by_name[r.name] = by_name.get(r.name, 0) + 1
    assert by_name["condition1"] == 8 * 5  # five variants per trial
    assert by_name["loo_bound"] == 2 * 4  # four adaptive variants
    assert by_name["monotone"] == 2 * 4
    assert by_name["stepup_oracle"] == 1
    # every report carries a reproducibility digest
    assert all(r.config_digest for r in reports)


def test_sweep_corruption_negative_control():
    reports = run_sweep(seed=12, trials=4, monotone_trials=3, corrupt=True)
    bad = [r for r in reports if not r.passed]
    assert bad and all(r.name == "condition1" for r in bad)


def test_report_serialization():
    truth = np.ones(3, dtype=bool)
    report = check_condition1(oracle_flat_weights(truth), truth, digest="abc")
    d = report.to_dict()
    assert d["name"] == "condition1"
    assert d["passed"] is True
    assert d["config_digest"] == "abc"


def test_sweep_reproducible():
    a = run_sweep(seed=3, trials=3, monotone_trials=3)
    b = run_sweep(seed=3, trials=3, monotone_trials=3)
    assert [(r.name, r.value, r.passed) for r in a] == [
        (r.name, r.value, r.passed) for r in b
    ]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect: adaptive hierarchical weights break the leave-one-out "
    "bound on a depth-2 tree with overlapping groups",
)
def test_adaptive_hier_loo_bound_known_failure():
    # the configuration of `groupedbh validate --trials 100 --seed 1970163759`
    # whose check 2b0678fd9bf2:hier exceeds N by 6.6: the generator state
    # before that adaptive trial draws its tree (n = 41), truth and p-values
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": 68106053055180017303363838816867956644,
            "inc": 265019469443843210940283623418559246249,
        },
        "has_uint32": 1,
        "uinteger": 2323311688,
    }
    tree = random_tree(rng, n=41)
    is_null = random_truth(rng, tree)
    pvalues = rng.uniform(size=tree.n)
    assert tree.depth == 2 and validate_tree(tree) == []
    report = check_loo_bound(lambda p: da_hier_weights(tree, p, 0.5), pvalues, is_null)
    assert report.passed, f"sum over nulls of 1/W exceeds N by {report.value:.3g}"

"""Every public function that takes a truth or p-value vector rejects, with
ValueError, a truth label that is not 0 or 1 and a vector that is not 1-D;
a bool truth and the same labels as 0/1 numbers give the same result."""

from functools import partial

import numpy as np
import pytest

from groupedbh.classification import ClassificationForest, forest_from_grid, group_stats, tree_from_levels
from groupedbh.identities import check_condition1, check_loo_bound
from groupedbh.stepup import brute_force_bh, outcome_metrics, weighted_bh
from groupedbh.weights import (
    da_flat_weights,
    da_gen_weights,
    da_hier_effects,
    da_hier_weights,
    da_sway_weights,
    oracle_flat_weights,
    oracle_gen_weights,
    oracle_hier_effects,
    oracle_hier_weights,
    oracle_overlap_oneway_weights,
    oracle_sway_weights,
    storey_null_estimate,
)

N = 12
TREE = tree_from_levels(
    N,
    [
        [((1,), range(0, 6)), ((2,), range(4, 12))],
        [((1, 1), range(0, 3)), ((1, 2), range(3, 6)), ((2, 1), range(4, 8)), ((2, 2), range(8, 12))],
    ],
)
GRID = forest_from_grid((3, 4))  # two depth-1 partitions, rows and columns
FOREST = ClassificationForest(n=N, trees=(TREE, GRID.trees[1]))
# every group above holds a null and a non-null
TRUTH = np.array([1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0], dtype=bool)
PVALUES = np.linspace(0.01, 0.9, N)

TRUTH_CALLS = {
    "oracle_flat_weights": oracle_flat_weights,
    "oracle_overlap_oneway_weights": partial(oracle_overlap_oneway_weights, N, [range(0, 6), range(4, 12)], [1.0, 2.0]),
    "oracle_hier_effects": partial(oracle_hier_effects, TREE),
    "oracle_hier_weights": partial(oracle_hier_weights, TREE),
    "oracle_sway_weights": partial(oracle_sway_weights, GRID),
    "oracle_gen_weights": partial(oracle_gen_weights, FOREST),
    "outcome_metrics": partial(outcome_metrics, weighted_bh(PVALUES, np.ones(N), 0.5)),
    "group_stats": partial(group_stats, TREE, 1),
    "check_condition1": partial(check_condition1, np.ones(N)),
    "check_loo_bound": partial(check_loo_bound, partial(da_hier_weights, TREE, lam=0.5), PVALUES),
}
PVALUE_CALLS = {
    "storey_null_estimate": partial(storey_null_estimate, lam=0.5),
    "da_flat_weights": partial(da_flat_weights, lam=0.5),
    "da_hier_effects": partial(da_hier_effects, TREE, lam=0.5),
    "da_hier_weights": partial(da_hier_weights, TREE, lam=0.5),
    "da_sway_weights": partial(da_sway_weights, GRID, lam=0.5),
    "da_gen_weights": partial(da_gen_weights, FOREST, lam=0.5),
    "weighted_bh": partial(weighted_bh, weights=np.ones(N), alpha=0.1),
    "brute_force_bh": partial(brute_force_bh, weights=np.ones(N), alpha=0.1),
}


def _with_label(label):
    truth = TRUTH.astype(type(label))
    truth[2] = label  # a non-null, which a cast to bool made a null
    return truth


NOT_A_VECTOR = r"^length mismatch: {} must be a vector of 12, got shape \({}\)$"
BAD_TRUTHS = {
    "half-label": (_with_label(0.5), "^truth labels must be 0 or 1$"),
    "label-2": (_with_label(2), "^truth labels must be 0 or 1$"),
    "column": (TRUTH.reshape(N, 1), NOT_A_VECTOR.format("truth labels", "12, 1")),
    "two-rows": (TRUTH.reshape(2, N // 2), NOT_A_VECTOR.format("truth labels", "2, 6")),
}
BAD_PVALUES = {
    "column": (PVALUES.reshape(N, 1), NOT_A_VECTOR.format("p-values", "12, 1")),
    "two-rows": (PVALUES.reshape(2, N // 2), NOT_A_VECTOR.format("p-values", "2, 6")),
}


@pytest.mark.parametrize("bad", BAD_TRUTHS.values(), ids=BAD_TRUTHS)
@pytest.mark.parametrize("call", TRUTH_CALLS.values(), ids=TRUTH_CALLS)
def test_a_bad_truth_vector_is_rejected(call, bad):
    # 0.5 and 2 were read as true nulls; an oracle_flat_weights or
    # group_stats truth of another shape was flattened or indexed by row
    truth, message = bad
    with pytest.raises(ValueError, match=message):
        call(truth)


@pytest.mark.parametrize("bad", BAD_PVALUES.values(), ids=BAD_PVALUES)
@pytest.mark.parametrize("call", PVALUE_CALLS.values(), ids=PVALUE_CALLS)
def test_a_bad_pvalue_vector_is_rejected(call, bad):
    # storey_null_estimate and da_flat_weights took any shape, and the others
    # said "length mismatch: 12 p-values for 12 hypotheses"
    pvalues, message = bad
    with pytest.raises(ValueError, match=message):
        call(pvalues)


@pytest.mark.parametrize("labels", [TRUTH.astype(int), TRUTH.astype(float), TRUTH.astype(int).tolist()])
@pytest.mark.parametrize("call", TRUTH_CALLS.values(), ids=TRUTH_CALLS)
def test_0_1_labels_give_what_bools_give(call, labels):
    np.testing.assert_equal(call(labels), call(TRUTH))

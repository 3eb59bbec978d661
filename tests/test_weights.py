import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupedbh import weights
from groupedbh.classification import (
    ClassificationForest,
    flat_tree,
    forest_from_grid,
    tree_from_levels,
)
from groupedbh.identities import _alternate_hier_effects, random_tree
from groupedbh.weights import (
    _assemble,
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


def ten_hypothesis_tree():
    """Two disjoint groups of sizes 4 and 6 over N = 10."""
    return tree_from_levels(
        10, [[((1,), np.arange(0, 4)), ((2,), np.arange(4, 10))]]
    )


# truth giving group null proportions 1/2 and 2/3, global 0.6
TEN_TRUTH = np.array([1, 1, 0, 0, 1, 1, 1, 1, 0, 0], dtype=bool)


class TestOracleFlat:
    def test_constant_pi0(self):
        w = oracle_flat_weights(TEN_TRUTH)
        assert np.allclose(w, 0.6)
        assert math.fsum(1.0 / w[TEN_TRUTH]) == pytest.approx(10.0, abs=1e-12)

    def test_degenerate_all_null(self):
        assert (oracle_flat_weights(np.ones(5, dtype=bool)) == 1.0).all()

    def test_degenerate_no_null(self):
        assert (oracle_flat_weights(np.zeros(5, dtype=bool)) == 0.0).all()


class TestOracleHier:
    def test_ten_hypothesis_effects(self):
        # group effects 0.4 and 0.8; no overlap, so the weights coincide
        tree = ten_hypothesis_tree()
        eff = oracle_hier_effects(tree, TEN_TRUTH)
        assert eff[(1,)] == pytest.approx(0.4, abs=1e-15)
        assert eff[(2,)] == pytest.approx(0.8, abs=1e-15)
        w = oracle_hier_weights(tree, TEN_TRUTH)
        assert np.allclose(w[:4], 0.4, atol=1e-12)
        assert np.allclose(w[4:], 0.8, atol=1e-12)
        # inverse-weight sum over true nulls: 2/0.4 + 4/0.8 = 10 = N
        assert math.fsum(1.0 / w[TEN_TRUTH]) == pytest.approx(10.0, rel=1e-12)

    def test_depth0_equals_flat(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            truth = rng.uniform(size=n) < 0.5
            assert (
                oracle_hier_weights(flat_tree(n), truth)
                == oracle_flat_weights(truth)
            ).all()

    def test_recursions_agree(self):
        rng = np.random.default_rng(11)
        g1 = np.arange(0, 12)
        g2 = np.arange(8, 20)  # overlaps g1 in 8..11
        level1 = [((1,), g1), ((2,), g2)]
        level2 = [
            ((1, 1), np.arange(0, 6)),
            ((1, 2), np.arange(6, 12)),
            ((2, 1), np.arange(8, 14)),
            ((2, 2), np.arange(14, 20)),
        ]
        tree = tree_from_levels(20, [level1, level2])
        for _ in range(50):
            truth = rng.uniform(size=20) < rng.uniform(0.2, 0.8)
            if truth.all() or not truth.any():
                continue
            fwd = oracle_hier_effects(tree, truth)
            alt = _alternate_hier_effects(tree, truth)
            for path in fwd:
                if math.isinf(fwd[path]):
                    assert math.isinf(alt[path])
                else:
                    assert fwd[path] == pytest.approx(alt[path], rel=1e-12)

    def test_all_null_group_never_rejected(self):
        truth = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
        w = oracle_hier_weights(ten_hypothesis_tree(), truth)
        assert np.isinf(w[:4]).all()
        assert np.isfinite(w[4:]).all()
        # the finite weights still normalize over the nulls they carry
        assert math.fsum(1.0 / w[truth][np.isfinite(w[truth])]) <= 10.0 + 1e-9

    def test_no_null_group_gets_zero_weight(self):
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 0, 0, 0], dtype=bool)
        w = oracle_hier_weights(ten_hypothesis_tree(), truth)
        assert (w[:4] == 0.0).all()
        assert math.fsum(1.0 / w[truth]) == pytest.approx(10.0, rel=1e-9)

    def test_globally_degenerate_truth(self):
        tree = ten_hypothesis_tree()
        assert (oracle_hier_weights(tree, np.ones(10, dtype=bool)) == 1.0).all()
        assert (oracle_hier_weights(tree, np.zeros(10, dtype=bool)) == 0.0).all()

    def test_overlap_condition1(self):
        g1 = np.arange(0, 8)
        g2 = np.arange(4, 12)
        tree = tree_from_levels(12, [[((1,), g1), ((2,), g2)]])
        truth = np.array([1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0], dtype=bool)
        w = oracle_hier_weights(tree, truth)
        assert math.fsum(1.0 / w[truth]) == pytest.approx(12.0, rel=1e-12)
        # members of the shared block average both lineages
        assert not np.allclose(w[4], w[0])


class TestOracleOneWay:
    def test_renormalizes_arbitrary_effects(self):
        rng = np.random.default_rng(3)
        groups = [np.arange(0, 8), np.arange(4, 12)]
        truth = rng.uniform(size=12) < 0.5
        for _ in range(20):
            effects = rng.uniform(0.2, 4.0, size=2)
            w = oracle_overlap_oneway_weights(12, groups, effects, truth)
            assert math.fsum(1.0 / w[truth]) == pytest.approx(12.0, rel=1e-12)

    def test_rejects_uncovered_indices(self):
        with pytest.raises(ValueError, match="belong"):
            oracle_overlap_oneway_weights(
                5, [np.arange(3)], np.array([1.0]), np.ones(5, dtype=bool)
            )

    @pytest.mark.parametrize("group", [[0.5, 1.5], np.array([True, True])], ids=["floats", "bool-mask"])
    def test_rejects_non_integer_members(self, group):
        # truncated, [0.5, 1.5] would silently become the group [0, 1]
        with pytest.raises(ValueError, match="group members must be integers"):
            oracle_overlap_oneway_weights(4, [group, [2, 3]], np.array([1.0, 1.0]), np.ones(4, dtype=bool))

    def test_rejects_one_effect_for_two_groups(self):
        with pytest.raises(ValueError, match="^one effect per group required$"):
            oracle_overlap_oneway_weights(4, [[0, 1], [2, 3]], np.array([1.0]), np.ones(4, dtype=bool))

    def test_rejects_effects_that_are_not_a_vector(self):
        # [[1.0]] for one group passed the count and raised numpy's TypeError
        with pytest.raises(ValueError, match="^one effect per group required$"):
            oracle_overlap_oneway_weights(2, [[0, 1]], np.array([[1.0]]), np.ones(2, dtype=bool))

    def test_rejects_nonpositive_effects(self):
        with pytest.raises(ValueError, match="positive"):
            oracle_overlap_oneway_weights(
                3, [np.arange(3)], np.array([0.0]), np.ones(3, dtype=bool)
            )

    @pytest.mark.parametrize("n", [2.0, True, -1])
    def test_rejects_a_bad_size(self, n):
        # 2.0 raised a TypeError, and True and -1 were taken for a truth of the wrong length
        with pytest.raises(ValueError, match="^n must be"):
            oracle_overlap_oneway_weights(n, [[0, 1]], np.array([1.0]), np.ones(2, dtype=bool))

    @pytest.mark.parametrize(
        "n, effects, truth",
        [(6, [1e-320, 1.0], [1, 1, 0, 1, 1, 0]),
         (6, [1e-300, 1e300], [1, 1, 0, 1, 1, 0]),
         (30, [1e-307, 1e-307, 1e307], [1] * 30)],
        ids=["reciprocal", "weight", "normalizer-sum"],
    )
    def test_effects_that_overflow_raise(self, n, effects, truth):
        # [1e-320, 1.0] gave the weights [0, 0, 0, inf, inf, inf] with only a RuntimeWarning, so the
        # first group's nulls were always rejected; the normalizer's fsum raised an OverflowError
        with pytest.raises(ValueError, match="^group effects out of range: .* overflows$"):
            oracle_overlap_oneway_weights(n, np.array_split(np.arange(n), len(effects)), effects, truth)

    def test_effects_that_overflow_only_through_their_common_scale_are_admitted(self):
        # [1e-308, 1e-308] raised "group effects out of range", yet a common factor leaves the weights as they are
        groups, truth = [[0, 1, 2], [2, 3, 4, 5]], np.array([1, 1, 0, 1, 1, 0], dtype=bool)
        tiny = oracle_overlap_oneway_weights(6, groups, [1e-308, 1e-308], truth)
        assert tiny.tobytes() == oracle_overlap_oneway_weights(6, groups, [1.0, 1.0], truth).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(
        effects=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
        k=st.integers(-1000, 1000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_power_of_two_on_every_effect_keeps_the_weights_bits(self, effects, k, seed):
        rng = np.random.default_rng(seed)
        n = 12
        groups = [rng.choice(n, size=rng.integers(1, n + 1), replace=False) for _ in effects]
        groups[0] = np.union1d(groups[0], np.setdiff1d(np.arange(n), np.concatenate(groups)))  # cover 0..n-1
        truth = rng.uniform(size=n) < 0.5
        w = oracle_overlap_oneway_weights(n, groups, effects, truth)
        scaled = oracle_overlap_oneway_weights(n, groups, np.ldexp(effects, k), truth)
        assert scaled.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "effects, truth",
        [([1e-150, 1e150], [1, 1, 0, 1, 1, 0]), ([0.2, 3.0], [1, 1, 0, 1, 1, 0]), ([1e-300, 1e300], [0] * 6)],
        ids=["far-apart", "ordinary", "no-nulls"],
    )
    def test_effects_within_range_keep_condition_1(self, effects, truth):
        truth = np.array(truth, dtype=bool)
        w = oracle_overlap_oneway_weights(6, [[0, 1, 2], [3, 4, 5]], effects, truth)
        if truth.any():
            assert math.fsum(1.0 / w[truth]) == pytest.approx(6.0, rel=1e-12)
        else:  # the degenerate truth with no nulls: every weight is 0
            assert w.tolist() == [0.0] * 6


class TestOracleSway:
    def test_two_by_three_hand_case(self):
        # nulls at cells (row 1, col 3), (row 2, col 1), (row 2, col 2):
        # row effects 1/4 and 1, column effects 1/2 each, so the null
        # weights come out (1/3, 2/3, 2/3)
        forest = forest_from_grid((2, 3))
        truth = np.zeros(6, dtype=bool)
        truth[[2, 3, 4]] = True
        w = oracle_sway_weights(forest, truth)
        assert w[2] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert w[3] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert w[4] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert math.fsum(1.0 / w[truth]) == pytest.approx(6.0, rel=1e-12)

    def test_condition1_with_a_group_without_nulls(self):
        # column 0 holds no null, so its cells get weight 0; the other
        # weights still normalize to N over the nulls
        forest = forest_from_grid((2, 3))
        truth = np.array([0, 1, 1, 0, 1, 0], dtype=bool)
        w = oracle_sway_weights(forest, truth)
        assert (w[[0, 3]] == 0.0).all()
        assert math.fsum(1.0 / w[truth]) == pytest.approx(6.0, rel=1e-12)

    def test_equal_marginals_give_equal_weights(self):
        forest = forest_from_grid((2, 2))
        truth = np.array([1, 0, 0, 1], dtype=bool)  # every margin has pi0 = 1/2
        w = oracle_sway_weights(forest, truth)
        assert np.allclose(w, w[0])

    def test_single_tree_reduces_to_hier(self):
        rng = np.random.default_rng(5)
        tree = tree_from_levels(
            9, [[((1,), np.arange(0, 4)), ((2,), np.arange(4, 9))]]
        )
        forest = ClassificationForest(n=9, trees=(tree,))
        for _ in range(20):
            truth = rng.uniform(size=9) < 0.5
            if truth.all() or not truth.any():
                continue
            if truth[:4].all() or not truth[:4].any():
                continue
            if truth[4:].all() or not truth[4:].any():
                continue
            assert np.allclose(
                oracle_sway_weights(forest, truth),
                oracle_hier_weights(tree, truth),
                rtol=1e-12,
            )

    def test_rejects_overlapping_partition(self):
        tree = tree_from_levels(6, [[((1,), np.arange(0, 4)), ((2,), np.arange(2, 6))]])
        forest = ClassificationForest(n=6, trees=(tree,))
        with pytest.raises(ValueError, match="overlap"):
            oracle_sway_weights(forest, np.arange(6) % 2 == 0)

    def test_rejects_deep_tree(self):
        tree = tree_from_levels(
            4,
            [
                [((1,), np.arange(0, 2)), ((2,), np.arange(2, 4))],
                [((1, 1), np.arange(0, 2)), ((2, 1), np.arange(2, 4))],
            ],
        )
        forest = ClassificationForest(n=4, trees=(tree,))
        with pytest.raises(ValueError, match="depth-1"):
            oracle_sway_weights(forest, np.array([1, 0, 1, 0], dtype=bool))


def _deep_tree():
    halves = [((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))]
    return tree_from_levels(6, [halves, [((1, 1), np.arange(0, 3)), ((2, 1), np.arange(3, 6))]])


@pytest.mark.parametrize(
    "second, message",
    [
        (_deep_tree(), "S-way weights need depth-1 trees; use the generalized form otherwise"),
        (
            tree_from_levels(6, [[((1,), np.arange(0, 4)), ((2,), np.arange(2, 6))]]),
            "S-way trees must not have overlapping groups",
        ),
    ],
    ids=["deep", "overlapping"],
)
def test_sway_partition_messages_hold_on_every_call(second, message):
    # every call raises the same message
    first = tree_from_levels(6, [[((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))]])
    forest = ClassificationForest(n=6, trees=(first, second))
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oracle_sway_weights(forest, np.arange(6) % 2 == 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            da_sway_weights(forest, np.linspace(0.1, 0.9, 6), 0.5)
    valid = ClassificationForest(n=6, trees=(first, first))
    assert (da_sway_weights(valid, np.linspace(0.1, 0.9, 6), 0.5) > 0).all()


def test_sway_uncovered_tree_cannot_be_built():
    # every tree covers 0..n-1, so S-way weights need no check of their own
    with pytest.raises(ValueError, match=r"^children of \(\) do not cover the parent$"):
        tree_from_levels(6, [[((1,), np.arange(0, 2)), ((2,), np.arange(3, 6))]])


class TestOracleGeneralized:
    def test_single_tree_equals_hier(self):
        tree = ten_hypothesis_tree()
        forest = ClassificationForest(n=10, trees=(tree,))
        assert (
            oracle_gen_weights(forest, TEN_TRUTH)
            == oracle_hier_weights(tree, TEN_TRUTH)
        ).all()

    def test_duplicate_trees_equal_per_tree(self):
        tree = ten_hypothesis_tree()
        forest = ClassificationForest(n=10, trees=(tree, tree))
        assert np.allclose(
            oracle_gen_weights(forest, TEN_TRUTH),
            oracle_hier_weights(tree, TEN_TRUTH),
            rtol=1e-12,
        )

    def test_condition1_two_distinct_trees(self):
        t1 = ten_hypothesis_tree()
        t2 = tree_from_levels(10, [[((1,), np.arange(0, 7)), ((2,), np.arange(5, 10))]])
        forest = ClassificationForest(n=10, trees=(t1, t2))
        w = oracle_gen_weights(forest, TEN_TRUTH)
        assert math.fsum(1.0 / w[TEN_TRUTH]) == pytest.approx(10.0, rel=1e-12)

    def test_group_without_nulls_gives_zero_weight_without_a_warning(self):
        # group (1,) of tree 0 holds no null: its weights there are 0, whose
        # 1/0 in the sum over trees is +inf, so they are 0 in the forest too
        first = tree_from_levels(8, [[((1,), np.arange(0, 4)), ((2,), np.arange(4, 8))]])
        second = tree_from_levels(8, [[((1,), np.arange(0, 8, 2)), ((2,), np.arange(1, 8, 2))]])
        is_null = np.array([0, 0, 0, 0, 1, 1, 0, 1], dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = oracle_gen_weights(ClassificationForest(n=8, trees=(first, second)), is_null)
        assert w[:4].tolist() == [0.0] * 4 and (w[4:] > 0.0).all() and np.isfinite(w).all()
        assert math.fsum(1.0 / w[is_null]) == pytest.approx(8.0, rel=1e-12)


# p-values for the worked data-adaptive case: group 1 (n=4, R=2 at
# lambda=0.5, so n_hat0 = 6) and group 2 (n=6, R=3, so n_hat0 = 8)
DA_PVALUES = np.array([0.01, 0.2, 0.6, 0.8, 0.05, 0.3, 0.45, 0.55, 0.7, 0.95])


class TestStorey:
    def test_worked_value(self):
        n_hat0 = storey_null_estimate(np.array([0.01, 0.2, 0.6, 0.8]), 0.5)
        assert n_hat0 == pytest.approx(6.0)

    def test_all_small_pvalues_stay_positive(self):
        n_hat0 = storey_null_estimate(np.full(9, 0.1), 0.5)
        assert n_hat0 == pytest.approx(1.0 / (1.0 - 0.5))

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.2, 1.5])
    def test_lambda_range(self, lam):
        with pytest.raises(ValueError):
            storey_null_estimate(np.array([0.5]), lam)


class TestDAFlat:
    def test_worked_point_fifty_six(self):
        p = np.concatenate([np.full(19, 0.4), np.full(6, 0.9)])
        w = da_flat_weights(p, 0.5)
        assert w[0] == 0.56
        assert (w == 0.56).all()


class TestDAHier:
    def test_two_group_chain_and_unit_prefactor(self):
        tree = ten_hypothesis_tree()
        eff = da_hier_effects(tree, DA_PVALUES, 0.5)
        assert eff[(1,)] == pytest.approx(1.2, rel=1e-12)
        assert eff[(2,)] == pytest.approx(1.6, rel=1e-12)
        # (6/1.2 + 8/1.6) / 10 = 1, so the weights are the raw effects
        w = da_hier_weights(tree, DA_PVALUES, 0.5)
        assert np.allclose(w[:4], 1.2, rtol=1e-12)
        assert np.allclose(w[4:], 1.6, rtol=1e-12)

    def test_depth0_equals_flat(self):
        assert (
            da_hier_weights(flat_tree(10), DA_PVALUES, 0.5)
            == da_flat_weights(DA_PVALUES, 0.5)
        ).all()

    def test_lambda_crossing_raises_weights(self):
        tree = ten_hypothesis_tree()
        base = da_hier_weights(tree, DA_PVALUES, 0.5)
        bumped = DA_PVALUES.copy()
        bumped[1] = 0.6  # 0.2 -> 0.6 crosses lambda, R drops by one
        after = da_hier_weights(tree, bumped, 0.5)
        assert (after[:4] > base[:4]).all()

    def test_perturbation_above_lambda_is_inert(self):
        tree = ten_hypothesis_tree()
        base = da_hier_weights(tree, DA_PVALUES, 0.5)
        bumped = DA_PVALUES.copy()
        bumped[2] = 0.99  # stays above lambda
        assert (da_hier_weights(tree, bumped, 0.5) == base).all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            da_hier_weights(ten_hypothesis_tree(), DA_PVALUES[:-1], 0.5)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("max_overlap", [0.0, 0.3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_da_hier_weights_assemble_the_leaf_effects(depth, max_overlap, lam):
    # the leaves-only weight path equals the whole-tree effects of
    # da_hier_effects, restricted to the leaves and assembled, bit for bit
    rng = np.random.default_rng(depth * 100 + int(lam * 10))
    for _ in range(5):
        tree = random_tree(rng, n=int(rng.integers(12, 300)), depth=depth, max_overlap=max_overlap)
        p = rng.uniform(size=tree.n)
        leaves = tree.leaves.tolist()
        effects = da_hier_effects(tree, p, lam)
        leaf_effects = np.array([effects[tree.paths[k]] for k in leaves])
        nhat = np.array([storey_null_estimate(p[tree.members(k)], lam) for k in leaves])
        expected = _assemble(tree.n, tree.leaf_rows(), tree.sizes[leaves], leaf_effects, nhat)
        assert np.array_equal(da_hier_weights(tree, p, lam), expected)


def depth_two_disjoint_tree():
    """Two level-1 groups of 4, each split into two leaves of 2 (N = 8)."""
    level1 = [((1,), np.arange(0, 4)), ((2,), np.arange(4, 8))]
    level2 = [
        ((1, 1), np.arange(0, 2)),
        ((1, 2), np.arange(2, 4)),
        ((2, 1), np.arange(4, 6)),
        ((2, 2), np.arange(6, 8)),
    ]
    return tree_from_levels(8, [level1, level2])


class TestAncestorModes:
    """An ancestor's null count in the adaptive chain is m_l times its
    descendant's, which keeps every weight monotone in every p-value."""

    P = np.array([0.4, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])

    def test_recursive_mode_is_monotone_on_same_case(self):
        tree = depth_two_disjoint_tree()
        before = da_hier_weights(tree, self.P, 0.5)
        bumped = self.P.copy()
        bumped[0] = 0.6
        after = da_hier_weights(tree, bumped, 0.5)
        assert (after >= before - 1e-12).all()

    def test_depth_one_effects_match_closed_form(self):
        # w_hat_g = (n_hat0_g / N) * m_1 with n_hat0_g = (n_g - R_g + 1) / (1 - lambda)
        tree = ten_hypothesis_tree()
        eff = da_hier_effects(tree, DA_PVALUES, 0.5)
        for path, members in (((1,), slice(0, 4)), ((2,), slice(4, 10))):
            p = DA_PVALUES[members]
            nhat = (p.size - int((p <= 0.5).sum()) + 1) / 0.5
            assert eff[path] == pytest.approx(nhat / 10 * 2, rel=1e-12)


class TestDASway:
    def test_two_by_two_marginal(self):
        # row 1 has p = (0.01, 0.9): R = 1, so its marginal effect is
        # (2 - 1 + 1) / (4 * 0.5) * 2 = 2
        forest = forest_from_grid((2, 2))
        p = np.array([0.01, 0.9, 0.6, 0.7])
        w = da_sway_weights(forest, p, 0.5)
        col1 = (2 - 1 + 1) / (4 * 0.5) * 2  # p = (0.01, 0.6): R = 1
        col2 = (2 - 0 + 1) / (4 * 0.5) * 2  # p = (0.9, 0.7): R = 0
        row1 = 2.0
        assert w[0] == pytest.approx(2.0 / (1.0 / row1 + 1.0 / col1), rel=1e-12)
        assert w[1] == pytest.approx(2.0 / (1.0 / row1 + 1.0 / col2), rel=1e-12)

    def test_equal_marginals_collapse(self):
        forest = forest_from_grid((2, 2))
        p = np.array([0.6, 0.6, 0.6, 0.6])
        w = da_sway_weights(forest, p, 0.5)
        assert np.allclose(w, w[0])


class TestDAGeneralized:
    def test_single_tree_equals_hier(self):
        tree = ten_hypothesis_tree()
        forest = ClassificationForest(n=10, trees=(tree,))
        assert np.allclose(
            da_gen_weights(forest, DA_PVALUES, 0.5),
            da_hier_weights(tree, DA_PVALUES, 0.5),
            rtol=1e-12,
        )

    def test_harmonic_mean_of_two_trees(self):
        t1 = ten_hypothesis_tree()
        t2 = tree_from_levels(10, [[((1,), np.arange(0, 7)), ((2,), np.arange(5, 10))]])
        forest = ClassificationForest(n=10, trees=(t1, t2))
        w1 = da_hier_weights(t1, DA_PVALUES, 0.5)
        w2 = da_hier_weights(t2, DA_PVALUES, 0.5)
        expected = 2.0 / (1.0 / w1 + 1.0 / w2)
        assert np.allclose(da_gen_weights(forest, DA_PVALUES, 0.5), expected, rtol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=50), st.floats(0.05, 0.95))
def test_flat_adaptive_weight_formula(pvals, lam):
    p = np.array(pvals)
    r = int((p <= lam).sum())
    w = da_flat_weights(p, lam)
    assert w[0] == pytest.approx((p.size - r + 1) / (p.size * (1.0 - lam)))
    assert (w > 0).all()


class TestInputChecks:
    """Vectors of the wrong length, p-values outside [0, 1], forests without
    trees and out-of-range group members raise ValueError."""

    @pytest.mark.parametrize("size", [8, 12])
    def test_truth_length_must_match(self, size):
        tree = ten_hypothesis_tree()
        forest = ClassificationForest(n=10, trees=(tree,))
        truth = np.arange(size) % 3 == 0
        calls = [
            lambda: oracle_hier_weights(tree, truth),
            lambda: oracle_hier_effects(tree, truth),
            lambda: oracle_gen_weights(forest, truth),
            lambda: oracle_sway_weights(forest, truth),
            lambda: oracle_overlap_oneway_weights(10, [np.arange(10)], np.array([1.0]), truth),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="length"):
                call()

    @pytest.mark.parametrize("size", [5, 11])
    def test_pvalue_length_must_match(self, size):
        p = np.linspace(0.05, 0.95, size)
        forest = forest_from_grid((2, 5))
        calls = [
            lambda: da_hier_weights(flat_tree(10), p, 0.5),
            lambda: da_hier_weights(ten_hypothesis_tree(), p, 0.5),
            lambda: da_hier_effects(ten_hypothesis_tree(), p, 0.5),
            lambda: da_gen_weights(forest, p, 0.5),
            lambda: da_sway_weights(forest, p, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="length"):
                call()

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5])
    def test_adaptive_weights_reject_pvalues_outside_unit_interval(self, bad):
        p = np.linspace(0.05, 0.95, 10)
        p[3] = bad
        forest = forest_from_grid((2, 5))
        calls = [
            lambda: storey_null_estimate(p, 0.5),
            lambda: da_flat_weights(p, 0.5),
            lambda: da_hier_weights(flat_tree(10), p, 0.5),
            lambda: da_hier_weights(ten_hypothesis_tree(), p, 0.5),
            lambda: da_hier_effects(ten_hypothesis_tree(), p, 0.5),
            lambda: da_gen_weights(forest, p, 0.5),
            lambda: da_sway_weights(forest, p, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                call()

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_adaptive_weights_reject_lambda_outside_unit_interval(self, lam):
        p = np.linspace(0.05, 0.95, 10)
        forest = forest_from_grid((2, 5))
        calls = [
            lambda: storey_null_estimate(p, lam),
            lambda: da_flat_weights(p, lam),
            lambda: da_hier_weights(flat_tree(10), p, lam),
            lambda: da_hier_weights(ten_hypothesis_tree(), p, lam),
            lambda: da_hier_effects(ten_hypothesis_tree(), p, lam),
            lambda: da_gen_weights(forest, p, lam),
            lambda: da_sway_weights(forest, p, lam),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="lambda"):
                call()

    def test_forest_without_trees(self):
        # no weight function sees such a forest: it cannot be built
        with pytest.raises(ValueError, match="^forest must contain at least one tree$"):
            ClassificationForest(n=10, trees=())

    def test_no_hypotheses_give_empty_weights(self):
        # N = 0: every weight entry point returns an empty array, with no
        # ZeroDivisionError and no RuntimeWarning
        none, p = np.zeros(0, dtype=bool), np.zeros(0)
        root = flat_tree(0)
        forest = ClassificationForest(n=0, trees=(root, root))
        partition = tree_from_levels(0, [[((1,), [])]])
        partitions = ClassificationForest(n=0, trees=(partition, partition))
        calls = [
            lambda: oracle_flat_weights(none),
            lambda: oracle_overlap_oneway_weights(0, [], [], none),
            lambda: oracle_hier_weights(root, none),
            lambda: oracle_sway_weights(partitions, none),
            lambda: oracle_gen_weights(forest, none),
            lambda: da_flat_weights(p, 0.5),
            lambda: da_hier_weights(root, p, 0.5),
            lambda: da_sway_weights(partitions, p, 0.5),
            lambda: da_gen_weights(forest, p, 0.5),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                w = call()
                assert w.shape == (0,) and w.dtype == float

    def test_effects_of_a_tree_with_no_members(self):
        # every row of a tree without members starts at the end of its member array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle_hier_effects(flat_tree(0), []) == {(): 0.0}
            assert da_hier_effects(flat_tree(0), [], 0.5) == {(): 2.0}

    @pytest.mark.parametrize("outside", [10, -1])
    def test_oneway_rejects_members_outside_range(self, outside):
        groups = [np.arange(10), np.array([0, outside])]
        with pytest.raises(ValueError, match=r"\[0, 10\)"):
            oracle_overlap_oneway_weights(10, groups, np.ones(2), TEN_TRUTH)


# The literal forms of weights._leaf_terms and weights._divide, which the
# weights used before each became one division and a patch of its few
# special cells; the weights must keep their bits.


def _reference_leaf_terms(leaf_effects, leaf_null_mass):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / leaf_effects
        terms = np.where((leaf_null_mass > 0.0) & ~np.isinf(leaf_effects), leaf_null_mass / leaf_effects, 0.0)
    return inv, terms


def _reference_divide(norm, inv_sum):
    out = np.full(inv_sum.size, math.inf)
    out[np.isinf(inv_sum)] = 0.0
    return np.divide(norm, inv_sum, out=out, where=~np.isinf(inv_sum) & (inv_sum != 0.0))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype == np.float64 and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_leaf_terms_and_divide_keep_their_bits():
    rng = np.random.default_rng(23)
    for _ in range(300):
        size = int(rng.integers(0, 12))
        effects = rng.uniform(0.01, 5.0, size)
        effects[rng.uniform(size=size) < 0.2] = 0.0
        effects[rng.uniform(size=size) < 0.2] = math.inf
        mass = rng.integers(0, 4, size)  # oracle null counts are int64
        inv_sum = rng.uniform(0.0, 3.0, size)
        inv_sum[rng.uniform(size=size) < 0.2] = 0.0
        inv_sum[rng.uniform(size=size) < 0.2] = math.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            for null_mass in (mass, mass * rng.uniform(0.5, 2.0, size)):
                got, want = weights._leaf_terms(effects, null_mass), _reference_leaf_terms(effects, null_mass)
                assert all(map(_same_bits, got, want))
            norms = (0.0, 0.3, math.inf, rng.choice([0.0, 0.3, math.inf], size))
            for norm in norms:
                assert _same_bits(weights._divide(norm, inv_sum), _reference_divide(norm, inv_sum))


def _weight_vectors(structures):
    """Every weight vector that _leaf_terms and _divide take part in, on
    each (tree, truth, p-values), at lambda 0.5."""
    out = []
    for tree, truth, p in structures:
        out += [oracle_hier_weights(tree, truth), da_hier_weights(tree, p, 0.5), *weights._da_leaf_loo(tree, p, 0.5)]
        if tree.n and tree.depth:
            effects = np.linspace(0.5, 2.0, tree.leaves.size)
            out.append(oracle_overlap_oneway_weights(tree.n, [tree.members(k) for k in tree.leaves], effects, truth))
    return out


def test_weights_keep_their_bits(monkeypatch):
    # truths with no margin, so that some groups hold only nulls (effect
    # +inf) or none (effect 0); depth 0, and N = 0
    rng = np.random.default_rng(29)
    trees = [random_tree(rng, depth=int(rng.integers(0, 4)), n=int(rng.integers(10, 60))) for _ in range(150)]
    trees += [flat_tree(0), flat_tree(9), tree_from_levels(0, [[((1,), [])]])]
    structures = [(t, rng.uniform(size=t.n) < rng.uniform(0.1, 0.9), rng.uniform(size=t.n)) for t in trees]
    got = _weight_vectors(structures)
    monkeypatch.setattr(weights, "_leaf_terms", _reference_leaf_terms)
    monkeypatch.setattr(weights, "_divide", _reference_divide)
    want = _weight_vectors(structures)
    assert len(got) == len(want) and all(map(_same_bits, got, want))
    assert any(np.isinf(w).any() for w in want) and any((w == 0.0).any() for w in want)

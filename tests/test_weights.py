import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupedbh.classification import (
    ClassificationForest,
    flat_tree,
    forest_from_grid,
    tree_from_levels,
)
from groupedbh.identities import _alternate_hier_effects
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

    def test_rejects_nonpositive_effects(self):
        with pytest.raises(ValueError, match="positive"):
            oracle_overlap_oneway_weights(
                3, [np.arange(3)], np.array([0.0]), np.ones(3, dtype=bool)
            )


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


# p-values for the worked data-adaptive case: group 1 (n=4, R=2 at
# lambda=0.5, so n_hat0 = 6) and group 2 (n=6, R=3, so n_hat0 = 8)
DA_PVALUES = np.array([0.01, 0.2, 0.6, 0.8, 0.05, 0.3, 0.45, 0.55, 0.7, 0.95])


class TestStorey:
    def test_worked_value(self):
        est = storey_null_estimate(np.array([0.01, 0.2, 0.6, 0.8]), 0.5)
        assert est.r_lambda == 2
        assert est.n_hat0 == pytest.approx(6.0)

    def test_all_small_pvalues_stay_positive(self):
        est = storey_null_estimate(np.full(9, 0.1), 0.5)
        assert est.n_hat0 == pytest.approx(1.0 / (1.0 - 0.5))

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
    """The two ways of filling in internal-node null-count estimates."""

    P = np.array([0.4, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9])

    def test_direct_matches_per_node_storey_chain(self):
        tree = depth_two_disjoint_tree()
        p = self.P
        eff = da_hier_effects(tree, p, 0.5, ancestor_mode="direct")
        n = 8

        def nhat(idx):
            r = int((p[idx] <= 0.5).sum())
            return (len(idx) - r + 1) / 0.5

        pi0_hat = nhat(np.arange(8)) / n
        for g1 in (1, 2):
            parent = np.arange(0, 4) if g1 == 1 else np.arange(4, 8)
            assert eff[(g1,)] == pytest.approx(nhat(parent) / n * 2, rel=1e-12)
            for g2 in (1, 2):
                leaf = parent[:2] if g2 == 1 else parent[2:]
                expected = pi0_hat * (nhat(leaf) / nhat(parent)) * 2
                assert eff[(g1, g2)] == pytest.approx(expected, rel=1e-12)

    def test_direct_mode_is_not_monotone_at_depth_two(self):
        # raising p_0 past lambda shrinks the cousin leaf's weight because
        # its parent's estimated null count grows in the denominator
        tree = depth_two_disjoint_tree()
        before = da_hier_weights(tree, self.P, 0.5, ancestor_mode="direct")
        bumped = self.P.copy()
        bumped[0] = 0.6
        after = da_hier_weights(tree, bumped, 0.5, ancestor_mode="direct")
        assert before[2] == pytest.approx(3.375)
        assert after[2] == pytest.approx(3.0)
        assert after[2] < before[2]

    def test_recursive_mode_is_monotone_on_same_case(self):
        tree = depth_two_disjoint_tree()
        before = da_hier_weights(tree, self.P, 0.5)
        bumped = self.P.copy()
        bumped[0] = 0.6
        after = da_hier_weights(tree, bumped, 0.5)
        assert (after >= before - 1e-12).all()

    def test_modes_agree_at_depth_one(self):
        tree = ten_hypothesis_tree()
        a = da_hier_weights(tree, DA_PVALUES, 0.5, ancestor_mode="recursive")
        b = da_hier_weights(tree, DA_PVALUES, 0.5, ancestor_mode="direct")
        assert np.allclose(a, b, rtol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="ancestor_mode"):
            da_hier_effects(depth_two_disjoint_tree(), self.P, 0.5, ancestor_mode="x")


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

"""P-value weights for grouped Benjamini-Hochberg procedures.

Oracle weights assume the per-group null proportions are known and satisfy
the normalization sum over true nulls of 1/W_i = N exactly, which is what
makes the weighted step-up control FDR. Data-adaptive weights replace the
null counts with Storey-type estimates (n - R(lambda) + 1) / (1 - lambda).

Extended-real conventions for degenerate oracle groups: a group whose
members are all null gets effect +inf (its members are never rejected
through that lineage); a group with no nulls gets effect 0 (its members'
weighted p-values collapse to 0). A globally degenerate truth (all null or
none null) yields the constant weight 1.0 resp. 0.0.
"""

from __future__ import annotations

import math

import numpy as np

from .classification import ClassificationForest, HierTree, _as_index_array, _size
from .stepup import _check_level, _pvalues, _truth


def _assemble(
    n: int,
    rows: np.ndarray,
    sizes: np.ndarray,
    leaf_effects: np.ndarray,
    leaf_null_mass: np.ndarray,
) -> np.ndarray:
    """Turn per-leaf effects into per-hypothesis weights.

    ``rows`` lists every leaf's members, leaf after leaf, and ``sizes`` the
    leaf sizes. W_i = A / sum_{leaves containing i} 1/w_leaf, where the
    normalizer A = (1/N) * sum_leaves (null mass)/w_leaf makes Condition 1
    hold for the null mass used (exact counts for oracle, estimates for
    adaptive). A leaf with w = 0 zeroes its members' weights; one with
    w = +inf adds nothing, so members of no other leaf get +inf. Only
    oracle effects can be 0 or +inf: their caller silences the warnings.
    """
    inv, terms = _leaf_terms(leaf_effects, leaf_null_mass)
    inv_sum = np.bincount(rows, weights=np.repeat(inv, sizes), minlength=n)
    return _divide(math.fsum(terms) / max(n, 1), inv_sum)


def _leaf_terms(leaf_effects: np.ndarray, leaf_null_mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each leaf's 1/w and its normalizer term (null mass)/w, which is 0 for
    a leaf with no null mass or w = +inf: such a leaf adds nothing to A."""
    terms = leaf_null_mass / leaf_effects  # 0 where w = +inf, as the null mass is finite
    terms[leaf_null_mass == 0.0] = 0.0  # also where w = 0, which gave 0 / 0
    return 1.0 / leaf_effects, terms


def _divide(norm, inv_sum: np.ndarray) -> np.ndarray:
    """W = norm / inv_sum: 0 where inv_sum is +inf, +inf where it is 0."""
    weights = norm / inv_sum
    nan = np.isnan(weights)  # inf / inf or 0 / 0: neither norm nor inv_sum is nan
    if nan.any():
        weights[nan] = np.where(np.isinf(inv_sum[nan]), 0.0, math.inf)
    return weights


def _pi0(is_null: np.ndarray) -> float:
    """Share of true nulls; 0.0 when there are no hypotheses."""
    return np.count_nonzero(is_null) / max(is_null.size, 1)


def _inverse_sum(vectors) -> np.ndarray:
    """Sum of 1/W over the trees' weight vectors, added tree by tree; a zero
    weight, which oracle weights can hold, adds +inf."""
    return sum(1.0 / weights for weights in vectors)


def _check_partitions(forest: ClassificationForest) -> None:
    """The S-way precondition: every tree is a depth-1 partition, i.e. a
    valid depth-1 tree whose leaves hold n members in all."""
    for tree in forest.trees:
        if tree.depth != 1:
            raise ValueError("S-way weights need depth-1 trees; use the generalized form otherwise")
        if tree.leaf_rows().size != forest.n:
            raise ValueError("S-way trees must not have overlapping groups")


# ---------------------------------------------------------------------------
# oracle weights


def oracle_flat_weights(is_null: np.ndarray) -> np.ndarray:
    """Constant weight pi0 = (#nulls)/N for every hypothesis."""
    is_null = _truth(is_null)
    return np.full(is_null.size, _pi0(is_null))


def oracle_overlap_oneway_weights(
    n: int,
    groups: list[np.ndarray],
    group_effects: np.ndarray,
    is_null: np.ndarray,
) -> np.ndarray:
    """Weights for one-way classification with overlapping groups.

    Any positive per-group effect w_g is admissible; the assembly
    renormalizes so that the sum of inverse weights over true nulls is N,
    so the effects' common power of two is taken out first, bit for bit;
    effects for which a 1/w_g, a normalizer term or a weight overflows raise ValueError.
    """
    n = _size(n)
    is_null = _truth(is_null, n)
    group_effects = np.asarray(group_effects, dtype=float)
    if group_effects.shape != (len(groups),):
        raise ValueError("one effect per group required")
    if (group_effects <= 0).any() or not np.isfinite(group_effects).all():
        raise ValueError("group effects must be finite and positive")
    members = [_as_index_array(g) for g in groups]
    rows = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    if ((rows < 0) | (rows >= n)).any():
        raise ValueError(f"group members must lie in [0, {n})")
    if not np.bincount(rows, minlength=n).all():
        raise ValueError("every hypothesis must belong to at least one group")
    n0_g = np.array([is_null[mem].sum() for mem in members], dtype=float)
    if members:  # 2**k on every effect scales each 1/w_g, normalizer term and sum exactly: the weights keep their bits
        e = np.frexp(group_effects)[1]
        group_effects = np.ldexp(group_effects, -((e.min() + e.max()) // 2))
    try:
        with np.errstate(over="raise"):
            return _assemble(n, rows, [mem.size for mem in members], group_effects, n0_g)
    except (FloatingPointError, OverflowError):  # OverflowError: from math.fsum, for the normalizer
        raise ValueError("group effects out of range: a 1/w_g, a normalizer term or a weight overflows") from None


def _oracle_effects(tree: HierTree, is_null: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node effects and null counts. The root holds the global null
    proportion pi0; below it w_l = pi0 (1 - pi0) r_l / w_{l-1} with the
    null odds r_l = pi0_l / (1 - pi0_l), and r_l in {0, +inf} passes
    straight through as the effect."""
    n0 = tree.counts(is_null)
    pi0 = _pi0(is_null)
    effects = np.empty(n0.size)
    effects[0] = pi0
    with np.errstate(divide="ignore", invalid="ignore"):
        pi0_g = n0 / tree.sizes
        r = pi0_g / (1.0 - pi0_g)
        for s in tree.levels:
            chained = pi0 * (1.0 - pi0) * (r[s] / effects[tree.parent[s]])
            effects[s] = np.where((r[s] == 0.0) | np.isinf(r[s]), r[s], chained)
    return effects, n0


def oracle_hier_effects(tree: HierTree, is_null: np.ndarray) -> dict[tuple[int, ...], float]:
    """Per-node grouping effects w_{g1...gl} under known truth, by the
    forward recursion w_l = pi0 (1 - pi0) r_l / w_{l-1} with
    r_l = pi0_l / (1 - pi0_l), seeded at the root with the global null
    proportion."""
    return dict(zip(tree.paths, _oracle_effects(tree, _truth(is_null, tree.n))[0].tolist()))


def oracle_hier_weights(tree: HierTree, is_null: np.ndarray) -> np.ndarray:
    """Hierarchically grouped oracle weights (overlap-aware)."""
    is_null = _truth(is_null, tree.n)
    pi0 = _pi0(is_null)
    if pi0 == 0.0 or pi0 == 1.0 or tree.depth == 0:
        return np.full(tree.n, pi0)
    effects, n0 = _oracle_effects(tree, is_null)
    leaves = tree.leaves
    with np.errstate(divide="ignore", invalid="ignore"):
        return _assemble(tree.n, tree.leaf_rows(), tree.sizes[leaves], effects[leaves], n0[leaves])


def oracle_sway_weights(forest: ClassificationForest, is_null: np.ndarray) -> np.ndarray:
    """Simultaneous S-way oracle weights: the generalized weights of a
    forest whose trees are depth-1, non-overlapping partitions, i.e. the
    per-cell harmonic mean of the marginal group effects."""
    _check_partitions(forest)
    return oracle_gen_weights(forest, is_null)


def oracle_gen_weights(forest: ClassificationForest, is_null: np.ndarray) -> np.ndarray:
    """Generalized oracle weights: harmonic mean over trees of the per-tree
    hierarchical weights."""
    is_null = _truth(is_null, forest.n)
    with np.errstate(divide="ignore"):
        return 1.0 / (_inverse_sum(oracle_hier_weights(tree, is_null) for tree in forest.trees) / forest.s_count)


# ---------------------------------------------------------------------------
# data-adaptive weights


def storey_null_estimate(pvalues: np.ndarray, lam: float) -> float:
    """Storey-type null count estimate for one group of p-values,
    n_hat0 = (n - R(lambda) + 1) / (1 - lambda); always positive."""
    _check_level("lambda", lam)
    pvalues = _pvalues(pvalues, np.size(pvalues))
    r = int(np.count_nonzero(pvalues <= lam))
    return (pvalues.size - r + 1) / (1.0 - lam)


def da_flat_weights(pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Adaptive BH weight: the flat Storey estimate of pi0 for every i."""
    pvalues = np.asarray(pvalues, dtype=float)
    return np.full(pvalues.size, storey_null_estimate(pvalues, lam) / max(pvalues.size, 1))


def _da_effects(
    tree: HierTree, pvalues: np.ndarray, lam: float, first: int = 0, extra: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated effects and Storey null counts of the nodes first,
    first + 1, ... to the last leaf, with each node's R(lambda) raised by
    ``extra``; see :func:`da_hier_effects`."""
    _check_level("lambda", lam)
    n, up = max(tree.n, 1), tree.parent[first:]  # max: no division by zero at N = 0
    nhat = (tree.sizes[first:] + (1 - extra) - tree.counts(pvalues <= lam, first)) / (1.0 - lam)
    effects = nhat * tree.mult[up] * tree.m[up] / n
    if first == 0:
        effects[0] = nhat[0] / n  # the root has no parent
    return effects, nhat


def da_hier_effects(tree: HierTree, pvalues: np.ndarray, lam: float) -> dict[tuple[int, ...], float]:
    """Estimated grouping effects w_hat along the tree: the estimated pi0
    at the root, w_hat = n_hat0 * (product of branching factors) / N below.

    This is the chain w_hat_{g1} = (n_hat0_{g1}/N) m_1, w_hat_l =
    w_hat_{l-2} * (n_hat0_l / n_hat0_{l-1}) * m_l with an ancestor's count
    taken as m_l times its descendant's, along each leaf's own lineage. That
    choice keeps every weight a non-decreasing function of every p-value,
    which the adaptive FDR guarantee rests on.
    """
    return dict(zip(tree.paths, _da_effects(tree, _pvalues(pvalues, tree.n), lam)[0].tolist()))


def _da_leaf_weights(tree: HierTree, pvalues: np.ndarray, lam: float) -> np.ndarray:
    """:func:`da_hier_weights` on checked p-values, from the leaves' effects
    alone."""
    effects, nhat = _da_effects(tree, pvalues, lam, int(tree.leaves[0]))
    if tree.depth == 0 or tree.n == 0:
        return np.full(tree.n, effects[0])  # the flat Storey estimate of pi0
    return _assemble(tree.n, tree.leaf_rows(), tree.sizes[tree.leaves], effects, nhat)


def _da_leaf_loo(tree: HierTree, pvalues: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_da_leaf_weights`, and for every i the weight
    W_i(P with P_i = 0)[i] of the leave-one-out bound, in one pass.

    Setting P_i = 0 changes something only when p_i > lambda, and then only
    in the leaves containing i: their R(lambda) rises by one. So row i sums
    its leaves' 1/w, raised or not, in the order :func:`_assemble` sums
    them, and its normalizer is one fsum over every leaf's term with its
    own leaves' terms raised. Both vectors are the bits that running the
    weights on P, resp. on P with P_i = 0, gives. It holds an N x leaves
    membership table: it is meant for the identity sweep's small trees.
    """
    first = int(tree.leaves[0])
    effects, nhat = _da_effects(tree, pvalues, lam, first)
    raised, raised_nhat = _da_effects(tree, pvalues, lam, first, extra=1)
    drop = pvalues > lam
    if tree.depth == 0 or tree.n == 0:
        return np.full(tree.n, effects[0]), np.where(drop, raised[0], effects[0])
    n, rows, sizes = tree.n, tree.leaf_rows(), tree.sizes[tree.leaves]
    leaf = np.repeat(np.arange(sizes.size), sizes)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv, terms = _leaf_terms(effects, nhat)
        raised_inv, raised_terms = _leaf_terms(raised, raised_nhat)
        inv_sum = np.bincount(rows, weights=inv[leaf], minlength=n)
        loo_inv_sum = np.bincount(rows, weights=np.where(drop[rows], raised_inv[leaf], inv[leaf]), minlength=n)
        in_leaf = np.zeros((n, sizes.size), dtype=bool)
        in_leaf[rows, leaf] = True
        norm = math.fsum(terms) / n
        loo_norm = np.full(n, norm)
        loo_norm[drop] = [math.fsum(row) / n for row in np.where(in_leaf[drop], raised_terms, terms).tolist()]
        return _divide(norm, inv_sum), _divide(loo_norm, loo_inv_sum)


def da_hier_weights(tree: HierTree, pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Data-adaptive hierarchically grouped weights (overlap-aware)."""
    return _da_leaf_weights(tree, _pvalues(pvalues, tree.n), lam)


def da_sway_weights(forest: ClassificationForest, pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Data-adaptive S-way weights: the generalized adaptive weights of a
    forest of depth-1, non-overlapping partitions, i.e. the harmonic mean
    over classifications of the estimated marginal effects."""
    _check_partitions(forest)
    return da_gen_weights(forest, pvalues, lam)


def da_gen_weights(forest: ClassificationForest, pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Data-adaptive generalized weights: harmonic mean over trees of the
    per-tree hierarchical weights."""
    pvalues = _pvalues(pvalues, forest.n)
    return forest.s_count / _inverse_sum(_da_leaf_weights(tree, pvalues, lam) for tree in forest.trees)

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
from dataclasses import dataclass

import numpy as np

from .classification import ClassificationForest, HierTree, _as_index_array, _compile, _CompiledTree


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
    w = +inf adds nothing, so members of no other leaf get +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / leaf_effects
        terms = leaf_null_mass / leaf_effects
    inv_sum = np.bincount(rows, weights=np.repeat(inv, sizes), minlength=n)
    norm = math.fsum(terms[(leaf_null_mass > 0.0) & ~np.isinf(leaf_effects)]) / n
    weights = np.full(n, math.inf)
    weights[np.isinf(inv_sum)] = 0.0
    finite = ~np.isinf(inv_sum) & (inv_sum != 0.0)
    weights[finite] = norm / inv_sum[finite]
    return weights


def _leaf_weights(c: _CompiledTree, effects: np.ndarray, null_mass: np.ndarray) -> np.ndarray:
    return _assemble(c.n, c.leaf_rows(), c.sizes[c.leaves], effects[c.leaves], null_mass[c.leaves])


def _by_path(c: _CompiledTree, effects: np.ndarray) -> dict[tuple[int, ...], float]:
    return dict(zip((node.path for node in c.nodes), effects.tolist()))


def _check_partitions(forest: ClassificationForest) -> None:
    """The S-way precondition: every tree is a depth-1 partition."""
    for tree in forest.trees:
        if tree.depth != 1:
            raise ValueError("S-way weights need depth-1 trees; use the generalized form otherwise")
        hits = np.bincount(np.concatenate([leaf.members for leaf in tree.leaves]), minlength=forest.n)
        if (hits > 1).any():
            raise ValueError("S-way trees must not have overlapping groups")
        if (hits == 0).any():
            raise ValueError("every hypothesis must belong to a group in each tree")


# ---------------------------------------------------------------------------
# oracle weights


def oracle_flat_weights(is_null: np.ndarray) -> np.ndarray:
    """Constant weight pi0 = (#nulls)/N for every hypothesis."""
    is_null = np.asarray(is_null, dtype=bool)
    pi0 = is_null.mean()
    return np.full(is_null.size, pi0)


def oracle_overlap_oneway_weights(
    n: int,
    groups: list[np.ndarray],
    group_effects: np.ndarray,
    is_null: np.ndarray,
) -> np.ndarray:
    """Weights for one-way classification with overlapping groups.

    Any positive per-group effect w_g is admissible; the assembly
    renormalizes so that the sum of inverse weights over true nulls is N.
    """
    is_null = np.asarray(is_null, dtype=bool)
    group_effects = np.asarray(group_effects, dtype=float)
    if len(groups) != group_effects.size:
        raise ValueError("one effect per group required")
    if (group_effects <= 0).any() or not np.isfinite(group_effects).all():
        raise ValueError("group effects must be finite and positive")
    members = [_as_index_array(g) for g in groups]
    rows = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    covered[rows] = True
    if not covered.all():
        raise ValueError("every hypothesis must belong to at least one group")
    n0_g = np.array([is_null[mem].sum() for mem in members], dtype=float)
    return _assemble(n, rows, [mem.size for mem in members], group_effects, n0_g)


def _oracle_effects(c: _CompiledTree, is_null: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-node effects and null counts. The root holds the global null
    proportion pi0; below it w_l = pi0 (1 - pi0) r_l / w_{l-1} with the
    null odds r_l = pi0_l / (1 - pi0_l), and r_l in {0, +inf} passes
    straight through as the effect."""
    n0 = c.counts(is_null)
    pi0 = float(is_null.mean())
    effects = np.empty(n0.size)
    effects[0] = pi0
    with np.errstate(divide="ignore", invalid="ignore"):
        pi0_g = n0 / c.sizes
        r = pi0_g / (1.0 - pi0_g)
        for s in c.levels:
            chained = pi0 * (1.0 - pi0) * (r[s] / effects[c.parent[s]])
            effects[s] = np.where((r[s] == 0.0) | np.isinf(r[s]), r[s], chained)
    return effects, n0


def oracle_hier_effects(tree: HierTree, is_null: np.ndarray) -> dict[tuple[int, ...], float]:
    """Per-node grouping effects w_{g1...gl} under known truth, by the
    forward recursion w_l = pi0 (1 - pi0) r_l / w_{l-1} with
    r_l = pi0_l / (1 - pi0_l), seeded at the root with the global null
    proportion."""
    c = _compile(tree)
    return _by_path(c, _oracle_effects(c, np.asarray(is_null, dtype=bool))[0])


def oracle_hier_weights(tree: HierTree, is_null: np.ndarray) -> np.ndarray:
    """Hierarchically grouped oracle weights (overlap-aware)."""
    is_null = np.asarray(is_null, dtype=bool)
    pi0 = float(is_null.mean())
    if pi0 == 0.0 or pi0 == 1.0 or tree.depth == 0:
        return np.full(tree.n, pi0)
    c = _compile(tree)
    return _leaf_weights(c, *_oracle_effects(c, is_null))


def oracle_sway_weights(forest: ClassificationForest, is_null: np.ndarray) -> np.ndarray:
    """Simultaneous S-way oracle weights: the generalized weights of a
    forest whose trees are depth-1, non-overlapping partitions, i.e. the
    per-cell harmonic mean of the marginal group effects."""
    _check_partitions(forest)
    return oracle_gen_weights(forest, is_null)


def oracle_gen_weights(forest: ClassificationForest, is_null: np.ndarray) -> np.ndarray:
    """Generalized oracle weights: harmonic mean over trees of the per-tree
    hierarchical weights."""
    is_null = np.asarray(is_null, dtype=bool)
    pi0 = float(is_null.mean())
    if pi0 == 0.0 or pi0 == 1.0:
        return np.full(forest.n, pi0)
    inv_acc = np.zeros(forest.n)
    with np.errstate(divide="ignore"):
        for tree in forest.trees:
            inv_acc += 1.0 / oracle_hier_weights(tree, is_null)
        return 1.0 / (inv_acc / forest.s_count)


# ---------------------------------------------------------------------------
# data-adaptive weights


@dataclass(frozen=True)
class NullCountEstimate:
    """Storey-type null count estimate for one group of p-values."""

    lam: float
    r_lambda: int
    n_hat0: float


def storey_null_estimate(pvalues: np.ndarray, lam: float) -> NullCountEstimate:
    """n_hat0 = (n - R(lambda) + 1) / (1 - lambda); always positive."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    pvalues = np.asarray(pvalues, dtype=float)
    r = int(np.count_nonzero(pvalues <= lam))
    return NullCountEstimate(lam=lam, r_lambda=r, n_hat0=(pvalues.size - r + 1) / (1.0 - lam))


def da_flat_weights(pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Adaptive BH weight: the flat Storey estimate of pi0 for every i."""
    pvalues = np.asarray(pvalues, dtype=float)
    est = storey_null_estimate(pvalues, lam)
    return np.full(pvalues.size, est.n_hat0 / pvalues.size)


def _da_effects(
    c: _CompiledTree, pvalues: np.ndarray, lam: float, ancestor_mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node estimated effects and Storey null counts; see
    :func:`da_hier_effects`."""
    if ancestor_mode not in ("recursive", "direct"):
        raise ValueError(f"unknown ancestor_mode {ancestor_mode!r}")
    if pvalues.size != c.n:
        raise ValueError("p-value vector length must equal the tree's n")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    n = c.n
    nhat = (c.sizes - c.counts(pvalues <= lam) + 1) / (1.0 - lam)
    effects = np.empty(nhat.size)
    effects[0] = nhat[0] / n
    if ancestor_mode == "recursive":
        up = c.parent[1:]
        effects[1:] = nhat[1:] * c.mult[up] * c.m[up] / n
        return effects, nhat
    for s in c.levels:
        up = c.parent[s]
        if s.start == 1:
            effects[s] = (nhat[s] / n) * c.m[up]
        else:
            effects[s] = effects[c.parent[up]] * (nhat[s] / nhat[up]) * c.m[up]
    return effects, nhat


def da_hier_effects(
    tree: HierTree,
    pvalues: np.ndarray,
    lam: float,
    ancestor_mode: str = "recursive",
) -> dict[tuple[int, ...], float]:
    """Estimated grouping effects w_hat along the tree.

    The chain is w_hat_{g1} = (n_hat0_{g1}/N) m_1 at level 1 and
    w_hat_l = w_hat_{l-2} * (n_hat0_l / n_hat0_{l-1}) * m_l deeper down,
    seeded at the root with the estimated pi0.

    ``ancestor_mode`` picks how internal-node null counts enter the chain:

    * ``"recursive"``: an ancestor's count is m_l times its descendant's,
      taken along each leaf's own lineage. This keeps every weight a
      non-decreasing function of every p-value, which is the hypothesis
      the adaptive FDR guarantee rests on. The chain then telescopes to
      w_hat = n_hat0 * (product of branching factors) / N.
    * ``"direct"``: every node's count is the Storey estimate over its own
      member p-values. This matches how the two-level brain-region example
      is usually computed, but with three or more level-1 groups a deep
      chain loses coordinate-wise monotonicity.
    """
    c = _compile(tree)
    return _by_path(c, _da_effects(c, np.asarray(pvalues, dtype=float), lam, ancestor_mode)[0])


def da_hier_weights(
    tree: HierTree,
    pvalues: np.ndarray,
    lam: float,
    ancestor_mode: str = "recursive",
) -> np.ndarray:
    """Data-adaptive hierarchically grouped weights (overlap-aware)."""
    pvalues = np.asarray(pvalues, dtype=float)
    if tree.depth == 0:
        return da_flat_weights(pvalues, lam)
    c = _compile(tree)
    return _leaf_weights(c, *_da_effects(c, pvalues, lam, ancestor_mode))


def da_sway_weights(forest: ClassificationForest, pvalues: np.ndarray, lam: float) -> np.ndarray:
    """Data-adaptive S-way weights: the generalized adaptive weights of a
    forest of depth-1, non-overlapping partitions, i.e. the harmonic mean
    over classifications of the estimated marginal effects."""
    _check_partitions(forest)
    return da_gen_weights(forest, pvalues, lam)


def da_gen_weights(
    forest: ClassificationForest,
    pvalues: np.ndarray,
    lam: float,
    ancestor_mode: str = "recursive",
) -> np.ndarray:
    """Data-adaptive generalized weights: harmonic mean over trees of the
    per-tree hierarchical weights."""
    pvalues = np.asarray(pvalues, dtype=float)
    inv_acc = np.zeros(forest.n)
    for tree in forest.trees:
        inv_acc += 1.0 / da_hier_weights(tree, pvalues, lam, ancestor_mode=ancestor_mode)
    return forest.s_count / inv_acc

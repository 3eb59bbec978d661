"""Executable algebraic identity checks for the weighting schemes.

Each check returns an :class:`IdentityReport`; the randomized sweep in
:func:`run_sweep` exercises every weight variant on freshly generated
non-degenerate configurations and is both the property-test oracle and the
CLI diagnostic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, asdict

import numpy as np

from .classification import ClassificationForest, HierTree, tree_from_levels, flat_tree
from .stepup import brute_force_bh, weighted_bh
from .weights import (
    da_flat_weights,
    da_gen_weights,
    da_hier_weights,
    da_sway_weights,
    oracle_flat_weights,
    oracle_gen_weights,
    oracle_hier_effects,
    oracle_hier_weights,
    oracle_overlap_oneway_weights,
    oracle_sway_weights,
)

CONDITION1_RTOL = 1e-9  # relative to N, for sums over the index set
FORMULA_RTOL = 1e-12  # scalar formula equivalence


@dataclass
class IdentityReport:
    name: str
    value: float
    target: float
    tolerance: float
    passed: bool
    config_digest: str

    def to_dict(self) -> dict:
        return asdict(self)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:12]


def _report(name, value, target, tolerance, digest) -> IdentityReport:
    return IdentityReport(
        name=name,
        value=float(value),
        target=float(target),
        tolerance=float(tolerance),
        passed=bool(abs(value - target) <= tolerance),
        config_digest=digest,
    )


def check_condition1(weights: np.ndarray, is_null: np.ndarray, digest: str = "") -> IdentityReport:
    """Sum over true nulls of 1/W_i must equal N (entries with W = +inf
    contribute zero)."""
    weights = np.asarray(weights, dtype=float)
    is_null = np.asarray(is_null, dtype=bool)
    n = weights.size
    terms = [0.0 if math.isinf(w) else 1.0 / w for w in weights[is_null]]
    total = math.fsum(terms)
    return _report("condition1", total, n, CONDITION1_RTOL * n, digest)


def check_loo_bound(weight_fn, pvalues: np.ndarray, is_null: np.ndarray, digest: str = "") -> IdentityReport:
    """Leave-one-out bound: sum over nulls of 1/W_i(P with P_i = 0) <= N,
    evaluated by literally re-running the weight computation."""
    pvalues = np.asarray(pvalues, dtype=float)
    is_null = np.asarray(is_null, dtype=bool)
    n = pvalues.size
    terms = []
    for i in np.flatnonzero(is_null):
        p_loo = pvalues.copy()
        p_loo[i] = 0.0
        terms.append(1.0 / weight_fn(p_loo)[i])
    total = math.fsum(terms)
    # one-sided bound: report the amount by which the sum exceeds N
    excess = max(total - n, 0.0)
    return _report("loo_bound", excess, 0.0, CONDITION1_RTOL * n, digest)


def check_monotone(
    weight_fn,
    pvalues: np.ndarray,
    rng: np.random.Generator,
    trials: int = 100,
    digest: str = "",
) -> IdentityReport:
    """Raising any single p-value must never decrease any weight."""
    pvalues = np.asarray(pvalues, dtype=float)
    base = weight_fn(pvalues)
    violations = 0
    for _ in range(trials):
        j = int(rng.integers(pvalues.size))
        bumped = pvalues.copy()
        bumped[j] = rng.uniform(pvalues[j], 1.0)
        after = weight_fn(bumped)
        if (after < base - 1e-9 * np.abs(base) - 1e-12).any():
            violations += 1
    return _report("monotone", violations, 0, 0, digest)


# ---------------------------------------------------------------------------
# randomized configurations


def random_tree(
    rng: np.random.Generator,
    n: int | None = None,
    depth: int | None = None,
    max_overlap: float = 0.3,
) -> HierTree:
    """Random hierarchy with covering, possibly overlapping siblings."""
    if n is None:
        n = int(rng.integers(10, 501))
    if depth is None:
        depth = int(rng.integers(0, 4))
    levels = []
    frontier = [((), np.arange(n))]
    for _ in range(depth):
        level = []
        next_frontier = []
        for path, members in frontier:
            size = members.size
            # keep every group at size >= 4 so mixed truths stay reachable
            k = int(rng.integers(2, 4)) if size >= 12 else 1
            perm = rng.permutation(members)
            parts = [np.sort(chunk) for chunk in np.array_split(perm, k)]
            for j, part in enumerate(parts, start=1):
                if k > 1 and max_overlap > 0.0:
                    extra = int(rng.integers(0, int(max_overlap * size) + 1))
                    if extra:
                        others = np.setdiff1d(members, part)
                        take = min(extra, others.size)
                        if take:
                            part = np.union1d(part, rng.choice(others, size=take, replace=False))
                child_path = path + (j,)
                level.append((child_path, part))
                next_frontier.append((child_path, part))
        levels.append(level)
        frontier = next_frontier
    return tree_from_levels(n, levels)


def random_forest(rng: np.random.Generator, n: int | None = None, depth_one: bool = False) -> ClassificationForest:
    if n is None:
        n = int(rng.integers(10, 501))
    s = int(rng.integers(1, 4))
    if depth_one:
        trees = [random_tree(rng, n=n, depth=1, max_overlap=0.0) for _ in range(s)]
    else:
        trees = [random_tree(rng, n=n) for _ in range(s)]
    return ClassificationForest(n=n, trees=tuple(trees))


def random_truth(rng: np.random.Generator, tree_or_forest, margin: float = 0.05) -> np.ndarray:
    """Truth labels whose per-group null proportions all stay inside
    [margin, 1 - margin]; resamples until every group is mixed."""
    if isinstance(tree_or_forest, HierTree):
        nodes = list(tree_or_forest.root.walk())
        n = tree_or_forest.n
    else:
        nodes = [node for tree in tree_or_forest.trees for node in tree.root.walk()]
        n = tree_or_forest.n
    for _ in range(200):
        is_null = rng.uniform(size=n) < rng.uniform(0.3, 0.7)
        ok = True
        for node in nodes:
            pi0 = is_null[node.members].mean()
            if not margin <= pi0 <= 1.0 - margin:
                ok = False
                break
        if ok:
            return is_null
    # fall back: alternate labels, guaranteed mixed for groups of size >= 2
    return (np.arange(n) % 2) == 0


# ---------------------------------------------------------------------------
# reductions


def _alternate_hier_effects(tree: HierTree, is_null: np.ndarray) -> dict[tuple[int, ...], float]:
    """Reference for :func:`oracle_hier_effects` by the two-step recursion
    w_l = w_{l-2} * r_l / r_{l-1}, started at w_1 = (1 - pi0) r_1, where
    r_l = pi0_l / (1 - pi0_l); the root holds pi0 and a node with null odds
    0 or +inf gets that effect. Written as a recursion over path-keyed
    dicts, independently of the compiled arrays."""
    is_null = np.asarray(is_null, dtype=bool)
    pi0 = float(is_null.mean())
    effects: dict[tuple[int, ...], float] = {(): pi0}
    odds: dict[tuple[int, ...], float] = {}

    def visit(node):
        for child in node.children:
            pi0_c = float(is_null[child.members].mean())
            r = math.inf if pi0_c >= 1.0 else pi0_c / (1.0 - pi0_c)
            odds[child.path] = r
            if r == 0.0 or math.isinf(r):
                effects[child.path] = r
            elif len(child.path) == 1:
                effects[child.path] = (1.0 - pi0) * r
            else:
                effects[child.path] = effects[node.path[:-1]] * r / odds[node.path]
            visit(child)

    visit(tree.root)
    return effects


def check_reductions(rng: np.random.Generator, trials: int = 50) -> list[IdentityReport]:
    """Closed-form reductions, and the forward recursion of
    :func:`oracle_hier_effects` against :func:`_alternate_hier_effects`."""
    reports = []

    # depth-0 equals the flat pi0 weight, exactly
    worst = 0.0
    for t in range(trials):
        n = int(rng.integers(10, 200))
        is_null = random_truth(rng, flat_tree(n))
        flat = oracle_flat_weights(is_null)
        hier = oracle_hier_weights(flat_tree(n), is_null)
        worst = max(worst, float(np.abs(flat - hier).max()))
    reports.append(_report("reduction_flat", worst, 0.0, 0.0, _digest("flat", trials)))

    # depth-1 without overlap equals the one-way closed form
    worst = 0.0
    for t in range(trials):
        tree = random_tree(rng, depth=1, max_overlap=0.0)
        is_null = random_truth(rng, tree)
        pi0 = is_null.mean()
        w = oracle_hier_weights(tree, is_null)
        for leaf in tree.leaves:
            pi0_g = is_null[leaf.members].mean()
            closed = (1.0 - pi0) * pi0_g / (1.0 - pi0_g)
            worst = max(worst, float(np.abs(w[leaf.members] - closed).max() / closed))
    reports.append(_report("reduction_oneway", worst, 0.0, FORMULA_RTOL, _digest("oneway", trials)))

    # forward and alternate recursions agree on every node effect
    worst = 0.0
    for t in range(trials):
        tree = random_tree(rng)
        is_null = random_truth(rng, tree)
        fwd = oracle_hier_effects(tree, is_null)
        alt = _alternate_hier_effects(tree, is_null)
        for path, wf in fwd.items():
            wa = alt[path]
            if wf == wa:
                continue
            worst = max(worst, abs(wf - wa) / max(abs(wf), abs(wa)))
    reports.append(_report("recursion_equivalence", worst, 0.0, FORMULA_RTOL, _digest("recursion", trials)))

    # single-tree generalized weights equal the hierarchical weights
    worst = 0.0
    for t in range(trials):
        tree = random_tree(rng)
        forest = ClassificationForest(n=tree.n, trees=(tree,))
        is_null = random_truth(rng, tree)
        worst = max(
            worst,
            float(np.abs(oracle_gen_weights(forest, is_null) - oracle_hier_weights(tree, is_null)).max()),
        )
    reports.append(_report("reduction_gen_single", worst, 0.0, FORMULA_RTOL, _digest("gen", trials)))
    return reports


# ---------------------------------------------------------------------------
# sweep


def _oneway_random_effects(rng, tree, is_null):
    groups = [leaf.members for leaf in tree.leaves]
    effects = rng.uniform(0.2, 3.0, size=len(groups))
    return groups, effects


def run_sweep(
    seed: int = 0,
    trials: int = 200,
    monotone_trials: int = 20,
    corrupt: bool = False,
) -> list[IdentityReport]:
    """Randomized identity sweep over all weight variants.

    ``corrupt`` deliberately perturbs one weight vector per trial group, as
    a negative control that the checks can fail.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        digest = _digest(seed, t)

        tree = random_tree(rng)
        is_null = random_truth(rng, tree)
        w = oracle_hier_weights(tree, is_null)
        if corrupt:
            w = w * 1.01
        reports.append(check_condition1(w, is_null, digest + ":hier"))

        groups, effects = _oneway_random_effects(rng, random_tree(rng, depth=1), is_null=None)
        n_one = int(max(g.max() for g in groups)) + 1
        truth_one = random_truth(rng, flat_tree(n_one))
        w = oracle_overlap_oneway_weights(n_one, groups, effects, truth_one)
        reports.append(check_condition1(w, truth_one, digest + ":oneway"))

        forest = random_forest(rng, depth_one=True)
        truth_f = random_truth(rng, forest)
        reports.append(check_condition1(oracle_sway_weights(forest, truth_f), truth_f, digest + ":sway"))

        gen = random_forest(rng)
        truth_g = random_truth(rng, gen)
        reports.append(check_condition1(oracle_gen_weights(gen, truth_g), truth_g, digest + ":gen"))

        flat_truth = random_truth(rng, flat_tree(int(rng.integers(10, 501))))
        reports.append(check_condition1(oracle_flat_weights(flat_truth), flat_truth, digest + ":flat"))

    # adaptive variants: leave-one-out bound and monotonicity
    lam = 0.5
    for t in range(max(1, trials // 4)):
        digest = _digest(seed, "adaptive", t)
        tree = random_tree(rng, n=int(rng.integers(20, 200)))
        is_null = random_truth(rng, tree)
        pvalues = rng.uniform(size=tree.n)

        fn = lambda p: da_hier_weights(tree, p, lam)
        reports.append(check_loo_bound(fn, pvalues, is_null, digest + ":hier"))
        reports.append(check_monotone(fn, pvalues, rng, monotone_trials, digest + ":hier"))

        forest = random_forest(rng, n=tree.n, depth_one=True)
        fn = lambda p: da_sway_weights(forest, p, lam)
        reports.append(check_loo_bound(fn, pvalues, is_null, digest + ":sway"))
        reports.append(check_monotone(fn, pvalues, rng, monotone_trials, digest + ":sway"))

        gen = random_forest(rng, n=tree.n)
        fn = lambda p: da_gen_weights(gen, p, lam)
        reports.append(check_loo_bound(fn, pvalues, is_null, digest + ":gen"))
        reports.append(check_monotone(fn, pvalues, rng, monotone_trials, digest + ":gen"))

        fn = lambda p: da_flat_weights(p, lam)
        reports.append(check_loo_bound(fn, pvalues, is_null, digest + ":flat"))
        reports.append(check_monotone(fn, pvalues, rng, monotone_trials, digest + ":flat"))

    reports.extend(check_reductions(rng))

    # production step-up vs the counting oracle
    worst = 0
    for t in range(50):
        n = int(rng.integers(5, 300))
        p = rng.uniform(size=n)
        w = rng.uniform(0.1, 3.0, size=n)
        alpha = rng.uniform(0.01, 0.3)
        a = weighted_bh(p, w, alpha)
        b = brute_force_bh(p, w, alpha)
        if (a.rejected != b.rejected).any() or a.threshold_index != b.threshold_index:
            worst += 1
    reports.append(_report("stepup_oracle", worst, 0, 0, _digest(seed, "stepup")))
    return reports

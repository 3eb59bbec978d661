"""Executable algebraic identity checks for the weighting schemes.

Each check returns an :class:`IdentityReport`; the randomized sweep in
:func:`run_sweep` exercises every weight variant on freshly generated
non-degenerate configurations and is both the property-test oracle and the
CLI diagnostic.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import _pool, simulate
from .classification import ClassificationForest, HierTree, _size, flat_tree
from .stepup import _check_length, _truth, brute_force_bh, weighted_bh
from .weights import (
    _da_leaf_loo,
    _inverse_sum,
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
        return dict(vars(self))


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
    n = weights.size
    _check_length(weights, n, "weights")
    null_weights = weights[_truth(is_null, n)]
    with np.errstate(divide="ignore"):  # a zero weight gives +inf, so the check fails
        total = math.fsum(1.0 / null_weights)
    return _report("condition1", total, n, CONDITION1_RTOL * n, digest)


def check_loo_bound(weight_fn, pvalues: np.ndarray, is_null: np.ndarray, digest: str = "") -> IdentityReport:
    """Leave-one-out bound: sum over nulls of 1/W_i(P with P_i = 0) <= N,
    evaluated by literally re-running the weight computation."""
    pvalues = np.asarray(pvalues, dtype=float)
    n = pvalues.size
    is_null = _truth(is_null, n)
    terms = []
    for i in np.flatnonzero(is_null):
        p_loo = pvalues.copy()
        p_loo[i] = 0.0
        terms.append(1.0 / weight_fn(p_loo)[i])
    return _loo_report(terms, n, digest)


def _loo_report(terms, n: int, digest: str, tied: bool = True) -> IdentityReport:
    """The leave-one-out report on the nulls' 1/W_i(P with P_i = 0): the
    amount by which their sum exceeds N (the bound is one-sided). It fails
    too unless ``tied``, i.e. unless the terms came from the weights the
    sweep checks."""
    report = _report("loo_bound", max(math.fsum(terms) - n, 0.0), 0.0, CONDITION1_RTOL * n, digest)
    report.passed = report.passed and tied
    return report


def _forest_loo(forest: ClassificationForest, pvalues: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`da_gen_weights`, and W_i(P with P_i = 0)[i] for every i: the
    trees' own leave-one-out weights, combined as da_gen_weights combines
    the trees' weights."""
    weights, loo = zip(*(_da_leaf_loo(tree, pvalues, lam) for tree in forest.trees))
    return forest.s_count / _inverse_sum(weights), forest.s_count / _inverse_sum(loo)


def check_monotone(
    weight_fn,
    pvalues: np.ndarray,
    rng: np.random.Generator,
    trials: int = 100,
    digest: str = "",
) -> IdentityReport:
    """Raising any single p-value must never decrease any weight, in ``trials`` >= 1 random bumps.
    A NaN weight, at ``pvalues`` or after a bump, counts as a decrease."""
    return _monotone(weight_fn, pvalues, rng, _size(trials, "trials", 1), digest)[0]


def _monotone(weight_fn, pvalues, rng, trials, digest) -> tuple[IdentityReport, np.ndarray]:
    """:func:`check_monotone`'s report, and the weights at ``pvalues``."""
    pvalues = np.asarray(pvalues, dtype=float)
    base = weight_fn(pvalues)
    with np.errstate(invalid="ignore"):  # inf - inf at a weight of +inf, whose floor fmin keeps at +inf
        floor = np.fmin(base, base - 1e-9 * np.abs(base) - 1e-12)  # the least weight that is no decrease
    violations = 0
    for _ in range(trials):
        j = int(rng.integers(pvalues.size))
        bumped = pvalues.copy()
        bumped[j] = rng.uniform(pvalues[j], 1.0)
        if not (weight_fn(bumped) >= floor).all():  # a NaN weight, or a NaN floor, is a violation
            violations += 1
    return _report("monotone", violations, 0, 0, digest), base


# ---------------------------------------------------------------------------
# randomized configurations


def _drawn_size(rng: np.random.Generator) -> int:
    """A sweep structure's N, where none is given: one ``integers`` draw in 10..500."""
    return int(rng.integers(10, 501))


def random_tree(
    rng: np.random.Generator,
    n: int | None = None,
    depth: int | None = None,
    max_overlap: float = 0.3,
) -> HierTree:
    """Random hierarchy with covering, possibly overlapping siblings.

    The draw contract, which fixes every tree (and so every identity sweep)
    for a given generator state: ``integers`` for ``n`` and for ``depth``
    when not given; then, per parent in level order, one ``integers`` for
    its child count k (only when it has >= 12 members) and one
    ``permutation`` of its size, cut into k near-equal chunks; then, when
    k > 1 and ``max_overlap`` > 0, one ``integers`` per child for its extra
    members and, unless that is 0, one ``choice`` of them without
    replacement from the parent's members outside the chunk.

    The tree is valid as drawn, so it is not checked again: a parent's
    chunks partition its members, a child's extra members are more of its
    parent's, the children are numbered 1..k, and every node above the
    leaves gets at least one child.
    """
    n = _drawn_size(rng) if n is None else _size(n)
    depth = int(rng.integers(0, 4)) if depth is None else _size(depth, "depth")
    # nodes in level order; children are appended in (parent id, path)
    # order, which is the order HierTree wants, so the arrays are written
    # as they are drawn
    paths, parent, groups = [()], [-1], [np.arange(n)]
    first = 0  # id of the first node of the deepest level so far
    for _ in range(depth):
        last = len(paths)
        for node in range(first, last):
            members = groups[node]
            size = members.size
            # keep every group at size >= 4 so mixed truths stay reachable
            k = int(rng.integers(2, 4)) if size >= 12 else 1
            q, r = divmod(size, k)
            chunk_of = np.empty(size, dtype=np.int64)  # position -> chunk, sized as np.array_split would
            chunk_of[rng.permutation(size)] = np.repeat(np.arange(1, k + 1), [q + (j < r) for j in range(k)])
            for j in range(1, k + 1):
                taken = chunk_of == j  # the child's positions in members
                if k > 1 and max_overlap > 0.0:
                    extra = int(rng.integers(0, int(max_overlap * size) + 1))
                    if extra:
                        others = (~taken).nonzero()[0]  # as many as the other members: the same draw
                        taken[rng.choice(others, size=min(extra, others.size), replace=False)] = True
                paths.append(paths[node] + (j,))
                parent.append(node)
                groups.append(members[taken])  # members are sorted, so the child's are too
        first = last
    indptr = np.cumsum([0] + [members.size for members in groups])
    return HierTree._valid(n, paths, parent, indptr, np.concatenate(groups))


def random_forest(rng: np.random.Generator, n: int | None = None, depth_one: bool = False) -> ClassificationForest:
    n = _drawn_size(rng) if n is None else n
    shape = dict(depth=1, max_overlap=0.0) if depth_one else {}
    trees = tuple(random_tree(rng, n=n, **shape) for _ in range(int(rng.integers(1, 4))))
    return ClassificationForest(n=n, trees=trees)


def random_truth(rng: np.random.Generator, structure, margin: float = 0.05) -> np.ndarray:
    """Truth labels whose per-group null proportions all stay inside
    [margin, 1 - margin]; resamples until every group is mixed. The
    structure is a tree, a forest, or a count n for the structure that is
    only the root over n hypotheses: its draws are those of flat_tree(n)."""
    trees = [structure] if isinstance(structure, HierTree) else getattr(structure, "trees", None)
    n = _size(structure) if trees is None else structure.n
    for _ in range(200 if n else 0):  # N = 0: the empty truth, with no share to divide
        is_null = rng.uniform(size=n) < rng.uniform(0.3, 0.7)
        shares = (t.counts(is_null) / t.sizes for t in trees) if trees else [np.divide(np.count_nonzero(is_null), n)]
        if all(((margin <= p) & (p <= 1.0 - margin)).all() for p in shares):
            return is_null
    # fall back: alternate labels, which draw nothing; a group is mixed
    # only if it holds an even and an odd index (any two consecutive ones
    # do), so a group of even indices alone gets only nulls
    return (np.arange(n) % 2) == 0


# ---------------------------------------------------------------------------
# reductions


def _alternate_hier_effects(tree: HierTree, is_null: np.ndarray) -> dict[tuple[int, ...], float]:
    """Reference for :func:`oracle_hier_effects` by the two-step recursion
    w_l = w_{l-2} * r_l / r_{l-1}, started at w_1 = (1 - pi0) r_1, where
    r_l = pi0_l / (1 - pi0_l); the root holds pi0 and a node with null odds
    0 or +inf gets that effect. Walks the nodes level by level and finds
    each node's parent and grandparent by path in its own dicts, not through
    the tree's parent array."""
    is_null = _truth(is_null, tree.n)
    pi0 = float(is_null.mean())
    effects: dict[tuple[int, ...], float] = {(): pi0}
    odds: dict[tuple[int, ...], float] = {}
    for path, members in ((tree.paths[k], tree.members(k)) for s in tree.levels for k in range(s.start, s.stop)):
        pi0_c = float(is_null[members].mean())
        r = math.inf if pi0_c >= 1.0 else pi0_c / (1.0 - pi0_c)
        odds[path] = r
        if r == 0.0 or math.isinf(r):
            effects[path] = r
        elif len(path) == 1:
            effects[path] = (1.0 - pi0) * r
        else:
            effects[path] = effects[path[:-2]] * r / odds[path[:-1]]
    return effects


def check_reductions(rng: np.random.Generator, trials: int = 50) -> list[IdentityReport]:
    """Closed-form reductions, and the forward recursion of
    :func:`oracle_hier_effects` against :func:`_alternate_hier_effects`:
    each the largest error over ``trials`` draws, one reduction after the
    other."""

    def worst(error) -> float:
        return reduce(np.maximum, (error(rng) for _ in range(trials)), 0.0)  # keeps a NaN, as max does not

    return [
        _report("reduction_flat", worst(_flat_error), 0.0, 0.0, _digest("flat", trials)),
        _report("reduction_oneway", worst(_oneway_error), 0.0, FORMULA_RTOL, _digest("oneway", trials)),
        _report("recursion_equivalence", worst(_recursion_error), 0.0, FORMULA_RTOL, _digest("recursion", trials)),
        _report("reduction_gen_single", worst(_gen_single_error), 0.0, FORMULA_RTOL, _digest("gen", trials)),
    ]


def _flat_error(rng) -> float:
    """Depth 0 equals the flat pi0 weight, exactly."""
    n = int(rng.integers(10, 200))
    is_null = random_truth(rng, n)
    return float(np.abs(oracle_flat_weights(is_null) - oracle_hier_weights(flat_tree(n), is_null)).max())


def _oneway_error(rng) -> float:
    """Depth 1 without overlap equals the one-way closed form; the relative error."""
    tree = random_tree(rng, depth=1, max_overlap=0.0)
    is_null = random_truth(rng, tree)
    pi0, w = is_null.mean(), oracle_hier_weights(tree, is_null)
    worst = 0.0
    for members in map(tree.members, tree.leaves):
        pi0_g = is_null[members].mean()
        closed = (1.0 - pi0) * pi0_g / (1.0 - pi0_g)
        worst = np.maximum(worst, np.abs(w[members] - closed).max() / closed)
    return float(worst)


def _recursion_error(rng) -> float:
    """The forward and alternate recursions agree on every node effect; the relative error."""
    tree = random_tree(rng)
    is_null = random_truth(rng, tree)
    fwd, alt = oracle_hier_effects(tree, is_null), _alternate_hier_effects(tree, is_null)
    errors = (abs(wf - alt[p]) / max(abs(wf), abs(alt[p])) for p, wf in fwd.items() if wf != alt[p])
    return float(reduce(np.maximum, errors, 0.0))


def _gen_single_error(rng) -> float:
    """Single-tree generalized weights equal the hierarchical weights."""
    tree = random_tree(rng)
    is_null = random_truth(rng, tree)
    forest = ClassificationForest(n=tree.n, trees=(tree,))
    return float(np.abs(oracle_gen_weights(forest, is_null) - oracle_hier_weights(tree, is_null)).max())


# ---------------------------------------------------------------------------
# sweep


_BLOCK_TRIALS = 4  # consecutive oracle trials per unit of work


def run_sweep(
    seed: int = 0,
    trials: int = 200,
    monotone_trials: int = 20,
    corrupt: bool = False,
) -> list[IdentityReport]:
    """Randomized identity sweep over all weight variants.

    ``corrupt`` deliberately perturbs one weight vector per trial group, as
    a negative control that the checks can fail.

    The reports are those of the oracle trials, then the adaptive trials,
    and last the reductions and step-up cases. Each trial draws its
    configuration from its own stream, `simulate.replicate_rng(seed, kind,
    t)` with kind 0, 1 and 2 in that order (t = 0 for the last one). The
    units of work are the reductions and step-up cases, the longest, then
    blocks of _BLOCK_TRIALS consecutive oracle trials, then one adaptive
    trial each; they run in that order through `_pool.imap`, every unit
    handed out at once, on one forked worker per CPU of this process's
    affinity mask, or here on one CPU. So no worker idles while another
    runs the longest unit at the end, the reports are the same bits on any
    number of CPUs, and a trial's reports do not depend on ``trials``.
    """
    trials, seed = _size(trials, "trials", 1), _size(seed, "seed")
    adaptive = [[(1, t)] for t in range(max(1, trials // 4))]
    oracle = [[(0, t) for t in range(lo, min(lo + _BLOCK_TRIALS, trials))] for lo in range(0, trials, _BLOCK_TRIALS)]
    units = [[(2, 0)], *oracle, *adaptive]
    with _pool.imap(_sweep_block, (seed, monotone_trials, corrupt), units, depth=len(units)) as results:
        final, *parts = results
    return [report for part in (*parts, final) for report in part]


def _sweep_block(settings, block) -> list[IdentityReport]:
    """The reports of the sweep items (kind, t) of block, in order, each
    drawn from its own stream."""
    seed, monotone_trials, corrupt = settings
    reports = []
    for kind, t in block:
        rng = simulate.replicate_rng(seed, kind, t)
        if kind == 0:
            reports += _oracle_checks(rng, _digest(seed, t), corrupt)
        elif kind == 1:
            reports += _adaptive_checks(rng, _digest(seed, "adaptive", t), monotone_trials)
        else:
            reports += _final_checks(rng, seed)
    return reports


def _oracle_checks(rng, digest, corrupt) -> list[IdentityReport]:
    tree = random_tree(rng)
    is_null = random_truth(rng, tree)
    one = random_tree(rng, depth=1)
    effects = rng.uniform(0.2, 3.0, size=one.leaves.size)
    truth_one = random_truth(rng, one.n)
    forest = random_forest(rng, depth_one=True)
    truth_f = random_truth(rng, forest)
    gen = random_forest(rng)
    truth_g = random_truth(rng, gen)
    flat_truth = random_truth(rng, _drawn_size(rng))
    w = oracle_hier_weights(tree, is_null)
    if corrupt:
        w = w * 1.01
    groups = [one.members(k) for k in one.leaves]
    w_one = oracle_overlap_oneway_weights(one.n, groups, effects, truth_one)
    return [
        check_condition1(w, is_null, digest + ":hier"),
        check_condition1(w_one, truth_one, digest + ":oneway"),
        check_condition1(oracle_sway_weights(forest, truth_f), truth_f, digest + ":sway"),
        check_condition1(oracle_gen_weights(gen, truth_g), truth_g, digest + ":gen"),
        check_condition1(oracle_flat_weights(flat_truth), flat_truth, digest + ":flat"),
    ]


def _adaptive_checks(rng, digest, monotone_trials) -> list[IdentityReport]:
    """Leave-one-out bound and monotonicity of the adaptive variants.

    The bound is the one :func:`check_loo_bound` checks, every W_i(P with
    P_i = 0)[i] taken from one pass over the structure's leaves
    (:func:`weights._da_leaf_loo`, :func:`_forest_loo`). The pass also
    gives the weights at P, which must equal what the production weight
    function gives there, or the report fails."""
    lam = 0.5
    tree = random_tree(rng, n=int(rng.integers(20, 200)))
    is_null = random_truth(rng, tree)
    pvalues = rng.uniform(size=tree.n)
    forest = random_forest(rng, n=tree.n, depth_one=True)
    gen = random_forest(rng, n=tree.n)
    reports = []
    for suffix, weight_fn, structure, loo_fn in (
        (":hier", partial(da_hier_weights, tree, lam=lam), tree, _da_leaf_loo),
        (":sway", partial(da_sway_weights, forest, lam=lam), forest, _forest_loo),
        (":gen", partial(da_gen_weights, gen, lam=lam), gen, _forest_loo),
        (":flat", partial(da_flat_weights, lam=lam), flat_tree(tree.n), _da_leaf_loo),
    ):
        monotone, base = _monotone(weight_fn, pvalues, rng, monotone_trials, digest + suffix)
        weights, loo = loo_fn(structure, pvalues, lam)
        reports.append(_loo_report(1.0 / loo[is_null], tree.n, digest + suffix, np.array_equal(weights, base)))
        reports.append(monotone)
    return reports


def _final_checks(rng, seed) -> list[IdentityReport]:
    reports = check_reductions(rng)

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

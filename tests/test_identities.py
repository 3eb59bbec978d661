import contextlib
import hashlib
import json
import math
import os
import re
from functools import partial

import numpy as np
import pytest

from groupedbh import _pool, classification, identities
from groupedbh.classification import (
    ClassificationForest,
    HierTree,
    flat_tree,
    tree_from_levels,
    validate_forest,
    validate_tree,
)
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
from groupedbh.weights import (
    _da_leaf_loo,
    da_flat_weights,
    da_gen_weights,
    da_hier_weights,
    da_sway_weights,
    oracle_flat_weights,
    oracle_hier_effects,
)


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


def test_condition1_zero_null_weight_fails_without_raising():
    truth = np.ones(4, dtype=bool)
    report = check_condition1(np.array([0.0, 1.0, 1.0, 1.0]), truth)
    assert report.value == math.inf
    assert not report.passed


def test_condition1_nan_weight_fails():
    truth = np.ones(4, dtype=bool)
    report = check_condition1(np.array([np.nan, 1.0, 1.0, 1.0]), truth)
    assert math.isnan(report.value)
    assert not report.passed


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


def _assert_built_as_checked(tree):
    """tree, which its builder did not check, has every field of the
    HierTree the constructor checks and builds from its five arrays."""
    checked = HierTree(n=tree.n, paths=tree.paths, parent=tree.parent, indptr=tree.indptr, indices=tree.indices)
    assert (tree.n, tree.paths, tree.levels, tree.depth) == (checked.n, checked.paths, checked.levels, checked.depth)
    for name in ("parent", "indptr", "indices", "sizes", "m", "leaves", "mult"):
        got, want = getattr(tree, name), getattr(checked, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_random_tree_is_valid():
    rng = np.random.default_rng(3)
    for _ in range(30):
        tree = random_tree(rng)
        assert validate_tree(tree) == []
    for n in [*range(16), 499, 500]:
        for depth in range(4):
            for overlap in (0.0, 0.3, 1.0):
                tree = random_tree(np.random.default_rng([n, depth]), n=n, depth=depth, max_overlap=overlap)
                assert tree.depth == depth and validate_tree(tree) == [], (n, depth, overlap)
                _assert_built_as_checked(tree)


def test_flat_tree_is_valid():
    for n in range(21):
        tree = flat_tree(n)
        assert tree.depth == 0 and validate_tree(tree) == [], n
        _assert_built_as_checked(tree)


def test_random_tree_equals_the_generic_builder():
    # random_tree writes its arrays in the order it draws the nodes; the
    # generic builder, given the same (path, members) groups with each
    # level shuffled, must sort them into the same arrays
    shuffle = np.random.default_rng(99)
    for seed in range(300):
        for overlap in (0.0, 0.3):
            tree = random_tree(np.random.default_rng(seed), depth=seed % 4, max_overlap=overlap)
            levels = [
                [(tree.paths[k], tree.members(k)) for k in shuffle.permutation(range(s.start, s.stop))]
                for s in tree.levels
            ]
            generic = tree_from_levels(tree.n, levels)
            assert tree.paths == generic.paths, (seed, overlap)
            for name in ("parent", "indptr", "indices"):
                assert np.array_equal(getattr(tree, name), getattr(generic, name)), (seed, overlap, name)


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_random_tree_rejects_a_bad_size(n):
    with pytest.raises(ValueError, match="^n must be"):
        random_tree(np.random.default_rng(0), n=n)


@pytest.mark.parametrize(
    "depth, message",
    [(-1, "depth must be >= 0, got -1"), (True, "depth must be an integer"), (1.5, "depth must be an integer")],
)
def test_random_tree_rejects_a_bad_depth(depth, message):
    # -1 built a depth-0 tree, True a depth-1 one, 1.5 raised a TypeError
    with pytest.raises(ValueError, match=f"^{message}"):
        random_tree(np.random.default_rng(0), n=20, depth=depth)


@pytest.mark.parametrize(
    "trials, message",
    [(-3, "trials must be >= 1, got -3"), (0, "trials must be >= 1, got 0"), (2.5, "trials must be an integer")],
)
def test_check_monotone_rejects_a_bad_trial_count(trials, message):
    # -3 passed with no bump tried, 2.5 raised a TypeError
    with pytest.raises(ValueError, match=f"^{message}"):
        check_monotone(lambda q: da_flat_weights(q, 0.5), np.full(5, 0.5), np.random.default_rng(0), trials=trials)


def test_check_monotone_runs_the_weights_once_per_bump():
    calls = []

    def weights(q):
        calls.append(q.copy())
        return da_flat_weights(q, 0.5)

    p = np.random.default_rng(1).uniform(size=20)
    assert check_monotone(weights, p, np.random.default_rng(2), trials=7).passed
    assert len(calls) == 8 and np.array_equal(calls[0], p)
    assert all(np.count_nonzero(q != p) <= 1 for q in calls[1:])


@pytest.mark.parametrize("n", [10, 37, 500])
def test_random_truth_of_a_count_draws_as_the_flat_tree(n):
    # a count stands for the structure that is only the root, with no
    # throwaway flat tree: the same labels and the same generator state
    for seed in range(20):
        by_count, by_tree = np.random.default_rng(seed), np.random.default_rng(seed)
        for margin in (0.05, 0.45):
            assert np.array_equal(random_truth(by_count, n, margin), random_truth(by_tree, flat_tree(n), margin))
        assert by_count.bit_generator.state == by_tree.bit_generator.state


@pytest.mark.parametrize(
    "structure",
    [0, flat_tree(0), ClassificationForest(n=0, trees=(flat_tree(0),))],
    ids=["count", "tree", "forest"],
)
def test_random_truth_of_no_hypotheses_is_empty_and_draws_nothing(structure):
    # no null share to divide, so no 0 / 0 (an error under the suite's
    # warning filter) and no draws spent before the fallback
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    truth = random_truth(rng, structure)
    assert truth.dtype == bool and truth.shape == (0,)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_random_truth_rejects_a_bad_count(n):
    with pytest.raises(ValueError, match="^n must be"):
        random_truth(np.random.default_rng(0), n)


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
        for k in range(len(tree.paths)):
            pi0 = truth[tree.members(k)].mean()
            assert 0.0 < pi0 < 1.0


def test_random_truth_falls_back_to_alternating_labels():
    # no proportion lies in [0.6, 0.4], so every draw is refused
    truth = random_truth(np.random.default_rng(0), random_forest(np.random.default_rng(1), n=6), margin=0.6)
    assert truth.tolist() == [True, False] * 3


def test_random_truth_fallback_can_leave_a_group_unmixed():
    # the alternating labels mix only groups holding an even and an odd index
    tree = tree_from_levels(4, [[((1,), [0, 2]), ((2,), [1, 3])]])
    truth = random_truth(np.random.default_rng(0), tree, margin=0.6)
    assert truth.tolist() == [True, False, True, False]
    assert tree.counts(truth).tolist() == [2, 2, 0]


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


def _nan_effects(tree, is_null):
    return dict.fromkeys(oracle_hier_effects(tree, is_null), math.nan)


@pytest.mark.parametrize(
    "patched, nan_weights, failing",
    [
        ("oracle_flat_weights", lambda is_null: np.full(is_null.size, math.nan), {"reduction_flat"}),
        ("oracle_hier_weights", lambda tree, is_null: np.full(tree.n, math.nan),
         {"reduction_flat", "reduction_oneway", "reduction_gen_single"}),
        ("oracle_hier_effects", _nan_effects, {"recursion_equivalence"}),
    ],
    ids=["flat", "hier", "effects"],
)
def test_reduction_with_a_nan_error_fails(monkeypatch, patched, nan_weights, failing):
    # max(0.0, nan) is 0.0: a NaN error read 0.0 and passed
    monkeypatch.setattr(identities, patched, nan_weights)
    for r in check_reductions(np.random.default_rng(6), trials=3):
        assert (math.isnan(r.value), r.passed) == ((True, False) if r.name in failing else (False, True)), r.name


@pytest.mark.parametrize(
    "nan_at",
    [lambda q, p: np.ones(q.size, dtype=bool), lambda q, p: np.arange(q.size) == 3, lambda q, p: q != p],
    ids=["all", "one-entry", "after-a-bump"],
)
def test_monotone_counts_a_nan_weight_as_a_violation(nan_at):
    # NaN < floor is False, so NaN weights passed with value 0
    p = np.random.default_rng(1).uniform(size=20)

    def weights(q):
        return np.where(nan_at(q, p), math.nan, da_flat_weights(q, 0.5))

    report = check_monotone(weights, p, np.random.default_rng(2), trials=6)
    assert (report.value, report.passed) == (6.0, False)


def test_monotone_keeps_an_infinite_weight_as_its_own_floor():
    # an infinite weight that stays infinite is no decrease; one that turns finite is
    p = np.random.default_rng(1).uniform(size=20)
    for after, value in ((math.inf, 0.0), (1.0, 4.0)):
        def weights(q, after=after):
            return np.where(np.arange(q.size) == 0, math.inf if np.array_equal(q, p) else after, 1.0)

        report = check_monotone(weights, p, np.random.default_rng(2), trials=4)
        assert (report.value, report.passed) == (value, value == 0.0)


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


@pytest.mark.parametrize("trials", [0, -5])
def test_sweep_rejects_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match="trials"):
        run_sweep(trials=trials)


@pytest.mark.parametrize(
    "kwargs, value",
    [({"seed": True}, "True"), ({"seed": 1.5}, "1.5"), ({"trials": True}, "True"), ({"trials": 2.5}, "2.5")],
    ids=["bool-seed", "float-seed", "bool-trials", "float-trials"],
)
def test_sweep_rejects_a_seed_or_trial_count_that_is_no_integer(kwargs, value):
    # True ran as seed 1 or as 1 trial, and 1.5 or 2.5 raised numpy's TypeError
    (name,) = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be an integer in int64 range, got {value}$"):
        run_sweep(**kwargs)


def test_sweep_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_sweep(seed=-1, trials=1)


@pytest.mark.parametrize("size", [2, 4])
def test_checks_reject_truth_of_wrong_length(size):
    truth = np.ones(size, dtype=bool)
    with pytest.raises(ValueError, match="length mismatch"):
        check_condition1(np.ones(3), truth)
    with pytest.raises(ValueError, match="length mismatch"):
        check_loo_bound(lambda p: da_flat_weights(p, 0.5), np.full(3, 0.5), truth)


@pytest.mark.parametrize("shape", [(4, 1), (2, 2)])
def test_condition1_rejects_weights_that_are_not_a_vector(shape):
    # a (4, 1) array raised numpy's TypeError, a (2, 2) one its IndexError
    message = f"length mismatch: weights must be a vector of 4, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_condition1(np.ones(shape), np.ones(4, dtype=bool))


def test_random_tree_draw_contract_is_pinned():
    # 200 trees drawn from one stream, and the generator state after them.
    # A change to either re-seeds every sweep, every acceptance criterion
    # and the pinned xfail below.
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for _ in range(200):
        tree = random_tree(rng)
        h.update(repr(tree.paths).encode())
        for arr in (tree.parent, tree.indptr, tree.indices):
            h.update(arr.tobytes())
    assert h.hexdigest() == "5f50c9a7f429afc5c6a6ac51113fdd4bf2f3297dac8aa48a16cbd92924303f63"
    assert rng.bit_generator.state == {
        "bit_generator": "PCG64",
        "state": {
            "state": 72741012300756701221184917022707742536,
            "inc": 87136372517582989555478159403783844777,
        },
        "has_uint32": 0,
        "uinteger": 1146894320,
    }


def test_sweep_reports_are_pinned():
    # a short sweep's every report, value bits included; the full default
    # sweep is pinned by the benchmark's validate-sweep workload
    reports = json.dumps([r.to_dict() for r in run_sweep(seed=0, trials=20)])
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "fb6b7a5226fffd508cc83c90df65fa6307c06b1e2d9270a6285e4b7263dd160c"
    )


@pytest.mark.parametrize(
    "seed, corrupt", [(0, False), (12, False), (12, True)], ids=["seed-0", "seed-12", "corrupt"]
)
def test_sweep_is_the_same_on_one_cpu_and_on_two(monkeypatch, seed, corrupt, no_child_left):
    # every item draws from its own stream, wherever it runs
    sweeps = []
    for cpus in (1, 2):
        monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
        reports = run_sweep(seed=seed, trials=24, monotone_trials=5, corrupt=corrupt)
        sweeps.append(json.dumps([r.to_dict() for r in reports]))
    assert sweeps[0] == sweeps[1]
    no_child_left()


def test_an_adaptive_trial_does_not_depend_on_the_trial_count():
    # adaptive trial t draws from its own stream (seed, 1, t), whatever
    # the number of oracle trials before it
    def adaptive(trials):
        reports = run_sweep(seed=5, trials=trials)
        return [r.to_dict() for r in reports if r.name in ("loo_bound", "monotone")]

    short, longer = adaptive(8), adaptive(12)
    assert len(short) == 2 * 8 and len(longer) == 3 * 8
    assert short == longer[: len(short)]


def _recorded_sweep(monkeypatch, **kw):
    """run_sweep's reports, the units of work it handed to _pool.imap,
    which runs them here, in order, and the depth it asked for."""
    handed, depths = [], []

    @contextlib.contextmanager
    def imap(fn, shared, items, depth=None):
        handed.extend(items)
        depths.append(depth)
        yield (fn(shared, item) for item in items)

    monkeypatch.setattr(_pool, "imap", imap)
    return run_sweep(**kw), handed, depths


@pytest.mark.parametrize("trials", [7, 9])
def test_sweep_runs_and_reports_in_one_order(monkeypatch, trials):
    kw = dict(seed=4, trials=trials, monotone_trials=2)
    reports, blocks, depths = _recorded_sweep(monkeypatch, **kw)
    kinds = [kind for block in blocks for kind, _ in block]
    assert blocks[0] == [(2, 0)]  # the reductions and step-up cases, the longest unit, first
    assert depths == [len(blocks)]  # every unit in flight at once
    assert kinds[1:] == sorted(kinds[1:])  # then oracle trials before adaptive ones
    trial_items = [(0, t) for t in range(trials)] + [(1, t) for t in range(max(1, trials // 4))] + [(2, 0)]
    assert sorted(item for block in blocks for item in block) == sorted(trial_items)
    assert len(blocks) == 1 + max(1, trials // 4) + math.ceil(trials / identities._BLOCK_TRIALS)
    settings = (kw["seed"], kw["monotone_trials"], False)
    alone = [r for item in trial_items for r in identities._sweep_block(settings, [item])]
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in alone]


def test_sweep_builds_no_tree_through_the_generic_builder(monkeypatch):
    # random_tree and flat_tree write their arrays directly
    def generic(*args):
        raise AssertionError("the sweep built a tree through _build_tree")

    monkeypatch.setattr(_pool, "cpu_count", lambda: 1)
    monkeypatch.setattr(classification, "_build_tree", generic)
    assert all(r.passed for r in run_sweep(seed=0, trials=4))
    with pytest.raises(AssertionError, match="_build_tree"):
        tree_from_levels(3, [])  # the patch is in place


def test_sweep_checks_no_tree_it_draws_again(monkeypatch):
    # random_tree and flat_tree draw only valid trees; the constructor still checks
    def check(tree):
        raise AssertionError("validate_tree ran")

    monkeypatch.setattr(_pool, "cpu_count", lambda: 1)
    monkeypatch.setattr(classification, "validate_tree", check)
    assert all(r.passed for r in run_sweep(seed=0, trials=4))
    with pytest.raises(AssertionError, match="validate_tree ran"):
        HierTree(n=0, paths=[()], parent=[-1], indptr=[0, 0], indices=[])


def _broken_weights(*args):
    raise ValueError(f"broken weights in process {os.getpid()}")


def test_sweep_raises_a_worker_error_and_stops_the_workers(monkeypatch, no_child_left):
    monkeypatch.setattr(_pool, "cpu_count", lambda: 2)
    monkeypatch.setattr(identities, "oracle_gen_weights", _broken_weights)
    with pytest.raises(ValueError, match="broken weights in process") as raised:
        run_sweep(seed=0, trials=8)
    assert int(str(raised.value).split()[-1]) != os.getpid()  # raised in a worker
    no_child_left()


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
    # an adaptive trial's tree (n = 41), truth and p-values, drawn from the
    # generator state below; N is exceeded by 6.6. It was check 2b0678fd9bf2:hier
    # of `groupedbh validate --trials 100 --seed 1970163759` while the sweep
    # drew every trial from one generator; now that each trial draws from its
    # own stream, that command no longer reproduces it
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


def _literal_loo_terms(weight_fn, pvalues, is_null) -> np.ndarray:
    """The nulls' 1/W_i(P with P_i = 0), each by re-running the weights, as
    check_loo_bound computes them."""
    terms = []
    for i in np.flatnonzero(is_null):
        p_loo = pvalues.copy()
        p_loo[i] = 0.0
        terms.append(1.0 / weight_fn(p_loo)[i])
    return np.array(terms)


def _loo_variants(tree, sway, gen, lam):
    """(name, production weights, one-pass weights and leave-one-out
    weights) of the four adaptive variants, as the sweep pairs them."""
    return [
        ("hier", partial(da_hier_weights, tree, lam=lam), partial(_da_leaf_loo, tree, lam=lam)),
        ("sway", partial(da_sway_weights, sway, lam=lam), partial(identities._forest_loo, sway, lam=lam)),
        ("gen", partial(da_gen_weights, gen, lam=lam), partial(identities._forest_loo, gen, lam=lam)),
        ("flat", partial(da_flat_weights, lam=lam), partial(_da_leaf_loo, flat_tree(tree.n), lam=lam)),
    ]


def _loo_config(seed):
    """A seeded configuration. Seeds 0..23 cover every depth 0..3, with and
    without overlap, at every lambda, at N = 1 and 2; later seeds draw N
    in 3..80. Some p-values equal lambda, some are 0 or 1, and half the
    configurations round them to one decimal, which makes ties."""
    rng = np.random.default_rng([20250, seed])
    lam = (0.3, 0.5, 0.9)[seed // 8 % 3]
    n = (1, 2)[seed % 2] if seed < 24 else int(rng.integers(3, 81))
    depth = seed % 4 if seed < 24 else int(rng.integers(0, 4))
    overlap = (0.0, 0.6)[seed // 4 % 2] if seed < 24 else float(rng.choice([0.0, 0.3, 0.6]))
    tree = random_tree(rng, n=n, depth=depth, max_overlap=overlap)
    sway = random_forest(rng, n=n, depth_one=True)
    gen = random_forest(rng, n=n)
    pvalues = rng.uniform(size=n)
    if rng.uniform() < 0.5:
        pvalues = np.round(pvalues, 1)
    pvalues[rng.uniform(size=n) < 0.25] = lam
    pvalues[rng.uniform(size=n) < 0.05] = rng.choice([0.0, 1.0])
    is_null = rng.uniform(size=n) < rng.uniform(0.2, 1.0)
    return tree, sway, gen, pvalues, is_null, lam


def test_one_pass_loo_equals_the_literal_rerun():
    # every per-null term, the sum and the report are the bits that
    # re-running the weights once per null gives, on all four variants
    covered = set()
    for seed in range(240):
        tree, sway, gen, pvalues, is_null, lam = _loo_config(seed)
        covered.add((tree.depth, lam))
        for name, weight_fn, loo_fn in _loo_variants(tree, sway, gen, lam):
            weights, loo = loo_fn(pvalues)
            assert np.array_equal(weights, weight_fn(pvalues)), (seed, name)
            closed = 1.0 / loo[is_null]
            literal = _literal_loo_terms(weight_fn, pvalues, is_null)
            assert closed.tobytes() == literal.tobytes(), (seed, name)
            assert math.fsum(closed) == math.fsum(literal)
            report = identities._loo_report(closed, tree.n, "d")
            assert report == check_loo_bound(weight_fn, pvalues, is_null, "d"), (seed, name)
    assert covered == {(d, lam) for d in range(4) for lam in (0.3, 0.5, 0.9)}


def test_one_pass_loo_gives_the_known_failure():
    # the configuration of test_adaptive_hier_loo_bound_known_failure
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
    literal = check_loo_bound(partial(da_hier_weights, tree, lam=0.5), pvalues, is_null)
    _, loo = _da_leaf_loo(tree, pvalues, 0.5)
    closed = identities._loo_report(1.0 / loo[is_null], tree.n, "")
    assert closed == literal and not closed.passed and closed.value > 6.0


def test_sweep_loo_fails_when_its_weights_are_not_the_production_ones(monkeypatch):
    # the one-pass weights must be the ones da_hier_weights gives, so a
    # change to da_hier_weights alone fails every loo_bound:hier report
    production = identities.da_hier_weights
    monkeypatch.setattr(identities, "da_hier_weights", lambda *args, **kw: 1.01 * production(*args, **kw))
    loo = [r for r in run_sweep(seed=12, trials=8, monotone_trials=5) if r.name == "loo_bound"]
    assert len(loo) == 8
    assert all(r.passed != r.config_digest.endswith(":hier") for r in loo)


def _off_by_1e_9(production):
    return lambda *args, **kw: production(*args, **kw) * (1 + 1e-9)


def _root_effect_perturbed(production):
    def effects(tree, is_null):
        found = production(tree, is_null)
        return {**found, (): found[()] * (1 + 1e-9)}

    return effects


def _drops_its_last_rejection(production):
    def weighted_bh(pvalues, weights, alpha):
        outcome = production(pvalues, weights, alpha)
        outcome.rejected[np.flatnonzero(outcome.rejected)[-1:]] = False
        return outcome

    return weighted_bh


# one corrupted input per check the sweep reports: (name in identities, its corruption)
CORRUPTIONS = {
    "condition1": ("oracle_sway_weights", lambda production: lambda *args: 1.01 * production(*args)),
    # the one-pass LOO at another lambda: its weights are not those of the production weights
    "loo_bound": ("_da_leaf_loo", lambda production: lambda tree, pvalues, lam: production(tree, pvalues, 0.25)),
    "monotone": ("da_flat_weights", lambda production: lambda pvalues, lam: 1.5 - pvalues),
    "reduction_flat": ("oracle_flat_weights", _off_by_1e_9),
    "reduction_oneway": ("oracle_hier_weights", _off_by_1e_9),
    "reduction_gen_single": ("oracle_gen_weights", _off_by_1e_9),
    "recursion_equivalence": ("oracle_hier_effects", _root_effect_perturbed),
    "stepup_oracle": ("weighted_bh", _drops_its_last_rejection),
}


def _one_cpu_sweep(monkeypatch) -> list:
    monkeypatch.setattr(_pool, "cpu_count", lambda: 1)
    return run_sweep(seed=12, trials=4, monotone_trials=3)


def test_the_corruption_table_names_every_check_and_each_passes_uncorrupted(monkeypatch):
    reports = _one_cpu_sweep(monkeypatch)
    assert {r.name for r in reports} == set(CORRUPTIONS)
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_every_check_the_sweep_reports_can_fail(monkeypatch, check):
    patched, corrupt = CORRUPTIONS[check]
    monkeypatch.setattr(identities, patched, corrupt(getattr(identities, patched)))
    assert any(not r.passed for r in _one_cpu_sweep(monkeypatch) if r.name == check)

import hashlib
import importlib.util
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupedbh import classification, cli, simulate
from groupedbh.classification import (
    ClassificationForest,
    HierTree,
    _as_index_array,
    _integer,
    _key,
    _list,
    flat_tree,
    forest_from_dict,
    forest_from_grid,
    forest_to_dict,
    group_stats,
    leaf_memberships,
    load_forest,
    save_forest,
    tree_from_groups,
    tree_from_levels,
    validate_forest,
    validate_tree,
)
from groupedbh.identities import random_forest, random_tree
from groupedbh.weights import da_gen_weights, da_hier_weights


def two_level_overlap_tree(n=12):
    # two level-1 groups sharing indices 4..7; leaves split each in half
    g1 = np.arange(0, 8)
    g2 = np.arange(4, 12)
    level1 = [((1,), g1), ((2,), g2)]
    level2 = [
        ((1, 1), np.arange(0, 4)),
        ((1, 2), np.arange(4, 8)),
        ((2, 1), np.arange(4, 8)),
        ((2, 2), np.arange(8, 12)),
    ]
    return tree_from_levels(n, [level1, level2])


def test_flat_tree_shape():
    t = flat_tree(7)
    assert t.depth == 0
    assert t.leaves.tolist() == [0] and t.paths == [()]
    assert (t.members(0) == np.arange(7)).all()
    assert validate_tree(t) == []


@pytest.mark.parametrize("n", [0, 1, 7])
def test_flat_tree_equals_the_generic_builder(n):
    # flat_tree writes its arrays itself; tree_from_levels is the reference
    direct, generic = flat_tree(n), tree_from_levels(n, [])
    assert direct.n == generic.n and direct.paths == generic.paths
    for name in ("parent", "indptr", "indices"):
        assert np.array_equal(getattr(direct, name), getattr(generic, name)), name


@pytest.mark.parametrize("n", [-1, True, 2.0])
def test_flat_tree_rejects_a_bad_size(n):
    with pytest.raises(ValueError, match="^n must be"):
        flat_tree(n)


def test_overlap_tree_structure():
    t = two_level_overlap_tree()
    assert t.depth == 2
    assert [t.paths[k] for k in range(t.levels[0].start, t.levels[0].stop)] == [(1,), (2,)]
    assert len(t.leaves) == 4
    assert validate_tree(t) == []
    # the shared block hangs under both parents as distinct nodes
    paths = [t.paths[k] for k in t.leaves if 5 in t.members(k)]
    assert paths == [(1, 2), (2, 1)]


def test_tree_from_groups_containment():
    groups = [np.arange(0, 5), np.arange(5, 10)]
    sub = [np.arange(0, 2), np.arange(2, 5), np.arange(5, 10)]
    t = tree_from_groups(10, [groups, sub])
    assert validate_tree(t) == []
    assert [t.paths[k] for k in t.leaves] == [(1, 1), (1, 2), (2, 1)]


def test_tree_from_groups_rejects_orphan():
    with pytest.raises(ValueError):
        tree_from_groups(10, [[np.arange(0, 5), np.arange(5, 10)], [np.array([3, 7])]])


def test_tree_from_levels_rejects_missing_parent():
    with pytest.raises(ValueError, match="has no parent"):
        tree_from_levels(4, [[((1, 1), np.arange(2))]])


@pytest.mark.parametrize(
    "levels",
    [
        [[((1,), np.arange(4)), ((1, 1), np.arange(4))]],
        [[((1,), np.arange(4))], [((2,), np.arange(4))]],
    ],
)
def test_tree_from_levels_rejects_parent_off_previous_level(levels):
    # the parent must sit at the previous level, not at the same one or higher up
    with pytest.raises(ValueError, match="has no parent"):
        tree_from_levels(4, levels)


def test_tree_from_levels_rejects_a_non_integer_path_entry():
    # int() would truncate 1.7 to 1 and build the path (1,)
    with pytest.raises(ValueError, match=r"a path entry must be an integer in int64 range, got 1\.7"):
        tree_from_levels(4, [[((1.7,), np.arange(0, 2)), ((2,), np.arange(2, 4))]])


def test_tree_from_levels_takes_numpy_integer_path_entries():
    # they fail the bulk check for plain ints, so the paths are walked one by one
    levels = [[((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))], [((2, 1), [3, 4]), ((1, 1), [0, 1, 2]), ((2, 2), [5])]]
    as_numpy = [[(tuple(map(np.int64, path)), members) for path, members in level] for level in levels]
    tree = tree_from_levels(6, as_numpy)
    _assert_same_arrays(tree, tree_from_levels(6, levels))
    assert {type(v) for path in tree.paths for v in path} == {int}


@pytest.mark.parametrize(
    "members",
    [[0.5, 1.5], [0.9, 1.9], np.array([0.5, 1.5]), np.array([True, True]), [True, True]],
    ids=["halves", "nines", "float-array", "bool-mask", "bool-list"],
)
def test_tree_from_levels_rejects_non_integer_members(members):
    # a cast to int64 would truncate floats to [0, 1] and read the mask as member 1
    with pytest.raises(ValueError, match="group members must be integers"):
        tree_from_levels(4, [[((1,), members), ((2,), np.arange(0, 4))]])


@pytest.mark.parametrize("members", [[], np.zeros(0), np.zeros(0, dtype=bool)], ids=["list", "float", "bool"])
def test_empty_members_of_any_dtype_are_accepted(members):
    tree = tree_from_levels(0, [[((1,), members)]])
    assert tree.members(1).dtype == np.int64 and tree.members(1).size == 0


def _problems(build) -> list[str]:
    """The messages of the ValueError that building a tree or forest raises."""
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value).split("; ")


def test_validate_catches_coverage_gap():
    problems = _problems(lambda: tree_from_levels(6, [[((1,), np.arange(0, 3)), ((2,), np.arange(3, 5))]]))
    assert problems == ["children of () do not cover the parent"]


def test_validate_catches_containment_violation():
    level1 = [((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))]
    level2 = [
        ((1, 1), np.arange(0, 3)),
        ((2, 1), np.array([2, 3, 4, 5])),  # 2 is not in parent (2,)
    ]
    assert _problems(lambda: tree_from_levels(6, [level1, level2])) == ["child (2, 1) not contained in parent (2,)"]


def test_validate_catches_unequal_leaf_depth():
    level1 = [((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))]
    level2 = [((1, 1), np.arange(0, 3))]  # group (2,) keeps no children
    assert _problems(lambda: tree_from_levels(6, [level1, level2])) == ["leaves at unequal depths: [1, 2]"]


def test_validate_catches_siblings_sharing_a_path():
    # both groups hang under the root as (1,), so path-keyed effects merge them
    problems = _problems(lambda: tree_from_levels(10, [[((1,), np.arange(0, 4)), ((1,), np.arange(4, 10))]]))
    assert problems == ["sibling groups share path (1,)", "children of () are not numbered 1..2"]
    groups = [{"path": [1], "members": [[0, 4]]}, {"path": [1], "members": [[4, 10]]}]
    with pytest.raises(ValueError, match=r"^tree 0: sibling groups share path \(1,\)"):
        forest_from_dict({"n": 10, "trees": [{"levels": [groups]}]})


def test_validate_catches_sibling_numbering_gap():
    problems = _problems(lambda: tree_from_levels(6, [[((1,), np.arange(0, 3)), ((3,), np.arange(3, 6))]]))
    assert problems == ["children of () are not numbered 1..2"]


def test_validate_catches_path_outside_parent_lineage():
    problems = _problems(
        lambda: HierTree(n=4, paths=[(), (1,), (2, 1)], parent=[-1, 0, 1], indptr=[0, 4, 8, 12], indices=np.tile(np.arange(4), 3))
    )
    assert problems == ["children of (1,) are not numbered 1..1"]


def test_validate_catches_unsorted_or_repeated_members():
    problems = _problems(
        lambda: HierTree(n=4, paths=[(), (1,), (2,)], parent=[-1, 0, 0], indptr=[0, 4, 6, 9], indices=[0, 1, 2, 3, 1, 0, 2, 2, 3])
    )
    assert problems == [
        "members of (1,) are not sorted and distinct",
        "members of (2,) are not sorted and distinct",
    ]


@pytest.mark.parametrize(
    "parent",
    [[0, 0, 0], [-1, 0, -1], [-1, 1, 1], [-1, 0, 2], [-1, 0, 0, 1, 0], [-1, 0, 1, 1, 2, 1]],
)
def test_tree_rejects_parents_out_of_level_order(parent):
    k = len(parent)
    with pytest.raises(ValueError, match="level-ordered"):
        HierTree(n=1, paths=[()] * k, parent=parent, indptr=np.zeros(k + 1, dtype=np.int64), indices=[])


def test_tree_rejects_inconsistent_arrays():
    with pytest.raises(ValueError, match="paths"):
        HierTree(n=2, paths=[()], parent=[-1, 0], indptr=[0, 2, 4], indices=[0, 1, 0, 1])
    with pytest.raises(ValueError, match="indptr"):
        HierTree(n=2, paths=[(), (1,)], parent=[-1, 0], indptr=[0, 2, 3], indices=[0, 1, 0, 1])


def test_validate_catches_empty_and_out_of_range_groups():
    problems = _problems(
        lambda: tree_from_levels(
            4, [[((1,), np.arange(0, 4)), ((2,), np.array([], dtype=np.int64)), ((3,), np.array([2, 7]))]]
        )
    )
    assert problems == [
        "empty group at path (2,)",
        "index out of range [0, 4) at path (3,)",
        "child (3,) not contained in parent ()",
    ]


@pytest.mark.parametrize(
    "n, groups, problems",
    [
        # weights used to give 8 and 9 +inf, and Condition 1 still held
        (10, [((1,), np.arange(0, 4)), ((2,), np.arange(4, 8))], ["children of () do not cover the parent"]),
        # weights used to raise IndexError
        (5, [((1,), [0, 1, 2]), ((2,), [3, 4, 7])], ["index out of range [0, 5) at path (2,)", "child (2,) not contained in parent ()"]),
    ],
    ids=["uncovered", "out-of-range"],
)
def test_invalid_tree_is_not_built(n, groups, problems):
    assert _problems(lambda: tree_from_levels(n, [groups])) == problems


def test_far_out_of_range_members_do_not_wrap_the_keys():
    # keys made as parent * (2**62 + 1) + member passed 2**63 under node 2 and
    # wrapped, which reported every other group of the tree as well
    far = 2**62
    levels = [
        [((1,), [0, 1, 2, far]), ((2,), [0, 1, 2])],
        [((1, 1), [0, 1, 2, far]), ((2, 1), [0, 1, 2])],
    ]
    assert _problems(lambda: tree_from_levels(3, levels)) == [
        "index out of range [0, 3) at path (1,)",
        "index out of range [0, 3) at path (1, 1)",
        "child (1,) not contained in parent ()",
    ]


def test_trees_without_hypotheses_are_valid():
    # at N = 0 every group is necessarily empty
    assert flat_tree(0).depth == 0 and validate_tree(flat_tree(0)) == []
    partition = tree_from_levels(0, [[((1,), [])], [((1, 1), []), ((1, 2), [])]])
    assert partition.depth == 2 and validate_tree(partition) == []
    assert _problems(lambda: tree_from_levels(0, [[((1,), [0])]])) == [
        "index out of range [0, 0) at path (1,)",
        "child (1,) not contained in parent ()",
    ]


PERTURBATIONS = ("drop", "foreign", "out-of-range", "repeat", "renumber", "empty", "strip")


def _perturbed_tree(seed: int, kind: str) -> dict:
    """The arrays of a seeded random tree with one fault put in at a random
    node: a member dropped, a member from outside its parent (or, failing
    that, itself) or out of range added, a member repeated, its path
    renumbered, the group emptied, or one parent's subtree stripped."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng)
    paths, parent = list(tree.paths), tree.parent.tolist()
    members = [tree.members(k) for k in range(len(paths))]
    k = int(rng.integers(1, len(paths))) if len(paths) > 1 else 0
    mem = members[k]
    if kind == "drop" and mem.size:
        members[k] = np.delete(mem, rng.integers(mem.size))
    elif kind == "foreign":
        outside = np.setdiff1d(np.arange(tree.n), members[parent[k]] if k else mem)
        if outside.size == 0:
            outside = np.setdiff1d(np.arange(tree.n), mem)
        if outside.size:
            members[k] = np.sort(np.append(mem, rng.choice(outside)))
    elif kind == "out-of-range":
        members[k] = np.append(mem, tree.n) if rng.integers(2) else np.insert(mem, 0, -1)
    elif kind == "repeat" and mem.size:
        members[k] = np.insert(mem, j := int(rng.integers(mem.size)), mem[j])
    elif kind == "renumber" and k:
        paths[k] = paths[k][:-1] + (paths[k][-1] + int(rng.integers(1, 3)),)
    elif kind == "empty":
        members[k] = mem[:0]
    elif kind == "strip" and tree.depth:
        up = int(rng.choice(np.flatnonzero(tree.m)))
        gone = set()
        for j in range(1, len(paths)):
            if parent[j] == up or parent[j] in gone:
                gone.add(j)
        keep = [j for j in range(len(paths)) if j not in gone]
        new_id = {j: i for i, j in enumerate(keep)}
        paths = [paths[j] for j in keep]
        parent = [-1] + [new_id[parent[j]] for j in keep[1:]]
        members = [members[j] for j in keep]
    indptr = np.concatenate(([0], np.cumsum([m.size for m in members])))
    return dict(n=tree.n, paths=paths, parent=parent, indptr=indptr, indices=np.concatenate(members))


def test_constructor_reports_what_the_separate_check_reported():
    # 210 perturbed random trees; the digest is of the message lists that
    # validate_tree returned for them when it was a separate step, before
    # the constructor ran it
    reports = []
    for seed in range(30):
        for kind in PERTURBATIONS:
            try:
                HierTree(**_perturbed_tree(seed, kind))
                reports.append([])
            except ValueError as exc:
                reports.append(str(exc).split("; "))
    assert sum(map(bool, reports)) == 162
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "2fe3365d2a235ce619b22d5a113b218cf4a9674cb9acd0b25470fb993e37f5f2"


FAULTS = ("drop", "repeat", "swapped", "out-of-range", "shifted", "wider", "renumber", "cut")


def _single_faults(tree: HierTree):
    """(kind, node, arrays) of every single fault that surely makes the tree
    invalid, put in at every node where it does: a member dropped from a
    node its children cover (or from the root), a member repeated, two
    members swapped, a member out of range, the root's first or last member
    moved out of range (so that its members still rise), a member from
    outside the parent (when the parent is not the root and leaves one
    out), the path's number raised, and a node of the last level but one
    cut off from its children (when that level has another node)."""
    n, paths, parent = tree.n, list(tree.paths), tree.parent.tolist()
    members = [tree.members(k) for k in range(len(paths))]

    def arrays(paths=paths, parent=parent, members=members) -> dict:
        indptr = np.concatenate(([0], np.cumsum([m.size for m in members])))
        return dict(n=n, paths=paths, parent=parent, indptr=indptr, indices=np.concatenate(members))

    for k, mem in enumerate(members):

        def with_members(new):
            return arrays(members=members[:k] + [new] + members[k + 1 :])

        mid = mem.size // 2
        if tree.m[k] or k == 0:
            yield "drop", k, with_members(np.delete(mem, mid))
        yield "repeat", k, with_members(np.insert(mem, mid, mem[mid]))
        if mem.size > 1:
            yield "swapped", k, with_members(np.concatenate((mem[: mid - 1], mem[mid - 1 : mid + 1][::-1], mem[mid + 1 :])))
        yield "out-of-range", k, with_members(np.append(mem, n) if k % 2 else np.insert(mem, 0, -1))
        if k == 0:  # still sorted and distinct
            yield "shifted", k, with_members(mem + np.where(np.arange(n) < n - 1, 0, 1))
            yield "shifted", k, with_members(mem - np.where(np.arange(n) > 0, 0, 1))
        outside = np.setdiff1d(np.arange(n), members[parent[k]]) if k and parent[k] else []
        if len(outside):
            yield "wider", k, with_members(np.union1d(mem, outside[k % len(outside)]))
        if k:
            yield "renumber", k, arrays(paths=paths[:k] + [paths[k][:-1] + (paths[k][-1] + 1,)] + paths[k + 1 :])
        above_leaves = range(tree.levels[-2].start, tree.levels[-2].stop) if tree.depth >= 2 else ()
        if k in above_leaves and len(above_leaves) > 1:
            keep = [j for j in range(len(paths)) if parent[j] != k]
            cut = [paths[j] for j in keep], [parent[j] for j in keep], [members[j] for j in keep]
            yield "cut", k, arrays(*cut)


SINGLE_FAULTS = {  # kind: (faults, digest of their messages)
    "drop": (866, "8faac48dc9ce13d993c70baccb493ddf030234a7c7695c2992a5fe3ab79ae3ea"),
    "repeat": (2228, "8b5fbf3ae5c20d1dbd06f70c8de850350abbda5d28dda71f14226c7811996d6b"),
    "swapped": (2228, "79e2ac7850258c7e39be1ce73a3a12a3477b58d529fbae4efbf903c3cbf1fb6b"),
    "out-of-range": (2228, "26aa5f723cc27773889175045aedbbd08b29e10ff75653527a41e6df6e0b6940"),
    "shifted": (400, "c9ac3c328185aba4451de7cccd4ae5bd2261e966a227c4b2619e6143bc69bf13"),
    "wider": (1629, "cb464a53cb41b6441c108dfa8caa8f37baa2e64e822df421baad837409886a88"),
    "renumber": (2028, "8edb6ea1a766031ec08f95eb1d4846347b6af02b248426e9ce9d2a6a111d814f"),
    "cut": (514, "bf4f2a093a9dfc78313f440a6f65fef5f4d8a29c82f6612f5b488fbbf1dd7b42"),
}


def test_every_single_fault_is_reported_as_before():
    # each fault at every node of 200 random trees; the digests are of the
    # messages the constructor gave before validate_tree tested each rule
    # in bulk first
    reports = {kind: [] for kind in FAULTS}
    for seed in range(200):
        for kind, k, arrays in _single_faults(random_tree(np.random.default_rng(seed))):
            with pytest.raises(ValueError) as raised:
                HierTree(**arrays)
            reports[kind].append([seed, k, str(raised.value)])
    digests = {kind: (len(r), hashlib.sha256(json.dumps(r).encode()).hexdigest()) for kind, r in reports.items()}
    assert digests == SINGLE_FAULTS


def _checked(arrays: dict) -> HierTree:
    """The tree of a random draw's arrays, built through the constructor, which checks it."""
    return HierTree(**arrays)


def _tree_arrays(tree: HierTree) -> dict:
    return dict(n=tree.n, paths=tree.paths, parent=tree.parent, indptr=tree.indptr, indices=tree.indices)


def _sort_cases():
    """Builds of valid trees and forests, and of invalid tree arrays."""
    yield from (lambda s=s: _checked(_tree_arrays(random_tree(np.random.default_rng(s)))) for s in range(40))
    yield lambda: forest_from_grid((7, 9, 4))
    yield _big_spec_forest
    yield from (lambda s=s, k=k: _checked(_perturbed_tree(s, k)) for s in range(10) for k in PERTURBATIONS)
    for seed in range(10):
        yield from (lambda a=a: _checked(a) for _, _, a in _single_faults(random_tree(np.random.default_rng(seed))))


def _built(build):
    """The trees that build() returns, or the messages of its ValueError."""
    try:
        made = build()
    except ValueError as exc:
        return str(exc).split("; ")
    return list(made.trees) if isinstance(made, ClassificationForest) else [made]


def test_stable_sort_of_sibling_keys_keeps_every_tree_and_message(monkeypatch):
    # validate_tree sorts a level's (parent, member) keys, runs that are each
    # sorted, with kind="stable", which merges them; np.unique, a sort of its
    # own, is the reference
    built = [_built(build) for build in _sort_cases()]
    monkeypatch.setattr(classification, "_sorted_unique", lambda arr, kind=None: np.unique(arr))
    reference = [_built(build) for build in _sort_cases()]
    assert len(built) == len(reference) == 860
    assert sum(isinstance(got[0], str) for got in built) == 805  # invalid builds
    for got, expected in zip(built, reference):
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            if isinstance(b, str):
                assert a == b
            else:
                _assert_same_arrays(a, b)


def test_compiled_form_is_level_ordered_csr():
    t = two_level_overlap_tree()
    assert t.paths == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert t.parent.tolist() == [-1, 0, 0, 1, 1, 2, 2]
    assert t.m.tolist() == [2, 2, 2, 0, 0, 0, 0]
    assert t.mult.tolist() == [1, 2, 2, 4, 4, 4, 4] and t.mult.dtype == np.float64
    assert t.levels == [slice(1, 3), slice(3, 7)] and t.depth == 2
    assert t.leaves.tolist() == [3, 4, 5, 6]
    assert t.indptr.tolist() == [0, 12, 20, 28, 32, 36, 40, 44]
    assert (t.indices[t.indptr[2] : t.indptr[3]] == np.arange(4, 12)).all()
    assert (t.members(2) == np.arange(4, 12)).all() and t.sizes.tolist() == [12, 8, 8, 4, 4, 4, 4]
    assert (t.leaf_rows() == np.r_[0:8, 4:12]).all()
    assert t.counts(np.arange(12) < 6).tolist() == [6, 6, 2, 4, 2, 2, 0]


def test_branching_product_beyond_int64_does_not_wrap():
    # overlapping siblings may repeat their parent's members, so 4 members
    # reach a product of 2**65: (1,) = {0, 1} and (2,) = {2, 3}, and along
    # the first lineage each node has two children, both {0, 1}; in int64
    # the product wrapped and the weights became [0, 0, inf, inf]
    levels, first = [[((1,), [0, 1]), ((2,), [2, 3])]], (1,)
    for _ in range(64):
        levels.append([(path + (j,), mem) for path, mem in levels[-1] for j in range(1, 2 + (path == first))])
        first += (1,)
    tree = tree_from_levels(4, levels)
    assert tree.depth == 65 and len(tree.paths) == 2211
    assert tree.mult.max() == 2.0**65 and tree.mult.min() == 1.0
    assert da_hier_weights(tree, [0.9, 0.95, 0.01, 0.02], 0.5).tolist() == [3.0, 3.0, 1.0, 1.0]


def _spec_members(encoded: list, n: int) -> np.ndarray:
    """Members of group (1,), encoded as given, decoded by forest_from_dict
    beside a group (2,) that covers the root."""
    groups = [{"path": [1], "members": encoded}, {"path": [2], "members": [[0, n]]}]
    return forest_from_dict({"n": n, "trees": [{"levels": [groups]}]}).trees[0].members(1)


def _saved_members(n: int, members) -> list:
    """The spec members forest_to_dict writes for group (1,), beside a
    group (2,) that covers the root."""
    forest = ClassificationForest(n=n, trees=(tree_from_levels(n, [[((1,), members), ((2,), range(n))]]),))
    return forest_to_dict(forest)["trees"][0]["levels"][0][0]["members"]


def test_member_runs_encode_from_three():
    members = np.array([0, 1, 2, 5, 7, 8, 10, 11, 12, 13])
    assert _saved_members(14, members) == [[0, 3], 5, 7, 8, [10, 14]]
    assert _saved_members(0, []) == []
    assert (_spec_members([[0, 3], 5, 7, 8, [10, 14]], 14) == members).all()


def test_unsorted_overlapping_runs_decode_to_their_union():
    # runs are merged before they are expanded
    encoded = [[6, 9], 2, [0, 3], [4, 7], 8, [4, 7], [5, 5]]
    assert _spec_members(encoded, 10).tolist() == [0, 1, 2, 4, 5, 6, 7, 8]
    assert _spec_members([], 0).tolist() == []
    # members out of range are kept for the tree's constructor to report
    assert _problems(lambda: _spec_members(encoded + [20, -1], 10)) == [
        "tree 0: index out of range [0, 10) at path (1,)",
        "child (1,) not contained in parent ()",
    ]


def test_repeated_runs_are_merged_within_the_memory_rule():
    # a group holds at most n + (members outside [0, n)) entries: expanding
    # each of these 10**4 runs before merging them would take 10**4 * 8n bytes
    n = 10**5
    doc = {"n": n, "trees": [{"levels": [[{"path": [1], "members": [[0, n]] * 10**4}]]}]}
    tracemalloc.start()
    try:
        tree = forest_from_dict(doc).trees[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tree.members(1) == np.arange(n)).all()
    assert peak < 6 * 8 * n


def test_validating_a_million_member_tree_stays_within_its_memory_rule():
    # the tree of the benchmark's test-1m workload: N = 10**6 in 100
    # level-1 groups, each overlapping its right neighbour by 10%, each cut
    # into 100 contiguous leaves. Its check sets the peak of loading that
    # spec: it gives 0.73 * indices.nbytes, and 1.05 when it keeps one
    # level's keys while it makes the next level's
    n, size = 10**6, 10**4
    level1, level2 = [], []
    for g in range(100):
        lo, hi = g * size, min(n, (g + 1) * size + size // 10)
        level1.append(((g + 1,), np.arange(lo, hi)))
        cuts = np.linspace(lo, hi, 101).round().astype(np.int64)
        level2 += [((g + 1, j + 1), np.arange(cuts[j], cuts[j + 1])) for j in range(100)]
    tree = tree_from_levels(n, [level1, level2])
    assert tree.leaves.size == 10**4
    tracemalloc.start()
    try:
        assert validate_tree(tree) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * tree.indices.nbytes


def _reference_union_runs(key, first, last):
    """The sorting path of classification._union_runs, which every set of
    runs took before runs already in order skipped it."""
    keep = first <= last
    keys, ends = np.tile(key[keep], 2), np.concatenate((first[keep], last[keep]))
    closing = np.arange(ends.size) >= ends.size // 2
    order = np.lexsort((closing, ends, keys))
    closing = closing[order]
    still_open = np.cumsum(np.where(closing, -1, 1))
    opens, closes = order[(still_open == 1) & ~closing], order[still_open == 0]
    return keys[opens], ends[opens], ends[closes] - ends[opens] + 1


@pytest.mark.parametrize("kind, sorts", [("sorted", False), ("strided", False), ("overlapping", True), ("shuffled", True)])
def test_union_of_runs_equals_the_sorting_path(monkeypatch, kind, sorts):
    lexsorts = []
    monkeypatch.setattr(np, "lexsort", lambda keys, _lexsort=np.lexsort: lexsorts.append(1) or _lexsort(keys))
    rng = np.random.default_rng(17)
    for _ in range(100):
        values, group = [], []
        for g in range(int(rng.integers(1, 6))):
            if kind == "strided":
                members = np.arange(rng.integers(0, 4), 300, rng.integers(2, 5))
            else:
                members = np.sort(rng.choice(300, int(rng.integers(1, 200)), replace=False))
            if kind == "overlapping":  # each member's successor, once more
                members = np.concatenate((members, members[: members.size // 2] + 1))
            elif kind == "shuffled":
                members = rng.permutation(members)
            values.append(members)
            group.append(np.full(members.size, g))
        key, first, last = classification._runs(np.concatenate(values), np.concatenate(group))
        at = int(rng.integers(0, key.size + 1))  # an empty run [v, v - 1], as a spec's [v, v) gives
        key, first, last = (np.insert(a, at, v) for a, v in ((key, key[min(at, key.size - 1)]), (first, 5), (last, 4)))
        want = _reference_union_runs(key, first, last)
        lexsorts.clear()
        got = classification._union_runs(key, first, last)
        assert bool(lexsorts) == sorts
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def test_counts_equal_a_sum_per_node():
    rng = np.random.default_rng(8)
    trees = [random_tree(rng) for _ in range(100)]
    trees += [flat_tree(0), flat_tree(1), tree_from_levels(0, [[((1,), []), ((2,), [])]])]
    for tree in trees:
        mask = rng.uniform(size=tree.n) < 0.5
        for first in (0, int(tree.leaves[0])):
            counts = tree.counts(mask, first)
            assert counts.dtype == np.int64
            assert counts.tolist() == [np.count_nonzero(mask[tree.members(k)]) for k in range(first, len(tree.paths))]


def test_negative_n_is_reported_as_such():
    # it was "tree 0: indptr must rise to the length of indices"
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -5$"):
        forest_from_dict({"n": -5, "trees": [{"levels": []}]})
    with pytest.raises(ValueError, match=r"^n must be >= 0, got -5$"):
        tree_from_levels(-5, [])


def test_forest_from_grid():
    f = forest_from_grid((2, 3))
    assert f.n == 6 and f.s_count == 2
    assert validate_forest(f) == []
    # index 5 sits in row 1 and column 2
    assert leaf_memberships(f, 5) == [[(2,)], [(3,)]]
    with pytest.raises(IndexError):
        leaf_memberships(f, 6)


@pytest.mark.parametrize("i", [2.5, True, "1"])
def test_leaf_memberships_rejects_an_index_that_is_not_an_integer(i):
    # 2.5 gave [[], []], and True was read as 1
    with pytest.raises(ValueError, match="^a hypothesis index must be an integer"):
        leaf_memberships(forest_from_grid((2, 3)), i)


@pytest.mark.parametrize(
    "shape, message",
    [
        ((), "^a grid needs at least one dimension$"),
        ((2.0, 3), r"^a grid dimension must be an integer in int64 range, got 2\.0$"),
        ((2, True), "^a grid dimension must be an integer in int64 range, got True$"),
        ((3, -1), "^a grid dimension must be >= 0, got -1$"),
    ],
    ids=["no-dimension", "float", "bool", "negative"],
)
def test_forest_from_grid_rejects_a_bad_shape(shape, message):
    # () raised numpy's "multiple indices are not supported for 0d arrays",
    # and 2.0 a TypeError
    with pytest.raises(ValueError, match=message):
        forest_from_grid(shape)


def test_forest_from_grid_builds_without_the_containment_search(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return call

    monkeypatch.setattr(classification, "tree_from_groups", refuse("tree_from_groups"))
    monkeypatch.setattr(np, "argsort", refuse("np.argsort"))  # each group is a slice of the index grid
    forest = forest_from_grid((3, 2, 2))
    assert [tree.paths for tree in forest.trees] == [[(), (1,), (2,), (3,)], [(), (1,), (2,)], [(), (1,), (2,)]]
    assert forest.trees[2].members(2).tolist() == [1, 3, 5, 7, 9, 11]


def _grid_by_scan(shape: tuple[int, ...]) -> list:
    """forest_from_grid's trees as one scan per group builds them: the
    reference for the slices of the index grid."""
    n = math.prod(shape)
    coords = np.unravel_index(np.arange(n), shape)
    return [tree_from_levels(n, [[((g + 1,), np.flatnonzero(c == g)) for g in range(size)]]) for c, size in zip(coords, shape)]


@pytest.mark.parametrize("shape", [(3, 4), (5,), (2, 3, 4), (1, 1), (7, 1, 2), (3, 0), (0, 4), (0,)])
def test_forest_from_grid_equals_a_scan_per_group(shape):
    # the scan per group cost O(n x groups): 5 s on a 1000 x 1000 grid
    forest = forest_from_grid(shape)
    assert [len(tree.paths) - 1 for tree in forest.trees] == list(shape)  # a 0-size dimension: 0 groups
    for tree, ref in zip(forest.trees, _grid_by_scan(shape), strict=True):
        assert tree.paths == ref.paths
        for name in ("parent", "indptr", "indices"):
            a, b = getattr(tree, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_forest_mismatched_n_flagged():
    # weight functions used to blame the labels: "5 truth labels for 4 hypotheses"
    assert _problems(lambda: ClassificationForest(n=5, trees=(flat_tree(4), flat_tree(5), flat_tree(3)))) == [
        "tree 0 has n=4, forest has n=5",
        "tree 2 has n=3, forest has n=5",
    ]


def test_spec_without_trees_is_not_built():
    assert _problems(lambda: forest_from_dict({"n": 3, "trees": []})) == ["forest must contain at least one tree"]


def test_group_stats():
    t = two_level_overlap_tree()
    is_null = np.arange(12) % 2 == 0
    k = t.levels[0].start  # the first level-1 group
    assert group_stats(t, k, is_null) == (8, 4, 0.5)
    assert (t.sizes[k], t.counts(is_null)[k]) == (8, 4)


@pytest.mark.parametrize(
    "k, truth, error, message",
    [
        (-1, [1, 0, 1, 0], IndexError, r"^node id -1 out of range \[0, 3\)$"),  # was a ZeroDivisionError
        (9, [1, 0, 1, 0], IndexError, r"^node id 9 out of range \[0, 3\)$"),  # was numpy's IndexError
        (2.5, [1, 0, 1, 0], ValueError, "^a node id must be an integer"),
        (True, [1, 0, 1, 0], ValueError, "^a node id must be an integer"),
        (1, [1, 0], ValueError, "^length mismatch: 2 truth labels for 4 hypotheses$"),  # passed silently
    ],
    ids=["negative", "past-the-end", "float", "bool", "short-truth"],
)
def test_group_stats_rejects_a_bad_node_or_truth(k, truth, error, message):
    t = tree_from_levels(4, [[((1,), [0, 1]), ((2,), [2, 3])]])
    with pytest.raises(error, match=message):
        group_stats(t, k, np.array(truth))


def test_group_stats_of_an_empty_node():
    # the null share of no hypotheses is 0.0, as weights._pi0 has it; was a ZeroDivisionError
    assert group_stats(flat_tree(0), 0, np.zeros(0, dtype=bool)) == (0, 0, 0.0)
    assert group_stats(tree_from_levels(0, [[((1,), [])]]), 1, []) == (0, 0, 0.0)


def test_member_run_compression_round_trip():
    t = two_level_overlap_tree()
    f = ClassificationForest(n=12, trees=(t,))
    data = forest_to_dict(f)
    # contiguous blocks encode as [start, stop) runs
    assert data["trees"][0]["levels"][0][0]["members"] == [[0, 8]]
    back = forest_from_dict(data)
    assert validate_forest(back) == []
    _assert_same_arrays(back.trees[0], t)


def test_json_file_round_trip(tmp_path):
    f = forest_from_grid((3, 4))
    path = tmp_path / "spec.json"
    save_forest(f, path)
    parsed = json.loads(path.read_text())
    assert parsed["n"] == 12
    back = load_forest(path)
    assert back.n == 12 and back.s_count == 2
    assert validate_forest(back) == []


def _big_spec_forest() -> ClassificationForest:
    """The forest of perfbench's test-1m spec: N = 10**6 in 100 overlapping
    level-1 groups of 100 leaves each."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "gen_inputs.py"
    )
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    tree = tree_from_levels(gen_inputs.BIG_N, gen_inputs.big_tree_levels())
    return ClassificationForest(n=tree.n, trees=(tree,))


@pytest.mark.parametrize(
    "make",
    [
        _big_spec_forest,
        cli._eeg_shaped_forest,
        lambda: ClassificationForest(n=simulate.simulation_tree().n, trees=(simulate.simulation_tree(),)),
        lambda: forest_from_grid((7, 9, 4)),
        lambda: random_forest(np.random.default_rng(8)),
    ],
    ids=["test-1m", "eeg", "simulation", "grid-7x9x4", "random"],
)
def test_save_forest_writes_what_json_dump_writes(tmp_path, make):
    # save_forest encodes with json.dumps, the C encoder, where it used json.dump's pure-Python one
    forest = make()
    save_forest(forest, tmp_path / "spec.json")
    expected = io.StringIO()
    json.dump(forest_to_dict(forest), expected, separators=(",", ":"))
    assert (tmp_path / "spec.json").read_text() == expected.getvalue() + "\n"


def test_spec_nested_past_the_decoder_limit_is_a_value_error(tmp_path):
    # load_forest raised RecursionError, which no caller catching ValueError sees
    path = tmp_path / "spec.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ValueError, match="nested too deeply to decode"):
        load_forest(path)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6))
def test_grid_round_trip_property(rows, cols):
    f = forest_from_grid((rows, cols))
    back = forest_from_dict(forest_to_dict(f))
    assert validate_forest(back) == []
    for ta, tb in zip(f.trees, back.trees):
        _assert_same_arrays(ta, tb)


def _assert_same_arrays(a, b):
    assert a.paths == b.paths
    for name in ("parent", "indptr", "indices"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 200), st.integers(0, 3))
def test_random_tree_round_trip_property(seed, n, depth):
    t = random_tree(np.random.default_rng(seed), n=n, depth=depth)
    back = forest_from_dict(forest_to_dict(ClassificationForest(n=n, trees=(t,))))
    _assert_same_arrays(back.trees[0], t)


def test_members_deduplicated_and_sorted():
    t = tree_from_levels(4, [[((1,), np.array([3, 1, 1, 0, 2]))]])
    assert (t.members(1) == np.arange(4)).all()


def _spec(n=3, path=None, members=None):
    """A one-tree, one-level spec document with the given field values."""
    group = {"path": [1] if path is None else path, "members": [[0, 3]] if members is None else members}
    return {"n": n, "trees": [{"levels": [[group]]}]}


@pytest.mark.parametrize(
    "data",
    [
        [1],
        {"n": 3, "trees": 3},
        {"n": 3},
        {"trees": []},
        {"n": 3, "trees": [{"levels": 1}]},
        {"n": 3, "trees": [{"levels": [5]}]},
        {"n": 3, "trees": [{"levels": [[7]]}]},
        {"n": 3, "trees": [{"levels": [[{"members": [0]}]]}]},
        {"n": 3, "trees": [{"levels": [[{"path": [1], "members": [[0, 3]]}], [{"path": "11", "members": [[0, 3]]}]]}]},
        _spec(members=5),
        _spec(members=[[0, 1, 3]]),
    ],
)
def test_forest_from_dict_rejects_wrong_shape(data):
    with pytest.raises(ValueError):
        forest_from_dict(data)


@pytest.mark.parametrize("bad", [True, 1.7, 4.0, "1"])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: _spec(n=v),
        lambda v: _spec(path=[v]),
        lambda v: _spec(members=[0, 1, v]),
        lambda v: _spec(members=[[0, v]]),
    ],
    ids=["n", "path-entry", "member", "run-bound"],
)
def test_forest_from_dict_rejects_non_integers(make, bad):
    with pytest.raises(ValueError, match="must be an integer"):
        forest_from_dict(make(bad))


def test_forest_from_dict_accepts_numpy_integers():
    data = _spec(n=np.int64(3), path=[np.int32(1)], members=[np.int64(0), [np.int16(1), np.uint8(3)]])
    _assert_same_arrays(forest_from_dict(data).trees[0], forest_from_dict(_spec()).trees[0])


JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.integers(-60, 60),
    st.integers(2**63, 2**64),  # past int64, yet rejected before any allocation
    st.lists(st.integers(-60, 60), max_size=3),
    st.dictionaries(st.sampled_from(["n", "trees", "levels", "path", "members"]), st.integers(-3, 3), max_size=2),
)


def _slots(doc) -> list:
    """Every (container, key) position inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    out = []
    for key, value in list(items):
        out.append((doc, key))
        out += _slots(value)
    return out


def _free_tree(draw, n: int) -> dict:
    """Groups with random members under random existing parents."""
    index = st.integers(-2, n + 2)
    member = st.one_of(index, st.lists(index, min_size=2, max_size=2))
    levels, above = [], [[]]
    for _ in range(draw(st.integers(0, 3))):
        level = [
            {"path": draw(st.sampled_from(above)) + [draw(st.integers(0, 3))], "members": draw(st.lists(member, max_size=5))}
            for _ in range(draw(st.integers(1, 4)))
        ]
        levels.append(level)
        above = [group["path"] for group in level]
    return {"levels": levels}


@st.composite
def spec_documents(draw):
    """Small spec documents: a valid random forest or free-form groups,
    then up to two positions replaced by junk or dropped."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_JUNK)
    n = draw(st.integers(0, 50))
    if n and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        trees = tuple(random_tree(rng, n=n) for _ in range(draw(st.integers(1, 2))))
        doc = forest_to_dict(ClassificationForest(n=n, trees=trees))
    else:
        doc = {"n": n, "trees": [_free_tree(draw, n) for _ in range(draw(st.integers(0, 2)))]}
    for _ in range(draw(st.integers(0, 2))):
        slots = _slots(doc)
        if slots:
            holder, key = draw(st.sampled_from(slots))
            if isinstance(holder, dict) and draw(st.booleans()):
                del holder[key]
            else:
                holder[key] = draw(st.one_of(st.integers(-2, n + 2), JSON_JUNK))
    return doc


@settings(max_examples=300, deadline=None)
@given(spec_documents(), st.integers(0, 2**32 - 1))
@example(_spec(n=1, members=[2**63]), 0)  # was an OverflowError past int64
def test_adversarial_spec_fails_only_with_value_error(doc, seed):
    # decode (which checks the structure) -> adaptive weights, as `groupedbh test` runs them
    try:
        forest = forest_from_dict(doc)
    except ValueError:
        return
    weights = da_gen_weights(forest, np.random.default_rng(seed).uniform(size=forest.n), 0.5)
    assert np.isfinite(weights).all() and (weights >= 0).all()


# ---------------------------------------------------------------------------
# the literal, per-group encoder, decoder and builder that forest_to_dict,
# forest_from_dict and tree_from_levels replaced, kept as the reference of
# their parity tests


def _reference_encode(members: np.ndarray) -> list:
    cuts = (np.flatnonzero(members[1:] - members[:-1] != 1) + 1).tolist()
    out = []
    for a, b in zip([0] + cuts, cuts + [members.size]):
        if b - a >= 3:
            out.append([int(members[a]), int(members[b - 1]) + 1])
        else:
            out.extend(members[a:b].tolist())
    return out


def _reference_dict(forest: ClassificationForest) -> dict:
    trees = []
    for tree in forest.trees:
        levels = [
            [{"path": list(tree.paths[k]), "members": _reference_encode(tree.members(k))} for k in range(s.start, s.stop)]
            for s in tree.levels
        ]
        trees.append({"levels": levels})
    return {"n": forest.n, "trees": trees}


def _reference_members(encoded: list, n: int) -> np.ndarray:
    spans, strays = [], []
    for item in encoded:
        if isinstance(item, list):
            if len(item) != 2:
                raise ValueError(f"a run must be [start, stop], got {item!r:.40}")
            start, stop = (_integer(bound, "a run bound") for bound in item)
            if not 0 <= start <= stop <= n:
                raise ValueError(f"run [{start}, {stop}) does not lie within [0, {n}]")
            spans.append((start, stop))
        else:
            member = _integer(item, "a member")
            if 0 <= member < n:
                spans.append((member, member + 1))
            else:
                strays.append(member)
    merged = []
    for start, stop in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([start, stop])
    parts = [np.arange(start, stop, dtype=np.int64) for start, stop in merged]
    if strays:
        parts.append(np.array(strays, dtype=np.int64))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _reference_tree(n, levels) -> HierTree:
    n = _integer(n, "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    paths, parent, members = [()], [-1], []
    above = {(): 0}
    for level_groups in levels:
        level = []
        for path, mem in level_groups:
            path = tuple(_integer(v, "a path entry") for v in path)
            if path[:-1] not in above:
                raise ValueError(f"group {path} has no parent {path[:-1]}")
            level.append((above[path[:-1]], path, mem))
        level.sort(key=lambda group: group[:2])
        above = {}
        for up, path, mem in level:
            above[path] = len(paths)
            paths.append(path)
            parent.append(up)
            members.append(_as_index_array(mem))
    indptr = np.cumsum([0, n] + [mem.size for mem in members])
    indices = np.concatenate([np.arange(n, dtype=np.int64)] + members)
    return HierTree(n=n, paths=paths, parent=parent, indptr=indptr, indices=indices)


def _reference_forest(data) -> ClassificationForest:
    n = _integer(_key(data, "n"), "n")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    trees = []
    for s, tdata in enumerate(_list(_key(data, "trees"), "trees")):
        levels = [
            [
                (
                    tuple(_integer(v, "a path entry") for v in _list(_key(g, "path"), "a path")),
                    _reference_members(_list(_key(g, "members"), "members"), n),
                )
                for g in _list(level_groups, "a level")
            ]
            for level_groups in _list(_key(tdata, "levels"), "levels")
        ]
        try:
            trees.append(_reference_tree(n, levels))
        except ValueError as exc:
            raise ValueError(f"tree {s}: {exc}") from None
    return ClassificationForest(n=n, trees=tuple(trees))


def _assert_same_build(build, reference):
    """build() and reference() give trees with equal arrays, or ValueErrors with equal texts."""
    try:
        expected = reference()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == str(exc)
        return
    got = build()
    expected_trees, got_trees = getattr(expected, "trees", (expected,)), getattr(got, "trees", (got,))
    assert len(got_trees) == len(expected_trees)
    for a, b in zip(got_trees, expected_trees):
        _assert_same_arrays(a, b)
        assert np.array_equal(a.mult, b.mult)


def _reencode(rng, members: np.ndarray, n: int) -> list:
    """members in a random spec encoding: runs and singles, each stretch of
    consecutive members cut at random, in shuffled order, with repeated,
    overlapping, touching and empty runs and singles inside runs."""
    items = []
    cuts = (np.flatnonzero(np.diff(members) != 1) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [members.size]):
        at = a
        while at < b:
            stop = int(rng.integers(at + 1, b + 1))
            start, end = int(members[at]), int(members[stop - 1]) + 1
            kind = rng.integers(4)
            if kind == 0:
                items += list(range(start, end))  # singles
            else:
                items.append([start, end])
            if kind == 2:  # the same run again, or one that overlaps the next
                items.append([start, int(members[min(stop, b - 1)]) + 1])
            if kind == 3:  # a single inside the run, and an empty run
                items.append(int(rng.integers(start, end)))
                items.append([int(rng.integers(0, n + 1))] * 2)
            at = stop
    order = rng.permutation(len(items))
    return [items[i] for i in order]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(0, 3), st.integers(1, 3), st.booleans())
def test_spec_decode_matches_the_literal_decoder(seed, n, depth, s_count, strays):
    rng = np.random.default_rng(seed)
    forest = ClassificationForest(n=n, trees=tuple(random_tree(rng, n=n, depth=depth) for _ in range(s_count)))
    doc = forest_to_dict(forest)
    _assert_same_build(lambda: forest_from_dict(doc), lambda: _reference_forest(doc))
    for tree in doc["trees"]:
        for level in tree["levels"]:
            for group in level:
                members = _reference_members(group["members"], n)
                group["members"] = _reencode(rng, members, n)
                if strays and rng.integers(4) == 0:
                    group["members"].insert(int(rng.integers(len(group["members"]) + 1)), int(rng.choice([-3, -1, n, n + 5])))
    _assert_same_build(lambda: forest_from_dict(doc), lambda: _reference_forest(doc))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 120), st.integers(0, 3), st.integers(1, 3), st.floats(0, 0.9))
def test_forest_to_dict_matches_the_literal_encoder(seed, n, depth, s_count, max_overlap):
    rng = np.random.default_rng(seed)
    trees = tuple(random_tree(rng, n=n, depth=depth, max_overlap=max_overlap) for _ in range(s_count))
    forest = ClassificationForest(n=n, trees=trees)
    # the same text, so also plain ints and lists where the reference has them
    assert json.dumps(forest_to_dict(forest)) == json.dumps(_reference_dict(forest))


@settings(max_examples=300, deadline=None)
@given(spec_documents())
def test_spec_decode_matches_the_literal_decoder_on_any_document(doc):
    _assert_same_build(lambda: forest_from_dict(doc), lambda: _reference_forest(doc))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_tree_from_levels_matches_the_literal_builder(seed, depth):
    # members in any order, repeated, sometimes out of range or not integers
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, depth=depth)
    levels = []
    for s in tree.levels:
        level = []
        for k in rng.permutation(np.arange(s.start, s.stop)):
            members = tree.members(k)
            kind = rng.integers(6)
            if kind == 1:
                members = rng.permutation(members)
            elif kind == 2:
                members = np.concatenate((members, rng.choice(members, 3))).astype(np.int32)
            elif kind == 3:
                members = members.tolist()[::-1]
            elif kind == 4 and rng.integers(5) == 0:
                members = np.append(members, tree.n + 1)
            elif kind == 5 and rng.integers(10) == 0:
                members = members.astype(float)
            level.append((tree.paths[k], members))
        levels.append(level)
    _assert_same_build(lambda: tree_from_levels(tree.n, levels), lambda: _reference_tree(tree.n, levels))


@pytest.mark.parametrize(
    "n, levels",
    [
        # a bad path is reported before a bad member of the same level
        (4, [[((1, 1), [0.5]), ((2,), range(4))]]),
        (4, [[((2,), range(4)), ((1, 1), [0.5])]]),
        (4, [[((1,), [0.5]), ((1.5,), range(4))]]),
        (4, [[((1,), range(4))], [((1, 1), range(4)), ((1, 2), [True]), ((2, 1), range(4))]]),
        # but a bad member before a bad path of the next level
        (4, [[((1,), [0.5]), ((2,), range(4))], [((3, 1), range(4))]]),
        # the first non-integer group in (parent, path) order is named
        (4, [[((2,), [0.5]), ((1,), [True])]]),
        # int64's extremes side by side are no run: 2**63 - 1 + 1 wraps to -2**63
        (4, [[((1,), [0, 1, 2, 2**63 - 1, -(2**63)]), ((2,), range(4))]]),
        (4, [[((1,), np.array([2**63 - 2, 2**63 - 1, -(2**63), -(2**63) + 1, 3]))]]),
        (4, [[((1,), [3, 2**63 - 1, -(2**63), 0, 1, 2])]]),
        (0, [[((1,), [-(2**63), 2**63 - 1])]]),
    ],
    ids=[
        "missing-parent-first",
        "missing-parent-second",
        "float-path",
        "missing-parent-at-level-2",
        "member-before-next-level",
        "two-member-dtypes",
        "extremes-after-a-run",
        "extremes-in-runs",
        "extremes-first",
        "extremes-at-n-0",
    ],
)
def test_tree_from_levels_matches_the_literal_builder_on_pinned_levels(n, levels):
    _assert_same_build(lambda: tree_from_levels(n, levels), lambda: _reference_tree(n, levels))

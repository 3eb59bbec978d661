import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupedbh.classification import (
    ClassificationForest,
    HierTree,
    _decode_members,
    _encode_members,
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
from groupedbh.identities import random_tree


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


def test_validate_catches_coverage_gap():
    t = tree_from_levels(6, [[((1,), np.arange(0, 3)), ((2,), np.arange(3, 5))]])
    problems = validate_tree(t)
    assert any("cover" in msg for msg in problems)


def test_validate_catches_containment_violation():
    level1 = [((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))]
    level2 = [
        ((1, 1), np.arange(0, 3)),
        ((2, 1), np.array([2, 3, 4, 5])),  # 2 is not in parent (2,)
    ]
    t = tree_from_levels(6, [level1, level2])
    assert any("not contained" in msg for msg in validate_tree(t))


def test_validate_catches_unequal_leaf_depth():
    level1 = [((1,), np.arange(0, 3)), ((2,), np.arange(3, 6))]
    level2 = [((1, 1), np.arange(0, 3))]  # group (2,) keeps no children
    t = tree_from_levels(6, [level1, level2])
    assert any("unequal depths" in msg for msg in validate_tree(t))


def test_validate_catches_siblings_sharing_a_path():
    # both groups hang under the root as (1,), so path-keyed effects merge them
    t = tree_from_levels(10, [[((1,), np.arange(0, 4)), ((1,), np.arange(4, 10))]])
    problems = validate_tree(t)
    assert "sibling groups share path (1,)" in problems
    assert "children of () are not numbered 1..2" in problems
    assert validate_forest(forest_from_dict(forest_to_dict(ClassificationForest(n=10, trees=(t,)))))


def test_validate_catches_sibling_numbering_gap():
    t = tree_from_levels(6, [[((1,), np.arange(0, 3)), ((3,), np.arange(3, 6))]])
    assert validate_tree(t) == ["children of () are not numbered 1..2"]


def test_validate_catches_path_outside_parent_lineage():
    t = HierTree(n=4, paths=[(), (1,), (2, 1)], parent=[-1, 0, 1], indptr=[0, 4, 8, 12], indices=np.tile(np.arange(4), 3))
    assert validate_tree(t) == ["children of (1,) are not numbered 1..1"]


def test_validate_catches_unsorted_or_repeated_members():
    t = HierTree(n=4, paths=[(), (1,), (2,)], parent=[-1, 0, 0], indptr=[0, 4, 6, 9], indices=[0, 1, 2, 3, 1, 0, 2, 2, 3])
    assert validate_tree(t) == [
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
    t = tree_from_levels(
        4, [[((1,), np.arange(0, 4)), ((2,), np.array([], dtype=np.int64)), ((3,), np.array([2, 7]))]]
    )
    problems = validate_tree(t)
    assert "empty group at path (2,)" in problems
    assert "index out of range [0, 4) at path (3,)" in problems
    assert "child (3,) not contained in parent ()" in problems


def test_compiled_form_is_level_ordered_csr():
    t = two_level_overlap_tree()
    assert t.paths == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert t.parent.tolist() == [-1, 0, 0, 1, 1, 2, 2]
    assert t.level.tolist() == [0, 1, 1, 2, 2, 2, 2]
    assert t.m.tolist() == [2, 2, 2, 0, 0, 0, 0]
    assert t.mult.tolist() == [1, 2, 2, 4, 4, 4, 4]
    assert t.levels == [slice(1, 3), slice(3, 7)] and t.depth == 2
    assert t.leaves.tolist() == [3, 4, 5, 6]
    assert t.indptr.tolist() == [0, 12, 20, 28, 32, 36, 40, 44]
    assert (t.indices[t.indptr[2] : t.indptr[3]] == np.arange(4, 12)).all()
    assert (t.members(2) == np.arange(4, 12)).all() and t.sizes.tolist() == [12, 8, 8, 4, 4, 4, 4]
    assert (t.leaf_rows() == np.r_[0:8, 4:12]).all()
    assert t.counts(np.arange(12) < 6).tolist() == [6, 6, 2, 4, 2, 2, 0]


def test_member_runs_encode_from_three():
    members = np.array([0, 1, 2, 5, 7, 8, 10, 11, 12, 13])
    assert _encode_members(members) == [[0, 3], 5, 7, 8, [10, 14]]
    assert _encode_members(np.array([], dtype=np.int64)) == []
    assert (_decode_members([[0, 3], 5, 7, 8, [10, 14]]) == members).all()


def test_forest_from_grid():
    f = forest_from_grid((2, 3))
    assert f.n == 6 and f.s_count == 2
    assert validate_forest(f) == []
    # index 5 sits in row 1 and column 2
    assert leaf_memberships(f, 5) == [[(2,)], [(3,)]]
    with pytest.raises(IndexError):
        leaf_memberships(f, 6)


def test_forest_mismatched_n_flagged():
    f = ClassificationForest(n=5, trees=(flat_tree(4),))
    assert any("n=4" in msg for msg in validate_forest(f))


def test_group_stats():
    t = two_level_overlap_tree()
    is_null = np.arange(12) % 2 == 0
    k = t.levels[0].start  # the first level-1 group
    assert group_stats(t, k, is_null) == (8, 4, 0.5)
    assert (t.sizes[k], t.counts(is_null)[k]) == (8, 4)


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

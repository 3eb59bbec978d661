import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from groupedbh.weights import da_gen_weights


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
    # decode -> validate -> adaptive weights, as `groupedbh test` runs them
    try:
        forest = forest_from_dict(doc)
    except ValueError:
        return
    if validate_forest(forest):
        return
    weights = da_gen_weights(forest, np.random.default_rng(seed).uniform(size=forest.n), 0.5)
    assert np.isfinite(weights).all() and (weights >= 0).all()

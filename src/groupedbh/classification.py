"""Group structures over a set of hypotheses.

A study has N hypotheses indexed 0..N-1. A :class:`HierTree` organizes them
into nested levels of groups; sibling groups at any level must jointly cover
their parent but are allowed to overlap. The groups are node ids in level
order, the root first: node k has the path ``tree.paths[k]`` and the
members ``tree.members(k)``. A :class:`ClassificationForest` holds S such
trees over the same index set, one per simultaneous classification
criterion. Depth-0 trees (a single root group) and forests of depth-1 trees
recover the unclassified and S-way special cases.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """Sorted distinct values; a sort and a neighbour compare, which is far
    cheaper than ``np.unique`` on large integer arrays."""
    arr = np.sort(arr)
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    return arr[keep]


def _isin_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Elementwise ``values in sorted_arr`` by binary search."""
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    return sorted_arr[np.minimum(np.searchsorted(sorted_arr, values), sorted_arr.size - 1)] == values


def _as_index_array(members) -> np.ndarray:
    if not isinstance(members, np.ndarray):
        members = list(members)
    return _sorted_unique(np.asarray(members, dtype=np.int64).ravel())


@dataclass(eq=False)
class HierTree:
    """A hierarchy of groups over indices 0..n-1, stored as flat arrays.

    Nodes are ids in level order with the root as node 0; within a level
    they are ordered by parent id, then path. ``paths[k]`` is node k's
    positional lineage (g1, ..., gl), 1-based within its parent (the root's
    is empty), ``parent[k]`` its parent's id (-1 for the root), and its
    sorted, distinct members are ``indices[indptr[k]:indptr[k + 1]]`` (CSR
    layout), also given by ``members(k)``.

    Derived on construction: ``sizes[k]`` (member count), ``level[k]``
    (depth of node k), ``m[k]`` (number of children), ``mult[k]`` (product
    of the ancestors' ``m``), ``levels`` (node ids of levels 1..depth as
    slices), ``leaves`` (the deepest level's ids, the tail of the order) and
    ``depth``. In a valid tree all leaves sit at the same depth, and every
    hypothesis is covered at every level; sibling groups may overlap.
    Depth 0 means the root is the only group.
    """

    n: int
    paths: list
    parent: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        parent = self.parent = np.asarray(self.parent, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        k = parent.size
        if k == 0 or parent[0] != -1 or not (
            (parent[1:] >= 0).all() and (parent[1:] < np.arange(1, k)).all() and (parent[2:] >= parent[1:-1]).all()
        ):
            raise ValueError("parent must be level-ordered: -1 at the root, then 0 <= parent[k] < k, non-decreasing")
        if len(self.paths) != k or self.indptr.shape != (k + 1,) or self.indptr[0] != 0:
            raise ValueError(f"{k} nodes need {k} paths and an indptr of {k + 1} offsets from 0")
        self.sizes = self.indptr[1:] - self.indptr[:-1]
        if (self.sizes < 0).any() or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must rise to the length of indices")
        self.m = np.bincount(parent[1:], minlength=k)
        starts = [0, 1]
        while starts[-1] < k:  # a level ends where the children of its last node end
            starts.append(int(np.searchsorted(parent, starts[-1])))
        self.levels = [slice(a, b) for a, b in zip(starts[1:-1], starts[2:])]
        self.leaves = np.arange(starts[-2], starts[-1])
        self.depth = len(self.levels)
        self.level, self.mult = np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64)
        for depth, s in enumerate(self.levels, start=1):
            self.level[s] = depth
            self.mult[s] = self.mult[parent[s]] * self.m[parent[s]]

    def members(self, k: int) -> np.ndarray:
        """Sorted member indices of node k."""
        return self.indices[self.indptr[k] : self.indptr[k + 1]]

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-node number of members i with mask[i] set."""
        hits = mask[self.indices]
        counts = np.add.reduceat(hits, np.minimum(self.indptr[:-1], hits.size - 1), dtype=np.int64)
        counts[self.sizes == 0] = 0  # reduceat leaves a value in empty rows
        return counts

    def leaf_rows(self) -> np.ndarray:
        """Members of every leaf, concatenated in leaf order."""
        return self.indices[self.indptr[self.leaves[0]] :]


@dataclass(eq=False)
class ClassificationForest:
    """S simultaneous hierarchies over one index universe."""

    n: int
    trees: tuple[HierTree, ...]

    def __post_init__(self):
        self.trees = tuple(self.trees)

    @property
    def s_count(self) -> int:
        return len(self.trees)


def flat_tree(n: int) -> HierTree:
    """Depth-0 tree: one root group over all n indices."""
    return tree_from_levels(n, [])


def tree_from_levels(n: int, levels: list[list[tuple[tuple[int, ...], np.ndarray]]]) -> HierTree:
    """Build a tree from explicit (path, members) pairs, one list per level.

    Paths are 1-based positional lineages; every group's parent path must
    appear at the previous level. Overlapping siblings are allowed, and the
    same member set may appear under several parents (distinct paths).
    """
    paths, parent, members = [()], [-1], [np.arange(n, dtype=np.int64)]
    above = {(): 0}  # path -> node id, over the previous level
    for level_groups in levels:
        level = []
        for path, mem in level_groups:
            path = tuple(int(v) for v in path)
            if path[:-1] not in above:
                raise ValueError(f"group {path} has no parent {path[:-1]}")
            level.append((above[path[:-1]], path, mem))
        level.sort(key=lambda group: group[:2])  # by parent id, then path
        above = {}
        for up, path, mem in level:
            above[path] = len(paths)
            paths.append(path)
            parent.append(up)
            members.append(_as_index_array(mem))
    indptr = np.array(list(accumulate((mem.size for mem in members), initial=0)), dtype=np.int64)
    return HierTree(n=n, paths=paths, parent=parent, indptr=indptr, indices=np.concatenate(members))


def tree_from_groups(n: int, levels: list[list[np.ndarray]]) -> HierTree:
    """Build a tree from per-level member lists.

    Parentage is inferred by set containment: each group becomes a child of
    the first group at the previous level that contains all of its members.
    Use :func:`tree_from_levels` when a group must hang under several
    overlapping parents.
    """
    above = [((), np.arange(n))]
    out = []
    for level_groups in levels:
        taken = [0] * len(above)
        level = []
        for mem in level_groups:
            mem = _as_index_array(mem)
            i = next((i for i, (_, up) in enumerate(above) if _isin_sorted(mem, up).all()), None)
            if i is None:
                raise ValueError("group does not fit inside any parent at the previous level")
            taken[i] += 1
            level.append((above[i][0] + (taken[i],), mem))
        out.append(level)
        above = sorted(level, key=lambda group: group[0])
    return tree_from_levels(n, out)


def forest_from_grid(shape: tuple[int, ...]) -> ClassificationForest:
    """S-way forest for hypotheses laid out on a full S-dimensional grid.

    Index i maps to grid cell np.unravel_index(i, shape); tree s groups the
    cells by their s-th coordinate (a depth-1 partition).
    """
    n = int(np.prod(shape))
    coords = np.unravel_index(np.arange(n), shape)
    trees = []
    for s, size in enumerate(shape):
        groups = [np.flatnonzero(coords[s] == g) for g in range(size)]
        trees.append(tree_from_groups(n, [groups]))
    return ClassificationForest(n=n, trees=tuple(trees))


# ---------------------------------------------------------------------------
# validation


def validate_tree(tree: HierTree) -> list[str]:
    """Structural invariant check; returns a list of violations (empty = ok)."""
    n, paths, sizes, indptr, indices = tree.n, tree.paths, tree.sizes, tree.indptr, tree.indices
    violations = []
    if not np.array_equal(tree.members(0), np.arange(n)):
        violations.append(f"root members must be exactly 0..{n - 1}")
    filled = np.flatnonzero(sizes)
    low, high = indices[indptr[filled]], indices[indptr[filled + 1] - 1]
    violations += [f"empty group at path {paths[k]}" for k in np.flatnonzero(sizes == 0)]
    violations += [f"index out of range [0, {n}) at path {paths[k]}" for k in filled[(low < 0) | (high >= n)]]
    falls = np.flatnonzero(indices[1:] <= indices[:-1]) + 1  # a fall is fine where a node starts
    rows = np.searchsorted(indptr, falls, side="right") - 1
    violations += [f"members of {paths[k]} are not sorted and distinct" for k in _sorted_unique(rows[indptr[rows] != falls])]
    with_children = np.flatnonzero(tree.m)
    for k, first in zip(with_children.tolist(), np.searchsorted(tree.parent, with_children).tolist()):
        kids = paths[first : first + int(tree.m[k])]
        violations += [f"sibling groups share path {p}" for p, count in Counter(kids).items() if count > 1]
        if kids != [paths[k] + (j,) for j in range(1, len(kids) + 1)]:
            violations.append(f"children of {paths[k]} are not numbered 1..{len(kids)}")
    # (node, member) keys; sorted members make one node's keys sorted
    lo = min(int(indices.min(initial=0)), 0)
    width = max(int(indices.max(initial=-1)) + 1, n) - lo

    def keys(nodes: slice, owners: np.ndarray) -> np.ndarray:
        members = indices[indptr[nodes.start] : indptr[nodes.stop]]
        return np.repeat(owners, sizes[nodes]) * width + (members - lo)

    covered = np.zeros(len(paths), dtype=np.int64)
    for level in tree.levels:  # one level and its parents at a time
        parents = slice(int(tree.parent[level.start]), int(tree.parent[level.stop - 1]) + 1)
        held = keys(parents, np.arange(parents.start, parents.stop))
        up = keys(level, tree.parent[level])  # each child's members, keyed under its parent
        outside = np.flatnonzero(~_isin_sorted(up, held)) + indptr[level.start]
        for k in _sorted_unique(np.searchsorted(indptr, outside, side="right") - 1):
            violations.append(f"child {paths[k]} not contained in parent {paths[tree.parent[k]]}")
        union = _sorted_unique(up)
        del up
        covered += np.bincount(union[_isin_sorted(union, held)] // width, minlength=len(paths))
    violations += [
        f"children of {paths[k]} do not cover the parent" for k in np.flatnonzero((tree.m > 0) & (covered != sizes))
    ]
    depths = sorted(set(tree.level[tree.m == 0].tolist()))
    if len(depths) > 1:
        violations.append(f"leaves at unequal depths: {depths}")
    return violations


def validate_forest(forest: ClassificationForest) -> list[str]:
    """Validate every tree; all trees must share the same index universe."""
    violations = []
    if forest.s_count < 1:
        violations.append("forest must contain at least one tree")
    for s, tree in enumerate(forest.trees):
        if tree.n != forest.n:
            violations.append(f"tree {s} has n={tree.n}, forest has n={forest.n}")
        violations.extend(f"tree {s}: {v}" for v in validate_tree(tree))
    return violations


# ---------------------------------------------------------------------------
# derived quantities


def group_stats(tree: HierTree, k: int, is_null: np.ndarray) -> tuple[int, int, float]:
    """(size, null count, null proportion) of node k under known truth."""
    members = tree.members(k)
    n0 = int(np.asarray(is_null, dtype=bool)[members].sum())
    return int(members.size), n0, n0 / members.size


def leaf_memberships(forest: ClassificationForest, i: int) -> list[list[tuple[int, ...]]]:
    """Per-tree list of leaf paths whose member set contains index i."""
    if not 0 <= i < forest.n:
        raise IndexError(f"hypothesis index {i} out of range [0, {forest.n})")
    out = []
    for tree in forest.trees:
        hits = np.flatnonzero(tree.leaf_rows() == i) + tree.indptr[tree.leaves[0]]
        out.append([tree.paths[k] for k in np.searchsorted(tree.indptr, hits, side="right") - 1])
    return out


# ---------------------------------------------------------------------------
# JSON round trip
#
# Schema: {"n": int, "trees": [{"levels": [[{"path": [...], "members": [...]}]]}]}
# A members entry is either a plain index or a two-element [start, stop)
# run; runs of three or more consecutive indices are compressed on save.


def _encode_members(members: np.ndarray) -> list:
    cuts = (np.flatnonzero(members[1:] - members[:-1] != 1) + 1).tolist()
    out = []
    for a, b in zip([0] + cuts, cuts + [members.size]):
        if b - a >= 3:
            out.append([int(members[a]), int(members[b - 1]) + 1])
        else:
            out.extend(members[a:b].tolist())
    return out


def _integer(value, what: str) -> int:
    """A JSON integer that fits in int64; bools, floats and strings are
    rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} must be an integer in int64 range, got {value!r:.40}")
    return int(value)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r:.40}")
    return value


def _key(obj, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected an object with {key!r}, got {obj!r:.40}")
    return obj[key]


def _decode_members(encoded: list) -> np.ndarray:
    parts = []
    for item in encoded:
        if isinstance(item, list):
            start, stop = item
            parts.append(np.arange(_integer(start, "a run bound"), _integer(stop, "a run bound"), dtype=np.int64))
        else:
            parts.append(np.array([_integer(item, "a member")], dtype=np.int64))
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _decode_group(group) -> tuple[tuple[int, ...], np.ndarray]:
    path = tuple(_integer(v, "a path entry") for v in _list(_key(group, "path"), "a path"))
    return path, _decode_members(_list(_key(group, "members"), "members"))


def forest_to_dict(forest: ClassificationForest) -> dict:
    trees = []
    for tree in forest.trees:
        levels = [
            [{"path": list(tree.paths[k]), "members": _encode_members(tree.members(k))} for k in range(s.start, s.stop)]
            for s in tree.levels
        ]
        trees.append({"levels": levels})
    return {"n": forest.n, "trees": trees}


def forest_from_dict(data: dict) -> ClassificationForest:
    """Decode the schema above; a wrong shape or a value that is not an
    integer raises ValueError."""
    n = _integer(_key(data, "n"), "n")
    trees = []
    for tdata in _list(_key(data, "trees"), "trees"):
        levels = [
            [_decode_group(g) for g in _list(level_groups, "a level")]
            for level_groups in _list(_key(tdata, "levels"), "levels")
        ]
        trees.append(tree_from_levels(n, levels))
    return ClassificationForest(n=n, trees=tuple(trees))


def save_forest(forest: ClassificationForest, path) -> None:
    with open(path, "w") as fh:
        json.dump(forest_to_dict(forest), fh, separators=(",", ":"))
        fh.write("\n")


def load_forest(path) -> ClassificationForest:
    with open(path) as fh:
        return forest_from_dict(json.load(fh))

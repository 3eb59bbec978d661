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
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat

import numpy as np

from .stepup import _truth


def _sorted_unique(arr: np.ndarray, kind: str | None = None) -> np.ndarray:
    """Sorted distinct values of arr, which is sorted in place (by
    ``ndarray.sort(kind=kind)``) unless it already rises; a sort and a
    neighbour compare, far cheaper than ``np.unique`` on large integer
    arrays."""
    if (arr[1:] > arr[:-1]).all():
        return arr
    arr.sort(kind=kind)
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    return arr[keep]


def _isin_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Elementwise ``values in sorted_arr`` by binary search."""
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    return sorted_arr[np.minimum(np.searchsorted(sorted_arr, values), sorted_arr.size - 1)] == values


def _members(members) -> np.ndarray:
    """A group's members as a flat array of an integer dtype (any dtype when
    empty): a float or bool member, which a cast would truncate, raises."""
    members = np.asarray(members if isinstance(members, np.ndarray) else list(members)).ravel()
    if members.size and members.dtype.kind not in "iu":
        raise ValueError(f"group members must be integers, got {members.dtype} values")
    return members


def _as_index_array(members) -> np.ndarray:
    """Sorted distinct members, in a new int64 array."""
    return _sorted_unique(_members(members).astype(np.int64))


@dataclass(eq=False)
class HierTree:
    """A hierarchy of groups over indices 0..n-1, stored as flat arrays.

    Nodes are ids in level order with the root as node 0; within a level
    they are ordered by parent id, then path. ``paths[k]`` is node k's
    positional lineage (g1, ..., gl), 1-based within its parent (the root's
    is empty), ``parent[k]`` its parent's id (-1 for the root), and its
    sorted, distinct members are ``indices[indptr[k]:indptr[k + 1]]`` (CSR
    layout), also given by ``members(k)``.

    Derived on construction: ``sizes[k]`` (member count), ``m[k]`` (number
    of children), ``mult[k]`` (product of the ancestors' ``m``, as a
    float64), ``levels`` (node ids of levels 1..depth as slices), ``leaves``
    (the deepest level's ids, the tail of the order) and ``depth``. Depth 0
    means the root is the only group. Every HierTree is
    valid (leaves at one depth, members in 0..n-1, overlapping siblings
    covering their parent): its constructor raises ValueError otherwise.
    """

    n: int
    paths: list
    parent: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self._derive()
        if problems := validate_tree(self):
            raise ValueError("; ".join(problems))

    @classmethod
    def _valid(cls, n: int, paths: list, parent, indptr, indices) -> HierTree:
        """The tree of arrays that their builder makes valid, built as the
        constructor builds it but not checked by validate_tree again."""
        tree = cls.__new__(cls)
        tree.n, tree.paths, tree.parent, tree.indptr, tree.indices = n, paths, parent, indptr, indices
        tree._derive()
        return tree

    def _derive(self) -> None:
        """The arrays as int64, and the derived fields; ValueError for arrays
        of shapes they cannot be derived from."""
        parent = self.parent = np.asarray(self.parent, dtype=np.int64)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        k = parent.size
        if k == 0 or parent[0] != -1 or not (  # non-decreasing, so parent[1] >= 0 puts every parent[k] >= 0
            k == 1 or parent[1] >= 0 and (parent[2:] >= parent[1:-1]).all() and (parent[1:] < np.arange(1, k)).all()
        ):
            raise ValueError("parent must be level-ordered: -1 at the root, then 0 <= parent[k] < k, non-decreasing")
        if len(self.paths) != k or self.indptr.shape != (k + 1,) or self.indptr[0] != 0:
            raise ValueError(f"{k} nodes need {k} paths and an indptr of {k + 1} offsets from 0")
        self.sizes = self.indptr[1:] - self.indptr[:-1]
        if np.minimum.reduce(self.sizes) < 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must rise to the length of indices")
        self.m = np.bincount(parent[1:], minlength=k)
        starts = [0, 1]
        while starts[-1] < k:  # a level ends where the children of its last node end
            starts.append(int(np.searchsorted(parent, starts[-1])))
        self.levels = [slice(a, b) for a, b in zip(starts[1:-1], starts[2:])]
        self.leaves = np.arange(starts[-2], starts[-1])
        self.depth = len(self.levels)
        # mult in float64: overlapping siblings may repeat their parent's
        # members, so a valid tree of few members can have a product beyond
        # 2**63, where int64 wraps; below 2**53 the floats are exact
        self.mult = np.ones(k)
        for s in self.levels:
            self.mult[s] = self.mult[parent[s]] * self.m[parent[s]]

    def members(self, k: int) -> np.ndarray:
        """Sorted member indices of node k."""
        return self.indices[self.indptr[k] : self.indptr[k + 1]]

    def counts(self, mask: np.ndarray, first: int = 0) -> np.ndarray:
        """Per-node number of members i with mask[i] set, for the nodes
        first, first + 1, ... to the last leaf."""
        rows = self.indptr[first:]
        if not self.n:  # every node is empty; else none is, so every row start is in range
            return np.zeros(rows.size - 1, dtype=np.int64)
        return np.add.reduceat(mask[self.indices[rows[0] :]], rows[:-1] - rows[0], dtype=np.int64)

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
        if problems := validate_forest(self):
            raise ValueError("; ".join(problems))

    @property
    def s_count(self) -> int:
        return len(self.trees)


def flat_tree(n: int) -> HierTree:
    """Depth-0 tree: one root group over all n indices."""
    n = _size(n)
    return HierTree._valid(n, [()], [-1], [0, n], np.arange(n))


def tree_from_levels(n: int, levels: list[list[tuple[tuple[int, ...], np.ndarray]]]) -> HierTree:
    """Build a tree from explicit (path, members) pairs, one list per level.

    Paths are 1-based positional lineages; every group's parent path must
    appear at the previous level. Overlapping siblings are allowed, and the
    same member set may appear under several parents (distinct paths).
    Members are integers, in any order, and may repeat.
    """

    def split(level) -> tuple:
        level = list(level)

        def runs(order: list[int]) -> tuple:
            """The level's closed member runs, read in (parent id, path) order."""
            arrays = [_members(level[g][1]) for g in order]
            flat = np.concatenate([np.zeros(0, dtype=np.int64), *arrays], dtype=np.int64, casting="unsafe")
            return _runs(flat, np.repeat(np.array(order, dtype=np.int64), [arr.size for arr in arrays]))

        return [tuple(path) for path, _ in level], runs

    return _build_tree(n, map(split, levels))


def _runs(values: np.ndarray, group: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """values cut into closed runs (group, first, last): a run ends where the
    group changes or the next value is not one more. Exact over int64: the
    rise is checked before the step, which may wrap."""
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = (group[1:] != group[:-1]) | (values[1:] <= values[:-1]) | (values[1:] - values[:-1] != 1)
    first, last = np.flatnonzero(starts), np.flatnonzero(np.roll(starts, -1))
    return group[first], values[first], values[last]


def _build_tree(n, levels) -> HierTree:
    """The tree over 0..n-1 with the given levels, each a pair (paths, runs)
    in document order. Once a level's groups are put in order by (parent id,
    path), so that a bad path is reported before a bad member, runs(order)
    gives their closed member runs (group, first, last), group being a
    position in the level. These are merged per group, then written into
    one preallocated indices, the root's range first."""
    n = _size(n)
    paths, parent, fills = [()], [-1], []
    above = {(): 0}  # path -> node id, over the previous level
    for level_paths, runs in levels:
        level_paths, ups = _parent_ids(level_paths, above)
        order = sorted(range(len(ups)), key=list(zip(ups, level_paths)).__getitem__)  # by parent id, then path
        level_paths = [level_paths[g] for g in order]
        above = dict(zip(level_paths, range(len(paths), len(paths) + len(order))))
        paths += level_paths
        parent += [ups[g] for g in order]
        fills.append(_run_fill(order, *runs(order)))
    indptr = np.add.accumulate(np.concatenate(([0, n], *(sizes for sizes, _, _ in fills))))
    indices = np.empty(indptr[-1], dtype=np.int64)
    _expand(indptr[:1], indptr[1:2], indices[:n])  # the root: the run [0, n), with no array of size n besides
    first = 1  # node id
    for sizes, starts, lengths in fills:
        _expand(starts, lengths, indices[indptr[first] : indptr[first + sizes.size]])
        first += sizes.size
    return HierTree(n=n, paths=paths, parent=parent, indptr=indptr, indices=indices)


def _parent_ids(paths: list[tuple], above: dict) -> tuple[list[tuple], list[int]]:
    """A level's paths, with int entries, and their parents' ids in above,
    the previous level's {path: node id}. The check runs in bulk; only when
    it fails are the groups walked in document order, to raise at the first
    non-integer path entry or missing parent."""
    if _plain_ints(list(chain.from_iterable(paths))):
        ups = [above.get(path[:-1]) for path in paths]
        if None not in ups:
            return paths, ups
    checked = []
    for path in paths:
        path = tuple(_integer(v, "a path entry") for v in path)
        if path[:-1] not in above:
            raise ValueError(f"group {path} has no parent {path[:-1]}")
        checked.append(path)
    return checked, [above[path[:-1]] for path in checked]


def _run_fill(order: list[int], group: np.ndarray, first: np.ndarray, last: np.ndarray) -> tuple:
    """The member counts of a level's groups in the given order, and the
    union of each group's closed runs as disjoint runs (first, size) in that
    order: so a group holds at most n + (its members outside [0, n)) entries."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    key, first, size = _union_runs(rank[group], first, last)
    before = np.concatenate(([0], np.cumsum(size)))  # members before each merged run
    return np.diff(before[np.searchsorted(key, np.arange(len(order) + 1))]), first, size


def _union_runs(key: np.ndarray, first: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of each key's closed runs [first, last], as disjoint runs
    (key, first, size) in (key, first) order: one lexsort of the runs' ends
    and a running count of the runs open after each end. Exact over all of
    int64: no key is ever combined with a member. Runs in (key, first) order,
    each past the end of the one before of its key, need no sort."""
    keep = first <= last
    key, first, last = key[keep], first[keep], last[keep]
    if ((key[1:] > key[:-1]) | (key[1:] == key[:-1]) & (first[1:] > last[:-1])).all():
        return key, first, last - first + 1
    keys, ends = np.tile(key, 2), np.concatenate((first, last))
    closing = np.arange(ends.size) >= ends.size // 2
    order = np.lexsort((closing, ends, keys))  # at one place, a run opens before one closes
    closing = closing[order]
    still_open = np.cumsum(np.where(closing, -1, 1))
    opens, closes = order[(still_open == 1) & ~closing], order[still_open == 0]
    return keys[opens], ends[opens], ends[closes] - ends[opens] + 1


def _expand(first: np.ndarray, size: np.ndarray, out: np.ndarray) -> None:
    """Write the runs first[j], first[j] + 1, ..., first[j] + size[j] - 1,
    one after another, into out: the steps between members, then one
    cumsum in place. A step between far-apart runs may wrap in int64; the
    sum wraps back. Every run is non-empty, unless out is."""
    if out.size:
        out.fill(1)
        out[0] = first[0]
        if size.size > 1:
            out[np.add.accumulate(size[:-1])] = first[1:] - (first[:-1] + size[:-1] - 1)
        np.add.accumulate(out, out=out)


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
    cells by their s-th coordinate (a depth-1 partition), group g at path
    (g + 1,).
    """
    shape = tuple(_size(size, "a grid dimension") for size in shape)
    if not shape:
        raise ValueError("a grid needs at least one dimension")
    n = math.prod(shape)
    cells = np.arange(n).reshape(shape)  # C order: a slice along any axis, raveled, rises
    levels = ([((g + 1,), part.ravel()) for g, part in enumerate(np.moveaxis(cells, s, 0))] for s in range(len(shape)))
    return ClassificationForest(n=n, trees=tuple(tree_from_levels(n, [level]) for level in levels))


# ---------------------------------------------------------------------------
# validation


def validate_tree(tree: HierTree) -> list[str]:
    """Structural invariant check, run by the constructor; returns a list of
    violations (empty = ok). An N = 0 tree is valid: its groups are
    necessarily empty. Each rule but the siblings' numbering, which is one
    list compare per parent, is tested in bulk first, and the culprits are
    sought only when that test fails. A valid tree costs one sort per level:
    the (parent, member) keys of a level's children equal its parents'."""
    n, paths, parent, sizes, indptr, indices = tree.n, tree.paths, tree.parent, tree.sizes, tree.indptr, tree.indices
    violations = []
    falls = np.concatenate(([False], indices[1:] <= indices[:-1], [False]))  # falls[p]: indices[p] <= indices[p - 1]
    falls[indptr] = False  # a fall is fine where a node starts
    falls, root = falls.nonzero()[0], indices[: indptr[1]]
    # n sorted, distinct members from 0 to n - 1 are exactly 0..n-1
    if root.size != n or n and (root[0] != 0 or root[-1] != n - 1 or falls.size and (root != np.arange(n)).any()):
        violations.append(f"root members must be exactly 0..{n - 1}")
    if n and not sizes.all():  # at N = 0 every group is necessarily empty
        violations += [f"empty group at path {paths[k]}" for k in np.flatnonzero(sizes == 0)]
    width = n  # members in 0..n-1 give (node, member) keys node * n + member
    if np.minimum.reduce(indices, initial=0) < 0 or np.maximum.reduce(indices, initial=-1) >= n:
        filled = np.flatnonzero(sizes)
        low, high = indices[indptr[filled]], indices[indptr[filled + 1] - 1]
        violations += [f"index out of range [0, {n}) at path {paths[k]}" for k in filled[(low < 0) | (high >= n)]]
        values = _sorted_unique(indices.copy())
        indices = np.searchsorted(values, indices)  # ranks keep the order, and their keys fit in int64
        width = values.size
    if falls.size:
        rows = np.searchsorted(indptr, falls, side="right") - 1
        violations += [f"members of {paths[k]} are not sorted and distinct" for k in _sorted_unique(rows)]
    with_children = np.flatnonzero(tree.m)  # every node but the root is one of their children
    for k, first in zip(with_children.tolist(), np.searchsorted(parent, with_children).tolist()):
        kids = paths[first : first + tree.m[k]]
        if kids != [paths[k] + (j,) for j in range(1, len(kids) + 1)]:
            violations += [f"sibling groups share path {p}" for p, times in Counter(kids).items() if times > 1]
            violations.append(f"children of {paths[k]} are not numbered 1..{len(kids)}")

    def keys(nodes: slice, owners: np.ndarray) -> np.ndarray:
        """(owner, member) keys of the nodes' members; sorted members make one node's keys sorted."""
        out = np.repeat(owners * width, sizes[nodes])
        out += indices[indptr[nodes.start] : indptr[nodes.stop]]
        return out

    uncovered = []
    for nodes in tree.levels:
        parents = slice(int(parent[nodes.start]), int(parent[nodes.stop - 1]) + 1)
        # each child's members, keyed under its parent: sorted runs, which timsort ("stable") merges
        union = _sorted_unique(keys(nodes, parent[nodes]), kind="stable")
        # made second, for a lower peak; the root's keys are its members
        held = keys(parents, np.arange(parents.start, parents.stop)) if parents.start else indices[: indptr[1]]
        if union.size != held.size or (union != held).any():
            up = keys(nodes, parent[nodes])
            outside = np.flatnonzero(~_isin_sorted(up, held)) + indptr[nodes.start]
            for k in _sorted_unique(np.searchsorted(indptr, outside, side="right") - 1):
                violations.append(f"child {paths[k]} not contained in parent {paths[parent[k]]}")
            covered = np.bincount(union[_isin_sorted(union, held)] // width, minlength=parents.stop)
            uncovered += [k for k in range(parents.start, parents.stop) if tree.m[k] and covered[k] != sizes[k]]
        del held, union  # before the next level's keys are made
    violations += [f"children of {paths[k]} do not cover the parent" for k in uncovered]
    if not tree.m[: tree.leaves[0]].all():  # a node above the deepest level has no children
        depths = (depth for depth, s in enumerate((slice(0, 1), *tree.levels)) if not tree.m[s].all())
        violations.append(f"leaves at unequal depths: {list(depths)}")
    return violations


def validate_forest(forest: ClassificationForest) -> list[str]:
    """The forest's rules, run by its constructor: one tree or more, each over n."""
    violations = [
        f"tree {s} has n={tree.n}, forest has n={forest.n}" for s, tree in enumerate(forest.trees) if tree.n != forest.n
    ]
    return violations if forest.trees else ["forest must contain at least one tree"]


# ---------------------------------------------------------------------------
# derived quantities


def group_stats(tree: HierTree, k: int, is_null: np.ndarray) -> tuple[int, int, float]:
    """(size, null count, null proportion) of node k under known truth."""
    k = _integer(k, "a node id")
    if not 0 <= k < len(tree.paths):
        raise IndexError(f"node id {k} out of range [0, {len(tree.paths)})")
    size, n0 = int(tree.sizes[k]), int(_truth(is_null, tree.n)[tree.members(k)].sum())
    return size, n0, n0 / max(size, 1)  # 0.0 for an empty node, which only a tree over N = 0 holds


def leaf_memberships(forest: ClassificationForest, i: int) -> list[list[tuple[int, ...]]]:
    """Per-tree list of leaf paths whose member set contains index i."""
    i = _integer(i, "a hypothesis index")
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


def _integer(value, what: str) -> int:
    """A JSON integer that fits in int64; bools, floats and strings are
    rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} must be an integer in int64 range, got {value!r:.40}")
    return int(value)


def _plain_ints(values: list, low: int = -(2**63), high: int = 2**63 - 1) -> bool:
    """Whether every value is a plain int (not a bool) in [low, high]."""
    return not values or (set(map(type, values)) == {int} and low <= min(values) and max(values) <= high)


def _size(value, what: str = "n", least: int = 0) -> int:
    """A size or count: an integer (not a bool or float) of at least ``least``."""
    n = _integer(value, what)
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")
    return n


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r:.40}")
    return value


def _key(obj, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected an object with {key!r}, got {obj!r:.40}")
    return obj[key]


def _spec_level(groups: list, n: int) -> tuple:
    """The paths and runs of one spec level, for _build_tree. Every check
    runs in bulk over the level; when one fails, the level is read again one
    group at a time, which raises at the first culprit in document order
    (or passes numpy integers on as ints)."""
    return _bulk_level(groups, n) or _bulk_level([_read_group(group, n) for group in groups], n)


def _bulk_level(groups: list, n: int) -> tuple | None:
    """(paths, runs) of a level whose groups are all sound, for
    _build_tree, else None; runs(order) gives the closed runs (group, first,
    last), whatever the order. A single member m is the run [m, m]."""
    if not set(map(type, groups)) <= {dict}:
        return None
    try:
        paths, members = [group["path"] for group in groups], [group["members"] for group in groups]
    except KeyError:
        return None
    items = list(chain.from_iterable(members)) if set(map(type, members)) <= {list} else None
    if items is None or not set(map(type, paths)) <= {list} or not _plain_ints(list(chain.from_iterable(paths))):
        return None
    is_run = list(map(isinstance, items, repeat(list)))
    runs, singles = list(compress(items, is_run)), list(compress(items, map(operator.not_, is_run)))
    bounds = list(chain.from_iterable(runs))
    if not (_plain_ints(singles) and set(map(len, runs)) <= {2} and _plain_ints(bounds, 0, n)):
        return None
    runs = np.array(bounds, dtype=np.int64).reshape(-1, 2)
    if (runs[:, 0] > runs[:, 1]).any():
        return None
    group = np.repeat(np.arange(len(members)), list(map(len, members)))
    is_run, singles = np.array(is_run, dtype=bool), np.array(singles, dtype=np.int64)
    first, last = np.concatenate((runs[:, 0], singles)), np.concatenate((runs[:, 1] - 1, singles))
    runs = np.concatenate((group[is_run], group[~is_run])), first, last  # made here: group and is_run go now
    return list(map(tuple, paths)), lambda order: runs


def _read_group(group, n: int) -> dict:
    """One spec group, checked item by item in document order; with int values."""
    path = [_integer(v, "a path entry") for v in _list(_key(group, "path"), "a path")]
    members = _list(_key(group, "members"), "members")
    return {"path": path, "members": [_run(m, n) if isinstance(m, list) else _integer(m, "a member") for m in members]}


def _run(item: list, n: int) -> list[int]:
    if len(item) != 2:
        raise ValueError(f"a run must be [start, stop], got {item!r:.40}")
    start, stop = (_integer(bound, "a run bound") for bound in item)
    if not 0 <= start <= stop <= n:
        raise ValueError(f"run [{start}, {stop}) does not lie within [0, {n}]")
    return [start, stop]


def forest_to_dict(forest: ClassificationForest) -> dict:
    return {"n": forest.n, "trees": [{"levels": [_encode_level(tree, s) for s in tree.levels]} for tree in forest.trees]}


def _encode_level(tree: HierTree, nodes: slice) -> list[dict]:
    """The spec groups of a level, members cut by _runs: a run of 3 or more
    members is written as [start, stop), a shorter one as its plain members."""
    rows = tree.indptr[nodes.start : nodes.stop + 1]
    group, first, last = _runs(tree.indices[rows[0] : rows[-1]], np.repeat(np.arange(rows.size - 1), np.diff(rows)))
    long = last - first >= 2
    count = np.where(long, 1, last - first + 1)  # items per run
    at = np.add.accumulate(count) - count  # each run's first item
    items = (np.repeat(first - at, count) + np.arange(count.sum())).tolist()
    for j, start, stop in zip(at[long].tolist(), first[long].tolist(), (last[long] + 1).tolist()):
        items[j] = [start, stop]
    ends = np.searchsorted(np.repeat(group, count), np.arange(rows.size)).tolist()
    return [{"path": list(path), "members": items[a:b]} for path, a, b in zip(tree.paths[nodes], ends[:-1], ends[1:])]


def forest_from_dict(data: dict) -> ClassificationForest:
    """Decode the schema above; a wrong shape or a value that is not an
    integer raises ValueError."""
    n = _size(_key(data, "n"))
    trees = []
    for s, tdata in enumerate(_list(_key(data, "trees"), "trees")):
        levels = [_spec_level(_list(groups, "a level"), n) for groups in _list(_key(tdata, "levels"), "levels")]
        try:
            trees.append(_build_tree(n, levels))
        except ValueError as exc:
            raise ValueError(f"tree {s}: {exc}") from None
    return ClassificationForest(n=n, trees=tuple(trees))


def save_forest(forest: ClassificationForest, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(forest_to_dict(forest), separators=(",", ":")))  # dumps, unlike dump, runs the C encoder
        fh.write("\n")


def _read_spec(path):
    """The JSON document of a spec file; ValueError, not RecursionError,
    when it nests deeper than the JSON decoder follows."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("nested too deeply to decode") from None


def load_forest(path) -> ClassificationForest:
    return forest_from_dict(_read_spec(path))

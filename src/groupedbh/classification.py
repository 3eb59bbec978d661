"""Group structures over a set of hypotheses.

A study has N hypotheses indexed 0..N-1. A :class:`HierTree` organizes them
into nested levels of groups; sibling groups at any level must jointly cover
their parent but are allowed to overlap. A :class:`ClassificationForest`
holds S such trees over the same index set, one per simultaneous
classification criterion. Depth-0 trees (a single root group) and forests of
depth-1 trees recover the unclassified and S-way special cases.
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
class GroupNode:
    """One group in a hierarchy.

    ``path`` is the positional lineage (g1, ..., gl), 1-based within each
    parent; the root has the empty path. ``members`` is a sorted array of
    hypothesis indices.
    """

    path: tuple[int, ...]
    members: np.ndarray
    children: tuple["GroupNode", ...] = ()

    def __post_init__(self):
        self.members = _as_index_array(self.members)
        self.children = tuple(self.children)

    @property
    def level(self) -> int:
        return len(self.path)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(eq=False)
class HierTree:
    """A hierarchy of groups over indices 0..n-1.

    All leaves sit at the same depth; depth 0 means the root is the only
    group. Hypotheses may belong to several sibling groups (overlap), but
    every hypothesis must be covered at every level.
    """

    n: int
    root: GroupNode

    @property
    def depth(self) -> int:
        d = 0
        node = self.root
        while node.children:
            node = node.children[0]
            d += 1
        return d

    def nodes_at_level(self, level: int) -> list[GroupNode]:
        out = [self.root]
        for _ in range(level):
            out = [c for node in out for c in node.children]
        return out

    @property
    def leaves(self) -> list[GroupNode]:
        return self.nodes_at_level(self.depth)


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
    return HierTree(n=n, root=GroupNode(path=(), members=np.arange(n)))


def tree_from_levels(n: int, levels: list[list[tuple[tuple[int, ...], np.ndarray]]]) -> HierTree:
    """Build a tree from explicit (path, members) pairs, one list per level.

    Paths are 1-based positional lineages; every group's parent path must
    appear at the previous level. Overlapping siblings are allowed, and the
    same member set may appear under several parents (distinct paths).
    """
    root = GroupNode(path=(), members=np.arange(n))
    by_path: dict[tuple[int, ...], GroupNode] = {(): root}
    for level_groups in levels:
        new_kids: dict[tuple[int, ...], list[GroupNode]] = {}
        for path, members in level_groups:
            path = tuple(int(v) for v in path)
            parent_path = path[:-1]
            if parent_path not in by_path:
                raise ValueError(f"group {path} has no parent {parent_path}")
            node = GroupNode(path=path, members=members)
            by_path[path] = node
            new_kids.setdefault(parent_path, []).append(node)
        for parent_path, nodes in new_kids.items():
            by_path[parent_path].children = tuple(sorted(nodes, key=lambda nd: nd.path))
    return HierTree(n=n, root=root)


def tree_from_groups(n: int, levels: list[list[np.ndarray]]) -> HierTree:
    """Build a tree from per-level member lists.

    Parentage is inferred by set containment: each group becomes a child of
    the first group at the previous level that contains all of its members.
    Use :func:`tree_from_levels` when a group must hang under several
    overlapping parents.
    """
    root = GroupNode(path=(), members=np.arange(n))
    current = [root]
    for level_groups in levels:
        assigned: dict[int, list[np.ndarray]] = {i: [] for i in range(len(current))}
        for mem in level_groups:
            mem = _as_index_array(mem)
            placed = False
            for i, parent in enumerate(current):
                if _isin_sorted(mem, parent.members).all():
                    assigned[i].append(mem)
                    placed = True
                    break
            if not placed:
                raise ValueError("group does not fit inside any parent at the previous level")
        next_nodes = []
        for i, parent in enumerate(current):
            kids = tuple(
                GroupNode(path=parent.path + (j + 1,), members=mem)
                for j, mem in enumerate(assigned[i])
            )
            parent.children = kids
            next_nodes.extend(kids)
        current = next_nodes
    return HierTree(n=n, root=root)


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
# compiled form


@dataclass
class _CompiledTree:
    """A tree as flat arrays, nodes in level order (root = node 0).

    Node k's members are ``indices[indptr[k]:indptr[k + 1]]`` (CSR layout),
    ``sizes[k]`` of them; ``parent[k]`` is its parent's node id (-1 for the
    root), ``level[k]`` its depth, ``m[k]`` its number of children and
    ``mult[k]`` the product of its ancestors' ``m``. ``levels`` holds the
    node ids of levels 1..depth as slices; the deepest level's nodes,
    ``leaves``, form the tail of the level order.
    """

    n: int
    nodes: list
    indptr: np.ndarray
    indices: np.ndarray
    sizes: np.ndarray
    parent: np.ndarray
    level: np.ndarray
    m: np.ndarray
    mult: np.ndarray
    levels: list
    leaves: np.ndarray

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-node number of members i with mask[i] set."""
        hits = mask[self.indices]
        counts = np.add.reduceat(hits, np.minimum(self.indptr[:-1], hits.size - 1), dtype=np.int64)
        counts[self.sizes == 0] = 0  # reduceat leaves a value in empty rows
        return counts

    def leaf_rows(self) -> np.ndarray:
        """Members of every leaf, concatenated in leaf order."""
        return self.indices[self.indptr[self.leaves[0]] :]


def _compile(tree: HierTree) -> _CompiledTree:
    nodes, parent, level, m, mult, starts = [tree.root], [-1], [0], [], [1], [0]
    for k, node in enumerate(nodes):  # grows while it is walked: breadth first
        if k == starts[-1]:  # first node of its level, so the whole level is listed
            starts.append(len(nodes))
        m.append(len(node.children))
        nodes.extend(node.children)
        parent.extend([k] * m[k])
        level.extend([level[k] + 1] * m[k])
        mult.extend([mult[k] * m[k]] * m[k])
    indptr = np.array(list(accumulate((node.members.size for node in nodes), initial=0)), dtype=np.int64)
    return _CompiledTree(
        n=tree.n,
        nodes=nodes,
        indptr=indptr,
        indices=np.concatenate([node.members for node in nodes]),
        sizes=indptr[1:] - indptr[:-1],
        parent=np.array(parent, dtype=np.int64),
        level=np.array(level, dtype=np.int64),
        m=np.array(m, dtype=np.int64),
        mult=np.array(mult, dtype=np.int64),
        levels=[slice(a, b) for a, b in zip(starts[1:-1], starts[2:])],
        leaves=np.arange(starts[-2], starts[-1]),
    )


# ---------------------------------------------------------------------------
# validation


def validate_tree(tree: HierTree) -> list[str]:
    """Structural invariant check; returns a list of violations (empty = ok)."""
    n, c = tree.n, _compile(tree)
    violations = []
    if not np.array_equal(tree.root.members, np.arange(n)):
        violations.append(f"root members must be exactly 0..{n - 1}")
    sizes = c.sizes
    filled = np.flatnonzero(sizes)
    low, high = c.indices[c.indptr[filled]], c.indices[c.indptr[filled + 1] - 1]
    violations += [f"empty group at path {c.nodes[k].path}" for k in np.flatnonzero(sizes == 0)]
    violations += [
        f"index out of range [0, {n}) at path {c.nodes[k].path}"
        for k in filled[(low < 0) | (high >= n)]
    ]
    for node in (c.nodes[k] for k in np.flatnonzero(c.m)):
        paths = [child.path for child in node.children]
        violations += [f"sibling groups share path {p}" for p, count in Counter(paths).items() if count > 1]
        if paths != [node.path + (j,) for j in range(1, len(paths) + 1)]:
            violations.append(f"children of {node.path} are not numbered 1..{len(paths)}")
    # (node, member) keys; sorted members make one node's keys sorted
    lo = min(int(c.indices.min(initial=0)), 0)
    width = max(int(c.indices.max(initial=-1)) + 1, n) - lo

    def keys(nodes: slice, owners: np.ndarray) -> np.ndarray:
        members = c.indices[c.indptr[nodes.start] : c.indptr[nodes.stop]]
        return np.repeat(owners, sizes[nodes]) * width + (members - lo)

    covered = np.zeros(len(c.nodes), dtype=np.int64)
    for level in c.levels:  # one level and its parents at a time
        parents = slice(int(c.parent[level.start]), int(c.parent[level.stop - 1]) + 1)
        held = keys(parents, np.arange(parents.start, parents.stop))
        up = keys(level, c.parent[level])  # each child's members, keyed under its parent
        outside = np.flatnonzero(~_isin_sorted(up, held)) + c.indptr[level.start]
        for k in _sorted_unique(np.searchsorted(c.indptr, outside, side="right") - 1):
            violations.append(f"child {c.nodes[k].path} not contained in parent {c.nodes[c.parent[k]].path}")
        union = _sorted_unique(up)
        del up
        covered += np.bincount(union[_isin_sorted(union, held)] // width, minlength=len(c.nodes))
    violations += [
        f"children of {c.nodes[k].path} do not cover the parent"
        for k in np.flatnonzero((c.m > 0) & (covered != sizes))
    ]
    depths = sorted(set(c.level[c.m == 0].tolist()))
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


def group_stats(node: GroupNode, is_null: np.ndarray) -> tuple[int, int, float]:
    """(size, null count, null proportion) of a group under known truth."""
    is_null = np.asarray(is_null, dtype=bool)
    n = int(node.members.size)
    n0 = int(is_null[node.members].sum())
    return n, n0, n0 / n


def leaf_memberships(forest: ClassificationForest, i: int) -> list[list[tuple[int, ...]]]:
    """Per-tree list of leaf paths whose member set contains index i."""
    if not 0 <= i < forest.n:
        raise IndexError(f"hypothesis index {i} out of range [0, {forest.n})")
    out = []
    for tree in forest.trees:
        c = _compile(tree)
        hits = np.flatnonzero(c.leaf_rows() == i) + c.indptr[c.leaves[0]]
        out.append([c.nodes[k].path for k in np.searchsorted(c.indptr, hits, side="right") - 1])
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


def _decode_members(encoded: list) -> np.ndarray:
    parts = []
    for item in encoded:
        if isinstance(item, list):
            start, stop = item
            parts.append(np.arange(start, stop, dtype=np.int64))
        else:
            parts.append(np.array([item], dtype=np.int64))
    return _as_index_array(np.concatenate(parts) if parts else [])


def forest_to_dict(forest: ClassificationForest) -> dict:
    trees = []
    for tree in forest.trees:
        levels = []
        for level in range(1, tree.depth + 1):
            levels.append(
                [
                    {"path": list(node.path), "members": _encode_members(node.members)}
                    for node in tree.nodes_at_level(level)
                ]
            )
        trees.append({"levels": levels})
    return {"n": forest.n, "trees": trees}


def forest_from_dict(data: dict) -> ClassificationForest:
    n = int(data["n"])
    trees = []
    for tdata in data["trees"]:
        levels = [
            [(tuple(g["path"]), _decode_members(g["members"])) for g in level_groups]
            for level_groups in tdata["levels"]
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

"""Seeded input generators. The same seed gives byte-identical inputs; the
program only ever sees the files written here."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.special import ndtr

# N = 10^6 hypotheses in 100 level-1 groups of 10^4 (+10% overlap into the
# next group), each split into 100 contiguous leaves: 10^4 leaves in all.
BIG_N = 10**6
BIG_GROUPS = 100
BIG_LEAVES_PER_GROUP = 100
BIG_OVERLAP = 0.10


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream name); any integer seed."""
    tag = int.from_bytes(stream.encode()[:8].ljust(8, b"\0"), "little")
    return np.random.default_rng([seed & (2**64 - 1), tag])


def derived_seeds(seed: int, stream: str, count: int) -> list[int]:
    """`count` program seeds (non-negative 31-bit) derived from the run seed."""
    return [int(v) for v in rng_for(seed, stream).integers(0, 2**31, size=count)]


def big_tree_levels(
    n: int = BIG_N,
    groups: int = BIG_GROUPS,
    leaves_per_group: int = BIG_LEAVES_PER_GROUP,
    overlap: float = BIG_OVERLAP,
) -> list[list[tuple[tuple[int, ...], np.ndarray]]]:
    """Two-level tree: level-1 group g covers [g s, (g+1) s + overlap s) of
    the index range (s = n / groups), so each overlaps its right neighbour;
    its leaves split that range into contiguous equal runs."""
    size = n // groups
    extra = int(round(size * overlap))
    level1, level2 = [], []
    for g in range(groups):
        lo, hi = g * size, min(n, (g + 1) * size + extra)
        level1.append(((g + 1,), np.arange(lo, hi, dtype=np.int64)))
        cuts = np.linspace(lo, hi, leaves_per_group + 1).round().astype(np.int64)
        for j in range(leaves_per_group):
            level2.append(((g + 1, j + 1), np.arange(cuts[j], cuts[j + 1], dtype=np.int64)))
    return [level1, level2]


def signal_pvalues(
    rng: np.random.Generator,
    n: int,
    groups: list[np.ndarray],
    signal_groups: int,
    density: float = 0.5,
    shift: float = 3.0,
) -> np.ndarray:
    """One-sided p-values of N(shift * signal, 1) statistics, where signals
    sit only in `signal_groups` of `groups` (chosen by `rng`), switched on
    there with probability `density`."""
    signal = np.zeros(n, dtype=bool)
    for g in rng.choice(len(groups), size=signal_groups, replace=False):
        members = groups[g]
        signal[members[rng.uniform(size=members.size) < density]] = True
    z = rng.standard_normal(n) + shift * signal
    return ndtr(-z)


def write_pvalues(path: Path, pvalues: np.ndarray) -> None:
    """One p-value per line, written with repr so parsing round-trips exactly."""
    with open(path, "w") as fh:
        fh.write("\n".join(map(repr, pvalues.tolist())))
        fh.write("\n")

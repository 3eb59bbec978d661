"""Monte Carlo study: layered Bernoulli signals, Kronecker-correlated
Gaussian statistics, one-sided p-values, and method comparison across
signal densities.

The layout is m = 50 row groups of n = 100 hypotheses (N = 5000). Signals
are switched on by the entrywise product of three Bernoulli layers: one per
cell, one per level-1 block (top 25 rows, 5 overlap rows, bottom 20 rows),
and one per row. Test statistics are unit-variance Gaussians with
equicorrelation within rows and within columns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import _pool
from .classification import HierTree, _size, tree_from_levels
from .stepup import _check_level, outcome_metrics, weighted_bh
from .weights import (
    da_flat_weights,
    da_hier_weights,
    oracle_flat_weights,
    oracle_hier_weights,
)

METHODS = ("BH", "AdaptiveBH", "HeirGBH", "DAHeirGBH")


def _grid(points: int) -> tuple[float, ...]:
    """``points`` densities spread evenly over [0, 1], each rounded to 10 decimals."""
    return tuple(round(float(x), 10) for x in np.linspace(0.0, 1.0, points))


DEFAULT_GRID = _grid(11)


@dataclass(frozen=True)
class SimulationPlan:
    m: int = 50
    n: int = 100
    mu: float = 3.0
    one_minus_pi0_grid: tuple[float, ...] = DEFAULT_GRID
    pi1: float = 0.5
    pi1_star: float = 0.25
    pi2: float = 0.5
    rho_l1: float = 0.0
    rho_l2: float = 0.0
    lam: float = 0.5
    alpha: float = 0.05
    replicates: int = 500
    seed: int = 20240
    methods: tuple[str, ...] = METHODS

    def __post_init__(self) -> None:
        """Raise one ValueError that lists every problem of the plan,
        joined by "; "."""
        problems = []

        def collect(check, *args) -> None:
            try:
                check(*args)
            except ValueError as exc:
                problems.append(str(exc))

        for name in ("pi1", "pi1_star", "pi2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name} must lie in [0, 1], got {v}")
        if self.pi1_star > self.pi1:
            problems.append("pi1_star must not exceed pi1")
        for name in ("rho_l1", "rho_l2"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                problems.append(f"{name} must lie in [0, 1), got {v}")
        collect(_check_level, "lambda", self.lam)
        collect(_check_level, "alpha", self.alpha)
        if not self.one_minus_pi0_grid:
            problems.append("density grid must not be empty")
        if any(not 0.0 <= d <= 1.0 for d in self.one_minus_pi0_grid):
            problems.append("density grid values must lie in [0, 1]")
        for name, least in (("m", 2), ("n", 1), ("replicates", 1), ("seed", 0)):  # m = 1 leaves a row group empty
            collect(_size, getattr(self, name), name, least)
        if not math.isfinite(self.mu):
            problems.append(f"mu must be finite, got {self.mu}")
        for name, values in (("densities", self.one_minus_pi0_grid), ("methods", self.methods)):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                problems.append(f"repeated {name}: {repeated}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            problems.append(f"unknown methods: {sorted(unknown)}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass
class SummaryRow:
    method: str
    one_minus_pi0: float
    mean_fdp: float
    se_fdp: float
    mean_power: float
    se_power: float


@dataclass
class SimulationSummary:
    plan: SimulationPlan
    rows: list[SummaryRow]
    # per (method, one_minus_pi0): replicate-level (fdp, power) arrays
    replicate_records: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]]


def _blocks(m: int) -> tuple[slice, slice, slice]:
    # level-1 groups are rows [0, 0.6m) and [0.5m, m), sharing the middle
    # 0.1m rows; the three slices are group-1 only, overlap, group-2 only
    half = m // 2
    overlap = m // 10
    return slice(0, half), slice(half, half + overlap), slice(half + overlap, m)


def generate_theta(plan: SimulationPlan, one_minus_pi0: float, rng: np.random.Generator) -> np.ndarray:
    """The m x n signal indicators: the entrywise product of the three
    layers."""
    m, n = plan.m, plan.n
    theta0 = rng.binomial(1, one_minus_pi0, size=(m, n))
    top, mid, bottom = _blocks(m)
    theta1 = np.empty((m, n), dtype=np.int64)
    theta1[top] = rng.binomial(1, 1.0 - plan.pi1)
    theta1[mid] = rng.binomial(1, 1.0 - plan.pi1_star)
    theta1[bottom] = rng.binomial(1, 1.0 - plan.pi1)
    theta2 = rng.binomial(1, 1.0 - plan.pi2, size=m)
    return theta0 * theta1 * theta2[:, None]


def generate_statistics(
    theta: np.ndarray,
    rho_l1: float,
    rho_l2: float,
    mu: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unit-variance Gaussian matrix with within-row and within-column
    equicorrelation controlled by rho_l2 and rho_l1 respectively."""
    m, n = theta.shape
    z_mn = rng.standard_normal((m, n))
    z_m = rng.standard_normal(m)
    z_n = rng.standard_normal(n)
    z_0 = rng.standard_normal()
    return (
        mu * theta
        + math.sqrt((1.0 - rho_l1) * (1.0 - rho_l2)) * z_mn
        + math.sqrt((1.0 - rho_l1) * rho_l2) * z_m[:, None]
        + math.sqrt(rho_l1 * (1.0 - rho_l2)) * z_n[None, :]
        + math.sqrt(rho_l1 * rho_l2) * z_0
    )


def pvalues_from_statistics(x: np.ndarray) -> np.ndarray:
    """One-sided upper-tail p-values, p_i = P(Z > x_i) for Z ~ N(0, 1)."""
    from scipy.special import ndtr  # imported here so other commands start without scipy

    return ndtr(-np.asarray(x, dtype=float).reshape(-1))


def simulation_tree(m: int = SimulationPlan.m, n: int = SimulationPlan.n) -> HierTree:
    """Two-level tree over the m x n layout: two overlapping level-1 groups
    (top 30 and bottom 25 rows of 50, sharing 5), each split into its rows."""
    _, mid, _ = _blocks(m)
    groups = ((1, range(0, mid.stop)), (2, range(mid.start, m)))
    level1 = [((g,), np.arange(rows.start * n, rows.stop * n)) for g, rows in groups]
    level2 = [((g, j), np.arange(r * n, (r + 1) * n)) for g, rows in groups for j, r in enumerate(rows, start=1)]
    return tree_from_levels(m * n, [level1, level2])


def _method_weights(method, tree, pvalues, is_null, plan):
    if method == "BH":
        return oracle_flat_weights(is_null)
    if method == "AdaptiveBH":
        return da_flat_weights(pvalues, plan.lam)
    if method == "HeirGBH":
        return oracle_hier_weights(tree, is_null)
    # "DAHeirGBH": a SimulationPlan with any other name cannot be built
    return da_hier_weights(tree, pvalues, plan.lam)


def replicate_rng(seed: int, point_index: int, replicate: int) -> np.random.Generator:
    """Deterministic per-replicate stream: the master seed is combined with
    (grid point, replicate) through a SeedSequence spawn key, so replicates
    can run in any order or in parallel without changing results."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(point_index, replicate))
    )


_BLOCK_REPLICATES = 20  # consecutive replicates of one grid point per unit of work


def run_study(plan: SimulationPlan) -> SimulationSummary:
    """Run the full density sweep and aggregate FDP and power per method.

    The replicates run in blocks of _BLOCK_REPLICATES consecutive replicates
    of one grid point, through `_pool.imap`: on one forked worker per CPU of
    this process's affinity mask, or here on one CPU. Every replicate draws
    from its own stream, so the results are the same bits either way."""
    import scipy.special  # noqa: F401  imported once here, not in every worker

    tree = simulation_tree(plan.m, plan.n)
    grid, methods = plan.one_minus_pi0_grid, plan.methods
    out = np.empty((2, len(grid), len(methods), plan.replicates))
    blocks = [
        (d, lo, min(lo + _BLOCK_REPLICATES, plan.replicates))
        for d in range(len(grid))
        for lo in range(0, plan.replicates, _BLOCK_REPLICATES)
    ]
    with _pool.imap(_replicate_block, (plan, tree), blocks) as results:
        for (d, lo, hi), block in zip(blocks, results):
            out[:, d, :, lo:hi] = block
    mean = out.mean(axis=-1)
    se = (
        out.std(axis=-1, ddof=1) / math.sqrt(plan.replicates)
        if plan.replicates > 1
        else np.zeros_like(mean)
    )
    (fdp_mean, power_mean), (fdp_se, power_se) = mean.tolist(), se.tolist()
    rows = []
    records = {}
    for d, density in enumerate(grid):
        for k, meth in enumerate(methods):
            rows.append(
                SummaryRow(meth, density, fdp_mean[d][k], fdp_se[d][k], power_mean[d][k], power_se[d][k])
            )
            records[(meth, density)] = (out[0, d, k], out[1, d, k])
    return SimulationSummary(plan=plan, rows=rows, replicate_records=records)


def _replicate_block(plan_tree: tuple[SimulationPlan, HierTree], block: tuple[int, int, int]) -> np.ndarray:
    """FDP and power of each method in replicates lo .. hi - 1 of grid point
    d, for block = (d, lo, hi), as a (2, methods, hi - lo) array."""
    (plan, tree), (d, lo, hi) = plan_tree, block
    density = plan.one_minus_pi0_grid[d]
    out = np.empty((2, len(plan.methods), hi - lo))
    for r in range(lo, hi):
        rng = replicate_rng(plan.seed, d, r)
        theta = generate_theta(plan, density, rng)
        x = generate_statistics(theta, plan.rho_l1, plan.rho_l2, plan.mu, rng)
        pvalues = pvalues_from_statistics(x)
        is_null = theta.reshape(-1) == 0
        for k, meth in enumerate(plan.methods):
            w = _method_weights(meth, tree, pvalues, is_null, plan)
            metrics = outcome_metrics(weighted_bh(pvalues, w, plan.alpha), is_null)
            out[:, k, r - lo] = metrics.fdp, metrics.power
    return out


CSV_COLUMNS = (
    "method",
    "one_minus_pi0",
    "mean_fdp",
    "se_fdp",
    "mean_power",
    "se_power",
    "replicates",
    "rho_L1",
    "rho_L2",
    "lambda",
    "alpha",
    "seed",
)


def write_summary_csv(summary: SimulationSummary, path) -> None:
    plan = summary.plan
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in summary.rows:
            writer.writerow(
                [
                    row.method,
                    repr(float(row.one_minus_pi0)),
                    repr(row.mean_fdp),
                    repr(row.se_fdp),
                    repr(row.mean_power),
                    repr(row.se_power),
                    plan.replicates,
                    repr(plan.rho_l1),
                    repr(plan.rho_l2),
                    repr(plan.lam),
                    repr(plan.alpha),
                    plan.seed,
                ]
            )

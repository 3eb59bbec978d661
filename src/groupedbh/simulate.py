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
from dataclasses import dataclass, field

import numpy as np

from .classification import HierTree, tree_from_levels
from .stepup import outcome_metrics, weighted_bh
from .weights import (
    da_flat_weights,
    da_hier_weights,
    oracle_flat_weights,
    oracle_hier_weights,
)

METHODS = ("BH", "AdaptiveBH", "HeirGBH", "DAHeirGBH")

DEFAULT_GRID = tuple(round(float(x), 10) for x in np.linspace(0.0, 1.0, 11))


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

    @property
    def total(self) -> int:
        return self.m * self.n

    def validate(self) -> list[str]:
        problems = []
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
        if not 0.0 < self.lam < 1.0:
            problems.append(f"lambda must lie in (0, 1), got {self.lam}")
        if not 0.0 < self.alpha < 1.0:
            problems.append(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.one_minus_pi0_grid:
            problems.append("density grid must not be empty")
        if any(not 0.0 <= d <= 1.0 for d in self.one_minus_pi0_grid):
            problems.append("density grid values must lie in [0, 1]")
        if self.replicates < 1:
            problems.append("replicates must be >= 1")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            problems.append(f"unknown methods: {sorted(unknown)}")
        return problems


@dataclass(frozen=True)
class LayeredTheta:
    theta0: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray  # length m
    theta: np.ndarray

    @property
    def is_null_flat(self) -> np.ndarray:
        return self.theta.reshape(-1) == 0


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
    # per (method, one_minus_pi0): replicate-level (fdp, power) arrays,
    # kept only when run_study(..., keep_replicates=True)
    replicate_records: dict[tuple[str, float], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )


def _blocks(m: int) -> tuple[slice, slice, slice]:
    # level-1 groups are rows [0, 0.6m) and [0.5m, m), sharing the middle
    # 0.1m rows; the three slices are group-1 only, overlap, group-2 only
    half = m // 2
    overlap = m // 10
    return slice(0, half), slice(half, half + overlap), slice(half + overlap, m)


def generate_theta(plan: SimulationPlan, one_minus_pi0: float, rng: np.random.Generator) -> LayeredTheta:
    """Signal indicators as the entrywise product of the three layers."""
    m, n = plan.m, plan.n
    theta0 = rng.binomial(1, one_minus_pi0, size=(m, n))
    top, mid, bottom = _blocks(m)
    theta1 = np.empty((m, n), dtype=np.int64)
    theta1[top] = rng.binomial(1, 1.0 - plan.pi1)
    theta1[mid] = rng.binomial(1, 1.0 - plan.pi1_star)
    theta1[bottom] = rng.binomial(1, 1.0 - plan.pi1)
    theta2 = rng.binomial(1, 1.0 - plan.pi2, size=m)
    theta = theta0 * theta1 * theta2[:, None]
    return LayeredTheta(theta0=theta0, theta1=theta1, theta2=theta2, theta=theta)


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


def simulation_tree(m: int = 50, n: int = 100) -> HierTree:
    """Two-level tree over the m x n layout: two overlapping level-1 groups
    (top 30 and bottom 25 rows of 50, sharing 5), each split into its rows."""
    top, mid, bottom = _blocks(m)
    rows_g1 = range(0, mid.stop)  # rows 0..29
    rows_g2 = range(mid.start, m)  # rows 25..49
    total = m * n

    def row_indices(r):
        return np.arange(r * n, (r + 1) * n)

    level1 = [
        ((1,), np.concatenate([row_indices(r) for r in rows_g1])),
        ((2,), np.concatenate([row_indices(r) for r in rows_g2])),
    ]
    level2 = []
    for j, r in enumerate(rows_g1, start=1):
        level2.append(((1, j), row_indices(r)))
    for j, r in enumerate(rows_g2, start=1):
        level2.append(((2, j), row_indices(r)))
    return tree_from_levels(total, [level1, level2])


def _method_weights(method, tree, pvalues, is_null, plan):
    if method == "BH":
        return oracle_flat_weights(is_null)
    if method == "AdaptiveBH":
        return da_flat_weights(pvalues, plan.lam)
    if method == "HeirGBH":
        return oracle_hier_weights(tree, is_null)
    if method == "DAHeirGBH":
        return da_hier_weights(tree, pvalues, plan.lam)
    raise ValueError(f"unknown method {method!r}")


def replicate_rng(seed: int, point_index: int, replicate: int) -> np.random.Generator:
    """Deterministic per-replicate stream: the master seed is combined with
    (grid point, replicate) through a SeedSequence spawn key, so replicates
    can run in any order or in parallel without changing results."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(point_index, replicate))
    )


def run_study(plan: SimulationPlan, keep_replicates: bool = False) -> SimulationSummary:
    """Run the full density sweep and aggregate FDP and power per method."""
    problems = plan.validate()
    if problems:
        raise ValueError("; ".join(problems))
    tree = simulation_tree(plan.m, plan.n)
    rows = []
    records = {}
    for d, density in enumerate(plan.one_minus_pi0_grid):
        fdp = {meth: np.empty(plan.replicates) for meth in plan.methods}
        power = {meth: np.empty(plan.replicates) for meth in plan.methods}
        for r in range(plan.replicates):
            rng = replicate_rng(plan.seed, d, r)
            theta = generate_theta(plan, density, rng)
            x = generate_statistics(theta.theta, plan.rho_l1, plan.rho_l2, plan.mu, rng)
            pvalues = pvalues_from_statistics(x)
            is_null = theta.is_null_flat
            for meth in plan.methods:
                w = _method_weights(meth, tree, pvalues, is_null, plan)
                outcome = weighted_bh(pvalues, w, plan.alpha)
                metrics = outcome_metrics(outcome, is_null)
                fdp[meth][r] = metrics.fdp
                power[meth][r] = metrics.power
        for meth in plan.methods:
            rows.append(
                SummaryRow(
                    method=meth,
                    one_minus_pi0=density,
                    mean_fdp=float(fdp[meth].mean()),
                    se_fdp=float(fdp[meth].std(ddof=1) / math.sqrt(plan.replicates))
                    if plan.replicates > 1
                    else 0.0,
                    mean_power=float(power[meth].mean()),
                    se_power=float(power[meth].std(ddof=1) / math.sqrt(plan.replicates))
                    if plan.replicates > 1
                    else 0.0,
                )
            )
            if keep_replicates:
                records[(meth, density)] = (fdp[meth].copy(), power[meth].copy())
    return SimulationSummary(plan=plan, rows=rows, replicate_records=records)


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

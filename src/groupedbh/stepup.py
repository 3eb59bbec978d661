"""The weighted Benjamini-Hochberg step-up rule and outcome metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TestOutcome:
    rejected: np.ndarray  # bool, length N
    threshold_index: int  # largest step-up rank satisfied, 0 if none
    alpha: float

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.sum())


@dataclass(frozen=True)
class OutcomeMetrics:
    fdp: float
    power: float


def _check_inputs(pvalues: np.ndarray, weights: np.ndarray | None = None) -> None:
    """Raise ValueError unless every p-value lies in [0, 1] and every weight
    is non-negative (+inf allowed); NaN fails both checks."""
    if not ((pvalues >= 0.0) & (pvalues <= 1.0)).all():
        raise ValueError("p-values must lie in [0, 1]")
    if weights is not None and not (weights >= 0.0).all():
        raise ValueError("weights must be non-negative and not NaN")


def weighted_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> TestOutcome:
    """Step-up rule on the weighted p-values W_i * P_i.

    Rejects the hypotheses at sorted ranks 1..k where k is the largest j
    with the j-th smallest weighted p-value <= j * alpha / N (k = 0 when no
    rank qualifies). Ties sort stably by original index; infinite weighted
    p-values sort last and never qualify. Weighted p-values are compared
    raw, without clipping to 1.
    """
    pvalues = np.asarray(pvalues, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if pvalues.shape != weights.shape:
        raise ValueError(
            f"length mismatch: {pvalues.size} p-values vs {weights.size} weights"
        )
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_inputs(pvalues, weights)
    n = pvalues.size
    with np.errstate(invalid="ignore"):
        wp = weights * pvalues
    wp[np.isinf(weights)] = np.inf  # never rejectable, even at p = 0
    order = np.lexsort((np.arange(n), wp))
    thresholds = alpha * np.arange(1, n + 1) / n
    ok = wp[order] <= thresholds
    k = int(np.flatnonzero(ok)[-1]) + 1 if ok.any() else 0
    rejected = np.zeros(n, dtype=bool)
    rejected[order[:k]] = True
    return TestOutcome(rejected=rejected, threshold_index=k, alpha=alpha)


def brute_force_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> TestOutcome:
    """Independent O(N^2) evaluation of the step-up rule, used as an oracle.

    For each candidate rank j it recounts how many weighted p-values fall
    at or below j * alpha / N, instead of sorting once. Exactly k of them
    fall at or below k * alpha / N, so no tie needs breaking: were there
    more than k, rank k + 1 would qualify too.
    """
    pvalues = np.asarray(pvalues, dtype=float)
    weights = np.asarray(weights, dtype=float)
    _check_inputs(pvalues, weights)
    n = pvalues.size
    with np.errstate(invalid="ignore"):
        wp = weights * pvalues
    wp[np.isinf(weights)] = np.inf
    thresholds = alpha * np.arange(1, n + 1) / n
    counts = (wp[None, :] <= thresholds[:, None]).sum(axis=1)
    satisfied = np.flatnonzero(counts >= np.arange(1, n + 1))
    k = int(satisfied[-1]) + 1 if satisfied.size else 0
    rejected = wp <= thresholds[k - 1] if k else np.zeros(n, dtype=bool)
    return TestOutcome(rejected=rejected, threshold_index=k, alpha=alpha)


def outcome_metrics(outcome: TestOutcome, is_null: np.ndarray) -> OutcomeMetrics:
    """False discovery proportion and power of a rejection set."""
    is_null = np.asarray(is_null, dtype=bool)
    if is_null.shape != outcome.rejected.shape:
        raise ValueError(
            f"length mismatch: {is_null.size} truth labels vs {outcome.rejected.size} decisions"
        )
    r = int(outcome.rejected.sum())
    v = int((outcome.rejected & is_null).sum())
    n_false_nulls = int((~is_null).sum())
    fdp = v / max(r, 1)
    power = (r - v) / n_false_nulls if n_false_nulls else 0.0
    return OutcomeMetrics(fdp=fdp, power=power)

"""The weighted Benjamini-Hochberg step-up rule and outcome metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TestOutcome:
    rejected: np.ndarray  # bool, length N
    threshold_index: int  # largest step-up rank satisfied, 0 if none
    weighted_pvalues: np.ndarray  # W_i * P_i as compared, +inf under an infinite weight

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.sum())


@dataclass(frozen=True)
class OutcomeMetrics:
    fdp: float
    power: float


def _check_inputs(pvalues: np.ndarray, weights: np.ndarray | None = None) -> None:
    """Raise ValueError unless every p-value lies in [0, 1] and every weight
    is non-negative (+inf allowed); NaN, which the reductions carry, fails both."""
    least, most = np.minimum.reduce(pvalues, None, initial=0.0), np.maximum.reduce(pvalues, None, initial=1.0)
    if not (least >= 0.0 and most <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if weights is not None and not np.minimum.reduce(weights, None, initial=0.0) >= 0.0:
        raise ValueError("weights must be non-negative and not NaN")


def _check_length(values: np.ndarray, n: int, what: str) -> None:
    """Raise ValueError unless ``values`` holds one entry per hypothesis."""
    if values.shape != (n,):
        raise ValueError(f"length mismatch: {values.size} {what} for {n} hypotheses")


def _check_level(name: str, value: float) -> None:
    """Raise ValueError unless the level (alpha, lambda) lies in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _truth(is_null, n: int) -> np.ndarray:
    """Truth labels as a bool vector of one label per hypothesis."""
    is_null = np.asarray(is_null, dtype=bool)
    _check_length(is_null, n, "truth labels")
    return is_null


def _pvalues(pvalues, n: int) -> np.ndarray:
    """P-values as a float vector of one value in [0, 1] per hypothesis."""
    pvalues = np.asarray(pvalues, dtype=float)
    _check_length(pvalues, n, "p-values")
    _check_inputs(pvalues)
    return pvalues


def _step_up(pvalues, weights, alpha: float, satisfied) -> TestOutcome:
    """The step-up rule, given how to find its ranks: satisfied(wp,
    thresholds) marks the ranks j (from 0) at which rank j + 1 qualifies, and
    k is the last of them plus one (0 when none is marked). The checks run in
    the order p length, weight length, alpha, values."""
    pvalues = np.asarray(pvalues, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = pvalues.size
    _check_length(pvalues, n, "p-values")  # a vector, not a column
    _check_length(weights, n, "weights")
    _check_level("alpha", alpha)
    _check_inputs(pvalues, weights)
    with np.errstate(invalid="ignore"):
        wp = weights * pvalues
    wp[np.isinf(weights)] = np.inf  # never rejectable, even at p = 0
    thresholds = alpha * np.arange(1, n + 1) / n
    ranks = np.flatnonzero(satisfied(wp, thresholds))
    k = int(ranks[-1]) + 1 if ranks.size else 0
    rejected = wp <= thresholds[k - 1] if k else np.zeros(n, dtype=bool)
    return TestOutcome(rejected=rejected, threshold_index=k, weighted_pvalues=wp)


def weighted_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> TestOutcome:
    """Step-up rule on the weighted p-values W_i * P_i.

    Rejects the hypotheses at sorted ranks 1..k where k is the largest j
    with the j-th smallest weighted p-value <= j * alpha / N (k = 0 when no
    rank qualifies). Infinite weighted p-values never qualify. Weighted
    p-values are compared raw, without clipping to 1.

    One sort of the weighted p-values gives k directly: it is the last rank
    j whose j-th smallest value is <= thresholds[j - 1], the thresholds
    being ``alpha * arange(1, N + 1) / N``, which stay non-decreasing in
    floating point, as the argument below needs.

    Rejecting ``wp <= k * alpha / N`` is exactly rejecting sorted ranks 1..k:
    were more than k weighted p-values at or below k * alpha / N, rank k + 1
    would qualify too, so exactly k are, and they are the k smallest (ties
    with the k-th fall on the same side of the threshold).
    """
    return _step_up(pvalues, weights, alpha, lambda wp, thresholds: np.sort(wp) <= thresholds)


def brute_force_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> TestOutcome:
    """Independent O(N^2) evaluation of the step-up rule, used as an oracle.

    For each candidate rank j it recounts how many weighted p-values fall
    at or below j * alpha / N, instead of sorting once. Exactly k of them
    fall at or below k * alpha / N, so no tie needs breaking: were there
    more than k, rank k + 1 would qualify too.
    """

    def satisfied(wp: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        counts = (wp[None, :] <= thresholds[:, None]).sum(axis=1)
        return counts >= np.arange(1, wp.size + 1)

    return _step_up(pvalues, weights, alpha, satisfied)


def outcome_metrics(outcome: TestOutcome, is_null: np.ndarray) -> OutcomeMetrics:
    """False discovery proportion and power of a rejection set."""
    is_null = _truth(is_null, outcome.rejected.size)
    r = int(outcome.rejected.sum())
    v = int((outcome.rejected & is_null).sum())
    n_false_nulls = int((~is_null).sum())
    fdp = v / max(r, 1)
    power = (r - v) / n_false_nulls if n_false_nulls else 0.0
    return OutcomeMetrics(fdp=fdp, power=power)

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
    rank qualifies). Infinite weighted p-values never qualify. Weighted
    p-values are compared raw, without clipping to 1.

    No sort is needed, only counts. For each hypothesis, ceil(wp * N / alpha)
    guesses the first rank j whose threshold j * alpha / N it meets; exact
    ``<=`` comparisons against the thresholds then move each guess until it
    is exact. The j-th smallest weighted p-value is <= j * alpha / N exactly
    when at least j weighted p-values are, and that count is the cumulative
    sum of the first ranks, so k is the last rank j where the sum reaches j.

    Rejecting ``wp <= k * alpha / N`` is exactly rejecting sorted ranks 1..k:
    were more than k weighted p-values at or below k * alpha / N, rank k + 1
    would qualify too, so exactly k are, and they are the k smallest (ties
    with the k-th fall on the same side of the threshold).
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
    thresholds = alpha * np.arange(1, n + 1) / n
    # first[i] = j - 1 for the first rank j with wp[i] <= thresholds[j - 1],
    # or n if none; it is exact once bounds[first] < wp <= bounds[first + 1]
    bounds = np.concatenate(([-np.inf], thresholds, [np.inf]))
    with np.errstate(over="ignore"):
        first = np.clip(np.ceil(wp * (n / alpha)) - 1.0, 0, n).astype(np.intp)
    while True:
        up = wp > bounds[first + 1]
        down = wp <= bounds[first]
        if not (up.any() or down.any()):
            break
        first += up
        first -= down
    at_or_below = np.cumsum(np.bincount(first, minlength=n + 1)[:n])
    satisfied = np.flatnonzero(at_or_below >= np.arange(1, n + 1))
    k = int(satisfied[-1]) + 1 if satisfied.size else 0
    return TestOutcome(rejected=first < k, threshold_index=k, alpha=alpha)


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

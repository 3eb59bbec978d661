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
    """Raise ValueError unless ``values`` is a vector of one entry per hypothesis."""
    if values.ndim != 1:
        raise ValueError(f"length mismatch: {what} must be a vector of {n}, got shape {values.shape}")
    if values.size != n:
        raise ValueError(f"length mismatch: {values.size} {what} for {n} hypotheses")


def _check_level(name: str, value: float) -> None:
    """Raise ValueError unless the level (alpha, lambda) lies in (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _truth(is_null, n: int | None = None) -> np.ndarray:
    """Truth labels as a bool vector of n labels (as many as given if n is None), each a bool or 0 or 1."""
    is_null = np.asarray(is_null)
    _check_length(is_null, is_null.size if n is None else n, "truth labels")
    if is_null.dtype != bool and not np.all((is_null == 0) | (is_null == 1)):
        raise ValueError("truth labels must be 0 or 1")
    return is_null.astype(bool, copy=False)


def _pvalues(pvalues, n: int) -> np.ndarray:
    """P-values as a float vector of one value in [0, 1] per hypothesis."""
    pvalues = np.asarray(pvalues, dtype=float)
    _check_length(pvalues, n, "p-values")
    _check_inputs(pvalues)
    return pvalues


def _step_up(pvalues, weights, alpha: float, satisfied) -> TestOutcome:
    """The step-up rule, given how to find its ranks: satisfied(wp, alpha,
    n) marks the ranks j (from 0) at which rank j + 1 qualifies, and k is
    the last of them plus one (0 when none is marked). The checks run in
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
    ranks = np.flatnonzero(satisfied(wp, alpha, n))
    k = int(ranks[-1]) + 1 if ranks.size else 0
    rejected = wp <= alpha * k / n if k else np.zeros(n, dtype=bool)
    return TestOutcome(rejected=rejected, threshold_index=k, weighted_pvalues=wp)


def _sorted_candidates(wp: np.ndarray, alpha: float, n: int) -> np.ndarray:
    """The ranks of :func:`weighted_bh`: the candidates, the weighted
    p-values at or below alpha * N / N, sorted and compared with the
    thresholds of their own ranks. At N = 0 there is nothing to sort, and
    the bound's divisor becomes 1 only so that it does not raise."""
    candidates = np.sort(wp[wp <= alpha * n / max(n, 1)])
    return candidates <= alpha * np.arange(1, candidates.size + 1) / n


def weighted_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> TestOutcome:
    """Step-up rule on the weighted p-values W_i * P_i.

    Rejects the hypotheses at sorted ranks 1..k where k is the largest j
    with the j-th smallest weighted p-value <= j * alpha / N (k = 0 when no
    rank qualifies). Infinite weighted p-values never qualify. Weighted
    p-values are compared raw, without clipping to 1.

    Only the m candidates, the weighted p-values <= alpha * N / N (the last
    threshold as computed, which need not equal alpha), are sorted, and the
    j-th smallest of them is compared with ``alpha * j / N``. They are the
    m smallest of all, so their ranks are the full ranks 1..m; and no rank
    j > m qualifies, because the thresholds ``alpha * j / N`` stay
    non-decreasing in floating point: the j-th smallest weighted p-value
    is then > alpha * N / N >= alpha * j / N. So k is the last candidate
    rank that qualifies.

    Rejecting ``wp <= alpha * k / N`` is exactly rejecting sorted ranks 1..k:
    were more than k weighted p-values at or below alpha * k / N, rank k + 1
    would qualify too, so exactly k are, and they are the k smallest (ties
    with the k-th fall on the same side of the threshold).
    """
    return _step_up(pvalues, weights, alpha, _sorted_candidates)


def brute_force_bh(pvalues: np.ndarray, weights: np.ndarray, alpha: float) -> TestOutcome:
    """Independent O(N^2) evaluation of the step-up rule, used as an oracle.

    For each rank j it builds its own threshold j * alpha / N and recounts
    how many weighted p-values fall at or below it, instead of sorting
    once. Exactly k of them fall at or below k * alpha / N, so no tie needs
    breaking: were there more than k, rank k + 1 would qualify too.
    """

    def satisfied(wp: np.ndarray, alpha: float, n: int) -> np.ndarray:
        thresholds = alpha * np.arange(1, n + 1) / n
        counts = (wp[None, :] <= thresholds[:, None]).sum(axis=1)
        return counts >= np.arange(1, n + 1)

    return _step_up(pvalues, weights, alpha, satisfied)


def outcome_metrics(outcome: TestOutcome, is_null: np.ndarray) -> OutcomeMetrics:
    """False discovery proportion and power of a rejection set."""
    is_null = _truth(is_null, outcome.rejected.size)
    r = int(np.count_nonzero(outcome.rejected))
    v = int(np.count_nonzero(outcome.rejected & is_null))
    n_false_nulls = is_null.size - int(np.count_nonzero(is_null))
    fdp = v / max(r, 1)
    power = (r - v) / n_false_nulls if n_false_nulls else 0.0
    return OutcomeMetrics(fdp=fdp, power=power)

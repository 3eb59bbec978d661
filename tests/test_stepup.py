import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupedbh.stepup import brute_force_bh, outcome_metrics, weighted_bh


def test_hand_trace():
    # 0.01 <= 1*0.15/3 and 0.02 <= 2*0.15/3, but 0.9 > 0.15
    out = weighted_bh(np.array([0.01, 0.02, 0.9]), np.ones(3), 0.15)
    assert out.threshold_index == 2
    assert out.rejected.tolist() == [True, True, False]


def test_no_rejections():
    out = weighted_bh(np.array([0.9, 0.8, 0.7]), np.ones(3), 0.05)
    assert out.threshold_index == 0
    assert not out.rejected.any()


def test_step_up_looks_past_gaps():
    # rank 2 fails (0.06 > 2*0.1/4) but rank 3 succeeds (0.07 <= 3*0.1/4),
    # so the step-up rule rejects the first three anyway
    p = np.array([0.01, 0.06, 0.07, 0.9])
    out = weighted_bh(p, np.ones(4), 0.1)
    assert out.threshold_index == 3
    assert out.rejected.tolist() == [True, True, True, False]


def test_constant_weight_matches_rescaled_bh():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(3, 100))
        p = rng.uniform(size=n)
        c = rng.uniform(0.2, 3.0)
        a = weighted_bh(p, np.full(n, c), 0.05)
        b = weighted_bh(p, np.ones(n), min(0.05 / c, 0.999))
        assert (a.rejected == b.rejected).all()


def test_infinite_weight_never_rejected_even_at_zero_p():
    p = np.array([0.0, 0.001])
    w = np.array([np.inf, 1.0])
    out = weighted_bh(p, w, 0.1)
    assert out.rejected.tolist() == [False, True]


def test_zero_weight_always_rejected_when_anything_is():
    p = np.array([0.99, 0.01])
    w = np.array([0.0, 1.0])
    out = weighted_bh(p, w, 0.1)
    assert out.rejected.tolist() == [True, True]


def test_ties_resolve_by_original_index():
    p = np.array([0.5, 0.5, 0.5, 0.5])
    # only two ranks fit under the staircase at alpha chosen so that
    # 0.05 <= 2*0.1/4 but not three; lower the first two via weights
    w = np.array([0.1, 0.1, 0.1, 10.0])
    out = weighted_bh(p, w, 0.1)
    assert out.threshold_index == 3
    assert out.rejected.tolist() == [True, True, True, False]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="length"):
        weighted_bh(np.array([0.1, 0.2]), np.array([1.0]), 0.05)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
def test_alpha_range(alpha):
    with pytest.raises(ValueError, match="alpha"):
        weighted_bh(np.array([0.1]), np.array([1.0]), alpha)


@st.composite
def weighted_instances(draw):
    """(p, w, alpha) in one of three shapes, N from 0 to a few thousand:
    drawn p-values under random finite weights; weighted p-values exactly on
    a threshold alpha * j / N or one ulp either side of it; and p-values
    under a mix of finite, zero and infinite weights."""
    alpha = draw(st.sampled_from([0.05, 0.1, 1 / 3]) | st.floats(0.01, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["drawn", "on_thresholds", "inf_and_zero"]))
    if shape == "drawn":
        p = np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=60)), dtype=float)
        return p, rng.uniform(0.05, 5.0, size=p.size), alpha
    n = draw(st.integers(0, 3000))
    if shape == "on_thresholds":
        # a power-of-two weight scales exactly, so W_i * P_i hits the threshold
        wp = alpha * rng.integers(1, n + 1, size=n) / n if n else np.empty(0)
        nudge = rng.integers(-1, 2, size=n)
        wp = np.where(nudge == 0, wp, np.nextafter(wp, 2.0 * nudge))
        w = rng.choice([0.5, 1.0, 2.0, 4.0], size=n)
        return np.minimum(wp / w, 1.0), w, alpha
    p = rng.uniform(size=n) ** 4
    p[rng.uniform(size=n) < 0.05] = 0.0
    return p, rng.choice([0.0, 0.5, 1.0, 3.0, np.inf], size=n), alpha


@settings(max_examples=200, deadline=None)
@given(weighted_instances())
def test_matches_brute_force(instance):
    p, w, alpha = instance
    a = weighted_bh(p, w, alpha)
    b = brute_force_bh(p, w, alpha)
    assert a.threshold_index == b.threshold_index
    assert (a.rejected == b.rejected).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40), st.integers(0, 10**6))
def test_permutation_equivariance(pvals, seed):
    p = np.array(pvals)
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 3.0, size=p.size)
    perm = rng.permutation(p.size)
    base = weighted_bh(p, w, 0.1)
    shuffled = weighted_bh(p[perm], w[perm], 0.1)
    assert (shuffled.rejected == base.rejected[perm]).all()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), st.integers(0, 10**6))
def test_rejections_monotone_in_alpha(pvals, seed):
    p = np.array(pvals)
    w = np.random.default_rng(seed).uniform(0.1, 3.0, size=p.size)
    lo = weighted_bh(p, w, 0.02)
    hi = weighted_bh(p, w, 0.2)
    assert (hi.rejected | ~lo.rejected).all()  # lo's rejections nest in hi's


class TestOutcomeMetrics:
    def test_counting(self):
        rejected = np.array([1, 1, 1, 1, 0, 0], dtype=bool)
        is_null = np.array([1, 0, 0, 0, 1, 1], dtype=bool)  # V=1, R=4
        out = weighted_bh(np.where(rejected, 0.001, 0.9), np.ones(6), 0.05)
        assert (out.rejected == rejected).all()
        m = outcome_metrics(out, is_null)
        assert m.fdp == pytest.approx(0.25)
        assert m.power == pytest.approx(1.0)  # all three false nulls caught

    def test_zero_rejections_gives_zero_fdp(self):
        out = weighted_bh(np.array([0.9, 0.9]), np.ones(2), 0.05)
        m = outcome_metrics(out, np.array([True, False]))
        assert m.fdp == 0.0

    def test_all_null_truth_gives_zero_power(self):
        out = weighted_bh(np.array([0.001, 0.9]), np.ones(2), 0.1)
        m = outcome_metrics(out, np.array([True, True]))
        assert m.power == 0.0
        assert m.fdp == 1.0

    def test_length_mismatch(self):
        out = weighted_bh(np.array([0.5]), np.ones(1), 0.05)
        with pytest.raises(ValueError, match="length"):
            outcome_metrics(out, np.array([True, False]))


@pytest.mark.parametrize("rule", [weighted_bh, brute_force_bh])
@pytest.mark.parametrize("p", [[-1.0, 0.5, 0.9], [0.1, 1.5, 0.2], [0.1, np.nan, 0.2]])
def test_pvalues_outside_unit_interval_rejected(rule, p):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        rule(np.array(p), np.ones(3), 0.05)


@pytest.mark.parametrize("rule", [weighted_bh, brute_force_bh])
@pytest.mark.parametrize("w", [[1.0, -0.5, 1.0], [1.0, np.nan, 1.0]])
def test_negative_or_nan_weights_rejected(rule, w):
    with pytest.raises(ValueError, match="weights"):
        rule(np.array([0.1, 0.2, 0.3]), np.array(w), 0.05)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.01, 0.02, 0.05, 0.5]), min_size=1, max_size=30),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf]), min_size=30, max_size=30),
    st.sampled_from([0.05, 0.1, 0.2, 1 / 3]),
)
def test_matches_brute_force_under_heavy_ties(pvals, weights, alpha):
    # brute_force_bh rejects every wp <= k alpha / N with no tie-break
    p = np.array(pvals)
    w = np.array(weights[: p.size])
    a = weighted_bh(p, w, alpha)
    b = brute_force_bh(p, w, alpha)
    assert a.threshold_index == b.threshold_index == b.n_rejected
    assert (a.rejected == b.rejected).all()

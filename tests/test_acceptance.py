"""Acceptance gate: nine numbered criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The Monte Carlo criteria (5-7) take a few minutes combined.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from groupedbh.classification import ClassificationForest, flat_tree
from groupedbh.cli import _eeg_shaped_forest
from groupedbh.identities import (
    check_condition1,
    check_loo_bound,
    check_monotone,
    check_reductions,
    random_forest,
    random_tree,
    random_truth,
)
from groupedbh.simulate import (
    SimulationPlan,
    generate_statistics,
    generate_theta,
    pvalues_from_statistics,
    run_study,
    _blocks,
)
from groupedbh.stepup import brute_force_bh, weighted_bh
from groupedbh.weights import (
    da_flat_weights,
    da_gen_weights,
    da_hier_weights,
    da_sway_weights,
    oracle_flat_weights,
    oracle_gen_weights,
    oracle_hier_effects,
    oracle_hier_weights,
    oracle_overlap_oneway_weights,
    oracle_sway_weights,
)

ALPHA = 0.05
LAM = 0.5


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def independence_study():
    """The full density sweep under independence, shared by criteria 5-6."""
    plan = SimulationPlan()
    return run_study(plan)


def test_criterion_1_condition1_exactness():
    rng = np.random.default_rng(101)
    configs = 1000
    worst = 0.0

    def record(weights, truth):
        nonlocal worst
        report = check_condition1(weights, truth)
        worst = max(worst, abs(report.value - report.target) / report.target)
        return report.passed

    ok = True
    for _ in range(configs):
        # flat
        truth = random_truth(rng, flat_tree(int(rng.integers(10, 501))))
        ok &= record(oracle_flat_weights(truth), truth)
        # overlapping one-way with arbitrary positive effects
        tree = random_tree(rng, depth=1)
        truth = random_truth(rng, tree)
        groups = [tree.members(k) for k in tree.leaves]
        effects = rng.uniform(0.2, 3.0, size=len(groups))
        ok &= record(oracle_overlap_oneway_weights(tree.n, groups, effects, truth), truth)
        # hierarchical with overlap, depth up to 3
        tree = random_tree(rng)
        truth = random_truth(rng, tree)
        ok &= record(oracle_hier_weights(tree, truth), truth)
        # S-way
        forest = random_forest(rng, depth_one=True)
        truth = random_truth(rng, forest)
        ok &= record(oracle_sway_weights(forest, truth), truth)
        # generalized
        forest = random_forest(rng)
        truth = random_truth(rng, forest)
        ok &= record(oracle_gen_weights(forest, truth), truth)

    # the synthetic EEG-shaped geometry (S=2 overlapping two-level trees)
    eeg = _eeg_shaped_forest(times_per_electrode=8)
    for _ in range(10):
        truth = random_truth(rng, eeg)
        ok &= record(oracle_gen_weights(eeg, truth), truth)

    verdict(
        1,
        f"Condition 1 exact to 1e-9*N on {configs} configs x 5 variants "
        f"+ EEG-shaped geometry (worst rel err {worst:.2e})",
        ok,
    )


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(202)
    reports = check_reductions(rng, trials=100)
    ok = all(r.passed for r in reports)

    # frozen hand case 1: two disjoint groups (4 with pi0=1/2, 6 with
    # pi0=2/3) over N=10 give effects (0.4, 0.8)
    from groupedbh.classification import tree_from_levels

    tree = tree_from_levels(10, [[((1,), np.arange(0, 4)), ((2,), np.arange(4, 10))]])
    truth = np.array([1, 1, 0, 0, 1, 1, 1, 1, 0, 0], dtype=bool)
    eff = oracle_hier_effects(tree, truth)
    ok &= abs(eff[(1,)] - 0.4) < 1e-12 and abs(eff[(2,)] - 0.8) < 1e-12

    # frozen hand case 2: 2x3 grid, nulls at (1,3), (2,1), (2,2) give null
    # weights (1/3, 2/3, 2/3)
    from groupedbh.classification import forest_from_grid

    forest = forest_from_grid((2, 3))
    truth = np.zeros(6, dtype=bool)
    truth[[2, 3, 4]] = True
    w = oracle_sway_weights(forest, truth)
    ok &= abs(w[2] - 1.0 / 3.0) < 1e-12
    ok &= abs(w[3] - 2.0 / 3.0) < 1e-12 and abs(w[4] - 2.0 / 3.0) < 1e-12

    verdict(
        2,
        "reductions (flat exact, one-way closed form, recursion equivalence, "
        "single-tree generalized) plus hand values (0.4, 0.8) and (1/3, 2/3, 2/3)",
        ok,
    )


def test_criterion_3_stepup_oracle_equivalence():
    rng = np.random.default_rng(303)
    instances = 10_000
    mismatches = 0
    for t in range(instances):
        if t < 20:
            n = 2000  # pin some instances at the size cap
        else:
            n = int(math.exp(rng.uniform(math.log(5), math.log(2000))))
        p = rng.uniform(size=n)
        w = rng.uniform(0.05, 5.0, size=n)
        if rng.uniform() < 0.1:
            p[rng.integers(n)] = 0.0  # exercise exact-zero ties
        alpha = float(rng.uniform(0.01, 0.3))
        a = weighted_bh(p, w, alpha)
        b = brute_force_bh(p, w, alpha)
        if a.threshold_index != b.threshold_index or (a.rejected != b.rejected).any():
            mismatches += 1
    verdict(
        3,
        f"weighted_bh equals O(N^2) brute force on {instances} instances, "
        f"N <= 2000 ({mismatches} mismatches)",
        mismatches == 0,
    )


def test_criterion_4_loo_bound_and_monotonicity():
    rng = np.random.default_rng(404)
    configs = 500
    loo_ok = True
    worst_excess = 0.0

    def variants(n):
        tree = random_tree(rng, n=n)
        forest1 = random_forest(rng, n=n, depth_one=True)
        forest = random_forest(rng, n=n)
        return {
            "flat": lambda p: da_flat_weights(p, LAM),
            "hier": lambda p: da_hier_weights(tree, p, LAM),
            "sway": lambda p: da_sway_weights(forest1, p, LAM),
            "gen": lambda p: da_gen_weights(forest, p, LAM),
        }, tree

    for _ in range(configs):
        n = int(rng.integers(20, 120))
        fns, tree = variants(n)
        truth = random_truth(rng, tree)
        p = rng.uniform(size=n)
        for fn in fns.values():
            report = check_loo_bound(fn, p, truth)
            worst_excess = max(worst_excess, report.value)
            loo_ok &= report.passed

    # 10^4 upward perturbations split across the four adaptive variants
    violations = 0
    per_variant = 2500
    trials_per_config = 25
    for _ in range(per_variant // trials_per_config):
        n = int(rng.integers(20, 120))
        fns, _ = variants(n)
        p = rng.uniform(size=n)
        for fn in fns.values():
            report = check_monotone(fn, p, rng, trials=trials_per_config)
            violations += int(report.value)

    # and on the EEG-shaped geometry
    eeg = _eeg_shaped_forest(times_per_electrode=4)
    p = rng.uniform(size=eeg.n)
    report = check_monotone(lambda q: da_gen_weights(eeg, q, LAM), p, rng, trials=50)
    violations += int(report.value)

    verdict(
        4,
        f"leave-one-out bound on {configs} configs x 4 variants "
        f"(worst excess {worst_excess:.2e}) and 10^4 monotonicity perturbations "
        f"({violations} violations)",
        loo_ok and violations == 0,
    )


def test_criterion_5_fdr_control_independence(independence_study):
    summary = independence_study
    ok = True
    worst = -math.inf
    for row in summary.rows:
        margin = row.mean_fdp - (ALPHA + 2.0 * row.se_fdp)
        worst = max(worst, margin)
        if margin > 0:
            ok = False
    verdict(
        5,
        "estimated FDR <= alpha + 2 SE for all four methods at every density "
        f"point, N=5000, 500 replicates (worst margin {worst:+.4f})",
        ok,
    )


def test_criterion_6_power_ordering(independence_study):
    summary = independence_study
    plan = summary.plan
    ok = True
    worst = -math.inf
    for density in plan.one_minus_pi0_grid:
        if density < 0.1:
            continue
        for better, worse in (("HeirGBH", "BH"), ("DAHeirGBH", "AdaptiveBH")):
            pb = summary.replicate_records[(better, density)][1]
            pw = summary.replicate_records[(worse, density)][1]
            diff = pb - pw  # paired per replicate
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            deficit = -(diff.mean() + se)  # > 0 means ordering violated by > 1 SE
            worst = max(worst, deficit)
            if deficit > 0:
                ok = False
    verdict(
        6,
        "grouped methods at least as powerful as their flat counterparts "
        f"(within 1 MC SE) at every density >= 0.1 (worst deficit {worst:+.4f})",
        ok,
    )


def test_criterion_7_fdr_control_dependence():
    plan = SimulationPlan(rho_l1=0.3, rho_l2=0.4, methods=("HeirGBH",))
    summary = run_study(plan)
    ok = True
    worst = -math.inf
    for row in summary.rows:
        margin = row.mean_fdp - (ALPHA + 2.0 * row.se_fdp)
        worst = max(worst, margin)
        if margin > 0:
            ok = False
    verdict(
        7,
        "oracle grouped FDR <= alpha + 2 SE under rho_L1=0.3, rho_L2=0.4 "
        f"(worst margin {worst:+.4f})",
        ok,
    )


def test_criterion_8_generator_calibration():
    plan = SimulationPlan()
    ok = True

    # variance coefficients sum to 1 exactly (checked in exact rationals,
    # since the identity is algebraic and binary floats misrepresent 0.3)
    from fractions import Fraction

    for r1, r2 in ((0, 0), (Fraction(3, 10), Fraction(2, 5)), (Fraction(9, 10), Fraction(1, 10))):
        total = (1 - r1) * (1 - r2) + (1 - r1) * r2 + r1 * (1 - r2) + r1 * r2
        ok &= total == 1

    # empirical block signal densities vs their closed forms, 10^4 draws
    rng = np.random.default_rng(808)
    draws = 10_000
    density = 0.4
    top, mid, bottom = _blocks(plan.m)
    frac_mid = np.empty(draws)
    frac_out = np.empty(draws)
    for d in range(draws):
        theta = generate_theta(plan, density, rng)
        frac_mid[d] = theta[mid].mean()
        frac_out[d] = np.concatenate([theta[top], theta[bottom]]).mean()
    for frac, expect in (
        (frac_mid, density * (1 - plan.pi1_star) * (1 - plan.pi2)),
        (frac_out, density * (1 - plan.pi1) * (1 - plan.pi2)),
    ):
        se = frac.std(ddof=1) / math.sqrt(draws)
        ok &= abs(frac.mean() - expect) <= 3.0 * se

    # uniformity of null p-values under the global null, pooled replicates
    pooled = []
    for d in range(20):
        theta = np.zeros((plan.m, plan.n))
        x = generate_statistics(theta, 0.0, 0.0, plan.mu, np.random.default_rng(d))
        pooled.append(pvalues_from_statistics(x))
    ks = kstest(np.concatenate(pooled), "uniform")
    ok &= ks.pvalue > 0.01

    verdict(
        8,
        "block densities within 3 MC SE, variance coefficients sum to 1, "
        f"null p-values uniform (KS p={ks.pvalue:.3f})",
        ok,
    )


def test_criterion_9_flat_adaptive_worked_value():
    p = np.concatenate([np.full(19, 0.3), np.full(6, 0.8)])
    w = da_flat_weights(p, 0.5)
    ok = (w == 0.56).all()
    verdict(9, "flat adaptive weight at N=25, lambda=0.5, R=19 equals 0.56 exactly", ok)

import math
import os
import re

import numpy as np
import pytest

from groupedbh import _pool, simulate
from groupedbh.classification import validate_tree
from groupedbh.simulate import (
    DEFAULT_GRID,
    SimulationPlan,
    _ALIASES,
    _blocks,
    generate_statistics,
    generate_theta,
    pvalues_from_statistics,
    replicate_rng,
    run_study,
    simulation_tree,
    write_summary_csv,
)
from groupedbh.stepup import outcome_metrics, weighted_bh
from groupedbh.weights import _method_weights


def test_default_grid():
    assert len(DEFAULT_GRID) == 11
    assert DEFAULT_GRID[0] == 0.0 and DEFAULT_GRID[-1] == 1.0


def test_simulation_tree_defaults_to_the_plan_layout():
    # gen-spec --layout simulation builds simulation_tree() with no arguments
    default, planned = simulation_tree(), simulation_tree(SimulationPlan.m, SimulationPlan.n)
    assert (default.n, default.paths) == (planned.n, planned.paths)
    for name in ("parent", "indptr", "indices"):
        assert np.array_equal(getattr(default, name), getattr(planned, name)), name


def test_blocks_partition_rows():
    top, mid, bottom = _blocks(50)
    assert (top.start, top.stop) == (0, 25)
    assert (mid.start, mid.stop) == (25, 30)
    assert (bottom.start, bottom.stop) == (30, 50)


def test_simulation_tree_geometry():
    tree = simulation_tree()
    assert tree.n == 5000
    assert validate_tree(tree) == []
    assert tree.levels[0] == slice(1, 3)
    g1, g2 = tree.members(1), tree.members(2)
    assert g1.size == 3000
    assert g2.size == 2500
    assert np.intersect1d(g1, g2).size == 500
    leaves = tree.leaves
    assert len(leaves) == 55  # 30 under group 1, 25 under group 2
    assert all(tree.members(k).size == 100 for k in leaves)
    # the shared rows appear as subgroups of both level-1 groups
    shared = [tree.paths[k] for k in leaves if 2500 in tree.members(k)]
    assert shared == [(1, 26), (2, 1)]


class TestPlanValidation:
    def test_default_plan_valid(self):
        SimulationPlan()

    def test_bad_fields_reported(self):
        with pytest.raises(ValueError) as raised:
            SimulationPlan(pi1=1.5, rho_l1=1.0, lam=0.0, alpha=0.0, replicates=0)
        assert len(str(raised.value).split("; ")) == 5

    def test_unknown_method(self):
        with pytest.raises(ValueError, match=r"^unknown methods: \['XYZ'\] \(known: BH, AdaptiveBH, HeirGBH, DAHeirGBH\)$"):
            SimulationPlan(methods=("XYZ",))

    def test_negative_seed(self):
        # SeedSequence would reject it only once the first replicate runs
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SimulationPlan(seed=-1)

    @pytest.mark.parametrize("field, value", [("seed", 1.5), ("seed", True), ("replicates", 2.5), ("replicates", True)])
    def test_seed_and_replicates_must_be_integers(self, field, value):
        # True ran as 1, and 1.5 or 2.5 passed the plan to fail in numpy with a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer in int64 range, got {re.escape(str(value))}$"):
            SimulationPlan(**{field: value})

    def test_count_and_seed_problems_join_the_others(self):
        with pytest.raises(ValueError) as raised:
            SimulationPlan(alpha=0.0, replicates=2.5, seed=-1)
        assert str(raised.value).split("; ") == [
            "alpha must lie in (0, 1), got 0.0",
            "replicates must be an integer in int64 range, got 2.5",
            "seed must be >= 0, got -1",
        ]

    @pytest.mark.parametrize(
        "fields, message",
        [
            # TypeError from numpy once a replicate ran
            ({"m": 2.5}, "m must be an integer in int64 range, got 2.5"),
            # "n must be >= 0, got -100": the product, under the wrong name
            ({"m": -1}, "m must be >= 2, got -1"),
            # ran as m = 1, whose first row group is empty
            ({"m": True}, "m must be an integer in int64 range, got True"),
            ({"m": 1}, "m must be >= 2, got 1"),
            # ran a study of no hypotheses
            ({"n": 0}, "n must be >= 1, got 0"),
            ({"n": 2.0}, "n must be an integer in int64 range, got 2.0"),
            # failed only once a replicate ran, as p-values outside [0, 1]
            ({"mu": math.nan}, "mu must be finite, got nan"),
            ({"mu": -math.inf}, "mu must be finite, got -inf"),
            # ran a study of no methods and wrote a header-only CSV
            ({"methods": ()}, "methods must not be empty"),
        ],
    )
    def test_layout_and_signal_must_be_sound(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationPlan(**fields)

    def test_layout_problems_join_the_others(self):
        with pytest.raises(ValueError) as raised:
            SimulationPlan(m=-1, n=True, mu=math.nan, alpha=0.0)
        assert str(raised.value).split("; ") == [
            "alpha must lie in (0, 1), got 0.0",
            "m must be >= 2, got -1",
            "n must be an integer in int64 range, got True",
            "mu must be finite, got nan",
        ]

    def test_the_smallest_layout_runs(self):
        plan = SimulationPlan(m=2, n=1, replicates=2, one_minus_pi0_grid=(0.5,))
        assert [row.method for row in run_study(plan).rows] == list(plan.methods)

    def test_pi1_star_above_pi1(self):
        with pytest.raises(ValueError, match="^pi1_star must not exceed pi1$"):
            SimulationPlan(pi1=0.2, pi1_star=0.3)

    def test_repeated_method(self):
        with pytest.raises(ValueError, match=r"^repeated methods: \['BH', 'HeirGBH'\]$"):
            SimulationPlan(methods=("BH", "HeirGBH", "BH", "HeirGBH", "AdaptiveBH"))

    def test_repeated_density(self):
        with pytest.raises(ValueError, match=r"^repeated densities: \[0.5\]$"):
            SimulationPlan(one_minus_pi0_grid=(0.5, 0.0, 0.5, 1.0))

    def test_run_study_rejects_invalid_plan(self):
        with pytest.raises(ValueError):
            run_study(SimulationPlan(alpha=2.0))

    def test_run_study_rejects_repeated_density(self):
        # a repeated density would give two rows but keep one point's records
        with pytest.raises(ValueError, match="repeated densities"):
            run_study(SimulationPlan(m=10, n=10, one_minus_pi0_grid=(0.5, 0.5), replicates=3, methods=("BH",)))


class TestThetaLayers:
    def test_all_null_when_density_zero(self):
        rng = np.random.default_rng(1)
        t = generate_theta(SimulationPlan(), 0.0, rng)
        assert t.shape == (50, 100)
        assert (t == 0).all()

    def test_all_signal_when_every_layer_fires(self):
        rng = np.random.default_rng(1)
        plan = SimulationPlan(pi1=0.0, pi1_star=0.0, pi2=0.0)
        t = generate_theta(plan, 1.0, rng)
        assert (t == 1).all()

    def test_block_signal_densities(self):
        # signal fraction is (1-pi0)(1-pi1)(1-pi2) off the overlap block
        # and (1-pi0)(1-pi1*)(1-pi2) on it
        plan = SimulationPlan()
        density = 0.4
        draws = 2000
        rng = np.random.default_rng(42)
        top, mid, bottom = _blocks(plan.m)
        frac_mid = np.empty(draws)
        frac_out = np.empty(draws)
        for d in range(draws):
            t = generate_theta(plan, density, rng)
            frac_mid[d] = t[mid].mean()
            frac_out[d] = np.concatenate([t[top], t[bottom]]).mean()
        expect_mid = density * (1 - plan.pi1_star) * (1 - plan.pi2)  # 0.15
        expect_out = density * (1 - plan.pi1) * (1 - plan.pi2)  # 0.10
        for frac, expect in ((frac_mid, expect_mid), (frac_out, expect_out)):
            se = frac.std(ddof=1) / math.sqrt(draws)
            assert abs(frac.mean() - expect) <= 3 * se


class TestStatistics:
    def test_variance_coefficients_sum_to_one(self):
        for r1 in (0.0, 0.3, 0.7):
            for r2 in (0.0, 0.4, 0.9):
                total = (
                    (1 - r1) * (1 - r2) + (1 - r1) * r2 + r1 * (1 - r2) + r1 * r2
                )
                assert total == pytest.approx(1.0, abs=1e-15)

    def test_independent_case_is_standard_normal(self):
        rng = np.random.default_rng(3)
        theta = np.zeros((40, 50))
        x = generate_statistics(theta, 0.0, 0.0, 3.0, rng)
        assert abs(x.mean()) < 4.0 / math.sqrt(x.size)
        assert abs(x.std() - 1.0) < 0.05

    def test_mean_shift_applies_to_signals(self):
        rng = np.random.default_rng(4)
        theta = np.ones((50, 50))
        x = generate_statistics(theta, 0.0, 0.0, 3.0, rng)
        assert abs(x.mean() - 3.0) < 0.05

    def test_within_row_and_column_correlation(self):
        # same row: rho_l2; same column: rho_l1; neither: rho_l1 * rho_l2
        rho1, rho2 = 0.3, 0.4
        rng = np.random.default_rng(5)
        draws = 30000
        cells = np.empty((draws, 4))  # (0,0), (0,1), (1,0), (1,1)
        theta = np.zeros((2, 2))
        for d in range(draws):
            x = generate_statistics(theta, rho1, rho2, 3.0, rng)
            cells[d] = x.reshape(-1)
        corr = np.corrcoef(cells.T)
        se = 1.0 / math.sqrt(draws)
        assert abs(corr[0, 1] - rho2) < 4 * se  # same row
        assert abs(corr[0, 2] - rho1) < 4 * se  # same column
        assert abs(corr[0, 3] - rho1 * rho2) < 4 * se


class TestPvalues:
    def test_zero_statistic_gives_half(self):
        assert pvalues_from_statistics(np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_upper_tail_quantile(self):
        p = pvalues_from_statistics(np.array([[1.6449]]))[0]
        assert p == pytest.approx(0.05, abs=1e-4)

    def test_against_erfc(self):
        # independent evaluation through the complementary error function
        xs = np.linspace(-8.0, 8.0, 41)
        p = pvalues_from_statistics(xs.reshape(1, -1))
        expected = np.array([0.5 * math.erfc(x / math.sqrt(2.0)) for x in xs])
        assert np.abs(p - expected).max() < 1e-14

    def test_bit_identical_to_norm_sf(self):
        from scipy.stats import norm

        xs = np.concatenate([np.linspace(-40.0, 40.0, 200_001), [-np.inf, np.inf, -0.0]])
        assert np.array_equal(pvalues_from_statistics(xs), norm.sf(xs))

    def test_flattens_row_major(self):
        x = np.array([[0.0, 10.0], [-10.0, 0.0]])
        p = pvalues_from_statistics(x)
        assert p[0] == pytest.approx(0.5)
        assert p[1] < 1e-20
        assert p[2] == pytest.approx(1.0, abs=1e-12)


class TestRunStudy:
    TINY = SimulationPlan(
        m=10, n=10, one_minus_pi0_grid=(0.0, 0.5), replicates=5, seed=99
    )

    def test_row_bookkeeping(self):
        summary = run_study(self.TINY)
        assert len(summary.rows) == 2 * len(self.TINY.methods)
        for row in summary.rows:
            assert 0.0 <= row.mean_fdp <= 1.0
            assert 0.0 <= row.mean_power <= 1.0

    def test_deterministic_given_seed(self):
        a = run_study(self.TINY)
        b = run_study(self.TINY)
        for ra, rb in zip(a.rows, b.rows):
            assert ra == rb

    def test_replicate_records_kept_on_request(self):
        # records are always kept: one (fdp, power) pair per method and density
        summary = run_study(self.TINY)
        assert len(summary.replicate_records) == len(summary.rows)
        for row in summary.rows:
            fdp, power = summary.replicate_records[(row.method, row.one_minus_pi0)]
            assert fdp.shape == power.shape == (5,)
            assert fdp.mean() == row.mean_fdp and power.mean() == row.mean_power
            assert fdp.std(ddof=1) / math.sqrt(5) == row.se_fdp
            assert power.std(ddof=1) / math.sqrt(5) == row.se_power

    def test_one_replicate_has_zero_standard_error(self):
        summary = run_study(SimulationPlan(m=10, n=10, one_minus_pi0_grid=(0.5,), replicates=1))
        assert {(row.se_fdp, row.se_power) for row in summary.rows} == {(0.0, 0.0)}

    def test_replicate_streams_independent_of_order(self):
        # the rng for (point, replicate) does not depend on what ran before
        a = replicate_rng(7, 1, 3).standard_normal(4)
        replicate_rng(7, 0, 0).standard_normal(100)
        b = replicate_rng(7, 1, 3).standard_normal(4)
        assert (a == b).all()

    def test_csv_round_trip(self, tmp_path):
        summary = run_study(self.TINY)
        path = tmp_path / "out.csv"
        write_summary_csv(summary, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("method,one_minus_pi0,mean_fdp")
        assert len(lines) == 1 + len(summary.rows)
        first = lines[1].split(",")
        assert first[0] == "BH"
        assert float(first[1]) == 0.0


class TestReplicateBlocks:
    # three blocks per grid point, the last one short
    PLAN = SimulationPlan(m=10, n=10, one_minus_pi0_grid=(0.0, 0.5, 1.0), replicates=45, seed=3)

    @staticmethod
    def study(monkeypatch, cpus):
        monkeypatch.setattr(_pool, "cpu_count", lambda: cpus)
        return run_study(TestReplicateBlocks.PLAN)

    def test_same_results_on_one_cpu_and_on_all(self, monkeypatch):
        serial = self.study(monkeypatch, 1)
        parallel = self.study(monkeypatch, max(2, len(os.sched_getaffinity(0))))
        assert serial.rows == parallel.rows
        assert serial.replicate_records.keys() == parallel.replicate_records.keys()
        for key, arrays in serial.replicate_records.items():
            assert all(map(np.array_equal, arrays, parallel.replicate_records[key]))

    def test_records_match_one_replicate_at_a_time(self, monkeypatch):
        plan = self.PLAN
        summary = self.study(monkeypatch, 2)
        tree = simulation_tree(plan.m, plan.n)
        for d, density in enumerate(plan.one_minus_pi0_grid):
            for r in (0, 19, 20, 44):
                rng = replicate_rng(plan.seed, d, r)
                theta = generate_theta(plan, density, rng)
                x = generate_statistics(theta, plan.rho_l1, plan.rho_l2, plan.mu, rng)
                pvalues = pvalues_from_statistics(x)
                is_null = theta.reshape(-1) == 0
                for meth in plan.methods:
                    w = _method_weights(*_ALIASES[meth], tree, pvalues, is_null, plan.lam)
                    metrics = outcome_metrics(weighted_bh(pvalues, w, plan.alpha), is_null)
                    fdp, power = summary.replicate_records[(meth, density)]
                    assert (fdp[r], power[r]) == (metrics.fdp, metrics.power)

    def test_worker_error_reaches_the_caller(self, monkeypatch, no_child_left):
        parent = os.getpid()
        draw = simulate.generate_statistics

        def fail_in_worker(*args):
            if os.getpid() != parent:
                raise ZeroDivisionError("raised in a worker")
            return draw(*args)

        monkeypatch.setattr(simulate, "generate_statistics", fail_in_worker)
        with pytest.raises(ZeroDivisionError, match="raised in a worker"):
            self.study(monkeypatch, 2)
        no_child_left()

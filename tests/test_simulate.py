import math

import numpy as np
import pytest

from groupedbh.classification import validate_tree
from groupedbh.simulate import (
    DEFAULT_GRID,
    SimulationPlan,
    _blocks,
    generate_statistics,
    generate_theta,
    pvalues_from_statistics,
    replicate_rng,
    run_study,
    simulation_tree,
    write_summary_csv,
)


def test_default_grid():
    assert len(DEFAULT_GRID) == 11
    assert DEFAULT_GRID[0] == 0.0 and DEFAULT_GRID[-1] == 1.0


def test_blocks_partition_rows():
    top, mid, bottom = _blocks(50)
    assert (top.start, top.stop) == (0, 25)
    assert (mid.start, mid.stop) == (25, 30)
    assert (bottom.start, bottom.stop) == (30, 50)


def test_simulation_tree_geometry():
    tree = simulation_tree()
    assert tree.n == 5000
    assert validate_tree(tree) == []
    g1, g2 = tree.nodes_at_level(1)
    assert g1.members.size == 3000
    assert g2.members.size == 2500
    assert np.intersect1d(g1.members, g2.members).size == 500
    leaves = tree.leaves
    assert len(leaves) == 55  # 30 under group 1, 25 under group 2
    assert all(leaf.members.size == 100 for leaf in leaves)
    # the shared rows appear as subgroups of both level-1 groups
    shared = [leaf.path for leaf in leaves if 2500 in leaf.members]
    assert shared == [(1, 26), (2, 1)]


class TestPlanValidation:
    def test_default_plan_valid(self):
        assert SimulationPlan().validate() == []

    def test_bad_fields_reported(self):
        plan = SimulationPlan(pi1=1.5, rho_l1=1.0, lam=0.0, alpha=0.0, replicates=0)
        problems = plan.validate()
        assert len(problems) == 5

    def test_unknown_method(self):
        assert any("unknown" in p for p in SimulationPlan(methods=("XYZ",)).validate())

    def test_run_study_rejects_invalid_plan(self):
        with pytest.raises(ValueError):
            run_study(SimulationPlan(alpha=2.0))


class TestThetaLayers:
    def test_all_null_when_density_zero(self):
        rng = np.random.default_rng(1)
        t = generate_theta(SimulationPlan(), 0.0, rng)
        assert (t.theta == 0).all()
        assert t.is_null_flat.all()

    def test_all_signal_when_every_layer_fires(self):
        rng = np.random.default_rng(1)
        plan = SimulationPlan(pi1=0.0, pi1_star=0.0, pi2=0.0)
        t = generate_theta(plan, 1.0, rng)
        assert (t.theta == 1).all()

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
            t = generate_theta(plan, density, rng).theta
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
        summary = run_study(self.TINY, keep_replicates=True)
        fdp, power = summary.replicate_records[("BH", 0.5)]
        assert fdp.shape == (5,)
        assert power.shape == (5,)
        assert run_study(self.TINY).replicate_records == {}

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

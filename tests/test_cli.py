import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupedbh
from groupedbh.classification import load_forest, validate_forest
from groupedbh.cli import main, read_pvalues, read_truth


def write_lines(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")


class TestReaders:
    def test_plain_pvalues(self, tmp_path):
        f = tmp_path / "p.txt"
        write_lines(f, [0.1, 0.2, 0.3])
        assert read_pvalues(f).tolist() == [0.1, 0.2, 0.3]

    def test_indexed_csv_with_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("index,pvalue\n1,0.9\n0,0.1\n2,0.5\n")
        assert read_pvalues(f).tolist() == [0.1, 0.9, 0.5]

    def test_rejects_out_of_range(self, tmp_path):
        f = tmp_path / "p.txt"
        write_lines(f, [0.1, 1.5])
        from groupedbh.cli import InputError

        with pytest.raises(InputError, match=r"\[0, 1\]"):
            read_pvalues(f)

    def test_rejects_nan_line(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        write_lines(f, [0.1, "nan", 0.3])
        from groupedbh.cli import InputError

        with pytest.raises(InputError, match=r"\[0, 1\]"):
            read_pvalues(f)
        assert main(["test", "--pvalues", str(f), "--method", "flat", "--adaptive"]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_rejects_repeated_index(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("index,pvalue\n0,0.1\n1,0.9\n1,0.5\n")
        from groupedbh.cli import InputError

        with pytest.raises(InputError, match="index 1 appears twice"):
            read_pvalues(f)

    def test_truth_labels(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, [1, 0, 1])
        assert read_truth(f).tolist() == [True, False, True]


class TestCmdTest:
    def test_flat_adaptive_worked_weight(self, tmp_path, capsys):
        # 19 of 25 p-values at or below lambda = 0.5 -> constant weight 0.56
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.4] * 19 + [0.9] * 6)
        rc = main(["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"])
        out = capsys.readouterr().out
        assert rc == 0
        weights = {line.split(",")[2] for line in out.splitlines() if line[:1].isdigit()}
        assert weights == {"0.56"}

    def test_empty_rejection_is_success(self, tmp_path, capsys):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.8, 0.9, 0.95])
        rc = main(["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# rejections=0" in out

    def test_oracle_needs_truth(self, tmp_path, capsys):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1, 0.2])
        assert main(["test", "--pvalues", str(pfile), "--method", "flat"]) == 2
        assert "truth" in capsys.readouterr().err

    def test_spec_size_mismatch(self, tmp_path, capsys):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1] * 99)
        spec = tmp_path / "spec.json"
        levels = [[{"path": [1], "members": [[0, 50]]}, {"path": [2], "members": [[50, 100]]}]]
        spec.write_text(json.dumps({"n": 100, "trees": [{"levels": levels}]}))
        rc = main(
            ["test", "--pvalues", str(pfile), "--method", "hier", "--adaptive", "--spec", str(spec)]
        )
        assert rc == 2
        assert "N=100" in capsys.readouterr().err

    def test_hier_oracle_end_to_end(self, tmp_path):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.001, 0.02, 0.6, 0.8, 0.003, 0.3, 0.45, 0.55, 0.7, 0.95])
        tfile = tmp_path / "t.txt"
        write_lines(tfile, [1, 1, 0, 0, 1, 1, 1, 1, 0, 0])
        spec = tmp_path / "spec.json"
        levels = [[{"path": [1], "members": [[0, 4]]}, {"path": [2], "members": [[4, 10]]}]]
        spec.write_text(json.dumps({"n": 10, "trees": [{"levels": levels}]}))
        out = tmp_path / "result.csv"
        rc = main(
            [
                "test",
                "--pvalues", str(pfile),
                "--method", "hier",
                "--spec", str(spec),
                "--truth", str(tfile),
                "--alpha", "0.1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "# fdp=" in text and "# power=" in text
        rows = [line.split(",") for line in text.splitlines() if line[:1].isdigit()]
        assert len(rows) == 10
        # oracle group effects are 0.4 and 0.8 with no overlap
        assert float(rows[0][2]) == pytest.approx(0.4, abs=1e-12)
        assert float(rows[9][2]) == pytest.approx(0.8, abs=1e-12)

    def test_malformed_spec(self, tmp_path, capsys):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1, 0.2])
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        rc = main(
            ["test", "--pvalues", str(pfile), "--method", "hier", "--adaptive", "--spec", str(spec)]
        )
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            [1],
            {"n": 3, "trees": 3},
            {"n": 3, "trees": [{"levels": [[{"path": [1], "members": 5}]]}]},
            {"n": 3, "trees": [{"levels": [[{"path": [1.7], "members": [[0, 3]]}]]}]},
            {"n": 3.9, "trees": [{"levels": [[{"path": [1], "members": [[0, 3]]}]]}]},
            {
                "n": 3,
                "trees": [
                    {"levels": [[{"path": [1], "members": [[0, 3]]}], [{"path": "11", "members": [[0, 3]]}]]}
                ],
            },
        ],
        ids=["top-level-list", "trees-int", "members-int", "path-float", "n-float", "path-str"],
    )
    def test_misshapen_or_non_integer_spec_exits_2(self, tmp_path, capsys, spec):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1, 0.5, 0.9])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["test", "--pvalues", str(pfile), "--method", "gen", "--adaptive", "--spec", str(path)])
        assert rc == 2
        assert "error: malformed classification spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message", [(["--alpha", "2"], "alpha"), (["--lambda", "1.5"], "lambda")]
    )
    def test_out_of_range_level_exits_2(self, tmp_path, capsys, option, message):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.01, 0.5, 0.9])
        rc = main(["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"] + option)
        assert rc == 2
        assert message in capsys.readouterr().err


class TestCmdSimulate:
    def test_deterministic_csv_bytes(self, tmp_path):
        args = [
            "simulate",
            "--replicates", "3",
            "--grid", "0.0,0.5",
            "--methods", "BH,AdaptiveBH",
            "--seed", "5",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 2  # header + grid points x methods

    def test_invalid_plan_rejected(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "x.csv"), "--lambda", "1.5"])
        assert rc == 2
        assert "lambda" in capsys.readouterr().err

    def test_grid_point_count_form(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(
            ["simulate", "--out", str(out), "--grid", "3", "--replicates", "2",
             "--methods", "BH", "--seed", "1"]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert [line.split(",")[1] for line in lines[1:]] == ["0.0", "0.5", "1.0"]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main(["simulate", "--out", str(out), "--grid", "0", "--replicates", "2"])
        assert rc == 2
        assert "grid must not be empty" in capsys.readouterr().err
        assert not out.exists()


class TestCmdValidate:
    def test_default_sweep_passes(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        rc = main(["validate", "--trials", "5", "--out", str(report)])
        assert rc == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert all(r["passed"] for r in records)
        assert {"condition1", "loo_bound", "monotone", "stepup_oracle"} <= {
            r["name"] for r in records
        }
        assert "condition1" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_exit_2(self, capsys, trials):
        assert main(["validate", "--trials", trials]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_corruption_hook_fails(self, capsys):
        rc = main(["validate", "--trials", "3", "--corrupt"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestCmdGenSpec:
    def test_simulation_layout(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["gen-spec", "--layout", "simulation", "--out", str(out)]) == 0
        forest = load_forest(out)
        assert forest.n == 5000 and forest.s_count == 1
        assert validate_forest(forest) == []
        assert len(forest.trees[0].leaves) == 55

    def test_eeg_layout(self, tmp_path):
        out = tmp_path / "eeg.json"
        assert main(["gen-spec", "--layout", "eeg", "--out", str(out)]) == 0
        forest = load_forest(out)
        assert forest.n == 61 * 256
        assert forest.s_count == 2
        assert validate_forest(forest) == []
        for tree in forest.trees:
            assert tree.depth == 2
            assert tree.m[0] == 6  # level-1 groups
        # boundary electrodes sit in two regions: more leaf slots than electrodes
        assert len(forest.trees[0].leaves) == 61 + 7

    def test_hier_rejects_a_spec_of_several_trees(self, tmp_path, capsys):
        spec = tmp_path / "eeg.json"
        main(["gen-spec", "--layout", "eeg", "--out", str(spec)])
        pfile = tmp_path / "p.txt"
        write_lines(pfile, np.random.default_rng(0).uniform(size=61 * 256).round(6).tolist())
        rc = main(
            ["test", "--pvalues", str(pfile), "--method", "hier", "--adaptive", "--spec", str(spec)]
        )
        assert rc == 2
        assert "exactly one tree" in capsys.readouterr().err

    def test_sway_rejects_a_deep_tree(self, tmp_path, capsys):
        spec = tmp_path / "sim.json"
        main(["gen-spec", "--layout", "simulation", "--out", str(spec)])
        pfile = tmp_path / "p.txt"
        write_lines(pfile, np.random.default_rng(0).uniform(size=5000).round(6).tolist())
        rc = main(
            ["test", "--pvalues", str(pfile), "--method", "sway", "--adaptive", "--spec", str(spec)]
        )
        assert rc == 2
        assert "error: S-way weights need depth-1 trees" in capsys.readouterr().err

    def test_round_trip_through_test_command(self, tmp_path):
        spec = tmp_path / "sim.json"
        main(["gen-spec", "--layout", "simulation", "--out", str(spec)])
        pfile = tmp_path / "p.txt"
        rng = np.random.default_rng(0)
        write_lines(pfile, rng.uniform(size=5000).round(6).tolist())
        out = tmp_path / "res.csv"
        rc = main(
            ["test", "--pvalues", str(pfile), "--method", "hier", "--adaptive",
             "--spec", str(spec), "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().count("\n") == 8 + 5000  # header block + rows


def test_cli_import_loads_no_scipy():
    # scipy.stats alone costs about a second at start-up; only simulate
    # needs scipy, and it imports scipy.special when it runs
    src = str(Path(groupedbh.__file__).resolve().parents[1])
    code = (
        "import sys, groupedbh.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"

"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gen_inputs
import refmodel
import run
import spans
import workloads


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6]
    func = [0, 1, 2, 1]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(func, start, end, parent) == [6.0, 2.0, 1.0, 1.0]
    per_fn = spans.per_function(
        {"names": ["root", "mid", "leaf"], "spans": [func, start, end, parent]}
    )
    assert per_fn == {"root": (6.0, 1), "mid": (3.0, 2), "leaf": (1.0, 1)}


def test_self_time_counts_overlapping_children_once():
    # children [1, 4] and [3, 7] overlap and the second outruns the parent [0, 5]
    got = spans.self_times([0, 1, 1], [0.0, 1.0, 3.0], [5.0, 4.0, 7.0], [-1, 0, 0])
    assert got[0] == 1.0


def test_tracer_records_parents_through_rebound_names():
    tracer = spans.Tracer()
    namespace = {}
    inner = tracer.wrap("m.inner", lambda: None)
    namespace["inner"] = inner

    def outer():
        namespace["inner"]()
        namespace["inner"]()

    tracer.wrap("m.outer", outer)()
    assert tracer.func == [1, 0, 0]
    assert tracer.parent == [-1, 0, 0]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_traced_op_wraps_functions_imported_by_name(tmp_path):
    pfile = tmp_path / "p.txt"
    pfile.write_text("0.001\n0.2\n0.5\n0.9\n")
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    proc = subprocess.run(
        [sys.executable, str(workloads.PERFBENCH / "traced_op.py"), str(trace_path), "--",
         "test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(trace_path.read_text())
    names = trace["names"]
    func, _, _, parent = trace["spans"]
    called = [names[f] for f in func]
    # cli imports these by name from weights and stepup
    assert {"cli.main", "cli.cmd_test", "cli.read_pvalues", "weights.da_flat_weights",
            "weights.storey_null_estimate", "stepup.weighted_bh"} <= set(called)
    by_name = {names[f]: i for i, f in enumerate(func)}
    assert called[parent[by_name["weights.storey_null_estimate"]]] == "weights.da_flat_weights"
    assert parent[by_name["cli.main"]] == -1
    assert set(run.TRACED_FUNCTIONS) == set(names)
    phases = json.loads(trace_path.with_suffix(".phases.json").read_text())
    assert phases["import_s"] > 0 and phases["dump_s"] > 0
    main_span = by_name["cli.main"]
    assert phases["import_start"] < trace["spans"][1][main_span] < trace["spans"][2][main_span] < phases["end"]


def test_ops_and_their_processes_keep_every_core():
    affinity, _, scale = run.timed(lambda: os.sched_getaffinity(0))
    assert affinity == set(run.CORES) and scale > 0
    child = run.timed(lambda: subprocess.run(
        [sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
        capture_output=True, text=True, check=True).stdout)[0]
    assert json.loads(child) == run.CORES


def test_generators_repeat_per_seed_and_differ_across_seeds(tmp_path):
    groups = [np.arange(0, 60), np.arange(50, 120), np.arange(120, 200)]

    def pfile(seed, name):
        p = gen_inputs.signal_pvalues(gen_inputs.rng_for(seed, "test-1m"), 200, groups, 1)
        gen_inputs.write_pvalues(tmp_path / name, p)
        return (tmp_path / name).read_bytes()

    assert pfile(7, "a") == pfile(7, "b")
    assert pfile(7, "a") != pfile(8, "c")
    assert gen_inputs.derived_seeds(7, "x", 4) == gen_inputs.derived_seeds(7, "x", 4)
    assert gen_inputs.derived_seeds(7, "x", 4) != gen_inputs.derived_seeds(8, "x", 4)
    assert gen_inputs.derived_seeds(7, "x", 4) != gen_inputs.derived_seeds(7, "y", 4)


def test_big_tree_shape():
    levels = gen_inputs.big_tree_levels(n=10_000, groups=10, leaves_per_group=5)
    level1, level2 = levels
    assert len(level1) == 10 and len(level2) == 50
    assert level1[0][1].size == 1100 and level1[-1][1].size == 1000
    assert np.intersect1d(level1[0][1], level1[1][1]).size == 100
    for (path, members) in level1:
        leaves = [m for p, m in level2 if p[:-1] == path]
        assert np.array_equal(np.concatenate(leaves), members)


def test_reference_model_reproduces_recorded_simulate_csv():
    for name, rho in (("simulate_rho0.csv", (0.0, 0.0)), ("simulate_rho03_04.csv", (0.3, 0.4))):
        rows = refmodel.simulate_rows(20240, 20, grid=(0.0, 0.5, 1.0), rho_l1=rho[0], rho_l2=rho[1])
        with open(workloads.FIXTURES / name, newline="") as fh:
            assert refmodel.csv_text(rows) == fh.read()


def _small_test_case(tmp_path):
    levels = gen_inputs.big_tree_levels(n=400, groups=4, leaves_per_group=3)
    p = gen_inputs.signal_pvalues(gen_inputs.rng_for(3, "t"), 400, [m for _, m in levels[0]], 1)
    w = refmodel.da_hier_weights(400, levels, p, 0.5)
    expected = refmodel.expected_test_output("hier", p, w, 0.05, 0.5)
    out = tmp_path / "out.txt"
    rows = [f"{i},{float(p[i])!r},{float(w[i])!r},{float(expected['wp'][i])!r},"
            f"{int(expected['rejected'][i])}"
            for i in range(400)]
    out.write_text("\n".join(expected["header"] + rows) + "\n")
    return out, expected


def test_checker_accepts_correct_and_catches_corrupted_test_output(tmp_path):
    out, expected = _small_test_case(tmp_path)
    wl = workloads.TestEEG(tmp_path, 0, launch=None)
    assert expected["rejected"].any()
    assert wl.check_test_output(out, expected) is None
    workloads.flip_last_rejection(out)
    assert "rejected" in wl.check_test_output(out, expected)
    out, expected = _small_test_case(tmp_path)
    lines = out.read_text().splitlines()
    idx, pv, weight, rest = lines[20].split(",", 3)
    lines[20] = ",".join([idx, pv, repr(float(weight) * (1 + 1e-9)), rest])
    out.write_text("\n".join(lines) + "\n")
    assert "weights differ" in wl.check_test_output(out, expected)


def test_checker_catches_corrupted_simulate_csv(tmp_path):
    expected = workloads.read_csv(workloads.FIXTURES / "simulate_rho0.csv")
    assert workloads.compare_sim_rows(expected, expected) is None
    bad = [row[:] for row in expected]
    bad[-1][4] = repr(float(bad[-1][4]) * (1 + 1e-9))
    assert workloads.compare_sim_rows(bad, expected) is not None
    bad = [row[:] for row in expected]
    bad[3][0] = "BH"
    assert workloads.compare_sim_rows(bad, expected) is not None


@pytest.mark.parametrize("workload", ["validate-sweep", "test-eeg"])
def test_negative_control_counts_every_op_as_failed(workload):
    proc = subprocess.run(
        [sys.executable, str(workloads.PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.01", "--trace", "0", "--negative-control"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_benchmark_json_matches_the_harness():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER

"""The four benchmark workloads.

An op is one `groupedbh` CLI invocation in a fresh process. Each workload
generates its inputs in ``setup`` (timed, repeated), computes the expected
outputs from the reference model in ``prepare`` (untimed), names the CLI
arguments of an op, and checks each op's output against the reference.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import gen_inputs
import refmodel

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
FIXTURES = PERFBENCH / "fixtures"
RTOL = 1e-12
ALPHA, LAM = 0.05, 0.5

# The `groupedbh` console script, run with the checkout's src/ on PYTHONPATH,
# that also writes its own peak RSS (VmHWM, kB) at exit to the path given as
# its first argument. The rusage of a child includes the RSS of the process it
# was forked from, so the benchmark's own memory would otherwise count as the op's.
CLI = """\
import atexit, sys
hwm_path = sys.argv.pop(1)

def write_hwm():
    with open("/proc/self/status") as status, open(hwm_path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

atexit.register(write_hwm)
from groupedbh.cli import main
sys.exit(main())
"""


class BenchError(RuntimeError):
    pass


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def recorded() -> dict:
    with open(FIXTURES / "recorded.json") as fh:
        return json.load(fh)


def rel_close(a: np.ndarray, b: np.ndarray, rtol: float = RTOL) -> bool:
    """Elementwise |a - b| <= rtol * max(|a|, |b|); infinities must agree."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    same = a == b
    with np.errstate(invalid="ignore"):
        close = np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b))
    return bool((same | close).all())


class Workload:
    name = ""
    why = ""

    def __init__(self, work: Path, seed: int, launch, negative_control: bool = False):
        self.work = work
        self.seed = seed
        self.launch = launch  # launch(args, stdout_path, program=None) -> OpResult
        self.negative_control = negative_control
        self.spec_path: Path | None = None
        self._verified: set[str] = set()

    # -- hooks -------------------------------------------------------------

    def setup(self) -> None:
        """Generate this run's inputs (timed; may run several times)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the expected outputs (untimed, after setup)."""

    def op_args(self) -> list[str]:
        raise NotImplementedError

    def output_paths(self) -> list[Path]:
        return []

    def corrupt(self) -> None:
        """Negative control: damage the op's output so the check must fail."""

    def check_output(self) -> str | None:
        """None when the op's outputs match the reference, else the reason."""
        raise NotImplementedError

    def extra_checks(self) -> list[tuple[str, bool]]:
        """Untimed checked ops run once per run, as (name, passed)."""
        return []

    # -- shared ------------------------------------------------------------

    def check(self, op) -> str | None:
        if op.rc != 0:
            return f"exit code {op.rc}: {op.stderr_tail()}"
        if self.negative_control:
            self.corrupt()
        digest = hashlib.sha256()
        for path in self.output_paths():
            if not path.is_file():
                return f"missing output {path.name}"
            digest.update(path.read_bytes())
        key = digest.hexdigest()
        if key in self._verified:
            return None
        reason = self.check_output()
        if reason is None:
            self._verified.add(key)
        return reason

    def warm_start(self) -> None:
        """Launch the program once in a fresh process: proves the checkout's
        package imports and fills the bytecode and page caches."""
        out = self.work / "warm.txt"
        op = self.launch(
            ["-c", "import groupedbh, groupedbh.cli; print(groupedbh.__file__)"], out, program=[]
        )
        if op.rc != 0:
            raise BenchError(f"groupedbh does not import: {op.stderr_tail()}")
        origin = Path(out.read_text().strip()).resolve()
        if SRC.resolve() not in origin.parents:
            raise BenchError(f"groupedbh imported from {origin}, not from {SRC}")

    def check_test_output(self, path: Path, expected: dict | None) -> str | None:
        if expected is None:
            return "no reference: the spec does not decode to the generated structure"
        text = path.read_text()
        header_lines = len(expected["header"])
        head = text.split("\n", header_lines)
        if head[:header_lines] != expected["header"]:
            return f"header differs: {head[:header_lines]!r}"
        try:
            body = np.loadtxt(head[header_lines].splitlines(), delimiter=",", ndmin=2)
        except ValueError as exc:
            return f"unparsable rows: {exc}"
        n = expected["pvalue"].size
        if body.shape != (n, 5):
            return f"expected {n} rows of 5 columns, got {body.shape}"
        if (body[:, 0] != np.arange(n)).any() or (body[:, 1] != expected["pvalue"]).any():
            return "index or pvalue column differs"
        if not rel_close(body[:, 2], expected["weight"]):
            return "weights differ by more than 1e-12 relative"
        if not rel_close(body[:, 3], expected["wp"]):
            return "weighted p-values differ by more than 1e-12 relative"
        if (body[:, 4] != expected["rejected"]).any():
            return "rejected column differs"
        return None


def flip_last_rejection(path: Path) -> None:
    text = path.read_text().rstrip("\n")
    path.write_text(text[:-1] + ("0" if text[-1] == "1" else "1") + "\n")


# ---------------------------------------------------------------------------


class SimSweep(Workload):
    name = "sim-sweep"
    why = (
        "the paper's Monte Carlo study: many small weight and step-up calls on one "
        "fixed tree; structure handling is nearly absent"
    )
    replicates = 40  # the default plan otherwise: 11 densities x 4 methods, N = 5000, rho = 0

    def setup(self):
        self.warm_start()
        (self.sim_seed,) = gen_inputs.derived_seeds(self.seed, self.name, 1)

    def prepare(self):
        self.expected = refmodel.simulate_rows(self.sim_seed, self.replicates)

    def op_args(self):
        return ["simulate", "--out", str(self.work / "sim.csv"),
                "--replicates", str(self.replicates), "--seed", str(self.sim_seed)]

    def output_paths(self):
        return [self.work / "sim.csv"]

    def corrupt(self):
        path = self.work / "sim.csv"
        rows = read_csv(path)
        col = rows[0].index("mean_power")
        rows[-1][col] = repr(float(rows[-1][col]) * (1 + 1e-9) + 1e-9)
        path.write_text(refmodel.csv_text(rows), newline="")

    def check_output(self):
        return compare_sim_rows(read_csv(self.work / "sim.csv"), self.expected)

    def extra_checks(self):
        """The determinism fixture: a small plan at both correlation settings,
        recorded on the package's first release, reproduced byte for byte."""
        results = []
        for name, extra in (("simulate_rho0.csv", []),
                            ("simulate_rho03_04.csv", ["--rho-l1", "0.3", "--rho-l2", "0.4"])):
            out = self.work / name
            op = self.launch(["simulate", "--out", str(out), "--replicates", "20", "--grid", "3",
                              "--seed", "20240", *extra], self.work / "fixture.log")
            same = op.rc == 0 and out.read_bytes() == (FIXTURES / name).read_bytes()
            results.append((f"determinism_fixture:{name}", same))
        return results


def compare_sim_rows(rows: list[list[str]], expected: list[list[str]]) -> str | None:
    if len(rows) != len(expected) or rows[0] != expected[0]:
        return f"expected {len(expected)} rows under {expected[0]}, got {len(rows)}"
    floats = [expected[0].index(c) for c in refmodel.SIM_FLOAT_COLUMNS]
    for got, want in zip(rows[1:], expected[1:]):
        if len(got) != len(want):
            return f"row {got!r} has {len(got)} fields"
        for i, (g, w) in enumerate(zip(got, want)):
            if i in floats:
                try:
                    ok = rel_close(float(g), float(w))
                except ValueError:
                    ok = False
            else:
                ok = g == w
            if not ok:
                return f"{expected[0][i]} differs for {want[0]} at {want[1]}: {g} != {w}"
    return None


class Test1M(Workload):
    name = "test-1m"
    why = (
        "one big call: N = 10^6 in 10^4 overlapping leaves; spec decode, tree "
        "build/validate, p-value parsing and output formatting dominate"
    )
    signal_groups = 10

    def setup(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from groupedbh.classification import ClassificationForest, save_forest, tree_from_levels

        levels = gen_inputs.big_tree_levels()
        n = gen_inputs.BIG_N
        self.spec_path = self.work / "big_spec.json"
        tree = tree_from_levels(n, levels)
        save_forest(ClassificationForest(n=n, trees=(tree,)), self.spec_path)
        rng = gen_inputs.rng_for(self.seed, self.name)
        self.pvalues = gen_inputs.signal_pvalues(
            rng, n, [m for _, m in levels[0]], self.signal_groups
        )
        gen_inputs.write_pvalues(self.work / "big_p.txt", self.pvalues)
        self.levels = levels

    def prepare(self):
        n = gen_inputs.BIG_N
        saved = refmodel.spec_forest(json.loads(self.spec_path.read_text()))
        if refmodel.structure_digest(*saved) != refmodel.structure_digest(n, [self.levels]):
            self.expected = None
            return
        weights = refmodel.da_hier_weights(n, self.levels, self.pvalues, LAM)
        self.expected = refmodel.expected_test_output("hier", self.pvalues, weights, ALPHA, LAM)

    def op_args(self):
        return ["test", "--pvalues", str(self.work / "big_p.txt"), "--spec", str(self.spec_path),
                "--method", "hier", "--adaptive", "--out", str(self.work / "big_out.txt")]

    def output_paths(self):
        return [self.work / "big_out.txt"]

    def corrupt(self):
        flip_last_rejection(self.work / "big_out.txt")

    def check_output(self):
        return self.check_test_output(self.work / "big_out.txt", self.expected)


class TestEEG(Workload):
    name = "test-eeg"
    why = (
        "the paper's EEG application via gen-spec --layout eeg (N = 15616, two "
        "trees) and the gen method; start-up dominates each op"
    )
    signal_groups = 2

    def setup(self):
        self.spec_path = self.work / "eeg_spec.json"
        op = self.launch(["gen-spec", "--layout", "eeg", "--out", str(self.spec_path)],
                         self.work / "gen_spec.log")
        if op.rc != 0:
            raise BenchError(f"gen-spec failed: {op.stderr_tail()}")
        self.n, self.trees = refmodel.spec_forest(json.loads(self.spec_path.read_text()))
        rng = gen_inputs.rng_for(self.seed, self.name)
        regions = [m for _, m in self.trees[0][0]]
        self.pvalues = gen_inputs.signal_pvalues(rng, self.n, regions, self.signal_groups)
        gen_inputs.write_pvalues(self.work / "eeg_p.txt", self.pvalues)

    def prepare(self):
        if refmodel.structure_digest(self.n, self.trees) != recorded()["eeg_structure_sha256"]:
            self.expected = None
            return
        weights = refmodel.da_gen_weights(self.n, self.trees, self.pvalues, LAM)
        self.expected = refmodel.expected_test_output("gen", self.pvalues, weights, ALPHA, LAM)

    def op_args(self):
        return ["test", "--pvalues", str(self.work / "eeg_p.txt"), "--spec", str(self.spec_path),
                "--method", "gen", "--adaptive", "--out", str(self.work / "eeg_out.txt")]

    def output_paths(self):
        return [self.work / "eeg_out.txt"]

    def corrupt(self):
        flip_last_rejection(self.work / "eeg_out.txt")

    def check_output(self):
        return self.check_test_output(self.work / "eeg_out.txt", self.expected)


class ValidateSweep(Workload):
    name = "validate-sweep"
    why = (
        "the default identity sweep: hundreds of tiny freshly built structures (N = 10-500), "
        "per-call overhead, sway/one-way weights and brute_force_bh"
    )
    # `groupedbh validate` as shipped (its default seed and trial count), so
    # every op and every run does the same work; the sweep's own random
    # configurations change with its seed and so does their cost
    trials, sweep_seed = 200, 0

    def setup(self):
        self.warm_start()

    def op_args(self):
        args = ["validate", "--trials", str(self.trials), "--seed", str(self.sweep_seed),
                "--out", str(self.work / "validate.jsonl")]
        return args + ["--corrupt"] if self.negative_control else args

    def output_paths(self):
        return [self.work / "validate.jsonl"]

    def checks_per_op(self):
        # run_sweep: 5 checks per trial, 8 per adaptive trial, 4 reductions, 1 step-up
        return 5 * self.trials + 8 * max(1, self.trials // 4) + 5

    def check_output(self):
        with open(self.work / "validate.jsonl") as fh:
            reports = [json.loads(line) for line in fh]
        if len(reports) != self.checks_per_op():
            return f"expected {self.checks_per_op()} checks, got {len(reports)}"
        failed = [r["name"] for r in reports if not r["passed"]]
        return f"checks failed: {sorted(set(failed))}" if failed else None


WORKLOADS = {w.name: w for w in (SimSweep, Test1M, TestEEG, ValidateSweep)}

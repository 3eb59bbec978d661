"""Benchmark of the `groupedbh` CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

Run from anywhere inside a checkout; the package is taken from the
checkout's src/. Each op is one CLI invocation in a fresh process, launched
one at a time from this process. With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 the same timed ops
run untraced, then one extra op runs under the outside-in tracer
(traced_op.py) and the JSON carries the per-layer metrics instead.
--negative-control damages every op's output (or runs `validate --corrupt`)
so that every timed op must be counted as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spans
import workloads

RUN_DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_REPEATS = 3
MIN_OPS = 2  # a median of one op would rest on a single core-speed reading

END_TO_END = {  # name: unit
    "setup_s": "s",
    "op_wall_s": "s",
    "peak_rss_mb": "MB",
}

# every public function of the six traced modules at the time the benchmark
# was defined; functions added later count in trace.remainder_s
TRACED_FUNCTIONS = (
    "classification.flat_tree", "classification.tree_from_levels",
    "classification.tree_from_groups", "classification.forest_from_grid",
    "classification.validate_tree", "classification.validate_forest",
    "classification.group_stats", "classification.leaf_memberships",
    "classification.forest_to_dict", "classification.forest_from_dict",
    "classification.save_forest", "classification.load_forest",
    "weights.oracle_flat_weights", "weights.oracle_overlap_oneway_weights",
    "weights.oracle_hier_effects", "weights.oracle_hier_weights",
    "weights.oracle_sway_weights", "weights.oracle_gen_weights",
    "weights.storey_null_estimate", "weights.da_flat_weights",
    "weights.da_hier_effects", "weights.da_hier_weights",
    "weights.da_sway_weights", "weights.da_gen_weights",
    "stepup.weighted_bh", "stepup.brute_force_bh", "stepup.outcome_metrics",
    "simulate.generate_theta", "simulate.generate_statistics",
    "simulate.pvalues_from_statistics", "simulate.simulation_tree",
    "simulate.replicate_rng", "simulate.run_study", "simulate.write_summary_csv",
    "identities.check_condition1", "identities.check_loo_bound",
    "identities.check_monotone", "identities.random_tree",
    "identities.random_forest", "identities.random_truth",
    "identities.check_reductions", "identities.run_sweep",
    "cli.read_pvalues", "cli.read_truth", "cli.cmd_test", "cli.cmd_simulate",
    "cli.cmd_validate", "cli.cmd_gen_spec", "cli.build_parser", "cli.main",
)

PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.startup_s": "s",
    "trace.instrument_s": "s",
    "trace.dump_s": "s",
    "trace.exit_s": "s",
    "trace.remainder_s": "s",
    "trace_overhead_frac": "ratio",
    "classification.spec_bytes": "bytes",
    "cli.output_bytes": "bytes",
}


@dataclass
class OpResult:
    started: float  # perf_counter() at spawn and at reap
    ended: float
    rc: int
    rss_mb: float  # the CLI's own peak RSS; NaN for another program
    stderr: Path

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def stderr_tail(self) -> str:
        lines = self.stderr.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


class Launcher:
    """Runs one program invocation at a time and times it from spawn to reap."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(workloads.SRC), os.environ.get("PYTHONPATH")) if p
        )

    def __call__(self, args, stdout: Path, program=None) -> OpResult:
        """Run the CLI on args, or `program` + args."""
        global op_pid
        hwm = stdout.with_suffix(".hwm")
        hwm.unlink(missing_ok=True)
        if program is None:
            program = ["-c", workloads.CLI, str(hwm)]
        argv = [sys.executable, *program, *args]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise workloads.BenchError("run deadline passed")
        stderr = stdout.with_suffix(stdout.suffix + ".err")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=stdout.parent)
            op_pid = proc.pid
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                op_pid = None
                killer.cancel()
            ended = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = int(hwm.read_text()) / 1024.0 if hwm.is_file() else math.nan
        return OpResult(started, ended, proc.returncode, rss_mb, stderr)


CORES = sorted(os.sched_getaffinity(0))
PROBE_LOOP = 20_000
PROBE_WARMUP = 4_000  # untimed iterations first: refill the caches the op left cold
PROBE_REF_S = 0.00125  # probe_s on an idle core of the 2-core x86_64 VM the benchmark was built on
PROBE_EVERY_S = 0.04
# An op slows by about the 1.5th power of the probe's slowdown when its core
# is contended (process start-up and imports suffer more than a loop that
# stays in L1); on the machine the benchmark was built on, no other exponent
# gave a smaller per-op spread on more than one of the four workloads.
CONTENTION_EXPONENT = 1.5


def probe_s() -> float:
    """CPU seconds the calling thread takes for a fixed pure-Python loop."""
    acc = 0
    for i in range(PROBE_WARMUP):
        acc += i * i
    t0 = time.thread_time()
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.thread_time() - t0


op_pid: int | None = None  # the process Launcher is running, if any


def op_cores() -> set[int]:
    """Cores on which the op runs right now: a running thread of the process
    Launcher runs, or this process's main thread (set-ups run in it)."""
    tasks = [f"/proc/{os.getpid()}/task/{os.getpid()}"]
    pid = op_pid
    if pid is not None:
        try:
            tasks += [entry.path for entry in os.scandir(f"/proc/{pid}/task")]
        except OSError:  # the op has ended
            pass
    cores = set()
    for task in tasks:
        try:
            with open(f"{task}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] == "R":
            cores.add(int(fields[36]))  # field 39 of stat: the core it last ran on
    return cores


class CoreSpeed(threading.Thread):
    """Runs the probe every PROBE_EVERY_S on one core until stopped, and
    keeps apart the samples taken while the op was running on that core."""

    def __init__(self, core: int):
        super().__init__(daemon=True)
        self.core = core
        self.samples: list[float] = []
        self.shared: list[float] = []
        self.done = threading.Event()

    def sample(self):
        probe = probe_s()
        self.samples.append(probe)
        if self.core in op_cores():
            self.shared.append(probe)

    def run(self):
        os.sched_setaffinity(0, {self.core})  # on Linux: this thread only
        self.sample()
        while not self.done.wait(PROBE_EVERY_S):
            self.sample()
        self.sample()


def timed(fn):
    """Run fn() and return (fn's result, its wall seconds, the speed scale).

    fn, and every process it starts, may use every core of this process. The
    cores of the machine the benchmark was built on share their hardware with
    other machines' work, which slows a core by up to half for seconds at a
    time. While fn runs, one thread per core repeats the probe on that core
    (about 4% of the core) and notes whether the op was running there. The
    scale is the mean of PROBE_REF_S / probe time over the samples taken on
    the op's core, or over all samples if there are none (an op whose work
    runs in processes it starts itself), raised to CONTENTION_EXPONENT: it
    converts fn's wall time to the time it would take at the reference core
    speed.
    """
    samplers = [CoreSpeed(core) for core in CORES]
    for sampler in samplers:
        sampler.start()
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        wall = time.perf_counter() - t0
        for sampler in samplers:
            sampler.done.set()
        for sampler in samplers:
            sampler.join()
    probes = [p for sampler in samplers for p in sampler.shared]
    probes = probes or [p for sampler in samplers for p in sampler.samples]
    speed = statistics.fmean(PROBE_REF_S / p for p in probes)
    return out, wall, speed**CONTENTION_EXPONENT


def fingerprint() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, negative_control: bool,
                 deadline: float) -> dict:
    work = workloads.ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launch = Launcher(deadline)
    wl = workloads.WORKLOADS[name](work, seed, launch, negative_control)
    try:
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            _, wall, scale = timed(wl.setup)
            setup_times.append(wall)
            setup_scaled.append(wall * scale)
        wl.prepare()

        walls, scaled, rss, failures = [], [], [], []
        while len(walls) < MIN_OPS or sum(walls) < seconds:
            op, _, scale = timed(lambda: launch(wl.op_args(), work / "stdout.txt"))
            reason = wl.check(op)
            if reason:
                failures.append(f"op {len(walls)}: {reason}")
            walls.append(op.wall_s)
            scaled.append(op.wall_s * scale)
            rss.append(op.rss_mb)
        attempted = len(walls)
        extra = wl.extra_checks()
        attempted += len(extra)
        failures += [f"{label}: output differs" for label, ok in extra if not ok]

        result = {
            "workload": name,
            "ops": len(walls),
            "extra_checks": {label: ok for label, ok in extra},
            "setup_times_s": setup_times,
            "op_walls_s": walls,
            "scaled_op_walls_s": scaled,
        }
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "op_wall_s": statistics.median(scaled),
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END
        if trace:
            layer, reason = traced_op(wl, work, launch, metrics["op_wall_s"])
            attempted += 1
            if reason:
                failures.append(f"traced op: {reason}")
            metrics, units = layer, PER_LAYER
        result.update(
            attempted=attempted,
            failures=failures,
            metrics={m: {"value": metrics[m], "unit": u} for m, u in units.items()},
        )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def traced_op(wl, work: Path, launch, untraced_wall: float) -> tuple[dict, str | None]:
    trace_path = work / "trace.json"
    op, _, scale = timed(lambda: launch(
        wl.op_args(), work / "stdout.txt",
        program=[str(workloads.PERFBENCH / "traced_op.py"), str(trace_path), "--"],
    ))
    reason = wl.check(op)
    trace = json.loads(trace_path.read_text())
    phases = json.loads(trace_path.with_suffix(".phases.json").read_text())
    per_fn = spans.per_function(trace)
    metrics = {}
    listed_self = 0.0
    for fn in TRACED_FUNCTIONS:
        self_s, calls = per_fn.get(fn, (0.0, 0))
        metrics[f"{fn}.self_s"] = self_s
        metrics[f"{fn}.calls"] = calls
        listed_self += self_s
    stages = {
        "trace.startup_s": phases["import_start"] - op.started,
        "cli.import_s": phases["import_s"],
        "trace.instrument_s": phases["instrument_s"],
        "trace.dump_s": phases["dump_s"],
        "trace.exit_s": op.ended - phases["end"],
    }
    outputs = [work / "stdout.txt", *wl.output_paths()]
    metrics.update(stages)
    metrics.update({
        "trace.wall_s": op.wall_s,
        # time in none of the stages and in no span of a listed function
        "trace.remainder_s": op.wall_s - sum(stages.values()) - listed_self,
        "trace_overhead_frac": op.wall_s * scale / untraced_wall - 1.0,
        "classification.spec_bytes": wl.spec_path.stat().st_size if wl.spec_path else 0,
        "cli.output_bytes": sum(p.stat().st_size for p in outputs if p.is_file()),
    })
    return metrics, reason


def report_lines(result: dict) -> list[str]:
    name = result["workload"]
    lines = [f"{name}: ops={result['ops']} attempted={result['attempted']} "
             f"failed={len(result['failures'])} "
             f"failed_frac={len(result['failures']) / result['attempted']:.4g}",
             "  raw op walls (s): " + " ".join(f"{w:.3f}" for w in result["op_walls_s"]),
             "  scaled op walls (s): " + " ".join(f"{w:.3f}" for w in result["scaled_op_walls_s"]),
             "  raw setup times (s): " + " ".join(f"{w:.3f}" for w in result["setup_times_s"])]
    lines += [f"  {name} {m} = {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
    lines += [f"  {label}: {'reproduced' if ok else 'DIFFERS'}" for label, ok in result["extra_checks"].items()]
    lines += [f"  FAILED {f}" for f in result["failures"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    args = parser.parse_args(argv)

    if not (workloads.SRC / "groupedbh" / "cli.py").is_file():
        print(f"error: no groupedbh package under {workloads.SRC}", file=sys.stderr)
        return 2
    start = time.monotonic()
    print("fingerprint " + json.dumps(fingerprint()))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        deadline = start + RUN_DEADLINE_S * (len(results) + 1)
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.negative_control, deadline)
        except workloads.BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        for line in report_lines(result):
            print(line)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Control for the core-speed scale: does an op's working set move it?

    python3 perfbench/scale_control.py [--pairs 24] [--seconds 1]

Runs two synthetic ops in turn, each a fresh Python process busy for the
same wall time: `small` spins a pure-Python loop that stays in L1, `large`
sums random elements of a 128 MB array, so it misses every cache. Both run
under ``run.timed`` as benchmark ops do. For each pair the script prints the
mean probe speed under each op (the scale before the exponent) and their
ratio, large over small; pairs alternate which op goes first. A median ratio
near 1 means the probes do not feel the op's working set, so the scale does
not credit an op for growing it.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys

import run

OPS = {
    "small": """
import sys, time
end = time.perf_counter() + float(sys.argv[1])
acc = 0
while time.perf_counter() < end:
    for i in range(10_000):
        acc += i * i
""",
    "large": """
import sys, time
import numpy as np
a = np.ones(1 << 24)
rng = np.random.default_rng(0)
end = time.perf_counter() + float(sys.argv[1])
acc = 0.0
while time.perf_counter() < end:
    acc += a[rng.integers(0, a.size, 1 << 16)].sum()
""",
}


def speed_under(op: str, seconds: float) -> float:
    _, _, scale = run.timed(lambda: subprocess.run(
        [sys.executable, "-c", OPS[op], str(seconds)], check=True))
    return scale ** (1 / run.CONTENTION_EXPONENT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=24)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    ratios = []
    for i in range(args.pairs):
        order = ("small", "large") if i % 2 == 0 else ("large", "small")
        speed = {op: speed_under(op, args.seconds) for op in order}
        ratios.append(speed["large"] / speed["small"])
        print(f"pair {i}: speed small {speed['small']:.4f} large {speed['large']:.4f} "
              f"ratio {ratios[-1]:.4f}", flush=True)
    quartiles = statistics.quantiles(ratios, n=4)
    print(f"median ratio {statistics.median(ratios):.4f} "
          f"(quartiles {quartiles[0]:.4f}-{quartiles[2]:.4f}); "
          f"scale ratio {statistics.median(ratios) ** run.CONTENTION_EXPONENT:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

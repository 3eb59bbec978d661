"""Command line interface: run weighted BH tests on user data, run the
Monte Carlo study, run identity-check sweeps, and emit classification spec
files.

Exit codes: 0 success, 1 identity-check failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import identities, simulate
from .classification import (
    ClassificationForest,
    load_forest,
    save_forest,
    tree_from_levels,
    validate_forest,
)
from .stepup import _check_inputs, outcome_metrics, weighted_bh
from .weights import (
    da_flat_weights,
    da_gen_weights,
    da_hier_weights,
    da_sway_weights,
    oracle_flat_weights,
    oracle_gen_weights,
    oracle_hier_weights,
    oracle_sway_weights,
)


class InputError(Exception):
    pass


def read_pvalues(path) -> np.ndarray:
    """One decimal per line, or CSV rows of index,value (any header row is
    skipped, and each index must appear once); values must lie in [0, 1]."""
    values = {}
    plain = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                if "," in line:
                    idx_s, val_s = [f.strip() for f in line.split(",")[:2]]
                    try:
                        idx, val = int(idx_s), float(val_s)
                    except ValueError:
                        if lineno == 0:
                            continue  # header
                        raise InputError(f"{path}:{lineno + 1}: cannot parse {line!r}")
                    if idx in values:
                        raise InputError(f"{path}:{lineno + 1}: index {idx} appears twice")
                    values[idx] = val
                else:
                    try:
                        plain.append(float(line))
                    except ValueError:
                        if lineno == 0:
                            continue
                        raise InputError(f"{path}:{lineno + 1}: cannot parse {line!r}")
    except OSError as exc:
        raise InputError(str(exc))
    if values and plain:
        raise InputError(f"{path}: mixed plain and indexed rows")
    if values:
        if sorted(values) != list(range(len(values))):
            raise InputError(f"{path}: index column must cover 0..{len(values) - 1}")
        arr = np.array([values[i] for i in range(len(values))])
    else:
        arr = np.array(plain)
    if arr.size == 0:
        raise InputError(f"{path}: no p-values found")
    try:
        _check_inputs(arr)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")
    return arr


def read_truth(path) -> np.ndarray:
    """Truth labels, one per line: 1 marks a true null, 0 a false null."""
    try:
        with open(path) as fh:
            vals = [line.strip() for line in fh if line.strip()]
    except OSError as exc:
        raise InputError(str(exc))
    if not all(v in ("0", "1") for v in vals):
        raise InputError(f"{path}: truth labels must be 0 or 1, one per line")
    return np.array([v == "1" for v in vals])


def _load_structure(args, n: int) -> ClassificationForest:
    if not args.spec:
        raise InputError(f"--method {args.method} requires --spec")
    try:
        forest = load_forest(args.spec)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed classification spec {args.spec}: {exc}")
    problems = validate_forest(forest)
    if problems:
        raise InputError(f"invalid classification spec {args.spec}: " + "; ".join(problems))
    if forest.n != n:
        raise InputError(f"spec has N={forest.n} but {n} p-values were supplied")
    return forest


def _compute_weights(args, pvalues, truth) -> np.ndarray:
    if not args.adaptive and truth is None:
        raise InputError("oracle methods require --truth")
    structure = ()
    if args.method != "flat":
        forest = _load_structure(args, pvalues.size)
        structure = (forest,)
        if args.method == "hier":
            if forest.s_count != 1:
                raise InputError(
                    f"--method hier needs a spec with exactly one tree, {args.spec} has "
                    f"{forest.s_count}; use --method gen for several"
                )
            structure = forest.trees
    # built per call, so wrappers rebound on these names (perfbench traces them) are called
    adaptive_fn, oracle_fn = {
        "flat": (da_flat_weights, oracle_flat_weights),
        "hier": (da_hier_weights, oracle_hier_weights),
        "sway": (da_sway_weights, oracle_sway_weights),
        "gen": (da_gen_weights, oracle_gen_weights),
    }[args.method]
    if args.adaptive:
        return adaptive_fn(*structure, pvalues, args.lam)
    return oracle_fn(*structure, truth)


def cmd_test(args) -> int:
    pvalues = read_pvalues(args.pvalues)
    truth = read_truth(args.truth) if args.truth else None
    if truth is not None and truth.size != pvalues.size:
        raise InputError(
            f"{truth.size} truth labels but {pvalues.size} p-values"
        )
    try:
        weights = _compute_weights(args, pvalues, truth)
        outcome = weighted_bh(pvalues, weights, args.alpha)
    except ValueError as exc:  # the library's rejection of bad input
        raise InputError(str(exc))
    lines = [
        f"# method={args.method}",
        f"# adaptive={args.adaptive}",
        f"# alpha={args.alpha!r}",
        f"# lambda={args.lam!r}",
        f"# n={pvalues.size}",
        f"# rejections={outcome.n_rejected}",
        f"# threshold_index={outcome.threshold_index}",
    ]
    if truth is not None:
        metrics = outcome_metrics(outcome, truth)
        lines.append(f"# fdp={metrics.fdp!r}")
        lines.append(f"# power={metrics.power!r}")
    lines.append("index,pvalue,weight,weighted_pvalue,rejected")
    wp = weights * pvalues
    wp[np.isinf(weights)] = np.inf
    for i in range(pvalues.size):
        lines.append(
            f"{i},{float(pvalues[i])!r},{float(weights[i])!r},"
            f"{float(wp[i])!r},{int(outcome.rejected[i])}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    if args.grid:
        try:
            if "," in args.grid:
                grid = tuple(float(v) for v in args.grid.split(","))
            else:
                grid = tuple(
                    round(float(x), 10) for x in np.linspace(0.0, 1.0, int(args.grid))
                )
        except ValueError:
            raise InputError(f"cannot parse --grid {args.grid!r}")
    else:
        grid = simulate.DEFAULT_GRID
    plan = simulate.SimulationPlan(
        one_minus_pi0_grid=grid,
        rho_l1=args.rho_l1,
        rho_l2=args.rho_l2,
        lam=args.lam,
        alpha=args.alpha,
        replicates=args.replicates,
        seed=args.seed,
        methods=tuple(args.methods.split(",")),
    )
    problems = plan.validate()
    if problems:
        raise InputError("; ".join(problems))
    summary = simulate.run_study(plan)
    simulate.write_summary_csv(summary, args.out)
    return 0


def cmd_validate(args) -> int:
    try:
        reports = identities.run_sweep(seed=args.seed, trials=args.trials, corrupt=args.corrupt)
    except ValueError as exc:
        raise InputError(str(exc))
    if args.out:
        with open(args.out, "w") as fh:
            for rep in reports:
                fh.write(json.dumps(rep.to_dict()) + "\n")
    failures = [rep for rep in reports if not rep.passed]
    by_name: dict[str, list] = {}
    for rep in reports:
        by_name.setdefault(rep.name, []).append(rep)
    for name, reps in sorted(by_name.items()):
        bad = sum(not r.passed for r in reps)
        status = "ok" if bad == 0 else f"FAIL ({bad}/{len(reps)})"
        print(f"{name:24s} {len(reps):5d} checks  {status}")
    if failures:
        print(f"{len(failures)} identity check(s) failed", file=sys.stderr)
        return 1
    return 0


def _eeg_shaped_forest(times_per_electrode: int = 256) -> ClassificationForest:
    """Synthetic two-criterion forest shaped like an EEG study: 6 brain
    regions over 61 electrodes, each electrode holding a block of
    hypotheses; boundary electrodes belong to two adjacent regions."""
    n_electrodes = 61
    n = n_electrodes * times_per_electrode
    core_per_region = 9  # 6 * 9 = 54 interior electrodes; 7 sit on margins
    regions: list[list[int]] = [
        list(range(r * core_per_region, (r + 1) * core_per_region)) for r in range(6)
    ]
    for b, e in enumerate(range(54, 61)):
        regions[b % 6].append(e)
        regions[(b + 1) % 6].append(e)

    def electrode_block(e):
        return np.arange(e * times_per_electrode, (e + 1) * times_per_electrode)

    level1 = []
    level2 = []
    for r, electrodes in enumerate(regions, start=1):
        level1.append(((r,), np.concatenate([electrode_block(e) for e in sorted(electrodes)])))
        for j, e in enumerate(sorted(electrodes), start=1):
            level2.append(((r, j), electrode_block(e)))
    tree = tree_from_levels(n, [level1, level2])
    return ClassificationForest(n=n, trees=(tree, tree))


def cmd_gen_spec(args) -> int:
    if args.layout == "simulation":
        tree = simulate.simulation_tree()
        forest = ClassificationForest(n=tree.n, trees=(tree,))
    elif args.layout == "eeg":
        forest = _eeg_shaped_forest()
    else:
        raise InputError(f"unknown layout {args.layout!r}")
    save_forest(forest, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupedbh",
        description="Weighted BH procedures for classified hypotheses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run a weighted BH test on p-values")
    p_test.add_argument("--pvalues", required=True)
    p_test.add_argument("--spec", help="classification spec JSON (hier/sway/gen)")
    p_test.add_argument("--method", default="flat", choices=["flat", "hier", "sway", "gen"])
    p_test.add_argument("--adaptive", action="store_true", help="estimate weights from the data")
    p_test.add_argument("--truth", help="0/1 labels, 1 = true null (required for oracle)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_test.add_argument("--out", help="output path (stdout if omitted)")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo density sweep")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=simulate.SimulationPlan.seed)
    p_sim.add_argument("--replicates", type=int, default=500)
    p_sim.add_argument("--rho-l1", type=float, default=0.0)
    p_sim.add_argument("--rho-l2", type=float, default=0.0)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_sim.add_argument("--grid", help="point count, or comma list of 1-pi0 values")
    p_sim.add_argument("--methods", default=",".join(simulate.METHODS))
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the algebraic identity sweep")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trials", type=int, default=200)
    p_val.add_argument("--out", help="machine-readable JSONL report path")
    p_val.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_val.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen-spec", help="emit a classification spec file")
    p_gen.add_argument("--layout", required=True, choices=["simulation", "eeg"])
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_spec)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

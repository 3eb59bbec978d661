"""Command line interface: run weighted BH tests on user data, run the
Monte Carlo study, run identity-check sweeps, and emit classification spec
files.

Exit codes: 0 success, 1 identity-check failure, 2 usage or input error,
141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended) when
the reader of the output closed it before the end.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import re
import sys
from collections import Counter

import numpy as np

from . import _pool
from .classification import (
    ClassificationForest,
    _read_spec,
    forest_from_dict,
    save_forest,
    tree_from_levels,
)
from .stepup import _check_inputs, _check_length, _check_level, outcome_metrics, weighted_bh
from .weights import _METHODS, _method_weights


def read_pvalues(path) -> np.ndarray:
    """One decimal per line, or CSV rows of exactly index,value, each index once; a first line
    in which no token is a number is a header and is skipped. Values must lie in [0, 1]. Read
    by _open_text; LF, CR LF and a lone CR end a line, and the line loop reports a byte not UTF-8."""
    with _open_text(path) as fh:
        arr = _read_pvalue_stream(fh, path)
    if arr.size == 0:
        raise ValueError(f"{path}: no p-values found")
    try:
        _check_inputs(arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")
    return arr


def _open_text(path):
    """A user's text file: one byte-order mark dropped, a byte that is not UTF-8 read as a lone surrogate."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


_READ_CHARS = 2**16
_PLAIN_BYTES = b"0123456789.eE+-\n"


def _read_pvalue_stream(fh, path) -> np.ndarray:
    """The p-values of a text stream, in one pass: line 1 unless blank or a header, then
    chunks of whole lines, each parsed in bulk when plain, else line by line. A plain chunk
    has a value per line, so needs no newline count; only the last can be one blank line."""
    first = fh.readline()
    lineno = 1 if _is_header(first) else 0
    chunk = "" if lineno else first
    parts, indexed = [np.empty(0)], {}
    while chunk or (chunk := fh.read(_READ_CHARS) + fh.readline()):
        values = _plain_values(chunk)
        if values is None:
            values = _read_pvalue_lines(chunk, path, lineno, indexed)
            lineno += chunk.count("\n")
        else:
            lineno += values.size
        parts.append(values)
        chunk = ""
    plain = np.concatenate(parts)
    if indexed and plain.size:
        raise ValueError(f"{path}: mixed plain and indexed rows")
    if indexed and sorted(indexed) != list(range(len(indexed))):
        raise ValueError(f"{path}: index column must cover 0..{len(indexed) - 1}")
    return np.array([indexed[i] for i in range(len(indexed))]) if indexed else plain


def _plain_values(lines: str) -> np.ndarray | None:
    """Whole lines in bulk, as one JSON array of a value per line; a JSON
    number has the value float() gives its text, except the integer -0,
    whose sign JSON drops. None, for the line loop, when a line is blank, a
    bare -0, no JSON number, or holds a character not in _PLAIN_BYTES."""
    import orjson

    body = lines.removesuffix("\n").encode(errors="surrogateescape")  # undecodable bytes come back as they were
    if body.translate(None, _PLAIN_BYTES):
        return None
    body = body.replace(b"\n", b",")  # rebound, so that no more than one copy of the text is held
    try:  # join, not %: a % format overallocates by a quarter
        values = np.array(orjson.loads(b"".join((b"[", body, b"]"))), dtype=float)
    except orjson.JSONDecodeError:  # a blank line, or a line of these bytes that is no number
        return None
    # a bare -0 parses to 0.0, so only a chunk holding a zero is searched for one
    if not values.all() and (body == b"-0" or body.startswith(b"-0,") or b",-0," in body or body.endswith(b",-0")):
        return None
    return values


def _read_pvalue_lines(lines: str, path, lineno: int, indexed: dict) -> np.ndarray:
    """The line loop: each of `lines`, the first being line lineno + 1, parsed
    alone. Returns the plain values; index,value rows go into `indexed`."""
    plain = []
    for lineno, line in enumerate(lines.split("\n"), lineno + 1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) > 2:
            raise ValueError(f"{path}:{lineno}: expected index,value, got {len(fields)} fields")
        try:
            val = float(fields[-1])
            idx = int(fields[0]) if len(fields) == 2 else None
        except ValueError:
            raise ValueError(f"{path}:{lineno}: cannot parse {line!r}")
        if idx is None:
            plain.append(val)
        elif idx in indexed:
            raise ValueError(f"{path}:{lineno}: index {idx} appears twice")
        else:
            indexed[idx] = val
    return np.array(plain, dtype=float)


def _is_header(line: str) -> bool:
    """A first line is a header when none of its comma- or
    whitespace-separated tokens reads as a number or starts like one (a
    digit, after an optional sign and point: a mistyped 0.1x is no
    header), and it holds no byte that is not UTF-8: such a line goes to
    the line loop, which reports it."""
    for token in line.replace(",", " ").split():
        if re.match(r"[+-]?\.?\d", token):  # compiled once, on the first call
            return False
        try:
            float(token)  # inf, nan
            return False
        except ValueError:
            pass
    return not any("\udc80" <= c <= "\udcff" for c in line)  # how surrogateescape reads such a byte


def read_truth(path) -> np.ndarray:
    """Truth labels, one per line: 1 marks a true null, 0 a false null."""
    with _open_text(path) as fh:
        vals = [line.strip() for line in fh if line.strip()]
    if not all(v in ("0", "1") for v in vals):
        raise ValueError(f"{path}: truth labels must be 0 or 1, one per line")
    return np.array([v == "1" for v in vals])


def _load_structure(args, n: int) -> ClassificationForest:
    if not args.spec:
        raise ValueError(f"--method {args.method} requires --spec")
    try:
        data = _read_spec(args.spec)
        size = data.get("n") if isinstance(data, dict) else None
        if type(size) is not int or size == n:  # a wrong N is reported before anything of size N is built
            return forest_from_dict(data)
    except (OSError, ValueError) as exc:
        raise ValueError(f"malformed classification spec {args.spec}: {exc}")
    raise ValueError(f"spec has N={size} but {n} p-values were supplied")


def _compute_weights(args, pvalues, truth) -> np.ndarray:
    if not args.adaptive and truth is None:
        raise ValueError("oracle methods require --truth")
    structure = None
    if args.method != "flat":
        structure = _load_structure(args, pvalues.size)
        if args.method == "hier":
            if structure.s_count != 1:
                raise ValueError(
                    f"--method hier needs a spec with exactly one tree, {args.spec} has "
                    f"{structure.s_count}; use --method gen for several"
                )
            (structure,) = structure.trees
    if not args.adaptive:
        _check_level("lambda", args.lam)  # unused by oracle weights, but written into the header
    return _method_weights(args.method, args.adaptive, structure, pvalues, truth, args.lam)


def cmd_test(args) -> int:
    pvalues = read_pvalues(args.pvalues)
    truth = read_truth(args.truth) if args.truth else None
    if truth is not None:
        _check_length(truth, pvalues.size, "truth labels")
    weights = _compute_weights(args, pvalues, truth)
    outcome = weighted_bh(pvalues, weights, args.alpha)
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
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("\n".join(lines) + "\n")
        _write_table(fh, pvalues, weights, outcome)
    return 0


_SPAN_ROWS = 2**15  # rows per item of work: fewer and the per-item cost shows, more and the queue holds more
_BLOCK_ROWS = 2**11
_REJECTED = np.array([",0\n", ",1\n"], dtype=object)


def _write_table(fh, pvalues, weights, outcome) -> None:
    """Write the rows "{},{!r},{!r},{!r},{:d}\n".format(i, p, w, wp, rejected),
    in blocks of _BLOCK_ROWS rows, each block with one write. `_table_span`
    makes the blocks of a span of _SPAN_ROWS rows at a time, through
    `_pool.imap`: on one forked worker per CPU of this process's affinity
    mask, or here on one CPU or for a table of one span."""
    n = pvalues.size
    columns = (pvalues, np.asarray(weights, dtype=np.float64), outcome.weighted_pvalues, outcome.rejected)
    spans = [(lo, min(lo + _SPAN_ROWS, n)) for lo in range(0, n, _SPAN_ROWS)]
    with _pool.imap(_table_span, columns, spans) as results:
        for blocks in results:
            for block in blocks:
                fh.write(block)


def _table_span(columns, span) -> list[str]:
    """The text of the table's rows lo..hi-1, span = (lo, hi), as a string
    per block of _BLOCK_ROWS rows."""
    pvalues, weights, weighted_pvalues, rejected = columns
    blocks = []
    for lo in range(*span, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, span[1])
        # repr once per distinct weight; unique by bit pattern keeps -0.0 apart from 0.0
        distinct, weight_ids = np.unique(weights[lo:hi].view(np.int64), return_inverse=True)
        weight_cells = np.array([f",{w!r}," for w in distinct.view(np.float64).tolist()], dtype=object)
        cells = [","] * (6 * (hi - lo))  # i "," p ",w," wp ",r\n" per row
        cells[0::6] = _reprs(np.arange(lo, hi))
        cells[2::6] = _reprs(pvalues[lo:hi])
        cells[3::6] = weight_cells[weight_ids].tolist()
        cells[4::6] = _reprs(weighted_pvalues[lo:hi])
        cells[5::6] = _REJECTED[rejected[lo:hi].view(np.uint8)].tolist()
        blocks.append("".join(cells))
    return blocks


def _reprs(values: np.ndarray) -> list[str]:
    """repr of each number of a contiguous int64 or float64 block, from one
    orjson call. orjson writes integers as repr does, and floats with the
    same shortest round-trip digits and, for |x| in [1e-4, 1e16), the same
    text. Outside that range, and for inf and nan, its notation differs
    (0.00001 for 1e-05, 1e16 for 1e+16, null for inf), so those cells come
    from repr itself."""
    import orjson

    cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(values)
    other = np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16)))
    for i, value in zip(other.tolist(), values[other].tolist()):
        cells[i] = repr(value)
    return cells


def _given(args, *own: str) -> tuple:
    """The values of the ``own`` options (None if not given), then a dict of the other options
    given: simulate and validate leave out the others (SUPPRESS), for the library's defaults."""
    given = {name: value for name, value in vars(args).items() if name not in ("command", "func")}
    return *(given.pop(name, None) for name in own), given


def cmd_simulate(args) -> int:
    from . import simulate

    out, grid, plan = _given(args, "out", "grid")
    if grid is not None:
        try:
            if grid.strip().isdecimal():  # a point count
                plan["one_minus_pi0_grid"] = simulate._grid(int(grid))
            else:  # a comma list of densities, maybe of one
                plan["one_minus_pi0_grid"] = tuple(float(v) for v in grid.split(","))
        except ValueError:
            raise ValueError(f"cannot parse --grid {grid!r}")
    simulate.write_summary_csv(simulate.run_study(simulate.SimulationPlan(**plan)), out)
    return 0


def cmd_validate(args) -> int:
    from . import identities

    out, sweep = _given(args, "out")
    reports = identities.run_sweep(**sweep)
    if out:
        with open(out, "w") as fh:
            for rep in reports:
                fh.write(json.dumps(rep.to_dict()) + "\n")
    checks = Counter(rep.name for rep in reports)
    failed = Counter(rep.name for rep in reports if not rep.passed)
    for name, count in sorted(checks.items()):
        status = "ok" if not failed[name] else f"FAIL ({failed[name]}/{count})"
        print(f"{name:24s} {count:5d} checks  {status}")
    if failed:
        print(f"{sum(failed.values())} identity check(s) failed", file=sys.stderr)
        return 1
    return 0


def _eeg_shaped_forest(times_per_electrode: int = 256) -> ClassificationForest:
    """Synthetic forest shaped like an EEG study's location criterion: 6
    brain regions over 61 electrodes, each electrode holding a block of
    hypotheses; boundary electrodes belong to two adjacent regions. That one
    tree is given as both trees, so `gen` on it gives the `hier` weights of
    the tree; there is no second (time) criterion yet."""
    blocks = np.arange(61 * times_per_electrode).reshape(61, times_per_electrode)  # row e: electrode e's block
    regions = [list(range(9 * r, 9 * r + 9)) for r in range(6)]  # 6 * 9 = 54 interior electrodes; 7 sit on margins
    for b, e in enumerate(range(54, 61)):
        regions[b % 6].append(e)
        regions[(b + 1) % 6].append(e)
    regions = [sorted(electrodes) for electrodes in regions]
    level1 = [((r,), blocks[electrodes].ravel()) for r, electrodes in enumerate(regions, 1)]
    level2 = [((r, j), blocks[e]) for r, electrodes in enumerate(regions, 1) for j, e in enumerate(electrodes, 1)]
    tree = tree_from_levels(blocks.size, [level1, level2])
    return ClassificationForest(n=tree.n, trees=(tree, tree))


def cmd_gen_spec(args) -> int:
    if args.layout == "simulation":
        from . import simulate

        tree = simulate.simulation_tree()
        forest = ClassificationForest(n=tree.n, trees=(tree,))
    else:  # "eeg": argparse admits no other layout
        forest = _eeg_shaped_forest()
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
    p_test.add_argument("--method", default="flat", choices=list(_METHODS))
    p_test.add_argument("--adaptive", action="store_true", help="estimate weights from the data")
    p_test.add_argument("--truth", help="0/1 labels, 1 = true null (required for oracle)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p_test.add_argument("--out", help="output path (stdout if omitted)")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo density sweep", argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--replicates", type=int)
    p_sim.add_argument("--rho-l1", type=float)
    p_sim.add_argument("--rho-l2", type=float)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--lambda", dest="lam", type=float)
    p_sim.add_argument(
        "--grid", help="an integer point count, else a comma list of 1-pi0 values (0.5 is one point)"
    )
    p_sim.add_argument(  # a blank list is no method, which the plan rejects
        "--methods", type=lambda names: tuple(name.strip() for name in names.split(",")) if names.strip() else ()
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="run the algebraic identity sweep", argument_default=argparse.SUPPRESS)
    p_val.add_argument("--seed", type=int)
    p_val.add_argument("--trials", type=int)
    p_val.add_argument("--out", help="machine-readable JSONL report path")
    p_val.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_val.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen-spec", help="emit a classification spec file")
    p_gen.add_argument("--layout", required=True, choices=["simulation", "eeg"])
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen_spec)
    return parser


def main(argv=None) -> int:
    # At exit, freeze every live object before the interpreter's last collections, so that they
    # do not walk all of numpy and scipy just before the process frees that memory anyway. Cyclic
    # garbage still alive then is not finalized: every file written here is closed by a `with`
    # before `main` returns, and the interpreter flushes stdout and stderr itself. Registered once
    # per process, however often `main` runs; forked pool workers leave through os._exit.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader of the output stopped early, like `head`: no error of ours
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the flush at exit
        return 128 + 13  # 13 is SIGPIPE
    except (ValueError, OSError) as exc:  # OSError: an unreadable input or unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

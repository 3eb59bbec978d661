import ast
import decimal
import errno
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupedbh
from groupedbh import _pool, cli, identities, simulate
from groupedbh.classification import load_forest, validate_forest
from groupedbh.cli import main, read_pvalues, read_truth
from groupedbh.stepup import weighted_bh
from groupedbh.weights import oracle_hier_weights


def write_lines(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


PACKAGE_ENV = {**os.environ, "PYTHONPATH": str(Path(groupedbh.__file__).resolve().parents[1])}


def run_python(*args, cpus=None, text=True, input=None):
    """Run the interpreter in a fresh process that imports this package,
    on the given set of CPUs (by default the ones this process may use),
    with ``input`` on its stdin. With text=False its stdout and stderr are
    the raw bytes it wrote."""
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    return subprocess.run([sys.executable, *args], env=PACKAGE_ENV, capture_output=True, text=text,
                          timeout=300, preexec_fn=pin, input=input)


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
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            read_pvalues(f)

    def test_rejects_nan_line(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        write_lines(f, [0.1, "nan", 0.3])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            read_pvalues(f)
        assert main(["test", "--pvalues", str(f), "--method", "flat", "--adaptive"]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_rejects_repeated_index(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("index,pvalue\n0,0.1\n1,0.9\n1,0.5\n")
        with pytest.raises(ValueError, match="index 1 appears twice"):
            read_pvalues(f)

    def test_index_column_with_a_gap_exits_2(self, tmp_path, capsys):
        f = tmp_path / "p.csv"
        f.write_text("index,pvalue\n0,0.1\n2,0.5\n")
        assert main(["test", "--pvalues", str(f), "--method", "flat", "--adaptive"]) == 2
        assert capsys.readouterr().err == f"error: {f}: index column must cover 0..1\n"

    @pytest.mark.parametrize("first", ["nan", "inf", "-inf"])
    def test_non_finite_first_line_is_data_not_a_header(self, tmp_path, capsys, first):
        # no token of it starts like a number, but it is one, so it is read and rejected
        f = tmp_path / "p.txt"
        write_lines(f, [first, 0.2])
        assert main(["test", "--pvalues", str(f), "--method", "flat", "--adaptive"]) == 2
        assert capsys.readouterr().err == f"error: {f}: p-values must lie in [0, 1]\n"

    def test_truth_labels(self, tmp_path):
        f = tmp_path / "t.txt"
        write_lines(f, [1, 0, 1])
        assert read_truth(f).tolist() == [True, False, True]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0.1 0.2\n0.3\n", 1),
            ("0.1\n0.2 0.3\n", 2),
            ("0,0.1,junk\n1,0.2\n", 1),
            ("index,pvalue\n0,0.1\n1,0.2,0.3\n", 3),
            ("index,pvalue,note\n0,0.1,a\n", 2),
            ("0.1\r0.2 0.3\r0.4\r", 2),
            ("0.1\n0.2\udce9\n0.3\n", 2),
            ("0.1\udce9\n0.2\n", 1),
            ("0.1x\n0.2\n", 1),
            ("-.5x\n0.2\n", 1),
        ],
        ids=["pair-first", "pair-later", "three-fields-first", "three-fields-later", "three-columns", "cr",
             "not-utf-8", "not-utf-8-first", "mistyped-first", "mistyped-signed-first"],
    )
    def test_bad_row_exits_2_with_its_line(self, tmp_path, capsys, text, line):
        # a first line holding a number is data, not a header, and a CSV
        # row is exactly index,value; a byte that is not UTF-8 (here 0xe9,
        # written from its surrogate) was a codec error with no path or line,
        # and on line 1 it makes no header, so no value is dropped unreported;
        # nor does a token that starts like a number (0.1x was skipped as one)
        f = tmp_path / "p.txt"
        f.write_bytes(text.encode(errors="surrogateescape"))
        with pytest.raises(ValueError, match=f"^{re.escape(str(f))}:{line}: "):
            read_pvalues(f)
        assert main(["test", "--pvalues", str(f), "--method", "flat", "--adaptive"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {f}:{line}: ")

    @pytest.mark.parametrize(
        "text, values",
        [
            ("p value\n0.1\n", [0.1]),
            ("index, p\n1,0.2\n0,0.1\n", [0.1, 0.2]),
            ("id,p,note\n0,0.1\n", [0.1]),
            ("pvalue\n0.1\n", [0.1]),
            ("index,pvalue\n0,0.1\n", [0.1]),
            ("-log10p\n0.1\n", [0.1]),
        ],
        ids=["words", "csv", "three-names", "one-name", "index-and-name", "signed-name"],
    )
    def test_header_without_a_number_is_skipped(self, tmp_path, text, values):
        f = tmp_path / "p.txt"
        f.write_text(text)
        assert read_pvalues(f).tolist() == values

    @pytest.mark.parametrize(
        "text",
        [
            "0.1\n0.2\n",
            "  0.1 \n\t0.2\n",
            "pvalue\n0.1\n0.2\n",
            "index,pvalue\n1,0.9\n0,0.1\n",
            "0.1\n\n0.2\n\n",
            "0.1\r\n0.2\r\n",
            "0.1 0.2\n0.3\n",
            "0.3\n0.1 0.2\n",
            "0.1\nnan\n",
            "",
            "0.5\n-0\n",
            "-0",
            "-0.0\n-0e0\n0\n1\n",
            "0.5\n1e400\n",
            "1e-400\n0.5",
            "true\n",
            "null\n",
            "[0.5]\n",
            '"0.5"\n',
            "0.1\n1,2\n",
            "\n\n",
            "0.5\n.5\n5.\n+0.5\n05e-1\n",
            "e\n0.5\n",
            "0." + "0" * 70000 + "5\n0.25\n",
            "pvalue\n" + "0.5\n" * 20000,
            "0.5\n" * 20000 + "0,0.1\n",
            "0.5\n" * 20000 + "0.1 0.2\n0.3\n",
            "0.5\r\n-0\r\n",
            "0.1\n\r0.2\n",
            "0.1\r0.2\r",
            "pvalue\r0.1\r0.2\r",
            "0.5\r\n" * 20000 + "0,0.1\r\n",
            "0.5\r\n" * 20000 + "0.1 0.2\r\n0.3\r\n",
            "\ufeff0.5\n0.25\n",
            "pvalue\n\n0.5 0.6",
            "0.5\r" * 20000 + "0,0.1\r",
            "0.5\r" * 20000 + "0.1 0.2\r0.3\r",
            "0.1\n0.2\udce9\n0.3\n",
            "0.5\n" * 20000 + "0.2\udce9\n",
            "0.1\udce9\n0.2\n",
            "0.5\n-0\n0.25\n",
            "0.5\n0.25\n-0\n0.75\n",
            "0.5\n0.25\n-0\n",
        ],
        ids=["plain", "padded", "header", "csv", "blank", "crlf", "pair-first", "pair-later", "nan",
             "empty", "minus-zero", "minus-zero-last", "signed-zeros", "overflow", "underflow", "true",
             "null", "array", "string", "plain-then-csv", "only-blank", "not-json", "e-header",
             "line-past-a-chunk", "header-then-chunks", "csv-past-a-chunk", "bad-row-past-a-chunk",
             "crlf-minus-zero", "lf-cr", "cr", "cr-header", "csv-past-crlf-chunks",
             "bad-row-past-crlf-chunks", "bom", "blank-line-alone-in-a-chunk", "csv-past-cr-chunks",
             "bad-row-past-cr-chunks", "not-utf-8", "not-utf-8-past-a-chunk", "not-utf-8-first",
             "minus-zero-first-of-a-chunk", "minus-zero-inside-a-chunk", "minus-zero-last-of-a-chunk"],
    )
    def test_streamed_parse_matches_the_line_loop(self, tmp_path, monkeypatch, text):
        # the bulk parse must give what the per-line loop gives, the same
        # bits (-0.0 too) or the same error on the same line; with no chunk
        # plain, the loop reads all of the file after the header decision
        f = tmp_path / "p.txt"
        f.write_bytes(text.encode(errors="surrogateescape"))  # a lone surrogate: a byte that is not UTF-8

        def parse():
            try:
                return read_pvalues(f).tobytes()
            except ValueError as exc:
                return str(exc)

        bulk = parse()
        monkeypatch.setattr(cli, "_plain_values", lambda lines: None)
        assert parse() == bulk

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
    def test_headed_file_is_read_in_bulk(self, tmp_path, monkeypatch, bom):
        # the header is decided once, on line 1; the lines after it are
        # plain, so the line loop is never entered
        f = tmp_path / "p.txt"
        f.write_text(bom + "pvalue\r\n" + "0.5\r\n" * 20000 + "0.25\r\n")
        assert f.stat().st_size > cli._READ_CHARS
        monkeypatch.setattr(cli, "_read_pvalue_lines", None)  # calling it would raise TypeError
        assert read_pvalues(f).tolist() == [0.5] * 20000 + [0.25]

    @pytest.mark.parametrize(
        "text, values",
        [
            ("\ufeff0.01\n0.2\n0.5\n", [0.01, 0.2, 0.5]),
            ("\ufeffpvalue\n0.1\n0.2\n", [0.1, 0.2]),
            ("\ufeff0,0.1\n1,0.2\n", [0.1, 0.2]),
        ],
        ids=["number", "header", "csv-row"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, text, values):
        # a byte-order mark made line 1 a "header", silently dropping a value
        f = tmp_path / "p.txt"
        f.write_text(text, encoding="utf-8")
        assert read_pvalues(f).tolist() == values
        assert main(["test", "--pvalues", str(f), "--method", "flat", "--adaptive"]) == 0
        assert f"# n={len(values)}\n" in capsys.readouterr().out

    def test_truth_labels_after_a_byte_order_mark(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("\ufeff1\n0\n1\n", encoding="utf-8")
        assert read_truth(f).tolist() == [True, False, True]

    def test_truth_label_not_utf_8_exits_2_with_the_path(self, tmp_path, capsys):
        # printed the codec error, with no path: "'utf-8' codec can't decode byte 0xe9"
        pfile, truth = tmp_path / "p.txt", tmp_path / "t.txt"
        write_lines(pfile, [0.1, 0.2])
        truth.write_bytes(b"1\n0\xe9\n")
        message = f"{truth}: truth labels must be 0 or 1, one per line"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_truth(truth)
        assert main(["test", "--pvalues", str(pfile), "--truth", str(truth)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_lone_cr_file_is_read_a_chunk_at_a_time(self, tmp_path):
        # its lines were read whole as "line 1", with copies: a peak of 24x
        # the chunk here. Now 3.62x: the chunk, the text stream's buffers
        # (about 0.3x) and two copies in _plain_values (encoded, then joined
        # in brackets). Long values keep the result array small
        import tracemalloc

        f = tmp_path / "p.txt"
        value = "0." + "1234567890" * 30
        f.write_bytes(("pvalue\r" + f"{value}\r" * (8 * cli._READ_CHARS // len(value))).encode())
        read_pvalues(f)  # so that first-call imports and caches are not counted
        tracemalloc.start()
        try:
            size = read_pvalues(f).size
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == 8 * cli._READ_CHARS // len(value)
        assert peak < 4 * cli._READ_CHARS


def _writer_corpus() -> np.ndarray:
    """Seeded float64 values for the table writer, most in [1e-4, 1e16),
    where orjson's text is used, and the boundaries of that range."""
    rng = np.random.default_rng(20181)
    size = 2**15
    sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1009, 1077, size, dtype=np.uint64) << np.uint64(52)  # 2**-14 .. 2**53
    mantissa = rng.integers(0, 2**52, size, dtype=np.uint64)
    powers = 2.0 ** np.arange(-1074, 1024)
    near_2_53 = 2.0**53 + np.arange(-2**12, 2**12)
    p = rng.uniform(size=size)
    edges = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
             1e-310, -1e-310, np.inf, -np.inf, np.nan, 1.0, 0.1, 1 / 3, 0.24999999999999997]
    return np.concatenate([
        rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64),  # any bit pattern
        (sign | exponent | mantissa).view(np.float64),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        rng.integers(-2**53, 2**53, size).astype(float), near_2_53, -near_2_53,
        [float("%.*f" % (k, x)) for k, x in zip(rng.integers(1, 9, size).tolist(), rng.uniform(0, 1000, size))],
        p, p**8, np.exp(-rng.uniform(0, 20, size)),  # p-values, some small
        p * rng.uniform(0, 5, size), p * 19 / 17,  # weighted p-values
        edges,
    ])


def _reader_corpus() -> list[str]:
    """Decimal strings in the JSON number grammar for the bulk reader."""
    rng = np.random.default_rng(20182)
    values = _writer_corpus()
    values = values[np.isfinite(values)][:: 7]
    lines = [f for v in values.tolist() for f in (repr(v), "%.17g" % v, "%.25e" % v)]
    for _ in range(2**13):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 41))))
        digits = str(rng.integers(1, 10)) + digits[1:]
        sign = "-" if rng.integers(2) else ""
        point = rng.integers(1, len(digits) + 1)
        mantissa = digits[:point] + ("." + digits[point:] if point < len(digits) else "")
        top = 300 - point  # below 1e301: JSON has no inf
        lines.append(sign + mantissa + ["", f"e{rng.integers(-340, top)}", f"E+{rng.integers(0, top)}"][rng.integers(3)])
    decimal.getcontext().prec = 2000
    for x in np.exp(rng.uniform(-700, 700, 2**11)).tolist() + (2.0 ** np.arange(-1070, 1020, 7)).tolist():
        halfway = (decimal.Decimal(x) + decimal.Decimal(np.nextafter(x, np.inf))) / 2  # exact: ties to even
        lines.append(format(halfway, "e"))
    return lines


class TestCodec:
    def test_block_writer_cells_equal_repr(self):
        values = _writer_corpus()
        for lo in range(0, values.size, cli._BLOCK_ROWS):
            block = values[lo:lo + cli._BLOCK_ROWS]
            assert cli._reprs(block) == list(map(repr, block.tolist()))
        assert cli._reprs(np.arange(2**53 - 10, 2**53 + 10)) == list(map(repr, range(2**53 - 10, 2**53 + 10)))

    def test_bulk_reader_equals_float_per_line(self, monkeypatch):
        lines = _reader_corpus()
        text = "\n".join(lines) + "\n"
        assert len(text) > 8 * cli._READ_CHARS  # lines straddle the chunks
        monkeypatch.setattr(cli, "_read_pvalue_lines", None)  # the corpus must take the bulk path
        bulk = cli._read_pvalue_stream(io.StringIO(text), "corpus")
        assert bulk.tobytes() == np.array([float(line) for line in lines]).tobytes()


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

    @pytest.mark.parametrize("method", ["hier", "sway", "gen"])
    def test_structured_method_without_a_spec_exits_2(self, tmp_path, capsys, method):
        f = tmp_path / "p.txt"
        write_lines(f, [0.1, 0.2])
        assert main(["test", "--pvalues", str(f), "--method", method, "--adaptive"]) == 2
        assert capsys.readouterr().err == f"error: --method {method} requires --spec\n"

    def test_truth_of_wrong_length_exit_2(self, tmp_path, capsys):
        pfile, tfile = tmp_path / "p.txt", tmp_path / "t.txt"
        write_lines(pfile, [0.1, 0.2, 0.3])
        write_lines(tfile, [1, 0])
        assert main(["test", "--pvalues", str(pfile), "--method", "flat", "--truth", str(tfile)]) == 2
        assert "length mismatch: 2 truth labels for 3 hypotheses" in capsys.readouterr().err

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

    def test_spec_nested_past_the_decoder_limit_exits_2(self, tmp_path, capsys):
        # ended in a RecursionError traceback and exit 1
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1, 0.2])
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 100000 + "]" * 100000)
        rc = main(["test", "--pvalues", str(pfile), "--method", "gen", "--adaptive", "--spec", str(spec)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: malformed classification spec {spec}: nested too deeply to decode\n"

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ([1], ""),
            ({"n": 3, "trees": 3}, ""),
            ({"n": 3, "trees": [{"levels": [[{"path": [1], "members": 5}]]}]}, ""),
            ({"n": 3, "trees": [{"levels": [[{"path": [1.7], "members": [[0, 3]]}]]}]}, ""),
            ({"n": 3.9, "trees": [{"levels": [[{"path": [1], "members": [[0, 3]]}]]}]}, ""),
            (
                {
                    "n": 3,
                    "trees": [
                        {"levels": [[{"path": [1], "members": [[0, 3]]}], [{"path": "11", "members": [[0, 3]]}]]}
                    ],
                },
                "",
            ),
            ({"n": 3, "trees": [{"levels": [[{"path": [1], "members": [[0, 10000000]]}]]}]}, ""),
            ({"n": 3, "trees": [{"levels": [[{"path": [1], "members": [[0, 3], [2, 0]]}]]}]}, ""),
            # these reported a bare unpack error: "too many values to unpack (expected 2)"
            (
                {"n": 3, "trees": [{"levels": [[{"path": [1], "members": [[0, 1, 3]]}]]}]},
                ": a run must be [start, stop], got [0, 1, 3]\n",
            ),
            (
                {"n": 3, "trees": [{"levels": [[{"path": [1], "members": [[0]]}]]}]},
                ": a run must be [start, stop], got [0]\n",
            ),
        ],
        ids=[
            "top-level-list", "trees-int", "members-int", "path-float", "n-float", "path-str",
            "run-past-n", "run-reversed", "run-three-bounds", "run-one-bound",
        ],
    )
    def test_misshapen_or_non_integer_spec_exits_2(self, tmp_path, capsys, spec, problem):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1, 0.5, 0.9])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["test", "--pvalues", str(pfile), "--method", "gen", "--adaptive", "--spec", str(path)])
        assert rc == 2
        assert f"error: malformed classification spec {path}{problem}" in capsys.readouterr().err

    def test_huge_n_is_compared_before_anything_is_built(self, tmp_path, capsys):
        # np.arange(n) was allocated first: a MemoryError traceback and exit 1
        pfile, path = tmp_path / "p.txt", tmp_path / "spec.json"
        write_lines(pfile, [0.1, 0.5, 0.9])
        path.write_text(json.dumps({"n": 10**13, "trees": [{"levels": []}]}))
        rc = main(["test", "--pvalues", str(pfile), "--method", "gen", "--adaptive", "--spec", str(path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: spec has N=10000000000000 but 3 p-values were supplied\n"

    @pytest.mark.parametrize(
        "groups, problem",
        [
            ([[[0, 2]], [[3, 6]]], "children of () do not cover the parent"),
            ([[[0, 3]], [[3, 6], 7]], "index out of range [0, 6) at path (2,); child (2,) not contained in parent ()"),
            # members spanning more than the int64 range still give keys that fit in int64
            ([[[0, 6], -(2**63), 2**63 - 1]], "index out of range [0, 6) at path (1,); child (1,) not contained in parent ()"),
        ],
        ids=["coverage-gap", "member-past-n", "members-span-past-int64"],
    )
    def test_structurally_invalid_spec_exits_2(self, tmp_path, capsys, groups, problem):
        pfile, path = tmp_path / "p.txt", tmp_path / "spec.json"
        write_lines(pfile, [0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
        bad = {"levels": [[{"path": [j], "members": members} for j, members in enumerate(groups, start=1)]]}
        good = {"levels": [[{"path": [1], "members": [[0, 6]]}]]}
        path.write_text(json.dumps({"n": 6, "trees": [good, bad]}))
        rc = main(["test", "--pvalues", str(pfile), "--method", "gen", "--adaptive", "--spec", str(path)])
        assert rc == 2
        assert f"error: malformed classification spec {path}: tree 1: {problem}\n" in capsys.readouterr().err

    def test_oversized_run_is_rejected_before_it_is_allocated(self, tmp_path):
        # a run is checked against [0, n] before it is expanded; expanding
        # [0, 10^7) first and validating after peaked at 434 MB
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.1, 0.5, 0.9])
        spec = tmp_path / "spec.json"
        levels = [[{"path": [1], "members": [[0, 10000000]]}]]
        spec.write_text(json.dumps({"n": 3, "trees": [{"levels": levels}]}))
        # a small parent process, so the child's peak holds no memory it inherited
        code = (
            "import resource, subprocess, sys; "
            "rc = subprocess.run(sys.argv[1:], capture_output=True).returncode; "
            "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        cli = [sys.executable, "-m", "groupedbh.cli", "test", "--pvalues", str(pfile)]
        run = run_python("-c", code, *cli, "--method", "gen", "--adaptive", "--spec", str(spec))
        rc, max_rss_kb = map(int, run.stdout.split())
        assert rc == 2
        assert max_rss_kb < 150 * 1024

    def test_repeated_runs_are_merged_before_they_are_allocated(self, tmp_path):
        # each run lies within [0, n], but expanding the same run 20 times
        # before merging peaked at 384 MB for this 349-byte spec
        n = 10**6
        pfile = tmp_path / "p.txt"
        pfile.write_text("0.5\n" * n)
        spec = tmp_path / "spec.json"
        levels = [[{"path": [1], "members": [[0, n]] * 20}]]
        spec.write_text(json.dumps({"n": n, "trees": [{"levels": levels}]}))
        out = tmp_path / "out.csv"
        code = (
            "import resource, subprocess, sys; "
            "run = subprocess.run(sys.argv[1:], capture_output=True, text=True); "
            "print(run.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, repr(run.stderr))"
        )
        cli = [sys.executable, "-m", "groupedbh.cli", "test", "--pvalues", str(pfile), "--out", str(out)]
        run = run_python("-c", code, *cli, "--method", "gen", "--adaptive", "--spec", str(spec))
        rc, max_rss_kb, stderr = run.stdout.split(maxsplit=2)
        assert (rc, stderr) == ("0", "''\n")  # past the N check, through the decoder and the test
        table = out.read_text()
        assert table.count("\n") == 8 + n and "\n999999,0.5," in table
        assert int(max_rss_kb) < 150 * 1024

    def test_table_bytes_are_pinned(self, tmp_path):
        # an all-null group (inf weights, p = 0 under one), a group with no
        # nulls (0 weights), two weighted p-values exactly on the rank-5
        # threshold and one a ulp above the rank-6 threshold
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.0, 0.5, 1.0, 0.9, 0.3, 1.0, 0.24999999999999997, 0.3000000000000001,
                            0.24999999999999997])
        tfile = tmp_path / "t.txt"
        write_lines(tfile, [1, 1, 1, 0, 0, 0, 1, 0, 1])
        spec = tmp_path / "spec.json"
        levels = [[{"path": [1], "members": [[0, 3]]}, {"path": [2], "members": [3, 4, 5]},
                   {"path": [3], "members": [[6, 9]]}]]
        spec.write_text(json.dumps({"n": 9, "trees": [{"levels": levels}]}))
        out = tmp_path / "result.csv"
        args = ["-m", "groupedbh.cli", "test", "--pvalues", str(pfile), "--method", "hier",
                "--spec", str(spec), "--truth", str(tfile), "--alpha", "0.1"]
        expected = (
            "# method=hier\n"
            "# adaptive=False\n"
            "# alpha=0.1\n"
            "# lambda=0.5\n"
            "# n=9\n"
            "# rejections=5\n"
            "# threshold_index=5\n"
            "# fdp=0.4\n"
            "# power=0.75\n"
            "index,pvalue,weight,weighted_pvalue,rejected\n"
            "0,0.0,inf,inf,0\n"
            "1,0.5,inf,inf,0\n"
            "2,1.0,inf,inf,0\n"
            "3,0.9,0.0,0.0,1\n"
            "4,0.3,0.0,0.0,1\n"
            "5,1.0,0.0,0.0,1\n"
            "6,0.24999999999999997,0.22222222222222224,0.05555555555555555,1\n"
            "7,0.3000000000000001,0.22222222222222224,0.0666666666666667,0\n"
            "8,0.24999999999999997,0.22222222222222224,0.05555555555555555,1\n"
        )
        run = run_python(*args)
        assert run.returncode == 0, run.stderr
        assert run.stdout == expected
        assert run_python(*args, "--out", str(out)).returncode == 0
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_table_bytes_match_the_per_row_reference(self, tmp_path, to_file):
        # the pinned table tiled 14564 times: N = 131076 rows, 64 blocks of
        # 2**11 rows and 4 more; it keeps inf and 0 weights, p = 0 under an
        # inf weight and weighted p-values tied exactly on the last rejected
        # rank's threshold
        copies = 14564
        pvalues = np.tile([0.0, 0.5, 1.0, 0.9, 0.3, 1.0, 0.24999999999999997, 0.3000000000000001,
                           0.24999999999999997], copies)
        truth = np.tile([1, 1, 1, 0, 0, 0, 1, 0, 1], copies)
        n = pvalues.size
        pfile, tfile, spec = tmp_path / "p.txt", tmp_path / "t.txt", tmp_path / "spec.json"
        write_lines(pfile, pvalues.tolist())
        write_lines(tfile, truth.tolist())
        levels = [[{"path": [g + 1], "members": [[s, s + 3] for s in range(3 * g, n, 9)]}
                   for g in range(3)]]
        spec.write_text(json.dumps({"n": n, "trees": [{"levels": levels}]}))
        weights = oracle_hier_weights(load_forest(spec).trees[0], truth == 1)
        outcome = weighted_bh(pvalues, weights, 0.1)
        threshold = 0.1 * outcome.threshold_index / n
        assert (outcome.weighted_pvalues == threshold).sum() == 2 * copies
        assert np.isinf(weights).any() and (weights == 0).any()
        reference = "".join(map(
            "{},{!r},{!r},{!r},{:d}\n".format, range(n), pvalues.tolist(), weights.tolist(),
            outcome.weighted_pvalues.tolist(), outcome.rejected.tolist(),
        )).encode()
        out = tmp_path / "result.csv"
        args = ["test", "--pvalues", str(pfile), "--method", "hier", "--spec", str(spec),
                "--truth", str(tfile), "--alpha", "0.1"] + (["--out", str(out)] if to_file else [])
        run = run_python("-m", "groupedbh.cli", *args, text=False)
        assert run.returncode == 0, run.stderr
        table = out.read_bytes() if to_file else run.stdout
        header, _, rows = table.partition(b"index,pvalue,weight,weighted_pvalue,rejected\n")
        assert rows == reference
        assert header.startswith(b"# method=hier\n") and header.endswith(b"# power=0.75\n")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_table_is_the_same_bytes_on_one_cpu_and_on_all(self, tmp_path, monkeypatch, to_file):
        # 5 spans of the table, formatted here on one CPU and on forked
        # workers on all; on a buffered stdout, a worker that flushed the
        # header it inherited would write it a second time
        monkeypatch.delitem(PACKAGE_ENV, "PYTHONUNBUFFERED", raising=False)
        pfile, out = tmp_path / "p.txt", tmp_path / "result.csv"
        pvalues = np.random.default_rng(7).uniform(size=4 * cli._SPAN_ROWS + 5) ** 4
        write_lines(pfile, pvalues.tolist())
        args = ["-m", "groupedbh.cli", "test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"]
        mask = os.sched_getaffinity(0)
        tables = []
        for cpus in ({min(mask)}, mask):
            run = run_python(*args, *(["--out", str(out)] if to_file else []), cpus=cpus, text=False)
            assert (run.returncode, run.stderr) == (0, b"")
            tables.append(out.read_bytes() if to_file else run.stdout)
        assert tables[0] == tables[1]
        assert tables[0].count(b"# method=flat\n") == 1
        assert tables[0].count(b"\n") == 8 + pvalues.size

    def test_failed_write_exits_2(self, tmp_path, monkeypatch, capsys, no_child_left):
        # 4 spans of the table, formatted on forked workers, which must all
        # be gone when main returns
        pfile = tmp_path / "p.txt"
        write_lines(pfile, np.linspace(0.0, 1.0, 2**17).tolist())
        assert 2**17 // cli._SPAN_ROWS > 2
        monkeypatch.setattr(_pool, "cpu_count", lambda: 2)
        writes = []

        class FullDisk(io.StringIO):
            def write(self, text):
                writes.append(text)
                if len(writes) > 1:  # the header is written, then the device fills up
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", FullDisk())
        rc = main(["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [Errno 28] No space left on device")
        header, first_block = writes  # nothing is written after the failed block
        assert header.startswith("# method=flat\n") and first_block.startswith("0,0.0,")
        no_child_left()

    @pytest.mark.parametrize(
        "option, message", [(["--alpha", "2"], "alpha"), (["--lambda", "1.5"], "lambda")]
    )
    def test_out_of_range_level_exits_2(self, tmp_path, capsys, option, message):
        pfile = tmp_path / "p.txt"
        write_lines(pfile, [0.01, 0.5, 0.9])
        rc = main(["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"] + option)
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["7", "nan", "0", "1"])
    @pytest.mark.parametrize("method", ["flat", "hier", "sway", "gen"])
    @pytest.mark.parametrize("mode", ["oracle", "adaptive"])
    def test_lambda_is_checked_for_every_method(self, tmp_path, capsys, lam, method, mode):
        # an oracle run does not use lambda, but writes it into its header
        pfile, tfile, spec = tmp_path / "p.txt", tmp_path / "t.txt", tmp_path / "spec.json"
        write_lines(pfile, [0.01, 0.5, 0.9, 0.2, 0.7, 0.03])
        write_lines(tfile, [1, 0, 1, 1, 0, 1])
        levels = [[{"path": [1], "members": [[0, 3]]}, {"path": [2], "members": [[3, 6]]}]]
        spec.write_text(json.dumps({"n": 6, "trees": [{"levels": levels}]}))
        given = ["--adaptive"] if mode == "adaptive" else ["--truth", str(tfile)]
        argv = ["test", "--pvalues", str(pfile), "--method", method, "--spec", str(spec), *given]
        assert main(argv + ["--lambda", lam]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: lambda must lie in (0, 1), got {float(lam)}\n")
        assert main(argv) == 0  # the default lambda


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

    @pytest.mark.parametrize(
        "name, extra",
        [("simulate_rho0.csv", []), ("simulate_rho03_04.csv", ["--rho-l1", "0.3", "--rho-l2", "0.4"])],
    )
    def test_fixture_bytes_on_one_cpu_and_on_all(self, tmp_path, name, extra):
        # 3 blocks of 20 replicates: one worker per CPU runs them, or this process on one CPU
        out = tmp_path / name
        args = ["-m", "groupedbh.cli", "simulate", "--out", str(out), "--replicates", "20",
                "--grid", "3", "--seed", "20240", *extra]
        cpus = os.sched_getaffinity(0)
        for mask in ({min(cpus)}, cpus):
            out.unlink(missing_ok=True)
            run = run_python(*args, cpus=mask)
            assert run.returncode == 0, run.stderr
            assert out.read_bytes() == (FIXTURES / name).read_bytes()

    @pytest.mark.parametrize(
        "args, message",
        [(["--seed", "-1"], "seed must be >= 0"),
         (["--methods", "BH,HeirGBH,BH"], "repeated methods: ['BH']"),
         (["--methods", "BH,XBH"], "unknown methods: ['XBH'] (known: BH, AdaptiveBH, HeirGBH, DAHeirGBH)"),
         (["--grid", "0.5,0,0.5"], "repeated densities: [0.5]"),
         (["--grid", "0.5,x"], "cannot parse --grid '0.5,x'"),
         (["--grid", "1.5"], "density grid values must lie in [0, 1]"),
         (["--grid", ""], "cannot parse --grid ''"),  # ran the 11-point default grid, exit 0
         (["--methods", ""], "error: methods must not be empty\n"),  # reported "unknown methods: ['']"
         (["--methods", " , "], "unknown methods: ['']"),
         (["--methods", "BH, XBH "], "unknown methods: ['XBH']")],
        ids=["negative-seed", "repeated-method", "unknown-method", "repeated-density", "unparsable-grid",
             "grid-out-of-range", "empty-grid", "empty-methods", "blank-method", "spaced-unknown-method"],
    )
    def test_bad_seed_or_methods_exit_2(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--out", str(out), "--replicates", "1", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

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

    @pytest.mark.parametrize("grid", ["0.5", "1.0"])
    def test_grid_of_one_density(self, tmp_path, grid):
        # an integer is a point count; any other token is a list of densities
        out = tmp_path / "g.csv"
        rc = main(["simulate", "--out", str(out), "--grid", grid, "--replicates", "2",
                   "--methods", "BH"])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert [line.split(",")[1] for line in lines[1:]] == [grid]

    def test_empty_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc = main(["simulate", "--out", str(out), "--grid", "0", "--replicates", "2"])
        assert rc == 2
        assert "grid must not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_options_not_given_take_the_plan_defaults(self, tmp_path, monkeypatch):
        plans = _capture_plans(monkeypatch)
        assert main(["simulate", "--out", str(tmp_path / "x.csv")]) == 0
        assert plans == [simulate.SimulationPlan()]

    def test_each_option_lands_in_its_own_field(self, tmp_path, monkeypatch):
        plans = _capture_plans(monkeypatch)
        argv = ["simulate", "--out", str(tmp_path / "x.csv"), "--seed", "7", "--replicates", "3",
                "--rho-l1", "0.1", "--rho-l2", "0.2", "--alpha", "0.04", "--lambda", "0.3",
                "--grid", "0.2,0.4", "--methods", "HeirGBH,BH"]
        assert main(argv) == 0
        assert plans == [simulate.SimulationPlan(
            seed=7, replicates=3, rho_l1=0.1, rho_l2=0.2, alpha=0.04, lam=0.3,
            one_minus_pi0_grid=(0.2, 0.4), methods=("HeirGBH", "BH"),
        )]

    def test_method_names_are_stripped_as_grid_values_are(self, tmp_path, monkeypatch):
        # "BH, AdaptiveBH" exited 2 with unknown methods: [' AdaptiveBH']
        plans = _capture_plans(monkeypatch)
        argv = ["simulate", "--out", str(tmp_path / "x.csv"), "--grid", "0.5, 1", "--methods", " BH, AdaptiveBH "]
        assert main(argv) == 0
        assert plans == [simulate.SimulationPlan(one_minus_pi0_grid=(0.5, 1.0), methods=("BH", "AdaptiveBH"))]

    def test_grid_point_count_is_the_default_grid_formula(self, tmp_path, monkeypatch):
        plans = _capture_plans(monkeypatch)
        assert main(["simulate", "--out", str(tmp_path / "x.csv"), "--grid", "11"]) == 0
        assert plans[0].one_minus_pi0_grid == simulate.DEFAULT_GRID

    def test_every_level_problem_on_one_line_in_order(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "x.csv"), "--lambda", "7", "--alpha", "0"]) == 2
        assert capsys.readouterr() == (
            "", "error: lambda must lie in (0, 1), got 7.0; alpha must lie in (0, 1), got 0.0\n"
        )


def _capture_plans(monkeypatch) -> list:
    """The plans that simulate runs, which it no longer runs or writes."""
    plans = []
    monkeypatch.setattr(simulate, "run_study", plans.append)
    monkeypatch.setattr(simulate, "write_summary_csv", lambda summary, path: None)
    return plans


class TestCmdValidate:
    @pytest.mark.parametrize(
        "options, passed",
        [([], {}), (["--seed", "3", "--trials", "5", "--corrupt"], {"seed": 3, "trials": 5, "corrupt": True})],
        ids=["none", "all"],
    )
    def test_passes_only_the_options_given(self, monkeypatch, capsys, options, passed):
        # run_sweep's own defaults apply to the others
        calls = []
        monkeypatch.setattr(identities, "run_sweep", lambda **kw: calls.append(kw) or [])
        assert main(["validate", *options]) == 0
        assert calls == [passed]
        assert capsys.readouterr() == ("", "")

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

    def test_negative_seed_exit_2(self, capsys):
        assert main(["validate", "--trials", "1", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_corruption_hook_fails(self, capsys):
        rc = main(["validate", "--trials", "3", "--corrupt"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_seed_11_fails_the_pointwise_loo_bound(self, tmp_path, capsys):
        # adaptive trial 38 (N = 29), the README's known defect; these are
        # the values that re-running the weights once per null gives
        report = tmp_path / "report.jsonl"
        assert main(["validate", "--trials", "200", "--seed", "11", "--out", str(report)]) == 1
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [(r["name"], r["config_digest"], r["value"]) for r in records if not r["passed"]] == [
            ("loo_bound", "4f645c970220:hier", 0.34907407407407476),
            ("loo_bound", "4f645c970220:gen", 0.8256944444444443),
            ("loo_bound", "4f645c970220:flat", 0.966666666666665),
        ]
        assert "loo_bound                  200 checks  FAIL (3/200)" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "command",
    [
        ["test", "--pvalues", "P", "--method", "flat", "--adaptive"],
        ["validate", "--trials", "1"],
        ["simulate", "--replicates", "1", "--grid", "1", "--methods", "BH"],
        ["gen-spec", "--layout", "simulation"],
    ],
    ids=lambda command: command[0],
)
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    # exit 1 means a failed identity check, so an OSError must not surface as one
    pfile = tmp_path / "p.txt"
    write_lines(pfile, [0.01, 0.5, 0.9])
    command = [str(pfile) if arg == "P" else arg for arg in command]
    assert main(command + ["--out", str(tmp_path / "missing" / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.stats alone costs about a second at start-up; only simulate
    # needs scipy, and it imports scipy.special when it runs. Each command
    # loads its own modules when it runs: test loads neither the sweep's
    # (identities, and hashlib for its digests) nor simulate
    pfile = tmp_path / "p.txt"
    write_lines(pfile, np.linspace(0.0, 1.0, 2**17).tolist())
    code = (
        "import sys, groupedbh.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'\n"
        "                  or m in ('groupedbh.identities', 'groupedbh.simulate', 'hashlib'))\n"
        "print(loaded())\n"
        "groupedbh.cli.main(['test', '--pvalues', sys.argv[1], '--method', 'flat', '--adaptive',\n"
        "                    '--out', sys.argv[2]])\n"
        "print(loaded())\n"
    )
    run = run_python("-c", code, str(pfile), str(tmp_path / "out.csv"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]", "[]"]
    assert (tmp_path / "out.csv").read_text().endswith("\n131071,1.0,1.0000152587890625,1.0000152587890625,0\n")
    # only test reads and writes its numbers through orjson
    code = (
        "import sys, groupedbh.cli\n"
        "for argv in (['gen-spec', '--layout', 'simulation'], ['validate', '--trials', '1'],\n"
        "             ['simulate', '--replicates', '1', '--grid', '1', '--methods', 'BH']):\n"
        "    rc = groupedbh.cli.main(argv + ['--out', sys.argv[1]])\n"
        "    print(rc, 'orjson' in sys.modules, file=sys.stderr)\n"
    )
    run = run_python("-c", code, str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert run.stderr.split() == ["0", "False"] * 3


def run_main_counting_forks(argv, cpus):
    """Run groupedbh.cli.main(argv) in a fresh process on one CPU or on all
    this one may use; the run, and what the process saw when main returned:
    its exit code, its os.fork calls, which of multiprocessing,
    concurrent.futures and its process pool it loaded, whether it loaded
    scipy, and whether a child process was left. scipy.special loads
    concurrent.futures (through numpy.testing), not its process pool."""
    code = (
        "import json, os, sys, groupedbh.cli\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "rc = groupedbh.cli.main(json.loads(sys.argv[1]))\n"
        "try:\n"
        "    child_left = os.waitpid(-1, os.WNOHANG) is not None\n"
        "except ChildProcessError:\n"
        "    child_left = False\n"
        "pools = [m for m in ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process') if m in sys.modules]\n"
        "scipy = any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
        "print(json.dumps(dict(rc=rc, forks=len(forks), pools=pools, scipy=scipy, child_left=child_left)))\n"
    )
    mask = os.sched_getaffinity(0)
    run = run_python("-c", code, json.dumps(argv), cpus={min(mask)} if cpus == "one" else mask)
    assert (run.returncode, run.stderr) == (0, ""), run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def workers(cpus, units):
    """The workers a pool starts for ``units`` items of work."""
    count = min(len(os.sched_getaffinity(0)) if cpus == "all" else 1, units)
    return count if count > 1 else 0


@pytest.mark.parametrize("rows, cpus", [(2**17, "one"), (2**15, "all")], ids=["one-cpu", "one-span"])
def test_serial_table_loads_no_multiprocessing(tmp_path, rows, cpus):
    # a table on one CPU, or of one span, is written from this process
    pfile, out = tmp_path / "p.txt", tmp_path / "out.csv"
    write_lines(pfile, np.linspace(0.0, 1.0, rows).tolist())
    assert rows // cli._SPAN_ROWS == (1 if cpus == "all" else 4)
    argv = ["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive", "--out", str(out)]
    seen = run_main_counting_forks(argv, cpus)
    assert seen == dict(rc=0, forks=0, pools=[], scipy=False, child_left=False)
    assert out.read_text().count("\n") == 8 + rows


@pytest.mark.parametrize(
    "replicates, cpus", [("40", "one"), ("20", "all")], ids=["one-cpu", "one-block"]
)
def test_serial_simulate_loads_no_multiprocessing(tmp_path, replicates, cpus):
    # a study on one CPU, or of one block of replicates, runs in this process
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--out", str(out), "--grid", "1", "--replicates", replicates, "--methods", "BH"]
    seen = run_main_counting_forks(argv, cpus)
    assert seen == dict(rc=0, forks=0, pools=["concurrent.futures"], scipy=True, child_left=False)
    assert out.read_text().count("\n") == 2


@pytest.mark.parametrize("command", ["test", "simulate"])
def test_work_on_all_cpus_forks_workers_and_loads_no_multiprocessing(tmp_path, command):
    # 4 spans of a table, 2 blocks of replicates: one worker each, up to one per CPU
    pfile, out = tmp_path / "p.txt", tmp_path / "out.csv"
    scipy = command == "simulate"
    if scipy:
        argv, units = ["simulate", "--out", str(out), "--grid", "1", "--replicates", "40", "--methods", "BH"], 2
    else:
        write_lines(pfile, np.linspace(0.0, 1.0, 2**17).tolist())
        argv, units = ["test", "--pvalues", str(pfile), "--method", "flat", "--adaptive", "--out", str(out)], 4
    seen = run_main_counting_forks(argv, "all")
    pools = ["concurrent.futures"] if scipy else []
    assert seen == dict(rc=0, forks=workers("all", units), pools=pools, scipy=scipy, child_left=False)


@pytest.mark.parametrize("cpus", ["one", "all"])
def test_validate_loads_no_scipy_and_on_one_cpu_no_multiprocessing(tmp_path, cpus):
    # the sweep's 5 units of work run on forked workers only when there are CPUs for them
    out = tmp_path / "report.jsonl"
    seen = run_main_counting_forks(["validate", "--trials", "8", "--out", str(out)], cpus)
    assert seen == dict(rc=0, forks=workers(cpus, 5), pools=[], scipy=False, child_left=False)
    assert out.read_text().count("\n") == 5 * 8 + 8 * 2 + 5


def test_runs_raise_no_runtime_warning(tmp_path):
    # pytest's warning filter does not reach child processes, so each run is
    # a process of its own with RuntimeWarning made an error; the oracle run
    # holds a leaf with no null (effect 0) and one of nulls only (effect +inf)
    spec, pfile, tfile = tmp_path / "eeg.json", tmp_path / "p.txt", tmp_path / "t.txt"
    assert main(["gen-spec", "--layout", "eeg", "--out", str(spec)]) == 0
    rng = np.random.default_rng(3)
    write_lines(pfile, rng.uniform(size=61 * 256).round(6).tolist())
    truth = rng.uniform(size=61 * 256) < 0.7
    truth[:256], truth[256:512] = False, True  # electrodes 0 and 1, each one leaf in both trees
    write_lines(tfile, truth.astype(int).tolist())
    env = {**PACKAGE_ENV, "PYTHONWARNINGS": "error::RuntimeWarning"}
    gen = ["test", "--pvalues", str(pfile), "--method", "gen", "--spec", str(spec), "--out", str(tmp_path / "out")]
    for args in (["validate", "--trials", "8"], gen + ["--adaptive"], gen + ["--truth", str(tfile)]):
        run = subprocess.run([sys.executable, "-m", "groupedbh.cli", *args], env=env, capture_output=True, text=True,
                             timeout=300)
        assert (run.returncode, run.stderr) == (0, ""), args
    weights = np.loadtxt(tmp_path / "out", delimiter=",", comments="#", skiprows=10, usecols=2)
    assert (weights[:256] == 0.0).all() and np.isinf(weights[256:512]).all()


@pytest.mark.parametrize(
    "text",
    ["index,p\n0,0.1\n1,0.2\n", "0.5\n" * 20000 + "\n0.25\n", "0.5\n0.25\n"],
    ids=["csv", "blank-line-past-a-chunk", "plain"],
)
def test_pvalues_from_a_pipe_read_as_from_a_file(tmp_path, text):
    # the line loop takes over from the bulk parse with no seek, which a
    # pipe cannot do
    pfile = tmp_path / "p.txt"
    pfile.write_text(text)
    args = ["-m", "groupedbh.cli", "test", "--method", "flat", "--adaptive", "--pvalues"]
    from_file = run_python(*args, str(pfile))
    piped = run_python(*args, "/dev/stdin", input=text)
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout == from_file.stdout


def test_pipe_is_read_in_the_memory_of_a_file(tmp_path):
    # a pipe's chunks are parsed as they come, not kept: reading 10^6 values
    # from a pipe peaked at 69.8 MB against 49.6 MB by path
    pfile = tmp_path / "p.txt"
    text = "".join(f"{v!r}\n" for v in np.random.default_rng(5).uniform(size=10**6).tolist())
    pfile.write_text(text)
    code = (  # VmHWM: the peak of this program, where ru_maxrss keeps that of the forking process
        "import re, sys, groupedbh.cli; "
        "size = groupedbh.cli.read_pvalues(sys.argv[1]).size; "
        "print(size, re.search(r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read()).group(1))"
    )
    size, by_path_kb = map(int, run_python("-c", code, str(pfile)).stdout.split())
    size_piped, piped_kb = map(int, run_python("-c", code, "/dev/stdin", input=text).stdout.split())
    assert size == size_piped == 10**6
    assert piped_kb - by_path_kb < 5 * 1024


def test_output_closed_by_its_reader_is_no_error(tmp_path):
    # `groupedbh test ... | head -3`: no error line and not exit 2 (an
    # input error), but 128 + SIGPIPE, as a shell reports a process SIGPIPE ended
    pfile = tmp_path / "p.txt"
    write_lines(pfile, np.linspace(0.0, 1.0, 10**5).tolist())  # far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "groupedbh.cli", "test", "--pvalues", str(pfile), "--method", "flat", "--adaptive"],
        env=PACKAGE_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"# method=flat\n"
    proc.stdout.close()
    try:
        assert proc.wait(timeout=300) == 141
    finally:
        proc.kill()
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_exit_hook_waits_for_the_interpreter_and_runs_once(tmp_path):
    # main registers gc.freeze to run at exit: a caller in the same process sees nothing frozen
    spec = str(tmp_path / "spec.json")
    frozen = gc.get_freeze_count()
    assert main(["gen-spec", "--layout", "simulation", "--out", spec]) == 0
    assert gc.get_freeze_count() == frozen
    # and however often main runs in a process, the hook runs once, before the handlers registered earlier
    code = (
        "import atexit, gc, sys; from groupedbh.cli import main; calls = []; "
        "atexit.register(lambda: print(len(calls))); gc.freeze = lambda: calls.append(1); "
        "[main(['gen-spec', '--layout', 'simulation', '--out', sys.argv[1]]) for _ in range(3)]; print(len(calls))"
    )
    run = run_python("-c", code, spec)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "0\n1\n")


def test_table_is_complete_on_a_pipe_and_in_a_file(tmp_path):
    # the objects left at exit are frozen, not finalized: each byte must be out before then
    spec, pfile = tmp_path / "eeg.json", tmp_path / "p.txt"
    assert main(["gen-spec", "--layout", "eeg", "--out", str(spec)]) == 0
    write_lines(pfile, np.random.default_rng(4).uniform(size=61 * 256).round(6).tolist())
    args = ["test", "--pvalues", str(pfile), "--method", "gen", "--spec", str(spec), "--adaptive"]
    assert main([*args, "--out", str(tmp_path / "here")]) == 0
    expected = (tmp_path / "here").read_bytes()
    assert len(expected) > 2**16  # more than a pipe holds
    piped = run_python("-m", "groupedbh.cli", *args, text=False)
    to_file = run_python("-m", "groupedbh.cli", *args, "--out", str(tmp_path / "there"), text=False)
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, b"", expected)
    assert (to_file.returncode, to_file.stderr, to_file.stdout) == (0, b"", b"")
    assert (tmp_path / "there").read_bytes() == expected


@pytest.mark.parametrize(
    "args",
    [["validate", "--trials", "8"], ["simulate", "--replicates", "2", "--grid", "2"], ["gen-spec", "--layout", "eeg"]],
    ids=["validate", "simulate", "gen-spec"],
)
def test_runs_in_dev_mode_with_warnings_as_errors(tmp_path, args):
    # dev mode warns of more, such as a file never closed, and -W error makes any warning fail the run
    out = [] if args[0] == "validate" else ["--out", str(tmp_path / "out")]
    run = run_python("-X", "dev", "-W", "error", "-m", "groupedbh.cli", *args, *out)
    assert (run.returncode, run.stderr) == (0, "")


def _restated_defaults(source: str) -> list[str]:
    """The options of the simulate and validate subcommands in ``build_parser``
    that pass ``default=``, by ast: those commands take their defaults from
    SimulationPlan and run_sweep, so a default there is a second copy."""
    build = next(node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef) and node.name == "build_parser")
    commands = {}  # the variable a subparser is bound to -> its command
    for node in ast.walk(build):
        if isinstance(node, ast.Assign) and getattr(node.value, "func", None) is not None:
            if getattr(node.value.func, "attr", None) == "add_parser":
                commands[node.targets[0].id] = node.value.args[0].value
    return [
        f"{commands[node.func.value.id]} {node.args[0].value}"
        for node in ast.walk(build)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        and commands.get(getattr(node.func.value, "id", None)) in ("simulate", "validate")
        and any(keyword.arg == "default" for keyword in node.keywords)
    ]


def test_simulate_and_validate_restate_no_library_default():
    assert _restated_defaults(Path(cli.__file__).read_text()) == []


def test_the_restated_default_check_sees_a_leftover():
    source = (
        "def build_parser():\n"
        "    sub = parser.add_subparsers()\n"
        "    p_test = sub.add_parser('test')\n"
        "    p_test.add_argument('--alpha', default=0.05)\n"
        "    p_sim = sub.add_parser('simulate', argument_default=SUPPRESS)\n"
        "    p_sim.add_argument('--seed', type=int)\n"
        "    p_sim.add_argument('--alpha', type=float, default=0.05)\n"
        "    p_val = sub.add_parser('validate')\n"
        "    p_val.add_argument('--trials', default=200)\n"
        "    p_val.set_defaults(func=run)\n"
    )
    assert _restated_defaults(source) == ["simulate --alpha", "validate --trials"]

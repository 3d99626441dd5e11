import argparse
import contextlib
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from jacsum import (
    SeriesFamily, SeriesSpec, Status, Verdict, enclose_sum, enclosures,
    jacobsthal_closed_form, jacobsthal_poly, jacobsthal_range,
)
from jacsum import cli, identities, identity_sweep, report
from jacsum.cli import main
from jacsum.report import emit_report, identity_row, sum_row, verdict_row
from jacsum.series import Enclosure
from jacsum.intervals import int_str, rat_str
from jacsum.identities import check_lemma_1_5

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_csv_first_terms(capsys):
    code, out, _ = run(capsys, "seq", "--to", "8", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,n,x,value"
    assert len(lines) == 10
    assert lines[-1] == "sequence,8,2,85"


def test_seq_json_and_range(capsys):
    code, out, _ = run(capsys, "seq", "--from", "7", "--to", "9", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["value"] for r in rows] == ["43", "85", "171"]
    assert all(r["x"] == 2 for r in rows)


def test_poly_fibonacci_row(capsys):
    code, out, _ = run(capsys, "poly", "--x", "1", "--from", "5", "--to", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"n": 5, "x": 1, "value": "5"}]


_INTEGER_TEXT = re.compile(r"0|-?[1-9][0-9]*")  # no "-0", no exponent, no leading zero


@pytest.mark.parametrize("lo, hi", [(0, 40), (7, 4300), (4250, 4300)])
@pytest.mark.parametrize("x", range(-3, 4))
def test_seq_and_poly_text_equals_the_integer_reference(capsys, x, lo, hi):
    # the CLI runs the recurrence in exact decimal; the library's int values
    # are the reference, past 640 digits for every |x| >= 2 and x = 1
    window = ["--from", str(lo), "--to", str(hi), "--format", "csv"]
    code, out, err = run(capsys, "poly", "--x", str(x), *window)
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[:3] for r in rows] == [["sequence", str(n), str(x)] for n in range(lo, hi + 1)]
    texts = [r[3] for r in rows]
    assert all(_INTEGER_TEXT.fullmatch(t) for t in texts)
    if hi == 4300 and x not in (-1, 0):
        assert max(map(len, texts)) > 640
    if x == 2:
        assert run(capsys, "seq", *window) == (0, out, "")
        assert texts == [rat_str(v) for v in jacobsthal_range(lo, hi)]
    # P(n) one index at a time costs O(n) each: every row of a short window,
    # else its first and last rows and every 100th index between
    indices = range(lo, hi + 1)
    if hi - lo > 50:
        indices = sorted({*indices[:20], *indices[-20:], *indices[::100]})
    assert [texts[n - lo] for n in indices] == [rat_str(jacobsthal_poly(n, x)) for n in indices]


def test_identities_sweep_exit_zero(capsys):
    code, out, _ = run(capsys, "identities", "--to", "12", "--cassini-max", "6",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["verdict"] in ("holds", "not-applicable") for r in rows)
    assert any(r["identity"] == "lemma1.3" and r["k"] == 3 for r in rows)


def test_identities_csv_row_shape(capsys):
    code, out, _ = run(capsys, "identities", "--to", "3", "--cassini-max", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,identity,n,k,verdict,relation,lhs,rhs,note"
    row = next(l for l in lines if l.startswith("identity,lemma1.5,3,"))
    assert ",holds," in row


def test_sum_json_schema(capsys):
    code, out, _ = run(capsys, "sum", "--family", "recip", "--start", "3",
                       "--width", "1e-6", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)
    assert row["family"] == "recip" and row["start"] == 3
    assert row["status"] == "enclosed"
    enc = row["enclosure"]
    lo, hi = F(enc["lo"]), F(enc["hi"])
    assert hi - lo <= F(1, 10**6)
    # 0.718592 to six decimals, oracle-confirmed
    assert lo < F(718592, 10**6) < hi or abs((lo + hi) / 2 - F(718592, 10**6)) < F(2, 10**6)


def test_sum_undecided_exit_three(capsys):
    code, out, _ = run(capsys, "sum", "--family", "recip", "--start", "4",
                       "--width", "1e-40", "--max-terms", "3", "--format", "json")
    assert code == 3
    (row,) = json.loads(out)
    assert row["status"] == "undecided"


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_sum_width_goal_is_met_at_its_boundary(capsys, fmt):
    # --max-terms pins the last round; a goal equal to its width, written as
    # its exact decimal, is met, and the next smaller decimal is not.  The
    # width's denominator 2^e has more than 640 digits
    spec, max_terms = SeriesSpec(SeriesFamily.ALT_RECIP_SQUARED, 1200), 20
    *_, last = enclosures(spec, max_terms=max_terms)
    width = last.interval.width
    e = width.denominator.bit_length() - 1
    assert width.denominator == 1 << e and len(int_str(1 << e)) > 640
    digits = width.numerator * 5**e  # width = digits / 10^e
    for goal, status, expected_code in ((digits, "enclosed", 0), (digits - 1, "undecided", 3)):
        code, out, _ = run(capsys, "sum", "--family", spec.family.value, "--start", str(spec.start),
                           "--width", f"{int_str(goal)}e-{e}", "--max-terms", str(max_terms),
                           "--format", fmt)
        assert code == expected_code
        if fmt == "json":
            (row,) = json.loads(out)
            assert row["status"] == status and row["enclosure"] == last.as_payload()
        elif fmt == "csv":
            header, line = out.splitlines()
            row = dict(zip(header.split(","), line.split(",")))
            assert row["status"] == status and row["terms"] == str(last.terms)
        else:
            assert out.endswith(f"(terms to {last.terms}, {status})\n")


def test_verify_proof_implied_sweep(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.1", "--from", "2", "--to", "8",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert [r["n"] for r in rows] == [2, 4, 6, 8]
    assert all(r["variant"] == "proof-implied" for r in rows)
    assert all(r["status"] == "verified" for r in rows)
    assert [r["decided"] for r in rows] == [1, 7, 31, 127]


def test_verify_both_variants_reports_discrepancy(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.1", "--from", "4", "--to", "4",
                       "--variant", "both", "--format", "json")
    assert code == 2  # stated variant is refuted at n=4
    rows = json.loads(out)
    assert len(rows) == 2
    by_variant = {r["variant"]: r for r in rows}
    assert by_variant["proof-implied"]["status"] == "verified"
    assert by_variant["stated"]["status"] == "refuted"
    assert by_variant["stated"]["decided"] == 29
    assert all(r["discrepancy"] for r in rows)


def test_verify_refutation_exit_two(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.3", "--from", "1", "--to", "8")
    assert code == 2
    assert "refuted" in out


def test_verify_undecided_exit_three(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "3.1", "--from", "8", "--to", "8",
                       "--max-terms", "2", "--format", "json")
    assert code == 3
    (row,) = json.loads(out)
    assert row["status"] == "undecided"


def test_usage_errors_exit_64(capsys):
    assert run(capsys, "verify", "--theorem", "9.9", "--from", "1", "--to", "2")[0] == 64
    assert run(capsys, "seq")[0] == 64
    assert run(capsys, "seq", "--to", "5", "--format", "yaml")[0] == 64
    assert run(capsys, "seq", "--from", "9", "--to", "5")[0] == 64
    assert run(capsys, "verify", "--theorem", "3.1", "--from", "4", "--to", "2")[0] == 64
    assert run(capsys, "verify", "--theorem", "3.1", "--from", "2", "--to", "4",
               "--max-terms", "0")[0] == 64
    assert run(capsys, "sum", "--family", "recip", "--start", "0")[0] == 64
    assert run(capsys, "nonsense")[0] == 64


@pytest.mark.parametrize("width, reason", [
    ("inf", "finite"), ("Infinity", "finite"), ("-Infinity", "finite"), ("nan", "finite"),
    ("1e-999999999999", "exponent"), ("1e999999999999", "exponent"),
    ("1e-100001", "exponent"), ("1e100001", "exponent"), ("10e-100001", "exponent"),
    ("abc", "not a decimal width"),
])
def test_sum_rejects_unbounded_widths_before_building_them(capsys, monkeypatch, width, reason):
    # argument parsing only: a Fraction built from such a width would hang or crash
    def no_fraction(*args):
        raise AssertionError(f"Fraction built for --width {width}")

    monkeypatch.setattr(cli, "Fraction", no_fraction)
    code, out, err = run(capsys, "sum", "--family", "recip", "--start", "3",
                         f"--width={width}", "--format", "json")
    assert (code, out) == (64, "")
    assert "argument --width" in err and reason in err


@pytest.mark.parametrize("width", ["0", "-1e-3"])
def test_sum_rejects_widths_that_are_not_positive(capsys, width):
    code, out, err = run(capsys, "sum", "--family", "recip", "--start", "3",
                         f"--width={width}", "--format", "json")
    assert (code, out) == (64, "")
    assert "argument --width" in err and "width must be positive" in err


@pytest.mark.parametrize("width", ["1e-100000", "1e100000", "0.5", "123456e-7"])
def test_width_exponent_limit_is_inclusive(width):
    assert cli._width_goal(width) == F(Decimal(width))


@pytest.mark.parametrize("argv, option", [
    (["seq", "--to", str(cli.MAX_SEQ_INDEX + 1)], "--to"),
    (["seq", "--to", "1000000"], "--to"),
    (["poly", "--x", "2", "--to", str(cli.MAX_SEQ_INDEX + 1)], "--to"),
    (["identities", "--to", str(cli.MAX_IDENTITY_INDEX + 1)], "--to"),
    (["identities", "--cassini-max", str(cli.MAX_IDENTITY_INDEX + 1)], "--cassini-max"),
    (["identities", "--to", "10", "--cassini-max", "10" * 30], "--cassini-max"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_oversized_indices_are_rejected_while_parsing(capsys, monkeypatch, argv, option):
    # argument parsing only: nothing may be computed from such an index
    def no_rows(*args):
        raise AssertionError(f"rows built for {argv}")

    for name in ("_poly_rows", "_catalog"):
        monkeypatch.setattr(cli, name, no_rows)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert f"argument {option}: must be <=" in err


@pytest.mark.parametrize("argv, option", [
    (["sum", "--family", "recip", "--start", str(cli.MAX_SERIES_INDEX + 1)], "--start"),
    (["sum", "--family", "alt-recip-squared", "--start", "100000000000"], "--start"),
    (["verify", "--theorem", "3.1", "--from", "2", "--to", str(cli.MAX_SERIES_INDEX + 1)],
     "--to"),
    (["verify", "--theorem", "3.3", "--from", "100000000000", "--to", "100000000000"],
     "--from"),
    (["verify", "--theorem", "2.1", "--from", "1", "--to", "10" * 30], "--to"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_oversized_series_indices_are_rejected_while_parsing(capsys, monkeypatch, argv, option):
    # argument parsing only: such an index asks for a 2^p grid of some e*n bits
    def no_series(*args, **kwargs):
        raise AssertionError(f"series summed for {argv}")

    for name in ("enclose_sum", "verify_range"):
        monkeypatch.setattr(cli, name, no_series)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert f"argument {option}: must be <=" in err


@pytest.mark.parametrize("x, hi", [
    ("1000000", 6000),
    ("1" + "0" * 1000, 600),
    ("-" + "1" * 400, 100),
    ("4", cli.MAX_SEQ_INDEX // 3 * 2 + 1),  # 3 bits
    (str(2**19), cli.MAX_SEQ_INDEX // 10 + 1),  # 20 bits
    (str(-(2**19)), cli.MAX_SEQ_INDEX // 10 + 1),
    ("1" * 4301, 5),  # beyond the default int-to-str digit limit of 4300
], ids=lambda x: x[:12] if isinstance(x, str) else str(x))
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_poly_rejects_values_beyond_the_largest_report(capsys, monkeypatch, x, hi, fmt):
    # P(n) at x has about (n/2)*log2|x| bits: --to alone does not bound it
    def no_rows(*args):
        raise AssertionError(f"rows built for --x {x} --to {hi}")

    monkeypatch.setattr(cli, "_poly_rows", no_rows)
    code, out, err = run(capsys, "poly", "--x", x, "--to", str(hi), "--format", fmt)
    assert (code, out) == (64, "")
    assert err.startswith("jacsum: error: need to * max(2, bit length of |x|) <= ")


_LONG = "1" * 4301  # more digits than int() reads under the default digit limit


_INTEGERS = [
    ("0", 0), ("-0", 0), ("+7", 7), ("007", 7), ("-12", -12),
    (_LONG, (10**4301 - 1) // 9), ("-" + _LONG, -(10**4301 - 1) // 9),
]


@pytest.mark.parametrize("text, value", _INTEGERS, ids=[t[:12] for t, _ in _INTEGERS])
def test_integer_options_are_read_exactly_under_any_digit_limit(text, value):
    assert cli._integer(text) == value


@pytest.mark.parametrize("text", ["", "-", "1.0", "1e5", "nan", "0x10", "1 2", "--1",
                                  "\u0663", "\uff11\uff12"])
def test_malformed_integer_options_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
        cli._integer(text)


@pytest.mark.parametrize("argv, message", [
    (["seq", "--from", _LONG, "--to", "5"], "argument --from: must be <= 30000"),
    (["poly", "--x", "2", "--from", "-" + _LONG, "--to", "5"],
     "argument --from: must be >= -30000"),
    (["verify", "--theorem", "3.1", "--from", "1", "--to", _LONG],
     "argument --to: must be <= 65536"),
    (["sum", "--family", "recip", "--start", "3", "--max-terms", "-" + _LONG],
     "argument --max-terms: must be >= 1"),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_long_integer_options_are_refused_without_echo(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (64, "")
    assert message in err and "... (4301 digits)" in err
    assert _LONG not in err


def test_long_malformed_options_are_refused_without_echo(capsys):
    text = "x" + _LONG
    code, out, err = run(capsys, "seq", "--from", text, "--to", "5")
    assert (code, out) == (64, "")
    assert "argument --from: not an integer: 'x1111" in err and "(4302 characters)" in err
    assert text not in err


@pytest.mark.parametrize("x, hi", [
    ("3", cli.MAX_SEQ_INDEX),
    ("-3", cli.MAX_SEQ_INDEX),
    ("0", cli.MAX_SEQ_INDEX),
    ("4", cli.MAX_SEQ_INDEX // 3 * 2),
    (str(2**19), cli.MAX_SEQ_INDEX // 10),
    (str(-(2**19)), cli.MAX_SEQ_INDEX // 10),
    (str(2**20 - 1), cli.MAX_SEQ_INDEX // 10),
])
def test_poly_value_limit_is_inclusive(capsys, monkeypatch, x, hi):
    calls = []
    monkeypatch.setattr(cli, "_poly_rows", lambda *args: calls.append(args) or [])
    code, out, err = run(capsys, "poly", "--x", x, "--to", str(hi), "--format", "json")
    assert (code, out, err) == (0, "[]\n", "")
    assert calls == [(int(x), 0, hi)]


def test_index_limits_are_inclusive():
    parse = cli._build_parser().parse_args
    assert parse(["seq", "--to", str(cli.MAX_SEQ_INDEX)]).hi == cli.MAX_SEQ_INDEX
    assert parse(["poly", "--x", "3", "--to", str(cli.MAX_SEQ_INDEX)]).hi == cli.MAX_SEQ_INDEX
    args = parse(["identities", "--to", str(cli.MAX_IDENTITY_INDEX),
                  "--cassini-max", str(cli.MAX_IDENTITY_INDEX)])
    assert args.to == args.cassini_max == cli.MAX_IDENTITY_INDEX
    top = str(cli.MAX_SERIES_INDEX)
    assert parse(["sum", "--family", "recip", "--start", top]).start == cli.MAX_SERIES_INDEX
    args = parse(["verify", "--theorem", "3.1", "--from", top, "--to", top])
    assert args.lo == args.hi == cli.MAX_SERIES_INDEX


@pytest.mark.parametrize("argv", [
    ["identities", "--to", "0"],
    ["identities", "--cassini-max", "0"],
    ["identities", "--to", "-5", "--cassini-max", "3"],
    ["seq", "--from", "-1", "--to", "3"],
    ["poly", "--x", "2", "--from", "4", "--to", "3"],
    ["poly", "--x", "2", "--from", "-1", "--to", "3"],
], ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_bad_ranges_print_nothing_to_stdout(capsys, argv, fmt):
    # arguments are checked before the first byte of a streamed report goes out
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (64, "")
    assert err.startswith("jacsum: error: need")


class _CountingSink:
    """A stdout that keeps nothing but the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def test_identities_report_streams_in_bounded_memory():
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["identities", "--to", "512", "--cassini-max", "128", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 3_000_000  # ASCII JSON: one byte per character
    assert peak < sink.chars / 4


def test_seq_report_streams_in_bounded_memory():
    # one value at a time: the peak follows the longest value, not the report
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["seq", "--to", "8000", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.chars > 9_000_000
    assert peak < sink.chars / 8


def test_verdict_json_schema_instance():
    enc = Enclosure(SeriesSpec(SeriesFamily.ALT_RECIP, 4), 8, 9, 6, 24)
    row = verdict_row(
        Verdict("3.1", 4, Status.VERIFIED, variant="proof-implied",
                decided=7, expected=7, enclosure=enc)
    )
    out = emit_report([row], "json", "verdict")
    assert out == (
        '[{"theorem":"3.1","variant":"proof-implied","n":4,"status":"verified",'
        '"decided":7,"expected":7,"enclosure":{"lo":"1/8","hi":"9/64","terms":24},'
        '"discrepancy":false,"note":""}]\n'
    )


def test_empty_reports():
    assert emit_report([], "json", "verdict") == "[]\n"
    assert emit_report([], "csv", "verdict").splitlines() == [
        "kind,theorem,variant,n,status,decided,expected,lo,hi,terms,discrepancy,note"
    ]
    assert emit_report([], "plain", "verdict") == "(no rows)\n"


def test_rows_sorted_by_kind_id_n_k():
    rows = [
        identity_row(check_lemma_1_5(4)),
        identity_row(check_lemma_1_5(2)),
    ]
    out = emit_report(rows, "csv", "identity").splitlines()
    assert out[1].startswith("identity,lemma1.5,2") and out[2].startswith("identity,lemma1.5,4")


def test_sum_row_none_enclosure():
    spec = SeriesSpec(SeriesFamily.RECIP, 1)
    row = sum_row(spec, None, F(1, 10), False)
    assert emit_report([row], "json", "sum").startswith(
        '[{"family":"recip","start":1,"status":"undecided","enclosure":null'
    )


def test_cli_byte_determinism_in_subprocess():
    cmd = [sys.executable, "-m", "jacsum", "verify", "--theorem", "2.2",
           "--from", "1", "--to", "9", "--variant", "both", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 2  # stated side refuted from n=3


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_a_reader_that_closes_early_ends_the_run_quietly(fmt):
    # each report is far larger than a pipe's buffer, so the writer is still
    # writing when the reader closes its end after 10 bytes; `identities`
    # writes its rows in runs of many rows
    for argv in (["seq", "--to", "3000"], ["identities", "--to", "1024", "--cassini-max", "256"]):
        cmd = [sys.executable, "-m", "jacsum", *argv, "--format", fmt]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141, argv
        assert err == b"", argv


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int-to-str digit limit")
def test_import_keeps_interpreter_digit_limit():
    code = ("import sys; before = sys.get_int_max_str_digits(); import jacsum;"
            " print(before, sys.get_int_max_str_digits())")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    before, after = out.stdout.split()
    assert after == before != "0"


def test_seq_prints_integers_beyond_default_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "seq", "--from", "20000", "--to", "20000", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert len(row["value"]) > 6000  # above the interpreter's default of 4300 digits
    # Decimal parses and compares exactly, without the int-to-str digit limit
    assert Decimal(row["value"]) == jacobsthal_closed_form(20000)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit  # restored


def test_verify_prints_endpoints_beyond_default_digit_limit(capsys):
    # at n = 3600 the 3.3 enclosure sits on the grid 2^-14464: 4355-digit denominators
    code, out, _ = run(capsys, "verify", "--theorem", "3.3", "--from", "3600", "--to", "3600",
                       "--format", "json")
    assert code == 0
    # Decimal reads the bare 2,167-digit `expected` whatever the int-to-str digit limit
    [row] = json.loads(out, parse_int=Decimal)
    assert row["status"] == "verified"
    assert len(row["enclosure"]["lo"].split("/")[1]) > 4300


@pytest.mark.parametrize("fmt, report", [
    ("json", "[]\n"),
    ("csv", "kind,theorem,variant,n,status,decided,expected,lo,hi,terms,discrepancy,note\n"),
    ("plain", "(no rows)\n"),
])
def test_verify_with_no_admissible_index_warns_on_stderr(capsys, fmt, report):
    code, out, err = run(capsys, "verify", "--theorem", "3.1", "--from", "3", "--to", "3",
                         "--format", fmt)
    assert code == 0
    assert out == report
    assert err == "jacsum: warning: no admissible indices for theorem 3.1 in [3, 3] with parity any\n"


# SHA-256 of the CLI's `verify --theorem 3.1 --from 14500 --to 14500 --variant both`,
# whose decided/expected integers have up to 8,730 digits
DEEP_VERIFY = {
    "json": "19e04826fb194851405a7b21b096ebefd4692049a42c4eaf9ad0ff943af4c870",
    "csv": "9243517242a0eb1e10c3d1107837753ff419bc3e3f9296267415993ada228a4f",
    "plain": "31d83ee13e5799f726666a597cdd217064c538d271a9d06a67ea1e439979818b",
}


@pytest.mark.parametrize("fmt", sorted(DEEP_VERIFY))
def test_deep_verify_leaves_the_digit_limit_alone(capsys, monkeypatch, fmt):
    def no_lift(limit):
        raise AssertionError(f"int-to-str digit limit set to {limit}")

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    monkeypatch.setattr(sys, "set_int_max_str_digits", no_lift, raising=False)
    code, out, _ = run(capsys, "verify", "--theorem", "3.1", "--from", "14500", "--to", "14500",
                       "--variant", "both", "--format", fmt)
    assert code == 2  # the stated reading is refuted
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_VERIFY[fmt]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_parser_is_reused_across_calls(capsys):
    argv = ("verify", "--theorem", "3.3", "--from", "1", "--to", "6", "--format", "json")
    first = run(capsys, *argv)
    code, out, err = run(capsys, "verify", "--theorem", "3.3", "--from", "1")
    assert (code, out) == (64, "") and "--to" in err
    assert run(capsys, *argv) == first
    assert first[0] == 2 and first[1].startswith('[{"theorem":"3.3"')
    assert cli._build_parser() is cli._build_parser()


FORMATS = ("json", "csv", "plain")


def _library_identities_report(max_n, cassini_max, fmt):
    rows = [identity_row(r) for r in identity_sweep(max_n, cassini_max)]
    return emit_report(rows, fmt, "identity")


@pytest.mark.parametrize("fmt", FORMATS)
def test_cli_identities_report_equals_the_library_report(capsys, fmt):
    # the CLI builds its rows inside the sweep, the library from IdentityResults;
    # at n = 400 step2.2's values run past 640 digits
    code, out, _ = run(capsys, "identities", "--to", "400", "--cassini-max", "48",
                       "--format", fmt)
    assert code == 0
    assert out == _library_identities_report(400, 48, fmt)
    step_2_2 = [r for r in identity_sweep(400, 48) if r.identity == "step2.2"]
    assert step_2_2[-1].rhs.denominator > 10**640


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_failing_identity_fails_the_cli_run(capsys, monkeypatch, fmt):
    entry = identities._CATALOG["lemma1.3"]

    def off_by_one_at_5_2(J, ns, only_k=None):
        for n, k, holds, lhs, rhs, note in entry.sides(J, ns, only_k):
            if (n, k) == (5, 2):
                lhs, holds = lhs + 1, False
            yield n, k, holds, lhs, rhs, note

    monkeypatch.setitem(identities._CATALOG, "lemma1.3", entry._replace(sides=off_by_one_at_5_2))
    code, out, _ = run(capsys, "identities", "--to", "9", "--cassini-max", "6", "--format", fmt)
    assert code == 2
    assert out == _library_identities_report(9, 6, fmt)
    assert out.count("fails") == 1
    failed = [r for r in identity_sweep(9, 6) if r.failed]
    assert [(r.identity, r.n, r.k, r.lhs - r.rhs) for r in failed] == [("lemma1.3", 5, 2, 1)]


class _Recorder:
    """A text output that keeps each `write` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def _recorded(*argv):
    """The exit code and the writes of one CLI run."""
    sink = _Recorder()
    with contextlib.redirect_stdout(sink):
        code = main(list(argv))
    return code, sink.writes


# the text that marks the lemma1.3 row at (n, k), per format
_CASSINI_ROW = {"json": '"n":{},"k":{},', "csv": "lemma1.3,{},{},", "plain": "n={}, k={} "}


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_row_failing_inside_a_run_fails_the_cli_run(monkeypatch, fmt):
    # --cassini-max 64 makes 2,080 lemma1.3 rows, some 500 to a run; the row
    # (40, 20), the 800th, is made to fail, and its neighbours share its run
    entry = identities._CATALOG["lemma1.3"]

    def off_by_one_at_40_20(J, ns, only_k=None):
        for n, k, holds, lhs, rhs, note in entry.sides(J, ns, only_k):
            if (n, k) == (40, 20):
                lhs, holds = lhs + 1, False
            yield n, k, holds, lhs, rhs, note

    monkeypatch.setitem(identities._CATALOG, "lemma1.3",
                        entry._replace(sides=off_by_one_at_40_20))
    code, writes = _recorded("identities", "--to", "9", "--cassini-max", "64", "--format", fmt)
    assert code == 2
    assert "".join(writes) == _library_identities_report(9, 64, fmt)
    [run] = [w for w in writes if "fails" in w]
    marks = [run.find(_CASSINI_ROW[fmt].format(40, k)) for k in (19, 20, 21)]
    assert 0 < marks[0] < marks[1] < run.find("fails") < marks[2]
    assert run.count("fails") == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_identity_rows_are_written_in_bounded_runs(fmt):
    code, writes = _recorded("identities", "--to", "512", "--cassini-max", "128", "--format", fmt)
    assert code == 0
    out = "".join(writes)
    if fmt == "json":  # each row with the comma written before it
        rows = ["," + json.dumps(row, separators=(",", ":")) for row in json.loads(out)]
        frame = "["
    else:
        rows = out.splitlines(keepends=True)
        frame = rows.pop(0) if fmt == "csv" else ""  # the header line
    assert len(rows) == 10 * 512 - 2 + 128 * 129 // 2  # step2.2 starts at n = 3
    assert writes[0].startswith(frame)
    longest = max(map(len, rows))
    # one write per run, each within the bound and one row beyond it
    assert len(rows) / 100 > len(writes) > 11
    assert max(len(writes[0]) - len(frame), *map(len, writes[1:])) <= report._RUN_CHARS + longest


@pytest.mark.parametrize("fmt", FORMATS)
def test_identity_free_text_is_escaped_alike_by_cli_and_library(capsys, monkeypatch, fmt):
    # an entry's relation and a row's note as text no report writes bare; the
    # entry has rows below its stated range (n = 1, 2) and a failing row (n = 4)
    odd = 'a "quoted" {brace}, back\\slash,\na new line and caf\u00e9'
    relation = "< " + odd
    entry = identities._CATALOG["lemma1.2c"]

    def noted(J, ns):
        for n, k, holds, lhs, rhs, note in entry.sides(J, ns):
            if n in (1, 4):
                holds, note = n != 4, odd
            yield n, k, holds, lhs, rhs, note

    monkeypatch.setitem(identities._CATALOG, "lemma1.2c",
                        entry._replace(relation=relation, sides=noted))
    code, out, _ = run(capsys, "identities", "--to", "5", "--cassini-max", "2", "--format", fmt)
    assert code == 2
    assert out == _library_identities_report(5, 2, fmt)
    stated = "stated range starts at n=3"
    want = [("1", "not-applicable", relation, f"{odd}; {stated}"),
            ("2", "not-applicable", relation, stated), ("3", "holds", relation, ""),
            ("4", "fails", relation, odd), ("5", "holds", relation, "")]
    if fmt == "json":
        rows = [r for r in json.loads(out) if r["identity"] == "lemma1.2c"]
        assert [(str(r["n"]), r["verdict"], r["relation"], r["note"]) for r in rows] == want
    elif fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        rows = [dict(zip(header, r)) for r in rows if r[1] == "lemma1.2c"]
        assert [(r["n"], r["verdict"], r["relation"], r["note"]) for r in rows] == want
    else:
        assert out.count(relation) == 5 and out.count(f"  [{odd}]") == 1

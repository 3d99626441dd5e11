"""The streaming report writer against the whole-list renderer it replaced."""

import contextlib
import csv
import io
import json
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from jacsum import (
    IdentityResult, SeriesFamily, SeriesSpec, Status, Verdict, enclose_sum, identity_sweep,
    verify_range,
)
from jacsum import cli, jacobsthal, jacobsthal_poly
from jacsum.identities import iter_identities
from jacsum.intervals import int_str, rat_str
from jacsum.report import (
    EXIT_OK,
    EXIT_REFUTED,
    EXIT_UNDECIDED,
    CSV_HEADERS,
    _parse_rat,
    emit_report,
    identity_row,
    sequence_row,
    sort_rows,
    sum_row,
    verdict_row,
    write_report,
)

FORMATS = ("json", "csv", "plain")


def _csv_record(row) -> list[str]:
    """The row's CSV cells, read off its payload by the CSV_HEADERS columns:
    the enclosure flattened to lo, hi and terms, None as the empty cell."""
    fields = {"kind": row.kind, **row.payload, **(row.payload.get("enclosure") or {})}

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return int_str(value) if type(value) is int else str(value)

    return [cell(fields.get(col)) for col in CSV_HEADERS[row.kind]]


def _reference(rows, fmt, kind) -> str:
    """The report as the renderer before streaming built it: whole, in memory."""
    rows = sort_rows(rows)
    if fmt == "json":
        return json.dumps([r.payload for r in rows], separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADERS[kind])
        for row in rows:
            writer.writerow(_csv_record(row))
        return buf.getvalue()
    # a plain report is its rows' one-row reports, one after the other
    lines = [emit_report([row], "plain", kind) for row in rows]
    return "".join(lines) if lines else "(no rows)\n"


def _rows_by_kind() -> dict:
    width = Fraction(1, 10**12)
    sums = []
    for family in SeriesFamily:
        spec = SeriesSpec(family, 3)
        enc = enclose_sum(spec, width)
        sums.append(sum_row(spec, enc, width, enc.interval.width <= width))
    sums.append(sum_row(SeriesSpec(SeriesFamily.RECIP, 1), None, width, False))
    verdicts = [
        verdict_row(v)
        for th in ("2.2", "3.1", "3.3")
        for v in verify_range(th, 1, 9, variant="both", max_terms=9)
    ]
    # free text for the CSV quoting: a comma, a quote or a new line is quoted, non-ASCII not
    quoted = [",", '"', 'a "b", c', "two\nlines", "caf\u00e9, \u2264"]
    verdicts += [verdict_row(Verdict(f"3.{i}{text}", i, Status.VERIFIED, f"stated{text}",
                                     note=text))
                 for i, text in enumerate(quoted)]
    identities = [identity_row(r) for r in identity_sweep(9, 5)]
    identities += [identity_row(IdentityResult(f"lemma{text}", i, True, 1, 1, f"=={text}",
                                               note=text))
                   for i, text in enumerate(quoted)]
    return {
        "sequence": [sequence_row(n, 2 + n % 3, 10**n - n) for n in range(12)],
        "identity": identities,
        "sum": sums,
        "verdict": verdicts,
    }


ROWS = _rows_by_kind()


def _write(rows, fmt, kind) -> tuple[str, int]:
    out = io.StringIO()
    code = write_report(rows, fmt, kind, out)
    return out.getvalue(), code


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("kind", sorted(ROWS))
def test_writer_matches_whole_list_renderer(kind, fmt):
    rows = ROWS[kind]
    expected = _reference(rows, fmt, kind)
    # the writer takes rows in report order from any iterable, a generator included
    assert _write(iter(sort_rows(rows)), fmt, kind)[0] == expected
    assert emit_report(list(reversed(rows)), fmt, kind) == expected


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_writer_empty_reports(kind):
    header = ",".join(CSV_HEADERS[kind]) + "\n"
    assert _write(iter(()), "json", kind) == ("[]\n", EXIT_OK)
    assert _write(iter(()), "csv", kind) == (header, EXIT_OK)
    assert _write(iter(()), "plain", kind) == ("(no rows)\n", EXIT_OK)
    for fmt in FORMATS:
        assert _write([], fmt, kind)[0] == _reference([], fmt, kind)


def test_csv_cells_holding_a_carriage_return_read_back_as_one_record():
    # csv.writer(lineterminator="\n") may leave a lone "\r" bare, which a
    # reader takes for the end of the record
    rows = [
        (verdict_row(Verdict("3.1", 4, Status.REFUTED, note="a\rb")), "verdict"),
        (identity_row(IdentityResult("lemma1.1", 2, True, 1, 1, "<=\r", note="\rc\r")),
         "identity"),
    ]
    for row, kind in rows:
        text = emit_report([row], "csv", kind)
        header, record = csv.reader(io.StringIO(text, newline=""))
        assert header == CSV_HEADERS[kind]
        assert record == _csv_record(row)


def test_writer_rejects_unknown_format_before_writing():
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown format"):
        write_report(iter(ROWS["identity"]), "yaml", "identity", out)
    assert out.getvalue() == ""


@pytest.mark.parametrize("fmt", FORMATS)
def test_writer_rejects_unknown_kind_before_writing(fmt):
    out = io.StringIO()
    with pytest.raises(ValueError, match="unknown row kind 'bogus'"):
        write_report([sequence_row(1, 2, 1)], fmt, "bogus", out)
    assert out.getvalue() == ""
    with pytest.raises(ValueError, match="unknown row kind 'bogus'"):
        emit_report([sequence_row(1, 2, 1)], fmt, "bogus")


def test_writer_writes_each_row_before_the_next_is_made():
    out = io.StringIO()
    rows = sort_rows(ROWS["identity"])

    def lazily():
        for i, row in enumerate(rows):
            # every row yielded so far is already on the output
            assert out.getvalue().count('{"identity"') == i
            yield row

    write_report(lazily(), "json", "identity", out)
    assert json.loads(out.getvalue()) == [r.payload for r in rows]


def _edge_rows() -> list:
    """Rows reaching every branch of the JSON templates that ROWS may miss."""
    note = 'a "quoted" back\\slash,\na new line and caf\u00e9'
    enc = enclose_sum(SeriesSpec(SeriesFamily.ALT_RECIP, 2), Fraction(1, 10**6))
    return [
        sequence_row(5, -3, jacobsthal_poly(5, -3)),
        identity_row(IdentityResult('lemma"1.1', 2, True, 1, 1, "<=\\", note=note)),
        identity_row(IdentityResult("lemma1.3", 5, False, Fraction(-1, 3), 2, k=2,
                                    applicable=False)),
        verdict_row(Verdict("3.1", 4, Status.UNDECIDED)),
        verdict_row(Verdict("2.2", 3, Status.REFUTED, "stated", decided=-2, expected=5,
                            enclosure=enc, discrepancy=True, note=note)),
    ]


@pytest.mark.parametrize("kind", sorted(ROWS))
def test_json_templates_write_what_json_dumps_writes(kind):
    rows = [*ROWS[kind], *(row for row in _edge_rows() if row.kind == kind)]
    assert sorted(CSV_HEADERS) == sorted(ROWS)
    for row in rows:
        text = emit_report([row], "json", kind)
        assert text == "[" + json.dumps(row.payload, separators=(",", ":")) + "]\n"
        # the same keys in the same order: a key added to a payload cannot go missing
        (back,) = json.loads(text)
        assert list(back) == list(row.payload)
        if row.payload.get("enclosure") is not None:
            assert list(back["enclosure"]) == list(row.payload["enclosure"])


def test_json_templates_cover_the_edge_cases():
    payloads = [row.payload for kind in sorted(ROWS) for row in ROWS[kind]]
    payloads += [row.payload for row in _edge_rows()]
    for key in ("k", "enclosure", "decided", "expected"):
        assert any(key in p and p[key] is None for p in payloads), key
    assert any(p.get("discrepancy") is True for p in payloads)
    assert any(p.get("x", 0) < 0 for p in payloads)
    assert any(set('"\\\n\u00e9') <= set(p.get("note", "")) for p in payloads)


def test_json_template_writes_a_decided_beyond_the_digit_limit():
    big = 7 * 10**4400 + 1
    row = verdict_row(Verdict("3.1", 4, Status.VERIFIED, "proof-implied", decided=big,
                              expected=2))
    with _default_digit_limit():
        text = emit_report([row], "json", "verdict")
    digits = int_str(big)
    assert len(digits) > 4300 and text.count(digits) == 1
    assert text.replace(digits, "0") == "[" + json.dumps({**row.payload, "decided": 0},
                                                         separators=(",", ":")) + "]\n"


def test_writer_exit_code_in_the_same_pass():
    verdicts = ROWS["verdict"]
    statuses = {r.payload["status"] for r in verdicts}
    assert {"refuted", "undecided"} <= statuses  # the budget of 9 terms leaves some open
    undecided = [r for r in verdicts if r.payload["status"] != "refuted"]
    verified = [r for r in verdicts if r.payload["status"] == "verified"]
    fails = identity_row(IdentityResult("lemma1.1", 1, False, 3, 2))
    for fmt in FORMATS:
        assert _write(verdicts, fmt, "verdict")[1] == EXIT_REFUTED  # refutation dominates
        assert _write(undecided, fmt, "verdict")[1] == EXIT_UNDECIDED
        assert _write(verified, fmt, "verdict")[1] == EXIT_OK
        assert _write(ROWS["identity"], fmt, "identity")[1] == EXIT_OK
        assert _write([*ROWS["identity"], fails], fmt, "identity")[1] == EXIT_REFUTED
        assert _write(ROWS["sum"], fmt, "sum")[1] == EXIT_UNDECIDED  # the row without enclosure
        assert _write(ROWS["sum"][:-1], fmt, "sum")[1] == EXIT_OK
        assert _write(ROWS["sequence"], fmt, "sequence")[1] == EXIT_OK


def test_identity_catalog_comes_in_report_order():
    # the order that makes sorting the identities report unnecessary
    for max_n, cassini_max in ((1, 1), (2, 5), (9, 4), (40, 20)):
        results = list(iter_identities(max_n, cassini_max))
        key = [(r.identity, r.n, -1 if r.k is None else r.k) for r in results]
        assert key == sorted(key)
        assert len(set(key)) == len(key)
        assert results == identity_sweep(max_n, cassini_max)
        rows = [identity_row(r) for r in results]
        assert sort_rows(rows) == rows


@pytest.mark.parametrize("max_n, cassini_max", [(0, 1), (1, 0), (-3, 4)])
def test_identity_catalog_checks_caps_before_the_first_result(max_n, cassini_max):
    with pytest.raises(ValueError, match="need"):
        iter_identities(max_n, cassini_max)  # raises on the call, not on iteration


@contextlib.contextmanager
def _default_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", FORMATS)
def test_sequence_row_beyond_the_digit_limit(fmt):
    # J(20000) has 6020 digits, above the default limit of 4300
    value = jacobsthal(20000)
    big = 10**5000
    # an index beyond the limit, in a sequence row and in a verdict row
    cases = [(lambda n: sequence_row(n, 2, 1), "sequence"),
             (lambda n: verdict_row(Verdict("3.1", n, Status.UNDECIDED)), "verdict")]
    with _default_digit_limit():
        text = emit_report([sequence_row(20000, 2, value)], fmt, "sequence")
        beyond = [emit_report([make(big)], fmt, kind) for make, kind in cases]
    digits = int_str(big)
    for (make, kind), report in zip(cases, beyond):
        # the report of a four-digit index, with that index's digits in full
        assert report.count(digits) == 1
        assert report.replace(digits, "1234") == emit_report([make(1234)], fmt, kind)
    if fmt == "json":
        (row,) = json.loads(text)
        written = row["value"]
    elif fmt == "csv":
        header, row = csv.reader(io.StringIO(text))
        written = row[header.index("value")]
    else:
        label, written = text.rstrip("\n").split(" = ")
        assert label == "J(20000)"
    assert len(written) > 6000
    # Decimal parses and compares exactly, without the int-to-str digit limit
    assert Decimal(written) == value


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("theorem, n", [("3.1", 14500), ("3.3", 7201), ("2.2", 7201),
                                        ("3.2", 14301)])
def test_deep_verdict_reports_match_the_cli_under_the_default_limit(theorem, n, fmt):
    # from these n on, some decided/expected integer has more than 4300 digits:
    # the 4^n-sized ones from about n = 7,200, the 2^n-sized ones from about 14,300
    with _default_digit_limit():
        rows = [verdict_row(v) for v in verify_range(theorem, n, n, variant="both")]
        text = emit_report(rows, fmt, "verdict")
        assert text == _cli_stdout(["verify", "--theorem", theorem, "--from", str(n),
                                    "--to", str(n), "--variant", "both", "--format", fmt])
    assert max(len(int_str(abs(v))) for r in rows
               for v in (r.payload["decided"], r.payload["expected"]) if v is not None) > 4300


@pytest.mark.parametrize("family, start", [("recip-squared", 7200), ("recip", 14300)])
def test_deep_plain_sum_reports_match_the_cli_under_the_default_limit(family, start):
    # the plain midpoint re-reads endpoints with denominators beyond 4300 digits
    fmt = "plain"
    width = Fraction(1, 10**12)
    spec = SeriesSpec(SeriesFamily(family), start)
    with _default_digit_limit():
        enc = enclose_sum(spec, width)
        text = emit_report([sum_row(spec, enc, width, enc.interval.width <= width)], fmt, "sum")
        assert text == _cli_stdout(["sum", "--family", family, "--start", str(start),
                                    "--format", fmt])
    assert enc.interval.lo.denominator.bit_length() > 14300  # more than 4300 digits


@pytest.mark.parametrize("text", ["0", "-7", "12/5", "-12/5", "3/" + "1" + "0" * 5000])
def test_plain_midpoint_reads_back_what_rat_str_wrote(text):
    with _default_digit_limit():
        assert rat_str(_parse_rat(text)) == text

"""Machine-readable report rows and the three output formats.

Row kinds: sequence, identity, sum, verdict.  Rows sort by
(kind, id, n, k, variant) and identical inputs always produce
byte-identical output: rationals are serialized as "p/q" strings and no
floating point ever reaches JSON or CSV.  Every integer is written in full
through `intervals.int_str`, whatever the interpreter's int-to-str digit
limit, so a report is the same from the library as from the CLI.

One table, `_FORMATS`, holds per format its frame and one formatter per
row kind.  A formatter takes a row's values in its payload's key order and
returns the row's text: a JSON object, or a CSV record (the CSV_HEADERS
columns) or a plain line, either ending in its "\n".  A `ReportRow` is
written as `formatters[row.kind](*row.payload.values())`.  A JSON
formatter writes, key for key, what `json.dumps(row.payload,
separators=(",", ":"))` writes; a CSV formatter, what
`csv.writer(lineterminator="\n")` writes.  Rational text (digits, "-" and
"/", all of it made by `intervals._ratio_str`, through `rat_str`,
`Enclosure.as_payload` or an identity side), integers, and the closed
status and family values need no escaping and are written as they are;
only free text (identity, theorem and variant names, relations, notes)
is escaped, through `_json_str` or `_csv_str`.  The plain `sum` row's
midpoint reads its endpoints back with `intervals._parse_rat`.

The identity formatters are entry templates, `_identity_<format>(identity,
relation)`, which make the constant text of one catalog entry once and
return the entry's `row(n, k, verdict, lhs, rhs, note)`.  `_by_payload`
feeds a template an identity payload.  For the CLI, `_identity_texts`
takes the parts that `identities._catalog` yields, each an entry's id,
relation, applicability and lazy side tuples, makes the entry's template
once per part and turns each side tuple straight into the row's text, so
no `ReportRow` or payload is made per row.  It joins a part's row texts
into runs of about _RUN_CHARS (64 KiB) characters, each written by the
writer as it is, in one `write`.  Both paths take their verdict words
from `_VERDICT_WORDS`.

`write_report` is the one writer, one loop for every format.  It takes
rows already in report order, from any iterable, and writes each row (or
run of identity rows) to the output as soon as it is made, so a report
never has to be held in memory whole; the format's frame gives the text
around and between the rows.  It gathers the rows' statuses in the same
loop and works out the exit code from them.  `emit_report` sorts a list
of rows and returns the report as a string.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, TextIO

from .intervals import _Record, _approx_decimal, _parse_rat, _ratio_str, _shown, int_str, rat_str

if TYPE_CHECKING:  # annotations only: importing the report loads no other layer
    from fractions import Fraction

    from .identities import IdentityResult
    from .series import Enclosure, SeriesSpec
    from .theorems import Verdict

__all__ = [
    "EXIT_OK",
    "EXIT_REFUTED",
    "EXIT_UNDECIDED",
    "ReportRow",
    "SCHEMA_VERSION",
    "emit_report",
    "identity_row",
    "sequence_row",
    "sort_rows",
    "sum_row",
    "verdict_row",
    "write_report",
]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_UNDECIDED = 3

CSV_HEADERS = {
    "sequence": ["kind", "n", "x", "value"],
    "identity": ["kind", "identity", "n", "k", "verdict", "relation", "lhs", "rhs", "note"],
    "sum": ["kind", "family", "start", "status", "lo", "hi", "terms", "width"],
    "verdict": [
        "kind", "theorem", "variant", "n", "status", "decided", "expected",
        "lo", "hi", "terms", "discrepancy", "note",
    ],
}


class ReportRow(_Record, frozen=False):
    __slots__ = ("kind", "payload")

    def __init__(self, kind: str, payload: dict) -> None:
        self.kind = kind
        self.payload = payload


def _sort_key(row: ReportRow):
    p = row.payload
    ident = p.get("theorem") or p.get("identity") or p.get("family") or ""
    return (
        row.kind,
        str(ident),
        p.get("n", p.get("start", 0)),
        p.get("k") if p.get("k") is not None else -1,
        p.get("variant", ""),
    )


def sort_rows(rows: list[ReportRow]) -> list[ReportRow]:
    return sorted(rows, key=_sort_key)


def sequence_row(n: int, x: int, value: int | str) -> ReportRow:
    """A sequence row; `value` is an integer or its decimal text."""
    text = value if type(value) is str else rat_str(value)
    return ReportRow("sequence", {"n": n, "x": x, "value": text})


# the verdicts of an identity row that fails and of one that holds, by
# whether the row is applicable
_VERDICT_WORDS = {True: ("fails", "holds"), False: ("not-applicable", "not-applicable")}


def identity_row(res: IdentityResult) -> ReportRow:
    verdict = _VERDICT_WORDS[bool(res.applicable)][bool(res.holds)]
    return ReportRow("identity", {
        "identity": res.identity, "n": res.n, "k": res.k, "verdict": verdict,
        "relation": res.relation, "lhs": rat_str(res.lhs), "rhs": rat_str(res.rhs),
        "note": res.note,
    })


def sum_row(
    spec: SeriesSpec,
    enclosure: Enclosure | None,
    width_goal: Fraction,
    met: bool,
) -> ReportRow:
    return ReportRow(
        "sum",
        {
            "family": spec.family.value,
            "start": spec.start,
            "status": "enclosed" if met else "undecided",
            "enclosure": enclosure.as_payload() if enclosure is not None else None,
            "width": rat_str(width_goal),
        },
    )


def verdict_row(v: Verdict) -> ReportRow:
    return ReportRow(
        "verdict",
        {
            "theorem": v.theorem,
            "variant": v.variant,
            "n": v.n,
            "status": v.status.value,
            "decided": v.decided,
            "expected": v.expected,
            "enclosure": v.enclosure.as_payload() if v.enclosure is not None else None,
            "discrepancy": v.discrepancy,
            "note": v.note,
        },
    )


# a str as a JSON string literal: the C function JSONEncoder().encode calls
_json_str = json.encoder.encode_basestring_ascii

# the characters that make `_csv_str` quote a cell
_csv_special = re.compile('[,"\n\r]').search


def _csv_str(text: str) -> str:
    """A str as a CSV cell: quoted, its quotes doubled, when it holds a
    comma, a quote or a line break, as `csv.writer` quotes it; a lone "\r",
    which `csv.writer(lineterminator="\n")` may leave bare, is quoted too."""
    return '"' + text.replace('"', '""') + '"' if _csv_special(text) else text


def _int_text(value: int | None, none: str) -> str:
    """An optional integer's text: `int_str` of it, or `none` for None."""
    return none if value is None else int_str(value)


def _enclosure_json(enc: dict | None) -> str:
    if enc is None:
        return "null"
    return f'{{"lo":"{enc["lo"]}","hi":"{enc["hi"]}","terms":{int_str(enc["terms"])}}}'


def _enclosure_csv(enc: dict | None) -> str:
    return ",," if enc is None else f'{enc["lo"]},{enc["hi"]},{int_str(enc["terms"])}'


# The formatters of each row kind, fed the payload's values in key order.


def _sequence_json(n, x, value) -> str:
    return f'{{"n":{int_str(n)},"x":{int_str(x)},"value":"{value}"}}'


def _sequence_csv(n, x, value) -> str:
    return f"sequence,{int_str(n)},{int_str(x)},{value}\n"


def _sequence_plain(n, x, value) -> str:
    label = f"J({int_str(n)})" if x == 2 else f"P({int_str(n)}; x={int_str(x)})"
    return f"{label} = {value}\n"


def _sum_json(family, start, status, enclosure, width) -> str:
    return (
        f'{{"family":"{family}","start":{int_str(start)},"status":"{status}",'
        f'"enclosure":{_enclosure_json(enclosure)},"width":"{width}"}}'
    )


def _sum_csv(family, start, status, enclosure, width) -> str:
    return f"sum,{family},{int_str(start)},{status},{_enclosure_csv(enclosure)},{width}\n"


def _sum_plain(family, start, status, enc, width) -> str:
    head = f"{family} from k={int_str(start)}:"
    if enc is None:
        return f"{head} {status} (no enclosure in budget)\n"
    mid = (_parse_rat(enc["lo"]) + _parse_rat(enc["hi"])) / 2
    return (
        f"{head} [{enc['lo']}, {enc['hi']}] ~ {_approx_decimal(mid)}"
        f" (terms to {enc['terms']}, {status})\n"
    )


def _verdict_json(theorem, variant, n, status, decided, expected, enc, discrepancy, note):
    return (
        f'{{"theorem":{_json_str(theorem)},"variant":{_json_str(variant)},"n":{int_str(n)},'
        f'"status":"{status}","decided":{_int_text(decided, "null")},'
        f'"expected":{_int_text(expected, "null")},"enclosure":{_enclosure_json(enc)},'
        f'"discrepancy":{"true" if discrepancy else "false"},"note":{_json_str(note)}}}'
    )


def _verdict_csv(theorem, variant, n, status, decided, expected, enc, discrepancy, note):
    return (f"verdict,{_csv_str(theorem)},{_csv_str(variant)},{int_str(n)},{status},"
            f"{_int_text(decided, '')},{_int_text(expected, '')},{_enclosure_csv(enc)},"
            f"{'true' if discrepancy else 'false'},{_csv_str(note)}\n")


def _verdict_plain(theorem, variant, n, status, decided, expected, enc, discrepancy, note):
    terms = f"terms={enc['terms']}" if enc else "no enclosure"
    decided = f" decided={int_str(decided)}" if decided is not None else ""
    expected = f" expected={int_str(expected)}" if expected is not None else ""
    flag = " DISCREPANCY" if discrepancy else ""
    note = f"  [{note}]" if note else ""
    return (
        f"theorem {theorem:<4} n={int_str(n):<4} {variant:<14}"
        f" {status:<14}{decided}{expected} {terms}{flag}{note}\n"
    )


# The identity template of each format.  `_identity_<format>(identity,
# relation)` makes the constant text of one catalog entry once and returns
# the entry's row formatter, `row(n, k, verdict, lhs, rhs, note)`, the
# sides already text.  `_identity_texts` passes n and k as ints, which str()
# writes: the catalog's indices are far below any int-to-str digit limit,
# since a window of J reaching twice as far is built first.


def _identity_json(identity: str, relation: str) -> Callable[..., str]:
    head = '{"identity":' + _json_str(identity) + ',"n":'
    mid = ',"relation":' + _json_str(relation) + ',"lhs":"'

    def row(n, k, verdict, lhs, rhs, note):
        k = "null" if k is None else k
        note = _json_str(note)
        return f'{head}{n},"k":{k},"verdict":"{verdict}"{mid}{lhs}","rhs":"{rhs}","note":{note}}}'

    return row


def _identity_csv(identity: str, relation: str) -> Callable[..., str]:
    head, mid = f"identity,{_csv_str(identity)},", f",{_csv_str(relation)},"

    def row(n, k, verdict, lhs, rhs, note):
        k = "" if k is None else k
        return f"{head}{n},{k},{verdict}{mid}{lhs},{rhs},{_csv_str(note)}\n"

    return row


def _identity_plain(identity: str, relation: str) -> Callable[..., str]:
    head, mid = f"{identity:<10} ", f" {relation} "

    def row(n, k, verdict, lhs, rhs, note):
        where = f"n={n}" if k is None else f"n={n}, k={k}"
        note = f"  [{note}]" if note else ""
        return f"{head}{where:<14} {verdict:<14} {lhs}{mid}{rhs}{note}\n"

    return row


def _by_payload(template: Callable) -> Callable:
    """The formatter of an identity payload's values through `template`, n
    and k as the text `int_str` writes, so an `identity_row` of any size is
    written in full."""

    def row(identity, n, k, verdict, relation, lhs, rhs, note):
        k = None if k is None else int_str(k)
        return template(identity, relation)(int_str(n), k, verdict, lhs, rhs, note)

    return row


# per format: its frame (the text before the first row, between rows, after
# the last row and of an empty report; a CSV report starts with its header
# line), its formatter of each row kind and, for the CLI's identity sweep,
# its identity template
_FORMATS = {
    fmt: (frame, {"sequence": sequence, "identity": _by_payload(identity), "sum": sums,
                  "verdict": verdict}, identity)
    for fmt, frame, sequence, identity, sums, verdict in (
        ("json", ("[", ",", "]\n", "[]\n"), _sequence_json, _identity_json, _sum_json,
         _verdict_json),
        ("csv", ("", "", "", ""), _sequence_csv, _identity_csv, _sum_csv, _verdict_csv),
        ("plain", ("", "", "", "(no rows)\n"), _sequence_plain, _identity_plain, _sum_plain,
         _verdict_plain),
    )
}


# The size, in characters, at which `_identity_texts` ends a run of identity
# rows and yields it as one text, to be written in one `write`
_RUN_CHARS = 1 << 16


def _side_text(side) -> str:
    """A side's text as `rat_str` writes its value: the side is an int, a
    `Fraction` or step2.2's reduced pair (p, q), q > 1, written as "p/q"
    with no gcd taken."""
    return _ratio_str(*side) if type(side) is tuple else rat_str(side)


def _identity_texts(parts: Iterable[tuple], fmt: str) -> Iterator[tuple[str, str]]:
    """(verdict, text) runs of the side tuples (n, k, holds, lhs, rhs, note)
    of the catalog parts (identity, relation, applicable, rows) that
    `identities._catalog` yields.  Each row is written in format `fmt` by
    the entry's template, made once per part, the sides as `rat_str` writes
    them, an equal right side converted once.  A part's row texts are
    joined with the format's text between rows into runs of about
    _RUN_CHARS characters, one ending when it reaches that size and at the
    end of the part; a run's verdict is "fails" if a row in it fails."""
    (_, between, _, _), _, template = _FORMATS[fmt]
    for identity, relation, applicable, rows in parts:
        row = template(identity, relation)
        fails_text, holds_text = _VERDICT_WORDS[applicable]
        run, size, verdict = [], 0, holds_text
        for n, k, holds, lhs, rhs, note in rows:
            if not holds:
                verdict = fails_text
            lhs_text = int_str(lhs) if type(lhs) is int else _side_text(lhs)
            rhs_text = lhs_text if rhs is lhs or rhs == lhs else _side_text(rhs)
            text = row(n, k, holds_text if holds else fails_text, lhs_text, rhs_text, note)
            run.append(text)
            size += len(text) + len(between)
            if size >= _RUN_CHARS:
                yield verdict, between.join(run)
                run, size, verdict = [], 0, holds_text
        if run:
            yield verdict, between.join(run)


def write_report(rows: Iterable, fmt: str, kind: str, out: TextIO) -> int:
    """Write rows, already in report order, to `out` in one of json/csv/plain.

    Each row is a `ReportRow` or, in an identity report, a (verdict, text)
    pair that `_identity_texts` made in format `fmt`: a run of rows, the
    text between them included, "fails" its verdict if one of them fails.
    Each is written, in one `write`, as soon as `rows` yields it and
    nothing keeps it afterwards, so a generator of rows is written in
    constant memory.  `kind` fixes the CSV header even when `rows` is
    empty and the payload key of a row's status.
    All rows of one report share a kind: an unknown format or kind raises
    ValueError before anything is written, and a `ReportRow` of another
    kind raises it before that row is written (the CSV header goes out with
    the first row, so a report whose first row is refused writes nothing).
    Returns the report's exit code: EXIT_REFUTED if a verdict is refuted or
    an identity fails, else EXIT_UNDECIDED if a verdict or sum is
    undecided, else EXIT_OK.
    """
    try:
        (before, between, after, empty), formatters, _ = _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {_shown(fmt)}") from None
    if kind not in CSV_HEADERS:
        raise ValueError(f"unknown row kind {_shown(kind)}")
    head = ",".join(CSV_HEADERS[kind]) + "\n" if fmt == "csv" else ""
    key = "verdict" if kind == "identity" else "status"
    write, seen, sep = out.write, set(), head + before
    for row in rows:
        # a `ReportRow` is made into its text here; a (verdict, text) pair
        # that `_identity_texts` made is written as it is
        if type(row) is ReportRow:
            if row.kind != kind:
                raise ValueError(f"{_shown(row.kind)} row in a {_shown(kind)} report")
            row = row.payload.get(key), formatters[kind](*row.payload.values())
        status, text = row
        seen.add(status)
        write(sep + text)
        sep = between
    write(after if seen else head + empty)
    if not seen.isdisjoint(("refuted", "fails")):
        return EXIT_REFUTED
    return EXIT_UNDECIDED if "undecided" in seen else EXIT_OK


def emit_report(rows: list[ReportRow], fmt: str, kind: str) -> str:
    """Sort `rows` and render them with `write_report`; return the report."""
    buf = io.StringIO()
    write_report(sort_rows(rows), fmt, kind, buf)
    return buf.getvalue()

"""Machine-readable report rows and the three output formats.

Row kinds: sequence, identity, sum, verdict.  Rows sort by
(kind, id, n, k, variant) and identical inputs always produce
byte-identical output: rationals are serialized as "p/q" strings and no
floating point ever reaches JSON or CSV.  Every integer is written in full
through `intervals.int_str`, whatever the interpreter's int-to-str digit
limit, so a report is the same from the library as from the CLI.

A JSON row is written from one template per row kind, key for key what
`json.dumps(row.payload, separators=(",", ":"))` writes.  Rational text
(digits, "-" and "/", from `rat_str`, or from `Enclosure.as_payload`,
which writes an endpoint's integers as `rat_str` would write its value)
and the closed status and family values need no escaping and go between
the quotes as they are; only free text (identity, theorem and variant
names, relations, notes) goes through the `json` string encoder.

`write_report` is the one writer.  It takes rows already in report order,
from any iterable, and writes each row to the output as soon as it is
made, so a report never has to be held in memory whole.  The writer of
each format gathers the rows' statuses in the loop that writes them, and
`write_report` works out the exit code from them.  `emit_report` sorts a
list of rows and returns the report as a string.

An identity row is made by one per-row step, `_identity_renderer`: the
verdict from `holds` and the stated range, the sides through `rat_str`.
It writes through a template per format that is made once per catalog
entry, with the entry's id and relation already in its text (see
`_identity_json`); a CSV row is the CSV_HEADERS columns in order.
`identity_row` is that step with a payload template, and
`_JSON_ROW["identity"]` and `_plain_line` write a payload through the
JSON and plain templates.  For the CLI, `identities._catalog` calls the
identity renderer of the report's format once per entry: it turns each
side tuple straight into the row's text, which the writer writes as it
is, so no `ReportRow` or payload is made per row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import TextIO

from .identities import IdentityResult
from .intervals import int_str, rat_str
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


@dataclass(slots=True)
class ReportRow:
    kind: str
    payload: dict


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


def sequence_row(n: int, x: int, value: int) -> ReportRow:
    return ReportRow("sequence", {"n": n, "x": x, "value": rat_str(value)})


def identity_row(res: IdentityResult) -> ReportRow:
    ((_, row),) = _identity_payloads(
        res.identity, res.relation, res.applicable,
        ((res.n, res.k, res.holds, res.lhs, res.rhs, res.note),),
    )
    return row


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return int_str(value) if type(value) is int else str(value)


def _flatten_for_csv(row: ReportRow) -> list[str]:
    p = dict(row.payload)
    enc = p.pop("enclosure", None)
    if "lo" in CSV_HEADERS[row.kind]:
        p["lo"] = enc["lo"] if enc else None
        p["hi"] = enc["hi"] if enc else None
        p["terms"] = enc["terms"] if enc else None
    p["kind"] = row.kind
    return [_csv_cell(p.get(col)) for col in CSV_HEADERS[row.kind]]


def _approx_decimal(q: Fraction) -> str:
    """Deterministic decimal rendering for plain output (no float), rounded
    to six places."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = math.floor(q * 10**6 + Fraction(1, 2))
    whole, frac = divmod(scaled, 10**6)
    return f"{sign}{whole}.{frac:06d}"


def _parse_rat(text: str) -> Fraction:
    """Inverse of `rat_str`.  Decimal parses digits whatever the int-to-str
    digit limit, and int() of a Decimal is not bound by it either."""
    return Fraction(*(int(Decimal(part)) for part in text.split("/")))


def _plain_line(row: ReportRow) -> str:
    p = row.payload
    if row.kind == "sequence":
        label = f"J({p['n']})" if p["x"] == 2 else f"P({p['n']}; x={int_str(p['x'])})"
        return f"{label} = {p['value']}"
    if row.kind == "identity":
        return _identity_plain(p["identity"], p["relation"])(*_identity_fields(p))
    if row.kind == "sum":
        enc = p["enclosure"]
        if enc is None:
            return f"{p['family']} from k={p['start']}: {p['status']} (no enclosure in budget)"
        mid = (_parse_rat(enc["lo"]) + _parse_rat(enc["hi"])) / 2
        return (
            f"{p['family']} from k={p['start']}: [{enc['lo']}, {enc['hi']}]"
            f" ~ {_approx_decimal(mid)} (terms to {enc['terms']}, {p['status']})"
        )
    enc = p["enclosure"]
    terms = f"terms={enc['terms']}" if enc else "no enclosure"
    decided = f" decided={int_str(p['decided'])}" if p["decided"] is not None else ""
    expected = f" expected={int_str(p['expected'])}" if p["expected"] is not None else ""
    flag = " DISCREPANCY" if p["discrepancy"] else ""
    note = f"  [{p['note']}]" if p["note"] else ""
    return (
        f"theorem {p['theorem']:<4} n={p['n']:<4} {p['variant']:<14}"
        f" {p['status']:<14}{decided}{expected} {terms}{flag}{note}"
    )


# a str as a JSON string literal: the C function JSONEncoder().encode calls
_json_str = json.encoder.encode_basestring_ascii


def _int_or_null(value: int | None) -> str:
    return "null" if value is None else int_str(value)


def _enclosure_json(enc: dict | None) -> str:
    if enc is None:
        return "null"
    return f'{{"lo":"{enc["lo"]}","hi":"{enc["hi"]}","terms":{int_str(enc["terms"])}}}'


def _sequence_json(p: dict) -> str:
    return f'{{"n":{int_str(p["n"])},"x":{int_str(p["x"])},"value":"{p["value"]}"}}'


def _identity_json_row(p: dict) -> str:
    return _identity_json(p["identity"], p["relation"])(*_identity_fields(p))


def _sum_json(p: dict) -> str:
    return (
        f'{{"family":"{p["family"]}","start":{int_str(p["start"])},'
        f'"status":"{p["status"]}","enclosure":{_enclosure_json(p["enclosure"])},'
        f'"width":"{p["width"]}"}}'
    )


def _verdict_json(p: dict) -> str:
    return (
        f'{{"theorem":{_json_str(p["theorem"])},"variant":{_json_str(p["variant"])},'
        f'"n":{int_str(p["n"])},"status":"{p["status"]}",'
        f'"decided":{_int_or_null(p["decided"])},"expected":{_int_or_null(p["expected"])},'
        f'"enclosure":{_enclosure_json(p["enclosure"])},'
        f'"discrepancy":{"true" if p["discrepancy"] else "false"},'
        f'"note":{_json_str(p["note"])}}}'
    )


_JSON_ROW = {
    "sequence": _sequence_json,
    "identity": _identity_json_row,
    "sum": _sum_json,
    "verdict": _verdict_json,
}


# The identity template of each format.  `_identity_<format>(identity,
# relation)` makes the constant text of one catalog entry once and returns
# the entry's row formatter, `row(n, k, verdict, lhs, rhs, note)`, the
# sides already text.  The renderers pass n and k as ints, which str()
# writes: the catalog's indices are far below any int-to-str digit limit,
# since a window of J reaching twice as far is built first.  A payload's n
# and k are passed as the text `int_str` writes, so an `identity_row` of
# any size is written in full.


def _identity_fields(p: dict) -> tuple:
    """The row formatter's arguments from an identity payload."""
    n, k = int_str(p["n"]), p["k"] if p["k"] is None else int_str(p["k"])
    return n, k, p["verdict"], p["lhs"], p["rhs"], p["note"]


def _identity_json(identity: str, relation: str) -> Callable[..., str]:
    head = '{"identity":' + _json_str(identity) + ',"n":'
    mid = ',"relation":' + _json_str(relation) + ',"lhs":"'

    def row(n, k, verdict, lhs, rhs, note):
        k = "null" if k is None else k
        note = _json_str(note)
        return f'{head}{n},"k":{k},"verdict":"{verdict}"{mid}{lhs}","rhs":"{rhs}","note":{note}}}'

    return row


def _identity_csv(identity: str, relation: str) -> Callable[..., tuple]:
    def row(n, k, verdict, lhs, rhs, note):
        return ("identity", identity, n, k, verdict, relation, lhs, rhs, note)

    return row


def _identity_plain(identity: str, relation: str) -> Callable[..., str]:
    head, mid = f"{identity:<10} ", f" {relation} "

    def row(n, k, verdict, lhs, rhs, note):
        where = f"n={n}" if k is None else f"n={n}, k={k}"
        note = f"  [{note}]" if note else ""
        return f"{head}{where:<14} {verdict:<14} {lhs}{mid}{rhs}{note}"

    return row


def _identity_payload(identity: str, relation: str) -> Callable[..., ReportRow]:
    def row(n, k, verdict, lhs, rhs, note):
        return ReportRow("identity", {
            "identity": identity, "n": n, "k": k, "verdict": verdict,
            "relation": relation, "lhs": lhs, "rhs": rhs, "note": note,
        })

    return row


def _identity_renderer(template: Callable) -> Callable:
    """A renderer for `identities._catalog`, called once per catalog entry:
    it yields (verdict, row) for each of the entry's side tuples (n, k,
    holds, lhs, rhs, note), the row written by the entry's `template`, the
    sides as `rat_str` writes them, an equal right side converted once."""

    def render(identity: str, relation: str, applicable: bool, rows) -> Iterator[tuple]:
        row = template(identity, relation)
        holds_text, fails_text = ("holds", "fails") if applicable else ("not-applicable",) * 2
        for n, k, holds, lhs, rhs, note in rows:
            verdict = holds_text if holds else fails_text
            lhs_text = int_str(lhs) if type(lhs) is int else rat_str(lhs)
            rhs_text = lhs_text if rhs is lhs or rhs == lhs else rat_str(rhs)
            yield verdict, row(n, k, verdict, lhs_text, rhs_text, note)

    return render


_identity_payloads = _identity_renderer(_identity_payload)

# per format, the renderer of the CLI's identity report: the writer of the
# format writes what it yields as it is
_IDENTITY_RENDERERS = {
    "json": _identity_renderer(_identity_json),
    "csv": _identity_renderer(_identity_csv),
    "plain": _identity_renderer(_identity_plain),
}


# Each writer takes (status, item) pairs: the row's status and the row as
# the writer writes it, a JSON object's text, a CSV record's cells or a
# plain line.  It returns the set of statuses it wrote, gathered in the
# loop that writes the rows: `write_report` works out the exit code from it.


def _write_json(items: Iterable[tuple], kind: str, out: TextIO) -> set:
    write, seen, sep = out.write, set(), "["
    for status, text in items:
        seen.add(status)
        write(sep + text)
        sep = ","
    write("[]\n" if sep == "[" else "]\n")
    return seen


def _write_csv(items: Iterable[tuple], kind: str, out: TextIO) -> set:
    writer, seen = csv.writer(out, lineterminator="\n"), set()
    writer.writerow(CSV_HEADERS[kind])
    for status, cells in items:
        seen.add(status)
        writer.writerow(cells)
    return seen


def _write_plain(items: Iterable[tuple], kind: str, out: TextIO) -> set:
    write, seen = out.write, set()
    for status, line in items:
        seen.add(status)
        write(line + "\n")
    if not seen:
        write("(no rows)\n")
    return seen


# per format, its writer and the item it writes for a `ReportRow`
_WRITERS = {
    "json": (_write_json, lambda row: _JSON_ROW[row.kind](row.payload)),
    "csv": (_write_csv, _flatten_for_csv),
    "plain": (_write_plain, _plain_line),
}


def _items(rows: Iterable, kind: str, item: Callable) -> Iterator[tuple]:
    """(status, item) for each row: a `ReportRow` is made into its item here,
    and a pair that an identity renderer made passes as it is."""
    key = "verdict" if kind == "identity" else "status"
    for row in rows:
        yield (row.payload.get(key), item(row)) if type(row) is ReportRow else row


def write_report(rows: Iterable, fmt: str, kind: str, out: TextIO) -> int:
    """Write rows, already in report order, to `out` in one of json/csv/plain.

    Each row is a `ReportRow` or, in an identity report, a (verdict, item)
    pair that `_IDENTITY_RENDERERS[fmt]` made.  Each row is written as soon
    as `rows` yields it and nothing keeps it afterwards, so a generator of
    rows is written in constant memory.  `kind` fixes the CSV header even
    when `rows` is empty and the payload key of a row's status: all rows of
    one report share a kind.  Returns the report's exit code: EXIT_REFUTED
    if a verdict is refuted or an identity fails, else EXIT_UNDECIDED if a
    verdict or sum is undecided, else EXIT_OK.
    """
    try:
        write, item = _WRITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
    seen = write(_items(rows, kind, item), kind, out)
    if not seen.isdisjoint(("refuted", "fails")):
        return EXIT_REFUTED
    return EXIT_UNDECIDED if "undecided" in seen else EXIT_OK


def emit_report(rows: list[ReportRow], fmt: str, kind: str) -> str:
    """Sort `rows` and render them with `write_report`; return the report."""
    buf = io.StringIO()
    write_report(sort_rows(rows), fmt, kind, buf)
    return buf.getvalue()

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
each format gathers the rows' statuses in the loop that writes them, one
string per row for JSON, and `write_report` works out the exit code from
them.  `emit_report` sorts a list of rows and returns the report as a
string.  `_identity_row` is the one identity row builder: `identity_row`
calls it on an `IdentityResult`, and the CLI has the identity sweep call
it on each row's fields as the sweep evaluates them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable
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
    return _identity_row(
        res.identity, res.n, res.holds, res.lhs, res.rhs, res.relation, res.k,
        res.applicable, res.note,
    )


def _identity_row(identity, n, holds, lhs, rhs, relation, k, applicable, note) -> ReportRow:
    """The row of one identity check, from the fields of its `IdentityResult`
    in their order: `identities._catalog` makes the CLI's rows with it."""
    lhs_text = rat_str(lhs)
    return ReportRow(
        "identity",
        {
            "identity": identity,
            "n": n,
            "k": k,
            "verdict": ("holds" if holds else "fails") if applicable else "not-applicable",
            "relation": relation,
            "lhs": lhs_text,
            "rhs": lhs_text if rhs is lhs or rhs == lhs else rat_str(rhs),
            "note": note,
        },
    )


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
        where = f"n={p['n']}" + (f", k={p['k']}" if p["k"] is not None else "")
        head = f"{p['identity']:<10} {where:<14} {p['verdict']:<14}"
        detail = f"{p['lhs']} {p['relation']} {p['rhs']}"
        note = f"  [{p['note']}]" if p["note"] else ""
        return f"{head} {detail}{note}"
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


def _identity_json(p: dict) -> str:
    return (
        f'{{"identity":{_json_str(p["identity"])},"n":{int_str(p["n"])},'
        f'"k":{_int_or_null(p["k"])},"verdict":"{p["verdict"]}",'
        f'"relation":{_json_str(p["relation"])},"lhs":"{p["lhs"]}","rhs":"{p["rhs"]}",'
        f'"note":{_json_str(p["note"])}}}'
    )


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
    "identity": _identity_json,
    "sum": _sum_json,
    "verdict": _verdict_json,
}


# Each writer returns the set of row statuses it wrote, which it gathers in
# the loop that writes the rows: `write_report` works out the exit code from
# it.


def _status_key(kind: str) -> str:
    """The payload key that holds the status of a row of this kind."""
    return "verdict" if kind == "identity" else "status"


def _write_json(rows: Iterable[ReportRow], kind: str, out: TextIO) -> set:
    write, template, seen, sep = out.write, _JSON_ROW[kind], set(), "["
    status = _status_key(kind)
    for row in rows:
        p = row.payload
        seen.add(p.get(status))
        write(sep + template(p))
        sep = ","
    write("[]\n" if sep == "[" else "]\n")
    return seen


def _write_csv(rows: Iterable[ReportRow], kind: str, out: TextIO) -> set:
    writer, seen, status = csv.writer(out, lineterminator="\n"), set(), _status_key(kind)
    writer.writerow(CSV_HEADERS[kind])
    for row in rows:
        seen.add(row.payload.get(status))
        writer.writerow(_flatten_for_csv(row))
    return seen


def _write_plain(rows: Iterable[ReportRow], kind: str, out: TextIO) -> set:
    seen, status = set(), _status_key(kind)
    for row in rows:
        seen.add(row.payload.get(status))
        out.write(_plain_line(row) + "\n")
    if not seen:
        out.write("(no rows)\n")
    return seen


_WRITERS = {"json": _write_json, "csv": _write_csv, "plain": _write_plain}


def write_report(rows: Iterable[ReportRow], fmt: str, kind: str, out: TextIO) -> int:
    """Write rows, already in report order, to `out` in one of json/csv/plain.

    Each row is written as soon as `rows` yields it and nothing keeps it
    afterwards, so a generator of rows is written in constant memory.
    `kind` fixes the CSV header even when `rows` is empty, the JSON
    template of every row and the payload key of its status: all rows of
    one report share a kind.  Returns the report's exit code: EXIT_REFUTED
    if a verdict is refuted or an identity fails, else EXIT_UNDECIDED if a
    verdict or sum is undecided, else EXIT_OK.
    """
    try:
        write = _WRITERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
    seen = write(rows, kind, out)
    if not seen.isdisjoint(("refuted", "fails")):
        return EXIT_REFUTED
    return EXIT_UNDECIDED if "undecided" in seen else EXIT_OK


def emit_report(rows: list[ReportRow], fmt: str, kind: str) -> str:
    """Sort `rows` and render them with `write_report`; return the report."""
    buf = io.StringIO()
    write_report(sort_rows(rows), fmt, kind, buf)
    return buf.getvalue()

"""Machine-readable report rows and the three output formats.

Row kinds: sequence, identity, sum, verdict.  Rows sort by
(kind, id, n, k, variant) and identical inputs always produce
byte-identical output: rationals are serialized as "p/q" strings and no
floating point ever reaches JSON or CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .identities import IdentityResult
from .intervals import rat_str
from .series import Enclosure, SeriesSpec
from .theorems import Verdict

__all__ = [
    "ReportRow",
    "SCHEMA_VERSION",
    "emit_report",
    "identity_row",
    "sequence_row",
    "sort_rows",
    "sum_row",
    "verdict_row",
]

SCHEMA_VERSION = "1"

CSV_HEADERS = {
    "sequence": ["kind", "n", "x", "value"],
    "identity": ["kind", "identity", "n", "k", "verdict", "relation", "lhs", "rhs", "note"],
    "sum": ["kind", "family", "start", "status", "lo", "hi", "terms", "width"],
    "verdict": [
        "kind", "theorem", "variant", "n", "status", "decided", "expected",
        "lo", "hi", "terms", "discrepancy", "note",
    ],
}


@dataclass(frozen=True)
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
    return ReportRow("sequence", {"n": n, "x": x, "value": str(value)})


def identity_row(res: IdentityResult) -> ReportRow:
    verdict = "not-applicable" if not res.applicable else ("holds" if res.holds else "fails")
    return ReportRow(
        "identity",
        {
            "identity": res.identity,
            "n": res.n,
            "k": res.k,
            "verdict": verdict,
            "relation": res.relation,
            "lhs": rat_str(res.lhs),
            "rhs": rat_str(res.rhs),
            "note": res.note,
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
    return str(value)


def _flatten_for_csv(row: ReportRow) -> list[str]:
    p = dict(row.payload)
    enc = p.pop("enclosure", None)
    if "lo" in CSV_HEADERS[row.kind]:
        p["lo"] = enc["lo"] if enc else None
        p["hi"] = enc["hi"] if enc else None
        p["terms"] = enc["terms"] if enc else None
    p["kind"] = row.kind
    return [_csv_cell(p.get(col)) for col in CSV_HEADERS[row.kind]]


def _approx_decimal(q: Fraction, places: int = 6) -> str:
    """Deterministic decimal rendering for plain output (no float)."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = math.floor(q * 10**places + Fraction(1, 2))
    whole, frac = divmod(scaled, 10**places)
    if whole >= 10**18:
        return sign + str(whole)  # too large for a useful decimal tail
    return f"{sign}{whole}.{frac:0{places}d}"


def _plain_lines(rows: list[ReportRow]) -> list[str]:
    lines = []
    for row in rows:
        p = row.payload
        if row.kind == "sequence":
            label = f"J({p['n']})" if p["x"] == 2 else f"P({p['n']}; x={p['x']})"
            lines.append(f"{label} = {p['value']}")
        elif row.kind == "identity":
            where = f"n={p['n']}" + (f", k={p['k']}" if p["k"] is not None else "")
            head = f"{p['identity']:<10} {where:<14} {p['verdict']:<14}"
            detail = f"{p['lhs']} {p['relation']} {p['rhs']}"
            note = f"  [{p['note']}]" if p["note"] else ""
            lines.append(f"{head} {detail}{note}")
        elif row.kind == "sum":
            enc = p["enclosure"]
            if enc is None:
                lines.append(
                    f"{p['family']} from k={p['start']}: {p['status']} (no enclosure in budget)"
                )
            else:
                mid = (Fraction(enc["lo"]) + Fraction(enc["hi"])) / 2
                lines.append(
                    f"{p['family']} from k={p['start']}: [{enc['lo']}, {enc['hi']}]"
                    f" ~ {_approx_decimal(mid)} (terms to {enc['terms']}, {p['status']})"
                )
        else:
            enc = p["enclosure"]
            terms = f"terms={enc['terms']}" if enc else "no enclosure"
            decided = f" decided={p['decided']}" if p["decided"] is not None else ""
            expected = f" expected={p['expected']}" if p["expected"] is not None else ""
            flag = " DISCREPANCY" if p["discrepancy"] else ""
            note = f"  [{p['note']}]" if p["note"] else ""
            lines.append(
                f"theorem {p['theorem']:<4} n={p['n']:<4} {p['variant']:<14}"
                f" {p['status']:<14}{decided}{expected} {terms}{flag}{note}"
            )
    return lines


def emit_report(rows: list[ReportRow], fmt: str, kind: str) -> str:
    """Render sorted rows in one of json/csv/plain.

    `kind` fixes the CSV header even when `rows` is empty; all rows of one
    report share a kind.
    """
    rows = sort_rows(rows)
    if fmt == "json":
        return json.dumps([r.payload for r in rows], separators=(",", ":")) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADERS[kind])
        for row in rows:
            writer.writerow(_flatten_for_csv(row))
        return buf.getvalue()
    if fmt == "plain":
        lines = _plain_lines(rows)
        return "".join(line + "\n" for line in lines) if lines else "(no rows)\n"
    raise ValueError(f"unknown format {fmt!r}")

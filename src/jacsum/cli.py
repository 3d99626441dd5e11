"""Batch command-line interface.

Subcommands map one-to-one onto the library modules:

    seq         Jacobsthal numbers over an index range
    poly        Jacobsthal polynomial values at an integer argument
    identities  exact identity sweep (with Cassini offsets)
    sum         rigorous enclosure of one series
    verify      per-index theorem verdicts over a range

Exit codes: 0 all checks verified/decided, 2 at least one refutation or
failed identity, 3 at least one undecided result (refutation dominates),
64 usage error.  Output is deterministic: identical invocations produce
byte-identical reports.

Reports may hold integers longer than the interpreter's default limit on
int-to-decimal conversion (4300 digits): J(n) for n above about 14000, or
the denominators of `verify` endpoints from about n = 3600.  `main` lifts
that limit while it builds and writes a report and restores it
afterwards; importing the package never changes it.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .identities import identity_sweep
from .report import (
    ReportRow,
    emit_report,
    identity_row,
    sequence_row,
    sum_row,
    verdict_row,
)
from .sequence import jacobsthal_poly, jacobsthal_range
from .series import SeriesFamily, SeriesSpec, enclose_sum
from .theorems import THEOREM_IDS, verify_range

__all__ = ["main"]

EXIT_OK = 0
EXIT_REFUTED = 2
EXIT_UNDECIDED = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code fixed at 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def _width_goal(text: str) -> Fraction:
    try:
        value = Fraction(Decimal(text))
    except (InvalidOperation, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"not a decimal width: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"width must be positive: {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="jacsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")

    p = sub.add_parser("seq", help="Jacobsthal numbers J(from)..J(to)")
    p.add_argument("--from", dest="lo", type=int, default=0)
    p.add_argument("--to", dest="hi", type=int, required=True)
    add_format(p)

    p = sub.add_parser("poly", help="Jacobsthal polynomial values at integer x")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--from", dest="lo", type=int, default=0)
    p.add_argument("--to", dest="hi", type=int, required=True)
    add_format(p)

    p = sub.add_parser("identities", help="exact identity sweep")
    p.add_argument("--to", type=int, default=64, help="sweep n = 1..TO")
    p.add_argument("--cassini-max", type=int, default=32,
                   help="Cassini offsets over 1 <= k <= n <= M")
    add_format(p)

    p = sub.add_parser("sum", help="rigorous enclosure of one series")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in SeriesFamily])
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--width", type=_width_goal, default="1e-12",
                   help="decimal width goal, parsed exactly (default 1e-12)")
    p.add_argument("--max-terms", type=_positive_int, default=None)
    add_format(p)

    p = sub.add_parser("verify", help="theorem verdicts over an index range")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--parity", choices=("any", "even", "odd"), default="any")
    p.add_argument("--variant", choices=("default", "stated", "proof-implied", "both"),
                   default="default")
    p.add_argument("--max-terms", type=_positive_int, default=None)
    add_format(p)

    return parser


def _exit_code(rows: list[ReportRow]) -> int:
    refuted = undecided = False
    for row in rows:
        p = row.payload
        if row.kind == "identity":
            refuted |= p["verdict"] == "fails"
        elif row.kind == "sum":
            undecided |= p["status"] == "undecided"
        elif row.kind == "verdict":
            refuted |= p["status"] == "refuted"
            undecided |= p["status"] == "undecided"
    if refuted:
        return EXIT_REFUTED
    if undecided:
        return EXIT_UNDECIDED
    return EXIT_OK


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift the interpreter's int-to-str digit limit for the enclosed block."""
    if not hasattr(sys, "get_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    with _int_digits_unlimited():
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "seq":
            values = jacobsthal_range(args.lo, args.hi)
            rows = [sequence_row(n, 2, v) for n, v in enumerate(values, start=args.lo)]
            kind = "sequence"
        elif args.command == "poly":
            if not 0 <= args.lo <= args.hi:
                raise ValueError(f"need 0 <= from <= to, got {args.lo}..{args.hi}")
            rows = [
                sequence_row(n, args.x, jacobsthal_poly(n, args.x))
                for n in range(args.lo, args.hi + 1)
            ]
            kind = "sequence"
        elif args.command == "identities":
            rows = [identity_row(r) for r in identity_sweep(args.to, args.cassini_max)]
            kind = "identity"
        elif args.command == "sum":
            spec = SeriesSpec(SeriesFamily(args.family), args.start)
            enc = enclose_sum(spec, args.width, max_terms=args.max_terms)
            met = enc is not None and enc.interval.width <= args.width
            rows = [sum_row(spec, enc, args.width, met)]
            kind = "sum"
        else:
            verdicts = verify_range(
                args.theorem, args.lo, args.hi,
                parity=args.parity, variant=args.variant, max_terms=args.max_terms,
            )
            rows = [verdict_row(v) for v in verdicts]
            kind = "verdict"
    except ValueError as exc:
        print(f"jacsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    sys.stdout.write(emit_report(rows, args.format, kind))
    return _exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())

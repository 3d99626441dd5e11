"""Batch command-line interface.

Subcommands map one-to-one onto the library modules:

    seq         Jacobsthal numbers over an index range
    poly        Jacobsthal polynomial values at an integer argument
    identities  exact identity sweep (with Cassini offsets)
    sum         rigorous enclosure of one series
    verify      per-index theorem verdicts over a range

Exit codes: 0 all checks verified/decided, 2 at least one refutation or
failed identity, 3 at least one undecided result (refutation dominates),
64 usage error, 141 (128 + SIGPIPE) the reader of stdout closed it before
the report ended, as `| head` does; nothing more is written then, not
even to stderr.  argparse ends a usage error itself, with its status 2,
which `main` returns as 64 so that it never reads as a refutation.
Output is deterministic: identical invocations produce byte-identical
reports.

Every report is streamed: each command checks its arguments, then hands
its rows, in report order, to `report.write_report`, which writes each row
to stdout as it is made and works out the exit code on the way.  A usage
error therefore prints nothing to stdout.  `seq`, `poly` and
`identities` make their rows lazily, so the memory of a report does not
grow with its row count.  `seq` is `poly` at x = 2: both write the rows
of `_poly_rows`.  `identities` hands the parts that `identities._catalog`
yields to the report module's `_identity_texts`: the rows arrive as
(verdict, text) pairs, each text a run of rows of about 64 KiB in the
chosen format, made from the rows' values without a `ReportRow`, and
each verdict "fails" if a row of its run fails.

Arguments whose size alone would exhaust memory or time are rejected
with exit 64 before any row is made: `seq --from`/`--to` and
`poly --from`/`--to` beyond MAX_SEQ_INDEX, `identities --to` and
`--cassini-max` beyond MAX_IDENTITY_INDEX, `sum --start` and
`verify --from`/`--to` beyond MAX_SERIES_INDEX, `sum --width` written
with an exponent beyond MAX_WIDTH_EXPONENT, and `poly` whose values would
outgrow those of `poly --x 3 --to MAX_SEQ_INDEX` (see `_poly_rows`).

Integer options of any length are read exactly by `_integer`, and every
bounded one has the one type `_between(lo, hi)` built on it, which
refuses a value outside [lo, hi] by the bound it breaks, quoting both
through `intervals._shown`: index options take [-MAX, MAX] for their
command's MAX, and `--max-terms` takes [1, none).  `poly --x` is
unbounded and takes `_integer` itself.  Integers of any size are written
in full by the report module, under the interpreter's int-to-str digit
limit, which nothing here changes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .identities import _catalog
from .intervals import _EXACT, _INTEGER, _parse_rat, _shown
from .report import (
    ReportRow,
    _identity_texts,
    sequence_row,
    sum_row,
    verdict_row,
    write_report,
)
from .sequence import jacobsthal
from .series import SeriesFamily, SeriesSpec, _within, enclose_sum
from .theorems import THEOREM_IDS, verify_range

__all__ = ["main"]

EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141

# Largest |exponent| a `sum --width` decimal may be written with.  The width
# digits * 10^exponent is made exact through the integer 10^|exponent|, which
# at this bound has about 332k bits and takes about 15 ms to build; an
# unchecked exponent such as 1e-999999999999 would never finish.
MAX_WIDTH_EXPONENT = 100_000

# Largest `seq --from`/`--to` and `poly --from`/`--to`.  Both hold two
# values at a time, so the bound limits the report's size and time, not
# memory: the JSON report of `seq --to` this bound is 136 MB, and it grows
# as to^2.
MAX_SEQ_INDEX = 30_000
# Largest `identities --to` and `--cassini-max`.  The sweep holds one window
# of J up to about twice the larger one while it runs, about 2 * to^2 bits,
# and the Cassini block a table of J(k)^2 for k <= M, about M^2 bits: at this
# bound the two peak at 41.7 MB (27.4 MB window, 14.3 MB table; tracemalloc,
# CPython 3.11.7).  Nothing is kept once the sweep ends.
MAX_IDENTITY_INDEX = 10_000
# Largest `sum --start` and `verify --from`/`--to`.  A series from index n is
# summed on the grid 2^-p with p about e*n bits (e the power of J(k) in its
# terms), and 1 << p is built at once: some 12 GB at n = 10^11.  At this
# bound one index of any claim or family takes at most about 1.1 s and 18 MB,
# start-up included (3.1 with both variants; CPython 3.11.7, 2 vCPUs); past
# start-up the time grows about 3.5x per doubling of n.
MAX_SERIES_INDEX = 65_536


def _integer(text: str) -> int:
    """Argument type: an integer of any length, parsed exactly.  Its text,
    checked against `intervals._INTEGER`, is read by `intervals._parse_rat`,
    which reads digits whatever the int-to-str digit limit."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {_shown(text)}")
    return _parse_rat(text).numerator


def _between(lo: int, hi: int | None = None) -> Callable[[str], int]:
    """Argument type: an integer from `lo` to `hi`, or from `lo` up when
    `hi` is None, refused with the bound it breaks.

    An index option takes lo = -hi: one below -hi is refused here too.  It
    is as wrong as -1, which the command's range check refuses, but
    refusing it while parsing keeps every index a command sees within
    [-hi, hi], so no command computes with an integer of unbounded length.
    """

    def parse(text: str) -> int:
        value = _integer(text)
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {_shown(hi)}: {_shown(text)}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {_shown(lo)}: {_shown(text)}")
        return value

    return parse


def _width_goal(text: str) -> Fraction:
    try:
        decimal = Decimal(text)
    except InvalidOperation as exc:
        raise argparse.ArgumentTypeError(f"not a decimal width: {_shown(text)}") from exc
    if not decimal.is_finite():
        raise argparse.ArgumentTypeError(f"width must be finite: {_shown(text)}")
    if abs(decimal.as_tuple().exponent) > MAX_WIDTH_EXPONENT:
        raise argparse.ArgumentTypeError(
            f"width exponent beyond +-{_shown(MAX_WIDTH_EXPONENT)}: {_shown(text)}"
        )
    value = Fraction(decimal)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"width must be positive: {_shown(text)}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `parse_args` keeps
    no state from one call to the next, so `main` reuses it."""
    parser = argparse.ArgumentParser(prog="jacsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    seq_index, identity_index, series_index = (
        _between(-m, m) for m in (MAX_SEQ_INDEX, MAX_IDENTITY_INDEX, MAX_SERIES_INDEX)
    )

    seq = sub.add_parser("seq", help="Jacobsthal numbers J(from)..J(to)")
    seq.set_defaults(x=2)
    poly = sub.add_parser("poly", help="Jacobsthal polynomial values at integer x")
    poly.add_argument("--x", type=_integer, required=True)
    for p in (seq, poly):
        p.add_argument("--from", dest="lo", type=seq_index, default=0)
        p.add_argument("--to", dest="hi", type=seq_index, required=True,
                       help=f"last index, at most {MAX_SEQ_INDEX}")

    p = sub.add_parser("identities", help="exact identity sweep")
    p.add_argument("--to", type=identity_index, default=64,
                   help=f"sweep n = 1..TO, TO at most {MAX_IDENTITY_INDEX}")
    p.add_argument("--cassini-max", type=identity_index, default=32,
                   help=f"Cassini offsets over 1 <= k <= n <= M, M at most {MAX_IDENTITY_INDEX}")

    p = sub.add_parser("sum", help="rigorous enclosure of one series")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in SeriesFamily])
    p.add_argument("--start", type=series_index, required=True,
                   help=f"first index, at most {MAX_SERIES_INDEX}")
    p.add_argument("--width", type=_width_goal, default="1e-12",
                   help="finite decimal width goal, parsed exactly, exponent at most "
                        f"{MAX_WIDTH_EXPONENT} in magnitude (default 1e-12)")
    p.add_argument("--max-terms", type=_between(1), default=None)

    p = sub.add_parser("verify", help="theorem verdicts over an index range")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--from", dest="lo", type=series_index, required=True)
    p.add_argument("--to", dest="hi", type=series_index, required=True,
                   help=f"last index, at most {MAX_SERIES_INDEX}")
    p.add_argument("--parity", choices=("any", "even", "odd"), default="any")
    p.add_argument("--variant", choices=("default", "stated", "proof-implied", "both"),
                   default="default")
    p.add_argument("--max-terms", type=_between(1), default=None)

    for p in sub.choices.values():  # every command's last option
        p.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is status 2
        return EXIT_USAGE if exc.code == 2 else exc.code or 0
    try:
        rows, kind = _report_rows(args)
    except ValueError as exc:
        print(f"jacsum: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = write_report(rows, args.format, kind, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is still buffered, and the interpreter's
        # flush at exit, go to devnull instead of raising again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def _report_rows(args: argparse.Namespace) -> tuple[Iterable[ReportRow | tuple], str]:
    """The command's rows in report order, and their kind.

    The rows are `ReportRow`s, except those of `identities`: (verdict,
    text) pairs from the report's `_identity_texts`.  Every argument is
    checked here, before any row is written; the rows of `seq`, `poly` and
    `identities` are made lazily, as they are written.
    """
    if args.command in ("seq", "poly"):
        if not 0 <= args.lo <= args.hi:
            raise ValueError(f"need 0 <= from <= to, got {_shown(args.lo)}..{_shown(args.hi)}")
        bits = max(2, args.x.bit_length())
        if args.hi * bits > 2 * MAX_SEQ_INDEX:
            raise ValueError(
                f"need to * max(2, bit length of |x|) <= {_shown(2 * MAX_SEQ_INDEX)},"
                f" got {_shown(args.hi)} * {_shown(bits)}"
            )
        return _poly_rows(args.x, args.lo, args.hi), "sequence"
    if args.command == "identities":
        # each catalog entry's rows written in the report's format as the
        # sweep evaluates them
        return _identity_texts(_catalog(args.to, args.cassini_max), args.format), "identity"
    if args.command == "sum":
        spec = SeriesSpec(args.family, args.start)
        enc = enclose_sum(spec, args.width, max_terms=args.max_terms)
        met = enc is not None and _within(enc, args.width)
        return [sum_row(spec, enc, args.width, met)], "sum"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verdicts = verify_range(
            args.theorem, args.lo, args.hi,
            parity=args.parity, variant=args.variant, max_terms=args.max_terms,
        )
    for w in caught:  # an empty sweep: say so, then write the empty report
        print(f"jacsum: warning: {w.message}", file=sys.stderr)
    # one theorem, already in (n, variant) order: the report's row order
    return map(verdict_row, verdicts), "verdict"


def _poly_rows(x: int, lo: int, hi: int) -> Iterator[ReportRow]:
    """Rows of the Jacobsthal polynomial at x for lo <= n <= hi, made
    lazily from one pass of its recurrence in exact `decimal`, whose text
    costs time linear in its length.

    The pass starts at lo from the exact integers P(lo) and P(lo+1): from
    the closed form at x = 2, else from the integer recurrence.  P(n) has
    about (n/2)*log2|x| bits, so `_report_rows` bounds hi by
    hi * max(2, bit length of |x|) <= 2 * MAX_SEQ_INDEX: every |x| <= 3
    keeps --to MAX_SEQ_INDEX, and no report outgrows that of x = 3.
    """
    if x == 2:
        a, b = jacobsthal(lo), jacobsthal(lo + 1)
    else:
        a, b = 0, 1  # P(n), P(n+1) at n = 0
        for _ in range(lo):
            a, b = b, b + x * a
    a, b, factor = Decimal(a), Decimal(b), Decimal(x)
    for n in range(lo, hi + 1):
        yield sequence_row(n, x, str(a))
        a, b = b, _EXACT.fma(factor, a, b)


if __name__ == "__main__":
    sys.exit(main())

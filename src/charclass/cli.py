"""Command-line front end: `charclass <command> ...`.

Exit codes: 0 success; 1 parse/usage error; 2 domain error (e.g. not
complexifiable where required); 3 verification suite failure (cases marked
expected-mismatch do not fail a suite).

The default degree cap is 24 in every command.  The argument parser is
built on the first call to `main` and reused by every later one, so an
in-process caller pays for it once; it holds no answers.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import serialize
from .bundlecalc import (
    evaluate_class,
    fiber_bundle,
    roots_bundle,
    trivial_bundle,
    universal_bundle,
)
from .complexifiability import (
    express_via_chern,
    ideal_decomposition,
    is_complexifiable_integral,
    is_complexifiable_mod2,
    subring_decomposition,
)
from .errors import CharclassError, MixedExpressionError, ParseError
from .expr import parse_integral, parse_mod2
from .feshbach import rho
from .report import Report
from .steenrod import sq1
from .verify import SUITES, run_suite
from .wring import RingContext, reduce_poly

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

DEFAULT_DEGREE = 24


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2, which this tool reserves for
        # domain errors
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def integer(raw: str) -> int:
    """A decimal integer: an optional leading '-', then ASCII digits only,
    as in the expression lexer (int() also reads other scripts' digits, '_'
    separators and surrounding spaces)."""
    digits = raw[1:] if raw.startswith("-") else raw
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _make_bundle(name: str, ctx: RingContext):
    if name == "universal":
        return universal_bundle(ctx)
    if name == "trivial":
        return trivial_bundle()
    if name == "fiber":
        return fiber_bundle(ctx)
    if name.startswith("roots:"):
        raw = name.split(":", 1)[1]
        try:
            m = integer(raw)
        except ValueError:
            m = 0
        if m < 1:
            raise ParseError(f"roots:<m> needs a positive integer, got {raw!r}", 0)
        return roots_bundle(m, ctx)
    raise ParseError(
        f"unknown bundle {name!r}; use universal, trivial, fiber, or roots:<m>", 0
    )


def _print_poly(value, as_json: bool) -> None:
    print(serialize.dumps(value) if as_json else str(value))


def _parse_capped(text: str, ctx: RingContext):
    """The mod-2 expression read under the command's degree cap only: every
    answer drawn from it is truncated there anyway (evaluation keeps degree
    and Sq1 raises it by one), and the cap bounds its group powers."""
    return parse_mod2(text, RingContext(ctx.degree_cap))


def cmd_eval(args) -> int:
    ctx = RingContext(args.degree, args.rank)
    c = _parse_capped(args.expr, ctx)
    if args.bundle:
        result = evaluate_class(c, _make_bundle(args.bundle, ctx), ctx)
    else:
        result = reduce_poly(c, ctx)
    _print_poly(result, args.json)
    return EXIT_OK


def cmd_sq1(args) -> int:
    ctx = RingContext(args.degree, args.rank)
    _print_poly(sq1(_parse_capped(args.expr, ctx), ctx), args.json)
    return EXIT_OK


def cmd_rho(args) -> int:
    ctx = RingContext(args.degree, args.rank)
    _print_poly(rho(parse_integral(args.expr), ctx), args.json)
    return EXIT_OK


def cmd_complexifiable(args) -> int:
    ctx = RingContext(args.degree, args.rank)
    if args.integral:
        verdict = is_complexifiable_integral(parse_integral(args.expr), ctx)
    else:
        verdict = is_complexifiable_mod2(parse_mod2(args.expr))
    print("true" if verdict else "false")
    return EXIT_OK


def cmd_decompose(args) -> int:
    c = parse_mod2(args.expr)
    if args.ideal:
        parts = ideal_decomposition(c)
        if not parts:
            print("0")
        else:
            print(" + ".join(f"w{i}^2*({r})" for i, r in parts))
    else:
        print(subring_decomposition(c))
    return EXIT_OK


def cmd_chern_express(args) -> int:
    ctx = RingContext(args.degree, args.rank)
    print(express_via_chern(parse_integral(args.expr), ctx))
    return EXIT_OK


def cmd_verify(args) -> int:
    report: Report = run_suite(
        args.suite, degree=args.degree, rank=args.rank, seed=args.seed
    )
    for line in report.format_lines():
        print(line)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(serialize.dumps(report))
                fh.write("\n")
        except OSError as e:
            print(f"charclass: error: cannot write report {args.report!r}: {e.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK if report.ok() else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="charclass",
        description="Symbolic calculator for characteristic classes of real "
        "vector bundles and their complexifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--expr", required=True, help="class expression")
        p.add_argument("--degree", type=integer, default=DEFAULT_DEGREE,
                       help="degree cap (default %(default)s)")
        p.add_argument("--rank", type=integer,
                       help="rank cap (default unbounded)")

    p = sub.add_parser("eval", help="evaluate a mod-2 class, optionally on a bundle")
    common(p)
    p.add_argument("--bundle", help="universal | trivial | fiber | roots:<m>")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sq1", help="apply the degree-raising square")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sq1)

    p = sub.add_parser("rho", help="mod-2 reduction of an integral class")
    common(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("complexifiable", help="decide complexifiability")
    common(p)
    p.add_argument("--integral", action="store_true",
                   help="treat the expression as an integral class")
    p.set_defaults(func=cmd_complexifiable)

    p = sub.add_parser("decompose",
                       help="squares sub-ring form, or --ideal for the "
                            "squared-generator ideal form")
    p.add_argument("--expr", required=True)
    p.add_argument("--ideal", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("chern-express",
                       help="express a complexifiable integral class via "
                            "Chern classes of the complexification")
    common(p)
    p.set_defaults(func=cmd_chern_express)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p.add_argument("--degree", type=integer, default=DEFAULT_DEGREE,
                   help="degree cap (default %(default)s)")
    p.add_argument("--rank", type=integer, default=8)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--report", help="write the JSON report to this file")
    p.set_defaults(func=cmd_verify)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, MixedExpressionError) as e:
        print(f"charclass: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CharclassError as e:
        print(f"charclass: error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:
        print(f"charclass: error: {e}", file=sys.stderr)
        return EXIT_USAGE


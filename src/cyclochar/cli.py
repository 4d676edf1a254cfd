"""Command-line frontend.

Subcommands: build, enumerate, verify, charsum, dual, minpoly.  Output
is JSON (--format json) or human-readable text; exit codes are stable:
0 success, 1 internal error, 2 unmet precondition, 3 disproved
identity, 64 usage.
"""

from __future__ import annotations

import os

# Nothing here calls BLAS, whose idle worker thread spins: one thread unless the user set it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from itertools import islice
from math import log10
from typing import TYPE_CHECKING

from .errors import (
    ConditionFailedError,
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)
from .numth import DEFAULT_BRUTE_CAP, DEFAULT_FIELD_CAP, check_budget, check_field, gcd_conditions
from .numth import qualifying_codes

# The numpy-bound modules, and json, are imported by the subcommands that use
# them, so parsing and `enumerate` start without them.
if TYPE_CHECKING:
    from .characterize import CodeReport
    from .gf import FieldCtx

ENV_FIELD_CAP = "CYCLOCHAR_FIELD_CAP"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64

# The listing is formatted and written this many records of one e1 row at a
# time; `dual` writes its frequencies in calls of at least FLUSH_CHARS characters.
LISTING_BATCH = 4096
FLUSH_CHARS = 1 << 16


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _field(args) -> FieldCtx:
    from .gf import field_for, load_primitive_table

    table = load_primitive_table(args.primitive_table) if args.primitive_table else None
    return field_for(args.q, args.k, cap=args.field_cap, primitive_table=table)


def report_json(report: CodeReport) -> dict:
    """The fixed-order report object; key order is part of the format."""
    return {
        "q": report.q,
        "k": report.k,
        "e1": report.e1,
        "e2": report.e2,
        "n": report.n,
        "dim": report.dim,
        "weights": report.distribution.pairs(),
        "griesmer_optimal": report.griesmer_optimal,
        "dual": {
            "min_weight": report.dual_min_weight,
            "B1": report.dual_b1,
            "B2": report.dual_b2,
            "B3": report.dual_b3,
        },
    }


def report_text(report: CodeReport, ctx: FieldCtx) -> str:
    reps = {s: e for s, e in enumerate(ctx.trace_class_reps().tolist()) if s and e < ctx.m}
    lines = [
        f"code C_(Delta*e1={ctx.delta * report.e1 % ctx.m}, e2={report.e2}) over F_{report.q}:"
        f" [{report.n},{report.dim},{report.min_distance}] cyclic code",
        f"weight enumerator: {report.distribution.enumerator()}",
        f"three-weight table match: {report.three_weight_match}",
        f"griesmer optimal: {report.griesmer_optimal}",
        f"dual: [{report.n},{report.n - report.dim},{report.dual_min_weight}]"
        f" with B1={report.dual_b1} B2={report.dual_b2} B3={report.dual_b3}",
        f"trace class representatives (symbol: gamma exponent): {reps}",
    ]
    return "\n".join(lines)


def cmd_build(args) -> int:
    import json

    from .characterize import build_code

    ctx = _field(args)
    try:
        report = build_code(ctx, args.q, args.k, args.e1, args.e2)
    except ConditionFailedError as exc:
        if args.format == "json":
            print(json.dumps({"error": "conditions_failed", "failed": list(exc.failed)}))
        else:
            print(f"conditions failed: {'; '.join(exc.failed)}")
        return EXIT_PRECONDITION
    if args.format == "json":
        print(json.dumps(report_json(report)))
    else:
        print(report_text(report, ctx))
    return EXIT_OK


class _BatchedStdout:
    """`dual`'s output for stdout, written in calls of at least FLUSH_CHARS characters.

    An unbuffered stdout (PYTHONUNBUFFERED) makes one write(2) per call, and
    a frequency can run to thousands of digits, so pieces are gathered until
    FLUSH_CHARS characters (bytes: the output is ASCII) are pending; no more
    than that plus one piece is held.  flush() writes the rest.
    """

    def __init__(self) -> None:
        self.pending: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.pending.append(text)
        self.size += len(text)
        if self.size >= FLUSH_CHARS:
            self.flush()

    def flush(self) -> None:
        if self.pending:
            sys.stdout.write("".join(self.pending))
            self.pending, self.size = [], 0


def cmd_enumerate(args) -> int:
    q, k = args.q, args.k
    # every check of the listing, the closed-form count included, runs here,
    # before the first byte is written
    listing = qualifying_codes(q, k, args.field_cap)
    count, n = listing.count, q**k - 1
    delta = n // (q - 1)
    write = sys.stdout.write
    # each class's decimal is rendered once, in place of the integer
    listing.classes = list(map(str, listing.classes))
    rows = listing.rows()
    if args.format == "json":
        # json.dumps of {"q", "k", "count", "formula", "codes": [...]}, one write a batch
        write(f'{{"q": {q}, "k": {k}, "count": {count}, "formula": {count}, "codes": [')
        sep = ""
        for e1, row in rows:
            head = f'{{"e1": {e1}, "delta_e1": {delta * e1 % n}, "e2": '
            while batch := ("}, " + head).join(islice(row, LISTING_BATCH)):
                write(f"{sep}{head}{batch}}}")
                sep = ", "
        write("]}\n")
    else:
        write(f"qualifying codes for q={q}, k={k}: {count} (formula: {count})\n")
        for e1, row in rows:
            head, mid = f"  C_({delta * e1 % n},", f")   e1={e1} e2="
            while batch := [f"{head}{e2}{mid}{e2}\n" for e2 in islice(row, LISTING_BATCH)]:
                write("".join(batch))
    return EXIT_OK


def _parse_range(text: str) -> range:
    """A --q/--k value: one integer or an inclusive range a..b."""
    lo, dots, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r}: expected an integer or a range a..b"
        ) from None


def cmd_verify(args) -> int:
    import json

    from .verify import PROPERTIES, default_pairs, run_block

    if args.k is None:  # each q takes its k values from the default pair set
        blocks = (
            (q, k) for q, k in default_pairs(args.max_length) if args.q is None or q in args.q
        )
    else:
        qs = args.q if args.q is not None else sorted({q for q, _ in default_pairs(args.max_length)})
        blocks = ((q, k) for q in qs for k in args.k)
    pairs = []
    for q, k in blocks:  # refuse a bad block as it comes, before any sweep runs
        check_field(q, k, args.field_cap)
        pairs.append((q, k))
    if not pairs:
        raise InvalidArgumentError(
            "no (q, k) block was selected: a block needs a prime power q, k >= 2"
            " and, unless --k is given, q^k - 1 <= --max-length"
        )
    props = args.props.split(",") if args.props else list(PROPERTIES)
    unknown = [p for p in props if p not in PROPERTIES]
    if unknown:
        raise InvalidArgumentError(
            f"unknown properties: {unknown}; valid: {','.join(PROPERTIES)}"
        )
    results, refused = [], None
    try:
        for q, k in pairs:
            run_block(q, k, args.field_cap, props, args.bruteforce_cap, results)
    except ResourceLimitError as exc:  # print what finished, then exit 2
        refused = exc
    failures = [r for r in results if not r.ok]
    if args.format == "json":
        print(json.dumps([r.to_json() for r in results]))
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.prop} q={r.q} k={r.k} checked={r.checked}"
            if not r.ok:
                line += f" counterexample={json.dumps(r.counterexample)}"
            print(line)
    if refused is not None:
        raise refused
    if failures:
        first = failures[0]
        print(
            f"counterexample: {json.dumps(first.to_json())}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _parse_element(text: str) -> tuple[str, int | None]:
    """An element literal as (text as typed, e): "0" is the zero element,
    with e None, and "g<e>" or a bare integer is gamma^e."""
    body = text.strip()
    if body == "0":
        return text, None
    try:
        return text, int(body[1:] if body.startswith("g") else body)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid element {text!r}: expected 0, g<e> or <e>"
        ) from None


def _exponent(e: int | None, m: int) -> int:
    """The exponent form of a parsed element of F_{q^k}, m = q^k - 1."""
    from .gf import ZERO

    if e is None:
        return ZERO
    if not 0 <= e < m:
        raise InvalidArgumentError(f"element exponent out of range: {e} is not in [0, {m})")
    return e


def cmd_charsum(args) -> int:
    import json

    from .expsum import char_sum
    from .gf import ZERO

    ctx = _field(args)
    d, g = gcd_conditions(args.q, args.k, args.e1, args.e2)
    if g != 1:
        raise InvalidArgumentError(f"gcd(Delta, e2) = gcd({ctx.delta}, {args.e2}) = {g} != 1")
    a, b = (_exponent(e, ctx.m) for _, e in (args.a, args.b))
    value = char_sum(ctx, args.e1, args.e2, a, b)
    tr_zero = a == ZERO or ctx.trace_to(a, "Fq") == ZERO
    case = f"Tr(a){'=' if tr_zero else '!='}0, b{'=' if b == ZERO else '!='}0"
    integer = value.as_integer() if value.is_integral() else None
    out = {
        "q": args.q,
        "k": args.k,
        "e1": args.e1,
        "e2": args.e2,
        "a": args.a[0],
        "b": args.b[0],
        "counts": list(value.counts),
        "integer": integer,
        "case": case,
        "closed_form_applies": d == 1,
    }
    if d != 1:
        out["d"] = d
        if integer is not None:
            out["d_divides"] = integer % d == 0
    if args.format == "json":
        print(json.dumps(out))
    else:
        print(f"counts per character exponent: {list(value.counts)}")
        print(f"value: {integer if integer is not None else 'not a rational integer'}")
        print(f"class: {case}")
        if d == 1:
            print("covered by the closed-form case table")
        else:
            print(f"not covered by the closed-form case table (d={d})"
                  + (f"; d | value: {integer % d == 0}" if integer is not None else ""))
    return EXIT_OK


def cmd_dual(args) -> int:
    from . import polyring
    from .codes import check_macwilliams_budget, macwilliams_dual, weight_distribution_trace
    from .codes import parity_check_from_exponents

    # refuse an oversized field, transform or output before any table is built
    q, n = args.q, args.q**args.k - 1
    check_field(q, args.k, args.field_cap)
    check_macwilliams_budget(n, q)
    # at most n + 1 frequencies, each below q^n, written with its weight
    check_budget(
        f"writing the dual distribution at n = {n}, q = {q}",
        (n + 1) * (n * log10(q) + len(str(n)) + 8),
    )
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(0)  # frequencies run past 4300 digits; main restores it
    ctx = _field(args)
    wd = weight_distribution_trace(ctx, args.e1, args.e2)
    dim = polyring.degree(parity_check_from_exponents(ctx, args.e1, args.e2))
    dual = macwilliams_dual(wd, n, q, dim)
    d_dual = dual.min_nonzero_weight()
    # the frequencies are streamed one at a time, so the output is never held whole
    out = _BatchedStdout()
    write = out.write
    if args.format == "json":
        # json.dumps of {"q", "k", "e1", "e2", "n", "dim", "dual_min_weight", "dual_weights"}
        write(f'{{"q": {q}, "k": {args.k}, "e1": {args.e1}, "e2": {args.e2}, "n": {n}, '
              f'"dim": {dim}, "dual_min_weight": {d_dual}, "dual_weights": [')
        sep = ""
        for w in sorted(dual.entries):
            write(f"{sep}[{w}, {dual.entries[w]}]")
            sep = ", "
        write("]}\n")
    else:
        write(f"dual of C_({args.e1},{args.e2}) over F_{q}: [{n},{n - dim},{d_dual}]\n")
        write("dual enumerator: ")
        sep = ""
        for term in dual.terms():  # B_0 = 1, so there is always a term
            write(f"{sep}{term}")
            sep = " + "
        write("\n")
    out.flush()
    return EXIT_OK


def cmd_minpoly(args) -> int:
    import json

    from . import polyring

    ctx = _field(args)
    poly = polyring.minimal_polynomial(ctx, args.a)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "q": args.q,
                    "k": args.k,
                    "a": args.a,
                    "degree": polyring.degree(poly),
                    "coefficients": polyring.poly_to_string(poly),
                }
            )
        )
    else:
        print(polyring.poly_to_string(poly))
    return EXIT_OK


def _add_output(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # a string default from the environment goes through type=int as well
    parser.add_argument("--field-cap", type=int,
                        default=os.environ.get(ENV_FIELD_CAP, DEFAULT_FIELD_CAP),
                        help=f"max field order (default 2^20, env {ENV_FIELD_CAP})")


def _add_common(parser) -> None:
    """Flags of the subcommands that build one field from --q and --k."""
    _add_output(parser)
    parser.add_argument("--primitive-table", default=None,
                        help="file of primitive-polynomial overrides: 'p degree c0 c1 ... cd'")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cyclochar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct and fully verify one code")
    for flag in ("--q", "--k", "--e1", "--e2"):
        p.add_argument(flag, type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("enumerate", help="list all qualifying codes for (q, k)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_output(p)  # the listing depends on neither the modulus nor a brute-force cap
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the identity sweeps over (q, k) ranges")
    p.add_argument("--q", type=_parse_range, default=None, help="single value or range a..b")
    p.add_argument("--k", type=_parse_range, default=None, help="single value or range a..b")
    p.add_argument("--props", default=None,
                   help="comma-separated property names (default: every property)")
    p.add_argument("--max-length", type=int, default=127,
                   help="q^k-1 bound for the default pair set")
    p.add_argument("--bruteforce-cap", type=int, default=DEFAULT_BRUTE_CAP,
                   help="max codewords for exhaustive enumeration")
    _add_output(p)  # the sweeps build their fields with the default modulus
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charsum", help="evaluate one character sum exactly")
    for flag in ("--q", "--k", "--e1", "--e2"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--a", type=_parse_element, required=True,
                   help="'0' or gamma exponent (e.g. g5 or 5)")
    p.add_argument("--b", type=_parse_element, required=True, help="'0' or gamma exponent")
    _add_common(p)
    p.set_defaults(func=cmd_charsum)

    p = sub.add_parser("dual", help="dual weight distribution of a code")
    for flag in ("--q", "--k", "--e1", "--e2"):
        p.add_argument(flag, type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("minpoly", help="minimal polynomial h_a over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_minpoly)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    try:
        if args.field_cap <= 0 or getattr(args, "bruteforce_cap", DEFAULT_BRUTE_CAP) <= 0:
            raise InvalidArgumentError("caps must be positive")
        return args.func(args)
    except TheoremViolationError as exc:
        print(f"identity violated: {_describe(exc)}", file=sys.stderr)
        return EXIT_VIOLATION
    except (InvalidArgumentError, ResourceLimitError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {_describe(exc)}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


def _describe(exc: Exception) -> str:
    """The exception's message, or its type name when the message is empty."""
    return str(exc) or type(exc).__name__


if __name__ == "__main__":
    sys.exit(main())

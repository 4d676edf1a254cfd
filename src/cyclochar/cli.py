"""Command-line frontend.

Subcommands: build, enumerate, verify, charsum, dual, minpoly.  Output
is JSON (--format json) or human-readable text; exit codes are stable:
0 success, 1 internal error, 2 unmet precondition, 3 disproved
identity, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import polyring
from .characterize import (
    CodeReport,
    build_code,
    check_conditions,
    enumerate_codes,
)
from .codes import (
    DEFAULT_BRUTE_CAP,
    code_from_exponents,
    code_spec,
    macwilliams_dual,
    weight_distribution_trace_exponents,
)
from .errors import (
    ConditionFailedError,
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)
from .expsum import char_sum
from .gf import DEFAULT_FIELD_CAP, ZERO, FieldCtx, field_for, load_primitive_table
from .numth import code_count
from .verify import PROPERTIES, default_pairs, run_block

ENV_FIELD_CAP = "CYCLOCHAR_FIELD_CAP"

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_PRECONDITION = 2
EXIT_VIOLATION = 3
EXIT_USAGE = 64


@dataclass
class RunConfig:
    field_cap: int = DEFAULT_FIELD_CAP
    bruteforce_cap: int = DEFAULT_BRUTE_CAP
    output_format: str = "text"
    primitive_table_path: str | None = None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cap = args.field_cap
        if cap is None:
            cap = int(os.environ.get(ENV_FIELD_CAP, DEFAULT_FIELD_CAP))
        cfg = cls(
            field_cap=cap,
            bruteforce_cap=args.bruteforce_cap,
            output_format=args.format,
            primitive_table_path=args.primitive_table,
        )
        if cfg.field_cap <= 0 or cfg.bruteforce_cap <= 0:
            raise InvalidArgumentError("caps must be positive")
        return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _field(cfg: RunConfig, q: int, k: int) -> FieldCtx:
    table = (
        load_primitive_table(cfg.primitive_table_path)
        if cfg.primitive_table_path
        else None
    )
    return field_for(q, k, cap=cfg.field_cap, primitive_table=table)


def report_json(report: CodeReport) -> dict:
    """The fixed-order report object; key order is part of the format."""
    return {
        "q": report.spec.q,
        "k": report.spec.k,
        "e1": report.spec.e1,
        "e2": report.spec.e2,
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


def _trace_class_reps(ctx: FieldCtx) -> dict[int, int]:
    """Smallest gamma-exponent per nonzero trace symbol (reporting metadata)."""
    trq = ctx.trace_q_symbols()
    reps: dict[int, int] = {}
    for e, sym in enumerate(trq.tolist()):
        if sym and sym not in reps:
            reps[sym] = e
    return dict(sorted(reps.items()))


def report_text(report: CodeReport, ctx: FieldCtx) -> str:
    spec = report.spec
    lines = [
        f"code C_(Delta*e1={spec.delta * spec.e1 % spec.n}, e2={spec.e2}) over F_{spec.q}:"
        f" [{report.n},{report.dim},{report.min_distance}] cyclic code",
        f"weight enumerator: {report.distribution.enumerator()}",
        f"three-weight table match: {report.three_weight_match}",
        f"griesmer optimal: {report.griesmer_optimal}",
        f"dual: [{report.n},{report.n - report.dim},{report.dual_min_weight}]"
        f" with B1={report.dual_b1} B2={report.dual_b2} B3={report.dual_b3}",
        f"trace class representatives (symbol: gamma exponent): {_trace_class_reps(ctx)}",
    ]
    return "\n".join(lines)


def cmd_build(args, cfg: RunConfig) -> int:
    ctx = _field(cfg, args.q, args.k)
    try:
        report = build_code(ctx, args.q, args.k, args.e1, args.e2)
    except ConditionFailedError as exc:
        if cfg.output_format == "json":
            print(json.dumps({"error": "conditions_failed", "failed": list(exc.failed)}))
        else:
            print(f"conditions failed: {'; '.join(exc.failed)}")
        return EXIT_PRECONDITION
    if cfg.output_format == "json":
        print(json.dumps(report_json(report)))
    else:
        print(report_text(report, ctx))
    return EXIT_OK


def cmd_enumerate(args, cfg: RunConfig) -> int:
    ctx = _field(cfg, args.q, args.k)
    specs = enumerate_codes(ctx, args.q, args.k)  # count mismatch raises
    formula = code_count(args.q, args.k)
    if cfg.output_format == "json":
        print(
            json.dumps(
                {
                    "q": args.q,
                    "k": args.k,
                    "count": len(specs),
                    "formula": formula,
                    "codes": [
                        {"e1": s.e1, "delta_e1": s.delta * s.e1 % s.n, "e2": s.e2}
                        for s in specs
                    ],
                }
            )
        )
    else:
        print(f"qualifying codes for q={args.q}, k={args.k}: {len(specs)}"
              f" (formula: {formula})")
        for s in specs:
            print(f"  C_({s.delta * s.e1 % s.n},{s.e2})   e1={s.e1} e2={s.e2}")
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def cmd_verify(args, cfg: RunConfig) -> int:
    if args.q is None and args.k is None:
        pairs = default_pairs(args.max_length)
    else:
        qs = _parse_range(args.q) if args.q else [q for q, _ in default_pairs(args.max_length)]
        ks = _parse_range(args.k) if args.k else None
        pairs = []
        for q in sorted(set(qs)):
            kr = ks if ks is not None else [k for qq, k in default_pairs(args.max_length) if qq == q]
            for k in kr:
                pairs.append((q, k))
    props = args.props.split(",") if args.props else list(PROPERTIES)
    unknown = [p for p in props if p not in PROPERTIES]
    if unknown:
        raise InvalidArgumentError(f"unknown properties: {unknown}")
    results = []
    for q, k in pairs:
        results.extend(run_block(q, k, cfg.field_cap, props, cfg.bruteforce_cap))
    failures = [r for r in results if not r.ok]
    if cfg.output_format == "json":
        print(json.dumps([r.to_json() for r in results]))
    else:
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            line = f"{status} {r.prop} q={r.q} k={r.k} checked={r.checked}"
            if not r.ok:
                line += f" counterexample={json.dumps(r.counterexample)}"
            print(line)
    if failures:
        first = failures[0]
        print(
            f"counterexample: {json.dumps(first.to_json())}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _parse_element(text: str) -> int:
    """Element literal: "0" is the zero element, "g<e>" or a bare nonzero
    integer is the exponent e of gamma^e."""
    text = text.strip()
    if text == "0":
        return ZERO
    if text.startswith("g"):
        return int(text[1:])
    return int(text)


def cmd_charsum(args, cfg: RunConfig) -> int:
    ctx = _field(cfg, args.q, args.k)
    spec = code_spec(args.q, args.k, args.e1, args.e2)
    a = _parse_element(args.a)
    b = _parse_element(args.b)
    if not (a == ZERO or 0 <= a < ctx.m) or not (b == ZERO or 0 <= b < ctx.m):
        raise InvalidArgumentError("element exponent out of range")
    value = char_sum(ctx, spec, a, b)
    conds = check_conditions(args.q, args.k, args.e1, args.e2)
    d = spec.d
    tr_zero = a == ZERO or ctx.trace_to(a, "Fq") == ZERO
    case = f"Tr(a){'=' if tr_zero else '!='}0, b{'=' if b == ZERO else '!='}0"
    integer = value.as_integer() if value.is_integral() else None
    out = {
        "q": args.q,
        "k": args.k,
        "e1": args.e1,
        "e2": args.e2,
        "a": args.a,
        "b": args.b,
        "counts": list(value.counts),
        "integer": integer,
        "case": case,
        "closed_form_applies": all(conds),
    }
    if not all(conds):
        out["d"] = d
        if integer is not None:
            out["d_divides"] = integer % d == 0
    if cfg.output_format == "json":
        print(json.dumps(out))
    else:
        print(f"counts per character exponent: {list(value.counts)}")
        print(f"value: {integer if integer is not None else 'not a rational integer'}")
        print(f"class: {case}")
        if all(conds):
            print("covered by the closed-form case table")
        else:
            print(f"not covered by the closed-form case table (d={d})"
                  + (f"; d | value: {integer % d == 0}" if integer is not None else ""))
    return EXIT_OK


def cmd_dual(args, cfg: RunConfig) -> int:
    ctx = _field(cfg, args.q, args.k)
    wd = weight_distribution_trace_exponents(ctx, args.e1, args.e2)
    code = code_from_exponents(ctx, args.e1, args.e2)
    dual = macwilliams_dual(wd, code.n, args.q, code.dimension)
    out = {
        "q": args.q,
        "k": args.k,
        "e1": args.e1,
        "e2": args.e2,
        "n": code.n,
        "dim": code.dimension,
        "dual_min_weight": dual.min_nonzero_weight(),
        "dual_weights": dual.pairs(),
    }
    if cfg.output_format == "json":
        print(json.dumps(out))
    else:
        print(f"dual of C_({args.e1},{args.e2}) over F_{args.q}:"
              f" [{code.n},{code.n - code.dimension},{dual.min_nonzero_weight()}]")
        print(f"dual enumerator: {dual.enumerator()}")
    return EXIT_OK


def cmd_minpoly(args, cfg: RunConfig) -> int:
    ctx = _field(cfg, args.q, args.k)
    poly = polyring.minimal_polynomial(ctx, args.a)
    if cfg.output_format == "json":
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


def _add_common(parser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--field-cap", type=int, default=None,
                        help=f"max field order (default 2^20, env {ENV_FIELD_CAP})")
    parser.add_argument("--bruteforce-cap", type=int, default=DEFAULT_BRUTE_CAP,
                        help="max codewords for exhaustive enumeration")
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
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the identity sweeps over (q, k) ranges")
    p.add_argument("--q", default=None, help="single value or range a..b")
    p.add_argument("--k", default=None, help="single value or range a..b")
    p.add_argument("--props", default=None,
                   help=f"comma-separated subset of: {','.join(PROPERTIES)}")
    p.add_argument("--max-length", type=int, default=127,
                   help="q^k-1 bound for the default pair set")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("charsum", help="evaluate one character sum exactly")
    for flag in ("--q", "--k", "--e1", "--e2"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--a", required=True, help="'0' or gamma exponent (e.g. g5 or 5)")
    p.add_argument("--b", required=True, help="'0' or gamma exponent")
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
    try:
        cfg = RunConfig.from_args(args)
        return args.func(args, cfg)
    except TheoremViolationError as exc:
        print(f"identity violated: {_describe(exc)}", file=sys.stderr)
        return EXIT_VIOLATION
    except (InvalidArgumentError, ResourceLimitError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {_describe(exc)}", file=sys.stderr)
        return EXIT_INTERNAL


def _describe(exc: Exception) -> str:
    """The exception's message, or its type name when the message is empty."""
    return str(exc) or type(exc).__name__


if __name__ == "__main__":
    sys.exit(main())

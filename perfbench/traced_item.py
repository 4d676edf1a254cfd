"""Run one cyclochar CLI command in this interpreter with layer spans recorded.

Usage: traced_item.py SPANS_FILE ITEM_ID CLI_ARG...

Wraps the public functions listed in TRACED in every cyclochar module
namespace that binds them, calls cyclochar.cli.main(CLI_ARG...) and, once
it returns, writes the spans as JSON to SPANS_FILE.  A span is
[name, start, end, parent, item, work]: perf_counter seconds, the index
of the enclosing span (-1 for none), the item id and a work count
(grid cells or codewords, else 0).  The scalar FieldCtx element
operations are left alone: they run millions of times per item.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from cyclochar import characterize, cli, codes, expsum, gf, numth, polyring, verify

# (owner, attribute, work count or None); the span name is "<layer>.<attribute>"
TRACED = [
    (cli, "main", None),
    (gf, "field_for", None),
    (gf, "build_field", None),
    (gf.FieldCtx, "__init__", None),
    (gf.FieldCtx, "trace_q_symbols", None),
    (gf.FieldCtx, "char_exponents", None),
    (gf.FieldCtx, "trace_q_symbol_list", None),
    (gf.FieldCtx, "char_exponent_list", None),
    (gf.FieldCtx, "symbol_tables", None),
    (numth, "cyclotomic_coset", None),
    (numth, "coset_representatives", None),
    (numth, "bezout_pair", None),
    (polyring, "minimal_polynomial", None),
    (polyring, "poly_divmod", None),
    (expsum, "char_sum", None),
    (codes, "trace_weight_grid", lambda ctx, *_: ctx.q * ctx.order),
    (codes, "weight_distribution_bruteforce", lambda ctx, code, *_: ctx.q**code.dimension),
    (codes, "macwilliams_dual", None),
    (codes, "pless_moments", None),
    (codes, "pless_moment_check", None),
    (characterize, "build_code", None),
    (characterize, "characterize_code", None),
    (characterize, "factor_into_cosets", None),
    (characterize, "one_weight_check", None),
    (characterize, "full_weight_divisor", None),
    (characterize, "two_weight_gap_scan", None),
    (characterize, "enumerate_codes", None),
    (verify, "run_block", None),
    (verify, "verify_substitution", None),
    (verify, "verify_char_sum_cases", None),
    (verify, "verify_char_sum_unit_iff", None),
    (verify, "verify_three_weight_iff", None),
    (verify, "verify_oracle_equivalence", None),
    (verify, "verify_duality", None),
    (verify, "verify_enumeration", None),
    (verify, "verify_two_weight_gaps", None),
]


class Tracer:
    def __init__(self, item: int):
        self.item = item
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, work):
        spans, stack, item, clock = self.spans, self.stack, self.item, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, item,
                   work(*args, **kwargs) if work else 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("cyclochar")]
        for owner, attr, work in TRACED:
            layer = (owner.__module__ if isinstance(owner, type) else owner.__name__).rsplit(".", 1)[-1]
            original = getattr(owner, attr)
            wrapped = self.wrap(f"{layer}.{attr}", original, work)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapped)


def main(argv: list[str]) -> int:
    spans_file, item, cli_args = argv[0], int(argv[1]), argv[2:]
    t0 = time.perf_counter()
    tracer = Tracer(item)
    tracer.install()
    overhead = time.perf_counter() - t0
    code = cli.main(cli_args)
    sys.stdout.flush()
    t1 = time.perf_counter()
    spans = json.dumps(tracer.spans, separators=(",", ":"))
    overhead += time.perf_counter() - t1
    # overhead_s: time spent installing wrappers and encoding spans, which
    # the benchmark subtracts from the item's startup time
    with open(spans_file, "w") as fh:
        fh.write(f'{{"item": {item}, "exit": {code}, "overhead_s": {overhead!r}, "spans": {spans}}}')
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

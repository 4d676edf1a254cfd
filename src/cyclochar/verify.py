"""Exhaustive property sweeps behind the verify command and the test suite.

Each sweep checks one exact identity over a whole (q, k) block and
reports a machine-readable result with the first counterexample, if
any.  Failures never raise past the sweep boundary: a disproved
identity comes back as a failing result so a runner can report every
property it touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import polyring
from .characterize import (
    build_code,
    check_conditions,
    enumerate_codes,
    two_weight_gap_scan,
)
from .codes import (
    DEFAULT_BRUTE_CAP,
    CodeSpec,
    char_sum_grid,
    code_spec,
    cyclic_code,
    macwilliams_dual,
    parity_check_from_exponents,
    pless_moment_check,
    dual_b3,
    three_weight_distribution,
    weight_distribution_bruteforce,
    weight_distribution_trace,
)
from .errors import CyclocharError
from .expsum import char_sum, predict_char_sum, substitution, substitution_inverse
from .gf import ZERO, FieldCtx, field_for
from .numth import prime_power_split

PROPERTIES = (
    "substitution_bijection",
    "char_sum_cases",
    "char_sum_unit_iff",
    "three_weight_iff_conditions",
    "oracle_equivalence",
    "duality_suite",
    "enumeration_count",
    "two_weight_gaps",
)


@dataclass
class PropertyResult:
    prop: str
    q: int
    k: int
    ok: bool
    checked: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out = {
            "property": self.prop,
            "q": self.q,
            "k": self.k,
            "ok": self.ok,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def default_pairs(length_limit: int = 127) -> list[tuple[int, int]]:
    """All (q, k) with q a prime power, k >= 2 and q^k - 1 <= length_limit."""
    out = []
    for q in range(2, length_limit + 2):
        try:
            prime_power_split(q)
        except CyclocharError:
            continue
        k = 2
        while q**k - 1 <= length_limit:
            out.append((q, k))
            k += 1
    return sorted(out)


def valid_e2_values(q: int, k: int) -> list[int]:
    """All e2 in [0, q^k - 1) satisfying the standing gcd(Delta, e2) = 1."""
    n = q**k - 1
    delta = n // (q - 1)
    return [e2 for e2 in range(n) if gcd(delta, e2) == 1]


def all_specs(q: int, k: int) -> list[CodeSpec]:
    """Every spec for (q, k): e1 in [0, q-1), e2 any unit against Delta."""
    return [
        code_spec(q, k, e1, e2)
        for e1 in range(q - 1)
        for e2 in valid_e2_values(q, k)
    ]


def verify_substitution(q: int, k: int) -> PropertyResult:
    """Forward/inverse reindexing is a two-sided bijection on the whole grid.

    The map depends on (q, k, e2) only, so e1 contributes nothing new.
    """
    n = q**k - 1
    checked = 0
    for e2 in valid_e2_values(q, k):
        spec = code_spec(q, k, 0, e2)
        seen = bytearray(n * (q - 1))
        for i in range(n):
            for j in range(q - 1):
                v, w = substitution(spec, i, j)
                back = substitution_inverse(spec, v, w)
                if back != (i, j):
                    return PropertyResult(
                        "substitution_bijection",
                        q,
                        k,
                        False,
                        checked,
                        {"e2": e2, "i": i, "j": j, "v": v, "w": w, "back": list(back)},
                    )
                flat = v * (q - 1) + w
                if seen[flat]:
                    return PropertyResult(
                        "substitution_bijection",
                        q,
                        k,
                        False,
                        checked,
                        {"e2": e2, "collision_at": [v, w]},
                    )
                seen[flat] = 1
                checked += 1
    return PropertyResult("substitution_bijection", q, k, True, checked)


def _class_elements(ctx: FieldCtx) -> dict[str, int | None]:
    """Smallest-exponent representatives of the trace classes of a."""
    trq = ctx.trace_q_symbols()
    nonzero = int(np.argmax(trq != 0)) if np.any(trq != 0) else None
    zeros = np.nonzero(trq == 0)[0]
    return {
        "trace_nonzero": nonzero,
        "trace_zero_nonzero_a": int(zeros[0]) if len(zeros) else None,
    }


def verify_char_sum_cases(q: int, k: int, ctx: FieldCtx) -> PropertyResult:
    """Under both conditions the sum takes the predicted value in every class.

    The (tau, b) grid covers every (a, b) pair exactly, since the sum
    depends on a only through Tr(a); the count-vector path is evaluated
    directly on one representative (a, b) per class as well.
    """
    checked = 0
    reps = _class_elements(ctx)
    for spec in all_specs(q, k):
        if not all(check_conditions(q, k, spec.e1, spec.e2)):
            continue
        grid = char_sum_grid(ctx, spec.e1, spec.e2)
        n = spec.n
        expected = np.full_like(grid, 1)
        expected[0, :] = -(q - 1)
        expected[0, 0] = (q - 1) * n
        expected[1:, 0] = -n
        if not np.array_equal(grid, expected):
            tau, b = np.argwhere(grid != expected)[0]
            return PropertyResult(
                "char_sum_cases",
                q,
                k,
                False,
                checked,
                {
                    "e1": spec.e1,
                    "e2": spec.e2,
                    "tau": int(tau),
                    "b_col": int(b),
                    "got": int(grid[tau, b]),
                    "want": int(expected[tau, b]),
                },
            )
        checked += grid.size
        # direct count-vector evaluations, one per class
        a_nz = reps["trace_nonzero"]
        cases = [
            (ZERO, ZERO, True, True, True),
            (ZERO, 0, True, True, False),
            (a_nz, ZERO, False, False, True),
            (a_nz, 0, False, False, False),
        ]
        if reps["trace_zero_nonzero_a"] is not None:
            a_z = reps["trace_zero_nonzero_a"]
            cases.append((a_z, ZERO, True, False, True))
            cases.append((a_z, 0, True, False, False))
        for a, b, tz, az, bz in cases:
            got = char_sum(ctx, spec, a, b).as_integer()
            want = predict_char_sum(q, k, tz, az, bz)
            if got != want:
                return PropertyResult(
                    "char_sum_cases",
                    q,
                    k,
                    False,
                    checked,
                    {"e1": spec.e1, "e2": spec.e2, "a": a, "b": b, "got": got, "want": want},
                )
            checked += 1
    return PropertyResult("char_sum_cases", q, k, True, checked)


def verify_char_sum_unit_iff(q: int, k: int, ctx: FieldCtx) -> PropertyResult:
    """T = 1 on the Tr(a) != 0, b != 0 classes iff gcd(q-1, k*e1 - e2) = 1.

    When the gcd is d > 1 every such value must be a nonunit multiple
    of d.  Covers every (a, b) pair through the trace classes.
    """
    checked = 0
    for spec in all_specs(q, k):
        d = spec.d
        grid = char_sum_grid(ctx, spec.e1, spec.e2)
        block = grid[1:, 1:]
        if d == 1:
            bad = np.argwhere(block != 1)
        else:
            bad = np.argwhere((block == 1) | (block % d != 0))
        if len(bad):
            tau, b = bad[0]
            return PropertyResult(
                "char_sum_unit_iff",
                q,
                k,
                False,
                checked,
                {
                    "e1": spec.e1,
                    "e2": spec.e2,
                    "d": d,
                    "tau": int(tau) + 1,
                    "b_col": int(b) + 1,
                    "value": int(block[tau, b]),
                },
            )
        checked += block.size
    return PropertyResult("char_sum_unit_iff", q, k, True, checked)


def verify_three_weight_iff(
    q: int, k: int, ctx: FieldCtx, brute_cap: int = DEFAULT_BRUTE_CAP
) -> PropertyResult:
    """Brute-forced distribution equals the three-weight table iff both gcds hold.

    Scans every (e1, e2) in [0, q-1) x [0, q^k - 1), including pairs
    violating the standing assumption; the oracle never consults the
    trace representation.
    """
    n = q**k - 1
    table = three_weight_distribution(q, k)
    cache: dict[polyring.Poly, bool] = {}
    checked = 0
    for e1 in range(q - 1):
        for e2 in range(n):
            h = parity_check_from_exponents(ctx, e1, e2)
            match = cache.get(h)
            if match is None:
                code = cyclic_code(ctx, h)
                match = weight_distribution_bruteforce(ctx, code, brute_cap) == table
                cache[h] = match
            conds = all(check_conditions(q, k, e1, e2))
            if match != conds:
                return PropertyResult(
                    "three_weight_iff_conditions",
                    q,
                    k,
                    False,
                    checked,
                    {"e1": e1, "e2": e2, "table_match": match, "conditions": conds},
                )
            checked += 1
    return PropertyResult("three_weight_iff_conditions", q, k, True, checked)


def verify_oracle_equivalence(
    q: int, k: int, ctx: FieldCtx, brute_cap: int = DEFAULT_BRUTE_CAP
) -> PropertyResult:
    """Trace-path distribution equals brute force for every spec.

    The generator division and the brute-force run are shared between
    specs that define the same code (same parity check); the trace path
    runs per spec.
    """
    cache: dict[polyring.Poly, dict[int, int]] = {}
    checked = 0
    for spec in all_specs(q, k):
        wd = weight_distribution_trace(ctx, spec)
        h = parity_check_from_exponents(ctx, spec.e1, spec.e2)
        brute = cache.get(h)
        if brute is None:
            code = cyclic_code(ctx, h)
            brute = weight_distribution_bruteforce(ctx, code, brute_cap).entries
            cache[h] = brute
        if wd.entries != brute:
            return PropertyResult(
                "oracle_equivalence",
                q,
                k,
                False,
                checked,
                {"e1": spec.e1, "e2": spec.e2, "trace": wd.entries, "brute": brute},
            )
        checked += 1
    return PropertyResult("oracle_equivalence", q, k, True, checked)


def verify_duality(q: int, k: int, ctx: FieldCtx) -> PropertyResult:
    """MacWilliams involution, Pless moments, B_1 = B_2 = 0 and closed-form B_3.

    Runs over every qualifying code for (q, k); also checks the dual
    minimum distance is 3 whenever q > 2.
    """
    checked = 0
    b3 = dual_b3(q, k)
    for spec in enumerate_codes(ctx, q, k):
        n = spec.n
        dim = k + 1
        wd = weight_distribution_trace(ctx, spec)
        dual = macwilliams_dual(wd, n, q, dim)
        back = macwilliams_dual(dual, n, q, n - dim)
        failure = None
        if back != wd:
            failure = "involution"
        elif not pless_moment_check(wd, dual, n, q, dim):
            failure = "pless_moments"
        elif dual.entries.get(1, 0) or dual.entries.get(2, 0):
            failure = "B1_B2_nonzero"
        elif dual.entries.get(3, 0) != b3:
            failure = "B3_mismatch"
        elif q > 2 and dual.min_nonzero_weight() != 3:
            failure = "dual_min_weight"
        if failure:
            return PropertyResult(
                "duality_suite",
                q,
                k,
                False,
                checked,
                {"e1": spec.e1, "e2": spec.e2, "failure": failure},
            )
        checked += 1
    return PropertyResult("duality_suite", q, k, True, checked)


def verify_enumeration(q: int, k: int, ctx: FieldCtx) -> PropertyResult:
    """Enumeration agrees with the closed-form count and every entry verifies."""
    try:
        specs = enumerate_codes(ctx, q, k)
        for spec in specs:
            build_code(ctx, q, k, spec.e1, spec.e2)
    except CyclocharError as exc:
        return PropertyResult(
            "enumeration_count", q, k, False, 0, {"error": str(exc)}
        )
    return PropertyResult("enumeration_count", q, k, True, len(specs))


def verify_two_weight_gaps(
    q: int, k: int, ctx: FieldCtx, brute_cap: int = DEFAULT_BRUTE_CAP
) -> PropertyResult:
    """No two-weight irreducible code has adjacent weights; systems solve."""
    try:
        entries = two_weight_gap_scan(ctx, q, k, brute_cap)
    except CyclocharError as exc:
        return PropertyResult("two_weight_gaps", q, k, False, 0, {"error": str(exc)})
    return PropertyResult("two_weight_gaps", q, k, True, len(entries))


def run_block(
    q: int,
    k: int,
    field_cap: int,
    props=PROPERTIES,
    brute_cap: int = DEFAULT_BRUTE_CAP,
) -> list[PropertyResult]:
    """Run the selected sweeps for one (q, k) block."""
    ctx = field_for(q, k, cap=field_cap)
    out = []
    for prop in props:
        if prop == "substitution_bijection":
            out.append(verify_substitution(q, k))
        elif prop == "char_sum_cases":
            out.append(verify_char_sum_cases(q, k, ctx))
        elif prop == "char_sum_unit_iff":
            out.append(verify_char_sum_unit_iff(q, k, ctx))
        elif prop == "three_weight_iff_conditions":
            out.append(verify_three_weight_iff(q, k, ctx, brute_cap))
        elif prop == "oracle_equivalence":
            out.append(verify_oracle_equivalence(q, k, ctx, brute_cap))
        elif prop == "duality_suite":
            out.append(verify_duality(q, k, ctx))
        elif prop == "enumeration_count":
            out.append(verify_enumeration(q, k, ctx))
        elif prop == "two_weight_gaps":
            out.append(verify_two_weight_gaps(q, k, ctx, brute_cap))
    return out

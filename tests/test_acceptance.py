"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <n> PASS" line (visible with -s or
in captured output) and enforces the stated runtime where one exists.
All comparisons are exact.
"""

import time

from cyclochar import characterize as ch, codes, gf, verify
from cyclochar.errors import CyclocharError
from cyclochar.expsum import char_sum
from cyclochar.gf import ZERO
from cyclochar.numth import DEFAULT_FIELD_CAP, code_count, gcd_conditions, prime_power_split

PAIRS_255 = list(verify.default_pairs(255))
PAIRS_511 = list(verify.default_pairs(511))


def _report(num, desc, elapsed):
    print(f"ACCEPTANCE {num} PASS: {desc} [{elapsed:.2f}s]")


def test_criterion_01_example1_reproduction():
    start = time.perf_counter()
    ctx = gf.field_for(4, 3)
    rep = ch.build_code(ctx, 2, 5)
    assert rep.distribution.enumerator() == "1 + 189z^47 + 63z^48 + 3z^63"
    n, dim, d = rep.ctx.m, rep.ctx.k + 1, rep.distribution.min_nonzero_weight()
    assert (n, dim, d) == (63, 4, 47)
    assert codes.is_griesmer_optimal(4, n, dim, d)
    assert tuple(rep.dual.entries.get(j, 0) for j in (1, 2, 3)) == (0, 0, 3843)
    assert (n, n - dim, rep.dual.min_nonzero_weight()) == (63, 59, 3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "q=4 k=3 e1=2 e2=5 gives the exact [63,4,47] report", elapsed)


def test_criterion_02_example2_reproduction():
    start = time.perf_counter()
    ctx = gf.field_for(3, 4)
    pairs = list(ch.enumerate_codes(3, 4, ctx.order))
    assert len(pairs) == 16
    listing = {(ctx.delta * e1 % ctx.m, e2) for e1, e2 in pairs}
    assert listing == {
        (d, e2) for d in (0, 40) for e2 in (1, 7, 11, 13, 17, 23, 41, 53)
    }
    for e1, e2 in pairs:
        wd = codes.weight_distribution_trace(ctx, e1, e2)
        assert wd.enumerator() == "1 + 160z^53 + 80z^54 + 2z^80"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, "enumerate(3,4) lists the 16 published codes, each [80,5,53]", elapsed)


def test_criterion_03_table_biconditional():
    start = time.perf_counter()
    total = 0
    for q, k in PAIRS_511:
        ctx = gf.field_for(q, k)
        checked, counterexample = verify.verify_three_weight_iff(verify.BruteForceMemo(ctx))
        assert counterexample is None, counterexample
        total += checked
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(3, f"distribution = table <=> both gcds, {total} pairs, brute-forced", elapsed)


def _large_oracle_pairs():
    out = []
    for q in range(2, 41):
        try:
            prime_power_split(q)
        except CyclocharError:
            continue
        k = 2
        while q ** (k + 1) <= 1 << 16:
            n = q**k - 1
            if 255 < n <= 4095:
                out.append((q, k))
            k += 1
    return out


def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    total = 0
    for q, k in PAIRS_255:
        ctx = gf.field_for(q, k)
        checked, counterexample = verify.verify_oracle_equivalence(verify.BruteForceMemo(ctx))
        assert counterexample is None, counterexample
        total += checked
    # beyond length 255 the sweep thins to one canonical spec per (q, k)
    for q, k in _large_oracle_pairs():
        ctx = gf.field_for(q, k)
        wd = codes.weight_distribution_trace(ctx, 0, 1)
        code = codes.code_from_exponents(ctx, 0, 1)
        assert wd == codes.weight_distribution_bruteforce(ctx, code), (q, k)
        total += 1
    elapsed = time.perf_counter() - start
    _report(4, f"trace path = brute force on {total} specs", elapsed)


def test_criterion_05_char_sum_case_table():
    start = time.perf_counter()
    total = 0
    for q, k in PAIRS_255:
        ctx = gf.field_for(q, k)
        checked, counterexample = verify.verify_char_sum_cases(ctx)
        assert counterexample is None, counterexample
        total += checked
    elapsed = time.perf_counter() - start
    _report(5, f"all four case values hit on {total} class evaluations", elapsed)


def test_criterion_06_unit_sum_converse():
    start = time.perf_counter()
    total = 0
    gap_specs = 0
    for q, k in PAIRS_255:
        ctx = gf.field_for(q, k)
        checked, counterexample = verify.verify_char_sum_unit_iff(ctx)
        assert counterexample is None, counterexample
        total += checked
        # direct count-vector evaluation on one d > 1 pair per block
        for e1, e2 in verify.all_pairs(q, k):
            d = gcd_conditions(q, k, e1, e2)[0]
            if d <= 1:
                continue
            gap_specs += 1
            a = next(e for e in range(ctx.m) if ctx.trace_to(e, "Fq") != ZERO)
            value = char_sum(ctx, e1, e2, a, 0).as_integer()
            assert value != 1 and value % d == 0
            break
    assert gap_specs > 0
    elapsed = time.perf_counter() - start
    _report(6, f"T != 1 and d | T on every Tr(a)!=0, b!=0 class ({total} values)", elapsed)


def test_criterion_07_substitution_bijection():
    start = time.perf_counter()
    total = 0
    for q, k in PAIRS_255:
        checked, counterexample = verify.verify_substitution(q, k)
        assert counterexample is None, counterexample
        total += checked
    elapsed = time.perf_counter() - start
    _report(7, f"reindexing bijective with exact inverse on {total} points", elapsed)


def test_criterion_08_enumeration_count():
    start = time.perf_counter()
    for q, k in PAIRS_255:
        pairs = list(ch.enumerate_codes(q, k, DEFAULT_FIELD_CAP))  # raises on formula mismatch
        assert len(pairs) == code_count(q, k)
    elapsed = time.perf_counter() - start
    _report(8, f"enumeration cardinality = phi(q^k-1)(q-1)/k on {len(PAIRS_255)} blocks", elapsed)


def test_criterion_09_two_weight_gap_scan():
    start = time.perf_counter()
    solved = 0
    scanned = 0
    for q, k in PAIRS_255:
        ctx = gf.field_for(q, k)
        entries = ch.two_weight_gap_scan(ctx)  # raises on a +-1 gap
        scanned += len(entries)
        for e in entries:
            if len(e.weights) == 2:
                assert abs(e.weights[0] - e.weights[1]) != 1
            if len(e.weights) == 2 and e.kprime == k:
                assert e.solution is not None
                solved += 1
    assert solved > 0
    elapsed = time.perf_counter() - start
    _report(9, f"no adjacent two-weight pairs in {scanned} irreducible codes;"
               f" {solved} exponent systems solved", elapsed)


def test_criterion_10_duality_suite():
    start = time.perf_counter()
    total = 0
    for q, k in PAIRS_255:
        ctx = gf.field_for(q, k)
        checked, counterexample = verify.verify_duality(ctx)
        assert counterexample is None, counterexample
        total += checked
    elapsed = time.perf_counter() - start
    _report(10, f"involution, Pless moments and closed-form B3 on {total} codes", elapsed)

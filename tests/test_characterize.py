"""Theorem-level procedures: build, characterize, scans, enumeration."""

from math import gcd

import pytest

from cyclochar import characterize as ch, cli, codes, gf, numth, polyring as pr
from cyclochar.errors import (
    ConditionFailedError,
    InvalidArgumentError,
    TheoremViolationError,
)
from cyclochar.numth import (
    coset_representatives,
    cyclotomic_coset,
    factorize,
    gcd_conditions,
)

# Every (q, k) with k >= 2 and q^k - 1 <= 4095, q a prime power.
SMALL_PAIRS = [
    (q, k)
    for q in range(2, 65)
    if len(factorize(q)) == 1
    for k in range(2, 13)
    if q**k - 1 <= 4095
]


def reference_enumeration(q, k):
    """The listing as it was first computed: one coset per representative and
    one gcd per (e1, representative), in e1-major order."""
    n = q**k - 1
    delta = n // (q - 1)
    e2_reps = [rep for rep in coset_representatives(q, k) if gcd(delta, rep) == 1]
    for rep in e2_reps:
        assert len(cyclotomic_coset(rep, q, n)) == k
    out = []
    for e1 in range(q - 1):
        for rep in e2_reps:
            if gcd(q - 1, (k * e1 - rep) % (q - 1)) == 1:
                out.append((e1, rep))
    return out


def reference_gap_scan(ctx, cap=numth.DEFAULT_BRUTE_CAP):
    """The gap scan as it ran before one brute force per gcd class: the code
    of every coset is brute-forced and, at full degree, solved."""
    out = []
    for e, kprime in coset_representatives(ctx.q, ctx.k).items():
        wd = ch.weight_distribution_bruteforce(
            ctx, codes.cyclic_code(ctx, pr.minimal_polynomial(ctx, e)), cap
        )
        nonzero = tuple(sorted(w for w in wd.entries if w))
        solution = None
        if len(nonzero) == 2:
            if abs(nonzero[0] - nonzero[1]) == 1:
                raise TheoremViolationError(
                    f"two-weight code at e={e} has adjacent weights {nonzero}"
                )
            if kprime == ctx.k:
                solution = ch._solve_two_weight_system(ctx, e, nonzero)
                if solution is None:
                    raise TheoremViolationError(
                        f"no (r, epsilon, theta) solution at e={e}, weights {nonzero}"
                    )
        out.append(ch.GapScanEntry(e, kprime, nonzero, solution))
    return out


def gap_scan_outcome(scan, ctx):
    """The entries of a gap scan, or (name, message) of the error it raised."""
    try:
        return scan(ctx)
    except TheoremViolationError as exc:
        return type(exc).__name__, str(exc)


# Every (q, k) with k >= 2 and q^k - 1 <= 255, q a prime power.
PAIRS_255 = [(q, k) for q, k in SMALL_PAIRS if q**k - 1 <= 255]


class TestCheckConditions:
    def test_example1(self):
        assert gcd_conditions(4, 3, 2, 5) == (1, 1)

    def test_binary_first_condition_vacuous(self):
        for e1 in range(3):
            for e2 in range(7):
                assert gcd_conditions(2, 3, e1, e2)[0] == 1

    def test_shared_factor_detected(self):
        g1, g2 = gcd_conditions(3, 4, 0, 2)
        assert g2 != 1  # gcd(40, 2) = 2

    def test_remainder_normalization(self):
        # huge and negative exponents reduce before the gcd
        assert gcd_conditions(4, 3, 2 + 3 * 10**9, 5 - 63 * 10**9) == (1, 1)


def code_parameters(rep):
    """[n, dim, d] of a build_code report, read off its field and distribution."""
    return rep.ctx.m, rep.ctx.k + 1, rep.distribution.min_nonzero_weight()


class TestBuildCode:
    def test_example1_report(self):
        ctx = gf.field_for(4, 3)
        rep = ch.build_code(ctx, 2, 5)
        assert code_parameters(rep) == (63, 4, 47)
        assert rep.distribution.entries == {0: 1, 47: 189, 48: 63, 63: 3}
        assert rep.distribution == codes.three_weight_distribution(4, 3)
        assert codes.is_griesmer_optimal(4, *code_parameters(rep))
        assert tuple(rep.dual.entries.get(j, 0) for j in (1, 2, 3)) == (0, 0, 3843)
        assert rep.dual.min_nonzero_weight() == 3

    def test_q2_k3(self):
        ctx = gf.field_for(2, 3)
        rep = ch.build_code(ctx, 0, 1)
        assert code_parameters(rep) == (7, 4, 3)
        assert sorted(rep.distribution.entries) == [0, 3, 4, 7]

    def test_example2_single_code(self):
        ctx = gf.field_for(3, 4)
        rep = ch.build_code(ctx, 0, 1)
        assert code_parameters(rep) == (80, 5, 53)
        assert rep.distribution.enumerator() == "1 + 160z^53 + 80z^54 + 2z^80"

    def test_condition_failure_names_gcd(self):
        ctx = gf.field_for(3, 2)
        with pytest.raises(ConditionFailedError) as exc:
            ch.build_code(ctx, 0, 2)
        assert "gcd(Delta,e2)=2" in exc.value.failed

    def test_field_is_the_one_source_of_q_and_k(self):
        # (e1, e2) = (0, 1) qualifies over both fields; only ctx tells them apart
        small = ch.build_code(gf.field_for(2, 3), 0, 1)
        assert (small.ctx.q, small.ctx.k, small.ctx.m) == (2, 3, 7)
        large = ch.build_code(gf.field_for(3, 4), 0, 1)
        assert (large.ctx.q, large.ctx.k, large.ctx.m) == (3, 4, 80)

    def test_report_keeps_only_what_build_code_computed(self):
        assert ch.CodeReport._fields == ("ctx", "e1", "e2", "distribution", "dual")

    @pytest.mark.parametrize("q,k,e1,e2", [(4, 3, 2, 5), (3, 4, 0, 1), (16, 3, 1, 11)])
    def test_multiplies_no_polynomials(self, monkeypatch, q, k, e1, e2):
        # dim = 1 + k follows from the two checked factor degrees
        cached = gf.field_for(q, k)
        want = ch.build_code(cached, e1, e2)

        def refuse(*_):
            raise AssertionError("build_code multiplied polynomials")

        monkeypatch.setattr(pr, "poly_mul", refuse)
        ctx = gf.FieldCtx(cached.p, cached.t, cached.k, cached.modulus)
        assert ch.build_code(ctx, e1, e2)[1:] == want[1:]  # all but the field object
        assert ctx._sym_table_lists is None  # no scalar symbol tables either

    @pytest.mark.parametrize("fault", ["distribution", "griesmer"])
    def test_a_code_that_misses_either_claim_gets_no_report(self, fault, monkeypatch, capsys):
        # a report holds neither claim, and build writes both as true,
        # because build_code raises before it reports a code that misses one
        if fault == "distribution":  # one weight-47 word moved to weight 46
            faulty = codes.WeightDistribution(63, {0: 1, 46: 1, 47: 188, 48: 63, 63: 3})
            message = "conditions hold but distribution is"
        else:  # d = 46 needs only 46 + 12 + 3 + 1 = 62 < 63 positions
            faulty = codes.WeightDistribution(63, {0: 1, 46: 189, 48: 63, 63: 3})
            monkeypatch.setattr(ch, "three_weight_distribution", lambda q, k: faulty)
            message = "[63,4,46] misses the Griesmer bound"
        monkeypatch.setattr(ch, "weight_distribution_trace", lambda ctx, e1, e2: faulty)
        with pytest.raises(TheoremViolationError) as exc:
            ch.build_code(gf.field_for(4, 3), 2, 5)
        assert message in str(exc.value)
        for fmt in ("json", "text"):
            args = ["build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5", "--format", fmt]
            code = cli.main(args)
            assert (code, capsys.readouterr().out) == (cli.EXIT_VIOLATION, "")


class TestCharacterizeCode:
    def test_example1_roundtrip(self):
        ctx = gf.field_for(4, 3)
        h = pr.poly_mul(
            ctx, pr.minimal_polynomial(ctx, 42), pr.minimal_polynomial(ctx, 5)
        )
        assert ch.characterize_code(ctx, h) == (2, 5)

    def test_reject_condition_violation(self):
        # q=3, k=2: e2=2 shares a factor with Delta=4; oracle must also fail
        ctx = gf.field_for(3, 2)
        h = pr.poly_mul(
            ctx, pr.minimal_polynomial(ctx, 0), pr.minimal_polynomial(ctx, 2)
        )
        assert ch.characterize_code(ctx, h) is None
        code = codes.cyclic_code(ctx, h)
        wd = codes.weight_distribution_bruteforce(ctx, code)
        assert wd != codes.three_weight_distribution(3, 2)

    def test_reject_wrong_dimension(self):
        ctx = gf.field_for(4, 3)
        assert ch.characterize_code(ctx, pr.minimal_polynomial(ctx, 5)) is None

    def test_reject_multiple_linear_factors(self):
        # q=4, k=2: three degree-one factors, total degree k+1
        ctx = gf.field_for(4, 2)
        h = pr.ONE
        for a in (0, 5, 10):
            h = pr.poly_mul(ctx, h, pr.minimal_polynomial(ctx, a))
        assert pr.degree(h) == 3
        assert ch.characterize_code(ctx, h) is None

    def test_reject_two_full_degree_factors(self):
        ctx = gf.field_for(2, 5)
        h = pr.poly_mul(
            ctx, pr.minimal_polynomial(ctx, 1), pr.minimal_polynomial(ctx, 3)
        )
        assert ch.characterize_code(ctx, h) is None

    def test_invalid_divisor_rejected(self):
        ctx = gf.field_for(2, 3)
        with pytest.raises(InvalidArgumentError):
            ch.characterize_code(ctx, (1, 1, 1))  # x^2+x+1 does not divide x^7-1

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (4, 2), (2, 4), (3, 3)])
    def test_roundtrip_every_qualifying_code(self, q, k):
        ctx = gf.field_for(q, k)
        for pair in ch.enumerate_codes(q, k, numth.DEFAULT_FIELD_CAP):
            h = codes.parity_check_from_exponents(ctx, *pair)
            got = ch.characterize_code(ctx, h)
            assert got is not None
            e1, e2 = got
            assert e1 % (q - 1) == pair[0] % (q - 1)
            assert e2 == pair[1]

    @pytest.mark.parametrize("q,k", [(3, 2), (2, 4), (4, 2)])
    def test_converse_negative_exhaustive(self, q, k):
        # every coset-product parity check of total degree k+1 that the
        # decision rejects must fail the distribution oracle, and vice versa
        from itertools import combinations

        from cyclochar.numth import coset_representatives

        ctx = gf.field_for(q, k)
        table = codes.three_weight_distribution(q, k)
        reps = coset_representatives(q, k)
        polys = {rep: pr.minimal_polynomial(ctx, rep) for rep in reps}
        for count in (1, 2, 3):
            for combo in combinations(reps, count):
                if sum(pr.degree(polys[r]) for r in combo) != k + 1:
                    continue
                h = pr.ONE
                for r in combo:
                    h = pr.poly_mul(ctx, h, polys[r])
                accepted = ch.characterize_code(ctx, h) is not None
                wd = codes.weight_distribution_bruteforce(
                    ctx, codes.cyclic_code(ctx, h)
                )
                assert accepted == (wd == table)


class TestOneWeight:
    def test_linear_factor_weight(self):
        ctx = gf.field_for(4, 3)
        assert ch.one_weight_check(ctx, 42, 1, 63) == 63

    def test_full_degree_weight(self):
        ctx = gf.field_for(4, 3)
        assert ch.one_weight_check(ctx, 5, 3, 63) == 48

    def test_blocked_by_u(self):
        ctx = gf.field_for(4, 3)
        assert ch.one_weight_check(ctx, 3, 3, 63) is None

    def test_wrong_kprime(self):
        ctx = gf.field_for(4, 3)
        with pytest.raises(InvalidArgumentError):
            ch.one_weight_check(ctx, 5, 2, 63)

    def test_divisibility_precondition(self):
        ctx = gf.field_for(4, 3)
        with pytest.raises(InvalidArgumentError):
            ch.one_weight_check(ctx, 5, 3, 62)


class TestFullWeightDivisor:
    def test_roundtrip_table_code(self):
        ctx = gf.field_for(3, 2)
        code = codes.code_from_exponents(ctx, 0, 1)
        got = ch.full_weight_divisor(ctx, code)
        assert got == pr.minimal_polynomial(ctx, 0)

    def test_roundtrip_nonzero_e1(self):
        ctx = gf.field_for(4, 2)
        code = codes.code_from_exponents(ctx, 1, 1)
        got = ch.full_weight_divisor(ctx, code)
        assert got == pr.minimal_polynomial(ctx, ctx.delta * 1 % ctx.m)

    def test_repetition_code(self):
        ctx = gf.field_for(2, 3)
        code = codes.cyclic_code(ctx, pr.minimal_polynomial(ctx, 0))
        assert ch.full_weight_divisor(ctx, code) == (1, 1)  # x - 1 over F_2

    def test_simplex_has_no_full_weight_words(self):
        ctx = gf.field_for(2, 3)
        code = codes.cyclic_code(ctx, pr.minimal_polynomial(ctx, 1))
        with pytest.raises(InvalidArgumentError):
            ch.full_weight_divisor(ctx, code)


class TestTwoWeightGapScan:
    def test_q2_k4_has_a_solved_two_weight_code(self):
        ctx = gf.field_for(2, 4)
        entries = ch.two_weight_gap_scan(ctx)
        solved = [e for e in entries if len(e.weights) == 2 and e.kprime == 4]
        assert solved, "expected a full-degree two-weight code at (2, 4)"
        for e in solved:
            assert abs(e.weights[0] - e.weights[1]) != 1
            assert e.solution is not None

    @pytest.mark.parametrize("q,k", [(4, 2), (3, 3), (5, 2), (2, 6)])
    def test_scan_completes_without_violations(self, q, k):
        ctx = gf.field_for(q, k)
        entries = ch.two_weight_gap_scan(ctx)
        for e in entries:
            if len(e.weights) == 2:
                assert abs(e.weights[0] - e.weights[1]) != 1

    def test_one_weight_codes_flagged_not_two_weight(self):
        ctx = gf.field_for(2, 3)
        entries = ch.two_weight_gap_scan(ctx)
        by_exp = {e.exponent: e for e in entries}
        assert len(by_exp[0].weights) != 2  # repetition code
        assert len(by_exp[1].weights) != 2  # simplex

    @pytest.mark.parametrize("q,k", PAIRS_255)
    def test_equals_the_per_coset_loop(self, q, k, monkeypatch):
        ctx = gf.field_for(q, k)
        calls = []
        real = ch.weight_distribution_bruteforce
        monkeypatch.setattr(ch, "weight_distribution_bruteforce",
                            lambda ctx_, code, cap: calls.append(code) or real(ctx_, code, cap))
        entries = ch.two_weight_gap_scan(ctx)
        # one brute force per class gcd(e, n), one entry per coset
        classes = {gcd(e, ctx.m) for e in coset_representatives(q, k)}
        assert len(calls) == len(classes)
        assert entries == reference_gap_scan(ctx)

    @pytest.mark.parametrize("fault", ["adjacent", "unsolved"])
    @pytest.mark.parametrize("q,k", [(2, 4), (2, 6), (4, 3), (2, 8), (4, 4), (11, 2)])
    def test_a_fault_on_a_class_is_named_at_its_least_member(self, q, k, fault, monkeypatch):
        ctx = gf.field_for(q, k)
        n = ctx.m
        entries = ch.two_weight_gap_scan(ctx)
        if fault == "adjacent":  # the class with the most cosets
            counts = {}
            for entry in entries:
                g = gcd(entry.exponent, n)
                counts[g] = counts.get(g, 0) + 1
            target = max(counts, key=lambda g: (counts[g], -g))
            members = {pr.minimal_polynomial(ctx, e.exponent) for e in entries
                       if gcd(e.exponent, n) == target}
            real = ch.weight_distribution_bruteforce

            def adjacent(ctx_, code, cap):
                if code.parity_check in members:
                    return codes.WeightDistribution(n, {0: 1, 5: 1, 6: 1})
                return real(ctx_, code, cap)

            monkeypatch.setattr(ch, "weight_distribution_bruteforce", adjacent)
        else:  # the first class with a solved full-degree two-weight code
            target = next(gcd(e.exponent, n) for e in entries if e.solution is not None)
            real_solve = ch._solve_two_weight_system
            monkeypatch.setattr(ch, "_solve_two_weight_system", lambda ctx_, e, weights: (
                None if gcd(e, n) == target else real_solve(ctx_, e, weights)))
        got = gap_scan_outcome(ch.two_weight_gap_scan, ctx)
        assert got == gap_scan_outcome(reference_gap_scan, ctx)
        least = min(e.exponent for e in entries if gcd(e.exponent, n) == target)
        assert got[0] == "TheoremViolationError" and f"at e={least}" in got[1]


class TestEnumerateCodes:
    def test_example2_full_listing(self):
        pairs = list(ch.enumerate_codes(3, 4, numth.DEFAULT_FIELD_CAP))
        assert len(pairs) == 16
        listing = {(40 * e1 % 80, e2) for e1, e2 in pairs}
        assert listing == {
            (d, e2)
            for d in (0, 40)
            for e2 in (1, 7, 11, 13, 17, 23, 41, 53)
        }

    def test_q2_k3_reps(self):
        pairs = list(ch.enumerate_codes(2, 3, numth.DEFAULT_FIELD_CAP))
        assert pairs == [(0, 1), (0, 3)]

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_every_enumerated_code_builds(self, q, k):
        ctx = gf.field_for(q, k)
        for e1, e2 in ch.enumerate_codes(q, k, numth.DEFAULT_FIELD_CAP):
            rep = ch.build_code(ctx, e1, e2)
            assert rep.distribution == codes.three_weight_distribution(q, k)

    @pytest.mark.parametrize("q,k", SMALL_PAIRS)
    def test_matches_per_pair_reference(self, q, k):
        assert list(ch.enumerate_codes(q, k, numth.DEFAULT_FIELD_CAP)) == reference_enumeration(q, k)

    @pytest.mark.parametrize("q,k", [(6, 2), (2, 1), (1, 3)])
    def test_invalid_inputs(self, q, k):
        with pytest.raises(InvalidArgumentError):
            ch.enumerate_codes(q, k, numth.DEFAULT_FIELD_CAP)

    def test_a_block_too_large_to_write_is_listed(self):
        # writing these codes would take about 1.9 GiB, which `enumerate`
        # budgets; the listing holds only its 82,782 e2 classes
        assert sum(1 for _ in ch.enumerate_codes(512, 2, 1 << 20)) == 35_761_824

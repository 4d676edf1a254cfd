"""Code objects: both weight-distribution routes, duality, bounds, moments."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclochar import codes, gf, polyring as pr, verify
from cyclochar.errors import (
    ConsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
)
from cyclochar.gf import ZERO
from cyclochar.numth import rem
from cyclochar.verify import default_pairs


def first_nonzero_trace(ctx):
    return next(e for e in range(ctx.m) if ctx.trace_to(e, "Fq") != ZERO)


class TestCodeSpec:
    def test_fields(self):
        spec = codes.code_spec(4, 3, 2, 5)
        assert (spec.delta, spec.n) == (21, 63)
        assert spec.d == 1
        assert (5 * spec.bezout.alpha + 21 * spec.bezout.beta) % 63 == 1

    def test_invalid_e2(self):
        with pytest.raises(InvalidArgumentError):
            codes.code_spec(3, 2, 0, 2)


class TestTraceCodeword:
    def test_all_zero(self):
        ctx = gf.field_for(3, 2)
        spec = codes.code_spec(3, 2, 0, 1)
        assert codes.trace_codeword(ctx, spec, ZERO, ZERO) == [0] * 8

    def test_full_weight_constant_class(self):
        ctx = gf.field_for(4, 3)
        spec = codes.code_spec(4, 3, 2, 5)
        a = first_nonzero_trace(ctx)
        word = codes.trace_codeword(ctx, spec, a, ZERO)
        assert sum(1 for s in word if s) == 63

    def test_weight_complements_zero_count(self):
        ctx = gf.field_for(3, 2)
        spec = codes.code_spec(3, 2, 0, 1)
        rng = np.random.default_rng(0)
        elems = [ZERO] + list(range(8))
        for _ in range(200):
            a = elems[int(rng.integers(len(elems)))]
            b = elems[int(rng.integers(len(elems)))]
            word = codes.trace_codeword(ctx, spec, a, b)
            assert sum(1 for s in word if s) == 8 - codes.zero_count(ctx, spec, a, b)


class TestZeroCount:
    def test_both_zero(self):
        ctx = gf.field_for(3, 2)
        spec = codes.code_spec(3, 2, 0, 1)
        assert codes.zero_count(ctx, spec, ZERO, ZERO) == 8

    def test_nonzero_trace_b_zero(self):
        ctx = gf.field_for(3, 2)
        spec = codes.code_spec(3, 2, 0, 1)
        assert codes.zero_count(ctx, spec, first_nonzero_trace(ctx), ZERO) == 0

    def test_nonzero_trace_b_nonzero_k2(self):
        # at k = 2 the count equals q itself
        ctx = gf.field_for(3, 2)
        spec = codes.code_spec(3, 2, 0, 1)
        assert codes.zero_count(ctx, spec, first_nonzero_trace(ctx), 0) == 3

    @pytest.mark.parametrize("q,k", [(2, 3), (4, 3), (3, 3)])
    def test_nonzero_trace_b_nonzero_general_k(self, q, k):
        # general k: q^(k-1) zeros, forced by weight q^(k-1)(q-1) - 1
        ctx = gf.field_for(q, k)
        spec = codes.code_spec(q, k, 0, 1)
        a = first_nonzero_trace(ctx)
        assert codes.zero_count(ctx, spec, a, 0) == q ** (k - 1)

    def test_a_zero_b_nonzero(self):
        ctx = gf.field_for(4, 3)
        spec = codes.code_spec(4, 3, 2, 5)
        assert codes.zero_count(ctx, spec, ZERO, 0) == 4**2 - 1


class TestTraceDistribution:
    def test_example_q4_k3(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(4, 3, 2, 5))
        assert wd.entries == {0: 1, 47: 189, 48: 63, 63: 3}
        assert wd.enumerator() == "1 + 189z^47 + 63z^48 + 3z^63"

    def test_example_q2_k3(self):
        ctx = gf.field_for(2, 3)
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(2, 3, 0, 1))
        assert wd.entries == {0: 1, 3: 7, 4: 7, 7: 1}

    @pytest.mark.parametrize("q,k,e1,e2", [(3, 2, 0, 1), (4, 2, 1, 2), (2, 4, 0, 7), (5, 2, 2, 1)])
    def test_total_is_field_grid(self, q, k, e1, e2):
        ctx = gf.field_for(q, k)
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(q, k, e1, e2))
        assert wd.total() == q ** (k + 1)
        assert wd.entries[0] == 1

    def test_collapsed_code_when_cosets_coincide(self):
        # e2 in the orbit of Delta*e1 collapses the parity check to one factor
        ctx = gf.field_for(3, 2)
        wd = codes.weight_distribution_trace_exponents(ctx, 1, 4)
        code = codes.code_from_exponents(ctx, 1, 4)
        assert code.dimension == 1
        assert wd.total() == 3
        assert wd == codes.weight_distribution_bruteforce(ctx, code)

    def test_condition_violating_pair_still_exact(self):
        # gcd(Delta, e2) > 1: no spec exists, but the distribution is defined
        ctx = gf.field_for(3, 2)
        wd = codes.weight_distribution_trace_exponents(ctx, 0, 2)
        code = codes.code_from_exponents(ctx, 0, 2)
        assert wd == codes.weight_distribution_bruteforce(ctx, code)


def direct_weight_grid(ctx, e1, e2):
    """Test oracle: every trace codeword evaluated position by position,
    in O(q * n^2), using no symmetry of the grid."""
    m = ctx.m
    q = ctx.q
    delta = ctx.delta
    trq = ctx.trace_q_symbols()
    sym_add, sym_mul, _, _ = ctx.symbol_tables()
    idx = np.arange(m, dtype=np.int64)
    sym1 = 1 + (rem(delta * e1, m) * idx % m) // delta
    e2r = rem(e2, m)
    weights = np.zeros((q, q**ctx.k), dtype=np.int64)
    exps = (idx[:, None] + e2r * idx[None, :]) % m
    tb = trq[exps]
    for tau in range(q):
        rows = tb if tau == 0 else sym_add[sym_mul[tau, sym1][None, :], tb]
        weights[tau, 1:] = np.count_nonzero(rows, axis=1)
        weights[tau, 0] = int(np.count_nonzero(sym_mul[tau, sym1])) if tau else 0
    return weights


class TestOrbitReducedGrid:
    @pytest.mark.parametrize("q,k", default_pairs(63))
    def test_matches_direct_grid_for_every_exponent_pair(self, q, k):
        # every e1, e2 including out-of-range, negative, non-qualifying
        # and gcd(e2, Delta) > 1 pairs
        ctx = gf.field_for(q, k)
        n = ctx.m
        for e1 in list(range(q - 1)) + [q - 1, q, -1]:
            for e2 in list(range(n)) + [-3, n + 5]:
                want = direct_weight_grid(ctx, e1, e2)
                assert np.array_equal(codes.trace_weight_grid(ctx, e1, e2), want), (e1, e2)
                counts = np.bincount(want.ravel(), minlength=n + 1)
                expected = {int(w): int(counts[w] // counts[0]) for w in np.nonzero(counts)[0]}
                wd = codes.weight_distribution_trace_exponents(ctx, e1, e2)
                assert wd.entries == expected, (e1, e2)

    def test_distribution_never_forms_the_grid(self):
        ctx = gf.field_for(16, 3)
        codes.weight_distribution_trace_exponents(ctx, 1, 1)  # warm the field tables
        grid_bytes = ctx.q * ctx.order * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            wd = codes.weight_distribution_trace_exponents(ctx, 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert wd == codes.three_weight_distribution(16, 3)
        assert peak < grid_bytes


class TestBruteForce:
    def test_dimension_zero(self):
        ctx = gf.field_for(2, 3)
        code = codes.cyclic_code(ctx, (1,))
        assert codes.weight_distribution_bruteforce(ctx, code).entries == {0: 1}

    def test_simplex(self):
        ctx = gf.field_for(2, 3)
        code = codes.cyclic_code(ctx, pr.minimal_polynomial(ctx, 1))
        assert codes.weight_distribution_bruteforce(ctx, code).entries == {0: 1, 4: 7}

    def test_cap(self):
        ctx = gf.field_for(2, 3)
        code = codes.code_from_exponents(ctx, 0, 1)
        with pytest.raises(ResourceLimitError):
            codes.weight_distribution_bruteforce(ctx, code, cap=8)

    @pytest.mark.parametrize("q,k,e1,e2", [(2, 3, 0, 1), (3, 2, 1, 3), (4, 2, 2, 1), (2, 5, 0, 1), (5, 2, 1, 1)])
    def test_oracle_equivalence_small(self, q, k, e1, e2):
        ctx = gf.field_for(q, k)
        spec = codes.code_spec(q, k, e1, e2)
        code = codes.code_from_exponents(ctx, e1, e2)
        assert codes.weight_distribution_trace(ctx, spec) == codes.weight_distribution_bruteforce(ctx, code)

    @pytest.mark.parametrize("q,k,e1,e2", [(2, 5, 0, 1), (3, 3, 1, 1), (4, 2, 2, 1), (5, 2, 1, 1)])
    def test_chunked_enumeration_matches_single_block(self, q, k, e1, e2, monkeypatch):
        # shrink the block budget so several rows go through the
        # combination walk, and compare against the one-block answer
        ctx = gf.field_for(q, k)
        code = codes.code_from_exponents(ctx, e1, e2)
        full = codes.weight_distribution_bruteforce(ctx, code)
        monkeypatch.setattr(codes, "_BLOCK", 1)
        monkeypatch.setattr(codes, "_BLOCK_ENTRIES", 1)
        assert codes.weight_distribution_bruteforce(ctx, code) == full


class TestCharSumGrid:
    @pytest.mark.parametrize("q,k,e1,e2", [(3, 2, 0, 1), (4, 2, 2, 1), (2, 4, 0, 7)])
    def test_matches_direct_char_sum_per_element(self, q, k, e1, e2):
        # the grid is indexed by trace classes; every concrete a must agree
        from cyclochar.expsum import char_sum

        ctx = gf.field_for(q, k)
        spec = codes.code_spec(q, k, e1, e2)
        grid = codes.char_sum_grid(ctx, e1, e2)
        rng = np.random.default_rng(1)
        elems = [ZERO] + list(range(ctx.m))
        for _ in range(40):
            a = elems[int(rng.integers(len(elems)))]
            b = elems[int(rng.integers(len(elems)))]
            tau = 0 if a == ZERO else ctx.symbol_of(ctx.trace_to(a, "Fq"))
            col = 0 if b == ZERO else 1 + b
            assert grid[tau, col] == char_sum(ctx, spec, a, b).as_integer()


class TestGriesmer:
    def test_example_q4(self):
        assert codes.griesmer_sum(4, 4, 47) == 63

    def test_example_q3(self):
        assert codes.griesmer_sum(3, 5, 53) == 80

    def test_dimension_one(self):
        assert codes.griesmer_sum(7, 1, 12) == 12

    def test_optimality_flags(self):
        assert codes.is_griesmer_optimal(4, 63, 4, 47)
        assert codes.is_griesmer_optimal(3, 80, 5, 53)
        assert not codes.is_griesmer_optimal(4, 64, 4, 47)


class TestKrawtchouk:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=30),
        st.sampled_from([2, 3, 4, 5, 9]),
        st.data(),
    )
    def test_recurrence_matches_direct(self, n, q, data):
        w = data.draw(st.integers(min_value=0, max_value=n))
        row = codes.krawtchouk_row(n, q, w)
        for j in range(n + 1):
            assert row[j] == codes.krawtchouk_direct(n, q, j, w)


class TestMacWilliams:
    def test_hamming_to_simplex(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        assert codes.macwilliams_dual(wd, 7, 2, 4).entries == {0: 1, 4: 7}

    def test_example1_dual(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(4, 3, 2, 5))
        dual = codes.macwilliams_dual(wd, 63, 4, 4)
        assert dual.entries.get(1, 0) == 0
        assert dual.entries.get(2, 0) == 0
        assert dual.entries[3] == 3843
        assert dual.min_nonzero_weight() == 3

    @pytest.mark.parametrize("q,k,e1,e2", [(2, 3, 0, 1), (3, 2, 0, 1), (4, 2, 2, 1)])
    def test_involution(self, q, k, e1, e2):
        ctx = gf.field_for(q, k)
        n = q**k - 1
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(q, k, e1, e2))
        dual = codes.macwilliams_dual(wd, n, q, k + 1)
        assert codes.macwilliams_dual(dual, n, q, n - (k + 1)) == wd

    def test_dual_against_bruteforce_enumeration(self):
        # independent oracle: enumerate the dual code directly
        ctx = gf.field_for(2, 4)
        code = codes.code_from_exponents(ctx, 0, 1)
        wd = codes.weight_distribution_bruteforce(ctx, code)
        # dual of a cyclic code: generated by the reciprocal of the parity check
        h = code.parity_check
        recip = pr.normalize(tuple(reversed(h)))
        lead_inv = ctx.symbol_of(ctx.inv(ctx.element_of_symbol(recip[-1])))
        recip = pr.poly_scale(ctx, recip, lead_inv)
        dual_code = codes.cyclic_code(ctx, pr.generator_from_parity_check(ctx, recip, 15))
        direct = codes.weight_distribution_bruteforce(ctx, dual_code)
        assert codes.macwilliams_dual(wd, 15, 2, code.dimension) == direct

    def test_wrong_total_rejected(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7})
        with pytest.raises(InvalidArgumentError):
            codes.macwilliams_dual(wd, 7, 2, 4)

    def test_non_code_distribution_detected(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 1: 15})
        with pytest.raises(ConsistencyError):
            codes.macwilliams_dual(wd, 7, 2, 4)


class TestMacWilliamsMemo:
    def test_equal_inputs_give_equal_fresh_results(self):
        wd = codes.three_weight_distribution(4, 3)
        first = codes.macwilliams_dual(wd, 63, 4, 4)
        again = codes.macwilliams_dual(codes.three_weight_distribution(4, 3), 63, 4, 4)
        assert again == first
        assert again is not first and again.entries is not first.entries

    def test_mutating_a_result_does_not_leak(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        first = codes.macwilliams_dual(wd, 7, 2, 4)
        first.entries[4] = 0
        first.entries[5] = 99
        assert codes.macwilliams_dual(wd, 7, 2, 4).entries == {0: 1, 4: 7}

    def test_entry_order_does_not_matter(self):
        a = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        b = codes.WeightDistribution(n=7, entries={7: 1, 4: 7, 3: 7, 0: 1})
        assert codes.macwilliams_dual(a, 7, 2, 4) == codes.macwilliams_dual(b, 7, 2, 4)

    def test_failures_are_not_cached(self):
        # total 2^4 passes the input check; the transform is non-integral
        wd = codes.WeightDistribution(n=7, entries={0: 1, 1: 15})
        for _ in range(2):
            with pytest.raises(ConsistencyError):
                codes.macwilliams_dual(wd, 7, 2, 4)
        # the input-total check runs on every call, cached key or not
        codes.macwilliams_dual(codes.three_weight_distribution(2, 3), 7, 2, 4)
        with pytest.raises(InvalidArgumentError):
            codes.macwilliams_dual(codes.three_weight_distribution(2, 3), 7, 2, 3)

    def test_duality_sweep_count_unchanged(self):
        codes._dual_entries.cache_clear()
        result = verify.verify_duality(4, 3, gf.field_for(4, 3))
        assert result.ok
        # one per qualifying code: phi(63) * (q - 1) / k
        assert result.checked == 36
        # every code has the same distribution: one transform each way
        info = codes._dual_entries.cache_info()
        assert (info.misses, info.hits) == (2, 2 * 36 - 2)


class TestMacWilliamsBudget:
    def test_oversized_transform_refused_before_any_row(self):
        wd = codes.three_weight_distribution(2, 20)
        with pytest.raises(ResourceLimitError, match="GiB"):
            codes.macwilliams_dual(wd, 2**20 - 1, 2, 21)

    def test_budget_admits_every_length_to_4095(self):
        for q, k in [(2, 12), (4, 6), (8, 4), (16, 3), (64, 2)]:
            n = q**k - 1
            assert codes.macwilliams_size_bytes(n, q) <= codes.MACWILLIAMS_BUDGET_BYTES
        assert codes.macwilliams_size_bytes(2**20 - 1, 2) > codes.MACWILLIAMS_BUDGET_BYTES
        assert codes.macwilliams_size_bytes(2**20 - 1, 1024) > codes.MACWILLIAMS_BUDGET_BYTES


class TestDualB3:
    def test_example1(self):
        assert codes.dual_b3(4, 3) == 3843

    def test_binary_vanishes(self):
        for k in range(2, 8):
            assert codes.dual_b3(2, k) == 0

    def test_q3_k4_against_macwilliams(self):
        # closed form must equal the transform output for the [80, 5] code
        ctx = gf.field_for(3, 4)
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(3, 4, 0, 1))
        dual = codes.macwilliams_dual(wd, 80, 3, 5)
        assert codes.dual_b3(3, 4) == dual.entries[3] == 2080


class TestThreeWeightTable:
    def test_shape(self):
        wd = codes.three_weight_distribution(4, 3)
        assert wd.entries == {0: 1, 47: 189, 48: 63, 63: 3}

    def test_total(self):
        for q, k in [(2, 3), (3, 4), (5, 2)]:
            assert codes.three_weight_distribution(q, k).total() == q ** (k + 1)


class TestPless:
    def test_example1_passes(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, codes.code_spec(4, 3, 2, 5))
        dual = codes.macwilliams_dual(wd, 63, 4, 4)
        assert codes.pless_moment_check(wd, dual, 63, 4, 4)

    def test_hamming_passes(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        dual = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        assert codes.pless_moment_check(wd, dual, 7, 2, 4)

    def test_perturbation_detected(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 8, 4: 6, 7: 1})
        dual = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        assert not codes.pless_moment_check(wd, dual, 7, 2, 4)

    def test_failing_moment_identified(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 8, 4: 6, 7: 1})
        dual = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        moments = codes.pless_moments(wd, dual, 7, 2, 4)
        assert moments[0][0] == moments[0][1]  # totals still match
        assert any(lhs != rhs for lhs, rhs in moments[1:])

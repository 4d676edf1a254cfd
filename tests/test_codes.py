"""Code objects: both weight-distribution routes, duality, bounds, moments."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclochar import characterize, codes, expsum, gf, numth, polyring as pr, verify
from cyclochar.errors import (
    ConsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
)
from cyclochar.gf import ZERO
from cyclochar.numth import coset_representatives, gcd_conditions, valid_orbits
from cyclochar.verify import default_pairs
from test_numth import ext_gcd


def first_nonzero_trace(ctx):
    return next(e for e in range(ctx.m) if ctx.trace_to(e, "Fq") != ZERO)


def trace_codeword(ctx, e1, e2, a, b):
    """Codeword (Tr(a*gamma^(Delta*e1*i) + b*gamma^(e2*i)))_i as F_q symbols."""
    m = ctx.m
    trq = ctx.trace_q_symbol_list()
    s1 = ctx.delta * e1 % m
    s2 = e2 % m
    out = []
    ea, eb = a, b
    for _ in range(m):
        s = ctx.add(ea, eb)
        out.append(0 if s == ZERO else trq[s])
        if ea != ZERO:
            ea = (ea + s1) % m
        if eb != ZERO:
            eb = (eb + s2) % m
    return out


def zero_count(ctx, e1, e2, a, b):
    """Number of zero entries of the trace codeword for (a, b).

    Counts directly, then cross-checks the exact relation
    q * zeros = (q^k - 1) + T(a, b) against the character sum.
    """
    z = sum(1 for s in trace_codeword(ctx, e1, e2, a, b) if s == 0)
    t = expsum.char_sum(ctx, e1, e2, a, b).as_integer()
    total, r = divmod(ctx.m + t, ctx.q)
    if r != 0 or total != z:
        raise ConsistencyError(
            f"zero count {z} disagrees with (n + T)/q = ({ctx.m} + {t})/{ctx.q}"
        )
    return z


def krawtchouk_direct(n, q, j, w):
    """Direct binomial-sum evaluation of K_j(w); the recurrence's oracle."""
    return sum(
        (-1) ** i * (q - 1) ** (j - i) * comb(w, i) * comb(n - w, j - i)
        for i in range(j + 1)
    )


class TestCodeSpec:
    def test_fields(self):
        spec = expsum.code_spec(4, 3, 5)
        assert (spec.delta, spec.n) == (21, 63)
        assert gcd_conditions(spec.q, spec.k, 2, spec.e2)[0] == 1
        assert (5 * spec.bezout.alpha + 21 * spec.bezout.beta) % 63 == 1

    def test_invalid_e2(self):
        with pytest.raises(InvalidArgumentError):
            expsum.code_spec(3, 2, 2)


class TestTraceCodeword:
    def test_all_zero(self):
        ctx = gf.field_for(3, 2)
        assert trace_codeword(ctx, 0, 1, ZERO, ZERO) == [0] * 8

    def test_full_weight_constant_class(self):
        ctx = gf.field_for(4, 3)
        a = first_nonzero_trace(ctx)
        word = trace_codeword(ctx, 2, 5, a, ZERO)
        assert sum(1 for s in word if s) == 63

    def test_weight_complements_zero_count(self):
        ctx = gf.field_for(3, 2)
        rng = np.random.default_rng(0)
        elems = [ZERO] + list(range(8))
        for _ in range(200):
            a = elems[int(rng.integers(len(elems)))]
            b = elems[int(rng.integers(len(elems)))]
            word = trace_codeword(ctx, 0, 1, a, b)
            assert sum(1 for s in word if s) == 8 - zero_count(ctx, 0, 1, a, b)


class TestZeroCount:
    def test_both_zero(self):
        ctx = gf.field_for(3, 2)
        assert zero_count(ctx, 0, 1, ZERO, ZERO) == 8

    def test_nonzero_trace_b_zero(self):
        ctx = gf.field_for(3, 2)
        assert zero_count(ctx, 0, 1, first_nonzero_trace(ctx), ZERO) == 0

    def test_nonzero_trace_b_nonzero_k2(self):
        # at k = 2 the count equals q itself
        ctx = gf.field_for(3, 2)
        assert zero_count(ctx, 0, 1, first_nonzero_trace(ctx), 0) == 3

    @pytest.mark.parametrize("q,k", [(2, 3), (4, 3), (3, 3)])
    def test_nonzero_trace_b_nonzero_general_k(self, q, k):
        # general k: q^(k-1) zeros, forced by weight q^(k-1)(q-1) - 1
        ctx = gf.field_for(q, k)
        a = first_nonzero_trace(ctx)
        assert zero_count(ctx, 0, 1, a, 0) == q ** (k - 1)

    def test_a_zero_b_nonzero(self):
        ctx = gf.field_for(4, 3)
        assert zero_count(ctx, 2, 5, ZERO, 0) == 4**2 - 1


class TestTraceDistribution:
    def test_example_q4_k3(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, 2, 5)
        assert wd.entries == {0: 1, 47: 189, 48: 63, 63: 3}
        assert wd.enumerator() == "1 + 189z^47 + 63z^48 + 3z^63"

    def test_example_q2_k3(self):
        ctx = gf.field_for(2, 3)
        wd = codes.weight_distribution_trace(ctx, 0, 1)
        assert wd.entries == {0: 1, 3: 7, 4: 7, 7: 1}

    @pytest.mark.parametrize("q,k,e1,e2", [(3, 2, 0, 1), (4, 2, 1, 2), (2, 4, 0, 7), (5, 2, 2, 1)])
    def test_total_is_field_grid(self, q, k, e1, e2):
        ctx = gf.field_for(q, k)
        wd = codes.weight_distribution_trace(ctx, e1, e2)
        assert wd.total() == q ** (k + 1)
        assert wd.entries[0] == 1

    def test_collapsed_code_when_cosets_coincide(self):
        # e2 in the orbit of Delta*e1 collapses the parity check to one factor
        ctx = gf.field_for(3, 2)
        wd = codes.weight_distribution_trace(ctx, 1, 4)
        code = codes.code_from_exponents(ctx, 1, 4)
        assert code.dimension == 1
        assert wd.total() == 3
        assert wd == codes.weight_distribution_bruteforce(ctx, code)

    def test_condition_violating_pair_still_exact(self):
        # gcd(Delta, e2) > 1: no Bezout pair exists, but the distribution is defined
        ctx = gf.field_for(3, 2)
        wd = codes.weight_distribution_trace(ctx, 0, 2)
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
    sym1 = 1 + (delta * e1 % m * idx % m) // delta
    e2r = e2 % m
    weights = np.zeros((q, q**ctx.k), dtype=np.int64)
    exps = (idx[:, None] + e2r * idx[None, :]) % m
    tb = trq[exps]
    for tau in range(q):
        rows = tb if tau == 0 else sym_add[sym_mul[tau, sym1][None, :], tb]
        weights[tau, 1:] = np.count_nonzero(rows, axis=1)
        weights[tau, 0] = int(np.count_nonzero(sym_mul[tau, sym1])) if tau else 0
    return weights


def expand_orbit_columns(ctx, e1, e2, reps):
    """The full (q, q^k) grid from the (q, 1 + g) orbit representatives of
    trace_weight_grid or char_sum_grid, by the shift and scaling symmetry.

    With g = gcd(e2, Delta) and (e2/g)*u + (Delta/g)*v = 1, column
    e = e0 + g*r is column e0 < g with row tau read from row
    omega^(-r*(e1*u + v))*tau; row 0 and column 0 are fixed.
    """
    m, q = ctx.m, ctx.q
    g, u, v = ext_gcd(e2 % m, ctx.delta)
    assert reps.shape == (q, 1 + g)
    r, e0 = np.divmod(np.arange(m, dtype=np.int64), g)
    mu = r * ((e1 * u + v) % (q - 1)) % (q - 1)
    sym = np.arange(1, q, dtype=np.int64)[:, None]
    grid = np.empty((q, q**ctx.k), dtype=reps.dtype)
    grid[:, 0] = reps[:, 0]
    grid[0, 1:] = reps[0, 1 + e0]
    grid[1:, 1:] = reps[1 + (sym - 1 - mu) % (q - 1), 1 + e0]
    return grid


class TestOrbitReducedGrid:
    @pytest.mark.parametrize("q,k", default_pairs(63))
    def test_matches_direct_grid_for_every_exponent_pair(self, q, k):
        # every e1, e2 including out-of-range, negative, non-qualifying
        # and gcd(e2, Delta) > 1 pairs: the representatives are the grid's
        # first 1 + g columns, and their expansion is the whole grid
        ctx = gf.field_for(q, k)
        n = ctx.m
        for e1 in list(range(q - 1)) + [q - 1, q, -1]:
            for e2 in list(range(n)) + [-3, n + 5]:
                want = direct_weight_grid(ctx, e1, e2)
                g, reps = codes.trace_weight_grid(ctx, e1, e2)
                assert g == math.gcd(e2, ctx.delta), (e1, e2)
                assert np.array_equal(reps, want[:, : 1 + g]), (e1, e2)
                assert np.array_equal(expand_orbit_columns(ctx, e1, e2, reps), want), (e1, e2)
                counts = np.bincount(want.ravel(), minlength=n + 1)
                expected = {int(w): int(counts[w] // counts[0]) for w in np.nonzero(counts)[0]}
                wd = codes.weight_distribution_trace(ctx, e1, e2)
                assert wd.entries == expected, (e1, e2)

    def test_distribution_never_forms_the_grid(self):
        ctx = gf.field_for(16, 3)
        codes.weight_distribution_trace(ctx, 1, 1)  # warm the field tables
        grid_bytes = ctx.q * ctx.order * np.dtype(np.int64).itemsize
        tracemalloc.start()
        try:
            wd = codes.weight_distribution_trace(ctx, 1, 1)
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
        code = codes.code_from_exponents(ctx, e1, e2)
        assert codes.weight_distribution_trace(ctx, e1, e2) == codes.weight_distribution_bruteforce(ctx, code)

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


def direct_weight_distribution(ctx, code):
    """Test oracle: all q^dim information words against the generator,
    with no use of scaling; the lower rows expand into one block and the
    upper rows are walked combination by combination."""
    q, n, dim = ctx.q, ctx.m, code.dimension
    if dim == 0:
        return codes.WeightDistribution(n=n, entries={0: 1})
    sym_add, sym_mul, _, _ = ctx.symbol_tables()
    gen = np.zeros(n, dtype=np.int64)
    gen[: len(code.generator)] = code.generator
    rows = np.stack([np.roll(gen, i) for i in range(dim)])
    scaled = [[sym_mul[c, rows[r]] for c in range(q)] for r in range(dim)]
    low = 0
    while low < dim and q ** (low + 1) <= 4096:
        low += 1
    block = np.zeros((1, n), dtype=np.int64)
    for r in range(low):
        block = sym_add[block[:, None, :], np.stack(scaled[r])[None, :, :]].reshape(-1, n)
    hist = np.zeros(n + 1, dtype=np.int64)
    for combo in product(range(q), repeat=dim - low):
        prefix = None
        for r, c in enumerate(combo):
            if c:
                row = scaled[low + r][c]
                prefix = row if prefix is None else sym_add[prefix, row]
        words = block if prefix is None else sym_add[prefix[None, :], block]
        hist += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    return codes.WeightDistribution(
        n=n, entries={int(w): int(hist[w]) for w in np.nonzero(hist)[0]}
    )


def distinct_codes(ctx):
    """Every code of a (q, k) block: each (e1, e2) parity check, each minimal polynomial."""
    checks = {
        codes.parity_check_from_exponents(ctx, e1, e2)
        for e1 in range(ctx.q - 1)
        for e2 in range(ctx.m)
    }
    checks.update(pr.minimal_polynomial(ctx, rep) for rep in coset_representatives(ctx.q, ctx.k))
    return [codes.cyclic_code(ctx, h) for h in sorted(checks)]


class TestProjectiveOracle:
    @pytest.mark.parametrize("q,k", default_pairs(127))
    def test_matches_direct_enumeration_on_every_code(self, q, k):
        ctx = gf.field_for(q, k)
        for code in distinct_codes(ctx):
            got = codes.weight_distribution_bruteforce(ctx, code)
            assert got == direct_weight_distribution(ctx, code), code.parity_check
            assert min(got.entries) == 0 and got.entries[0] == 1

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 2), (5, 2), (9, 2)])
    def test_one_word_per_line(self, q, k):
        # the q - 1 multiples of the (q^dim - 1)/(q - 1) words are every
        # nonzero codeword exactly once
        ctx = gf.field_for(q, k)
        values = codes.symbol_values(ctx)
        symbol = np.zeros(int(values.max()) + 1, dtype=np.int64)
        symbol[values] = np.arange(q)
        sym_mul = ctx.symbol_tables().mul
        for code in distinct_codes(ctx):
            batches = list(codes.codeword_lines(ctx, code))
            words = symbol[np.concatenate(batches)] if batches else np.zeros((0, ctx.m), dtype=np.int64)
            assert len(words) == (q**code.dimension - 1) // (q - 1)
            multiples = {sym_mul[c, w].tobytes() for w in words for c in range(1, q)}
            assert len(multiples) == q**code.dimension - 1
            assert np.all(np.count_nonzero(words, axis=1) > 0)

    def test_never_reads_the_trace_route(self, monkeypatch):
        def trace_route(*args, **kwargs):
            raise AssertionError("the oracle read the trace route")

        monkeypatch.setattr(codes, "trace_weight_grid", trace_route)
        # codes no longer binds char_sum; patch it where it lives
        monkeypatch.setattr(expsum, "char_sum", trace_route)
        for attr in ("trace_q_symbols", "trace_q_symbol_list", "char_exponents", "trace_to"):
            monkeypatch.setattr(gf.FieldCtx, attr, trace_route)
        ctx = gf.field_for(4, 3)
        code = codes.code_from_exponents(ctx, 2, 5)
        assert codes.weight_distribution_bruteforce(ctx, code) == codes.three_weight_distribution(4, 3)

    def test_codes_loads_no_character_sum(self):
        # the trace route and the direct character sum that verify compares
        # share no module: importing codes leaves expsum unloaded
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        script = "import sys, cyclochar.codes; print('cyclochar.expsum' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 2)])
    def test_lost_word_detected(self, q, k, monkeypatch):
        lines = codes.codeword_lines

        def one_short(ctx, code, cap):
            batches = list(lines(ctx, code, cap))
            batches[-1] = batches[-1][1:]
            yield from batches

        ctx = gf.field_for(q, k)
        code = codes.code_from_exponents(ctx, 0, 1)
        monkeypatch.setattr(codes, "codeword_lines", one_short)
        with pytest.raises(ConsistencyError):
            codes.weight_distribution_bruteforce(ctx, code)


class TestCharSumGrid:
    @pytest.mark.parametrize("q,k,e1,e2", [(3, 2, 0, 1), (4, 2, 2, 1), (2, 4, 0, 7)])
    def test_matches_direct_char_sum_per_element(self, q, k, e1, e2):
        # the grid is indexed by trace classes; every concrete a must agree
        ctx = gf.field_for(q, k)
        grid = expand_orbit_columns(ctx, e1, e2, codes.char_sum_grid(ctx, e1, e2))
        rng = np.random.default_rng(1)
        elems = [ZERO] + list(range(ctx.m))
        for _ in range(40):
            a = elems[int(rng.integers(len(elems)))]
            b = elems[int(rng.integers(len(elems)))]
            tau = 0 if a == ZERO else ctx.symbol_of(ctx.trace_to(a, "Fq"))
            col = 0 if b == ZERO else 1 + b
            assert grid[tau, col] == expsum.char_sum(ctx, e1, e2, a, b).as_integer()


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
        row = list(codes.krawtchouk_sums(codes.WeightDistribution(n, {w: 1}), q))
        for j in range(n + 1):
            assert row[j] == krawtchouk_direct(n, q, j, w)


class TestMacWilliams:
    def test_hamming_to_simplex(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        assert codes.macwilliams_dual(wd, 2, 4).entries == {0: 1, 4: 7}

    def test_example1_dual(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, 2, 5)
        dual = codes.macwilliams_dual(wd, 4, 4)
        assert dual.entries.get(1, 0) == 0
        assert dual.entries.get(2, 0) == 0
        assert dual.entries[3] == 3843
        assert dual.min_nonzero_weight() == 3

    @pytest.mark.parametrize("q,k,e1,e2", [(2, 3, 0, 1), (3, 2, 0, 1), (4, 2, 2, 1)])
    def test_involution(self, q, k, e1, e2):
        ctx = gf.field_for(q, k)
        n = q**k - 1
        wd = codes.weight_distribution_trace(ctx, e1, e2)
        dual = codes.macwilliams_dual(wd, q, k + 1)
        assert codes.macwilliams_dual(dual, q, n - (k + 1)) == wd

    def test_dual_against_bruteforce_enumeration(self):
        # independent oracle: enumerate the dual code directly
        ctx = gf.field_for(2, 4)
        code = codes.code_from_exponents(ctx, 0, 1)
        wd = codes.weight_distribution_bruteforce(ctx, code)
        # dual of a cyclic code: generated by the reciprocal of the parity check
        h = code.parity_check
        recip = pr.normalize(tuple(reversed(h)))
        lead_inv = ctx.symbol_of(ctx.inv(ctx.element_of_symbol(recip[-1])))
        recip = pr.poly_mul(ctx, recip, (lead_inv,))
        dual_code = codes.cyclic_code(ctx, pr.generator_from_parity_check(ctx, recip))
        direct = codes.weight_distribution_bruteforce(ctx, dual_code)
        assert codes.macwilliams_dual(wd, 2, code.dimension) == direct

    def test_wrong_total_rejected(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7})
        with pytest.raises(InvalidArgumentError):
            codes.macwilliams_dual(wd, 2, 4)

    def test_non_code_distribution_detected(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 1: 15})
        with pytest.raises(ConsistencyError):
            codes.macwilliams_dual(wd, 2, 4)


class TestMacWilliamsResults:
    def test_equal_inputs_give_equal_fresh_results(self):
        wd = codes.three_weight_distribution(4, 3)
        first = codes.macwilliams_dual(wd, 4, 4)
        again = codes.macwilliams_dual(codes.three_weight_distribution(4, 3), 4, 4)
        assert again == first
        assert again is not first and again.entries is not first.entries

    def test_mutating_a_result_does_not_leak(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        first = codes.macwilliams_dual(wd, 2, 4)
        first.entries[4] = 0
        first.entries[5] = 99
        assert codes.macwilliams_dual(wd, 2, 4).entries == {0: 1, 4: 7}

    def test_entry_order_does_not_matter(self):
        a = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        b = codes.WeightDistribution(n=7, entries={7: 1, 4: 7, 3: 7, 0: 1})
        assert codes.macwilliams_dual(a, 2, 4) == codes.macwilliams_dual(b, 2, 4)

    def test_failures_repeat_on_every_call(self):
        # total 2^4 passes the input check; the transform is non-integral
        wd = codes.WeightDistribution(n=7, entries={0: 1, 1: 15})
        for _ in range(2):
            with pytest.raises(ConsistencyError):
                codes.macwilliams_dual(wd, 2, 4)
        # the input-total check runs on every call, after a good one too
        codes.macwilliams_dual(codes.three_weight_distribution(2, 3), 2, 4)
        with pytest.raises(InvalidArgumentError):
            codes.macwilliams_dual(codes.three_weight_distribution(2, 3), 2, 3)

    def test_duality_sweep_count_unchanged(self, monkeypatch):
        dims = []
        real = verify.macwilliams_dual
        monkeypatch.setattr(verify, "macwilliams_dual",
                            lambda wd, q, dim: dims.append(dim) or real(wd, q, dim))
        checked, counterexample = verify.verify_duality(gf.field_for(4, 3))
        assert counterexample is None
        # one per qualifying code: phi(63) * (q - 1) / k
        assert checked == 36
        # every code has the same distribution: one transform each way
        assert dims == [4, 59]

    def test_duality_sweep_checks_pless_once_per_direction(self, monkeypatch):
        dims = []
        check = codes.pless_moment_check

        def counted(wd, dual_wd, q, dim):
            dims.append(dim)
            return check(wd, dual_wd, q, dim)

        monkeypatch.setattr(codes, "pless_moment_check", counted)
        assert verify.verify_duality(gf.field_for(4, 3))[1] is None
        assert dims == [4, 59]

    def test_pless_failure_is_a_sweep_error(self, monkeypatch):
        monkeypatch.setattr(codes, "pless_moment_check", lambda *args: False)
        (result,) = verify.run_block(4, 3, 1 << 20, ["duality_suite"])
        assert not result.ok
        assert "Pless" in result.counterexample["error"]


class TestMacWilliamsBudget:
    def test_one_budget_for_every_job(self):
        codes.check_budget("a job", numth.JOB_BUDGET_BYTES)
        with pytest.raises(ResourceLimitError, match="^a job needs about 1.0 GiB, over the 1 GiB budget$"):
            codes.check_budget("a job", numth.JOB_BUDGET_BYTES + 1)

    def test_oversized_transform_refused_before_any_row(self):
        wd = codes.three_weight_distribution(2, 20)
        with pytest.raises(ResourceLimitError, match="GiB"):
            codes.macwilliams_dual(wd, 2, 21)

    def test_budget_admits_every_length_to_4095(self):
        # even a transform of n + 1 weights, the most a distribution has
        for q, k in [(2, 12), (4, 6), (8, 4), (16, 3), (64, 2)]:
            n = q**k - 1
            assert codes.macwilliams_size_bytes(n, q, n + 1) <= numth.JOB_BUDGET_BYTES
        # even a forward transform of a three-weight code's four weights
        assert codes.macwilliams_size_bytes(2**20 - 1, 2, 4) > numth.JOB_BUDGET_BYTES
        assert codes.macwilliams_size_bytes(2**20 - 1, 1024, 4) > numth.JOB_BUDGET_BYTES

    @pytest.mark.parametrize("q,k", [(3, 5), (2, 8), (4, 5), (2, 10)])
    def test_estimate_covers_the_traced_peak_both_ways(self, q, k):
        # the forward transform `dual` runs and the inverse verify_duality runs
        ctx = gf.field_for(q, k)
        n, dim = ctx.m, k + 1

        def transform(wd, d):
            tracemalloc.start()
            try:
                out = codes.macwilliams_dual(wd, q, d)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= codes.macwilliams_size_bytes(n, q, len(wd.entries))
            return out

        wd = codes.weight_distribution_trace(ctx, 0, 1)
        assert transform(transform(wd, dim), n - dim) == wd


# Every (q, k) with k >= 2 and q^k - 1 <= 4095, q a prime power.
PAIRS_4095 = list(default_pairs(4095))


def direct_macwilliams(wd, n, q, dim):
    """The row-wise transform: a full Krawtchouk row per weight, then the sums."""
    sums = [0] * (n + 1)
    for w, freq in wd.entries.items():
        row = [1, (q - 1) * n - q * w][: n + 1]
        for j in range(1, n):
            val, r = divmod(
                ((q - 1) * (n - j) + j - q * w) * row[j] - (q - 1) * (n - j + 1) * row[j - 1],
                j + 1,
            )
            assert r == 0
            row.append(val)
        for j in range(n + 1):
            sums[j] += freq * row[j]
    dual = {}
    for j, s in enumerate(sums):
        bj, r = divmod(s, q**dim)
        assert r == 0 and bj >= 0, (j, s)
        if bj:
            dual[j] = bj
    return dual


class TestKernelAgainstDirect:
    def test_forward_on_every_block_to_4095(self):
        assert len(PAIRS_4095) == 57
        for q, k in PAIRS_4095:
            n = q**k - 1
            wd = codes.three_weight_distribution(q, k)
            assert codes.macwilliams_dual(wd, q, k + 1).entries == direct_macwilliams(
                wd, n, q, k + 1
            ), (q, k)

    def test_back_on_every_block_to_255(self):
        pairs = list(default_pairs(255))
        assert len(pairs) == 22
        for q, k in pairs:
            n = q**k - 1
            dual = codes.WeightDistribution(
                n=n, entries=direct_macwilliams(codes.three_weight_distribution(q, k), n, q, k + 1)
            )
            back = codes.macwilliams_dual(dual, q, n - k - 1)
            assert back.entries == direct_macwilliams(dual, n, q, n - k - 1), (q, k)
            assert back == codes.three_weight_distribution(q, k)



class TestDualPrefix:
    def test_equals_the_full_transform_to_4095(self):
        # every qualifying code of a block has the block's three-weight distribution
        assert len(PAIRS_4095) == 57
        for q, k in PAIRS_4095:
            n = q**k - 1
            wd = codes.three_weight_distribution(q, k)
            full = codes.macwilliams_dual(wd, q, k + 1)
            prefix = codes.dual_prefix(wd, q, k + 1)
            d = full.min_nonzero_weight()
            assert prefix.min_nonzero_weight() == d, (q, k)
            assert prefix.entries == {j: b for j, b in full.entries.items() if j <= max(d, 3)}, (q, k)

    def test_zero_dual_of_2_2(self):
        # C = F_2^3, so the dual is the zero code and the scan runs to j = n
        prefix = codes.dual_prefix(codes.three_weight_distribution(2, 2), 2, 3)
        assert prefix.entries == {0: 1}
        assert prefix.min_nonzero_weight() == 0

    @pytest.mark.parametrize("q,k", [(2, 20), (1024, 2), (2, 16), (3, 12)])
    def test_fast_and_field_free_at_large_lengths(self, q, k, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("the prefix built a field")

        monkeypatch.setattr(gf.FieldCtx, "__init__", no_field)
        n = q**k - 1
        start = time.perf_counter()
        prefix = codes.dual_prefix(codes.three_weight_distribution(q, k), q, k + 1)
        assert time.perf_counter() - start < 0.01
        assert prefix.entries.get(1, 0) == prefix.entries.get(2, 0) == 0
        assert prefix.entries.get(3, 0) == codes.dual_b3(q, k)
        assert prefix.min_nonzero_weight() == (4 if q == 2 else 3)

    def test_fresh_object_per_call(self):
        wd = codes.three_weight_distribution(4, 3)
        first = codes.dual_prefix(wd, 4, 4)
        first.entries[3] = 0
        first.entries[5] = 99
        again = codes.dual_prefix(codes.three_weight_distribution(4, 3), 4, 4)
        assert again.entries == {0: 1, 3: 3843}
        assert again is not first and again.entries is not first.entries

    def test_scan_reaches_b3_below_dual_distance_3(self):
        # C = {000, 100}: its dual {0xx} has d = 1, and the Pless moments
        # need B_2 and B_3 as well
        wd = codes.WeightDistribution(n=3, entries={0: 1, 1: 1})
        assert codes.dual_prefix(wd, 2, 1).entries == {0: 1, 1: 2, 2: 1}
        assert codes.macwilliams_dual(wd, 2, 1).entries == {0: 1, 1: 2, 2: 1}

    def test_pless_moments_check_the_prefix(self, monkeypatch):
        # an integral but wrong B_3 (one too many) only the moments can see
        sums = codes.krawtchouk_sums

        def off_by_one(wd, q):
            for j, s in enumerate(sums(wd, q)):
                yield s + (q**4 if j == 3 else 0)

        monkeypatch.setattr(codes, "krawtchouk_sums", off_by_one)
        with pytest.raises(ConsistencyError, match="Pless"):
            codes.dual_prefix(codes.three_weight_distribution(4, 3), 4, 4)

    @pytest.mark.parametrize("shift", [(47, 1), (48, -1), (63, 1)])
    def test_perturbed_distribution_detected(self, shift):
        w, delta = shift
        wd = codes.three_weight_distribution(4, 3)
        wd.entries[w] += delta
        with pytest.raises(ConsistencyError):
            codes.dual_prefix(wd, 4, 4)

    def test_total_preserving_perturbation_detected(self):
        # one word moved from weight 47 to 48: B_0 stays 1, B_1 is not an integer
        wd = codes.three_weight_distribution(4, 3)
        wd.entries[47] -= 1
        wd.entries[48] += 1
        with pytest.raises(ConsistencyError, match="B_1"):
            codes.dual_prefix(wd, 4, 4)


class TestDualClaims:
    def test_target_duals_keep_every_claim(self):
        for q, k in [(2, 2), (2, 5), (3, 4), (4, 3), (16, 2)]:
            wd = codes.three_weight_distribution(q, k)
            prefix = codes.dual_prefix(wd, q, k + 1)
            assert codes.dual_claim_failure(prefix, q, k) is None

    @pytest.mark.parametrize(
        "q,k,entries,failure",
        [
            (4, 3, {0: 1, 2: 5}, "B1_B2_nonzero"),
            (4, 3, {0: 1, 3: 3842}, "B3_mismatch"),
            (4, 3, {0: 1, 3: 3843}, None),
            (2, 3, {0: 1, 4: 7}, None),  # d = 4 over F_2: only q > 2 claims d = 3
        ],
    )
    def test_each_claim_named(self, q, k, entries, failure):
        dual = codes.WeightDistribution(n=q**k - 1, entries=entries)
        claim = codes.dual_claim_failure(dual, q, k)
        assert (claim and claim[0]) == failure

    def test_build_and_verify_read_the_same_claims(self, monkeypatch):
        from cyclochar import characterize
        from cyclochar.errors import TheoremViolationError

        b3 = codes.dual_b3
        monkeypatch.setattr(codes, "dual_b3", lambda q, k: b3(q, k) + 1)
        ctx = gf.field_for(4, 3)
        with pytest.raises(TheoremViolationError, match=r"^dual B_3=3843 != closed form 3844$"):
            characterize.build_code(ctx, 2, 5)
        _, counterexample = verify.verify_duality(ctx)
        assert counterexample is not None and counterexample["failure"] == "B3_mismatch"


class TestDualB3:
    def test_example1(self):
        assert codes.dual_b3(4, 3) == 3843

    def test_binary_vanishes(self):
        for k in range(2, 8):
            assert codes.dual_b3(2, k) == 0

    def test_q3_k4_against_macwilliams(self):
        # closed form must equal the transform output for the [80, 5] code
        ctx = gf.field_for(3, 4)
        wd = codes.weight_distribution_trace(ctx, 0, 1)
        dual = codes.macwilliams_dual(wd, 3, 5)
        assert codes.dual_b3(3, 4) == dual.entries[3] == 2080


class TestWeightDistribution:
    def test_equality_reads_the_length_and_the_entries(self):
        wd = codes.WeightDistribution(7, {0: 1, 3: 7})
        assert wd == codes.WeightDistribution(n=7, entries={3: 7, 0: 1})
        assert wd != codes.WeightDistribution(8, {0: 1, 3: 7})
        assert wd != codes.WeightDistribution(7, {0: 1})
        assert wd != (7, {0: 1, 3: 7})

    def test_each_gets_its_own_entries(self):
        first, second = codes.WeightDistribution(7), codes.WeightDistribution(7)
        first.entries[0] = 1
        assert second.entries == {}


class TestThreeWeightTable:
    def test_shape(self):
        wd = codes.three_weight_distribution(4, 3)
        assert wd.entries == {0: 1, 47: 189, 48: 63, 63: 3}

    def test_total(self):
        for q, k in [(2, 3), (3, 4), (5, 2)]:
            assert codes.three_weight_distribution(q, k).total() == q ** (k + 1)


def fraction_pless_moments(wd, dual_wd, n, q, dim):
    """Reference: (lhs, rhs) of the first four power moments as Fractions,
    rhs(r) = sum_j (-1)^j B_j sum_(i=j..r) i! S(r, i) q^(dim-i) (q-1)^(i-j) C(n-j, n-i)."""
    stirling2 = {(0, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1, (3, 1): 1, (3, 2): 3, (3, 3): 1}
    out = []
    for r in range(4):
        lhs = sum(w**r * freq for w, freq in wd.entries.items())
        rhs = Fraction(0)
        for j in range(min(n, r) + 1):
            bj = dual_wd.entries.get(j, 0)
            for i in range(j, r + 1):
                rhs += ((-1) ** j * bj * factorial(i) * stirling2.get((r, i), 0)
                        * Fraction(q) ** (dim - i) * (q - 1) ** (i - j) * comb(n - j, n - i))
        out.append((lhs, rhs))
    return out


def assert_pless_equals_the_fractions(wd, dual_wd, q, dim):
    """The integer moments are the Fraction moments times q^r, so each
    moment gets the same verdict."""
    moments = codes.pless_moments(wd, dual_wd, q, dim)
    reference = fraction_pless_moments(wd, dual_wd, wd.n, q, dim)
    assert moments == [(lhs * q**r, rhs * q**r) for r, (lhs, rhs) in enumerate(reference)]
    assert [lhs == rhs for lhs, rhs in moments] == [lhs == rhs for lhs, rhs in reference]
    return [lhs == rhs for lhs, rhs in moments]


class TestPlessAsIntegers:
    def test_the_pless_cases(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, 2, 5)
        hamming = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        perturbed = codes.WeightDistribution(n=7, entries={0: 1, 3: 8, 4: 6, 7: 1})
        simplex = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        cases = [
            (wd, codes.macwilliams_dual(wd, 4, 4), 4, 4),
            (hamming, simplex, 2, 4),
            (perturbed, simplex, 2, 4),
        ]
        verdicts = [assert_pless_equals_the_fractions(*case) for case in cases]
        assert verdicts == [[True] * 4, [True] * 4, [True, False, False, False]]

    def test_a_dual_of_distance_one(self):
        # C = {000, 100}, dim 1: q^(dim - i) is a fraction for i = 2, 3
        wd = codes.WeightDistribution(n=3, entries={0: 1, 1: 1})
        dual = codes.WeightDistribution(n=3, entries={0: 1, 1: 2, 2: 1})
        assert assert_pless_equals_the_fractions(wd, dual, 2, 1) == [True] * 4

    def test_the_2_2_build(self):
        # C = F_2^3, whose dual is the zero code
        ctx = gf.field_for(2, 2)
        (e1, e2), *_ = characterize.enumerate_codes(2, 2, ctx.order)
        report = characterize.build_code(ctx, e1, e2)
        dual = codes.dual_prefix(report.distribution, 2, 3)
        assert dual.entries == {0: 1}
        assert assert_pless_equals_the_fractions(report.distribution, dual, 2, 3) == [True] * 4

    def test_every_distribution_to_n_255(self, monkeypatch):
        # each distinct trace distribution of every pair with gcd(Delta, e2) = 1,
        # against its dual prefix, its full dual, and its dual against it
        calls = []
        check = codes.pless_moment_check

        def recorded(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(codes, "pless_moment_check", recorded)
        for q, k in default_pairs(255):
            ctx, n = gf.field_for(q, k), q**k - 1
            seen = set()
            for e1, e2, _ in valid_orbits(q, k):
                wd = codes.weight_distribution_trace(ctx, e1, e2)
                key = tuple(sorted(wd.entries.items()))
                if key in seen:
                    continue
                seen.add(key)
                dim = round(math.log(wd.total(), q))
                codes.dual_prefix(wd, q, dim)
                dual = codes.macwilliams_dual(wd, q, dim)
                assert codes.macwilliams_dual(dual, q, n - dim) == wd
        assert len(calls) == 3 * 35  # 35 distributions on 22 blocks
        for args in calls:
            assert assert_pless_equals_the_fractions(*args) == [True] * 4


class TestPless:
    def test_example1_passes(self):
        ctx = gf.field_for(4, 3)
        wd = codes.weight_distribution_trace(ctx, 2, 5)
        dual = codes.macwilliams_dual(wd, 4, 4)
        assert codes.pless_moment_check(wd, dual, 4, 4)

    def test_hamming_passes(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 7, 4: 7, 7: 1})
        dual = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        assert codes.pless_moment_check(wd, dual, 2, 4)

    def test_perturbation_detected(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 8, 4: 6, 7: 1})
        dual = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        assert not codes.pless_moment_check(wd, dual, 2, 4)

    def test_failing_moment_identified(self):
        wd = codes.WeightDistribution(n=7, entries={0: 1, 3: 8, 4: 6, 7: 1})
        dual = codes.WeightDistribution(n=7, entries={0: 1, 4: 7})
        moments = codes.pless_moments(wd, dual, 2, 4)
        assert moments[0][0] == moments[0][1]  # totals still match
        assert any(lhs != rhs for lhs, rhs in moments[1:])

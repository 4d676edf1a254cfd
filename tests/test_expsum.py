"""Character sums, the index bijection, and the level-set partition."""

import tracemalloc

import numpy as np
import pytest

from cyclochar import expsum, gf, verify
from cyclochar.errors import ConsistencyError, InvalidArgumentError
from cyclochar.expsum import CyclotomicCount
from cyclochar.gf import ZERO
from cyclochar.numth import bezout_pair, gcd_conditions
from test_gf import additive_char_exponent


def char_sum_reindexed(ctx, e1, e2, a, b, use_delta_form=False):
    """Independent oracle: evaluate the sum in the substituted coordinates.

    Sums chi'(a*gamma^(Delta*(e1*alpha+beta)*v + Delta*s*w) + b*gamma^v)
    over the whole grid, with (alpha, beta) the Bezout pair of e2 and
    s = k*e1 - e2 (or Delta*e1 - e2, which is congruent mod q - 1 and must
    give the identical term multiset).
    """
    m, delta = ctx.m, ctx.delta
    alpha, beta = bezout_pair(e2, ctx.q, ctx.k)
    counts = [0] * ctx.p
    stride = delta * (e1 * alpha + beta)
    s = (delta if use_delta_form else ctx.k) * e1 - e2
    wstep = delta * s
    for v in range(m):
        for w in range(ctx.q - 1):
            t1 = ZERO if a == ZERO else (a + stride * v + wstep * w) % m
            t2 = ZERO if b == ZERO else (b + v) % m
            val = ctx.add(t1, t2)
            counts[0 if val == ZERO else additive_char_exponent(ctx, val)] += 1
    return CyclotomicCount(counts=tuple(counts))


def direct_char_sum(ctx, e1, e2, a, b):
    """Test oracle: the sum term by term, one scalar Zech addition per
    position and one character lookup per term."""
    m, q = ctx.m, ctx.q
    chars = ctx.char_exponent_list()
    counts = [0] * ctx.p
    s1 = ctx.delta * e1 % m
    s2 = e2 % m
    ea, eb = a, b
    for _ in range(m):
        s = ctx.add(ea, eb)
        if s == ZERO:
            counts[0] += q - 1
        else:
            for j in range(q - 1):
                counts[chars[(s + ctx.delta * j) % m]] += 1
        if ea != ZERO:
            ea = (ea + s1) % m
        if eb != ZERO:
            eb = (eb + s2) % m
    return CyclotomicCount(counts=tuple(counts))


def chunked_char_sum(ctx, e1, e2, a, b, entries=1 << 20):
    """Reference for blocks the scalar oracle cannot reach: every term formed.

    Each position's q - 1 multiples gamma^(s + Delta*j) are looked up in
    the character table one by one, with positions taken in chunks so
    that no term array holds more than `entries` terms (one position's
    q - 1 terms at the least).
    """
    m, q = ctx.m, ctx.q
    chars = ctx.char_exponents()
    s1 = ctx.delta * e1 % m
    s2 = e2 % m
    steps = ctx.delta * np.arange(q - 1, dtype=np.int64)
    counts = np.zeros(ctx.p, dtype=np.int64)
    zeros = 0
    rows = max(1, entries // (q - 1))
    for start in range(0, m, rows):
        i = np.arange(start, min(start + rows, m), dtype=np.int64)
        s = expsum._inner_values(ctx, a, s1, b, s2, i)
        s = s[s != ZERO]
        zeros += len(i) - len(s)
        terms = chars[(s[:, None] + steps[None, :]) % m]
        counts += np.bincount(terms.ravel(), minlength=ctx.p)
    counts[0] += (q - 1) * zeros
    return CyclotomicCount(counts=tuple(int(c) for c in counts))


# The paper's level-set argument for the necessity of gcd(q-1, k*e1 - e2) = 1.
# In the substituted coordinates (v, w) the sum reads the shifted form
# below; its level sets over V repeat under w -> w + (q-1)/d and shift
# with v -> v + Delta, so d divides every level count and hence T(a, b).
# No verify sweep runs this scalar O(n*(q-1)) loop per (a, b): the
# char_sum_unit_iff sweep checks the conclusion (d | T and T != 1 when
# d > 1) on every (a, b) of a block instead.


def pair_d(q, k, e1, e2):
    """d = gcd(q-1, k*e1 - e2) of the exponent pair (e1, e2)."""
    return gcd_conditions(q, k, e1, e2)[0]


def level_shift(q, k, e1, e2, d):
    """The exact quotient (Delta*(e1*alpha + beta) - 1) / d, (alpha, beta) e2's Bezout pair.

    Integrality is guaranteed whenever d = gcd(q-1, k*e1 - e2); anything
    else means the Bezout data is inconsistent.
    """
    alpha, beta = bezout_pair(e2, q, k)
    num = (q**k - 1) // (q - 1) * (e1 * alpha + beta) - 1
    if num % d != 0:
        raise ConsistencyError(
            f"{d} does not divide Delta*(e1*alpha+beta) - 1 = {num}"
        )
    return num // d


def partition_value(ctx, e1, e2, a, b, d, v, w):
    """Value a*gamma^(Delta*(e1*alpha+beta)*v + Delta*d*w) + b*gamma^v.

    The level sets of this map over V are invariant under w -> w + (q-1)/d
    and shift predictably under v -> v + Delta, which forces every level
    count to be divisible by d.
    """
    q, k, m, delta = ctx.q, ctx.k, ctx.m, ctx.delta
    if d != pair_d(q, k, e1, e2):
        raise InvalidArgumentError(f"d = {d} is not gcd(q-1, k*e1 - e2)")
    level_shift(q, k, e1, e2, d)  # integrality check
    if not (0 <= v < m and 0 <= w < q - 1):
        raise InvalidArgumentError(f"point ({v}, {w}) outside V")
    alpha, beta = bezout_pair(e2, q, k)
    stride = delta * (e1 * alpha + beta)
    t1 = ZERO if a == ZERO else (a + stride * v + delta * d * w) % m
    t2 = ZERO if b == ZERO else (b + v) % m
    return ctx.add(t1, t2)


def partition_counts(ctx, e1, e2, a, b, d):
    """Level-set sizes of the shifted form over V, keyed by field element.

    Requires d = gcd(q-1, k*e1 - e2) > 1.  Checks that d divides every
    level count and that counts repeat along the v -> v + Delta orbit.
    """
    if d <= 1:
        raise InvalidArgumentError(f"partition requires d > 1, got {d}")
    if d != pair_d(ctx.q, ctx.k, e1, e2):
        raise InvalidArgumentError(f"d = {d} is not gcd(q-1, k*e1 - e2)")
    m = ctx.m
    counts = {}
    for v in range(m):
        for w in range(ctx.q - 1):
            val = partition_value(ctx, e1, e2, a, b, d, v, w)
            counts[val] = counts.get(val, 0) + 1
    for val, c in counts.items():
        if c % d != 0:
            raise ConsistencyError(f"level count {c} at {val} is not divisible by {d}")
    for e in range(m):
        if counts.get(e, 0) != counts.get((e + ctx.delta) % m, 0):
            raise ConsistencyError("level counts are not Delta-shift periodic")
    return counts


def class_pairs(ctx):
    """The (a, b) class representatives verify_char_sum_cases evaluates."""
    reps = ctx.trace_class_reps()
    a_nz = int(reps[1:].min())
    a_z = int(reps[0]) if reps[0] < ctx.m else None
    out = [(ZERO, ZERO), (ZERO, 0), (a_nz, ZERO), (a_nz, 0)]
    if a_z is not None:
        out += [(a_z, ZERO), (a_z, 0)]
    return out


class TestCharSumAgainstDirect:
    @pytest.mark.parametrize("q,k", verify.default_pairs(15))
    def test_every_pair_of_every_spec(self, q, k):
        ctx = gf.field_for(q, k)
        elems = [ZERO] + list(range(ctx.m))
        for e1, e2 in verify.all_pairs(q, k):
            for a in elems:
                for b in elems:
                    got = expsum.char_sum(ctx, e1, e2, a, b)
                    assert got == direct_char_sum(ctx, e1, e2, a, b), (e1, e2, a, b)
                    assert all(type(c) is int for c in got.counts)

    @pytest.mark.parametrize("q,k", verify.default_pairs(127))
    def test_class_representatives_of_every_spec(self, q, k):
        ctx = gf.field_for(q, k)
        for e1, e2 in verify.all_pairs(q, k):
            for a, b in class_pairs(ctx):
                assert expsum.char_sum(ctx, e1, e2, a, b) == direct_char_sum(ctx, e1, e2, a, b)

    @pytest.mark.parametrize("budget", [1, 7, 100])
    @pytest.mark.parametrize("q,k,e1,e2", [(2, 4, 0, 7), (3, 3, 1, 5), (4, 3, 2, 5), (9, 2, 3, 7)])
    def test_walk_spanning_several_chunks(self, q, k, e1, e2, budget):
        # the chunked reference must not depend on its chunk size
        ctx = gf.field_for(q, k)
        for a, b in class_pairs(ctx) + [(3, 5), (5, 3), (1, ZERO)]:
            want = direct_char_sum(ctx, e1, e2, a, b)
            assert chunked_char_sum(ctx, e1, e2, a, b, entries=budget) == want


class TestCharSumAgainstChunked:
    # Blocks too large for the scalar oracle.  At (31,3) and (64,2): a
    # qualifying pair, one with gcd(q-1, k*e1 - e2) > 1, and one whose e2
    # shares a factor with Delta (993 and 65).  At (257,2), where each
    # reference sum takes about 0.2 s, only the last kind (Delta = 258).
    @pytest.mark.parametrize(
        "q,k,e1,e2",
        [
            (31, 3, 0, 1), (31, 3, 1, 1), (31, 3, 1, 3),
            (64, 2, 0, 1), (64, 2, 1, 2), (64, 2, 1, 5),
            (257, 2, 1, 3),
        ],
    )
    def test_class_pairs_and_generic_points(self, q, k, e1, e2):
        ctx = gf.field_for(q, k)
        for a, b in class_pairs(ctx) + [(3, 5), (5, 3), (1, ZERO)]:
            got = expsum.char_sum(ctx, e1, e2, a, b)
            assert got == chunked_char_sum(ctx, e1, e2, a, b), (e1, e2, a, b)

    @pytest.mark.parametrize("q,k", [(257, 2), (31, 3)])
    def test_peak_memory_per_field_element(self, q, k):
        # one pass holds a few length-q^k arrays, never the (q-1)*q^k terms
        ctx = gf.field_for(q, k)
        ctx.char_exponents()  # built once per field, not per sum
        a = int(ctx.trace_class_reps()[1:].min())
        tracemalloc.start()
        try:
            expsum.char_sum(ctx, 1, 1, a, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * ctx.order, peak / ctx.order


class TestCyclotomicCount:
    def test_integral_collapse(self):
        assert CyclotomicCount(counts=(5, 2, 2)).as_integer() == 3

    def test_non_integral_raises(self):
        c = CyclotomicCount(counts=(5, 2, 3))
        assert not c.is_integral()
        with pytest.raises(ConsistencyError):
            c.as_integer()

    def test_char2_always_integral(self):
        assert CyclotomicCount(counts=(4, 9)).as_integer() == -5


class TestSubstitution:
    def test_worked_example_q3_k2(self):
        pair = bezout_pair(1, 3, 2)
        assert (pair.alpha, pair.beta) == (1, 0)
        assert expsum.substitution(3, 2, 1, pair, 1, 1) == (5, 1)

    def test_zero_fixed(self):
        pair = bezout_pair(1, 3, 2)
        assert expsum.substitution(3, 2, 1, pair, 0, 0) == (0, 0)
        assert expsum.substitution_inverse(3, 2, 1, pair, 0, 0) == (0, 0)

    def test_inverse_worked_example(self):
        pair = bezout_pair(1, 3, 2)
        assert expsum.substitution_inverse(3, 2, 1, pair, 5, 1) == (1, 1)

    @pytest.mark.parametrize("q,k,e2", [(3, 2, 1), (2, 3, 3), (3, 2, 5), (5, 2, 7), (4, 2, 3)])
    def test_roundtrip_exhaustive(self, q, k, e2):
        pair = bezout_pair(e2, q, k)
        n = q**k - 1
        for i in range(n):
            for j in range(q - 1):
                v, w = expsum.substitution(q, k, e2, pair, i, j)
                assert 0 <= v < n and 0 <= w < q - 1
                assert expsum.substitution_inverse(q, k, e2, pair, v, w) == (i, j)

    def test_full_orbit_bijectivity_q4_k3(self):
        pair = bezout_pair(5, 4, 3)
        hit = set()
        for i in range(63):
            for j in range(3):
                hit.add(expsum.substitution(4, 3, 5, pair, i, j))
        assert len(hit) == 63 * 3


class TestPartitionValue:
    def test_zero_inputs_vanish(self):
        ctx = gf.field_for(4, 2)
        d = pair_d(4, 2, 2, 1)
        assert d == 3
        for v in range(ctx.m):
            for w in range(ctx.q - 1):
                assert partition_value(ctx, 2, 1, ZERO, ZERO, d, v, w) == ZERO

    @pytest.mark.parametrize("q,k,e1,e2", [(4, 2, 2, 1), (5, 3, 1, 1)])
    def test_scaling_symmetry(self, q, k, e1, e2):
        # gamma^(r*Delta) * f(v, w) = f(v + r*Delta, w - r*rho), exhaustively
        ctx = gf.field_for(q, k)
        d = pair_d(q, k, e1, e2)
        assert d > 1
        rho = level_shift(q, k, e1, e2, d)
        a, b = 1, 2
        for r in range(q):
            for v in range(ctx.m):
                for w in range(q - 1):
                    lhs = ctx.mul(
                        (r * ctx.delta) % ctx.m,
                        partition_value(ctx, e1, e2, a, b, d, v, w),
                    )
                    rhs = partition_value(
                        ctx,
                        e1,
                        e2,
                        a,
                        b,
                        d,
                        (v + r * ctx.delta) % ctx.m,
                        (w - r * rho) % (q - 1),
                    )
                    assert lhs == rhs

    @pytest.mark.parametrize("q,k,e1,e2", [(4, 2, 2, 1), (5, 3, 1, 1)])
    def test_level_shift_symmetry(self, q, k, e1, e2):
        # f(v, w) = f(v, w + (q-1)/d * t) for t = 0..d-1, exhaustively
        ctx = gf.field_for(q, k)
        d = pair_d(q, k, e1, e2)
        step = (q - 1) // d
        a, b = 2, 0
        for v in range(ctx.m):
            for w in range(q - 1):
                base = partition_value(ctx, e1, e2, a, b, d, v, w)
                for t in range(d):
                    assert base == partition_value(
                        ctx, e1, e2, a, b, d, v, (w + step * t) % (q - 1)
                    )

    def test_wrong_d_rejected(self):
        ctx = gf.field_for(4, 2)
        with pytest.raises(InvalidArgumentError):
            partition_value(ctx, 2, 1, 0, 0, 2, 0, 0)


class TestCharSum:
    def test_example_all_zero(self):
        ctx = gf.field_for(4, 3)
        assert expsum.char_sum(ctx, 2, 5, ZERO, ZERO).as_integer() == 189

    def test_example_trace_nonzero_b_zero(self):
        ctx = gf.field_for(4, 3)
        a = next(e for e in range(63) if ctx.trace_to(e, "Fq") != ZERO)
        assert expsum.char_sum(ctx, 2, 5, a, ZERO).as_integer() == -63

    def test_example_generic_class(self):
        ctx = gf.field_for(4, 3)
        a = next(e for e in range(63) if ctx.trace_to(e, "Fq") != ZERO)
        assert expsum.char_sum(ctx, 2, 5, a, 0).as_integer() == 1

    def test_term_count(self):
        ctx = gf.field_for(3, 2)
        assert sum(expsum.char_sum(ctx, 0, 1, 3, 5).counts) == 8 * 2

    @pytest.mark.parametrize("q,k,e1,e2", [(3, 2, 0, 1), (2, 3, 0, 1), (4, 2, 2, 1), (5, 2, 1, 7)])
    def test_reindexed_evaluation_identical(self, q, k, e1, e2):
        # direct and substituted coordinates must give the same count vector
        ctx = gf.field_for(q, k)
        for a, b in [(ZERO, ZERO), (0, ZERO), (ZERO, 0), (1, 2), (2, 1)]:
            direct = expsum.char_sum(ctx, e1, e2, a, b)
            assert char_sum_reindexed(ctx, e1, e2, a, b) == direct
            assert char_sum_reindexed(ctx, e1, e2, a, b, use_delta_form=True) == direct


class TestPredictions:
    def test_first_case_q2(self):
        assert expsum.predict_char_sum(2, 3, True, True) == 7

    def test_b_nonzero_trace_zero(self):
        assert expsum.predict_char_sum(4, 3, True, False) == -3

    @pytest.mark.parametrize("q,k,e1,e2", [(3, 2, 0, 1), (2, 3, 0, 1), (4, 2, 0, 1)])
    def test_matches_char_sum_on_every_pair(self, q, k, e1, e2):
        # both conditions hold for these pairs: check every (a, b), not classes
        ctx = gf.field_for(q, k)
        elems = [ZERO] + list(range(ctx.m))
        for a in elems:
            tz = a == ZERO or ctx.trace_to(a, "Fq") == ZERO
            for b in elems:
                want = expsum.predict_char_sum(q, k, tz, b == ZERO)
                assert expsum.char_sum(ctx, e1, e2, a, b).as_integer() == want


class TestPartitionCounts:
    def test_totals_and_divisibility(self):
        ctx = gf.field_for(4, 2)
        d = pair_d(4, 2, 2, 1)
        counts = partition_counts(ctx, 2, 1, 1, 2, d)
        assert sum(counts.values()) == ctx.m * (ctx.q - 1)
        assert all(c % d == 0 for c in counts.values())

    def test_delta_periodicity(self):
        ctx = gf.field_for(5, 3)
        counts = partition_counts(ctx, 1, 1, 3, 7, pair_d(5, 3, 1, 1))
        for e in range(ctx.m):
            assert counts.get(e, 0) == counts.get((e + ctx.delta) % ctx.m, 0)

    def test_requires_d_greater_than_one(self):
        ctx = gf.field_for(3, 2)
        with pytest.raises(InvalidArgumentError):
            partition_counts(ctx, 0, 1, 1, 2, pair_d(3, 2, 0, 1))

    def test_gcd_checked(self):
        ctx = gf.field_for(4, 2)
        with pytest.raises(InvalidArgumentError):
            partition_counts(ctx, 2, 1, 1, 2, 6)

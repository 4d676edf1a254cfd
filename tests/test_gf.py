"""Field tower construction, element arithmetic, traces and characters."""

import random
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclochar import gf
from cyclochar.errors import ConsistencyError, InvalidArgumentError, ResourceLimitError
from cyclochar.gf import ZERO
from cyclochar.numth import factorize, is_prime

PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(factorize(q)) == 1]
GOLDEN_MODULI = Path(__file__).with_name("golden_moduli.txt")


def elements(ctx):
    return [ZERO] + list(range(ctx.m))


def packed(ctx, x):
    """Base-p packed coefficient vector of the element."""
    return 0 if x == ZERO else int(ctx.antilog[x])


def additive_char_exponent(ctx, x):
    """Test reference: the exponent c in [0, p) with chi'(x) = zeta_p^c,
    by the scalar trace to F_p, reading no table of traces."""
    v = packed(ctx, ctx.trace_to(x, "Fp"))
    if v >= ctx.p:
        raise ConsistencyError("trace to the prime field left the prime field")
    return v


# -- reference kernels: the field tables as built by a digit table ----------


def _companion_matrix(f, p):
    d = len(f) - 1
    m = np.zeros((d, d), dtype=np.int64)
    for i in range(d - 1):
        m[i + 1, i] = 1
    for j in range(d):
        m[j, d - 1] = (-f[j]) % p
    return m


def _matrix_power_mod(mat, e, p):
    out = np.eye(mat.shape[0], dtype=np.int64)
    base = mat % p
    while e:
        if e & 1:
            out = out @ base % p
        base = base @ base % p
        e >>= 1
    return out


def _power_table(f, p, m):
    """Coefficient vectors of x^0 .. x^{m-1} mod f as an (m, d) array.

    The digits are stored as uint8, so this reference holds for p < 256.
    """
    d = len(f) - 1
    block = min(m, 1 << 12)
    cols = np.zeros((d, block), dtype=np.int64)
    col = [1] + [0] * (d - 1)
    for j in range(block):
        cols[:, j] = col
        top = col[d - 1]
        col = [0] + col[: d - 1]
        if top:
            for i in range(d):
                col[i] = (col[i] - top * f[i]) % p
    chunks = [cols.astype(np.uint8)]
    step = _matrix_power_mod(_companion_matrix(f, p), block, p) if m > block else None
    total = block
    while total < m:
        cols = step @ cols % p
        chunks.append(cols.astype(np.uint8))
        total += block
    table = np.concatenate(chunks, axis=1).T[:m]
    return np.ascontiguousarray(table)


def _pack_columns(digits, p):
    """Base-p packed values of an (m, d) digit array, column by column."""
    m, d = digits.shape
    packed = np.zeros(m, dtype=np.int64)
    mult = 1
    for i in range(d):
        packed += digits[:, i].astype(np.int64) * mult
        mult *= p
    return packed


def _digitwise_trace(ctx, digits, step, reps):
    """Packed values of sum_{i<reps} x^(step^i) for x = gamma^e, e in [0, m)."""
    idx = np.arange(ctx.m, dtype=np.int64)
    acc = np.zeros((ctx.m, ctx.d), dtype=np.uint16)
    mult = 1
    for _ in range(reps):
        acc += digits[idx * mult % ctx.m]
        mult = mult * step % ctx.m
    acc %= ctx.p
    return _pack_columns(acc, ctx.p)


def reference_tables(ctx):
    """antilog, log, zech, trace_q_symbols(), char_exponents() and
    trace_class_reps() of ctx, from the digit table of its modulus."""
    p, m = ctx.p, ctx.m
    digits = _power_table(list(ctx.modulus), p, m)
    antilog = _pack_columns(digits, p)
    log = np.full(ctx.order, ZERO, dtype=np.int64)
    log[antilog] = np.arange(m)
    plus_one = digits.copy()
    plus_one[:, 0] = (plus_one[:, 0] + 1) % p
    zech = log[_pack_columns(plus_one, p)]
    trq = _digitwise_trace(ctx, digits, ctx.q, ctx.k)
    sym = np.where(trq == 0, 0, 1 + log[trq] // ctx.delta)
    trp = _digitwise_trace(ctx, digits, p, ctx.d)
    first = {}
    for e, s in enumerate(sym.tolist()):
        first.setdefault(s, e)
    reps = np.array([first.get(s, m) for s in range(ctx.q)], dtype=np.int64)
    return antilog, log, zech, sym, trp, reps


# every (q, k) with k >= 2 and q^k <= 2^16, q a prime power: 126 fields
FIELDS_TO_2_16 = [
    (q, k)
    for q in range(2, 257)
    if len(factorize(q)) == 1
    for k in range(2, 17)
    if q**k <= 1 << 16
]


# -- reference order test: coefficient lists, one product at a time --------


def _poly_mulmod(a, b, f, p):
    """Product of coefficient lists a, b modulo the monic poly f, over F_p."""
    d = len(f) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, d - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(d):
                out[i - d + j] = (out[i - d + j] - c * f[j]) % p
    del out[d:]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_powmod(a, e, f, p):
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def reference_x_is_primitive(f, p):
    """x has order p^d - 1 modulo f, by list powering and no shortcut."""
    d = len(f) - 1
    if f[0] == 0:
        return False
    m = p**d - 1
    x = [0, 1] if d > 1 else [(-f[0]) % p]
    return _poly_powmod(x, m, f, p) == [1] and all(
        _poly_powmod(x, m // r, f, p) != [1] for r in factorize(m)
    )


def monic_candidates(p, d):
    """Every monic f of degree d over F_p with f(0) != 0, in packed order."""
    for high in product(range(p), repeat=d - 1):
        for c0 in range(1, p):
            yield (c0, *reversed(high), 1)


def x_power_is_one(ctx, e):
    """x^e = 1 modulo the field's modulus, by polynomial powering over F_p."""
    return _poly_powmod([0, 1], e, list(ctx.modulus), ctx.p) == [1]


# every (p, d) with p < 64 and p^d <= 2^10: 44 fields, 6,315 candidates
SMALL_PRIME_FIELDS = [(p, d) for p in range(2, 64) if is_prime(p)
                      for d in range(1, 11) if p**d <= 1 << 10]


class TestModulusSearch:
    def test_the_golden_moduli_at_every_capped_field(self):
        golden = gf.load_primitive_table(str(GOLDEN_MODULI))
        capped = [(p, d) for p in range(2, 1025) if is_prime(p)
                  for d in range(2, 21) if p**d <= 1 << 20]
        assert sorted(golden) == capped and len(capped) == 242
        for (p, d), modulus in golden.items():
            assert gf.smallest_primitive_polynomial(p, d) == modulus, (p, d)

    @pytest.mark.parametrize("p,d", [(2, 20), (3, 12), (5, 8), (7, 7), (13, 5), (31, 4),
                                     (101, 3), (997, 2), (1021, 2)])
    def test_packed_products_equal_the_list_products(self, p, d):
        # the golden modulus and random monic ones, with random operands and
        # the all-(p-1) operand, whose products fill the slots most
        rng = random.Random(p * 100 + d)
        moduli = [gf.load_primitive_table(str(GOLDEN_MODULI))[p, d]]
        moduli += [[rng.randrange(p) for _ in range(d)] + [1] for _ in range(10)]
        for modulus in moduli:
            x, mulmod = gf._packed_ring(modulus, p)
            w = x.bit_length() - 1  # x is the packed x^1

            def pack(coeffs):
                return sum(c << (w * i) for i, c in enumerate(coeffs))

            operands = [[p - 1] * d] * 3 + [[rng.choice([p - 1, rng.randrange(p)]) for _ in range(d)]
                                            for _ in range(40)]
            for a, b in zip(operands, operands[1:]):
                expected = _poly_mulmod(a, b, list(modulus), p)
                expected += [0] * (d - len(expected))
                product = mulmod(pack(a), pack(b))
                assert [(product >> (w * i)) & ((1 << w) - 1) for i in range(d)] == expected, modulus

    def test_packed_order_test_equals_the_list_reference(self):
        # every candidate, those the search skips by its conditions included
        for p, d in SMALL_PRIME_FIELDS:
            primitive = [f for f in monic_candidates(p, d) if reference_x_is_primitive(f, p)]
            assert [f for f in monic_candidates(p, d) if gf._x_is_primitive(f, p)] == primitive
            assert gf.smallest_primitive_polynomial(p, d) == primitive[0], (p, d)


class TestBuildField:
    def test_f8_canonical_modulus(self):
        ctx = gf.build_field(2, 1, 3)
        assert ctx.modulus == (1, 1, 0, 1)  # x^3 + x + 1
        assert ctx.order == 8

    def test_f64_tower_stride(self):
        ctx = gf.build_field(2, 2, 3)
        assert ctx.delta == 21
        # gamma^21 generates the multiplicative group of the embedded F_4
        assert x_power_is_one(ctx, 3 * 21)
        assert not x_power_is_one(ctx, 21)

    def test_prime_field_degenerates_to_primitive_root(self):
        ctx = gf.build_field(3, 1, 1)
        assert ctx.order == 3
        assert packed(ctx, 1) == 2

    def test_rejects_composite_characteristic(self):
        with pytest.raises(InvalidArgumentError):
            gf.build_field(6, 1, 2)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            gf.build_field(2, 1, 25, cap=1 << 20)

    @pytest.mark.parametrize("p,t,k", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
    def test_gamma_has_full_order(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        m = ctx.m
        assert x_power_is_one(ctx, m)
        for r in factorize(m):
            assert not x_power_is_one(ctx, m // r)

    def test_holds_only_the_three_tables(self):
        ctx = gf.FieldCtx(2, 1, 4, (1, 1, 0, 0, 1))
        arrays = {name for name, v in vars(ctx).items() if isinstance(v, np.ndarray)}
        assert arrays == {"antilog", "log", "zech"}

    def test_building_at_the_cap_peaks_near_the_tables(self):
        # the construction's transients beside antilog, log and zech stay
        # within 16 MiB at (2, 20): two int64 arrays of length 2^20
        modulus = gf.smallest_primitive_polynomial(2, 20)
        tracemalloc.start()
        try:
            ctx = gf.FieldCtx(2, 1, 20, modulus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = ctx.antilog.nbytes + ctx.log.nbytes + ctx.zech.nbytes  # 24 MiB
        assert peak <= tables + (16 << 20)

    def test_tables_equal_the_digit_table_reference(self):
        assert len(FIELDS_TO_2_16) == 126
        for q, k in FIELDS_TO_2_16:
            ctx = gf.field_for(q, k)
            got = (
                ctx.antilog,
                ctx.log,
                ctx.zech,
                ctx.trace_q_symbols(),
                ctx.char_exponents(),
                ctx.trace_class_reps(),
            )
            for name, a, b in zip(
                ("antilog", "log", "zech", "trq", "trp", "reps"), got, reference_tables(ctx)
            ):
                assert a.dtype == np.int64 and np.array_equal(a, b), (q, k, name)

    def test_tables_are_inverse(self):
        ctx = gf.build_field(3, 1, 3)
        for e in range(ctx.m):
            assert ctx.log[packed(ctx, e)] == e
        assert ctx.log[0] == ZERO


class TestArithmetic:
    def test_exponent_sum_wraps(self):
        ctx = gf.build_field(2, 1, 3)
        assert ctx.mul(3, 4) == 0  # gamma^3 * gamma^4 = gamma^7 = 1

    def test_char2_self_cancellation(self):
        ctx = gf.build_field(2, 1, 3)
        for x in elements(ctx):
            assert ctx.add(x, x) == ZERO

    def test_lagrange(self):
        ctx = gf.build_field(3, 1, 2)
        assert x_power_is_one(ctx, ctx.order - 1)

    def test_inverse_of_zero(self):
        ctx = gf.build_field(2, 1, 3)
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ZERO)

    @pytest.mark.parametrize("p,t,k", [(2, 1, 3), (3, 1, 2)])
    def test_field_axioms_exhaustive(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        elems = elements(ctx)
        one = 0
        for x in elems:
            assert ctx.add(x, ZERO) == x
            assert ctx.mul(x, one) == x
            if x != ZERO:
                assert ctx.mul(x, ctx.inv(x)) == one
            assert ctx.add(x, ctx.neg(x)) == ZERO
            for y in elems:
                assert ctx.add(x, y) == ctx.add(y, x)
                assert ctx.mul(x, y) == ctx.mul(y, x)
                for z in elems:
                    assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
                    assert ctx.mul(ctx.add(x, y), z) == ctx.add(
                        ctx.mul(x, z), ctx.mul(y, z)
                    )

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=254), st.integers(min_value=0, max_value=254))
    def test_log_of_product(self, x, y):
        ctx = gf.build_field(2, 2, 4)  # order 256
        assert ctx.mul(x, y) == (x + y) % ctx.m

    def test_addition_matches_packed_vectors(self):
        # Zech addition against independent digitwise base-p addition
        for p, t, k in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
            ctx = gf.build_field(p, t, k)
            for x in elements(ctx):
                for y in elements(ctx):
                    vx, vy = packed(ctx, x), packed(ctx, y)
                    expect = 0
                    mult = 1
                    for _ in range(ctx.d):
                        expect += ((vx % p + vy % p) % p) * mult
                        vx //= p
                        vy //= p
                        mult *= p
                    assert packed(ctx, ctx.add(x, y)) == expect


class TestSubfield:
    @pytest.mark.parametrize("p,t,k", [(2, 2, 3), (3, 1, 2), (2, 2, 2)])
    def test_closure(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        sub = [ZERO] + [j * ctx.delta for j in range(ctx.q - 1)]
        subset = set(sub)
        for x in sub:
            for y in sub:
                assert ctx.add(x, y) in subset
                assert ctx.mul(x, y) in subset

    def test_symbol_roundtrip(self):
        ctx = gf.build_field(2, 2, 3)
        for s in range(ctx.q):
            assert ctx.symbol_of(ctx.element_of_symbol(s)) == s

    def test_symbol_out_of_range(self):
        ctx = gf.build_field(2, 2, 3)
        with pytest.raises(InvalidArgumentError):
            ctx.element_of_symbol(ctx.q)

    def test_symbol_tables_match_scalar_ops(self):
        # every entry of every table against the element-level operations,
        # for every prime power q <= 64, in both the array and list forms
        for q in PRIME_POWERS_TO_64:
            ctx = gf.field_for(q, 2)
            elem = [ctx.element_of_symbol(s) for s in range(q)]
            sym = ctx.symbol_of
            add, mul, neg, inv = ctx.symbol_tables()
            assert ctx.symbol_table_lists() == (
                add.tolist(), mul.tolist(), neg.tolist(), inv.tolist()
            )
            for s1 in range(q):
                assert neg[s1] == sym(ctx.neg(elem[s1])), (q, s1)
                if s1:
                    assert inv[s1] == sym(ctx.inv(elem[s1])), (q, s1)
                for s2 in range(q):
                    assert add[s1, s2] == sym(ctx.add(elem[s1], elem[s2])), (q, s1, s2)
                    assert mul[s1, s2] == sym(ctx.mul(elem[s1], elem[s2])), (q, s1, s2)
            assert inv[0] == 0


class TestTrace:
    def test_zero_maps_to_zero(self):
        ctx = gf.build_field(2, 1, 3)
        assert ctx.trace_to(ZERO, "Fq") == ZERO
        assert ctx.trace_to(ZERO, "Fp") == ZERO

    def test_trace_of_one_in_even_tower(self):
        ctx = gf.build_field(2, 1, 2)
        # Tr(1) = 1 + 1 = 0 when k = 2 in characteristic 2
        assert ctx.trace_to(0, "Fq") == ZERO

    @pytest.mark.parametrize("p,t,k", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (2, 1, 6), (3, 1, 4)])
    def test_balanced_fibers(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        counts = {}
        for x in elements(ctx):
            tr = ctx.trace_to(x, "Fq")
            counts[tr] = counts.get(tr, 0) + 1
        assert set(counts.values()) == {ctx.order // ctx.q}
        assert len(counts) == ctx.q

    @pytest.mark.parametrize("p,t,k", [(2, 1, 12), (2, 2, 6), (3, 1, 7), (5, 1, 5)])
    def test_balanced_fibers_to_order_4096(self, p, t, k):
        # every trace value hit exactly order/q times, up to order 2^12
        ctx = gf.build_field(p, t, k)
        syms, counts = np.unique(ctx.trace_q_symbols(), return_counts=True)
        assert list(syms) == list(range(ctx.q))
        per = ctx.order // ctx.q
        assert counts[0] == per - 1  # the zero element joins the zero fiber
        assert all(c == per for c in counts[1:])

    def test_trace_lands_in_subfield(self):
        ctx = gf.build_field(2, 2, 3)
        for x in elements(ctx):
            tr = ctx.trace_to(x, "Fq")
            # symbol_of refuses an element outside the embedded F_q
            assert ctx.element_of_symbol(ctx.symbol_of(tr)) == tr

    def test_transitivity(self):
        ctx = gf.build_field(2, 2, 3)
        for x in elements(ctx):
            tq = ctx.trace_to(x, "Fq")
            # trace of the embedded F_4 element down to F_2
            t2 = tq if tq == ZERO else ctx.add(tq, (tq * 2) % ctx.m)
            assert t2 == ctx.trace_to(x, "Fp")

    def test_table_matches_scalar(self):
        ctx = gf.build_field(3, 1, 3)
        table = ctx.trace_q_symbols()
        for e in range(ctx.m):
            assert table[e] == ctx.symbol_of(ctx.trace_to(e, "Fq"))

    @pytest.mark.parametrize("q,stride", [(257, 1), (1021, 97)])
    def test_large_prime_traces_match_scalar(self, q, stride):
        # field orders above 2^16 with digits above 255
        ctx = gf.field_for(q, 2)
        assert np.array_equal(ctx.log[ctx.antilog], np.arange(ctx.m))
        trq, trp = ctx.trace_q_symbols(), ctx.char_exponents()
        for e in range(0, ctx.m, stride):
            assert trq[e] == ctx.symbol_of(ctx.trace_to(e, "Fq")), e
            assert trp[e] == additive_char_exponent(ctx, e), e

    def test_unknown_target(self):
        ctx = gf.build_field(2, 1, 3)
        with pytest.raises(InvalidArgumentError):
            ctx.trace_to(0, "F4")


class TestAdditiveCharacter:
    def test_zero(self):
        ctx = gf.build_field(2, 1, 3)
        assert additive_char_exponent(ctx, ZERO) == 0

    def test_char2_exponent_is_trace_bit(self):
        ctx = gf.build_field(2, 1, 3)
        for x in elements(ctx):
            assert additive_char_exponent(ctx, x) in (0, 1)

    @pytest.mark.parametrize("p,t,k", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
    def test_additivity(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        rng = np.random.default_rng(0)
        elems = elements(ctx)
        for _ in range(100):
            x, y = rng.choice(len(elems), size=2)
            x, y = elems[int(x)], elems[int(y)]
            assert additive_char_exponent(ctx, ctx.add(x, y)) == (
                additive_char_exponent(ctx, x) + additive_char_exponent(ctx, y)
            ) % p

    def test_table_matches_scalar(self):
        ctx = gf.build_field(3, 1, 2)
        table = ctx.char_exponents()
        for e in range(ctx.m):
            assert table[e] == additive_char_exponent(ctx, e)


class TestPrimitiveOverride:
    def test_override_used_and_validated(self, tmp_path):
        path = tmp_path / "prims.txt"
        path.write_text("# alt primitive for degree 3\n2 3 1 0 1 1\n")
        table = gf.load_primitive_table(str(path))
        ctx = gf.build_field(2, 1, 3, primitive_table=table)
        assert ctx.modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1

    def test_non_primitive_rejected(self, tmp_path):
        path = tmp_path / "prims.txt"
        path.write_text("2 3 1 1 1 1\n")  # (x+1)(x^2+1): not primitive
        table = gf.load_primitive_table(str(path))
        with pytest.raises(InvalidArgumentError):
            gf.build_field(2, 1, 3, primitive_table=table)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "prims.txt"
        path.write_text("2 3 1 0 1\n")  # degree 3 needs 4 coefficients
        with pytest.raises(InvalidArgumentError):
            gf.load_primitive_table(str(path))

    def test_default_ignores_table_for_other_degrees(self, tmp_path):
        path = tmp_path / "prims.txt"
        path.write_text("2 3 1 0 1 1\n")
        table = gf.load_primitive_table(str(path))
        ctx = gf.build_field(2, 1, 4, primitive_table=table)
        assert ctx.modulus == (1, 1, 0, 0, 1)  # untouched degree keeps the default


class TestPrimitivityCheck:
    # FieldCtx checks its own modulus by the log/antilog round trip
    def test_irreducible_of_order_5_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible over F_2, but x has order 5
        with pytest.raises(ConsistencyError, match="not primitive"):
            gf.FieldCtx(2, 1, 4, (1, 1, 1, 1, 1))

    def test_reducible_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2 over F_2
        with pytest.raises(ConsistencyError, match="not primitive"):
            gf.FieldCtx(2, 1, 4, (1, 0, 1, 0, 1))

    def test_primitive_accepted(self):
        ctx = gf.FieldCtx(2, 1, 4, (1, 1, 0, 0, 1))  # x^4 + x + 1
        assert np.array_equal(ctx.log[ctx.antilog], np.arange(15))

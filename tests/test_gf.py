"""Field tower construction, element arithmetic, traces and characters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclochar import gf
from cyclochar.errors import InvalidArgumentError, ResourceLimitError
from cyclochar.gf import ZERO
from cyclochar.numth import factorize

PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(factorize(q)) == 1]


def elements(ctx):
    return [ZERO] + list(range(ctx.m))


class TestBuildField:
    def test_f8_canonical_modulus(self):
        ctx = gf.build_field(2, 1, 3)
        assert ctx.modulus == (1, 1, 0, 1)  # x^3 + x + 1
        assert ctx.order == 8

    def test_f64_tower_stride(self):
        ctx = gf.build_field(2, 2, 3)
        assert ctx.delta == 21
        # gamma^21 generates the multiplicative group of the embedded F_4
        assert ctx.pow(21, 3) == 0
        assert ctx.pow(21, 1) != 0

    def test_prime_field_degenerates_to_primitive_root(self):
        ctx = gf.build_field(3, 1, 1)
        assert ctx.order == 3
        assert ctx.packed(ctx.gamma) == 2

    def test_rejects_composite_characteristic(self):
        with pytest.raises(InvalidArgumentError):
            gf.build_field(6, 1, 2)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            gf.build_field(2, 1, 25, cap=1 << 20)

    def test_cache_shared_across_caps(self):
        assert gf.field_for(4, 3, cap=1 << 10) is gf.field_for(4, 3, cap=1 << 20)

    @pytest.mark.parametrize("p,t,k", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
    def test_gamma_has_full_order(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        m = ctx.m
        assert ctx.pow(ctx.gamma, m) == 0
        for r in factorize(m):
            assert ctx.pow(ctx.gamma, m // r) != 0

    def test_tables_are_inverse(self):
        ctx = gf.build_field(3, 1, 3)
        for e in range(ctx.m):
            assert ctx.from_packed(ctx.packed(e)) == e
        assert ctx.from_packed(0) == ZERO


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
        assert ctx.pow(ctx.gamma, ctx.order - 1) == 0

    def test_inverse_of_zero(self):
        ctx = gf.build_field(2, 1, 3)
        with pytest.raises(ZeroDivisionError):
            ctx.inv(ZERO)

    def test_zero_powers(self):
        ctx = gf.build_field(2, 1, 3)
        assert ctx.pow(ZERO, 5) == ZERO
        assert ctx.pow(ZERO, 0) == 0
        with pytest.raises(ZeroDivisionError):
            ctx.pow(ZERO, -1)

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
                    vx, vy = ctx.packed(x), ctx.packed(y)
                    expect = 0
                    mult = 1
                    for _ in range(ctx.d):
                        expect += ((vx % p + vy % p) % p) * mult
                        vx //= p
                        vy //= p
                        mult *= p
                    assert ctx.packed(ctx.add(x, y)) == expect


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
            assert ctx.in_subfield(ctx.trace_to(x, "Fq"))

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

    def test_unknown_target(self):
        ctx = gf.build_field(2, 1, 3)
        with pytest.raises(InvalidArgumentError):
            ctx.trace_to(0, "F4")


class TestAdditiveCharacter:
    def test_zero(self):
        ctx = gf.build_field(2, 1, 3)
        assert ctx.additive_char_exponent(ZERO) == 0

    def test_char2_exponent_is_trace_bit(self):
        ctx = gf.build_field(2, 1, 3)
        for x in elements(ctx):
            assert ctx.additive_char_exponent(x) in (0, 1)

    @pytest.mark.parametrize("p,t,k", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (5, 1, 2)])
    def test_additivity(self, p, t, k):
        ctx = gf.build_field(p, t, k)
        rng = np.random.default_rng(0)
        elems = elements(ctx)
        for _ in range(100):
            x, y = rng.choice(len(elems), size=2)
            x, y = elems[int(x)], elems[int(y)]
            assert ctx.additive_char_exponent(ctx.add(x, y)) == (
                ctx.additive_char_exponent(x) + ctx.additive_char_exponent(y)
            ) % p

    def test_table_matches_scalar(self):
        ctx = gf.build_field(3, 1, 2)
        table = ctx.char_exponents()
        for e in range(ctx.m):
            assert table[e] == ctx.additive_char_exponent(e)


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

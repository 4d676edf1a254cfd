"""Polynomials over the embedded F_q and minimal-polynomial construction."""

from itertools import product, zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from cyclochar import codes, gf, polyring as pr
from cyclochar.errors import InvalidArgumentError
from cyclochar.gf import ZERO
from cyclochar.numth import coset_representatives, cyclotomic_coset
from cyclochar.verify import default_pairs


def brute_minimal_polynomials(ctx, root):
    """Every monic polynomial over F_q of minimal degree vanishing at root.

    Independent oracle: scans all coefficient tuples degree by degree.
    """
    for d in range(1, ctx.d + 1):
        found = []
        for tail in product(range(ctx.q), repeat=d):
            poly = tail + (1,)
            if pr.poly_eval(ctx, poly, root) == ZERO:
                found.append(poly)
        if found:
            return found
    return []


class TestMinimalPolynomial:
    def test_q2_k3_a1_against_bruteforce(self):
        ctx = gf.build_field(2, 1, 3)
        got = pr.minimal_polynomial(ctx, 1)
        assert got == (1, 0, 1, 1)  # x^3 + x^2 + 1
        oracle = brute_minimal_polynomials(ctx, ctx.pow(ctx.gamma, -1))
        assert oracle == [got]

    def test_a0_is_x_minus_one(self):
        for q, k in [(2, 3), (3, 2), (4, 2)]:
            ctx = gf.field_for(q, k)
            got = pr.minimal_polynomial(ctx, 0)
            assert got == (ctx.symbol_of(ctx.neg(0)), 1)  # x - 1
            assert pr.poly_eval(ctx, got, 0) == ZERO  # vanishes at gamma^0 = 1

    def test_degree_one_at_subfield_orbit(self):
        ctx = gf.field_for(4, 3)
        assert pr.degree(pr.minimal_polynomial(ctx, 42)) == 1

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 2), (4, 2), (5, 2)])
    def test_matches_bruteforce_scan(self, q, k):
        ctx = gf.field_for(q, k)
        for a in range(ctx.m):
            got = pr.minimal_polynomial(ctx, a)
            oracle = brute_minimal_polynomials(ctx, ctx.pow(ctx.gamma, -a))
            assert oracle == [got]

    @pytest.mark.parametrize("q,k", [(2, 3), (3, 3), (4, 2)])
    def test_coset_invariance(self, q, k):
        ctx = gf.field_for(q, k)
        for a in range(ctx.m):
            assert pr.minimal_polynomial(ctx, a) == pr.minimal_polynomial(
                ctx, a * q % ctx.m
            )

    @pytest.mark.parametrize("q,k", [(2, 3), (2, 6), (3, 4), (4, 3), (5, 2), (16, 2)])
    def test_coset_product_reconstructs_xn_minus_1(self, q, k):
        ctx = gf.field_for(q, k)
        prod = pr.ONE
        for rep in coset_representatives(q, ctx.m):
            prod = pr.poly_mul(ctx, prod, pr.minimal_polynomial(ctx, rep))
        assert prod == pr.x_pow_n_minus_1(ctx, ctx.m)

    def test_degree_equals_coset_size(self):
        ctx = gf.field_for(3, 4)
        for a in range(ctx.m):
            assert pr.degree(pr.minimal_polynomial(ctx, a)) == len(
                cyclotomic_coset(a, 3, ctx.m)
            )

    def test_roots_are_exactly_the_orbit(self):
        ctx = gf.field_for(4, 3)
        a = 5
        poly = pr.minimal_polynomial(ctx, a)
        orbit = {(-a * 4**j) % ctx.m for j in range(3)}
        roots = {e for e in range(ctx.m) if pr.poly_eval(ctx, poly, e) == ZERO}
        assert roots == orbit


class TestArithmetic:
    def test_difference_of_squares_f3(self):
        ctx = gf.field_for(3, 2)
        minus1 = ctx.symbol_of(ctx.neg(0))
        got = pr.poly_mul(ctx, (minus1, 1), (1, 1))
        assert got == (minus1, 0, 1)  # x^2 - 1

    def test_x7_minus_1_divisible(self):
        ctx = gf.field_for(2, 3)
        _, r = pr.poly_divmod(ctx, pr.x_pow_n_minus_1(ctx, 7), (1, 1, 0, 1))
        assert r == pr.ZERO_POLY

    def test_gcd_self_is_monic_normalization(self):
        ctx = gf.field_for(3, 2)
        f = pr.poly_scale(ctx, (1, 0, 1), 2)
        assert pr.poly_gcd(ctx, f, f) == (1, 0, 1)

    def test_divide_by_zero(self):
        ctx = gf.field_for(2, 3)
        with pytest.raises(InvalidArgumentError):
            pr.poly_divmod(ctx, (1, 1), pr.ZERO_POLY)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=8),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=5),
    )
    def test_divmod_roundtrip_f4(self, a, b):
        ctx = gf.field_for(4, 2)
        a = pr.normalize(a)
        b = pr.normalize(b)
        if not b:
            return
        q, r = pr.poly_divmod(ctx, a, b)
        assert pr.degree(r) < pr.degree(b)
        assert pr.poly_add(ctx, pr.poly_mul(ctx, q, b), r) == a

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=6),
        st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=6),
    )
    def test_mul_commutes_f3(self, a, b):
        ctx = gf.field_for(3, 2)
        a, b = pr.normalize(a), pr.normalize(b)
        assert pr.poly_mul(ctx, a, b) == pr.poly_mul(ctx, b, a)


def direct_poly_divmod(ctx, a, b):
    """Test oracle: schoolbook division on F_{q^k} elements through
    ctx.add/mul/neg/inv, reading no symbol table."""
    elem, sym = ctx.element_of_symbol, ctx.symbol_of
    r = [elem(c) for c in a]
    bb = [elem(c) for c in b]
    inv_lead = ctx.inv(bb[-1])
    quot = [ZERO] * max(len(r) - len(bb) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = ctx.mul(r[shift + len(bb) - 1], inv_lead)
        quot[shift] = c
        for i, bc in enumerate(bb):
            r[shift + i] = ctx.add(r[shift + i], ctx.neg(ctx.mul(c, bc)))
    return (
        pr.normalize(sym(c) for c in quot),
        pr.normalize(sym(c) for c in r[: len(bb) - 1]),
    )


def direct_poly_mul(ctx, a, b):
    """Test oracle: product on F_{q^k} elements, reading no symbol table."""
    elem, sym = ctx.element_of_symbol, ctx.symbol_of
    if not a or not b:
        return pr.ZERO_POLY
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = ctx.add(out[i + j], ctx.mul(elem(ai), elem(bj)))
    return pr.normalize(sym(c) for c in out)


def direct_poly_add(ctx, a, b):
    elem, sym = ctx.element_of_symbol, ctx.symbol_of
    pairs = zip_longest(a, b, fillvalue=0)
    return pr.normalize(sym(ctx.add(elem(x), elem(y))) for x, y in pairs)


class TestTableDrivenDivision:
    @pytest.mark.parametrize("q,k", default_pairs(63))
    def test_parity_check_and_generator_match_element_division(self, q, k):
        ctx = gf.field_for(q, k)
        n = ctx.m
        xn1 = (ctx.symbol_of(ctx.neg(0)),) + (0,) * (n - 1) + (1,)
        assert pr.x_pow_n_minus_1(ctx, n) == xn1
        for e1 in range(q - 1):
            for e2 in range(n):
                h1 = pr.minimal_polynomial(ctx, ctx.delta * e1 % n)
                h2 = pr.minimal_polynomial(ctx, e2)
                h = h1 if h1 == h2 else direct_poly_mul(ctx, h1, h2)
                g, r = direct_poly_divmod(ctx, xn1, h)
                assert r == pr.ZERO_POLY
                code = codes.code_from_exponents(ctx, e1, e2)
                assert (code.parity_check, code.generator) == (h, g), (e1, e2)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 4, 5, 7, 9]), st.data())
    def test_divmod_identity(self, q, data):
        ctx = gf.field_for(q, 2)
        coeffs = st.integers(min_value=0, max_value=q - 1)
        a = pr.normalize(data.draw(st.lists(coeffs, max_size=10)))
        b = pr.normalize(data.draw(st.lists(coeffs, min_size=1, max_size=6)))
        if not b:
            return
        quot, rem = pr.poly_divmod(ctx, a, b)
        assert pr.degree(rem) < pr.degree(b)
        assert direct_poly_add(ctx, direct_poly_mul(ctx, quot, b), rem) == a
        assert (quot, rem) == direct_poly_divmod(ctx, a, b)

    def test_trailing_zero_divisor_rejected(self):
        ctx = gf.field_for(3, 2)
        with pytest.raises(InvalidArgumentError):
            pr.poly_divmod(ctx, (1, 1), (1, 0))


class TestGeneratorFromParityCheck:
    def test_hamming_parity(self):
        ctx = gf.field_for(2, 3)
        h = pr.poly_mul(ctx, (1, 1), (1, 1, 0, 1))
        g = pr.generator_from_parity_check(ctx, h, 7)
        assert pr.degree(g) == 3
        assert pr.poly_mul(ctx, g, h) == pr.x_pow_n_minus_1(ctx, 7)

    def test_full_parity_gives_unit(self):
        ctx = gf.field_for(2, 3)
        assert pr.generator_from_parity_check(ctx, pr.x_pow_n_minus_1(ctx, 7), 7) == (1,)

    def test_unit_parity_gives_whole(self):
        ctx = gf.field_for(2, 3)
        g = pr.generator_from_parity_check(ctx, (1,), 7)
        assert g == pr.x_pow_n_minus_1(ctx, 7)

    def test_non_divisor_rejected(self):
        ctx = gf.field_for(2, 3)
        with pytest.raises(InvalidArgumentError):
            pr.generator_from_parity_check(ctx, (1, 1, 1), 7)  # x^2+x+1 does not divide x^7-1


class TestTextFormat:
    def test_roundtrip(self):
        assert pr.poly_from_string("1,1,0,1") == (1, 1, 0, 1)
        assert pr.poly_to_string((1, 1, 0, 1)) == "1,1,0,1"

    def test_zero(self):
        assert pr.poly_from_string("0") == pr.ZERO_POLY
        assert pr.poly_to_string(pr.ZERO_POLY) == "0"

    def test_trailing_zeros_dropped(self):
        assert pr.poly_from_string("1,1,0") == (1, 1)

    def test_bad_literal(self):
        with pytest.raises(InvalidArgumentError):
            pr.poly_from_string("1,x,0")
        with pytest.raises(InvalidArgumentError):
            pr.poly_from_string("1,-2")

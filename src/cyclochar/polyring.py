"""Dense polynomials over the embedded subfield F_q.

A polynomial is a tuple of F_q symbol indices, low-degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  A FieldCtx's
symbol enumeration fixes the meaning of each coefficient, and all
coefficient arithmetic reads its F_q symbol tables (FieldCtx.symbol_tables,
as plain lists for the scalar loops here); only minimal_polynomial works
on elements of F_{q^k}, where the roots live.

The CLI prints a polynomial as the same sequence, comma separated:
"1,1,0,1" is x^3 + x + 1 over F_2.
"""

from __future__ import annotations

from .errors import ConsistencyError, InvalidArgumentError
from .gf import ZERO, FieldCtx
from .numth import cyclotomic_coset

Poly = tuple[int, ...]

ZERO_POLY: Poly = ()
ONE: Poly = (1,)


def normalize(coeffs) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(a: Poly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(a) - 1


def is_monic(a: Poly) -> bool:
    return bool(a) and a[-1] == 1


def poly_mul(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO_POLY
    add, mul, _, _ = ctx.symbol_table_lists()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = mul[ai]
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = add[out[i + j]][row[bj]]
    return normalize(out)


def poly_divmod(ctx: FieldCtx, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b; b must be nonzero.

    Schoolbook division from the top coefficient down: each step cancels
    r's coefficient at x^(shift + deg b) by subtracting c*x^shift*b.
    """
    if not b:
        raise InvalidArgumentError("division by the zero polynomial")
    if b[-1] == 0:
        raise InvalidArgumentError("divisor has trailing zero coefficients")
    add, mul, neg, inv = ctx.symbol_table_lists()
    db = len(b) - 1
    low = b[:-1]
    r = list(a)
    quot = [0] * max(len(r) - db, 0)
    inv_lead = inv[b[-1]]
    for shift in range(len(quot) - 1, -1, -1):
        top = r[shift + db]
        if top:
            c = mul[top][inv_lead]
            quot[shift] = c
            minus_c = mul[neg[c]]
            for i, bc in enumerate(low):
                if bc:
                    r[shift + i] = add[r[shift + i]][minus_c[bc]]
    return normalize(quot), normalize(r[:db])


def x_pow_n_minus_1(ctx: FieldCtx) -> Poly:
    """x^n - 1 for the code length n = q^k - 1, the field's m."""
    coeffs = [0] * ctx.m + [1]
    coeffs[0] = ctx.symbol_table_lists().neg[1]
    return tuple(coeffs)


def minimal_polynomial(ctx: FieldCtx, a: int) -> Poly:
    """Minimal polynomial h_a of gamma^(-a) over F_q.

    Expanded as the product of (x - gamma^(-a*q^j)) over the cyclotomic
    coset of -a; every coefficient must land in the embedded F_q, which
    doubles as a correctness check.
    """
    coset = cyclotomic_coset(-a, ctx.q, ctx.m)
    # product over roots, tracked as field elements low-degree first
    poly_elems = [0]  # the constant polynomial 1 (exponent of gamma^0)
    for s in coset:
        root = s
        new = [ZERO] * (len(poly_elems) + 1)
        for i, c in enumerate(poly_elems):
            new[i + 1] = ctx.add(new[i + 1], c)
            new[i] = ctx.add(new[i], ctx.neg(ctx.mul(c, root)))
        poly_elems = new
    out = tuple(ctx.symbol_of(c) for c in poly_elems)
    if not is_monic(out) or degree(out) != len(coset):
        raise ConsistencyError("minimal polynomial expansion lost its shape")
    return out


def generator_from_parity_check(ctx: FieldCtx, h: Poly) -> Poly:
    """The generator g with g*h = x^n - 1, n = q^k - 1; h must divide x^n - 1."""
    g, r = poly_divmod(ctx, x_pow_n_minus_1(ctx), h)
    if r:
        raise InvalidArgumentError(
            f"polynomial of degree {degree(h)} does not divide x^{ctx.m} - 1"
        )
    return g


def poly_to_string(a: Poly) -> str:
    if not a:
        return "0"
    return ",".join(str(c) for c in a)

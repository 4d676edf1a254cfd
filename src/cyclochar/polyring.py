"""Dense polynomials over the embedded subfield F_q.

A polynomial is a tuple of F_q symbol indices, low-degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  A FieldCtx's
symbol enumeration fixes the meaning of each coefficient, and all
coefficient arithmetic reads its F_q symbol tables (FieldCtx.symbol_tables,
as plain lists for the scalar loops here); only minimal_polynomial and
poly_eval work on elements of F_{q^k}, where the roots live.

The CLI's textual format is the same sequence, comma separated:
"1,1,0,1" is x^3 + x + 1 over F_2.
"""

from __future__ import annotations

from .errors import ConsistencyError, InvalidArgumentError
from .gf import ZERO, FieldCtx
from .numth import cyclotomic_coset, rem

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


def poly_add(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    add = ctx.symbol_table_lists().add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = add[out[i]][c]
    return normalize(out)


def poly_neg(ctx: FieldCtx, a: Poly) -> Poly:
    neg = ctx.symbol_table_lists().neg
    return tuple(neg[c] for c in a)


def poly_sub(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    return poly_add(ctx, a, poly_neg(ctx, b))


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


def poly_scale(ctx: FieldCtx, a: Poly, s: int) -> Poly:
    if s == 0:
        return ZERO_POLY
    row = ctx.symbol_table_lists().mul[s]
    return normalize([row[c] for c in a])


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


def poly_mod(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    return poly_divmod(ctx, a, b)[1]


def poly_gcd(ctx: FieldCtx, a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while b:
        a, b = b, poly_mod(ctx, a, b)
    if not a:
        return ZERO_POLY
    return poly_scale(ctx, a, ctx.symbol_table_lists().inv[a[-1]])


def poly_eval(ctx: FieldCtx, a: Poly, x: int) -> int:
    """Evaluate at a field element (exponent form); returns an element."""
    acc = ZERO
    for c in reversed(a):
        acc = ctx.add(ctx.mul(acc, x), ctx.element_of_symbol(c))
    return acc


def x_pow_n_minus_1(ctx: FieldCtx, n: int) -> Poly:
    coeffs = [0] * (n + 1)
    coeffs[0] = ctx.symbol_table_lists().neg[1]
    coeffs[n] = 1
    return tuple(coeffs)


def minimal_polynomial(ctx: FieldCtx, a: int) -> Poly:
    """Minimal polynomial h_a of gamma^(-a) over F_q.

    Expanded as the product of (x - gamma^(-a*q^j)) over the cyclotomic
    coset of -a; every coefficient must land in the embedded F_q, which
    doubles as a correctness check.
    """
    m = ctx.m
    a = rem(a, m) if m > 0 else 0
    coset = cyclotomic_coset(-a, ctx.q, m)
    # product over roots, tracked as field elements low-degree first
    poly_elems = [0]  # the constant polynomial 1 (exponent of gamma^0)
    for s in coset.members:
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


def generator_from_parity_check(ctx: FieldCtx, h: Poly, n: int) -> Poly:
    """The generator g with g*h = x^n - 1; h must divide x^n - 1."""
    g, r = poly_divmod(ctx, x_pow_n_minus_1(ctx, n), h)
    if r:
        raise InvalidArgumentError(
            f"polynomial of degree {degree(h)} does not divide x^{n} - 1"
        )
    return g


def poly_to_string(a: Poly) -> str:
    if not a:
        return "0"
    return ",".join(str(c) for c in a)


def poly_from_string(s: str) -> Poly:
    s = s.strip()
    if s in ("", "0"):
        return ZERO_POLY
    try:
        coeffs = [int(tok) for tok in s.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad polynomial literal {s!r}") from exc
    if any(c < 0 for c in coeffs):
        raise InvalidArgumentError("coefficient indices must be non-negative")
    return normalize(coeffs)

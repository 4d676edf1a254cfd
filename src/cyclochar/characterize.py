"""Decision procedures at the level of whole codes.

build_code constructs and fully verifies one code from its exponents;
characterize_code inverts that: given an arbitrary parity-check
polynomial it decides whether the code is one of ours and recovers the
exponents.  Also here: the one-weight criterion for irreducible codes,
recovery of the degree-one parity factor from a full-weight codeword,
the two-weight gap scan with its exponent-system solve, and the
qualifying codes for a given (q, k) as exponent pairs (e1, e2).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import polyring
from .codes import (
    CyclicCode,
    WeightDistribution,
    codeword_lines,
    cyclic_code,
    dual_claim_failure,
    dual_prefix,
    is_griesmer_optimal,
    symbol_values,
    three_weight_distribution,
    weight_distribution_bruteforce,
    weight_distribution_trace,
    DEFAULT_BRUTE_CAP,
)
from .errors import (
    ConditionFailedError,
    ConsistencyError,
    InvalidArgumentError,
    TheoremViolationError,
)
from .gf import ZERO, FieldCtx
from .numth import (
    coset_representatives,
    cyclotomic_coset,
    gcd_conditions,
    multiplicative_order,
    qualifying_codes,
    rem,
    schmidt_white_theta,
)


@dataclass(frozen=True)
class CodeReport:
    """Everything build_code establishes about the code of (e1, e2)."""

    q: int
    k: int
    e1: int
    e2: int
    n: int
    dim: int
    min_distance: int
    distribution: WeightDistribution
    three_weight_match: bool
    griesmer_optimal: bool
    dual_b1: int
    dual_b2: int
    dual_b3: int
    dual_min_weight: int


def build_code(ctx: FieldCtx, q: int, k: int, e1: int, e2: int) -> CodeReport:
    """Construct the code for (e1, e2) and verify every promised property.

    Requires both gcd conditions; raises ConditionFailedError naming the
    failing gcd otherwise.  The returned report is fully checked: degree
    split 1 + k, the three-weight distribution, length meeting the
    Griesmer bound, and the dual up to its minimum distance (dual_prefix)
    meeting every claim of dual_claim_failure.
    """
    _check_ctx(ctx, q, k)
    g1, g2 = gcd_conditions(q, k, e1, e2)
    failures = [
        f"{name}={g}" for name, g in (("gcd(q-1,k*e1-e2)", g1), ("gcd(Delta,e2)", g2)) if g != 1
    ]
    if failures:
        raise ConditionFailedError("; ".join(failures), failed=failures)
    h1 = polyring.minimal_polynomial(ctx, rem(ctx.delta * e1, ctx.m))
    h2 = polyring.minimal_polynomial(ctx, rem(e2, ctx.m))
    if polyring.degree(h1) != 1:
        raise TheoremViolationError(f"deg h_(Delta*e1) = {polyring.degree(h1)} != 1")
    if polyring.degree(h2) != k:
        raise TheoremViolationError(f"deg h_(e2) = {polyring.degree(h2)} != {k}")
    wd = weight_distribution_trace(ctx, e1, e2)
    match = wd == three_weight_distribution(q, k)
    if not match:
        raise TheoremViolationError(
            f"conditions hold but distribution is {wd.entries}"
        )
    n = ctx.m
    dim = 1 + k  # deg h = deg h1 + deg h2, both checked above
    d = wd.min_nonzero_weight()
    optimal = is_griesmer_optimal(q, n, dim, d)
    if not optimal:
        raise TheoremViolationError(f"[{n},{dim},{d}] misses the Griesmer bound")
    dual = dual_prefix(wd, n, q, dim)
    claim = dual_claim_failure(dual, q, k)
    if claim:
        raise TheoremViolationError(claim[1])
    return CodeReport(
        q=q,
        k=k,
        e1=e1,
        e2=e2,
        n=n,
        dim=dim,
        min_distance=d,
        distribution=wd,
        three_weight_match=match,
        griesmer_optimal=optimal,
        dual_b1=dual.entries.get(1, 0),
        dual_b2=dual.entries.get(2, 0),
        dual_b3=dual.entries.get(3, 0),
        dual_min_weight=dual.min_nonzero_weight(),
    )


def _check_ctx(ctx: FieldCtx, q: int, k: int) -> None:
    if ctx.q != q or ctx.k != k:
        raise InvalidArgumentError(
            f"field context is for (q={ctx.q}, k={ctx.k}), not (q={q}, k={k})"
        )


def factor_into_cosets(
    ctx: FieldCtx, h: polyring.Poly
) -> list[tuple[int, polyring.Poly]] | None:
    """Split h into minimal-polynomial factors, as (coset rep of e, h_e) pairs.

    Returns None when h is not a product of distinct minimal polynomials
    of elements gamma^-e (equivalently, when h does not divide x^n - 1).
    """
    remaining = h
    out = []
    for rep in coset_representatives(ctx.q, ctx.m):
        if polyring.degree(remaining) <= 0:
            break
        factor = polyring.minimal_polynomial(ctx, rep)
        if polyring.degree(factor) > polyring.degree(remaining):
            continue
        quot, r = polyring.poly_divmod(ctx, remaining, factor)
        if not r:
            out.append((rep, factor))
            remaining = quot
    if remaining != polyring.ONE:
        return None
    return out


def characterize_code(
    ctx: FieldCtx, h: polyring.Poly, q: int, k: int
) -> tuple[int, int] | None:
    """Decide from a parity-check polynomial whether the code is one of ours.

    Accepts exactly when deg h = k + 1, h factors into one degree-one
    minimal polynomial (recovered by root lookup as h_(Delta*e1)) times
    one degree-k minimal polynomial h_(e2), and both gcd conditions
    hold.  Returns the canonical exponents (e1 in [0, q-1), e2 the
    minimal coset representative) on acceptance, None on rejection.
    """
    _check_ctx(ctx, q, k)
    if not h or not polyring.is_monic(h):
        raise InvalidArgumentError("parity check must be monic and nonzero")
    if polyring.poly_mod(ctx, polyring.x_pow_n_minus_1(ctx, ctx.m), h):
        raise InvalidArgumentError(f"polynomial does not divide x^{ctx.m} - 1")
    if polyring.degree(h) != k + 1:
        return None
    factors = factor_into_cosets(ctx, h)
    if factors is None:
        raise ConsistencyError("divisor of x^n - 1 failed to factor over cosets")
    linear = [(rep, f) for rep, f in factors if polyring.degree(f) == 1]
    if len(linear) != 1 or len(factors) != 2:
        return None
    rep1, lin = linear[0]
    # root lookup: x - c vanishes at c = -f0, and c = gamma^(-Delta*e1)
    c = ctx.neg(ctx.element_of_symbol(lin[0]))
    if c == ZERO:
        raise ConsistencyError("degree-one factor of x^n - 1 has root zero")
    delta_e1 = rem(-c, ctx.m)
    if delta_e1 % ctx.delta != 0 or delta_e1 != rep1:
        raise ConsistencyError("degree-one factor root is not in the subfield orbit")
    e1 = delta_e1 // ctx.delta
    (rep2, cof) = next((rp, f) for rp, f in factors if polyring.degree(f) != 1)
    if polyring.degree(cof) != k:
        return None
    if gcd_conditions(q, k, e1, rep2) == (1, 1):
        return e1, rep2
    return None


def one_weight_check(
    ctx: FieldCtx, a: int, q: int, kprime: int, n: int
) -> int | None:
    """One-weight criterion for the irreducible code with parity h_a.

    With u = gcd((q^kprime - 1)/(q - 1), a), the [n, kprime] code is
    one-weight exactly when u = 1, and then its nonzero weight is
    n*(q-1)*q^(kprime-1) / (q^kprime - 1).  Returns that weight, or
    None when u > 1.  Verified against brute-force enumeration whenever
    the code is small enough to enumerate.
    """
    if ctx.q != q:
        raise InvalidArgumentError(f"field context is for q={ctx.q}, not {q}")
    a = rem(a, ctx.m)
    size = len(cyclotomic_coset(a, q, ctx.m))
    if size != kprime:
        raise InvalidArgumentError(f"deg h_a = {size}, not kprime = {kprime}")
    qk1 = q**kprime - 1
    if n % (qk1 // gcd(qk1, a)) != 0:
        raise InvalidArgumentError(
            f"(q^kprime-1)/gcd(q^kprime-1, a) does not divide n = {n}"
        )
    u = gcd(qk1 // (q - 1), a)
    if u == 1:
        weight, r = divmod(n * (q - 1) * q ** (kprime - 1), qk1)
        if r != 0:
            raise ConsistencyError("one-weight value is not an integer")
        result: int | None = weight
    else:
        result = None
    if n == ctx.m and q**kprime <= 1 << 12:
        wd = weight_distribution_bruteforce(
            ctx, cyclic_code(ctx, polyring.minimal_polynomial(ctx, a))
        )
        nonzero = sorted(w for w in wd.entries if w)
        if result is not None and nonzero != [result]:
            raise TheoremViolationError(
                f"u = 1 but code weights are {nonzero}, not [{result}]"
            )
        if result is None and len(nonzero) == 1:
            raise TheoremViolationError(
                f"u = {u} > 1 but the code is one-weight with {nonzero}"
            )
    return result


def full_weight_divisor(
    ctx: FieldCtx, code: CyclicCode, cap: int = DEFAULT_BRUTE_CAP
) -> polyring.Poly:
    """Recover the unique degree-one divisor of the parity check.

    Requires the code to have exactly q - 1 words of full weight n.  As
    scaling keeps the weight, that is one F_q^* line of codeword_lines.
    Any such word is geometric, m_i = m_2^(i-1) after scaling, and the
    divisor is x - m_2^(-1).
    """
    n = code.n
    lines = [
        word
        for words in codeword_lines(ctx, code, cap)
        for word in words[np.count_nonzero(words, axis=1) == n]
    ]
    if len(lines) != 1:
        raise InvalidArgumentError(
            f"expected exactly q-1 = {ctx.q - 1} full-weight words,"
            f" found {(ctx.q - 1) * len(lines)}"
        )
    symbol = symbol_values(ctx).tolist()
    first, second = (ctx.element_of_symbol(symbol.index(v)) for v in lines[0][:2].tolist())
    m2 = ctx.mul(second, ctx.inv(first))
    divisor = (ctx.symbol_of(ctx.neg(ctx.inv(m2))), 1)
    if polyring.poly_mod(ctx, code.parity_check, divisor):
        raise ConsistencyError("recovered linear factor does not divide the parity check")
    return divisor


@dataclass(frozen=True)
class GapScanEntry:
    """One irreducible cyclic code inspected by the two-weight gap scan."""

    exponent: int
    kprime: int
    weights: tuple[int, ...]
    two_weight: bool
    solution: tuple[int, int, Fraction] | None  # (r, epsilon, theta)


def two_weight_gap_scan(
    ctx: FieldCtx, q: int, k: int, cap: int = DEFAULT_BRUTE_CAP
) -> list[GapScanEntry]:
    """Check every irreducible cyclic code of length q^k - 1 for weight gaps.

    For each cyclotomic coset representative e, the code with parity
    check h_e is enumerated; any two-weight instance must have
    |w1 - w2| != 1, and for full-degree instances the exponent system
    (r | u-1, r*p^(s*theta) = +-1 mod u, r(u-r) = (u-1)p^(s(f-2theta)))
    must admit a solution consistent with the observed weights.
    A violation raises TheoremViolationError.
    """
    _check_ctx(ctx, q, k)
    out = []
    for e, kprime in coset_representatives(q, ctx.m).items():
        wd = weight_distribution_bruteforce(
            ctx, cyclic_code(ctx, polyring.minimal_polynomial(ctx, e)), cap
        )
        nonzero = tuple(sorted(w for w in wd.entries if w))
        if len(nonzero) != 2:
            out.append(
                GapScanEntry(
                    exponent=e,
                    kprime=kprime,
                    weights=nonzero,
                    two_weight=False,
                    solution=None,
                )
            )
            continue
        w1, w2 = nonzero
        if abs(w1 - w2) == 1:
            raise TheoremViolationError(
                f"two-weight code at e={e} has adjacent weights {nonzero}"
            )
        solution = None
        if kprime == k:
            solution = _solve_two_weight_system(ctx, e, nonzero)
            if solution is None:
                raise TheoremViolationError(
                    f"no (r, epsilon, theta) solution at e={e}, weights {nonzero}"
                )
        out.append(
            GapScanEntry(
                exponent=e,
                kprime=kprime,
                weights=nonzero,
                two_weight=True,
                solution=solution,
            )
        )
    return out


def _solve_two_weight_system(
    ctx: FieldCtx, e: int, weights: tuple[int, int]
) -> tuple[int, int, Fraction] | None:
    q, k, p, t = ctx.q, ctx.k, ctx.p, ctx.t
    u = gcd(ctx.delta, e)
    if u <= 1:
        raise TheoremViolationError(
            f"two-weight irreducible code at e={e} with u=1 contradicts the one-weight criterion"
        )
    f = multiplicative_order(p, u)
    s, r0 = divmod(k * t, f)
    if r0 != 0:
        raise ConsistencyError("ord_u(p) does not divide k*t")
    theta = schmidt_white_theta(u, p, f)
    s_theta = s * theta
    if s_theta.denominator != 1:
        return None
    ps_theta = p**int(s_theta)
    tail_exp = s * f - 2 * int(s_theta)
    if tail_exp < 0:
        return None
    tail = (u - 1) * p**tail_exp
    for r in range(1, u):
        if (u - 1) % r != 0:
            continue
        if (r * ps_theta) % u not in (1 % u, (-1) % u):
            continue
        if r * (u - r) != tail:
            continue
        for eps in (1, -1):
            cand_w1 = (q - 1) * (q**k - r * eps * ps_theta)
            cand_w2 = (q - 1) * (q**k + (u - r) * eps * ps_theta)
            if cand_w1 % q or cand_w2 % q:
                continue
            if {cand_w1 // q, cand_w2 // q} == set(weights):
                return r, eps, theta
    return None


def enumerate_codes(q: int, k: int) -> Iterator[tuple[int, int]]:
    """All distinct qualifying codes for (q, k), as exponent pairs (e1, e2).

    The records of numth.qualifying_codes under the default field cap, as
    integers and produced lazily: every check of the listing, the
    closed-form count included, has run when this returns.
    """
    return qualifying_codes(q, k).pairs()

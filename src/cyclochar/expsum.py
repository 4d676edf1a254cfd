"""Exact evaluation of the double character sums over F_{q^k}^* x F_q^*.

The sum T(a, b) = sum over x, y of chi'(a*x^(Delta*e1)*y + b*x^(e2)*y)
is kept exact: a CyclotomicCount records, for each character exponent
c in [0, p), how many of the (q^k-1)(q-1) terms evaluate to zeta_p^c.
The vector collapses to a rational integer precisely when the nonzero
exponents all occur equally often; no floating point is involved
anywhere.

Also here: the change-of-variables bijection on the index grid
V = [0, q^k-1) x [0, q-1), with the CodeSpec that carries its Bezout
pair, and the closed-form predictions for the sum in each (a, b)
class.  The paper's level-set partition of V, which
forces d = gcd(q-1, k*e1 - e2) to divide T(a, b), runs in no sweep and
lives with its exhaustive checks in tests/test_expsum.py; the
char_sum_unit_iff sweep checks its conclusion on every (a, b) of a block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, InvalidArgumentError
from .gf import ZERO, FieldCtx
from .numth import BezoutPair, bezout_pair


class CyclotomicCount(NamedTuple):
    """A sum of p-th roots of unity: counts[c] terms zeta_p^c, so p = len(counts) >= 2."""

    counts: tuple[int, ...]

    def is_integral(self) -> bool:
        tail = self.counts[1:]
        return all(c == tail[0] for c in tail)

    def as_integer(self) -> int:
        """Collapse to a rational integer via sum of all p-th roots = 0."""
        if not self.is_integral():
            raise ConsistencyError(
                f"count vector {self.counts} is not a rational integer"
            )
        return self.counts[0] - self.counts[1]


class CodeSpec(NamedTuple):
    """Exponent data (q, k, e2) plus the reduced Bezout pair of e2.

    The input of substitution and substitution_inverse, the one place the
    Bezout pair is read; neither reads e1, and elsewhere a code is its pair
    (e1, e2).  Only requires gcd(Delta, e2) = 1, so the Bezout pair exists.
    """

    q: int
    k: int
    e2: int
    bezout: BezoutPair

    @property
    def n(self) -> int:
        return self.q**self.k - 1

    @property
    def delta(self) -> int:
        return self.n // (self.q - 1)


def code_spec(q: int, k: int, e2: int) -> CodeSpec:
    """Build a CodeSpec, solving the Bezout congruence for (alpha, beta)."""
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    return CodeSpec(q=q, k=k, e2=e2, bezout=bezout_pair(e2, q, k))


def substitution(spec: CodeSpec, i, j):
    """Forward reindexing (i, j) -> (v, w) on V, pointwise on index arrays.

    v = (e2*i + Delta*j) % (q^k - 1), and w = (i - alpha*v) // Delta
    reduced mod q - 1.  The division is exact for a sound Bezout pair; an
    inexact one leaves a remainder 0 < r < Delta that the inverse turns
    into i - r, so the round trip fails at that very point.  Indices are
    not checked: the caller passes points of V.  The substitution sweep's
    budget admits at most 2^24 grid points, so q^k - 1 <= 2^24 and every
    product of two int64 indices stays below 2^48.
    """
    v = (spec.e2 * i + spec.delta * j) % spec.n
    w = (i - spec.bezout.alpha * v) // spec.delta % (spec.q - 1)
    return v, w


def substitution_inverse(spec: CodeSpec, v, w):
    """Inverse reindexing (v, w) -> (i, j); a two-sided inverse on V."""
    i = (spec.bezout.alpha * v + spec.delta * w) % spec.n
    j = (spec.bezout.beta * v - spec.e2 * w) % (spec.q - 1)
    return i, j


def char_sum(ctx: FieldCtx, e1: int, e2: int, a: int, b: int) -> CyclotomicCount:
    """Exact count vector of T(a, b) over all (q^k-1)(q-1) terms.

    e1 and e2 are any integers; a and b are elements of F_{q^k} in
    exponent form (ZERO allowed).  At x = gamma^i the inner value
    s = a*x^(Delta*e1) + b*x^(e2) comes from the Zech table.  Its q - 1
    multiples y*s = gamma^(s + Delta*j) run over the exponents congruent
    to s mod Delta, so a position adds row s mod Delta of the table
    H[r, c] = #{j < q - 1 : chi' exponent of gamma^(r + Delta*j) is c}.
    One pass over the exponents builds H, and one over the positions
    counts their residues: O(q^k) work, with no term array.
    """
    m, p, delta = ctx.m, ctx.p, ctx.delta
    # before the length-m arrays below, so that the table's build does not stack on them
    chars = ctx.char_exponents().reshape(ctx.q - 1, delta)
    s = _inner_values(ctx, a, delta * e1 % m, b, e2 % m, np.arange(m, dtype=np.int64))
    s = s[s != ZERO]
    rows = np.bincount(s % delta, minlength=delta)
    table = np.bincount((chars + p * np.arange(delta)).ravel(), minlength=delta * p)
    counts = rows @ table.reshape(delta, p)
    counts[0] += (ctx.q - 1) * (m - len(s))
    return CyclotomicCount(counts=tuple(int(c) for c in counts))


def _inner_values(
    ctx: FieldCtx, a: int, s1: int, b: int, s2: int, i: np.ndarray
) -> np.ndarray:
    """Exponent of a*gamma^(s1*i) + b*gamma^(s2*i) at each i, ZERO where it vanishes."""
    m = ctx.m
    x = np.full(len(i), ZERO, dtype=np.int64) if a == ZERO else (a + s1 * i) % m
    if b == ZERO:
        return x
    y = (b + s2 * i) % m
    if a == ZERO:
        return y
    x -= y  # in place: four length-len(i) arrays at the peak, with i
    x %= m
    z = ctx.zech[x]
    y += z
    y %= m
    y[z == ZERO] = ZERO
    return y


def predict_char_sum(q: int, k: int, trace_a_zero: bool, b_zero: bool) -> int:
    """Closed-form value of the sum by (a, b) class, under both gcd conditions.

    The published four-case table covers a = 0 for the b = 0 row; the
    value (q-1)(q^k-1) extends to every a with zero trace by linearity
    of the trace, and that extension is what this returns.  a = 0 is a
    zero-trace a, so the value never asks whether a itself is zero.
    """
    n = q**k - 1
    if b_zero:
        return (q - 1) * n if trace_a_zero else -n
    return -(q - 1) if trace_a_zero else 1

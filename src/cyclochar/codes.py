"""Cyclic codes of length q^k - 1 and their exact weight data.

Two independent routes to a weight distribution are kept side by side:
the trace representation (codewords indexed by a trace class and a
field element, weights read off zero counts) and plain brute force over
all information words against the generator polynomial.  Their
agreement is the library's core self-check, so neither may be removed
or rerouted through the other.

Counts are exact; anything that could exceed native words (dual
frequency totals, Krawtchouk sums) is ordinary python arbitrary
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, log2

import numpy as np

from . import polyring
from .errors import ConsistencyError, InvalidArgumentError, ResourceLimitError
from .expsum import char_sum
from .gf import ZERO, FieldCtx
from .numth import BezoutPair, bezout_pair, ext_gcd, rem

DEFAULT_BRUTE_CAP = 1 << 22

# Largest MacWilliams transform attempted, by macwilliams_size_bytes: every
# length up to 65535 over F_2 and F_4 passes (0.5 GiB at (2,16)), while
# (2,20) would need 128 GiB.  Only transforms of at most _MEMO_MAX_BYTES
# (n up to 2896 over F_2) are memoized, so the memo pins at most 64 MiB.
MACWILLIAMS_BUDGET_BYTES = 1 << 30
_MEMO_MAX_BYTES = 1 << 20

_BLOCK = 1 << 12
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class CodeSpec:
    """Exponent data (q, k, e1, e2) plus the reduced Bezout pair.

    Only requires gcd(Delta, e2) = 1 (so the Bezout pair exists); the
    second gcd condition may or may not hold and is queried separately.
    """

    q: int
    k: int
    delta: int
    e1: int
    e2: int
    bezout: BezoutPair

    @property
    def n(self) -> int:
        return self.q**self.k - 1

    @property
    def d(self) -> int:
        return gcd(self.q - 1, self.k * self.e1 - self.e2)


def code_spec(q: int, k: int, e1: int, e2: int) -> CodeSpec:
    """Build a CodeSpec, solving the Bezout congruence for (alpha, beta)."""
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    delta = (q**k - 1) // (q - 1)
    return CodeSpec(q=q, k=k, delta=delta, e1=e1, e2=e2, bezout=bezout_pair(e2, q, k))


@dataclass
class WeightDistribution:
    """Exact mapping weight -> codeword count for a code of length n."""

    n: int
    entries: dict[int, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.entries.values())

    def pairs(self) -> list[list[int]]:
        return [[w, self.entries[w]] for w in sorted(self.entries)]

    def min_nonzero_weight(self) -> int:
        """Smallest nonzero weight; 0 for a trivial (zero-only) code."""
        return min((w for w in self.entries if w > 0), default=0)

    def enumerator(self) -> str:
        """Weight enumerator polynomial, e.g. "1 + 189z^47 + 63z^48 + 3z^63"."""
        terms = []
        for w in sorted(self.entries):
            freq = self.entries[w]
            if w == 0:
                terms.append(str(freq))
            else:
                terms.append(f"{freq}z^{w}")
        return " + ".join(terms) if terms else "0"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightDistribution)
            and self.n == other.n
            and self.entries == other.entries
        )


@dataclass(frozen=True)
class CyclicCode:
    """A cyclic code fixed by its parity-check/generator factorization."""

    n: int
    parity_check: polyring.Poly
    generator: polyring.Poly

    @property
    def dimension(self) -> int:
        return polyring.degree(self.parity_check)


def cyclic_code(ctx: FieldCtx, parity_check: polyring.Poly) -> CyclicCode:
    """Code of length q^k - 1 with the given parity-check polynomial."""
    n = ctx.m
    gen = polyring.generator_from_parity_check(ctx, parity_check, n)
    return CyclicCode(n=n, parity_check=parity_check, generator=gen)


def parity_check_from_exponents(ctx: FieldCtx, e1: int, e2: int) -> polyring.Poly:
    """Product of the distinct minimal polynomials of gamma^-(Delta*e1), gamma^-e2.

    When the two exponents share a cyclotomic coset the product would
    have a square factor; the code the trace representation generates is
    the one with the squarefree parity check, so duplicates collapse.
    """
    h1 = polyring.minimal_polynomial(ctx, rem(ctx.delta * e1, ctx.m))
    h2 = polyring.minimal_polynomial(ctx, rem(e2, ctx.m))
    if h1 == h2:
        return h1
    return polyring.poly_mul(ctx, h1, h2)


def code_from_exponents(ctx: FieldCtx, e1: int, e2: int) -> CyclicCode:
    return cyclic_code(ctx, parity_check_from_exponents(ctx, e1, e2))


# -- trace representation --------------------------------------------------


def trace_codeword(ctx: FieldCtx, spec: CodeSpec, a: int, b: int) -> list[int]:
    """Codeword (Tr(a*gamma^(Delta*e1*i) + b*gamma^(e2*i)))_i as F_q symbols."""
    m = ctx.m
    trq = ctx.trace_q_symbol_list()
    s1 = rem(ctx.delta * spec.e1, m)
    s2 = rem(spec.e2, m)
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


def zero_count(ctx: FieldCtx, spec: CodeSpec, a: int, b: int) -> int:
    """Number of zero entries of the trace codeword for (a, b).

    Counts directly, then cross-checks the exact relation
    q * zeros = (q^k - 1) + T(a, b) against the character sum.
    """
    z = sum(1 for s in trace_codeword(ctx, spec, a, b) if s == 0)
    t = char_sum(ctx, spec, a, b).as_integer()
    total, r = divmod(ctx.m + t, ctx.q)
    if r != 0 or total != z:
        raise ConsistencyError(
            f"zero count {z} disagrees with (n + T)/q = ({ctx.m} + {t})/{ctx.q}"
        )
    return z


def _orbit_columns(ctx: FieldCtx, e1: int, e2: int) -> tuple[int, np.ndarray]:
    """(g, W) with g = gcd(e2 mod q^k - 1, Delta) and W the weights of the
    orbit representatives: W[tau, 0] for b = 0 and W[tau, 1 + b0] for
    b = gamma^b0, b0 < g.

    Position i of the class (tau, b) reads tau*omega^(e1*i) + Tr(b*gamma^(e2*i))
    with omega = gamma^Delta.  As omega^(e1*i) != 0, the b = 0 column is
    zero only at tau = 0, and for b != 0 exactly one tau vanishes at i:
    tau = -Tr(b*gamma^(e2*i)) * omega^(-e1*i).  So the zero counts of a
    whole column are one bincount over its n positions.
    """
    m, q = ctx.m, ctx.q
    e2r = rem(e2, m)
    g = gcd(e2r, ctx.delta)
    idx = np.arange(m, dtype=np.int64)
    _, sym_mul, sym_neg, _ = ctx.symbol_tables()
    # symbol of -omega^(-e1*i); symbol s >= 1 stands for omega^(s-1)
    neg_inv = sym_neg[1 + rem(-e1, q - 1) * idx % (q - 1)]
    trq = ctx.trace_q_symbols()
    weights = np.empty((q, 1 + g), dtype=np.int64)
    weights[:, 0] = m
    weights[0, 0] = 0
    block = max(1, _BLOCK_ENTRIES // m)
    for start in range(0, g, block):
        b0 = np.arange(start, min(start + block, g), dtype=np.int64)
        killer = sym_mul[trq[(b0[:, None] + e2r * idx[None, :]) % m], neg_inv[None, :]]
        killer += q * (b0 - start)[:, None]
        zeros = np.bincount(killer.ravel(), minlength=q * len(b0))
        weights[:, 1 + b0] = m - zeros.reshape(len(b0), q).T
    return g, weights


def trace_weight_grid(ctx: FieldCtx, e1: int, e2: int) -> np.ndarray:
    """Hamming weights of all trace codewords, as a (q, q^k) array.

    Row index is the F_q symbol of the trace class tau = Tr(a); column 0
    is b = 0 and column 1 + e is b = gamma^e.  Works for any integer
    pair (e1, e2), including pairs violating the gcd conditions.

    A cyclic shift by s and a scaling by omega^j in F_q^* keep every
    weight, and together map the class (tau, gamma^e) to
    (omega^(e1*s + j)*tau, gamma^(e + e2*s + Delta*j)).  With
    g = gcd(e2, Delta) and (e2/g)*u + (Delta/g)*v = 1, column
    e = e0 + g*r is therefore column e0 < g with row tau read from row
    omega^(-r*(e1*u + v))*tau: only the g representative columns are
    evaluated, and every other column is a table lookup.
    """
    m, q = ctx.m, ctx.q
    g, reps = _orbit_columns(ctx, e1, e2)
    _, u, v = ext_gcd(rem(e2, m), ctx.delta)
    r, e0 = np.divmod(np.arange(m, dtype=np.int64), g)
    mu = r * rem(e1 * u + v, q - 1) % (q - 1)
    sym = np.arange(1, q, dtype=np.int64)[:, None]
    weights = np.empty((q, q**ctx.k), dtype=np.int64)
    weights[:, 0] = reps[:, 0]
    weights[0, 1:] = reps[0, 1 + e0]
    weights[1:, 1:] = reps[1 + (sym - 1 - mu) % (q - 1), 1 + e0]
    return weights


def char_sum_grid(ctx: FieldCtx, e1: int, e2: int) -> np.ndarray:
    """T(a, b) for every (a, b) class, derived from trace zero counts.

    Same indexing as trace_weight_grid; the value for class (tau, b) is
    q*Z - (q^k - 1) with Z the codeword zero count, which equals the
    character sum for every a with Tr(a) = tau.
    """
    wt = trace_weight_grid(ctx, e1, e2)
    return ctx.q * (ctx.m - wt) - ctx.m


def weight_distribution_trace(ctx: FieldCtx, spec: CodeSpec) -> WeightDistribution:
    return weight_distribution_trace_exponents(ctx, spec.e1, spec.e2)


def weight_distribution_trace_exponents(
    ctx: FieldCtx, e1: int, e2: int
) -> WeightDistribution:
    """Exact distribution of the code via the trace representation.

    By the shift and scaling symmetry of trace_weight_grid, each of the
    n/g columns in the orbit of a representative column b0 < g is a row
    permutation of it, so the grid histogram is the b = 0 column's plus
    n/g times the representatives'; the (q, q^k) grid is never formed.
    The grid maps onto the code a constant number of times; that
    multiplicity is the zero-weight count and divides every frequency
    exactly.
    """
    m = ctx.m
    g, reps = _orbit_columns(ctx, e1, e2)
    counts = np.bincount(reps[:, 0], minlength=m + 1) + (m // g) * np.bincount(
        reps[:, 1:].ravel(), minlength=m + 1
    )
    fiber = int(counts[0])
    entries: dict[int, int] = {}
    for w in np.nonzero(counts)[0]:
        freq, r = divmod(int(counts[w]), fiber)
        if r != 0:
            raise ConsistencyError("trace grid multiplicity is not constant")
        entries[int(w)] = freq
    return WeightDistribution(n=ctx.m, entries=entries)


# -- brute-force oracle ------------------------------------------------------


def weight_distribution_bruteforce(
    ctx: FieldCtx, code: CyclicCode, cap: int = DEFAULT_BRUTE_CAP
) -> WeightDistribution:
    """Exact distribution by enumerating all q^dim codewords.

    Completely independent of the trace representation: information
    words run against the generator-polynomial matrix.
    """
    q = ctx.q
    dim = code.dimension
    n = code.n
    if dim < 0:
        raise InvalidArgumentError("code has no parity check")
    if q**dim > cap:
        raise ResourceLimitError(
            f"{q}^{dim} codewords exceed the brute-force cap {cap}"
        )
    if dim == 0:
        return WeightDistribution(n=n, entries={0: 1})
    sym_add, sym_mul, _, _ = ctx.symbol_tables()
    gen = np.zeros(n, dtype=np.int64)
    gen[: len(code.generator)] = code.generator
    rows = np.stack([np.roll(gen, i) for i in range(dim)])
    # scaled[r][c] = c * rows[r]
    scaled = [[sym_mul[c, rows[r]] for c in range(q)] for r in range(dim)]

    # lower rows expand into one block within a fixed entry budget; the
    # remaining rows are enumerated combination by combination
    max_rows = min(_BLOCK, max(q, (4 * _BLOCK_ENTRIES) // max(n, 1)))
    low = 0
    while low < dim and q ** (low + 1) <= max_rows:
        low += 1
    block = np.zeros((1, n), dtype=np.int64)
    for r in range(low):
        block = sym_add[block[:, None, :], np.stack(scaled[r])[None, :, :]].reshape(
            -1, n
        )
    hist = np.zeros(n + 1, dtype=np.int64)
    upper = dim - low
    for combo in product(range(q), repeat=upper):
        prefix = None
        for r, c in enumerate(combo):
            if c:
                row = scaled[low + r][c]
                prefix = row if prefix is None else sym_add[prefix, row]
        if prefix is None:
            words = block
        else:
            words = sym_add[prefix[None, :], block]
        hist += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    entries = {int(w): int(hist[w]) for w in np.nonzero(hist)[0]}
    total = q**dim
    if sum(entries.values()) != total:
        raise ConsistencyError("brute-force enumeration lost codewords")
    return WeightDistribution(n=n, entries=entries)


# -- reference shapes and bounds ---------------------------------------------


def three_weight_distribution(q: int, k: int) -> WeightDistribution:
    """The target distribution: weights 0, q^(k-1)(q-1)-1, q^(k-1)(q-1), q^k-1."""
    n = q**k - 1
    w = q ** (k - 1) * (q - 1)
    return WeightDistribution(
        n=n, entries={0: 1, w - 1: (q - 1) * n, w: n, n: q - 1}
    )


def griesmer_sum(q: int, dim: int, d: int) -> int:
    """Lower bound sum_{i<dim} ceil(d / q^i) on the length of a [n, dim, d] code."""
    if dim < 1 or d < 1:
        raise InvalidArgumentError("dimension and distance must be positive")
    return sum(-(-d // q**i) for i in range(dim))


def is_griesmer_optimal(q: int, n: int, dim: int, d: int) -> bool:
    return n == griesmer_sum(q, dim, d)


# -- MacWilliams duality ------------------------------------------------------


def krawtchouk_row(n: int, q: int, w: int) -> list[int]:
    """K_j(w) for j = 0..n by the exact three-term recurrence."""
    row = [0] * (n + 1)
    row[0] = 1
    if n >= 1:
        row[1] = (q - 1) * n - q * w
    for j in range(1, n):
        num = ((q - 1) * (n - j) + j - q * w) * row[j] - (q - 1) * (n - j + 1) * row[
            j - 1
        ]
        val, r = divmod(num, j + 1)
        if r != 0:
            raise ConsistencyError("Krawtchouk recurrence produced a non-integer")
        row[j + 1] = val
    return row


def krawtchouk_direct(n: int, q: int, j: int, w: int) -> int:
    """Direct binomial-sum evaluation of K_j(w); the recurrence's oracle."""
    return sum(
        (-1) ** i * (q - 1) ** (j - i) * comb(w, i) * comb(n - w, j - i)
        for i in range(j + 1)
    )


def macwilliams_size_bytes(n: int, q: int) -> float:
    """Estimated size of one exact transform: n + 1 entries of about n*log2(q) bits.

    Every Krawtchouk row and the dual distribution itself hold n + 1
    integers as large as q^n in magnitude.
    """
    return (n + 1) * n * log2(q) / 8


def macwilliams_dual(
    wd: WeightDistribution, n: int, q: int, dim: int
) -> WeightDistribution:
    """Exact dual distribution B_j = q^-dim * sum_w A_w K_j(w).

    Transforms larger than MACWILLIAMS_BUDGET_BYTES are refused before
    any row is computed.  Results are memoized on (n, q, dim, entries):
    a sweep over the codes of one (q, k) block transforms the same
    distribution once per code.  Only transforms of at most
    _MEMO_MAX_BYTES are kept, and every call returns a fresh object.
    """
    if wd.total() != q**dim:
        raise InvalidArgumentError(
            f"distribution sums to {wd.total()}, expected q^dim = {q**dim}"
        )
    size = macwilliams_size_bytes(n, q)
    if size > MACWILLIAMS_BUDGET_BYTES:
        raise ResourceLimitError(
            f"the MacWilliams transform at n = {n}, q = {q} needs about "
            f"{size / 2**30:,.1f} GiB, over the {MACWILLIAMS_BUDGET_BYTES / 2**30:g} GiB budget"
        )
    transform = _dual_entries if size <= _MEMO_MAX_BYTES else _dual_entries.__wrapped__
    entries = transform(n, q, dim, tuple(sorted(wd.entries.items())))
    return WeightDistribution(n=n, entries=dict(entries))


@lru_cache(maxsize=64)
def _dual_entries(
    n: int, q: int, dim: int, entries: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, int], ...]:
    """(j, B_j) pairs of the dual, each checked integral and non-negative."""
    size = q**dim
    sums = [0] * (n + 1)
    for w, freq in entries:
        row = krawtchouk_row(n, q, w)
        for j in range(n + 1):
            sums[j] += freq * row[j]
    dual = []
    for j, s in enumerate(sums):
        bj, r = divmod(s, size)
        if r != 0 or bj < 0:
            raise ConsistencyError(
                f"dual frequency B_{j} = {s}/{size} is not a non-negative integer"
            )
        if bj:
            dual.append((j, bj))
    if sum(bj for _, bj in dual) != q ** (n - dim):
        raise ConsistencyError("dual frequencies do not sum to q^(n-dim)")
    return tuple(dual)


def dual_b3(q: int, k: int) -> int:
    """Closed form (q^k-3)(q^k-1)(q-2)(q-1)/6 for B_3 of the target codes."""
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    num = (q**k - 3) * (q**k - 1) * (q - 2) * (q - 1)
    val, r = divmod(num, 6)
    if r != 0:
        raise ConsistencyError(f"B_3 numerator {num} is not divisible by 6")
    return val


# -- Pless power moments ------------------------------------------------------

_STIRLING2 = {
    (0, 0): 1,
    (1, 0): 0,
    (1, 1): 1,
    (2, 0): 0,
    (2, 1): 1,
    (2, 2): 1,
    (3, 0): 0,
    (3, 1): 1,
    (3, 2): 3,
    (3, 3): 1,
}


def pless_moments(
    wd: WeightDistribution, dual_wd: WeightDistribution, n: int, q: int, dim: int
) -> list[tuple[int, Fraction]]:
    """(lhs, rhs) of the first four power moments, exact.

    lhs(r) = sum_j j^r A_j; rhs(r) uses only B_0..B_r of the dual.
    """
    out = []
    for r in range(4):
        lhs = sum(w**r * freq for w, freq in wd.entries.items())
        rhs = Fraction(0)
        for j in range(min(n, r) + 1):
            bj = dual_wd.entries.get(j, 0)
            if bj == 0:
                continue
            inner = Fraction(0)
            for i in range(j, r + 1):
                s2 = _STIRLING2[(r, i)]
                if s2 == 0:
                    continue
                inner += (
                    Fraction(1)
                    * _factorial(i)
                    * s2
                    * Fraction(q) ** (dim - i)
                    * (q - 1) ** (i - j)
                    * comb(n - j, n - i)
                )
            rhs += (-1) ** j * bj * inner
        out.append((lhs, rhs))
    return out


def _factorial(i: int) -> int:
    out = 1
    for x in range(2, i + 1):
        out *= x
    return out


def pless_moment_check(
    wd: WeightDistribution, dual_wd: WeightDistribution, n: int, q: int, dim: int
) -> bool:
    """True iff the first four power moments hold exactly."""
    return all(lhs == rhs for lhs, rhs in pless_moments(wd, dual_wd, n, q, dim))

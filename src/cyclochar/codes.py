"""Cyclic codes of length q^k - 1 and their exact weight data.

Two independent routes to a weight distribution are kept side by side:
the trace representation (codewords indexed by a trace class and a
field element, weights read off zero counts on one column per orbit of
the shift and scaling symmetry) and plain brute force over
the information words against the generator polynomial, one word per
F_q^* line, as linearity allows.  Their
agreement is the library's core self-check, so neither may be removed
or rerouted through the other.

Counts are exact; anything that could exceed native words (dual
frequency totals, Krawtchouk sums) is ordinary python arbitrary
precision.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, gcd, log2
from typing import NamedTuple

import numpy as np

from . import polyring
from .errors import ConsistencyError, InvalidArgumentError, ResourceLimitError
from .gf import FieldCtx
from .numth import DEFAULT_BRUTE_CAP, check_budget

_BLOCK = 1 << 12
_BLOCK_ENTRIES = 1 << 20


class WeightDistribution:
    """Exact mapping weight -> codeword count for a code of length n.

    A plain class, not a NamedTuple, on purpose: a distribution never
    equals a tuple, and each instance gets its own entries dict.
    """

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: dict[int, int] | None = None) -> None:
        self.n = n
        self.entries = {} if entries is None else entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return (self.n, self.entries) == (other.n, other.entries)

    def __repr__(self) -> str:
        return f"WeightDistribution(n={self.n}, entries={self.entries})"

    def total(self) -> int:
        return sum(self.entries.values())

    def pairs(self) -> list[list[int]]:
        return [[w, self.entries[w]] for w in sorted(self.entries)]

    def min_nonzero_weight(self) -> int:
        """Smallest nonzero weight; 0 for a trivial (zero-only) code."""
        return min((w for w in self.entries if w > 0), default=0)

    def terms(self):
        """The terms of the enumerator, by increasing weight, one at a time."""
        for w in sorted(self.entries):
            freq = self.entries[w]
            yield str(freq) if w == 0 else f"{freq}z^{w}"

    def enumerator(self) -> str:
        """Weight enumerator polynomial, e.g. "1 + 189z^47 + 63z^48 + 3z^63"."""
        return " + ".join(self.terms()) or "0"


class CyclicCode(NamedTuple):
    """A cyclic code of length q^k - 1 fixed by its parity-check/generator factorization."""

    parity_check: polyring.Poly
    generator: polyring.Poly

    @property
    def dimension(self) -> int:
        return polyring.degree(self.parity_check)


def cyclic_code(ctx: FieldCtx, parity_check: polyring.Poly) -> CyclicCode:
    """Code of length q^k - 1 with the given parity-check polynomial."""
    gen = polyring.generator_from_parity_check(ctx, parity_check)
    return CyclicCode(parity_check=parity_check, generator=gen)


def parity_check_from_exponents(ctx: FieldCtx, e1: int, e2: int) -> polyring.Poly:
    """Product of the distinct minimal polynomials of gamma^-(Delta*e1), gamma^-e2.

    When the two exponents share a cyclotomic coset the product would
    have a square factor; the code the trace representation generates is
    the one with the squarefree parity check, so duplicates collapse.
    """
    h1 = polyring.minimal_polynomial(ctx, ctx.delta * e1 % ctx.m)
    h2 = polyring.minimal_polynomial(ctx, e2 % ctx.m)
    if h1 == h2:
        return h1
    return polyring.poly_mul(ctx, h1, h2)


def code_from_exponents(ctx: FieldCtx, e1: int, e2: int) -> CyclicCode:
    return cyclic_code(ctx, parity_check_from_exponents(ctx, e1, e2))


# -- trace representation --------------------------------------------------


def trace_weight_grid(ctx: FieldCtx, e1: int, e2: int) -> tuple[int, np.ndarray]:
    """(g, W): Hamming weights of the trace codewords, one column per orbit.

    The class (tau, b) holds the codewords of every a with Tr(a) = tau;
    row tau of W is the F_q symbol of tau.  With g = gcd(e2 mod q^k - 1,
    Delta), column 0 is b = 0 and column 1 + b0 is b = gamma^b0 for b0 < g,
    so every class of W is the class in the same row and column of the
    full (q, q^k) grid.  Works for any integer pair (e1, e2), including
    pairs violating the gcd conditions.

    These columns stand for the whole grid.  A cyclic shift by s and a
    scaling by omega^j in F_q^* (omega = gamma^Delta) keep every weight,
    and together map the class (tau, gamma^e) to
    (omega^(e1*s + j)*tau, gamma^(e + e2*s + Delta*j)).  As e2*s + Delta*j
    runs over the multiples of g, column e = e0 + g*r is column e0 < g
    with its nonzero rows permuted, and row 0 and column 0 are fixed.  So
    a check that reads a class only through its value and whether tau and
    b are zero reaches the grid's verdict on W, and the grid is never
    formed.

    Position i of the class (tau, b) reads tau*omega^(e1*i) + Tr(b*gamma^(e2*i)).
    As omega^(e1*i) != 0, the b = 0 column is zero only at tau = 0, and for
    b != 0 exactly one tau vanishes at i:
    tau = -Tr(b*gamma^(e2*i)) * omega^(-e1*i).  So the zero counts of a
    whole column are one bincount over its n positions.
    """
    m, q = ctx.m, ctx.q
    e2r = e2 % m
    g = gcd(e2r, ctx.delta)
    idx = np.arange(m, dtype=np.int64)
    _, sym_mul, sym_neg, _ = ctx.symbol_tables()
    # symbol of -omega^(-e1*i); symbol s >= 1 stands for omega^(s-1)
    neg_inv = sym_neg[1 + (-e1 % (q - 1)) * idx % (q - 1)]
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


def char_sum_grid(ctx: FieldCtx, e1: int, e2: int) -> np.ndarray:
    """T(a, b) on the classes of trace_weight_grid, derived from zero counts.

    Same (q, 1 + g) indexing; the value for class (tau, b) is
    q*Z - (q^k - 1) with Z the codeword zero count, which equals the
    character sum for every a with Tr(a) = tau.
    """
    _, wt = trace_weight_grid(ctx, e1, e2)
    return ctx.q * (ctx.m - wt) - ctx.m


def weight_distribution_trace(ctx: FieldCtx, e1: int, e2: int) -> WeightDistribution:
    """Exact distribution of the code via the trace representation.

    By the shift and scaling symmetry of trace_weight_grid, each of the
    n/g columns in the orbit of a representative column b0 < g is a row
    permutation of it, so the grid histogram is the b = 0 column's plus
    n/g times the representatives'.
    The grid maps onto the code a constant number of times; that
    multiplicity is the zero-weight count and divides every frequency
    exactly.
    """
    m = ctx.m
    g, reps = trace_weight_grid(ctx, e1, e2)
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


def symbol_values(ctx: FieldCtx) -> np.ndarray:
    """The additive value codeword_lines stores for each F_q symbol.

    In characteristic 2 it is the packed coefficient vector of the
    element, antilog[(s - 1)*Delta], so that addition is a bitwise xor;
    otherwise it is the symbol itself.  Zero is 0 either way, in the
    smallest unsigned dtype that holds every value.
    """
    q = ctx.q
    if ctx.p != 2:
        return np.arange(q, dtype=np.min_scalar_type(q - 1))
    values = np.zeros(q, dtype=np.min_scalar_type(ctx.order - 1))
    values[1:] = ctx.antilog[np.arange(q - 1, dtype=np.int64) * ctx.delta]
    return values


def codeword_lines(ctx: FieldCtx, code: CyclicCode, cap: int = DEFAULT_BRUTE_CAP):
    """Yield batches of codewords, one word on each F_q^* line of the code.

    The word of a line is the one whose leading (highest-index nonzero)
    information coefficient is 1, so (q^dim - 1)/(q - 1) words come out
    as 2-D arrays of symbol_values.  Only linearity is used: information
    words run against the shifted generator polynomial.  The lower rows
    expand into one block within a fixed entry budget, ordered so that
    its rows q^L .. 2q^L - 1 are row L plus every combination of the rows
    below it; the remaining rows are walked combination by combination,
    each added to the whole block.  The last row is never expanded.
    """
    q, n, dim = ctx.q, ctx.m, code.dimension
    if dim < 0:
        raise InvalidArgumentError("code has no parity check")
    if q**dim > cap:
        raise ResourceLimitError(
            f"{q}^{dim} codewords exceed the brute-force cap {cap}"
        )
    if dim == 0:  # the zero code; its generator x^n - 1 has n + 1 coefficients
        return
    values = symbol_values(ctx)
    sym_add, sym_mul, _, _ = ctx.symbol_tables()
    if ctx.p == 2:
        add = np.bitwise_xor
    else:
        flat = sym_add.astype(values.dtype).ravel()
        index = np.min_scalar_type(q * q - 1)

        def add(x, y):
            return flat[x.astype(index) * q + y]

    gen = np.zeros(n, dtype=np.int64)
    gen[: len(code.generator)] = code.generator
    # scaled[c, r] = c * (generator shifted by r)
    shifts = (np.arange(n) - np.arange(dim)[:, None]) % n
    scaled = values[sym_mul[:, gen[shifts]]]

    max_rows = min(_BLOCK, max(q, (4 * _BLOCK_ENTRIES) // max(n, 1)))
    low = 0
    while low < dim - 1 and q ** (low + 1) <= max_rows:
        low += 1
    block = np.zeros((1, n), dtype=values.dtype)
    for r in range(low):
        block = add(scaled[:, r, None, :], block[None, :, :]).reshape(-1, n)
    for lead in range(low):
        yield block[q**lead : 2 * q**lead]
    for lead in range(low, dim):
        for combo in product(range(q), repeat=lead - low):
            prefix = scaled[1, lead]
            for r, c in enumerate(combo):
                if c:
                    prefix = add(scaled[c, low + r], prefix)
            yield add(prefix[None, :], block)


def weight_distribution_bruteforce(
    ctx: FieldCtx, code: CyclicCode, cap: int = DEFAULT_BRUTE_CAP
) -> WeightDistribution:
    """Exact distribution by enumerating the codewords against the generator.

    Completely independent of the trace representation: scaling by
    F_q^* keeps a weight, so each word of codeword_lines stands for q - 1
    codewords, and the zero word is added once.  The total must come to
    q^dim, the number of information words.
    """
    q, n = ctx.q, ctx.m
    hist = np.zeros(n + 1, dtype=np.int64)
    for words in codeword_lines(ctx, code, cap):
        hist += np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
    entries = {0: 1}
    for w in np.nonzero(hist)[0]:
        entries[int(w)] = entries.get(int(w), 0) + (q - 1) * int(hist[w])
    if sum(entries.values()) != q**code.dimension:
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


def krawtchouk_sums(wd: WeightDistribution, q: int):
    """Yield sum_w A_w K_j(w) for j = 0, 1, ..., n, with A_w the frequencies of wd.

    Every K_j(w) advances in lockstep by the exact three-term recurrence
    (j + 1) K_(j+1) = ((q-1)(n-j) + j - q w) K_j - (q-1)(n-j+1) K_(j-1),
    from K_(-1) = 0 and K_0 = 1, so two values per weight are held.
    """
    n = wd.n
    weights, freqs = list(wd.entries), list(wd.entries.values())
    prev, cur = [0] * len(weights), [1] * len(weights)
    for j in range(n + 1):
        yield sum(freq * kj for freq, kj in zip(freqs, cur))
        if j == n:
            return
        a, b = (q - 1) * (n - j) + j, (q - 1) * (n - j + 1)
        nxt = []
        for w, kj, kprev in zip(weights, cur, prev):
            val, r = divmod((a - q * w) * kj - b * kprev, j + 1)
            if r != 0:
                raise ConsistencyError("Krawtchouk recurrence produced a non-integer")
            nxt.append(val)
        prev, cur = cur, nxt


# Container bytes of one exact transform, an upper bound under tracemalloc
# (tests/test_codes.py): per dual entry the int j and its dict slot; per input
# weight its slots in the five lists of krawtchouk_sums; and the call's frames.
# Fitted when the transform also held (j, B_j) and (w, A_w) tuples, and kept.
_MW_ENTRY_BYTES = 136
_MW_WEIGHT_BYTES = 144
_MW_CALL_BYTES = 2048


def macwilliams_size_bytes(n: int, q: int, weights: int) -> float:
    """Estimated peak of one exact transform of a distribution with `weights` weights.

    The transform holds the n + 1 dual values, and krawtchouk_sums keeps
    two Krawtchouk values per input weight.  Each is an int of up to about
    n*log2(q) bits, which CPython stores in 28 + bits/7.5 bytes (4 bytes
    per 30-bit digit); the containers of each entry come on top.
    """
    value = 28 + n * log2(q) / 7.5
    return (
        _MW_CALL_BYTES
        + (n + 1) * (value + _MW_ENTRY_BYTES)
        + weights * (2 * value + _MW_WEIGHT_BYTES)
    )


def check_macwilliams_budget(n: int, q: int, weights: int) -> None:
    """Refuse a transform whose macwilliams_size_bytes exceeds the job budget.

    Needs only n, q and the input's weight count (or a bound on it), so
    callers can refuse an oversized job before they build a field or a code.
    """
    check_budget(
        f"the MacWilliams transform at n = {n}, q = {q}",
        macwilliams_size_bytes(n, q, weights),
    )


def macwilliams_dual(wd: WeightDistribution, q: int, dim: int) -> WeightDistribution:
    """Exact dual distribution B_j = q^-dim * sum_w A_w K_j(w), j = 0..n.

    Transforms over the job budget are refused before any B_j is
    computed.
    """
    if wd.total() != q**dim:
        raise InvalidArgumentError(
            f"distribution sums to {wd.total()}, expected q^dim = {q**dim}"
        )
    check_macwilliams_budget(wd.n, q, len(wd.entries))
    return _dual(wd, q, dim, True)


def dual_prefix(wd: WeightDistribution, q: int, dim: int) -> WeightDistribution:
    """The nonzero B_j of the dual for j <= max(d, 3), d its minimum distance.

    The transform of macwilliams_dual, stopped at the first nonzero B_j
    with j >= 1 (and at least at j = 3), or at j = n when the dual is the
    zero code: O(d) big-int terms per weight of the code instead of the
    n^2 bits of the full transform.  The entries equal the full
    transform's, so min_nonzero_weight() is d.
    """
    return _dual(wd, q, dim, False)


def _dual(wd: WeightDistribution, q: int, dim: int, full: bool) -> WeightDistribution:
    """Nonzero B_j of wd's dual, to j = n when full, else as far as dual_prefix reads.

    B_0 must be 1, every B_j a non-negative integer, a full transform
    must sum to q^(n-dim), and the Pless power moments 0-3, which read
    only B_0..B_3, must hold.
    """
    n, size = wd.n, q**dim
    if wd.total() != size:  # K_0 = 1, so B_0 = total / q^dim
        raise ConsistencyError(f"dual frequency B_0 = {wd.total()}/{size} is not 1")
    dual = WeightDistribution(n)
    for j, s in enumerate(krawtchouk_sums(wd, q)):
        bj, r = divmod(s, size)
        if r != 0 or bj < 0:
            raise ConsistencyError(
                f"dual frequency B_{j} = {s}/{size} is not a non-negative integer"
            )
        if bj:
            dual.entries[j] = bj
        if not full and j >= 3 and len(dual.entries) > 1:
            break
    if full and dual.total() != q ** (n - dim):
        raise ConsistencyError("dual frequencies do not sum to q^(n-dim)")
    if not pless_moment_check(wd, dual, q, dim):
        raise ConsistencyError("Pless power moments 0-3 fail on the dual")
    return dual


def dual_b3(q: int, k: int) -> int:
    """Closed form (q^k-3)(q^k-1)(q-2)(q-1)/6 for B_3 of the target codes."""
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    num = (q**k - 3) * (q**k - 1) * (q - 2) * (q - 1)
    val, r = divmod(num, 6)
    if r != 0:
        raise ConsistencyError(f"B_3 numerator {num} is not divisible by 6")
    return val


def dual_claim_failure(dual: WeightDistribution, q: int, k: int) -> tuple[str, str] | None:
    """(failure name, message) of the first claim the dual breaks, or None.

    The claims on the dual of a target code: B_1 = B_2 = 0,
    B_3 = dual_b3(q, k) and, for q > 2, minimum distance 3.  They read
    only B_j for j <= max(d, 3), so dual_prefix serves as well.
    """
    b1, b2, b3 = (dual.entries.get(j, 0) for j in (1, 2, 3))
    if b1 or b2:
        return "B1_B2_nonzero", f"dual has B_1={b1}, B_2={b2}"
    if b3 != dual_b3(q, k):
        return "B3_mismatch", f"dual B_3={b3} != closed form {dual_b3(q, k)}"
    if q > 2 and dual.min_nonzero_weight() != 3:
        return "dual_min_weight", f"dual minimum weight {dual.min_nonzero_weight()} != 3"
    return None


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
    wd: WeightDistribution, dual_wd: WeightDistribution, q: int, dim: int
) -> list[tuple[int, int]]:
    """(lhs, rhs) of the first four power moments, both times q^r, exact.

    lhs(r) = sum_j j^r A_j; rhs(r) uses only B_0..B_r of the dual.  Its
    terms carry q^(dim - i) with i <= r, so the factor q^r makes both
    sides integers without changing whether they are equal.
    """
    n = wd.n
    out = []
    for r in range(4):
        lhs = q**r * sum(w**r * freq for w, freq in wd.entries.items())
        rhs = 0
        for j in range(min(n, r) + 1):
            bj = dual_wd.entries.get(j, 0)
            if bj == 0:
                continue
            inner = sum(
                factorial(i)
                * _STIRLING2[(r, i)]
                * q ** (dim - i + r)
                * (q - 1) ** (i - j)
                * comb(n - j, n - i)
                for i in range(j, r + 1)
            )
            rhs += (-1) ** j * bj * inner
        out.append((lhs, rhs))
    return out


def pless_moment_check(
    wd: WeightDistribution, dual_wd: WeightDistribution, q: int, dim: int
) -> bool:
    """True iff the first four power moments hold exactly."""
    return all(lhs == rhs for lhs, rhs in pless_moments(wd, dual_wd, q, dim))

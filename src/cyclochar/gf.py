"""Exact arithmetic in the tower F_p <= F_q <= F_{q^k}.

A field context fixes the smallest monic primitive polynomial of degree
t*k over F_p (ordered by packed value, the published-table convention),
so every run and every machine produces the same tables.  The residue
class of x is then a primitive element gamma, and nonzero elements are
stored as discrete logs: the integer e stands for gamma^e.  Zero is the
sentinel ZERO (-1).  Addition goes through a Zech-logarithm table;
multiplication is exponent arithmetic mod order-1.

The subfield F_q sits inside F_{q^k} as {0} union {gamma^(j*delta)} with
delta = (q^k-1)/(q-1).  Codeword symbols use the fixed enumeration
symbol 0 -> 0, symbol 1+j -> gamma^(j*delta).
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Any, NamedTuple

import numpy as np

from .errors import ConsistencyError, InvalidArgumentError
from .numth import (
    DEFAULT_FIELD_CAP,
    _check_order,
    check_field,
    factorize,
    is_prime,
)

ZERO = -1


def _packed_ring(f, p):
    """(x, mulmod) for F_p[x]/(f), polynomials packed into one int.

    Coefficient i sits in bits [w*i, w*(i+1)), so a product is one
    big-int multiply.  No sum below reaches 2^a > d*p^2 in a slot, so no
    carry crosses slots.  mod_p reduces every slot at once: floor(v/p)
    is floor(v*magic / 2^s) for v < 2^a, read off the top a bits of each
    w-bit slot.  A product c, of degree at most 2d-2, is reduced mod f
    by Barrett: with mu = floor(x^(2d)/f) the quotient is
    floor(floor(c/x^d)*mu / x^d), exact over a field, and c mod f is the
    low d coefficients of c + quotient*r, r = x^d mod f.
    """
    d = len(f) - 1
    a = (d * p * p).bit_length()
    s = a + p.bit_length()
    w = a + s
    magic = -(-(1 << s) // p)
    ones = sum(1 << (w * i) for i in range(2 * d))
    quotient_mask = ((1 << a) - 1) * ones
    low = (1 << (w * d)) - 1
    shift = w * d

    def mod_p(c):
        return c - p * (((c * magic) >> s) & quotient_mask)

    # mu = floor(x^(2d) / f) by long division, highest coefficient first
    rest = [0] * (2 * d) + [1]
    mu = 0
    for i in range(2 * d, d - 1, -1):
        c = rest[i] % p
        mu = (mu << w) | c
        if c:
            for j in range(d):
                rest[i - d + j] -= c * f[j]
    r = sum((-c) % p << (w * i) for i, c in enumerate(f[:d]))

    def mulmod(x, y):
        c = mod_p(x * y)
        quotient = mod_p((c >> shift) * mu) >> shift
        return mod_p((c + quotient * r) & low)

    return (1 << w if d > 1 else r), mulmod


def _x_is_primitive(f, p, primes=None):
    """True iff the residue of x has multiplicative order p^d - 1 mod f.

    primes: the prime factors of p^d - 1, if the caller has them.
    """
    d = len(f) - 1
    if f[0] == 0:
        return False
    m = p**d - 1
    x, mulmod = _packed_ring(f, p)

    def x_power_is_one(e):
        y = x
        for bit in bin(e)[3:]:
            y = mulmod(y, y)
            if bit == "1":
                y = mulmod(y, x)
        return y == 1

    if not x_power_is_one(m):
        return False
    return not any(x_power_is_one(m // r) for r in (primes or factorize(m)))


def smallest_primitive_polynomial(p: int, d: int) -> tuple[int, ...]:
    """Smallest monic primitive polynomial of degree d over F_p.

    Candidates are ordered by their base-p packed value sum(c_i * p^i),
    which matches the conventional published tables (x^3+x+1 for F_8,
    x^2+x+2 for F_9, ...).  Coefficients are returned low-degree first,
    including the leading 1.  Before the order test, a candidate f must
    pass three necessary conditions: (-1)^d f(0), the norm of x,
    generates F_p^*; f(1) != 0 when d >= 2; and f is not h(x^g) with
    g > 1.
    """
    primes = list(factorize(p**d - 1))
    norm_tests = [(p - 1) // r for r in factorize(p - 1)]
    lows = [c0 for c0 in range(1, p) if all(pow((-1) ** d * c0, e, p) != 1 for e in norm_tests)]
    # c_(d-1) .. c_1, most significant first, so the packed value ascends
    for high in product(range(p), repeat=d - 1):
        if gcd(d, *(d - 1 - i for i, c in enumerate(high) if c)) > 1:
            continue  # f = h(x^g): x^g lies in a proper subfield
        f_at_1 = 1 + sum(high)
        for c0 in lows:
            if d > 1 and (f_at_1 + c0) % p == 0:
                continue  # x - 1 divides f
            f = (c0, *reversed(high), 1)
            if _x_is_primitive(f, p, primes):
                return f
    raise ConsistencyError(f"no primitive polynomial of degree {d} over F_{p}")


def _linear_map(packed, images, p, d):
    """Packed images of the packed elements under an F_p-linear map of F_p^d.

    The map sends the basis element x^i (packed p^i) to the packed value
    images[i].  The digits of packed are read off one at a time; output
    digit j is sum_i digit_i * digit_j(images[i]) mod p, accumulated in the
    smallest dtype that holds d*(p-1)^2.
    """
    rest = np.asarray(packed).astype(np.min_scalar_type(p**d - 1))
    digit_dtype = np.min_scalar_type(p - 1)
    acc_type = np.min_scalar_type(d * (p - 1) ** 2).type
    digits = []
    for _ in range(d):
        rest, digit = np.divmod(rest, p)
        digits.append(digit.astype(digit_dtype))
    coeffs = (np.asarray(images, dtype=np.int64)[:, None] // p ** np.arange(d) % p).tolist()
    out = np.zeros(len(rest), dtype=np.int64)
    for j in reversed(range(d)):
        acc = np.zeros(len(rest), dtype=acc_type)
        for i in range(d):
            c = coeffs[i][j]
            if c == 1:
                acc += digits[i]
            elif c:
                acc += digits[i] * acc_type(c)
        out *= p
        out += acc % p
    return out


def _power_table(f, p, m):
    """Packed values of x^0 .. x^(m-1) mod f, by doubling.

    Multiplication by x^L is the F_p-linear map sending x^i to x^(L+i).
    Once the table holds x^0 .. x^(L+d-1), its entries x^L .. x^(L+d-1)
    are that map, which sends x^d .. x^(d+L-1) to the next L entries.
    The table starts as x^0 .. x^d, at L = 1, and L doubles each level.
    """
    d = len(f) - 1
    x_d = sum((-c) % p * p**i for i, c in enumerate(f[:d]))
    table = np.empty(m, dtype=np.int64)
    size = min(m, d + 1)
    table[:size] = ([p**i for i in range(d)] + [x_d])[:size]
    while size < m:
        step = size - d
        grow = min(step, m - size)
        table[size : size + grow] = _linear_map(table[d : d + grow], table[step:size].tolist(), p, d)
        size += grow
    return table


class SymbolTables(NamedTuple):
    """F_q arithmetic on symbol indices: add[s1][s2], mul[s1][s2], neg[s], inv[s].

    The rows are numpy arrays from FieldCtx.symbol_tables() and nested
    lists from FieldCtx.symbol_table_lists().  inv[0] is 0: zero has no
    inverse, so a caller must never divide by the zero symbol.
    """

    add: Any
    mul: Any
    neg: Any
    inv: Any


class FieldCtx:
    """Immutable arithmetic context for F_{q^k} = F_{p^(t*k)}.

    Attributes:
        p, t, k: tower parameters; q = p^t, order = p^(t*k).
        m: order - 1, the exponent modulus.
        delta: (q^k - 1) // (q - 1), the exponent stride of F_q.
        modulus: monic primitive polynomial, coefficients low-degree first.
    """

    def __init__(self, p: int, t: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.t = t
        self.k = k
        self.q = p**t
        self.d = t * k
        self.order = p**self.d
        self.m = self.order - 1
        self.delta = self.m // (self.q - 1)
        self.modulus = modulus

        self.antilog = _power_table(list(modulus), p, max(self.m, 1))
        exponents = np.arange(max(self.m, 1), dtype=np.int64)
        self.log = np.full(self.order, ZERO, dtype=np.int64)
        self.log[self.antilog] = exponents
        # a round trip, not np.unique, which would import numpy.ma (11-15 ms)
        if not np.array_equal(self.log[self.antilog], exponents):
            raise ConsistencyError("modulus is not primitive: powers of gamma collide")
        del exponents  # so the Zech step below holds four length-m arrays, not five

        # packed gamma^e + 1: the low digit goes up by one, p - 1 wrapping to 0
        bumped = self.antilog + 1
        bumped[self.antilog % p == p - 1] -= p
        self.zech = self.log[bumped]

        self._trq_sym: np.ndarray | None = None
        self._trp_char: np.ndarray | None = None
        self._sym_tables: SymbolTables | None = None
        self._sym_table_lists: SymbolTables | None = None
        self._trq_sym_list: list[int] | None = None
        self._trp_char_list: list[int] | None = None

    # -- scalar element ops -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        if x == ZERO or y == ZERO:
            return ZERO
        return (x + y) % self.m

    def inv(self, x: int) -> int:
        if x == ZERO:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return (-x) % self.m

    def add(self, x: int, y: int) -> int:
        if x == ZERO:
            return y
        if y == ZERO:
            return x
        z = int(self.zech[(x - y) % self.m])
        if z == ZERO:
            return ZERO
        return (y + z) % self.m

    def neg(self, x: int) -> int:
        if x == ZERO or self.p == 2:
            return x
        return (x + self.m // 2) % self.m

    # -- traces and characters ----------------------------------------------

    def trace_to(self, x: int, target: str = "Fq") -> int:
        """Trace of x down to F_q (default) or to the prime field F_p."""
        if target == "Fq":
            step, reps = self.q, self.k
        elif target == "Fp":
            step, reps = self.p, self.d
        else:
            raise InvalidArgumentError(f"unknown trace target {target!r}")
        if x == ZERO:
            return ZERO
        acc = ZERO
        e = x
        for _ in range(reps):
            acc = self.add(acc, e)
            e = e * step % self.m
        return acc

    # -- the embedded subfield F_q ------------------------------------------

    def symbol_of(self, x: int) -> int:
        """F_q symbol index of a subfield element (0 for zero, 1+j for gamma^(j*delta))."""
        if x == ZERO:
            return 0
        j, r = divmod(int(x), self.delta)
        if r != 0:
            raise ConsistencyError(f"element gamma^{x} lies outside the embedded F_{self.q}")
        return 1 + j

    def element_of_symbol(self, s: int) -> int:
        if not 0 <= s < self.q:
            raise InvalidArgumentError(f"symbol {s} out of range for F_{self.q}")
        return ZERO if s == 0 else (s - 1) * self.delta

    # -- vectorized tables for the enumeration kernels -----------------------

    def _trace_table(self, target: str) -> np.ndarray:
        """Packed Tr(gamma^e) for every exponent e, to F_q or F_p.

        The trace is F_p-linear, so it is the map sending each basis
        element gamma^i = x^i (i < d) to its scalar trace_to.
        """
        images = []
        for i in range(self.d):
            tr = self.trace_to(i, target)
            images.append(0 if tr == ZERO else int(self.antilog[tr]))
        return _linear_map(self.antilog, images, self.p, self.d)

    def trace_q_symbols(self) -> np.ndarray:
        """Symbol index of Tr_{F_{q^k}/F_q}(gamma^e) for every exponent e."""
        if self._trq_sym is None:
            packed = self._trace_table("Fq")
            exps = self.log[packed]
            sym = np.zeros(self.m, dtype=np.int64)
            nz = packed != 0
            if np.any(exps[nz] % self.delta != 0):
                raise ConsistencyError("trace image escaped the embedded subfield")
            sym[nz] = 1 + exps[nz] // self.delta
            self._trq_sym = sym
        return self._trq_sym

    def char_exponents(self) -> np.ndarray:
        """chi' exponent (trace to F_p) of gamma^e for every exponent e."""
        if self._trp_char is None:
            packed = self._trace_table("Fp")
            if np.any(packed >= self.p):
                raise ConsistencyError("trace to the prime field left the prime field")
            self._trp_char = packed
        return self._trp_char

    def trace_class_reps(self) -> np.ndarray:
        """Smallest exponent e with trace symbol s, for every F_q symbol s.

        Entry s is m when no exponent has symbol s, which happens only for
        s = 0 and k = 1.
        """
        reps = np.full(self.q, self.m, dtype=np.int64)
        np.minimum.at(reps, self.trace_q_symbols(), np.arange(self.m, dtype=np.int64))
        return reps

    def trace_q_symbol_list(self) -> list[int]:
        """trace_q_symbols() as a plain list, for scalar-indexed hot loops."""
        if self._trq_sym_list is None:
            self._trq_sym_list = self.trace_q_symbols().tolist()
        return self._trq_sym_list

    def char_exponent_list(self) -> list[int]:
        """char_exponents() as a plain list, for scalar-indexed hot loops."""
        if self._trp_char_list is None:
            self._trp_char_list = self.char_exponents().tolist()
        return self._trp_char_list

    def symbol_tables(self) -> SymbolTables:
        """F_q arithmetic on symbol indices: the single symbol-arithmetic path.

        Symbol s >= 1 stands for omega^(s-1) with omega = gamma^delta, so a
        product adds exponents mod q-1, and a sum gamma^x + gamma^y is
        gamma^(y + Z(x-y)) with the Zech logarithm Z; for subfield elements
        x - y is a multiple of delta, and only q-1 Zech values are read.
        """
        if self._sym_tables is None:
            q, delta = self.q, self.delta
            s = np.arange(q, dtype=np.int64)
            j = s[1:] - 1  # omega-exponent of each nonzero symbol
            zech = self.zech[j * delta]  # 1 + omega^j as an element
            if np.any((zech != ZERO) & (zech % delta != 0)):
                raise ConsistencyError(f"1 + omega^j escaped the embedded F_{q}")
            add = np.empty((q, q), dtype=np.int64)
            add[0, :] = s
            add[:, 0] = s
            diff = (j[:, None] - j[None, :]) % (q - 1)
            add[1:, 1:] = np.where(
                zech[diff] == ZERO, 0, 1 + (j[None, :] + zech[diff] // delta) % (q - 1)
            )
            mul = np.zeros((q, q), dtype=np.int64)
            mul[1:, 1:] = 1 + (j[:, None] + j[None, :]) % (q - 1)
            # -1 = omega^((q-1)/2) for odd q, and 1 in characteristic 2
            half = 0 if self.p == 2 else (q - 1) // 2
            neg = np.zeros(q, dtype=np.int64)
            neg[1:] = 1 + (j + half) % (q - 1)
            inv = np.zeros(q, dtype=np.int64)
            inv[1:] = 1 + (-j) % (q - 1)
            self._sym_tables = SymbolTables(add, mul, neg, inv)
        return self._sym_tables

    def symbol_table_lists(self) -> SymbolTables:
        """symbol_tables() as nested plain lists, for scalar-indexed hot loops."""
        if self._sym_table_lists is None:
            self._sym_table_lists = SymbolTables(*(t.tolist() for t in self.symbol_tables()))
        return self._sym_table_lists


def load_primitive_table(path: str) -> dict[tuple[int, int], tuple[int, ...]]:
    """Parse an override file of records "p degree c0 c1 ... c_d"."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise InvalidArgumentError(f"{path}: cannot read the primitive table: {exc}") from None
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parts = [int(tok) for tok in line.split()]
        except ValueError:
            raise InvalidArgumentError(
                f"{path}:{line_no}: non-integer token in {line!r}"
            ) from None
        if len(parts) < 4:
            raise InvalidArgumentError(f"{path}:{line_no}: malformed record")
        p, d, coeffs = parts[0], parts[1], tuple(parts[2:])
        if len(coeffs) != d + 1:
            raise InvalidArgumentError(
                f"{path}:{line_no}: degree {d} needs {d + 1} coefficients"
            )
        table[(p, d)] = coeffs
    return table


def build_field(
    p: int,
    t: int,
    k: int,
    cap: int = DEFAULT_FIELD_CAP,
    primitive_table: dict[tuple[int, int], tuple[int, ...]] | None = None,
) -> FieldCtx:
    """Construct the F_{p^t} <= F_{p^(t*k)} context.

    The modulus is the lex-smallest monic primitive polynomial of degree
    t*k unless a (p, degree) entry of primitive_table overrides it.
    """
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if t < 1 or k < 1:
        raise InvalidArgumentError("t and k must be positive")
    _check_order(p, t * k, cap)
    mod = (primitive_table or {}).get((p, t * k))
    if mod is not None:
        mod = tuple(c % p for c in mod)
        if mod[-1] != 1:
            raise InvalidArgumentError("override polynomial must be monic")
        if not _x_is_primitive(list(mod), p):
            raise InvalidArgumentError("override polynomial is not primitive")
    else:
        mod = smallest_primitive_polynomial(p, t * k)
    return FieldCtx(p, t, k, mod)


def field_for(
    q: int,
    k: int,
    cap: int = DEFAULT_FIELD_CAP,
    primitive_table: dict[tuple[int, int], tuple[int, ...]] | None = None,
) -> FieldCtx:
    """Context for F_q <= F_{q^k}, after check_field accepts (q, k, cap)."""
    p, t = check_field(q, k, cap)
    return build_field(p, t, k, cap=cap, primitive_table=primitive_table)

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

from functools import lru_cache
from typing import Any, NamedTuple

import numpy as np

from .errors import ConsistencyError, InvalidArgumentError, ResourceLimitError
from .numth import factorize, is_prime, prime_power_split

ZERO = -1

DEFAULT_FIELD_CAP = 1 << 20


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


def _x_is_primitive(f, p):
    """True iff the residue of x has multiplicative order p^d - 1 mod f."""
    d = len(f) - 1
    if f[0] == 0:
        return False
    m = p**d - 1
    x = [0, 1] if d > 1 else [(-f[0]) % p]
    if _poly_powmod(x, m, f, p) != [1]:
        return False
    for r in factorize(m):
        if _poly_powmod(x, m // r, f, p) == [1]:
            return False
    return True


def smallest_primitive_polynomial(p: int, d: int) -> tuple[int, ...]:
    """Smallest monic primitive polynomial of degree d over F_p.

    Candidates are ordered by their base-p packed value sum(c_i * p^i),
    which matches the conventional published tables (x^3+x+1 for F_8,
    x^2+x+2 for F_9, ...).  Coefficients are returned low-degree first,
    including the leading 1.
    """
    top = p**d
    for val in range(top + 1, 2 * top):
        if val % p == 0:
            continue
        f = [(val // p**i) % p for i in range(d + 1)]
        if _x_is_primitive(f, p):
            return tuple(f)
    raise ConsistencyError(f"no primitive polynomial of degree {d} over F_{p}")


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
    """Coefficient vectors of x^0 .. x^{m-1} mod f as an (m, d) array."""
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
    """Base-p packed values of an (m, d) digit array, column by column.

    Columnwise accumulation keeps the transient memory at one m-vector
    instead of widening the whole digit table.
    """
    m, d = digits.shape
    packed = np.zeros(m, dtype=np.int64)
    mult = 1
    for i in range(d):
        packed += digits[:, i].astype(np.int64) * mult
        mult *= p
    return packed


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
        gamma: the primitive element (the residue class of x) as an exponent.
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
        self.gamma = 1 % self.m if self.m > 1 else 0

        digits = _power_table(list(modulus), p, max(self.m, 1))
        self.antilog = _pack_columns(digits, p)
        self.log = np.full(self.order, ZERO, dtype=np.int64)
        self.log[self.antilog] = np.arange(max(self.m, 1), dtype=np.int64)
        if self.m > 0 and len(np.unique(self.antilog)) != self.m:
            raise ConsistencyError("modulus is not primitive: powers of gamma collide")

        low = self.antilog % p
        bumped = np.where(low == p - 1, self.antilog - (p - 1), self.antilog + 1)
        self.zech = self.log[bumped]

        self._digits = digits
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

    def pow(self, x: int, e: int) -> int:
        if x == ZERO:
            if e > 0:
                return ZERO
            if e == 0:
                return 0
            raise ZeroDivisionError("negative power of zero")
        return (x * e) % self.m

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

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def packed(self, x: int) -> int:
        """Base-p packed coefficient vector of the element."""
        return 0 if x == ZERO else int(self.antilog[x])

    def from_packed(self, v: int) -> int:
        if not 0 <= v < self.order:
            raise InvalidArgumentError(f"packed value {v} out of range")
        return ZERO if v == 0 else int(self.log[v])

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

    def additive_char_exponent(self, x: int) -> int:
        """Exponent c in [0, p) with chi'(x) = zeta_p^c, via the trace to F_p."""
        tr = self.trace_to(x, "Fp")
        v = self.packed(tr)
        if v >= self.p:
            raise ConsistencyError("trace to the prime field left the prime field")
        return v

    # -- the embedded subfield F_q ------------------------------------------

    def in_subfield(self, x: int) -> bool:
        return x == ZERO or x % self.delta == 0

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

    def _digitwise_trace(self, step: int, reps: int) -> np.ndarray:
        """Packed values of sum_{i<reps} x^(step^i) for x = gamma^e, e in [0, m)."""
        idx = np.arange(self.m, dtype=np.int64)
        acc = np.zeros((self.m, self.d), dtype=np.uint16)
        mult = 1
        for _ in range(reps):
            acc += self._digits[idx * mult % self.m]
            mult = mult * step % self.m
        acc %= self.p
        return _pack_columns(acc, self.p)

    def trace_q_symbols(self) -> np.ndarray:
        """Symbol index of Tr_{F_{q^k}/F_q}(gamma^e) for every exponent e."""
        if self._trq_sym is None:
            packed = self._digitwise_trace(self.q, self.k)
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
            packed = self._digitwise_trace(self.p, self.d)
            if np.any(packed >= self.p):
                raise ConsistencyError("trace to the prime field left the prime field")
            self._trp_char = packed.astype(np.int64)
        return self._trp_char

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

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, t={self.t}, k={self.k}, order={self.order})"


def load_primitive_table(path: str) -> dict[tuple[int, int], tuple[int, ...]]:
    """Parse an override file of records "p degree c0 c1 ... c_d"."""
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(tok) for tok in line.split()]
            if len(parts) < 4:
                raise InvalidArgumentError(f"{path}:{line_no}: malformed record")
            p, d, coeffs = parts[0], parts[1], tuple(parts[2:])
            if len(coeffs) != d + 1:
                raise InvalidArgumentError(
                    f"{path}:{line_no}: degree {d} needs {d + 1} coefficients"
                )
            table[(p, d)] = coeffs
    return table


@lru_cache(maxsize=None)
def _build_field_cached(p, t, k, override_items):
    override = dict(override_items) if override_items else {}
    mod = override.get((p, t * k))
    if mod is not None:
        mod = tuple(c % p for c in mod)
        if mod[-1] != 1:
            raise InvalidArgumentError("override polynomial must be monic")
        if not _x_is_primitive(list(mod), p):
            raise InvalidArgumentError("override polynomial is not primitive")
    else:
        mod = smallest_primitive_polynomial(p, t * k)
    return FieldCtx(p, t, k, mod)


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
    if p ** (t * k) > cap:
        raise ResourceLimitError(
            f"field order {p}^{t * k} exceeds the cap {cap}; raise the cap to proceed"
        )
    items = tuple(sorted(primitive_table.items())) if primitive_table else None
    return _build_field_cached(p, t, k, items)


def field_for(
    q: int,
    k: int,
    cap: int = DEFAULT_FIELD_CAP,
    primitive_table: dict[tuple[int, int], tuple[int, ...]] | None = None,
) -> FieldCtx:
    """Context for F_q <= F_{q^k}, splitting q into its prime power form."""
    p, t = prime_power_split(q)
    return build_field(p, t, k, cap=cap, primitive_table=primitive_table)

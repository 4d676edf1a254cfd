"""Integer-side machinery.

Canonical remainders, Bezout pairs for the exponent congruence
e2*alpha + Delta*beta == 1 (mod q^k - 1), the two gcd conditions, Euler
phi, cyclotomic cosets, base-p digit sums, and the closed-form count of
qualifying codes.

Everything here is exact integer arithmetic on desk-scale inputs;
factorization is plain trial division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import ConsistencyError, InvalidArgumentError


def rem(a: int, b: int) -> int:
    """Canonical remainder: the unique r with 0 <= r < b and r == a (mod b).

    Defined for any integer a and positive modulus b, independent of the
    host language's signed-division convention.
    """
    if b <= 0:
        raise InvalidArgumentError(f"modulus must be positive, got {b}")
    return a % b


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, s, t) with a*s + b*t == g == gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        qq, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - qq * s1
        t0, t1 = t1, t0 - qq * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


@dataclass(frozen=True)
class BezoutPair:
    """Reduced solution (alpha, beta) of e2*alpha + Delta*beta == 1 mod q^k-1.

    0 <= alpha < q^k - 1 and 0 <= beta < q - 1.
    """

    alpha: int
    beta: int


def bezout_pair(e2: int, q: int, k: int) -> BezoutPair:
    """Solve e2*alpha + Delta*beta == 1 (mod q^k - 1) in canonical ranges.

    Delta = (q^k - 1) // (q - 1).  Requires gcd(Delta, e2) == 1; solves
    e2*S + Delta*T == 1 over the integers and reduces S mod q^k - 1 and
    T mod q - 1.  (S, T) is the pair ext_gcd(e2, Delta) returns: extended
    Euclid gives |S| <= Delta/2, and for Delta > 2 only the centred
    inverse of e2 mod Delta lies there, which pow computes in C.
    """
    n = q**k - 1
    delta = n // (q - 1)
    g = gcd(e2, delta)
    if g != 1:
        raise InvalidArgumentError(
            f"gcd(Delta, e2) = gcd({delta}, {e2}) = {g} != 1; no Bezout pair exists"
        )
    s = pow(e2, -1, delta)
    if 2 * s > delta:
        s -= delta
    t = (1 - e2 * s) // delta
    pair = BezoutPair(alpha=rem(s, n), beta=rem(t, q - 1) if q > 2 else 0)
    if rem(e2 * pair.alpha + delta * pair.beta, n) != 1:
        raise ConsistencyError("Bezout pair failed its defining congruence")
    return pair


def gcd_conditions(q: int, k: int, e1: int, e2: int) -> tuple[int, int]:
    """(gcd(q-1, k*e1 - e2), gcd(Delta, e2)) with Delta = (q^k - 1)/(q - 1).

    The code for (e1, e2) is an optimal three-weight code exactly when
    both are 1.  Requires k >= 2.
    """
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    delta = (q**k - 1) // (q - 1)
    return gcd(q - 1, k * e1 - e2), gcd(delta, e2)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: multiplicity}."""
    if n < 1:
        raise InvalidArgumentError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p^t with p prime, or raise if q is not a prime power."""
    if q < 2:
        raise InvalidArgumentError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise InvalidArgumentError(f"{q} is not a prime power")
    ((p, t),) = fac.items()
    return p, t


def euler_phi(n: int) -> int:
    """Euler's totient via trial-division factorization."""
    if n < 1:
        raise InvalidArgumentError(f"euler_phi requires n >= 1, got {n}")
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def code_count(q: int, k: int) -> int:
    """Number of distinct qualifying codes for (q, k): phi(q^k-1)*(q-1) / k.

    The division is exact; a remainder means an arithmetic bug.
    """
    if k < 2:
        raise InvalidArgumentError(f"code_count requires k >= 2, got {k}")
    num = euler_phi(q**k - 1) * (q - 1)
    cnt, r = divmod(num, k)
    if r != 0:
        raise ConsistencyError(f"code count {num}/{k} is not an integer")
    return cnt


@dataclass(frozen=True)
class CyclotomicCoset:
    """Orbit of an exponent under multiplication by q modulo n."""

    representative: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self.members


def cyclotomic_coset(a: int, q: int, n: int) -> CyclotomicCoset:
    """The q-cyclotomic coset of a mod n; requires gcd(q, n) == 1."""
    if n <= 0:
        raise InvalidArgumentError(f"modulus must be positive, got {n}")
    if gcd(q, n) != 1:
        raise InvalidArgumentError(f"gcd(q, n) = gcd({q}, {n}) != 1")
    a = rem(a, n)
    members = {a}
    x = a * q % n
    while x != a:
        members.add(x)
        x = x * q % n
    ms = tuple(sorted(members))
    return CyclotomicCoset(representative=ms[0], members=ms)


def coset_representatives(q: int, n: int) -> dict[int, int]:
    """Minimal representative -> size of every q-cyclotomic coset mod n.

    Keys ascend, so iterating the mapping yields the representatives in
    order.  One walk over Z/n finds every orbit; requires gcd(q, n) == 1.
    """
    if n <= 0:
        raise InvalidArgumentError(f"modulus must be positive, got {n}")
    if gcd(q, n) != 1:
        raise InvalidArgumentError(f"gcd(q, n) = gcd({q}, {n}) != 1")
    seen = bytearray(n)
    reps = {}
    for a in range(n):
        if seen[a]:
            continue
        size = 0
        x = a
        while not seen[x]:
            seen[x] = 1
            x = x * q % n
            size += 1
        reps[a] = size
    return reps


def digit_sum(x: int, p: int) -> int:
    """Sum of the base-p digits of x >= 0."""
    if x < 0:
        raise InvalidArgumentError(f"digit_sum requires x >= 0, got {x}")
    if p < 2:
        raise InvalidArgumentError(f"base must be >= 2, got {p}")
    s = 0
    while x:
        x, r = divmod(x, p)
        s += r
    return s


def schmidt_white_theta(u: int, p: int, f: int) -> Fraction:
    """Exponent parameter of the two-weight irreducible-code parametrization.

    theta = min over 1 <= j < u of digit_sum(j*(p^f - 1)//u, p) / (p - 1),
    as an exact rational.  Requires u > 1 and u | p^f - 1.
    """
    if u <= 1:
        raise InvalidArgumentError(f"u must exceed 1, got {u}")
    m = p**f - 1
    if m % u != 0:
        raise InvalidArgumentError(f"{u} does not divide p^f - 1 = {m}")
    step = m // u
    best = min(digit_sum(j * step, p) for j in range(1, u))
    return Fraction(best, p - 1)


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)^*; requires gcd(a, n) == 1."""
    if gcd(a, n) != 1:
        raise InvalidArgumentError(f"gcd({a}, {n}) != 1; no multiplicative order")
    if n == 1:
        return 1
    order = 1
    x = a % n
    while x != 1:
        x = x * a % n
        order += 1
    return order

"""Integer-side machinery.

Bezout pairs for the exponent congruence e2*alpha + Delta*beta == 1
(mod q^k - 1), the two gcd conditions, Euler phi, cyclotomic cosets
(and through the coset of 1, multiplicative orders), multiplier orbits
by their representatives, base-p digit sums, the closed-form count of
qualifying codes and the checked listing of those codes, whose writer
budgets its output.  Also the size gates every job passes before it
allocates: the field cap, the brute-force cap default and the job budget.

Everything here is exact integer arithmetic on desk-scale inputs;
factorization is plain trial division.  Nothing here imports numpy, so
the command line can start and list codes without it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterator
from itertools import compress, repeat
from math import gcd
from operator import mod
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ConsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_FIELD_CAP = 1 << 20

DEFAULT_BRUTE_CAP = 1 << 22

# The most memory (or, for a written listing or dual distribution, output) one
# job may claim, by the estimates its callers pass to check_budget.  The
# MacWilliams transform of a three-weight code passes up to length 65535 over
# F_2 (0.54 GiB at (2,16)) but not over F_4 (1.08 GiB at (4,8)), and (2,20)
# would need 137 GiB; its inverse, over about n/2 weights, passes at (2,15) but
# not at (2,16); the decimal output of a dual passes up to n = 32767 over F_2;
# `enumerate`, a listing's writer, passes up to about 18 million records at
# q^k <= 2^20, while (1024, 2) would write 13.7 GiB.
JOB_BUDGET_BYTES = 1 << 30


def check_budget(what: str, needed_bytes: float) -> None:
    """Refuse a job whose estimate exceeds JOB_BUDGET_BYTES, before it allocates."""
    if needed_bytes > JOB_BUDGET_BYTES:
        raise ResourceLimitError(
            f"{what} needs about {needed_bytes / 2**30:,.1f} GiB, over the "
            f"{JOB_BUDGET_BYTES / 2**30:g} GiB budget"
        )


class BezoutPair(NamedTuple):
    """Reduced solution (alpha, beta) of e2*alpha + Delta*beta == 1 mod q^k-1.

    0 <= alpha < q^k - 1 and 0 <= beta < q - 1.
    """

    alpha: int
    beta: int


def bezout_pair(e2: int, q: int, k: int) -> BezoutPair:
    """Solve e2*alpha + Delta*beta == 1 (mod q^k - 1) in canonical ranges.

    Delta = (q^k - 1) // (q - 1).  Requires gcd(Delta, e2) == 1; solves
    e2*S + Delta*T == 1 over the integers and reduces S mod q^k - 1 and
    T mod q - 1.  (S, T) is the pair extended Euclid on (e2, Delta)
    returns: it gives |S| <= Delta/2, and for Delta > 2 only the centred
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
    pair = BezoutPair(alpha=s % n, beta=t % (q - 1) if q > 2 else 0)
    if (e2 * pair.alpha + delta * pair.beta) % n != 1:
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


def failed_conditions(q: int, k: int, e1: int, e2: int) -> list[str]:
    """Each gcd condition (e1, e2) fails, as "gcd(q-1,k*e1-e2)=g" or
    "gcd(Delta,e2)=g"; empty when both hold."""
    g1, g2 = gcd_conditions(q, k, e1, e2)
    named = (("gcd(q-1,k*e1-e2)", g1), ("gcd(Delta,e2)", g2))
    return [f"{name}={g}" for name, g in named if g != 1]


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
    return n >= 2 and factorize(n) == {n: 1}


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p^t with p prime, or raise if q is not a prime power."""
    if q < 2:
        raise InvalidArgumentError(f"{q} is not a prime power")
    fac = factorize(q)
    if len(fac) != 1:
        raise InvalidArgumentError(f"{q} is not a prime power")
    ((p, t),) = fac.items()
    return p, t


def _check_order(p: int, d: int, cap: int) -> None:
    # p^d >= 2^d > cap once d reaches cap's bit length: no need to build p^d
    if d >= cap.bit_length() or p**d > cap:
        raise ResourceLimitError(
            f"field order {p}^{d} exceeds the cap {cap}; raise the cap to proceed"
        )


def check_field(q: int, k: int, cap: int = DEFAULT_FIELD_CAP) -> tuple[int, int]:
    """Validate F_q <= F_{q^k} without building any table; returns q as (p, t).

    q must be a prime power, k >= 2 (the codes need a proper extension)
    and q^k at most cap.
    """
    p, t = prime_power_split(q)
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    _check_order(p, t * k, cap)
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


def cyclotomic_coset(a: int, q: int, n: int) -> tuple[int, ...]:
    """The q-cyclotomic coset of a mod n, its members ascending; requires gcd(q, n) == 1.

    Its first member is the coset's minimal representative.  The coset of
    1 is the subgroup q generates, so its size is the order of q mod n.
    """
    if n <= 0:
        raise InvalidArgumentError(f"modulus must be positive, got {n}")
    if gcd(q, n) != 1:
        raise InvalidArgumentError(f"gcd(q, n) = gcd({q}, {n}) != 1")
    a %= n
    members = {a}
    x = a * q % n
    while x != a:
        members.add(x)
        x = x * q % n
    return tuple(sorted(members))


def orbit_representative(q: int, k: int, e1: int, e2: int) -> tuple[int, int]:
    """Canonical pair of the orbit of (e1 mod q-1, e2 mod n) under the units u mod n.

    Here n = q^k - 1.  The multiplier i -> u*i permutes the coordinates of
    a cyclic code of length n.  It maps the code of (e1, e2), with
    nonzeros at the cosets of Delta*e1 and e2, onto the code of
    (u*e1 mod (q-1), u*e2 mod n), as u*Delta*e1 = Delta*(u*e1 mod (q-1))
    mod n; so every pair of an orbit has one weight distribution
    (Huffman-Pless, Fundamentals of Error-Correcting Codes, 4.3).  The
    substitution x -> x^u likewise keeps the character sum T(a, b), and
    both gcd conditions hold on all of an orbit or on none of it.

    No orbit is formed.  With g = gcd(e2, n) and t = e2/g, the units that
    send e2 to g are those with u*t == 1 mod n/g; reduced mod r = q - 1
    they are the units v mod r with v == t^-1 mod c, c = gcd(r, n/g).
    The representative is (min over those v of v*e1 mod r, g mod n).
    """
    if k < 2:
        raise InvalidArgumentError(f"requires k >= 2, got {k}")
    n = q**k - 1
    r = q - 1
    e2 %= n
    g = gcd(e2, n)  # n when e2 = 0
    c = gcd(r, n // g)
    return _least_multiple(e1 % r, r, c, pow(e2 // g, -1, c)), g % n


def _least_multiple(e1: int, r: int, c: int, s: int) -> int:
    """min{v*e1 mod r : v a unit mod r, v == s mod c}, for c | r and s a unit mod c.

    With h = gcd(e1, r), v*e1 = h*(v*e1/h mod r/h), and v*e1/h runs over
    exactly the units mod r/h that are == s*e1/h modulo c' = gcd(c, r/h)
    (CRT): the least one is a few steps of c' from s*e1/h mod c'.
    """
    h = gcd(e1, r)  # r when e1 = 0
    rr = r // h
    step = gcd(c, rr)
    w = s * (e1 // h) % step
    while gcd(w, rr) != 1:
        w += step
    return h * w % r


def divisors(n: int) -> list[int]:
    """The positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def valid_orbits(q: int, k: int) -> Iterator[tuple[int, int, int]]:
    """(e1, e2, size) for each orbit of the pairs with gcd(Delta, e2) = 1, lazily.

    (e1, e2) is the orbit's orbit_representative and size its number of
    pairs.  Since Delta | n, gcd(Delta, e2) = gcd(Delta, gcd(e2, n)), so
    the walk runs over the divisors g of n coprime to Delta and then over
    the e1 that represent themselves beside g.  The orbit of (e1, g) has
    phi(n/g) values of e2, and beside each the phi(r')/phi(gcd(c, r'))
    multiples of e1 that _least_multiple ranges over, r' = r/gcd(e1, r).
    """
    n = q**k - 1
    r = q - 1
    delta = n // r
    for g in divisors(n)[:-1]:
        if gcd(g, delta) != 1:
            continue
        c = gcd(r, n // g)
        e2_count = euler_phi(n // g)
        for e1 in range(r):
            if _least_multiple(e1, r, c, 1) == e1:
                rr = r // gcd(e1, r)
                yield e1, g, e2_count * euler_phi(rr) // euler_phi(gcd(c, rr))


def coset_representatives(q: int, k: int, coprime_to: int = 1) -> dict[int, int]:
    """Minimal representative -> size of every q-cyclotomic coset mod n = q^k - 1
    whose members are coprime to coprime_to, a divisor of n (1: every coset).
    Requires q >= 2 and k >= 1.

    Multiplying by q mod q^k - 1 rotates the k base-q digits of x < n, so
    the least member of a coset is a necklace and the coset's size is the
    necklace's period.  The walk generates the prenecklaces in ascending
    order (Fredricksen-Kessler-Maiorana) on integers alone: with t trailing
    digits q - 1 in x and i = k - t, the prefix p = x // q^t + 1 repeated
    and cut to k digits is the next prenecklace p*q^k // (q^i - 1), a
    necklace of period i when i divides k; the walk ends at p = q^i - 1,
    the all-(q - 1) word, which is n == 0.  Keys ascend, so iterating the
    mapping yields the representatives in order.  Multiplying by q keeps
    the gcd with any divisor of n, so a coset is coprime to coprime_to
    exactly when its representative is.
    """
    if q < 2 or k < 1:
        raise InvalidArgumentError(f"requires q >= 2 and k >= 1, got q = {q}, k = {k}")
    n = q**k - 1
    if coprime_to < 1 or n % coprime_to:
        raise InvalidArgumentError(f"{coprime_to} is not a divisor of {n}")
    mask = [q**j - 1 for j in range(k + 1)]  # mask[i] = q^i - 1
    divides = [j > 0 and k % j == 0 for j in range(k + 1)]
    top = n + 1
    reps = {}
    x, i = 0, 1
    while True:
        if divides[i] and gcd(x, coprime_to) == 1:
            reps[x] = i
        p = x + 1
        if p % q:  # x ends in no digit q - 1: the next prenecklace is x + 1, of period k
            if p == n:
                return reps
            x, i = p, k
            continue
        p, t = p // q, 1  # x + 1 ends in t zero digits, and (x + 1) // q^t = x // q^t + 1
        while p % q == 0:
            p //= q
            t += 1
        i = k - t
        if p == mask[i]:
            return reps
        x = p * top // mask[i]


class CodeListing(NamedTuple):
    """The checked listing of the qualifying codes for (q, k); see qualifying_codes.

    Per e2 class it holds the class (classes, ascending) and its residue
    mod q - 1 (residues); units[e1][r] says whether gcd(q - 1, k*e1 - r) = 1.
    classes is an array of ints; a writer may swap in the classes' decimals,
    rendered once, with _replace, so that the two are not held side by side,
    and budgets its output itself: the listing holds classes, not records.
    """

    count: int
    classes: array
    residues: array
    units: list[list[bool]]

    def rows(self) -> Iterator[tuple[int, Iterator]]:
        """(e1, the classes listed beside e1) for each e1, ascending.

        gcd(q - 1, k*e1 - e2) depends on e2 only through e2 mod q - 1, so
        each row is selected by its residues, in C loops.
        """
        classes, residues = self.classes, self.residues
        for e1, row in enumerate(self.units):
            yield e1, compress(classes, map(row.__getitem__, residues))

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The records as exponent pairs (e1, e2), e1-major."""
        for e1, row in self.rows():
            for e2 in row:
                yield e1, e2


def qualifying_codes(q: int, k: int, cap: int = DEFAULT_FIELD_CAP) -> CodeListing:
    """Every distinct qualifying code for (q, k), as a checked CodeListing.

    The records are the exponent pairs (e1, e2), e1-major: e1 runs over
    [0, q-1) (one value per degree-one factor) and e2 over the minimal
    cyclotomic coset representatives coprime to Delta, ascending.  One
    necklace walk (coset_representatives) finds those representatives; the
    listing keeps them and their residues mod q - 1 in arrays, not the
    walk's dict, so memory grows with the number of classes, not with the
    count.  Every check has run when this returns, before the first record
    exists: the field gate, gcd(Delta, e2) = 1 and deg h_e2 = k for every
    class, and the count, tallied per (e1, e2 mod q-1), against the closed
    form.  Writing the records is the caller's job, and so is its budget.
    """
    check_field(q, k, cap)
    count = code_count(q, k)
    n = q**k - 1
    r = q - 1
    delta = n // r
    reps = coset_representatives(q, k, delta)
    # the checks run in C loops; a failing class is looked up only to name it
    if max(map(gcd, reps, repeat(delta)), default=1) != 1:
        rep = next(rep for rep in reps if gcd(delta, rep) != 1)
        raise ConsistencyError(f"coset walk kept {rep}, which shares a factor with Delta")
    if set(reps.values()) - {k}:
        rep = next(rep for rep, size in reps.items() if size != k)
        raise TheoremViolationError(f"gcd(Delta, {rep}) = 1 but deg h_{rep} != {k}")
    classes = array("I" if n >> 32 == 0 else "Q", reps)
    residues = array("H" if r >> 16 == 0 else "L", map(mod, reps, repeat(r)))
    tally = Counter(residues)  # e2 classes per residue mod q - 1
    # gcd(q-1, k*e1 - e2) depends on e2 only through e2 mod q-1
    units = [[gcd_conditions(q, k, e1, res)[0] == 1 for res in range(r)] for e1 in range(r)]
    listed = sum(tally[res] for row in units for res, unit in enumerate(row) if unit)
    if listed != count:
        raise TheoremViolationError(
            f"enumerated {listed} codes but the count formula gives {count}"
        )
    return CodeListing(count, classes, residues, units)


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
    from fractions import Fraction  # only the two-weight scan reads theta

    step = m // u
    best = min(digit_sum(j * step, p) for j in range(1, u))
    return Fraction(best, p - 1)

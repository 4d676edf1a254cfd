"""Integer machinery: Bezout pairs, phi, cosets."""

import math

import pytest
from hypothesis import given, strategies as st

from cyclochar import numth, verify
from cyclochar.errors import (
    ConsistencyError,
    InvalidArgumentError,
    ResourceLimitError,
    TheoremViolationError,
)


def ext_gcd(a, b):
    """Extended Euclid: returns (g, s, t) with a*s + b*t == g == gcd(a, b).

    The reference bezout_pair must reduce to; src solves the pair with pow.
    """
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        qq, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - qq * s1
        t0, t1 = t1, t0 - qq * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


PAIRS_255 = list(verify.default_pairs(255))


class TestBezout:
    def test_q2_k3(self):
        pair = numth.bezout_pair(3, 2, 3)
        assert (pair.alpha, pair.beta) == (5, 0)

    def test_trivial_e2_one(self):
        pair = numth.bezout_pair(1, 3, 2)
        assert (pair.alpha, pair.beta) == (1, 0)

    def test_q4_k3(self):
        pair = numth.bezout_pair(5, 4, 3)
        assert (5 * pair.alpha + 21 * pair.beta) % 63 == 1

    def test_no_inverse(self):
        # Delta = 4 for (q=3, k=2); e2 = 2 shares a factor
        with pytest.raises(InvalidArgumentError):
            numth.bezout_pair(2, 3, 2)

    @given(st.sampled_from([(2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2)]),
           st.integers(min_value=-300, max_value=300))
    def test_congruence_and_bounds(self, qk, e2):
        q, k = qk
        n = q**k - 1
        delta = n // (q - 1)
        if math.gcd(delta, e2) != 1:
            with pytest.raises(InvalidArgumentError):
                numth.bezout_pair(e2, q, k)
            return
        pair = numth.bezout_pair(e2, q, k)
        assert 0 <= pair.alpha < n
        assert 0 <= pair.beta < q - 1 or (q == 2 and pair.beta == 0)
        assert (e2 * pair.alpha + delta * pair.beta) % n == 1

    @pytest.mark.parametrize("q,k", [(2, 3), (2, 8), (3, 2), (3, 5), (4, 3), (5, 3), (7, 2),
                                     (8, 3), (9, 2), (16, 2), (64, 2)])
    def test_equals_extended_euclid_reduction(self, q, k):
        # the pair reduced from ext_gcd(e2, Delta), for every e2 in [-n, 2n)
        n = q**k - 1
        delta = n // (q - 1)
        for e2 in range(-n, 2 * n):
            g, s, t = ext_gcd(e2, delta)
            if g != 1:
                continue
            expected = numth.BezoutPair(s % n, t % (q - 1) if q > 2 else 0)
            assert numth.bezout_pair(e2, q, k) == expected


class TestGcdConditions:
    def test_example1(self):
        # q = 4, k = 3, Delta = 21: gcd(3, 6 - 5) = 1 and gcd(21, 5) = 1
        assert numth.gcd_conditions(4, 3, 2, 5) == (1, 1)

    def test_each_gcd(self):
        # q = 4, k = 2, Delta = 5: gcd(3, 2*2 - 1) = 3 and gcd(5, 10) = 5
        assert numth.gcd_conditions(4, 2, 2, 1) == (3, 1)
        assert numth.gcd_conditions(4, 2, 0, 10) == (1, 5)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_matches_canonical_residues(self, e1, e2):
        q, k, delta = 5, 3, 31
        assert numth.gcd_conditions(q, k, e1, e2) == (
            math.gcd(q - 1, (k * e1 - e2) % (q - 1)), math.gcd(delta, e2 % delta)
        )

    @pytest.mark.parametrize("k", [1, 0, -1])
    def test_k_below_2_rejected(self, k):
        with pytest.raises(InvalidArgumentError, match="requires k >= 2"):
            numth.gcd_conditions(3, k, 0, 1)


class TestEulerPhi:
    @pytest.mark.parametrize("n,expected", [(80, 32), (1, 1), (63, 36)])
    def test_examples(self, n, expected):
        assert numth.euler_phi(n) == expected

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgumentError):
            numth.euler_phi(0)

    @pytest.mark.parametrize("n", range(1, 200))
    def test_against_gcd_count(self, n):
        assert numth.euler_phi(n) == sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


class TestCodeCount:
    @pytest.mark.parametrize("q,k,expected", [(3, 4, 16), (2, 3, 2), (4, 3, 36)])
    def test_examples(self, q, k, expected):
        assert numth.code_count(q, k) == expected

    def test_k_one_rejected(self):
        with pytest.raises(InvalidArgumentError):
            numth.code_count(4, 1)


class TestCyclotomicCoset:
    # the coset of 1 is the group q generates: 2 has order 3 mod 7, 3 order 4 mod 80
    @pytest.mark.parametrize("q,n,expected", [(2, 7, (1, 2, 4)), (3, 80, (1, 3, 9, 27))])
    def test_coset_of_one(self, q, n, expected):
        coset = numth.cyclotomic_coset(1, q, n)
        assert coset == expected
        assert coset[0] == 1

    def test_zero_fixed_point(self):
        assert numth.cyclotomic_coset(0, 3, 26) == (0,)

    def test_singleton_42(self):
        assert numth.cyclotomic_coset(42, 4, 63) == (42,)

    def test_closure_under_q(self):
        for a in range(63):
            coset = numth.cyclotomic_coset(a, 4, 63)
            for s in coset:
                assert s * 4 % 63 in coset

    @pytest.mark.parametrize("q,k", [(2, 3), (2, 6), (3, 3), (4, 3), (5, 2)])
    def test_sizes_divide_k(self, q, k):
        n = q**k - 1
        for a in range(n):
            assert k % len(numth.cyclotomic_coset(a, q, n)) == 0

    def test_gcd_requirement(self):
        with pytest.raises(InvalidArgumentError):
            numth.cyclotomic_coset(1, 2, 8)

    @given(st.integers(min_value=-(10**4), max_value=10**4),
           st.integers(min_value=1, max_value=10**4))
    def test_coset_of_one_has_the_multiplicative_order(self, a, n):
        # the least t >= 1 with a^t == 1 mod n, by the direct loop
        if math.gcd(a, n) != 1:
            with pytest.raises(InvalidArgumentError):
                numth.cyclotomic_coset(1, a, n)
            return
        t = 1
        while pow(a, t, n) != 1 % n:
            t += 1
        assert len(numth.cyclotomic_coset(1, a, n)) == t


def multiplier_orbit(q, k, e1, e2):
    """Orbit of (e1 mod q-1, e2 mod q^k-1) under the units u mod n = q^k - 1.

    Formed in full: the reference numth.orbit_representative must name
    without forming it.
    """
    n = q**k - 1
    e1, e2 = e1 % (q - 1), e2 % n
    return {(u * e1 % (q - 1), u * e2 % n) for u in range(1, n) if math.gcd(u, n) == 1}


def orbit_partition(q, k):
    """The multiplier orbits of every (e1, e2) pair, first met first."""
    seen, orbits = set(), []
    for e1 in range(q - 1):
        for e2 in range(q**k - 1):
            if (e1, e2) not in seen:
                orbits.append(multiplier_orbit(q, k, e1, e2))
                seen |= orbits[-1]
    return orbits


class TestMultiplierOrbit:
    @pytest.mark.parametrize("q,k", [(2, 3), (2, 6), (3, 3), (4, 3), (5, 2), (9, 2)])
    def test_orbits_partition_the_pairs(self, q, k):
        n = q**k - 1
        orbits = orbit_partition(q, k)
        assert sum(len(o) for o in orbits) == (q - 1) * n
        for orbit in orbits:
            for e1, e2 in orbit:
                assert multiplier_orbit(q, k, e1, e2) == orbit

    @pytest.mark.parametrize("q,k", [(2, 6), (3, 3), (4, 3), (5, 2), (8, 2)])
    def test_conditions_and_cosets_constant_on_an_orbit(self, q, k):
        n = q**k - 1
        for orbit in orbit_partition(q, k):
            e1, e2 = min(orbit)
            conditions = numth.gcd_conditions(q, k, e1, e2)
            for mate in orbit:
                assert tuple(x == 1 for x in numth.gcd_conditions(q, k, *mate)) == tuple(
                    x == 1 for x in conditions
                )
            # the q-cyclotomic coset of e2 lies in the orbit, with e1 fixed
            for x in numth.cyclotomic_coset(e2, q, n):
                assert (e1, x) in orbit

    @pytest.mark.parametrize("q,k,count", [(2, 6, 6), (4, 3, 16), (16, 3, 224), (32, 2, 132)])
    def test_orbit_counts(self, q, k, count):
        assert len(orbit_partition(q, k)) == count

    def test_reduces_its_arguments(self):
        assert multiplier_orbit(4, 3, 5, 64) == multiplier_orbit(4, 3, 2, 1)


class TestOrbitRepresentative:
    @pytest.mark.parametrize("q,k", PAIRS_255)
    def test_one_member_names_each_orbit(self, q, k):
        named = set()
        for orbit in orbit_partition(q, k):
            reps = {numth.orbit_representative(q, k, *pair) for pair in orbit}
            assert len(reps) == 1
            (rep,) = reps
            assert rep in orbit and rep not in named
            named.add(rep)

    @pytest.mark.parametrize("q,k", PAIRS_255)
    def test_the_walk_yields_each_valid_orbit_once(self, q, k):
        delta = (q**k - 1) // (q - 1)
        want = {
            numth.orbit_representative(q, k, *min(orbit)): len(orbit)
            for orbit in orbit_partition(q, k)
            if math.gcd(delta, min(orbit)[1]) == 1
        }
        walk = list(numth.valid_orbits(q, k))
        assert len(walk) == len(want)
        assert {(e1, e2): size for e1, e2, size in walk} == want

    @pytest.mark.parametrize(
        "q,k,orbits,qualifying",
        [(16, 3, 21, 15), (64, 2, 153, 63), (257, 2, 256, 256), (1024, 2, 2145, 1023)],
    )
    def test_the_walk_counts_every_pair_past_255(self, q, k, orbits, qualifying):
        n = q**k - 1
        delta = n // (q - 1)
        walk = list(numth.valid_orbits(q, k))
        good = [size for e1, e2, size in walk if numth.gcd_conditions(q, k, e1, e2) == (1, 1)]
        assert (len(walk), len(good)) == (orbits, qualifying)
        # (q - 1) choices of e1 beside each e2 coprime to Delta, and k pairs a qualifying code
        assert sum(size for *_, size in walk) == (q - 1) ** 2 * numth.euler_phi(delta)
        assert sum(good) == k * numth.code_count(q, k)
        for e1, e2, _ in walk:
            assert numth.orbit_representative(q, k, e1, e2) == (e1, e2)

    def test_reduces_its_arguments(self):
        rep = numth.orbit_representative(4, 3, 2, 1)
        assert numth.orbit_representative(4, 3, 5, 64) == rep
        assert numth.orbit_representative(4, 3, -1, -62) == rep

    def test_k_below_2_rejected(self):
        with pytest.raises(InvalidArgumentError):
            numth.orbit_representative(2, 1, 0, 1)

    @pytest.mark.parametrize("n", [1, 2, 12, 63, 255, 4095, 1048575])
    def test_divisors(self, n):
        assert numth.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def zn_walk_representatives(q, n, coprime_to=1):
    """The coset walk over all of Z/n that the necklace walk replaced, kept as
    its reference: every coset from its least member, which a scan for the
    first unseen element finds in ascending order."""
    seen = bytearray(n)
    for p in numth.factorize(coprime_to):
        seen[::p] = b"\x01" * len(range(0, n, p))  # a multiple of p is never walked
    reps = {}
    a = seen.find(0)
    while a >= 0:
        size = 0
        x = a
        while not seen[x]:
            seen[x] = 1
            x = x * q % n
            size += 1
        reps[a] = size
        a = seen.find(0, a + 1)
    return reps


# Every (q, k) with q a prime power and q^k <= 2^14, k = 1 included.
BLOCKS_2_14 = [
    (q, k)
    for q in range(2, 2**7 + 1)
    if len(numth.factorize(q)) == 1
    for k in range(1, 15)
    if q**k <= 2**14
]


# Every (q, k) with q a prime power and q^k <= 2^12, k = 1 included.
BLOCKS_2_12 = [
    (q, k)
    for q in range(2, 2**12 + 1)
    if len(numth.factorize(q)) == 1
    for k in range(1, 13)
    if q**k <= 2**12
]


def coset_reference(q, k, coprime_to):
    """Least member -> size of each coset mod q^k - 1 coprime to coprime_to,
    read off cyclotomic_coset, each coset once, ascending."""
    n = q**k - 1
    seen, out = set(), {}
    for a in range(n):
        if a not in seen and math.gcd(a, coprime_to) == 1:
            coset = numth.cyclotomic_coset(a, q, n)
            seen.update(coset)
            out[coset[0]] = len(coset)
    return out


class TestCosetRepresentatives:
    @pytest.mark.parametrize("q,k", BLOCKS_2_12)
    def test_sizes_match_each_coset(self, q, k):
        n = q**k - 1
        for coprime_to in (1, n // (q - 1)):
            got = numth.coset_representatives(q, k, coprime_to)
            assert list(got.items()) == list(coset_reference(q, k, coprime_to).items())
        assert sum(numth.coset_representatives(q, k).values()) == n

    def test_iterates_representatives_in_order(self):
        assert list(numth.coset_representatives(2, 3)) == [0, 1, 3]

    @pytest.mark.parametrize("q,k", [(1, 3), (0, 2), (2, 0), (3, -1)])
    def test_q_below_2_or_k_below_1_is_refused(self, q, k):
        with pytest.raises(InvalidArgumentError, match="requires q >= 2 and k >= 1"):
            numth.coset_representatives(q, k)

    @pytest.mark.parametrize("q,k", BLOCKS_2_14)
    def test_necklace_walk_equals_the_zn_walk(self, q, k):
        n = q**k - 1
        for coprime_to in (1, n // (q - 1)):
            got = numth.coset_representatives(q, k, coprime_to)
            assert list(got.items()) == list(zn_walk_representatives(q, n, coprime_to).items())

    @pytest.mark.parametrize("q,k", [(q, k) for q, k in BLOCKS_2_14 if q**k <= 4096])
    def test_necklace_walk_equals_the_zn_walk_for_every_divisor(self, q, k):
        n = q**k - 1
        for d in numth.divisors(n):
            got = numth.coset_representatives(q, k, d)
            assert list(got.items()) == list(zn_walk_representatives(q, n, d).items())

    @pytest.mark.parametrize("q,k,count", [(2, 19, 27_594), (2, 20, 24_000), (4, 10, 72_000),
                                           (8, 6, 27_216)])
    def test_representative_counts_past_the_reference(self, q, k, count):
        # the classes coprime to Delta all have size k (the theorem's deg h = k),
        # so there are (q - 1) phi(Delta) / k of them
        n = q**k - 1
        delta = n // (q - 1)
        reps = numth.coset_representatives(q, k, delta)
        assert len(reps) == count == (q - 1) * numth.euler_phi(delta) // k
        assert set(reps.values()) == {k}
        assert list(reps) == sorted(reps)

    @pytest.mark.parametrize("q,k", [(2, 6), (3, 4), (4, 3), (5, 2), (2, 12), (16, 3)])
    def test_coprime_walk_keeps_exactly_the_coprime_cosets(self, q, k):
        n = q**k - 1
        every = numth.coset_representatives(q, k)
        for d in (x for x in range(1, n + 1) if n % x == 0):
            coprime = {a: size for a, size in every.items() if math.gcd(a, d) == 1}
            assert numth.coset_representatives(q, k, d) == coprime

    def test_coprime_to_must_divide_n(self):
        with pytest.raises(InvalidArgumentError, match="not a divisor"):
            numth.coset_representatives(2, 6, 10)


class TestQualifyingCodes:
    @pytest.mark.parametrize("q,k", [(2, 3), (3, 4), (4, 3), (5, 2), (16, 3), (64, 2)])
    def test_records_are_the_gcd_rule_in_e1_major_order(self, q, k):
        n = q**k - 1
        delta = n // (q - 1)
        reps = [a for a in numth.coset_representatives(q, k) if math.gcd(a, delta) == 1]
        expected = [
            (e1, e2)
            for e1 in range(q - 1)
            for e2 in reps
            if numth.gcd_conditions(q, k, e1, e2) == (1, 1)
        ]
        listing = numth.qualifying_codes(q, k)
        assert list(listing.pairs()) == expected
        assert listing.count == len(expected) == numth.code_count(q, k)

    @pytest.mark.parametrize("q,k,error", [
        (6, 2, InvalidArgumentError), (2, 1, InvalidArgumentError), (2, 21, ResourceLimitError),
        (3, 10**18, ResourceLimitError),
    ])
    def test_field_gate(self, q, k, error):
        with pytest.raises(error):
            numth.qualifying_codes(q, k)

    def test_count_mismatch_raises_before_any_record(self, monkeypatch):
        monkeypatch.setattr(numth, "code_count", lambda q, k: 17)
        with pytest.raises(TheoremViolationError, match="enumerated 16 codes but the count formula gives 17"):
            numth.qualifying_codes(3, 4)

    def test_a_listing_too_large_to_write_is_listed(self):
        # writing these codes would take about 1.9 GiB, which `enumerate`
        # budgets; the listing holds only its 82,782 e2 classes
        listing = numth.qualifying_codes(512, 2)
        assert listing.count == 35_761_824 == numth.code_count(512, 2)
        assert len(listing.classes) == len(listing.residues) == 82_782

    def test_a_kept_class_sharing_a_factor_with_delta_raises(self, monkeypatch):
        real = numth.coset_representatives
        monkeypatch.setattr(numth, "coset_representatives",
                            lambda q, k, d: {**real(q, k, d), 5: 4})  # 5 | Delta = 40
        with pytest.raises(ConsistencyError, match="coset walk kept 5"):
            numth.qualifying_codes(3, 4)

    def test_a_class_of_the_wrong_size_raises(self, monkeypatch):
        real = numth.coset_representatives
        monkeypatch.setattr(numth, "coset_representatives",
                            lambda q, k, d: {**real(q, k, d), 1: 2})
        with pytest.raises(TheoremViolationError, match="deg h_1 != 4"):
            numth.qualifying_codes(3, 4)


class TestDigitSum:
    @pytest.mark.parametrize("x,p,expected", [(0, 3, 0), (7, 2, 3), (10, 3, 2)])
    def test_examples(self, x, p, expected):
        assert numth.digit_sum(x, p) == expected

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=2, max_value=16))
    def test_matches_digit_expansion(self, x, p):
        digits = []
        y = x
        while y:
            digits.append(y % p)
            y //= p
        assert numth.digit_sum(x, p) == sum(digits)


class TestSchmidtWhiteTheta:
    @pytest.mark.parametrize("u,p,f,expected", [(3, 2, 2, 1), (5, 2, 4, 2), (7, 2, 3, 1)])
    def test_examples(self, u, p, f, expected):
        assert numth.schmidt_white_theta(u, p, f) == expected

    def test_divisibility_required(self):
        with pytest.raises(InvalidArgumentError):
            numth.schmidt_white_theta(6, 2, 3)

    def test_u_must_exceed_one(self):
        with pytest.raises(InvalidArgumentError):
            numth.schmidt_white_theta(1, 2, 3)


class TestFactorization:
    @pytest.mark.parametrize("q,expected", [(8, (2, 3)), (9, (3, 2)), (7, (7, 1)), (1024, (2, 10))])
    def test_prime_power_split(self, q, expected):
        assert numth.prime_power_split(q) == expected

    @pytest.mark.parametrize("q", [6, 12, 1, 0])
    def test_non_prime_power(self, q):
        with pytest.raises(InvalidArgumentError):
            numth.prime_power_split(q)

    def test_is_prime_agrees_with_a_sieve(self):
        limit = 10**5
        sieve = bytearray([1]) * limit
        sieve[:2] = bytes(2)
        for d in range(2, math.isqrt(limit - 1) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
        primes = [n for n in range(limit) if sieve[n]]
        assert [n for n in range(-100, limit) if numth.is_prime(n)] == primes
        assert len(primes) == 9592

"""Exhaustive property sweeps behind the verify command and the test suite.

Each sweep checks one exact identity over a whole (q, k) block and
returns the pair (checked, counterexample): how many cases it checked
and the first counterexample as a dict, None when the identity held on
all of them.  run_block is the one place a PropertyResult is made: it
names the result by its property, and a result is ok exactly when it
carries no counterexample.  run_block is also the one error boundary: a
package error inside a sweep becomes the counterexample {"error":
message} so a runner can report every property it touched.  It yields
each result as its sweep returns, and a refused job
(ResourceLimitError) stops it after every finished result.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .characterize import build_code, enumerate_codes, two_weight_gap_scan
from .codes import (
    DEFAULT_BRUTE_CAP,
    WeightDistribution,
    char_sum_grid,
    check_macwilliams_budget,
    code_from_exponents,
    dual_claim_failure,
    macwilliams_dual,
    three_weight_distribution,
    weight_distribution_bruteforce,
    weight_distribution_trace,
)
from .errors import ConsistencyError, CyclocharError, ResourceLimitError
from .expsum import char_sum, code_spec, predict_char_sum, substitution, substitution_inverse
from .gf import ZERO, FieldCtx, field_for
from .numth import (
    check_budget,
    check_field,
    gcd_conditions,
    orbit_representative,
    prime_power_split,
    valid_orbits,
)


class PropertyResult(NamedTuple):
    prop: str
    q: int
    k: int
    checked: int
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        out = {
            "property": self.prop,
            "q": self.q,
            "k": self.k,
            "ok": self.ok,
            "checked": self.checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def default_pairs(length_limit: int, qs: range | None = None) -> Iterator[tuple[int, int]]:
    """All (q, k) with q a prime power, k >= 2 and q^k - 1 <= length_limit, lazily.

    Ordered by (q, k), and only q in qs, a step-1 range, when given.  As
    k >= 2, only q <= isqrt(length_limit + 1) can qualify, and no other q
    is looked at.
    """
    top = isqrt(max(length_limit, 0) + 1) + 1
    for q in range(2, top) if qs is None else range(max(qs.start, 2), min(qs.stop, top)):
        try:
            prime_power_split(q)
        except CyclocharError:
            continue
        k = 2
        while q**k - 1 <= length_limit:
            yield q, k
            k += 1


def valid_e2_values(q: int, k: int) -> Iterator[int]:
    """All e2 in [0, q^k - 1) satisfying the standing gcd(Delta, e2) = 1, lazily."""
    n = q**k - 1
    delta = n // (q - 1)
    return (e2 for e2 in range(n) if gcd(delta, e2) == 1)


def all_pairs(q: int, k: int) -> Iterator[tuple[int, int]]:
    """Every (e1, e2), e1 in [0, q-1) and e2 in valid_e2_values, lazily and e1-major."""
    return ((e1, e2) for e1 in range(q - 1) for e2 in valid_e2_values(q, k))


# Bytes per grid point budgeted for verify_substitution, whose peak holds 56
# (tracemalloc): the int64 index arrays, their image and round trip, and one
# temporary.
_SUBSTITUTION_BYTES_PER_POINT = 64


def verify_substitution(q: int, k: int) -> tuple[int, dict | None]:
    """Forward/inverse reindexing is a two-sided bijection on the whole grid.

    The map depends on (q, k, e2) only, so e1 contributes nothing new.
    Each e2 maps the whole grid at once, in row-major (i, j) order, and
    reports what a point-by-point scan would: the first point whose round
    trip fails.  The round trips alone decide the bijection: the forward
    map sends V into V through its two mods, and round trips that hold on
    all of V make it injective, so it is a bijection of the finite set V
    and the inverse is two-sided.  A Bezout pair that leaves the division
    inexact fails the round trip at that point (see expsum.substitution).

    One grid per class of e2 mod Delta is mapped.  As e2 ascends, e2 =
    c + t*Delta comes after its class representative c < Delta, whose
    grid passed with the pair (alpha, beta).  As Delta*(q - 1) = q^k - 1
    and Delta = k (mod q - 1), the pair (alpha, beta - t*alpha mod q - 1)
    for e2 makes its forward map c's composed with the shear S(i, j) =
    (i, j + t*i mod q - 1), and its inverse S^-1 composed with c's.  Its
    round trips are then c's conjugated by the bijection S of V and hold
    on all of V, with no validity of the pair needed: such an e2 adds |V|
    to checked, and substitution does not run for it; any other e2 maps
    its grid.  Returns (points checked, None), or the points before the
    first failing round trip and that point with its image and round trip.
    """
    n = q**k - 1
    r = q - 1
    delta = n // r
    check_budget("the substitution grid", _SUBSTITUTION_BYTES_PER_POINT * n * r)
    grid_i = np.repeat(np.arange(n, dtype=np.int64), r)
    grid_j = np.tile(np.arange(r, dtype=np.int64), n)
    checked = 0
    passed = {}  # class representative c < Delta whose grid passed -> its Bezout pair
    for e2 in valid_e2_values(q, k):
        spec = code_spec(q, k, e2)
        t, c = divmod(e2, delta)
        pair = passed.get(c)
        if pair is not None and spec.bezout == (pair.alpha, (pair.beta - t * pair.alpha) % r):
            checked += len(grid_i)
            continue
        v, w = substitution(spec, grid_i, grid_j)
        back_i, back_j = substitution_inverse(spec, v, w)
        trips = np.flatnonzero((back_i != grid_i) | (back_j != grid_j))
        if len(trips):
            p = int(trips[0])
            return checked + p, {
                "e2": e2, "i": int(grid_i[p]), "j": int(grid_j[p]), "v": int(v[p]),
                "w": int(w[p]), "back": [int(back_i[p]), int(back_j[p])],
            }
        checked += len(grid_i)
        if not t:
            passed[c] = spec.bezout
        del v, w, back_i, back_j  # so the next e2's four arrays do not stack on these
    return checked, None


def verify_char_sum_cases(ctx: FieldCtx) -> tuple[int, dict | None]:
    """Under both conditions the sum takes the predicted value in every class.

    The sum T is constant on a multiplier orbit of (e1, e2) (see
    numth.orbit_representative), so the representative of each
    qualifying orbit of numth.valid_orbits stands for all its pairs.  The
    sum depends on a only through Tr(a), and its predicted value on the
    class (tau, b) only on whether tau and b are zero, which the symmetry
    of codes.trace_weight_grid preserves: the representative classes
    reach the verdict of all q*q^k classes.  The count-vector path is
    evaluated directly on one (a, b) per case as well.  Returns
    (checked, counterexample): checked counts the classes and cases of
    every pair an orbit stands for, those of the orbits finished before a
    failure included; the counterexample, None if every value matched,
    names the representative pair and its first failing representative
    class (tau, b_col), b_col <= g, itself a class of the full grid, or
    its failing case.
    """
    q, k = ctx.q, ctx.k
    checked = 0
    reps = ctx.trace_class_reps()
    a_nz = int(reps[1:].min())  # the smallest a with Tr(a) != 0
    a_z = int(reps[0])  # the smallest a != 0 with Tr(a) = 0: k >= 2 (check_field)
    # predict_char_sum's four cases as regions of a grid, each later one written
    # over the earlier: row 0 holds the classes with Tr(a) = 0, column 0 those with b = 0
    regions = [
        (np.s_[:, :], predict_char_sum(q, k, False, False)),
        (np.s_[0, :], predict_char_sum(q, k, True, False)),
        (np.s_[:, 0], predict_char_sum(q, k, False, True)),
        (np.s_[0, 0], predict_char_sum(q, k, True, True)),
    ]
    cases = [
        (ZERO, ZERO, True, True),
        (ZERO, 0, True, False),
        (a_nz, ZERO, False, True),
        (a_nz, 0, False, False),
        (a_z, ZERO, True, True),
        (a_z, 0, True, False),
    ]
    for e1, e2, size in valid_orbits(q, k):
        if gcd_conditions(q, k, e1, e2) != (1, 1):
            continue
        grid = char_sum_grid(ctx, e1, e2)
        expected = np.empty_like(grid)
        for region, value in regions:
            expected[region] = value
        if not np.array_equal(grid, expected):
            tau, b = np.argwhere(grid != expected)[0]
            return checked, {
                "e1": e1, "e2": e2, "tau": int(tau), "b_col": int(b),
                "got": int(grid[tau, b]), "want": int(expected[tau, b]),
            }
        # direct count-vector evaluations, one per class
        for a, b, tz, bz in cases:
            got = char_sum(ctx, e1, e2, a, b).as_integer()
            want = predict_char_sum(q, k, tz, bz)
            if got != want:
                return checked, {"e1": e1, "e2": e2, "a": a, "b": b, "got": got, "want": want}
        checked += size * (q * ctx.order + len(cases))
    return checked, None


def verify_char_sum_unit_iff(ctx: FieldCtx) -> tuple[int, dict | None]:
    """T = 1 on the Tr(a) != 0, b != 0 classes iff gcd(q-1, k*e1 - e2) = 1.

    When the gcd is d > 1 every such value must be a nonunit multiple
    of d.  As in verify_char_sum_cases, one representative per orbit of
    numth.valid_orbits and the representative classes of
    codes.trace_weight_grid decide all (q - 1)(q^k - 1) classes of every
    pair.  Returns (checked, counterexample): checked counts all of them
    for every orbit finished, and the counterexample, None if every value
    met the claim, is a representative class of a representative pair.
    """
    q, k = ctx.q, ctx.k
    checked = 0
    for e1, e2, size in valid_orbits(q, k):
        d = gcd_conditions(q, k, e1, e2)[0]
        block = char_sum_grid(ctx, e1, e2)[1:, 1:]
        if d == 1:
            bad = np.argwhere(block != 1)
        else:
            bad = np.argwhere((block == 1) | (block % d != 0))
        if len(bad):
            tau, b = bad[0]
            return checked, {
                "e1": e1, "e2": e2, "d": d, "tau": int(tau) + 1, "b_col": int(b) + 1,
                "value": int(block[tau, b]),
            }
        checked += size * (q - 1) * ctx.m
    return checked, None


class BruteForceMemo:
    """Brute-forced weight distributions of one (q, k) block, one run per orbit.

    A unit multiplier maps the code of (e1, e2) onto the code of every
    pair in its orbit, so the orbit shares one distribution, kept under
    its numth.orbit_representative and brute-forced from that pair's
    code.  The representative is integer arithmetic mod q^k - 1 and never
    reads the trace route, so the two routes stay independent.
    """

    def __init__(self, ctx: FieldCtx, brute_cap: int = DEFAULT_BRUTE_CAP):
        self.ctx = ctx
        self.brute_cap = brute_cap
        self._by_orbit: dict[tuple[int, int], WeightDistribution] = {}

    def distribution(self, e1: int, e2: int) -> WeightDistribution:
        """The brute-forced distribution of the code of (e1, e2)'s orbit."""
        ctx = self.ctx
        rep = orbit_representative(ctx.q, ctx.k, e1, e2)
        wd = self._by_orbit.get(rep)
        if wd is None:
            code = code_from_exponents(ctx, *rep)
            wd = self._by_orbit[rep] = weight_distribution_bruteforce(ctx, code, self.brute_cap)
        return wd


def verify_three_weight_iff(memo: BruteForceMemo) -> tuple[int, dict | None]:
    """Brute-forced distribution equals the three-weight table iff both gcds hold.

    Scans every (e1, e2) in [0, q-1) x [0, q^k - 1) of memo's block,
    including pairs violating the standing assumption, and checks the
    conditions of each; the brute force runs once per multiplier orbit
    (memo) and never consults the trace representation.  Returns (pairs
    checked, None), or the pairs before the first pair where table match
    and conditions disagree, and that pair.
    """
    ctx = memo.ctx
    q, k, n = ctx.q, ctx.k, ctx.m
    table = three_weight_distribution(q, k)
    checked = 0
    for e1 in range(q - 1):
        for e2 in range(n):
            match = memo.distribution(e1, e2) == table
            conds = gcd_conditions(q, k, e1, e2) == (1, 1)
            if match != conds:
                return checked, {"e1": e1, "e2": e2, "table_match": match, "conditions": conds}
            checked += 1
    return checked, None


def verify_oracle_equivalence(memo: BruteForceMemo) -> tuple[int, dict | None]:
    """Trace-path distribution equals brute force for every pair of all_pairs.

    The trace path runs per pair of memo's block; the brute force runs
    once per multiplier orbit (memo).  Returns (pairs checked, None), or
    the pairs before the first disagreement, and that pair with both
    distributions.
    """
    ctx = memo.ctx
    checked = 0
    for e1, e2 in all_pairs(ctx.q, ctx.k):
        wd = weight_distribution_trace(ctx, e1, e2)
        brute = memo.distribution(e1, e2).entries
        if wd.entries != brute:
            return checked, {"e1": e1, "e2": e2, "trace": wd.entries, "brute": brute}
        checked += 1
    return checked, None


def verify_duality(ctx: FieldCtx) -> tuple[int, dict | None]:
    """MacWilliams involution and the claims of codes.dual_claim_failure.

    Runs over the qualifying orbits of numth.valid_orbits: the pairs of
    an orbit share one distribution, and checked counts the qualifying
    codes, size/k an orbit (a q-cyclotomic coset of e2 has k members).
    The transform and its inverse run once per distinct distribution;
    the transform itself checks the Pless moments, a failure there
    raises, and run_block reports it as an error.  The inverse's input,
    the dual, has at most n + 1 weights, so a block whose inverse the
    job budget would refuse is refused before any trace work.  Returns
    (checked, counterexample), the counterexample None if every code
    passed, else the representative pair and the claim it fails.
    """
    q, k, n = ctx.q, ctx.k, ctx.m
    check_macwilliams_budget(n, q, n + 1)
    checked = 0
    dim = k + 1
    failures: dict[tuple[tuple[int, int], ...], str | None] = {}
    for e1, e2, size in valid_orbits(q, k):
        if gcd_conditions(q, k, e1, e2) != (1, 1):
            continue
        wd = weight_distribution_trace(ctx, e1, e2)
        key = tuple(sorted(wd.entries.items()))
        if key not in failures:
            dual = macwilliams_dual(wd, q, dim)
            if macwilliams_dual(dual, q, n - dim) != wd:
                failures[key] = "involution"
            else:
                claim = dual_claim_failure(dual, q, k)
                failures[key] = claim[0] if claim else None
        if failures[key]:
            return checked, {"e1": e1, "e2": e2, "failure": failures[key]}
        checked += size // k
    return checked, None


def verify_enumeration(ctx: FieldCtx) -> tuple[int, dict | None]:
    """Enumeration agrees with the closed-form count and every entry verifies.

    A unit multiplier maps the code of (e1, e2) onto that of every pair
    in its orbit (numth.orbit_representative): build_code runs once per
    qualifying orbit of numth.valid_orbits, and a listed pair only has
    its representative looked up, with no minimal polynomial, trace
    kernel or dual prefix of its own.  Returns (codes listed, None): a
    failure raises, and run_block reports it.
    """
    q, k = ctx.q, ctx.k
    listing = enumerate_codes(q, k, ctx.order)  # every listing check has run
    built = set()
    for e1, e2, _ in valid_orbits(q, k):
        if gcd_conditions(q, k, e1, e2) == (1, 1):
            build_code(ctx, e1, e2)
            built.add((e1, e2))
    checked = 0
    for e1, e2 in listing:
        if orbit_representative(q, k, e1, e2) not in built:
            raise ConsistencyError(f"listed pair ({e1}, {e2}) lies in no qualifying orbit")
        checked += 1
    return checked, None


def verify_two_weight_gaps(memo: BruteForceMemo) -> tuple[int, dict | None]:
    """No two-weight irreducible code has adjacent weights; systems solve.

    Returns (codes scanned, None): a failure raises, and run_block reports it.
    """
    entries = two_weight_gap_scan(memo.ctx, memo.brute_cap)
    return len(entries), None


# property -> runner(q, k, ctx, memo), memo the block's BruteForceMemo.
# Each runner looks its sweep up by module-global name when it is called, so
# a rebound name (a wrapper, a test double) takes effect without rebuilding
# the table.
_RUNNERS = {
    "substitution_bijection": lambda q, k, ctx, memo: verify_substitution(q, k),
    "char_sum_cases": lambda q, k, ctx, memo: verify_char_sum_cases(ctx),
    "char_sum_unit_iff": lambda q, k, ctx, memo: verify_char_sum_unit_iff(ctx),
    "three_weight_iff_conditions": lambda q, k, ctx, memo: verify_three_weight_iff(memo),
    "oracle_equivalence": lambda q, k, ctx, memo: verify_oracle_equivalence(memo),
    "duality_suite": lambda q, k, ctx, memo: verify_duality(ctx),
    "enumeration_count": lambda q, k, ctx, memo: verify_enumeration(ctx),
    "two_weight_gaps": lambda q, k, ctx, memo: verify_two_weight_gaps(memo),
}
PROPERTIES = tuple(_RUNNERS)
# Sweeps that read no field: run_block builds the block's field only once
# a sweep outside this set is about to run.
_FIELDLESS = frozenset({"substitution_bijection"})


def run_block(
    q: int, k: int, field_cap: int, props=PROPERTIES, brute_cap: int = DEFAULT_BRUTE_CAP
) -> Iterator[PropertyResult]:
    """Run the selected sweeps for one (q, k) block, yielding each result as it finishes.

    check_field accepts (q, k) when iteration starts.  The block's field
    is built just before the first sweep that reads it, so a fieldless
    sweep the job budget refuses costs no field.  The two brute-force
    sweeps share one BruteForceMemo.

    This is the one place a PropertyResult is made, named by its key in
    _RUNNERS from the sweep's (checked, counterexample), and the sweeps'
    one error boundary: a package error inside a sweep becomes (0,
    {"error": message}), except a ResourceLimitError: that stops the
    generator after every earlier result has been yielded.
    """
    check_field(q, k, field_cap)
    ctx = memo = None
    for prop in props:
        if ctx is None and prop not in _FIELDLESS:
            ctx = field_for(q, k, cap=field_cap)
            memo = BruteForceMemo(ctx, brute_cap)
        try:
            checked, counterexample = _RUNNERS[prop](q, k, ctx, memo)
        except ResourceLimitError:
            raise
        except CyclocharError as exc:
            checked, counterexample = 0, {"error": str(exc)}
        yield PropertyResult(prop, q, k, checked, counterexample)

"""The verify sweeps against the loops they replaced, kept here as references.

verify_three_weight_iff and verify_oracle_equivalence brute-force one code
per multiplier orbit, verify_enumeration builds one code per qualifying
orbit, verify_substitution maps one whole grid at once per class of e2 mod
Delta, and the two character-sum sweeps read only the orbit
representatives of the trace grid.  The references below are the loops
they replaced: the per-pair three-weight scan and the oracle scan, each
sharing a brute force only between pairs with the same parity check,
build_code on every listed code, the point-by-point substitution scan
over scalar copies of the two maps, and the character-sum sweeps over the
full (q, q^k) grid.  Each returns (checked, counterexample), the
counterexample None when the identity held.  A sweep and its reference
must agree on both (or raise the same error), on clean runs and under
injected faults; a character-sum sweep may name a different failing
class, as long as it fails in the reference grid too.

The two character-sum sweeps and the duality sweep walk one
representative per multiplier orbit, so a fault injected here covers a
whole orbit, as a real fault would: the sweeps rely on T and the
distribution being constant on an orbit.  Under a fault a character-sum
sweep names the representative of the orbit where its reference fails.
"""

import json
import math
import tracemalloc
from itertools import chain, islice

import numpy as np
import pytest

from cyclochar import characterize, cli, codes, expsum, gf, numth, verify
from cyclochar.errors import CyclocharError, ResourceLimitError
from cyclochar.gf import ZERO
from test_codes import expand_orbit_columns
from test_numth import multiplier_orbit

PAIRS_63 = list(verify.default_pairs(63))
PAIRS_127 = list(verify.default_pairs(127))
PAIRS_255 = list(verify.default_pairs(255))


# -- references ---------------------------------------------------------------


def reference_brute(ctx, e1, e2, cap, cache):
    """Brute force shared between pairs with the same parity check."""
    h = codes.parity_check_from_exponents(ctx, e1, e2)
    if h not in cache:
        cache[h] = verify.weight_distribution_bruteforce(ctx, codes.cyclic_code(ctx, h), cap)
    return cache[h]


def reference_three_weight_iff(ctx, brute_cap=numth.DEFAULT_BRUTE_CAP):
    q, k, n = ctx.q, ctx.k, ctx.m
    table = codes.three_weight_distribution(q, k)
    cache = {}
    checked = 0
    for e1 in range(q - 1):
        for e2 in range(n):
            match = reference_brute(ctx, e1, e2, brute_cap, cache) == table
            conds = verify.gcd_conditions(q, k, e1, e2) == (1, 1)
            if match != conds:
                return checked, {"e1": e1, "e2": e2, "table_match": match, "conditions": conds}
            checked += 1
    return checked, None


def reference_oracle_equivalence(ctx, brute_cap=numth.DEFAULT_BRUTE_CAP):
    cache = {}
    checked = 0
    for e1, e2 in verify.all_pairs(ctx.q, ctx.k):
        wd = verify.weight_distribution_trace(ctx, e1, e2)
        brute = reference_brute(ctx, e1, e2, brute_cap, cache).entries
        if wd.entries != brute:
            return checked, {"e1": e1, "e2": e2, "trace": wd.entries, "brute": brute}
        checked += 1
    return checked, None


def reference_enumeration(ctx):
    """build_code on every listed code, one at a time."""
    checked = 0
    for e1, e2 in verify.enumerate_codes(ctx.q, ctx.k, ctx.order):
        verify.build_code(ctx, e1, e2)
        checked += 1
    return checked, None


def scalar_substitution(q, k, e2, pair, i, j):
    m = q**k - 1
    delta = m // (q - 1)
    v = (e2 * i + delta * j) % m
    return v, (i - pair.alpha * v) // delta % (q - 1)


def scalar_substitution_inverse(q, k, e2, pair, v, w):
    m = q**k - 1
    delta = m // (q - 1)
    return (pair.alpha * v + delta * w) % m, (pair.beta * v - e2 * w) % (q - 1)


def reference_substitution(q, k):
    n = q**k - 1
    checked = 0
    for e2 in verify.valid_e2_values(q, k):
        pair = numth.bezout_pair(e2, q, k)
        seen = bytearray(n * (q - 1))
        for i in range(n):
            for j in range(q - 1):
                v, w = scalar_substitution(q, k, e2, pair, i, j)
                back = scalar_substitution_inverse(q, k, e2, pair, v, w)
                if back != (i, j):
                    return checked, {"e2": e2, "i": i, "j": j, "v": v, "w": w, "back": list(back)}
                flat = v * (q - 1) + w
                if seen[flat]:
                    return checked, {"e2": e2, "collision_at": [v, w]}
                seen[flat] = 1
                checked += 1
    return checked, None


def inject_bezout(monkeypatch, solve):
    """Solve every Bezout pair with solve, in the substitution sweep and in
    reference_substitution alike."""
    monkeypatch.setattr(verify, "bezout_pair", solve)
    monkeypatch.setattr(numth, "bezout_pair", solve)


def full_char_sum_grid(ctx, e1, e2):
    return expand_orbit_columns(ctx, e1, e2, verify.char_sum_grid(ctx, e1, e2))


def expected_case_table(q, n, shape):
    expected = np.full(shape, 1, dtype=np.int64)
    expected[0, :] = -(q - 1)
    expected[0, 0] = (q - 1) * n
    expected[1:, 0] = -n
    return expected


def unit_failures(block, d):
    """Mask of the Tr(a) != 0, b != 0 classes that break the unit claim."""
    return block != 1 if d == 1 else (block == 1) | (block % d != 0)


def reference_char_sum_cases(ctx):
    """The case sweep over the full grid of every qualifying pair."""
    q, k = ctx.q, ctx.k
    checked = 0
    reps = ctx.trace_class_reps()
    a_nz = int(reps[1:].min())
    a_z = int(reps[0]) if reps[0] < ctx.m else None
    n = ctx.m
    for e1, e2 in verify.all_pairs(q, k):
        if verify.gcd_conditions(q, k, e1, e2) != (1, 1):
            continue
        grid = full_char_sum_grid(ctx, e1, e2)
        expected = expected_case_table(q, n, grid.shape)
        if not np.array_equal(grid, expected):
            tau, b = np.argwhere(grid != expected)[0]
            return checked, {"e1": e1, "e2": e2, "tau": int(tau), "b_col": int(b),
                             "got": int(grid[tau, b]), "want": int(expected[tau, b])}
        checked += grid.size
        cases = [(ZERO, ZERO, True, True), (ZERO, 0, True, False),
                 (a_nz, ZERO, False, True), (a_nz, 0, False, False)]
        if a_z is not None:
            cases += [(a_z, ZERO, True, True), (a_z, 0, True, False)]
        for a, b, tz, bz in cases:
            got = verify.char_sum(ctx, e1, e2, a, b).as_integer()
            want = verify.predict_char_sum(q, k, tz, bz)
            if got != want:
                return checked, {"e1": e1, "e2": e2, "a": a, "b": b, "got": got, "want": want}
            checked += 1
    return checked, None


def reference_char_sum_unit_iff(ctx):
    """The unit sweep over the full grid of every pair."""
    q, k = ctx.q, ctx.k
    checked = 0
    for e1, e2 in verify.all_pairs(q, k):
        d = verify.gcd_conditions(q, k, e1, e2)[0]
        block = full_char_sum_grid(ctx, e1, e2)[1:, 1:]
        bad = np.argwhere(unit_failures(block, d))
        if len(bad):
            tau, b = bad[0]
            return checked, {"e1": e1, "e2": e2, "d": d, "tau": int(tau) + 1,
                             "b_col": int(b) + 1, "value": int(block[tau, b])}
        checked += block.size
    return checked, None


def checked_before(q, k, rep, per_pair, qualifying):
    """The checked count of a sweep that fails at the orbit of rep: per_pair
    for every pair of the orbits walked before it."""
    total = 0
    for e1, e2, size in numth.valid_orbits(q, k):
        if (e1, e2) == rep:
            return total
        if not qualifying or numth.gcd_conditions(q, k, e1, e2) == (1, 1):
            total += size * per_pair
    raise AssertionError(f"{rep} is not an orbit representative")


def assert_char_sum_sweeps_match(q, k, ctx):
    """Both character-sum sweeps against their full-grid references.

    Both pass or both fail, with the same checked on success.  On failure
    the sweep names the representative of the orbit of the reference's
    pair, and checked counts the orbits walked before it.  A failing class the sweep names
    must fail, with the same value, in the reference grid of its pair,
    and a failing direct case must be the reference's own.  Returns both
    outcomes.
    """
    outcomes = []
    for sweep, reference, per_pair, qualifying in [
        (verify.verify_char_sum_cases, reference_char_sum_cases, q * q**k + 6, True),
        (verify.verify_char_sum_unit_iff, reference_char_sum_unit_iff, (q - 1) * ctx.m, False),
    ]:
        got = outcome(sweep, ctx)
        want = outcome(reference, ctx)
        assert (got[1] is None) == (want[1] is None)
        cex = got[1]
        if cex is None or "e1" not in cex:
            assert got == want
            outcomes.append(got)
            continue
        rep = (cex["e1"], cex["e2"])
        assert numth.orbit_representative(q, k, want[1]["e1"], want[1]["e2"]) == rep
        assert got[0] == checked_before(q, k, rep, per_pair, qualifying)
        if "tau" not in cex:
            assert cex == {**want[1], "e1": rep[0], "e2": rep[1]}
        else:
            assert cex["b_col"] <= math.gcd(cex["e2"], ctx.delta)
            grid = full_char_sum_grid(ctx, cex["e1"], cex["e2"])
            value = int(grid[cex["tau"], cex["b_col"]])
            if "want" in cex:
                want_value = expected_case_table(q, ctx.m, grid.shape)[cex["tau"], cex["b_col"]]
                assert (value, int(want_value)) == (cex["got"], cex["want"]) and value != want_value
            else:
                assert value == cex["value"] and unit_failures(np.array(value), cex["d"])
        outcomes.append(got)
    return outcomes


def perturb_kernel(monkeypatch, q, k, target, classes):
    """Add one to the weight of each class of the trace kernel's output for
    every pair of the orbit of target, where every caller reads it."""
    real = codes.trace_weight_grid
    orbit = multiplier_orbit(q, k, *target)

    def perturbed(ctx, e1, e2):
        g, weights = real(ctx, e1, e2)
        if (e1, e2) in orbit:
            for cls in classes:
                weights[cls] += 1
        return g, weights

    monkeypatch.setattr(codes, "trace_weight_grid", perturbed)


def outcome(sweep, *args):
    """(checked, counterexample) of a sweep, or (name, message) of the error it raised."""
    try:
        return sweep(*args)
    except CyclocharError as exc:
        return type(exc).__name__, str(exc)


def mid_qualifying_rep(q, k):
    """First pair, in scan order, of the orbit of a middle qualifying pair.

    Its parity check is met first at that pair, by both the orbit memo and
    the per-parity-check reference: with gcd(Delta, e2) = 1, pairs sharing
    a parity check differ by a power of q, so they share an orbit too.
    """
    pairs = [p for p in verify.all_pairs(q, k) if verify.gcd_conditions(q, k, *p) == (1, 1)]
    return min(multiplier_orbit(q, k, *pairs[len(pairs) // 2]))


# -- the sweeps equal their references ----------------------------------------


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_three_weight_sweep_equals_the_per_pair_loop(q, k):
    ctx = gf.field_for(q, k)
    got = outcome(verify.verify_three_weight_iff, verify.BruteForceMemo(ctx))
    assert got == outcome(reference_three_weight_iff, ctx)
    assert got == ((q - 1) * (q**k - 1), None)


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_oracle_sweep_equals_the_per_parity_check_loop(q, k):
    ctx = gf.field_for(q, k)
    got = outcome(verify.verify_oracle_equivalence, verify.BruteForceMemo(ctx))
    assert got == outcome(reference_oracle_equivalence, ctx)
    assert got[1] is None


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_substitution_sweep_equals_the_scalar_loop(q, k):
    got = outcome(verify.verify_substitution, q, k)
    assert got == outcome(reference_substitution, q, k)
    assert got[1] is None


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_char_sum_sweeps_equal_the_full_grid_loops(q, k):
    ctx = gf.field_for(q, k)
    cases, unit = assert_char_sum_sweeps_match(q, k, ctx)
    assert cases[1] is None and unit[1] is None
    pairs = sum(1 for _ in verify.all_pairs(q, k))
    assert unit[0] == pairs * (q - 1) * ctx.m


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_char_sums_are_constant_on_every_orbit(q, k):
    # what lets both character-sum sweeps read one pair per orbit
    ctx = gf.field_for(q, k)
    reps = ctx.trace_class_reps()
    a_values = [ZERO, int(reps[1:].min())] + ([int(reps[0])] if reps[0] < ctx.m else [])
    points = [(a, b) for a in a_values for b in (ZERO, 0)]
    for e1, e2, size in numth.valid_orbits(q, k):
        grid = verify.char_sum_grid(ctx, e1, e2)
        sums = [verify.char_sum(ctx, e1, e2, a, b) for a, b in points]
        orbit = multiplier_orbit(q, k, e1, e2)
        assert len(orbit) == size
        for pair in orbit:
            assert np.array_equal(verify.char_sum_grid(ctx, *pair), grid), pair
            assert [verify.char_sum(ctx, *pair, a, b) for a, b in points] == sums, pair


@pytest.mark.parametrize("q,k", [(2, 6), (3, 3), (4, 3), (5, 2), (8, 2)])
def test_cap_refusal_comes_at_the_same_pair(q, k, monkeypatch):
    # a cap of q^k refuses every code of dimension k + 1
    ctx = gf.field_for(q, k)
    for sweep, reference in [
        (verify.verify_three_weight_iff, reference_three_weight_iff),
        (verify.verify_oracle_equivalence, reference_oracle_equivalence),
    ]:
        outcomes = []
        for fn, args in [(sweep, (verify.BruteForceMemo(ctx, q**k),)), (reference, (ctx, q**k))]:
            met = []
            for name in ("gcd_conditions", "weight_distribution_trace"):
                real = getattr(verify, name)
                monkeypatch.setattr(verify, name,
                                    lambda *a, real=real: met.append(a[-2:]) or real(*a))
            outcomes.append((outcome(fn, *args), met))
            monkeypatch.undo()
        assert outcomes[0] == outcomes[1]
        assert "exceed the brute-force cap" in outcomes[0][0][1]


# -- and under injected faults ------------------------------------------------


@pytest.mark.parametrize("q,k", PAIRS_63)
def test_a_flipped_condition_is_caught_at_the_same_pair(q, k, monkeypatch):
    ctx = gf.field_for(q, k)
    target = ((q - 1) // 2, (q**k - 1) // 2)
    real = verify.gcd_conditions

    def flipped(q_, k_, e1, e2):
        conds = real(q_, k_, e1, e2)
        return ((1, 1) if conds != (1, 1) else (2, 1)) if (e1, e2) == target else conds

    monkeypatch.setattr(verify, "gcd_conditions", flipped)
    got = outcome(verify.verify_three_weight_iff, verify.BruteForceMemo(ctx))
    assert got == outcome(reference_three_weight_iff, ctx)
    assert (got[1]["e1"], got[1]["e2"]) == target


@pytest.mark.parametrize("q,k", PAIRS_63)
def test_a_corrupted_distribution_is_caught_at_the_same_pair(q, k, monkeypatch):
    ctx = gf.field_for(q, k)
    target = mid_qualifying_rep(q, k)
    bad_h = {codes.parity_check_from_exponents(ctx, *pair) for pair in multiplier_orbit(q, k, *target)}
    real = verify.weight_distribution_bruteforce

    def corrupted(ctx_, code, cap=numth.DEFAULT_BRUTE_CAP):
        wd = real(ctx_, code, cap)
        if code.parity_check in bad_h:
            wd = codes.WeightDistribution(wd.n, {**wd.entries, 0: 2})
        return wd

    monkeypatch.setattr(verify, "weight_distribution_bruteforce", corrupted)
    for sweep, reference in [
        (verify.verify_three_weight_iff, reference_three_weight_iff),
        (verify.verify_oracle_equivalence, reference_oracle_equivalence),
    ]:
        got = outcome(sweep, verify.BruteForceMemo(ctx))
        assert got == outcome(reference, ctx)
        assert (got[1]["e1"], got[1]["e2"]) == target


@pytest.mark.parametrize("classes", [((0, 0), (-1, 1)), ((0, 1), (-1, 0))])
@pytest.mark.parametrize("q,k", PAIRS_255)
def test_perturbed_trace_classes_are_caught_by_both_char_sum_sweeps(q, k, classes, monkeypatch):
    # two classes of one pair's kernel output, each off by one weight:
    # row 0 or the last row, column 0 (b = 0) or column 1 (b = 1)
    ctx = gf.field_for(q, k)
    target = mid_qualifying_rep(q, k)
    rep = numth.orbit_representative(q, k, *target)
    perturb_kernel(monkeypatch, q, k, target, classes)
    cases, unit = assert_char_sum_sweeps_match(q, k, ctx)
    assert isinstance(cases[1], dict) and (cases[1]["e1"], cases[1]["e2"]) == rep
    if (-1, 1) in classes:  # only the Tr(a) != 0, b != 0 classes bear on the unit claim
        assert isinstance(unit[1], dict) and (unit[1]["e1"], unit[1]["e2"]) == rep
    else:
        assert unit[1] is None


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_a_wrong_direct_char_sum_is_caught_at_the_same_case(q, k, monkeypatch):
    ctx = gf.field_for(q, k)
    target = mid_qualifying_rep(q, k)
    orbit = multiplier_orbit(q, k, *target)
    real = verify.char_sum

    def wrong(ctx_, e1, e2, a, b):
        value = real(ctx_, e1, e2, a, b)
        if (e1, e2) in orbit and b == 0:
            return expsum.CyclotomicCount((value.counts[0] + 1, *value.counts[1:]))
        return value

    monkeypatch.setattr(verify, "char_sum", wrong)
    cases, _ = assert_char_sum_sweeps_match(q, k, ctx)
    assert isinstance(cases[1], dict) and "a" in cases[1]
    assert (cases[1]["e1"], cases[1]["e2"]) == numth.orbit_representative(q, k, *target)


def test_a_duality_block_over_the_budget_is_refused_before_any_trace_work(monkeypatch):
    # at (149, 2) the forward transform of the four weights fits the job
    # budget, but an inverse over the dual's n + 1 weights at most does not
    def forbidden(*args):
        raise AssertionError("the trace route ran")

    codes.check_macwilliams_budget(149**2 - 1, 149, 4)
    monkeypatch.setattr(verify, "weight_distribution_trace", forbidden)
    with pytest.raises(ResourceLimitError):
        list(verify.run_block(149, 2, numth.DEFAULT_FIELD_CAP, ("duality_suite",)))


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_duality_sweep_counts_every_code_with_one_transform_each_way(q, k, monkeypatch):
    dims = []
    real = verify.macwilliams_dual
    monkeypatch.setattr(verify, "macwilliams_dual",
                        lambda wd, q_, dim: dims.append(dim) or real(wd, q_, dim))
    checked, counterexample = verify.verify_duality(gf.field_for(q, k))
    assert counterexample is None and checked == numth.code_count(q, k)
    assert dims == [k + 1, q**k - 1 - (k + 1)]


@pytest.mark.parametrize("q,k", [(3, 3), (4, 2), (5, 3), (7, 2), (8, 2), (11, 2)])
def test_a_foreign_distribution_on_one_orbit_fails_the_duality_sweep(q, k, monkeypatch):
    # the distribution of a valid pair that breaks the first condition
    # stands in for every code of one qualifying orbit
    ctx = gf.field_for(q, k)
    orbits = list(numth.valid_orbits(q, k))
    foreign = next((e1, e2) for e1, e2, _ in orbits if numth.gcd_conditions(q, k, e1, e2) != (1, 1))
    target = mid_qualifying_rep(q, k)
    orbit = multiplier_orbit(q, k, *target)
    real = verify.weight_distribution_trace
    monkeypatch.setattr(verify, "weight_distribution_trace",
                        lambda ctx_, e1, e2: real(ctx_, *(foreign if (e1, e2) in orbit else (e1, e2))))
    checked, counterexample = verify.verify_duality(ctx)
    rep = numth.orbit_representative(q, k, *target)
    assert counterexample is not None
    assert counterexample == {"e1": rep[0], "e2": rep[1], "failure": "B1_B2_nonzero"}
    # the codes of the qualifying orbits walked before it
    assert checked * k == checked_before(q, k, rep, 1, True)


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_enumeration_sweep_equals_the_per_code_loop(q, k):
    ctx = gf.field_for(q, k)
    got = outcome(verify.verify_enumeration, ctx)
    assert got == outcome(reference_enumeration, ctx)
    assert got == (numth.code_count(q, k), None)


@pytest.mark.parametrize("q,k", PAIRS_63)
def test_a_corrupted_orbit_fails_both_enumeration_routes_alike(q, k, monkeypatch):
    # every code of one qualifying orbit gets a distribution off the table
    ctx = gf.field_for(q, k)
    orbit = multiplier_orbit(q, k, *mid_qualifying_rep(q, k))
    real = characterize.weight_distribution_trace

    def corrupted(ctx_, e1, e2):
        wd = real(ctx_, e1, e2)
        if (e1, e2) in orbit:
            wd = codes.WeightDistribution(wd.n, {**wd.entries, 0: 2})
        return wd

    monkeypatch.setattr(characterize, "weight_distribution_trace", corrupted)
    got = outcome(verify.verify_enumeration, ctx)
    assert got == outcome(reference_enumeration, ctx)
    assert got[0] == "TheoremViolationError"


@pytest.mark.parametrize("q,k", PAIRS_63)
def test_a_listed_non_qualifying_pair_fails_both_enumeration_routes(q, k, monkeypatch):
    ctx = gf.field_for(q, k)
    bad = [(e1, e2) for e1 in range(q - 1) for e2 in range(ctx.m)
           if numth.gcd_conditions(q, k, e1, e2) != (1, 1)]
    extra = bad[len(bad) // 2]
    real = verify.enumerate_codes
    monkeypatch.setattr(verify, "enumerate_codes",
                        lambda q_, k_, cap: chain(real(q_, k_, cap), [extra]))
    assert outcome(verify.verify_enumeration, ctx)[0] == "ConsistencyError"
    assert outcome(reference_enumeration, ctx)[0] == "ConditionFailedError"


def test_enumeration_builds_one_code_per_qualifying_orbit(monkeypatch):
    calls = []
    real = verify.build_code
    monkeypatch.setattr(verify, "build_code",
                        lambda ctx, e1, e2: calls.append((e1, e2)) or real(ctx, e1, e2))
    assert verify.verify_enumeration(gf.field_for(64, 2)) == (54_432, None)
    assert len(set(calls)) == len(calls) == 63


def test_enumeration_reads_the_raised_field_cap():
    # the listing takes the block's field cap, not the default 2^20
    (result,) = verify.run_block(2, 21, 1 << 21, ("enumeration_count",))
    assert result == verify.PropertyResult("enumeration_count", 2, 21, 84_672)


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("q,k", PAIRS_63)
def test_an_off_by_one_bezout_pair_gives_the_same_outcome(q, k, field, monkeypatch):
    ctx = gf.field_for(q, k)
    real = numth.bezout_pair

    def off_by_one(e2, q_, k_):
        pair = real(e2, q_, k_)
        if field == "alpha":
            return numth.BezoutPair((pair.alpha + 1) % (q_**k_ - 1), pair.beta)
        return numth.BezoutPair(pair.alpha, (pair.beta + 1) % (q_ - 1))

    inject_bezout(monkeypatch, off_by_one)
    got = outcome(verify.verify_substitution, q, k)
    assert got == outcome(reference_substitution, q, k)
    if (field, q) != ("beta", 2):
        assert isinstance(got[1], dict) and "back" in got[1]
    assert outcome(verify.verify_oracle_equivalence, verify.BruteForceMemo(ctx)) == outcome(
        reference_oracle_equivalence, ctx
    )


@pytest.mark.parametrize("fault", ["alpha_from_delta", "beta_at_delta_plus_1"])
@pytest.mark.parametrize("q,k", PAIRS_255)
def test_a_faulty_bezout_pair_past_the_class_representatives_is_caught(q, k, fault, monkeypatch):
    # an e2 >= Delta is skipped only when its pair is the sheared pair of its
    # class representative; a fault that spares the representatives is caught
    # by mapping that e2's own grid, at the same point as the reference
    n, delta = q**k - 1, (q**k - 1) // (q - 1)
    real = numth.bezout_pair

    def faulty(e2, q_, k_):
        alpha, beta = real(e2, q_, k_)
        if fault == "alpha_from_delta" and e2 >= delta:
            alpha = (alpha + 1) % n
        if fault == "beta_at_delta_plus_1" and e2 == delta + 1:
            beta = (beta + 1) % (q - 1)
        return numth.BezoutPair(alpha, beta)

    inject_bezout(monkeypatch, faulty)
    got = outcome(verify.verify_substitution, q, k)
    assert got == outcome(reference_substitution, q, k)
    if q > 2:  # for q = 2, Delta = n: no e2 lies past its class representative
        assert isinstance(got[1], dict) and "back" in got[1] and got[1]["e2"] > delta


def test_substitution_maps_one_grid_per_class_of_e2_mod_delta(monkeypatch):
    # (64, 2): Delta = 65, so 48 grids stand for all 3024 unit e2
    calls = []
    real = verify.substitution
    monkeypatch.setattr(verify, "substitution",
                        lambda q, k, e2, pair, i, j: calls.append(e2) or real(q, k, e2, pair, i, j))
    assert verify.verify_substitution(64, 2) == (3024 * 4095 * 63, None)
    assert calls == [e2 for e2 in range(65) if math.gcd(e2, 65) == 1]
    assert len(calls) == 48


def test_an_error_after_a_failed_round_trip_is_not_reported(monkeypatch):
    # alpha + 1 leaves the division inexact at (1, 0), after a round trip
    # fails at (0, 1): the sweep names the earlier point
    real = numth.bezout_pair
    monkeypatch.setattr(verify, "bezout_pair",
                        lambda e2, q, k: numth.BezoutPair(real(e2, q, k).alpha + 1, 0))
    checked, counterexample = verify.verify_substitution(4, 3)
    assert counterexample is not None
    assert (checked, counterexample["i"], counterexample["j"]) == (1, 0, 1)


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_an_inexact_division_fails_its_round_trip_first(q, k, monkeypatch):
    # alpha + t, 1 <= t < 4, for the first three unit e2: the sweep's first
    # failing point comes at or before the first point where Delta does not
    # divide i - alpha*v, so an inexact division needs no check of its own
    n, delta = q**k - 1, (q**k - 1) // (q - 1)
    i = np.repeat(np.arange(n), q - 1)
    j = np.tile(np.arange(q - 1), n)
    real = numth.bezout_pair
    for e2 in islice(verify.valid_e2_values(q, k), 3):
        alpha = real(e2, q, k).alpha
        monkeypatch.setattr(verify, "valid_e2_values", lambda q_, k_: [e2])
        for t in range(1, 4):
            monkeypatch.setattr(verify, "bezout_pair", lambda e2_, q_, k_: numth.BezoutPair(
                (alpha + t) % n, real(e2_, q_, k_).beta))
            inexact = np.flatnonzero((i - (alpha + t) % n * ((e2 * i + delta * j) % n)) % delta)
            checked, counterexample = verify.verify_substitution(q, k)
            if len(inexact):
                assert counterexample is not None and checked <= inexact[0], (e2, t)


@pytest.mark.parametrize("q,k", [(q, k) for q, k in PAIRS_63 if q > 2])
def test_a_many_to_one_forward_map_is_caught_by_its_round_trips(q, k, monkeypatch):
    # w forced to 0 sends q - 1 points onto each image: no collision check
    # is needed, as a round trip fails at or before a repeated (v, w)
    real_map, real_scalar = verify.substitution, scalar_substitution
    monkeypatch.setattr(verify, "substitution", lambda q_, k_, e2, pair, i, j: (
        real_map(q_, k_, e2, pair, i, j)[0], 0 * i))
    monkeypatch.setitem(globals(), "scalar_substitution", lambda q_, k_, e2, pair, i, j: (
        real_scalar(q_, k_, e2, pair, i, j)[0], 0))
    got = outcome(verify.verify_substitution, q, k)
    assert got == outcome(reference_substitution, q, k)
    assert isinstance(got[1], dict) and "back" in got[1]


def test_the_substitution_sweep_stays_inside_its_per_point_budget(monkeypatch):
    # (32, 3) has 1,015,777 grid points; from the second e2 on, arrays the
    # previous e2 left alive would stack on the new ones
    real = verify.valid_e2_values
    monkeypatch.setattr(verify, "valid_e2_values", lambda q, k: islice(real(q, k), 3))
    points = (32**3 - 1) * 31
    tracemalloc.start()
    try:
        checked, counterexample = verify.verify_substitution(32, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counterexample is None and checked == 3 * points
    assert peak <= verify._SUBSTITUTION_BYTES_PER_POINT * points


# -- run_block names every result ---------------------------------------------


SWEEPS = {
    "substitution_bijection": "verify_substitution",
    "char_sum_cases": "verify_char_sum_cases",
    "char_sum_unit_iff": "verify_char_sum_unit_iff",
    "three_weight_iff_conditions": "verify_three_weight_iff",
    "oracle_equivalence": "verify_oracle_equivalence",
    "duality_suite": "verify_duality",
    "enumeration_count": "verify_enumeration",
    "two_weight_gaps": "verify_two_weight_gaps",
}


@pytest.mark.parametrize("prop", verify.PROPERTIES)
def test_run_block_names_the_pair_each_sweep_returns(prop, monkeypatch, capsys):
    # a sweep returns (checked, counterexample); the result takes its name
    # from run_block, and it is ok exactly when there is no counterexample
    for counterexample in ({"x": 1}, None):
        monkeypatch.setattr(verify, SWEEPS[prop], lambda *args, cex=counterexample: (7, cex))
        (result,) = verify.run_block(2, 3, 1 << 20, (prop,))
        assert result == verify.PropertyResult(prop, 2, 3, 7, counterexample)
        assert result.ok is (counterexample is None)
    monkeypatch.setattr(verify, SWEEPS[prop], lambda *args: (7, {"x": 1}))
    code = cli.main(["verify", "--q", "2", "--k", "3", "--props", prop, "--format", "text"])
    out, _ = capsys.readouterr()
    assert code == 3
    assert out == f'FAIL {prop} q=2 k=3 checked=7 counterexample={{"x": 1}}\n'


# -- the multiplier fact and the independence of the two routes --------------


@pytest.mark.parametrize("q,k", PAIRS_127)
def test_every_parity_check_has_its_orbit_representatives_distribution(q, k):
    ctx = gf.field_for(q, k)
    memo = verify.BruteForceMemo(ctx)
    seen = set()
    for e1 in range(q - 1):
        for e2 in range(q**k - 1):
            h = codes.parity_check_from_exponents(ctx, e1, e2)
            if h in seen:
                continue
            seen.add(h)
            own = codes.weight_distribution_bruteforce(ctx, codes.cyclic_code(ctx, h))
            assert own == memo.distribution(e1, e2), (e1, e2)


def test_one_brute_force_per_orbit_shared_by_both_sweeps(monkeypatch):
    q, k = 4, 3
    calls = []
    real = verify.weight_distribution_bruteforce
    monkeypatch.setattr(verify, "weight_distribution_bruteforce",
                        lambda ctx, code, cap: calls.append(code) or real(ctx, code, cap))
    results = verify.run_block(q, k, 1 << 20, ("three_weight_iff_conditions", "oracle_equivalence"))
    assert all(r.ok for r in results)
    orbits = {frozenset(multiplier_orbit(q, k, e1, e2)) for e1 in range(q - 1) for e2 in range(63)}
    assert len(calls) == len(orbits) == 16


@pytest.mark.parametrize("q,k", [(4, 3), (3, 4)])
def test_the_brute_force_route_never_reads_the_trace_route(q, k, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the trace route was read")

    for owner, name in [
        (codes, "trace_weight_grid"),
        (codes, "weight_distribution_trace"),
        (verify, "weight_distribution_trace"),
        (gf.FieldCtx, "trace_q_symbols"),
        (gf.FieldCtx, "char_exponents"),
    ]:
        monkeypatch.setattr(owner, name, forbidden)
    ctx = gf.field_for(q, k)
    memo = verify.BruteForceMemo(ctx)
    assert memo.distribution(0, 1) == codes.three_weight_distribution(q, k)
    checked, counterexample = verify.verify_three_weight_iff(verify.BruteForceMemo(ctx))
    assert counterexample is None and checked == (q - 1) * (q**k - 1)


# -- the character-sum sweeps: lazy pairs and no full grid --------------------


def test_the_unit_sweep_reaches_its_first_grid_in_a_few_mib(monkeypatch):
    # (31, 3) has 594,000 pairs; none is held before the first grid
    class FirstGrid(Exception):
        pass

    def first_grid(*args):
        raise FirstGrid

    ctx = gf.field_for(31, 3)
    monkeypatch.setattr(verify, "char_sum_grid", first_grid)
    tracemalloc.start()
    try:
        with pytest.raises(FirstGrid):
            verify.verify_char_sum_unit_iff(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_a_failing_char_sum_class_exits_3_and_is_named(monkeypatch, capsys):
    q, k = 4, 3
    target = numth.orbit_representative(q, k, *mid_qualifying_rep(q, k))
    perturb_kernel(monkeypatch, q, k, target, [(q - 1, 1)])
    code = cli.main(["verify", "--q", "4", "--k", "3", "--format", "json",
                     "--props", "char_sum_cases,char_sum_unit_iff"])
    out, err = capsys.readouterr()
    assert code == 3
    cases, unit = json.loads(out)
    assert not cases["ok"] and not unit["ok"]
    for result in (cases, unit):
        cex = result["counterexample"]
        assert (cex["e1"], cex["e2"], cex["tau"], cex["b_col"]) == (*target, q - 1, 1)
    assert cases["counterexample"]["got"] == unit["counterexample"]["value"] == 1 - q
    assert "counterexample:" in err and json.dumps(cases["counterexample"]) in err


def test_the_unit_sweep_forms_no_full_grid_at_257_2(monkeypatch):
    # the full (257, 257^2) grid would be 17 million cells, 130 MiB of int64
    ctx = gf.field_for(257, 2)
    verify.char_sum_grid(ctx, 0, 1)  # warm the field's trace and symbol tables
    real = verify.valid_orbits
    monkeypatch.setattr(verify, "valid_orbits", lambda q, k: islice(real(q, k), 20))
    tracemalloc.start()
    try:
        checked, counterexample = verify.verify_char_sum_unit_iff(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = sum(size for *_, size in islice(real(257, 2), 20))
    assert counterexample is None and checked == pairs * 256 * ctx.m
    assert peak < 16 << 20


def test_the_unit_sweep_covers_all_of_257_2():
    # 5,505,024 pairs in 256 orbits, one grid each
    ctx = gf.field_for(257, 2)
    checked, counterexample = verify.verify_char_sum_unit_iff(ctx)
    assert counterexample is None and checked == 5_505_024 * 256 * 66_048

"""The verify sweeps against the loops they replaced, kept here as references.

verify_three_weight_iff and verify_oracle_equivalence brute-force one code
per multiplier orbit, and verify_substitution maps each whole grid at
once.  The references below are the loops they replaced: the per-pair
three-weight scan and the oracle scan, each sharing a brute force only
between pairs with the same parity check, and the point-by-point
substitution scan over scalar copies of the two maps.  A sweep and its
reference must agree on ok, checked and the counterexample (or raise the
same error), on clean runs and under injected faults.
"""

import json
import tracemalloc

import pytest

from cyclochar import cli, codes, expsum, gf, numth, verify
from cyclochar.errors import ConsistencyError, CyclocharError, InvalidArgumentError

PAIRS_63 = verify.default_pairs(63)
PAIRS_127 = verify.default_pairs(127)
PAIRS_255 = verify.default_pairs(255)


# -- references ---------------------------------------------------------------


def reference_brute(ctx, e1, e2, cap, cache):
    """Brute force shared between pairs with the same parity check."""
    h = codes.parity_check_from_exponents(ctx, e1, e2)
    if h not in cache:
        cache[h] = verify.weight_distribution_bruteforce(ctx, codes.cyclic_code(ctx, h), cap)
    return cache[h]


def reference_three_weight_iff(q, k, ctx, brute_cap=numth.DEFAULT_BRUTE_CAP):
    n = q**k - 1
    table = codes.three_weight_distribution(q, k)
    cache = {}
    checked = 0
    for e1 in range(q - 1):
        for e2 in range(n):
            match = reference_brute(ctx, e1, e2, brute_cap, cache) == table
            conds = verify.gcd_conditions(q, k, e1, e2) == (1, 1)
            if match != conds:
                return verify.PropertyResult(
                    "three_weight_iff_conditions", q, k, False, checked,
                    {"e1": e1, "e2": e2, "table_match": match, "conditions": conds},
                )
            checked += 1
    return verify.PropertyResult("three_weight_iff_conditions", q, k, True, checked)


def reference_oracle_equivalence(q, k, ctx, brute_cap=numth.DEFAULT_BRUTE_CAP):
    cache = {}
    checked = 0
    for e1, e2 in verify.all_pairs(q, k):
        wd = verify.weight_distribution_trace(ctx, e1, e2)
        brute = reference_brute(ctx, e1, e2, brute_cap, cache).entries
        if wd.entries != brute:
            return verify.PropertyResult(
                "oracle_equivalence", q, k, False, checked,
                {"e1": e1, "e2": e2, "trace": wd.entries, "brute": brute},
            )
        checked += 1
    return verify.PropertyResult("oracle_equivalence", q, k, True, checked)


def _check_point(spec, first, second, m):
    if not 0 <= first < m:
        raise InvalidArgumentError(f"first index {first} outside [0, {m})")
    if not 0 <= second < spec.q - 1:
        raise InvalidArgumentError(f"second index {second} outside [0, {spec.q - 1})")


def scalar_substitution(spec, i, j):
    m = spec.q**spec.k - 1
    _check_point(spec, i, j, m)
    v = (spec.e2 * i + spec.delta * j) % m
    diff = i - spec.bezout.alpha * v
    if diff % spec.delta != 0:
        raise ConsistencyError(f"Delta = {spec.delta} does not divide i - alpha*v = {diff}")
    return v, (diff // spec.delta) % (spec.q - 1)


def scalar_substitution_inverse(spec, v, w):
    m = spec.q**spec.k - 1
    _check_point(spec, v, w, m)
    return (spec.bezout.alpha * v + spec.delta * w) % m, (spec.bezout.beta * v - spec.e2 * w) % (spec.q - 1)


def reference_substitution(q, k):
    n = q**k - 1
    checked = 0
    for e2 in verify.valid_e2_values(q, k):
        spec = verify.code_spec(q, k, 0, e2)
        seen = bytearray(n * (q - 1))
        for i in range(n):
            for j in range(q - 1):
                v, w = scalar_substitution(spec, i, j)
                back = scalar_substitution_inverse(spec, v, w)
                if back != (i, j):
                    return verify.PropertyResult(
                        "substitution_bijection", q, k, False, checked,
                        {"e2": e2, "i": i, "j": j, "v": v, "w": w, "back": list(back)},
                    )
                flat = v * (q - 1) + w
                if seen[flat]:
                    return verify.PropertyResult(
                        "substitution_bijection", q, k, False, checked,
                        {"e2": e2, "collision_at": [v, w]},
                    )
                seen[flat] = 1
                checked += 1
    return verify.PropertyResult("substitution_bijection", q, k, True, checked)


def outcome(sweep, *args):
    """(ok, checked, counterexample) of a sweep, or the error it raised."""
    try:
        result = sweep(*args)
    except CyclocharError as exc:
        return type(exc).__name__, str(exc)
    return result.ok, result.checked, result.counterexample


def mid_qualifying_rep(q, k):
    """First pair, in scan order, of the orbit of a middle qualifying pair.

    Its parity check is met first at that pair, by both the orbit memo and
    the per-parity-check reference: with gcd(Delta, e2) = 1, pairs sharing
    a parity check differ by a power of q, so they share an orbit too.
    """
    pairs = [p for p in verify.all_pairs(q, k) if verify.gcd_conditions(q, k, *p) == (1, 1)]
    return min(numth.multiplier_orbit(q, k, *pairs[len(pairs) // 2]))


# -- the sweeps equal their references ----------------------------------------


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_three_weight_sweep_equals_the_per_pair_loop(q, k):
    ctx = gf.field_for(q, k)
    got = outcome(verify.verify_three_weight_iff, q, k, ctx)
    assert got == outcome(reference_three_weight_iff, q, k, ctx)
    assert got[:2] == (True, (q - 1) * (q**k - 1))


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_oracle_sweep_equals_the_per_parity_check_loop(q, k):
    ctx = gf.field_for(q, k)
    got = outcome(verify.verify_oracle_equivalence, q, k, ctx)
    assert got == outcome(reference_oracle_equivalence, q, k, ctx)
    assert got[0] is True


@pytest.mark.parametrize("q,k", PAIRS_255)
def test_substitution_sweep_equals_the_scalar_loop(q, k):
    got = outcome(verify.verify_substitution, q, k)
    assert got == outcome(reference_substitution, q, k)
    assert got[0] is True


@pytest.mark.parametrize("q,k", [(2, 6), (3, 3), (4, 3), (5, 2), (8, 2)])
def test_cap_refusal_comes_at_the_same_pair(q, k, monkeypatch):
    # a cap of q^k refuses every code of dimension k + 1
    ctx = gf.field_for(q, k)
    for sweep, reference in [
        (verify.verify_three_weight_iff, reference_three_weight_iff),
        (verify.verify_oracle_equivalence, reference_oracle_equivalence),
    ]:
        outcomes = []
        for fn in (sweep, reference):
            met = []
            for name in ("gcd_conditions", "weight_distribution_trace"):
                real = getattr(verify, name)
                monkeypatch.setattr(verify, name,
                                    lambda *a, real=real: met.append(a[-2:]) or real(*a))
            outcomes.append((outcome(fn, q, k, ctx, q**k), met))
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
    got = outcome(verify.verify_three_weight_iff, q, k, ctx)
    assert got == outcome(reference_three_weight_iff, q, k, ctx)
    assert (got[2]["e1"], got[2]["e2"]) == target


@pytest.mark.parametrize("q,k", PAIRS_63)
def test_a_corrupted_distribution_is_caught_at_the_same_pair(q, k, monkeypatch):
    ctx = gf.field_for(q, k)
    target = mid_qualifying_rep(q, k)
    bad_h = codes.parity_check_from_exponents(ctx, *target)
    real = verify.weight_distribution_bruteforce

    def corrupted(ctx_, code, cap=numth.DEFAULT_BRUTE_CAP):
        wd = real(ctx_, code, cap)
        if code.parity_check == bad_h:
            wd = codes.WeightDistribution(wd.n, {**wd.entries, 0: 2})
        return wd

    monkeypatch.setattr(verify, "weight_distribution_bruteforce", corrupted)
    for sweep, reference in [
        (verify.verify_three_weight_iff, reference_three_weight_iff),
        (verify.verify_oracle_equivalence, reference_oracle_equivalence),
    ]:
        got = outcome(sweep, q, k, ctx)
        assert got == outcome(reference, q, k, ctx)
        assert (got[2]["e1"], got[2]["e2"]) == target


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("q,k", PAIRS_63)
def test_an_off_by_one_bezout_pair_gives_the_same_outcome(q, k, field, monkeypatch):
    ctx = gf.field_for(q, k)
    real = codes.bezout_pair

    def off_by_one(e2, q_, k_):
        pair = real(e2, q_, k_)
        if field == "alpha":
            return numth.BezoutPair((pair.alpha + 1) % (q_**k_ - 1), pair.beta)
        return numth.BezoutPair(pair.alpha, (pair.beta + 1) % (q_ - 1))

    monkeypatch.setattr(codes, "bezout_pair", off_by_one)
    got = outcome(verify.verify_substitution, q, k)
    assert got == outcome(reference_substitution, q, k)
    if field == "alpha" and q == 2:
        assert got[0] == "ConsistencyError"
    elif (field, q) != ("beta", 2):
        assert got[0] is False and "back" in got[2]
    assert outcome(verify.verify_oracle_equivalence, q, k, ctx) == outcome(
        reference_oracle_equivalence, q, k, ctx
    )


def test_an_error_after_a_failed_round_trip_is_not_reported(monkeypatch):
    # alpha + 1 breaks the division at (1, 0), after a round trip at (0, 1)
    real = codes.bezout_pair
    monkeypatch.setattr(codes, "bezout_pair",
                        lambda e2, q, k: numth.BezoutPair(real(e2, q, k).alpha + 1, 0))
    spec = codes.code_spec(4, 3, 0, 1)
    with pytest.raises(ConsistencyError, match=r"does not divide i - alpha\*v = -1$"):
        expsum.substitution(spec, [0, 0, 0, 1, 1], [0, 1, 2, 0, 1])
    result = verify.verify_substitution(4, 3)
    assert not result.ok
    assert (result.checked, result.counterexample["i"], result.counterexample["j"]) == (1, 0, 1)


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
    orbits = {frozenset(numth.multiplier_orbit(q, k, e1, e2)) for e1 in range(q - 1) for e2 in range(63)}
    assert len(calls) == len(orbits) == 16


@pytest.mark.parametrize("q,k", [(4, 3), (3, 4)])
def test_the_brute_force_route_never_reads_the_trace_route(q, k, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the trace route was read")

    for owner, name in [
        (codes, "trace_weight_grid"),
        (codes, "weight_distribution_trace"),
        (codes, "_orbit_columns"),
        (verify, "weight_distribution_trace"),
        (gf.FieldCtx, "trace_q_symbols"),
        (gf.FieldCtx, "char_exponents"),
    ]:
        monkeypatch.setattr(owner, name, forbidden)
    ctx = gf.field_for(q, k)
    memo = verify.BruteForceMemo(ctx)
    assert memo.distribution(0, 1) == codes.three_weight_distribution(q, k)
    result = verify.verify_three_weight_iff(q, k, ctx)
    assert result.ok and result.checked == (q - 1) * (q**k - 1)


# -- the character-sum sweeps: lazy pairs and a budgeted grid -----------------


@pytest.mark.parametrize("prop", ["char_sum_cases", "char_sum_unit_iff"])
def test_an_oversized_char_sum_grid_is_refused_before_the_first_grid(prop, monkeypatch, capsys):
    def no_grid(*args):
        raise AssertionError("a character-sum grid was formed")

    monkeypatch.setattr(verify, "char_sum_grid", no_grid)
    monkeypatch.setattr(numth, "JOB_BUDGET_BYTES", verify._CHAR_SUM_BYTES_PER_CELL * 4**4 - 1)
    code = cli.main(["verify", "--q", "4", "--k", "3", "--format", "json",
                     "--props", f"three_weight_iff_conditions,{prop}"])
    out, err = capsys.readouterr()
    assert code == 2
    [kept] = json.loads(out)
    assert (kept["property"], kept["ok"]) == ("three_weight_iff_conditions", True)
    assert "the character-sum grid needs about" in err


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
            verify.verify_char_sum_unit_iff(31, 3, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20

"""Independent checks of cyclochar CLI output.

Nothing here imports cyclochar: every expected value is derived again
from the paper's closed forms with plain integer arithmetic, so a bug in
the program cannot also hide in the check.  Each workload item has a
reference (computed before the timed loop) and a check that compares one
parsed JSON output with it and returns a list of problems, empty when
the output is right.
"""

from __future__ import annotations

from math import gcd

VERIFY_PROPERTIES = (
    "substitution_bijection",
    "char_sum_cases",
    "char_sum_unit_iff",
    "three_weight_iff_conditions",
    "oracle_equivalence",
    "duality_suite",
    "enumeration_count",
    "two_weight_gaps",
)


# -- plain number theory -----------------------------------------------------


def euler_phi(n: int) -> int:
    """Euler's totient by trial division."""
    out = n
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    if n > 1:
        out -= out // n
    return out


def code_count(q: int, k: int) -> int:
    """phi(q^k - 1)(q - 1)/k, the number of qualifying codes for (q, k)."""
    count, r = divmod(euler_phi(q**k - 1) * (q - 1), k)
    if r:
        raise ValueError(f"phi(q^k-1)(q-1) is not divisible by k for q={q}, k={k}")
    return count


def coset_count(q: int, n: int) -> int:
    """Number of q-cyclotomic cosets modulo n."""
    seen = bytearray(n)
    count = 0
    for a in range(n):
        if not seen[a]:
            count += 1
            x = a
            while not seen[x]:
                seen[x] = 1
                x = x * q % n
    return count


def qualifies(q: int, k: int, e1: int, e2: int) -> bool:
    """Both gcd conditions: gcd(q-1, k*e1 - e2) = 1 and gcd(Delta, e2) = 1."""
    delta = (q**k - 1) // (q - 1)
    return gcd(q - 1, (k * e1 - e2) % (q - 1)) == 1 and gcd(delta, e2) == 1


# -- build -------------------------------------------------------------------


def build_reference(q: int, k: int, e1: int, e2: int) -> dict:
    """The report `build` must print for a qualifying (e1, e2)."""
    if not qualifies(q, k, e1, e2):
        raise ValueError(f"(e1, e2) = ({e1}, {e2}) does not qualify for q={q}, k={k}")
    n = q**k - 1
    w = q ** (k - 1) * (q - 1)
    return {
        "q": q,
        "k": k,
        "e1": e1,
        "e2": e2,
        "n": n,
        "dim": k + 1,
        "weights": {0: 1, w - 1: (q - 1) * n, w: n, n: q - 1},
        "B3": (q**k - 3) * (q**k - 1) * (q - 2) * (q - 1) // 6,
    }


def check_build(out: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("q", "k", "e1", "e2", "n", "dim"):
        if out.get(key) != ref[key]:
            problems.append(f"{key} = {out.get(key)!r}, expected {ref[key]}")
    pairs = out.get("weights") or []
    weights = {w: f for w, f in pairs}
    if len(weights) != len(pairs):
        problems.append("a weight is listed twice")
    if weights != ref["weights"]:
        problems.append(f"weights {pairs} differ from {sorted(ref['weights'].items())}")
    q, dim, n = ref["q"], ref["dim"], ref["n"]
    d = min((w for w in weights if w), default=0)
    griesmer = sum(-(-d // q**i) for i in range(dim)) if d else None
    if griesmer != n:
        problems.append(f"Griesmer sum {griesmer} at d={d} is not n={n}")
    if out.get("griesmer_optimal") is not True:
        problems.append("griesmer_optimal is not true")
    dual = out.get("dual") or {}
    if dual.get("B1") != 0 or dual.get("B2") != 0:
        problems.append(f"dual B1={dual.get('B1')}, B2={dual.get('B2')}, expected 0")
    if dual.get("B3") != ref["B3"]:
        problems.append(f"dual B3={dual.get('B3')}, expected {ref['B3']}")
    dmin = dual.get("min_weight")
    if q > 2 and dmin != 3:
        problems.append(f"dual minimum weight {dmin}, expected 3")
    if q == 2 and not (isinstance(dmin, int) and dmin > 3):
        problems.append(f"dual minimum weight {dmin}, expected > 3 when B1=B2=B3=0")
    return problems


# -- enumerate ---------------------------------------------------------------


def enumerate_reference(q: int, k: int) -> dict:
    return {"q": q, "k": k, "count": code_count(q, k)}


def check_enumerate(out: dict, ref: dict) -> list[str]:
    q, k, count = ref["q"], ref["k"], ref["count"]
    problems = []
    if out.get("q") != q or out.get("k") != k:
        problems.append(f"(q, k) = ({out.get('q')}, {out.get('k')}), expected ({q}, {k})")
    if out.get("count") != count:
        problems.append(f"count {out.get('count')}, expected {count}")
    if out.get("formula") != count:
        problems.append(f"formula {out.get('formula')}, expected {count}")
    codes = out.get("codes") or []
    if len(codes) != count:
        problems.append(f"{len(codes)} codes listed, expected {count}")
    n = q**k - 1
    delta = n // (q - 1)
    seen = set()
    for entry in codes:
        e1, e2 = entry.get("e1"), entry.get("e2")
        if not (isinstance(e1, int) and isinstance(e2, int) and 0 <= e1 < q - 1 and 0 <= e2 < n):
            problems.append(f"entry {entry} is out of range")
            continue
        if (e1, e2) in seen:
            problems.append(f"entry {entry} is listed twice")
        seen.add((e1, e2))
        if not qualifies(q, k, e1, e2):
            problems.append(f"entry {entry} fails a gcd condition")
        if entry.get("delta_e1") != delta * e1 % n:
            problems.append(f"entry {entry}: delta_e1 is not Delta*e1 mod n = {delta * e1 % n}")
        x = e2
        for _ in range(k - 1):
            x = x * q % n
            if x < e2:
                problems.append(f"entry {entry}: e2 is not minimal in its coset ({x} < {e2})")
                break
        if len(problems) > 20:
            break
    return problems


# -- verify ------------------------------------------------------------------


def verify_reference(q: int, k: int) -> dict:
    """The `checked` count every property must report for the (q, k) block."""
    n = q**k - 1
    delta = n // (q - 1)
    units = sum(1 for e2 in range(n) if gcd(delta, e2) == 1)
    codes = code_count(q, k)
    checked = {
        "substitution_bijection": units * n * (q - 1),
        "char_sum_cases": k * codes * (q ** (k + 1) + 6),
        "char_sum_unit_iff": (q - 1) ** 2 * units * n,
        "three_weight_iff_conditions": (q - 1) * n,
        "oracle_equivalence": (q - 1) * units,
        "duality_suite": codes,
        "enumeration_count": codes,
        "two_weight_gaps": coset_count(q, n),
    }
    return {"q": q, "k": k, "checked": checked}


def check_verify(out: list, ref: dict) -> list[str]:
    problems = []
    got = [r.get("property") for r in out]
    if sorted(got) != sorted(VERIFY_PROPERTIES):
        problems.append(f"properties {got}, expected each of {list(VERIFY_PROPERTIES)} once")
    for r in out:
        prop = r.get("property")
        if r.get("q") != ref["q"] or r.get("k") != ref["k"]:
            problems.append(f"{prop}: (q, k) = ({r.get('q')}, {r.get('k')})")
        if r.get("ok") is not True or "counterexample" in r:
            problems.append(f"{prop}: not ok: {r}")
        want = ref["checked"].get(prop)
        if r.get("checked") != want:
            problems.append(f"{prop}: checked {r.get('checked')}, expected {want}")
    return problems


REFERENCES = {
    "build": build_reference,
    "enumerate": enumerate_reference,
    "verify": verify_reference,
}
CHECKS = {"build": check_build, "enumerate": check_enumerate, "verify": check_verify}

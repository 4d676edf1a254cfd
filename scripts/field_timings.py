"""Time the field layer of cyclochar in fresh interpreters; print one JSON line.

Usage:

    python3 scripts/field_timings.py [--src DIR]

For each field F_{q^k} below, with q = p^t and d = t*k, three layers are
timed, each in its own fresh interpreter that imports cyclochar.gf from DIR
(default: this checkout's src/) and runs nothing else:
`smallest_primitive_polynomial(p, d)`, then `_power_table` and `FieldCtx`
(which builds its own power table) on the modulus the search returned.
What one layer leaves on the heap thus never speeds or slows the next.
Each layer's peak RSS is its interpreter's, read from os.wait4 (start-up
and the numpy import included), so it bounds what the layer allocates.
The fields are the seven of perfbench's `build` workload, the two at the
2^20 cap, (3,12) and (997,2).  One more interpreter per repeat runs the
search on all 242 (p, d) with d >= 2 and p^d <= 2^20.  Every time is the
median of REPEATS (5) runs and every peak RSS the largest; the output
holds them in milliseconds (`<layer>_ms`) and MiB (`<layer>_peak_rss_mib`),
with the fields' moduli, the machine and Python.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = [(2, 10), (2, 11), (2, 12), (4, 5), (4, 6), (8, 4), (16, 3),
          (2, 20), (1024, 2), (3, 12), (997, 2)]
CAP = 1 << 20
REPEATS = 5

ONE_LAYER = """
import json, sys, time
from cyclochar import gf
layer, p, t, k, modulus = sys.argv[1], *map(int, sys.argv[2:5]), json.loads(sys.argv[5])
start = time.perf_counter()
if layer == "search":
    modulus = gf.smallest_primitive_polynomial(p, t * k)
elif layer == "power_table":
    gf._power_table(modulus, p, p ** (t * k) - 1)
else:
    gf.FieldCtx(p, t, k, tuple(modulus))
print(json.dumps([(time.perf_counter() - start) * 1e3, modulus]))
"""
LAYERS = ("search", "power_table", "field_ctx")

ALL_FIELDS = """
import json, sys, time
from cyclochar import gf
fields = json.loads(sys.argv[1])
t0 = time.perf_counter()
for p, d in fields:
    gf.smallest_primitive_polynomial(p, d)
print(json.dumps({"fields": len(fields), "search_all_ms": (time.perf_counter() - t0) * 1e3}))
"""


def prime_power(q: int) -> tuple[int, int]:
    """(p, t) with q = p^t, p prime."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    t = 0
    while q % p == 0:
        q, t = q // p, t + 1
    if q != 1:
        raise SystemExit(f"not a prime power: {q}")
    return p, t


def capped_fields() -> list[tuple[int, int]]:
    """Every (p, d) with p prime, d >= 2 and p^d <= 2^20."""
    primes = [p for p in range(2, 1025) if all(p % f for f in range(2, int(p**0.5) + 1))]
    return [(p, d) for p in primes for d in range(2, 21) if p**d <= CAP]


def child(src: Path, code: str, *args: str):
    """Run code in a fresh interpreter: (its JSON output, its peak RSS in MiB)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                            stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return json.loads(out), usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the cyclochar package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    fields = {}
    for q, k in FIELDS:
        p, t = prime_power(q)
        modulus = None
        times = {layer: [] for layer in LAYERS}
        rss = {layer: [] for layer in LAYERS}
        for _ in range(REPEATS):
            for layer in LAYERS:
                (ms, modulus), mib = child(src, ONE_LAYER, layer, str(p), str(t), str(k),
                                           json.dumps(modulus))
                times[layer].append(ms)
                rss[layer].append(mib)
        fields[f"{q},{k}"] = {
            "p": p, "d": t * k, "modulus": modulus,
            **{f"{layer}_ms": round(statistics.median(ms), 3) for layer, ms in times.items()},
            **{f"{layer}_peak_rss_mib": round(max(mib), 1) for layer, mib in rss.items()},
        }
    everything = capped_fields()
    totals = [child(src, ALL_FIELDS, json.dumps(everything))[0]["search_all_ms"]
              for _ in range(REPEATS)]
    print(json.dumps({
        "src": str(src),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "fields": fields,
        "search_all": {"fields": len(everything), "median_ms": round(statistics.median(totals), 3)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

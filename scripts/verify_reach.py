"""Time every (block, property) of `verify` in its own fresh interpreter.

Usage:

    python3 scripts/verify_reach.py [--max-length 127] [--props P,...]
        [--timeout 600] [--src DIR]

For each (q, k) of cyclochar.verify.default_pairs(--max-length), in that
order, and each property of --props (default: all of verify.PROPERTIES, in
their order), one child runs

    python -m cyclochar.cli verify --q Q --k K --props P --format json

with DIR (default: this checkout's src/) on PYTHONPATH.  Children run one
at a time.  Wall time is perf_counter around the child; CPU time (user plus
system) and peak RSS come from os.wait4.  A child still running after
--timeout seconds is killed and its run recorded as timed out; no child
outlives the script, an interrupted one included.

One JSON line is printed per run: q, k, n = q^k - 1, the property, the exit
code (negative: the signal that ended the child), timed_out, wall_s, cpu_s,
peak_rss_mib, and the result's checked and ok (null when the child printed
no result: a refusal by the job budget, an interrupt or a timeout).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POLL_S = 0.01


def run_one(src: Path, q: int, k: int, prop: str, timeout: float) -> dict:
    """Run one `verify` child to its end or to the timeout; its JSON record."""
    argv = [sys.executable, "-m", "cyclochar.cli", "verify", "--q", str(q), "--k", str(k),
            "--props", prop, "--format", "json"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > timeout:
                    proc.kill()
                    timed_out = True
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:  # an interrupt: end the child before leaving
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    results = json.loads(text) if text.strip() else []
    result = results[0] if results else {}
    return {
        "q": q, "k": k, "n": q**k - 1, "property": prop,
        "exit_code": proc.returncode, "timed_out": timed_out,
        "wall_s": round(wall, 3), "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
        "checked": result.get("checked"), "ok": result.get("ok"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-length", type=int, default=127,
                        help="the blocks of verify's default sweep up to this q^k - 1")
    parser.add_argument("--props", default=None,
                        help="comma-separated properties (default: all)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds after which a child is killed")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory that holds the cyclochar package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    from cyclochar.verify import PROPERTIES, default_pairs

    props = args.props.split(",") if args.props else list(PROPERTIES)
    unknown = sorted(set(props) - set(PROPERTIES))
    if unknown:
        parser.error(f"unknown properties: {unknown}")
    for q, k in default_pairs(args.max_length):
        for prop in props:
            print(json.dumps(run_one(src, q, k, prop, args.timeout)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

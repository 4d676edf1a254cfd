"""scripts/verify_reach.py: one fresh `verify` child per (block, property), measured."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_reach.py"


def reach(*args):
    proc = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True,
                          text=True, timeout=120, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_one_line_per_block_and_property():
    runs = reach("--max-length", "7", "--props", "enumeration_count,oracle_equivalence")
    assert [(r["q"], r["k"], r["property"]) for r in runs] == [
        (2, 2, "enumeration_count"), (2, 2, "oracle_equivalence"),
        (2, 3, "enumeration_count"), (2, 3, "oracle_equivalence"),
    ]
    for r in runs:
        assert (r["exit_code"], r["timed_out"], r["ok"]) == (0, False, True)
        assert r["checked"] > 0 and r["cpu_s"] > 0 and r["peak_rss_mib"] > 0
    # phi(7) * (2 - 1) / 3 = 2 codes at (2, 3)
    assert runs[2]["checked"] == 2


def test_a_child_past_the_timeout_is_killed_and_recorded():
    (run,) = reach("--max-length", "3", "--props", "duality_suite", "--timeout", "0")
    assert run["timed_out"] and run["exit_code"] == -9
    assert (run["checked"], run["ok"]) == (None, None)

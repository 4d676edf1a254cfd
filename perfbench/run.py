"""Benchmark of the cyclochar command line, one fresh interpreter per item.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {build,verify,enumerate} \
        --seed N --seconds S --trace {0,1}

Each item is one `python -m cyclochar.cli ... --format json` process
over the checkout's `src`, run closed-loop with one client: the next item
starts when the previous one exits.  A run repeats whole passes over the
workload's items until S seconds have gone, checks every output against
perfbench/checks.py (which does not import cyclochar) and prints one JSON
line: the end-to-end metrics with --trace 0, or, with --trace 1, the
per-layer metrics of one pass run under perfbench/traced_item.py.
Results and spans are written to perfbench-results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench-results"

SETUP_REPEATS = 5
ITEM_LIMIT_S = 150

# Lengths 1023..4095 over q = 2, 4, 8, 16; the trace weight grid is most of
# each item.  The seed draws the qualifying (e1, e2) of every block.
BUILD_BLOCKS = [(2, 10), (2, 11), (2, 12), (4, 5), (4, 6), (8, 4), (16, 3)]
# Every (q, k) of verify's default sweep with 63 <= q^k - 1 <= 127.
VERIFY_BLOCKS = [(2, 6), (2, 7), (3, 4), (4, 3), (5, 3), (8, 2), (9, 2), (11, 2)]
# Field orders 2^16..2^20: table construction, cosets and JSON encoding.
# (2, 19) costs about what (16, 4) does, so the median item time rests on
# two blocks instead of one; enumerate times vary most from run to run.
ENUMERATE_BLOCKS = [(2, 16), (4, 8), (2, 18), (16, 4), (2, 19), (8, 6), (2, 20), (4, 10)]

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_cpu_p50_s": "s",
    "peak_rss_mib": "MiB",
}

# Span names are "<layer>.<function>" as traced_item.py records them.
COSETS = ["numth.cyclotomic_coset", "numth.coset_representatives"]
TABLES = ["gf.__init__", "gf.trace_q_symbols", "gf.char_exponents",
          "gf.trace_q_symbol_list", "gf.char_exponent_list", "gf.symbol_tables"]
CHARACTERIZE = ["characterize.build_code", "characterize.characterize_code",
                "characterize.factor_into_cosets", "characterize.one_weight_check",
                "characterize.full_weight_divisor", "characterize.two_weight_gap_scan",
                "characterize.enumerate_codes"]
VERIFY_FUNCTIONS = {
    "substitution_bijection": "verify.verify_substitution",
    "char_sum_cases": "verify.verify_char_sum_cases",
    "char_sum_unit_iff": "verify.verify_char_sum_unit_iff",
    "three_weight_iff_conditions": "verify.verify_three_weight_iff",
    "oracle_equivalence": "verify.verify_oracle_equivalence",
    "duality_suite": "verify.verify_duality",
    "enumeration_count": "verify.verify_enumeration",
    "two_weight_gaps": "verify.verify_two_weight_gaps",
}

# (metric, kind, span names).  "time" sums the spans of the group that lie
# in no other span of the group; "self" sums span time minus the time its
# child spans cover; "calls" counts spans; "work" sums their work counts.
SPAN_METRICS = [
    ("cli.self_s", "self", ["cli.main"]),
    ("gf.field_s", "time", ["gf.field_for", "gf.build_field"]),
    ("gf.field_builds", "calls", ["gf.__init__"]),
    ("gf.tables_s", "time", TABLES),
    ("numth.cosets_s", "time", COSETS),
    ("numth.coset_calls", "calls", COSETS),
    ("numth.bezout_s", "time", ["numth.bezout_pair"]),
    ("polyring.minpoly_s", "time", ["polyring.minimal_polynomial"]),
    ("polyring.minpoly_calls", "calls", ["polyring.minimal_polynomial"]),
    ("polyring.divmod_s", "time", ["polyring.poly_divmod"]),
    ("polyring.divmod_calls", "calls", ["polyring.poly_divmod"]),
    ("expsum.char_sum_s", "time", ["expsum.char_sum"]),
    ("expsum.char_sum_calls", "calls", ["expsum.char_sum"]),
    ("codes.trace_grid_s", "time", ["codes.trace_weight_grid"]),
    ("codes.trace_grid_calls", "calls", ["codes.trace_weight_grid"]),
    ("codes.trace_grid_cells", "work", ["codes.trace_weight_grid"]),
    ("codes.bruteforce_s", "time", ["codes.weight_distribution_bruteforce"]),
    ("codes.bruteforce_calls", "calls", ["codes.weight_distribution_bruteforce"]),
    ("codes.bruteforce_codewords", "work", ["codes.weight_distribution_bruteforce"]),
    ("codes.macwilliams_s", "time", ["codes.macwilliams_dual"]),
    ("codes.macwilliams_calls", "calls", ["codes.macwilliams_dual"]),
    ("codes.pless_s", "time", ["codes.pless_moments", "codes.pless_moment_check"]),
    ("characterize.self_s", "self", CHARACTERIZE),
    ("characterize.enumerate_s", "time", ["characterize.enumerate_codes"]),
    *((f"verify.{prop}_s", "time", [fn]) for prop, fn in VERIFY_FUNCTIONS.items()),
    ("verify.self_s", "self", ["verify.run_block", *VERIFY_FUNCTIONS.values()]),
]
PER_LAYER = {"cli.startup_s": "s", "cli.output_bytes": "bytes"}
PER_LAYER.update((name, "count" if kind in ("calls", "work") else "s")
                 for name, kind, _ in SPAN_METRICS)


@dataclass
class Item:
    kind: str
    params: tuple
    ref: dict

    def argv(self) -> list[str]:
        flags = ("--q", "--k", "--e1", "--e2")
        return [self.kind, *(str(v) for pair in zip(flags, self.params) for v in pair),
                "--format", "json"]


@dataclass
class Outcome:
    item: Item
    exit: int
    wall: float
    cpu: float
    rss_kib: int
    stdout: Path
    stderr: Path


def make_items(workload: str, rng: random.Random) -> list[Item]:
    """The items of one pass, with their independent references."""
    if workload == "build":
        params = []
        for q, k in BUILD_BLOCKS:
            while True:
                e1, e2 = rng.randrange(q - 1), rng.randrange(q**k - 1)
                if checks.qualifies(q, k, e1, e2):
                    break
            params.append((q, k, e1, e2))
    else:
        params = list(VERIFY_BLOCKS if workload == "verify" else ENUMERATE_BLOCKS)
    rng.shuffle(params)
    reference = checks.REFERENCES[workload]
    return [Item(workload, p, reference(*p)) for p in params]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CYCLOCHAR_FIELD_CAP"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, int]:
    """Run `python argv` to completion; (exit code, wall s, cpu s, max RSS KiB).

    The caller keeps its own memory small: Linux reports a child's max RSS
    as at least the parent's peak at spawn time.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                             file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], ITEM_LIMIT_S)[0]:
                    os.kill(pid, signal.SIGKILL)
            finally:
                os.close(pidfd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def setup(workload: str, seed: int, work: Path) -> list[Item]:
    """Inputs, references and one interpreter start, which must import ./src."""
    items = make_items(workload, random.Random(seed))
    probe = work / "probe.out"
    code, *_ = spawn(["-c", "import cyclochar.cli; print(cyclochar.cli.__file__)"],
                     probe, work / "probe.err")
    where = Path(probe.read_text().strip() or ".").resolve()
    if code != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"cyclochar does not import from {SRC}: exit {code}, "
                         f"{(work / 'probe.err').read_text()[-500:]}")
    return items


def run_items(items: list[Item], seconds: float, trace: bool, work: Path) -> list[Outcome]:
    """Whole passes until `seconds` have gone (exactly one pass when tracing)."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    while True:
        for item in items:
            i = len(outcomes)
            stdout, stderr = work / f"{i}.out", work / f"{i}.err"
            argv = (["-m", "cyclochar.cli"] if not trace
                    else [str(HERE / "traced_item.py"), str(work / f"{i}.spans"), str(i)])
            code, wall, cpu, rss = spawn(argv + item.argv(), stdout, stderr)
            outcomes.append(Outcome(item, code, wall, cpu, rss, stdout, stderr))
        if trace or time.perf_counter() - start >= seconds:
            return outcomes


def check_outputs(outcomes: list[Outcome]) -> list[str]:
    """Problems found in the outputs of the items that exited 0."""
    problems = []
    verdicts: dict[tuple, list[str]] = {}
    for o in outcomes:
        if o.exit != 0:
            tail = o.stderr.read_text(errors="replace")[-300:]
            print(f"item {o.item.argv()} exited {o.exit}: {tail}", file=sys.stderr)
            continue
        data = o.stdout.read_bytes()
        key = (o.item.params, hashlib.sha256(data).digest())
        if key not in verdicts:
            try:
                verdicts[key] = checks.CHECKS[o.item.kind](json.loads(data), o.item.ref)
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                verdicts[key] = [f"malformed output: {exc!r}"]
        problems += [f"{o.item.argv()}: {p}" for p in verdicts[key]]
    return problems


def end_to_end(outcomes: list[Outcome], setups: list[float]) -> dict[str, float]:
    done = [o for o in outcomes if o.exit == 0]
    walls = [o.wall for o in done]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(done) / sum(walls),
        "item_p50_s": statistics.median(walls),
        "item_cpu_p50_s": statistics.median(o.cpu for o in done),
        "peak_rss_mib": max(o.rss_kib for o in done) / 1024,
    }


METRICS_OF: dict[str, list[tuple[str, str]]] = {}
for _metric, _kind, _names in SPAN_METRICS:
    for _name in _names:
        METRICS_OF.setdefault(_name, []).append((_metric, _kind))


def span_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over one item's spans; parents precede their children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {metric: 0.0 for metric, _, _ in SPAN_METRICS}
    # timed[i]: the "time" metrics whose group holds span i or an ancestor
    timed: list[frozenset] = [frozenset()] * len(spans)
    memo: dict[tuple, frozenset] = {}
    for i, (name, start, end, parent, _, work) in enumerate(spans):
        outer = timed[parent] if parent >= 0 else frozenset()
        for metric, kind in METRICS_OF.get(name, ()):
            if kind == "time":
                if metric not in outer:
                    totals[metric] += end - start
            elif kind == "self":
                totals[metric] += end - start - covered[i]
            elif kind == "calls":
                totals[metric] += 1
            else:
                totals[metric] += work
        key = (outer, name)
        if key not in memo:
            memo[key] = outer | {m for m, k in METRICS_OF.get(name, ()) if k == "time"}
        timed[i] = memo[key]
    return totals


def per_layer(outcomes: list[Outcome], workload: str, seed: int) -> dict[str, float]:
    """Per-layer sums over the pass; all spans go to one file for the run."""
    totals = dict.fromkeys(PER_LAYER, 0.0)
    with open(OUT / f"spans-{workload}-{seed}.json", "w") as fh:
        fh.write(f'{{"workload": "{workload}", "seed": {seed}, "fields": '
                 '["name", "start", "end", "parent", "item", "work"], "items": [')
        sep = ""
        for o in outcomes:
            path = o.stdout.with_suffix(".spans")
            if not path.exists():  # the item was killed
                continue
            text = path.read_text()
            record = json.loads(text)
            spans = record["spans"]
            main = next(s for s in spans if s[0] == "cli.main")
            totals["cli.startup_s"] += o.wall - (main[2] - main[1]) - record["overhead_s"]
            totals["cli.output_bytes"] += o.stdout.stat().st_size
            for metric, value in span_totals(spans).items():
                totals[metric] += value
            fh.write(sep + text)
            sep = ","
            path.unlink()
        fh.write("]}\n")
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("build", "verify", "enumerate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its item and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cyclochar" / "cli.py").is_file():
        print(f"no cyclochar sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            items = setup(args.workload, args.seed, work)
            setups.append(time.perf_counter() - t0)
        outcomes = run_items(items, args.seconds, bool(args.trace), work)
        problems = check_outputs(outcomes)
        failed = sum(o.exit != 0 for o in outcomes)
        if failed == len(outcomes):
            print("every item failed", file=sys.stderr)
            return 1
        if args.trace:
            values = per_layer(outcomes, args.workload, args.seed)
            units = PER_LAYER
        else:
            values = end_to_end(outcomes, setups)
            units = END_TO_END
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    items = [{"argv": o.item.argv(), "exit": o.exit, "wall_s": o.wall, "cpu_s": o.cpu,
              "max_rss_kib": o.rss_kib} for o in outcomes]
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "setups_s": setups, "items": items}, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

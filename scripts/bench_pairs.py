"""Alternating parent/change pairs of the perfbench benchmark, summarized.

Usage, from anywhere inside a git checkout:

    python3 scripts/bench_pairs.py --parent REV [--change REV] \
        [--pairs 10] --first-seed 1701 --work DIR --out BENCH_17.json

Each side is copied into its own tree under DIR: a revision by
`git archive`, or, for `--change WORKTREE` (the default), the tracked and
untracked files of the working tree that git does not ignore.  The
workloads and the run length S are the ones the change's BENCHMARK.json
declares.  Pair i runs
`python3 perfbench/run.py --workload W --seed FIRST+i --seconds S --trace 0`
in both trees, the parent first on even i and the change first on odd i,
each side with its own tree's perfbench.  Then one traced pass per side and
workload gives the per-layer metrics.

The output holds every run, and per workload and end-to-end metric each
side's median and quartiles (statistics.quantiles, n=4), the pairs the
change won (ties count for neither side), and whether a gain would be
claimable: both sides ran the same benchmark (one digest of BENCHMARK.json
and the perfbench/ files), at least ten pairs ran, every run of both sides
was correct, the change failed no larger share of its items than the
parent, it won at least nine tenths of the pairs, and the medians are apart
by more than the parent's interquartile range.  It also records the
machine and the environment variables that move the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from importlib import metadata
from io import BytesIO
from pathlib import Path

ENV_KEYS = ("PYTHONUNBUFFERED", "PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")
WORKTREE = "WORKTREE"
MIN_PAIRS = 10


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def copy_tree(repo: Path, side: str, dest: Path) -> str:
    """Copy `side` of the repository into dest; returns what was copied."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if side == WORKTREE:
        files = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, files.decode().split("\0")):
            src = repo / name
            if src.is_file():  # a tracked file deleted in the working tree is skipped
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
        return f"working tree on {git(repo, 'rev-parse', 'HEAD').decode().strip()}"
    archive = git(repo, "archive", "--format=tar", side)
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest)
    return git(repo, "rev-parse", side).decode().strip()


def benchmark_digest(tree: Path) -> str:
    """sha256 over the names and bytes of BENCHMARK.json and every file under perfbench/."""
    digest = hashlib.sha256()
    bench = tree / "perfbench"
    for path in [tree / "BENCHMARK.json", *sorted(p for p in bench.rglob("*") if p.is_file())]:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(tree).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its JSON result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                         f"{proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def failed_share(pairs: list[dict], side: str) -> float:
    attempted = sum(p[side]["attempted"] for p in pairs)
    return sum(p[side]["failed"] for p in pairs) / attempted if attempted else 1.0


def summarize(pairs: list[dict], better: dict[str, str], same_benchmark: bool) -> dict:
    """Per metric: both sides' spreads, the change's wins and the claim rule."""
    # no gain counts from an edited benchmark, too few pairs, a wrong output,
    # or more items failing
    sound = (same_benchmark and len(pairs) >= MIN_PAIRS
             and all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
             and failed_share(pairs, "change") <= failed_share(pairs, "parent"))
    out = {}
    for metric, direction in better.items():
        values = {side: [p[side]["metrics"][metric]["value"] for p in pairs]
                  for side in ("parent", "change")}
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ties = sum(c == p for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        gain = sign * (change["median"] - parent["median"])
        out[metric] = {
            "better": direction,
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(pairs),
            "median_gain": gain,
            "claimable": sound and wins >= 0.9 * len(pairs) and gain > parent["iqr"],
        }
    return out


def machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"cpu": cpu, "vcpus": os.cpu_count(), "arch": platform.machine(),
            "os": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(), "numpy": numpy}


def pair_count(text: str) -> int:
    pairs = int(text)
    if pairs < MIN_PAIRS:
        raise argparse.ArgumentTypeError(f"at least {MIN_PAIRS} pairs are needed, not {pairs}")
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default=WORKTREE,
                        help=f"git revision of the change, or {WORKTREE} (default)")
    parser.add_argument("--pairs", type=pair_count, default=MIN_PAIRS)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory for the two tree copies")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    trees = {"parent": args.work / "parent", "change": args.work / "change"}
    sources = {side: copy_tree(repo, rev, trees[side])
               for side, rev in (("parent", args.parent), ("change", args.change))}
    digests = {side: benchmark_digest(tree) for side, tree in trees.items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}"
                   " --trace 0",
        "protocol": f"{args.pairs} alternating parent/change pairs per workload (seeds "
                    f"{args.first_seed}-{args.first_seed + args.pairs - 1}, parent first on "
                    "even positions), each side run from its own copy of its tree; quartiles "
                    "by statistics.quantiles(n=4); a gain is claimable when both sides have "
                    f"one benchmark digest, at least {MIN_PAIRS} pairs ran, every run was correct, the change failed no "
                    "larger share of its items, it wins at least 9/10 of the pairs and the "
                    "medians differ by more than the parent's IQR; then one --trace 1 pass "
                    "per side",
        "sources": sources,
        "benchmark_digest": digests,
        "machine": machine(),
        "environment": {key: os.environ.get(key) for key in ENV_KEYS},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(trees[side], workload, seed, seconds, 0)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['items_per_s']['value']:.3f} items/s"
                for side in ("parent", "change")), file=sys.stderr)
        traced = {}
        for side in ("parent", "change"):
            line = run_bench(trees[side], workload, args.first_seed, 0, 1)
            for metric, value in line["metrics"].items():
                traced.setdefault(metric, {"parent": [], "change": []})[side].append(
                    value["value"])
        result["workloads"][workload] = {
            "pairs": pairs,
            "summary": summarize(pairs, better, digests["parent"] == digests["change"]),
            "traced": traced,
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n")  # partial results survive
    return 0


if __name__ == "__main__":
    sys.exit(main())

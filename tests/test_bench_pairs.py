"""The claim rule of scripts/bench_pairs.py, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"items_per_s": "higher"}


def run(rate, failed=0, correct=True, attempted=100):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"items_per_s": {"value": rate}}}


def pairs(count=10, **change):
    # the parent's rates spread over 3.0-3.9, the change's sit far above them
    return [{"seed": i, "parent": run(3.0 + i / 10), "change": run(6.0 + i / 10, **change)}
            for i in range(count)]


def claimable(runs, same_benchmark=True):
    return bench_pairs.summarize(runs, BETTER, same_benchmark)["items_per_s"]["claimable"]


def test_a_clear_gain_is_claimable():
    summary = bench_pairs.summarize(pairs(), BETTER, True)["items_per_s"]
    assert summary["change_wins"] == 10 and summary["claimable"]


def benchmark_digest(tree, spec='{"run_seconds": 20}', run_py="ITEM_LIMIT_S = 150\n"):
    (tree / "perfbench").mkdir(parents=True)
    (tree / "BENCHMARK.json").write_text(spec)
    (tree / "perfbench" / "run.py").write_text(run_py)
    return bench_pairs.benchmark_digest(tree)


def test_an_edited_benchmark_claims_nothing(tmp_path):
    parent = benchmark_digest(tmp_path / "parent")
    assert benchmark_digest(tmp_path / "same") == parent
    assert benchmark_digest(tmp_path / "spec", spec='{"run_seconds": 2}') != parent
    assert benchmark_digest(tmp_path / "run", run_py="ITEM_LIMIT_S = 15\n") != parent
    assert claimable(pairs(), same_benchmark=True)
    assert not claimable(pairs(), same_benchmark=False)


def test_fewer_than_ten_pairs_claim_nothing():
    assert not claimable(pairs(9))


def test_a_wrong_output_on_either_side_claims_nothing():
    runs = pairs()
    runs[3]["change"]["correct"] = False
    assert not claimable(runs)
    runs = pairs()
    runs[5]["parent"]["correct"] = False
    assert not claimable(runs)


def test_a_larger_failed_share_claims_nothing():
    assert not claimable(pairs(failed=1))
    # more items failed, but of four times as many attempted: a smaller share
    runs = pairs(failed=2, attempted=400)
    for p in runs:
        p["parent"]["failed"] = 1
        p["parent"]["attempted"] = 100
    assert claimable(runs)


def test_nine_wins_in_ten_suffice_and_eight_do_not():
    runs = pairs()
    runs[0]["change"]["metrics"]["items_per_s"]["value"] = 1.0
    assert claimable(runs)
    runs[1]["change"]["metrics"]["items_per_s"]["value"] = 1.0
    assert not claimable(runs)


@pytest.mark.parametrize("count", ["1", "9"])
def test_fewer_than_ten_pairs_are_refused(count, capsys):
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--parent", "HEAD", "--first-seed", "1", "--pairs", count,
                          "--work", "unused", "--out", "unused.json"])
    assert exit_.value.code == 2
    assert "at least 10 pairs" in capsys.readouterr().err

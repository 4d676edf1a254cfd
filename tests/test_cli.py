"""Command-line surface: exit codes, formats, round-trips, fault injection."""

import hashlib
import importlib.util
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cyclochar import cli, codes, gf, numth, verify
from cyclochar.characterize import build_code, enumerate_codes
from cyclochar.gf import field_for
from cyclochar.errors import ResourceLimitError
from cyclochar.numth import code_count, factorize

# `enumerate --q 3 --k 4 --format json` as printed when the listing still
# built F_81 first; the field-free listing must keep every byte.
ENUMERATE_3_4_JSON = (
    '{"q": 3, "k": 4, "count": 16, "formula": 16, "codes": ['
    + ", ".join(
        f'{{"e1": {e1}, "delta_e1": {40 * e1}, "e2": {e2}}}'
        for e1 in (0, 1)
        for e2 in (1, 7, 11, 13, 17, 23, 41, 53)
    )
    + "]}\n"
)


# Every (q, k) with k >= 2 and q^k <= 2^14, q a prime power.
LISTING_BLOCKS = [
    (q, k)
    for q in range(2, 2**7 + 1)
    if len(factorize(q)) == 1
    for k in range(2, 15)
    if q**k <= 2**14
]


def reference_records(q, k):
    """The listing's records as they were made before the listing kept its
    classes in arrays: one pass over the walk's dict per e1, each class's
    residue tested per record."""
    n = q**k - 1
    reps = numth.coset_representatives(q, k, n // (q - 1))
    units = [[numth.gcd_conditions(q, k, e1, r)[0] == 1 for r in range(q - 1)]
             for e1 in range(q - 1)]
    for e1, row in enumerate(units):
        for rep in reps:
            if row[rep % (q - 1)]:
                yield e1, rep


def old_enumerate_output(q, k, fmt):
    """`enumerate` as printed before it streamed: every reference record in
    a list, then one json.dumps of the whole report, or one line per record."""
    pairs = list(reference_records(q, k))
    formula = code_count(q, k)
    n = q**k - 1
    delta = n // (q - 1)
    if fmt == "json":
        return json.dumps({
            "q": q,
            "k": k,
            "count": len(pairs),
            "formula": formula,
            "codes": [{"e1": e1, "delta_e1": delta * e1 % n, "e2": e2} for e1, e2 in pairs],
        }) + "\n"
    return "".join(
        [f"qualifying codes for q={q}, k={k}: {len(pairs)} (formula: {formula})\n"]
        + [f"  C_({delta * e1 % n},{e2})   e1={e1} e2={e2}\n" for e1, e2 in pairs]
    )


def report_json(report):
    """The fixed-order report object `build --format json` prints; key order
    is part of the format."""
    ctx, dual = report.ctx, report.dual
    return {
        "q": ctx.q,
        "k": ctx.k,
        "e1": report.e1,
        "e2": report.e2,
        "n": ctx.m,
        "dim": ctx.k + 1,
        "weights": report.distribution.pairs(),
        "griesmer_optimal": codes.is_griesmer_optimal(
            ctx.q, ctx.m, ctx.k + 1, report.distribution.min_nonzero_weight()
        ),
        "dual": {
            "min_weight": dual.min_nonzero_weight(),
            "B1": dual.entries.get(1, 0),
            "B2": dual.entries.get(2, 0),
            "B3": dual.entries.get(3, 0),
        },
    }


# perfbench's build workload: n = 1023 .. 4095
BENCHMARK_BUILD_BLOCKS = [(2, 10), (2, 11), (2, 12), (4, 5), (4, 6), (8, 4), (16, 3)]


def fresh_interpreter_modules(runs, unread):
    """(exit codes, loaded modules of the packages in unread) of a fresh
    interpreter that imports cyclochar.cli and runs cli.main on each argv."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    script = "\n".join([
        "import contextlib, io, sys",
        "before = set(sys.modules)",
        "import cyclochar.cli as cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        f"    codes = [cli.main(argv) for argv in {runs!r}]",
        f"unread = {set(unread)!r}",
        "print(codes, sorted(m for m in set(sys.modules) - before if m.split('.')[0] in unread))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class CountingSink:
    """A stdout that counts the write calls made on it and hashes what they write."""

    def __init__(self):
        self.digest, self.size, self.writes = hashlib.sha256(), 0, 0

    def write(self, text):
        data = text.encode()
        self.digest.update(data)
        self.size += len(data)
        self.writes += 1
        return len(text)

    def flush(self):
        pass


def run_counted(*argv):
    sink = CountingSink()
    with redirect_stdout(sink), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, sink


class _FlushLog(io.StringIO):
    """A stdout that keeps what it held at its last flush."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


def enumerate_args(q, k):
    """The parsed arguments of `enumerate --q q --k k`, for cmd_enumerate."""
    return cli._build_parser().parse_args(["enumerate", "--q", str(q), "--k", str(k)])


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_example1_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        ctx = field_for(4, 3)
        assert parsed == report_json(build_code(ctx, 2, 5))
        assert parsed["weights"] == [[0, 1], [47, 189], [48, 63], [63, 3]]
        assert parsed["dual"] == {"min_weight": 3, "B1": 0, "B2": 0, "B3": 3843}
        assert list(parsed) == ["q", "k", "e1", "e2", "n", "dim", "weights",
                                "griesmer_optimal", "dual"]

    def test_example2_text(self, capsys):
        code, out, _ = run(capsys, "build", "--q", "3", "--k", "4", "--e1", "0", "--e2", "1")
        assert code == 0
        assert "[80,5,53]" in out
        assert "1 + 160z^53 + 80z^54 + 2z^80" in out

    def test_condition_failure_exit_2(self, capsys):
        code, out, _ = run(capsys, "build", "--q", "3", "--k", "2", "--e1", "0", "--e2", "2")
        assert code == 2
        assert "gcd(Delta,e2)=2" in out

    def test_at_the_field_cap(self, capsys):
        # the dual prefix needs no transform budget: the field cap is build's
        # only size limit
        code, out, _ = run(
            capsys, "build", "--q", "2", "--k", "20", "--e1", "0", "--e2", "1",
            "--format", "json",
        )
        assert code == 0
        path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        assert checks.CHECKS["build"](json.loads(out), checks.REFERENCES["build"](2, 20, 0, 1)) == []

    def test_large_prime_field(self, capsys):
        # F_257^2: base-p digits above 255, and an order above 2^16
        code, out, _ = run(
            capsys, "build", "--q", "257", "--k", "2", "--e1", "0", "--e2", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["weights"] == [
            [0, 1], [65791, 16908288], [65792, 66048], [66048, 256]
        ]

    def test_internal_cap_exit_2(self, capsys):
        code, _, err = run(
            capsys, "build", "--q", "2", "--k", "25", "--e1", "0", "--e2", "1",
        )
        assert code == 2
        assert "cap" in err

    def test_builds_without_the_modules_it_does_not_read(self):
        # the report is written without json, the Pless check without
        # fractions, and the records are no dataclasses
        runs = [["build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5", "--format", fmt]
                for fmt in ("json", "text")]
        unread = {"dataclasses", "fractions", "decimal", "json"}
        assert fresh_interpreter_modules(runs, unread) == "[0, 0] []"
        # only a failed condition in JSON still reads json
        runs.append(["build", "--q", "3", "--k", "2", "--e1", "0", "--e2", "2", "--format", "json"])
        assert fresh_interpreter_modules(runs, unread) == (
            "[0, 0, 2] ['json', 'json.decoder', 'json.encoder', 'json.scanner']"
        )

    def test_json_report_is_the_json_dumps_bytes(self):
        # every qualifying code at n <= 255 and every 50th at the benchmark
        # blocks; the command writes the first of each block in one call
        blocks = [(q, k, None) for q, k in verify.default_pairs(255)]
        blocks += [(q, k, 50) for q, k in BENCHMARK_BUILD_BLOCKS]
        reports = 0
        for q, k, stride in blocks:
            ctx = field_for(q, k)
            for i, (e1, e2) in enumerate(islice(enumerate_codes(q, k, ctx.order), 0, None, stride)):
                report = build_code(ctx, e1, e2)
                expected = json.dumps(report_json(report)) + "\n"
                assert cli.report_line(report) == expected, (q, k, e1, e2)
                reports += 1
                if i == 0:
                    argv = [str(v) for v in ("--q", q, "--k", k, "--e1", e1, "--e2", e2)]
                    code, sink = run_counted("build", *argv, "--format", "json")
                    assert code == 0 and sink.writes == 1, argv
                    assert sink.digest.digest() == hashlib.sha256(expected.encode()).digest()
        assert reports == 2073 + 269


class TestEnumerate:
    def test_example2_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "3", "--k", "4", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["count"] == parsed["formula"] == 16
        assert {(c["delta_e1"], c["e2"]) for c in parsed["codes"]} == {
            (d, e2) for d in (0, 40) for e2 in (1, 7, 11, 13, 17, 23, 41, 53)
        }

    def test_q2_k3(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "2", "--k", "3")
        assert code == 0
        assert "2 (formula: 2)" in out

    def test_q4_k3_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "4", "--k", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["count"] == 36

    def test_count_mismatch_exit_3(self, capsys, monkeypatch):
        from cyclochar.errors import TheoremViolationError

        def broken(q, k, cap):
            raise TheoremViolationError("enumerated 15 codes but the count formula gives 16")

        monkeypatch.setattr(cli, "qualifying_codes", broken)
        code, _, err = run(capsys, "enumerate", "--q", "3", "--k", "4")
        assert code == 3
        assert "identity violated" in err

    def test_builds_no_field_and_keeps_its_bytes(self, capsys, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("enumerate built a field")

        monkeypatch.setattr(gf.FieldCtx, "__init__", no_field)
        monkeypatch.setattr(gf, "field_for", no_field)
        code, out, _ = run(capsys, "enumerate", "--q", "3", "--k", "4", "--format", "json")
        assert code == 0
        assert out == ENUMERATE_3_4_JSON

    @pytest.mark.parametrize("flag,value", [("--primitive-table", "p.txt"),
                                            ("--bruteforce-cap", "64")])
    def test_dead_flags_are_usage_errors(self, capsys, flag, value):
        code, _, _ = run(capsys, "enumerate", "--q", "2", "--k", "3", flag, value)
        assert code == 64

    @pytest.mark.parametrize("q,k,message", [
        (6, 2, "6 is not a prime power"),
        (2, 21, "field order 2^21 exceeds the cap"),
    ])
    def test_validation_exit_2(self, capsys, q, k, message):
        code, _, err = run(capsys, "enumerate", "--q", str(q), "--k", str(k))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("q,count,gib", [(1024, "245,520,000", "13.7"),
                                             (512, "35,761,824", "1.9")])
    def test_oversized_listing_refused_before_the_coset_walk(self, capsys, monkeypatch,
                                                             q, count, gib, fmt):
        # qualifying_codes(512, 2) lists its codes; only writing them is refused
        def no_walk(*args):
            raise AssertionError("the coset walk started")

        monkeypatch.setattr(numth, "coset_representatives", no_walk)
        code, out, err = run(capsys, "enumerate", "--q", str(q), "--k", "2", "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: writing the {count} codes for q = {q}, k = 2 needs about"
                       f" {gib} GiB, over the 1 GiB budget\n")

    def test_budget_refuses_before_the_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the coset walk started")

        monkeypatch.setattr(numth, "coset_representatives", no_walk)
        monkeypatch.setattr(numth, "JOB_BUDGET_BYTES", 16 * cli.listing_record_bytes(80) - 1)
        with pytest.raises(ResourceLimitError, match="16 codes for q = 3, k = 4"):
            cli.cmd_enumerate(enumerate_args(3, 4))

    def test_budget_bounds_the_written_bytes(self, capsys, monkeypatch):
        needed = 16 * cli.listing_record_bytes(80)
        monkeypatch.setattr(numth, "JOB_BUDGET_BYTES", needed)
        assert cli.cmd_enumerate(enumerate_args(3, 4)) == 0
        monkeypatch.setattr(numth, "JOB_BUDGET_BYTES", needed - 1)
        with pytest.raises(ResourceLimitError, match="writing the 16 codes for q = 3, k = 4"):
            cli.cmd_enumerate(enumerate_args(3, 4))

    def test_largest_benchmark_block_far_inside_the_budget(self):
        biggest = max(code_count(q, k) for q, k in [(2, 16), (4, 8), (2, 18), (16, 4),
                                                    (2, 19), (8, 6), (2, 20), (4, 10)])
        assert 8 * biggest * cli.listing_record_bytes(2**20 - 1) < numth.JOB_BUDGET_BYTES

    def test_starts_and_lists_without_the_modules_it_does_not_read(self):
        # numpy, and the start-up cost of dataclasses (inspect, ast, dis,
        # tokenize), fractions, decimal and json, which the listing never reads
        runs = [["enumerate", "--q", "3", "--k", "4", "--format", fmt] for fmt in ("json", "text")]
        runs.append(["enumerate", "--q", "6", "--k", "2"])
        unread = {"numpy", "dataclasses", "fractions", "decimal", "json"}
        assert fresh_interpreter_modules(runs, unread) == "[0, 0, 2] []"

    @pytest.mark.parametrize("q,k", LISTING_BLOCKS)
    def test_streams_the_bytes_of_the_old_encoder(self, capsys, q, k):
        assert list(numth.qualifying_codes(q, k).pairs()) == list(reference_records(q, k))
        bound = cli.listing_record_bytes(q**k - 1)
        for fmt in ("json", "text"):
            code, out, _ = run(capsys, "enumerate", "--q", str(q), "--k", str(k), "--format", fmt)
            assert code == 0
            assert out == old_enumerate_output(q, k, fmt)
            if fmt == "text":  # every record within the bound the job budget reads
                assert max(len(line) + 1 for line in out.splitlines()[1:]) <= bound
            else:
                records = len(out) - out.index("[") - 1 - len("]}\n")
                assert records <= code_count(q, k) * bound

    def test_broken_class_tally_exits_3_before_any_record(self, capsys, monkeypatch):
        real = numth.coset_representatives

        def one_class_short(q, k, coprime_to):
            reps = real(q, k, coprime_to)
            reps.pop(max(reps))
            return reps

        monkeypatch.setattr(numth, "coset_representatives", one_class_short)
        for fmt in ("json", "text"):
            code, out, err = run(capsys, "enumerate", "--q", "3", "--k", "4", "--format", fmt)
            assert code == 3
            assert out == ""
            assert "enumerated 14 codes but the count formula gives 16" in err

    def test_listing_peak_does_not_grow_with_the_count(self):
        # n = 4095 in both blocks, and the count grows 378-fold: 144 codes at
        # (2,12), 54,432 at (64,2), which are over 2.5 MB of JSON
        peaks = {}
        for q, k in [(2, 12), (64, 2)]:
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert cli.main(["enumerate", "--q", str(q), "--k", str(k), "--format", "json"]) == 0
                    peaks[q, k] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[64, 2] < peaks[2, 12] + (1 << 20), peaks

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_listing_peak_per_class(self, fmt):
        # (4,10) has 72,000 e2 classes.  The walk's dict takes about 70 bytes
        # a class; once it is gone the listing holds each class's decimal
        # (about 64 bytes with its list slot) and a 2-byte residue: about 78
        # bytes a class at either peak.  Keeping the dict beside the decimals
        # would take about 130.
        q, k = 4, 10
        classes = (q - 1) * numth.euler_phi((q**k - 1) // (q - 1)) // k
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert cli.main(["enumerate", "--q", str(q), "--k", str(k), "--format", fmt]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert classes == 72_000
        assert peak < 100 * classes, peak / classes


class TestBatchedWrites:
    # Under PYTHONUNBUFFERED every write call on stdout is one write(2): the
    # listing once paid one per record (122,882 here), `dual` one per frequency.
    GOLDEN_16_4_JSON = "b9193b247c22bea63349376e973a170b8e112952469219a7976a114da16a9d60"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_the_listing_writes_a_call_per_batch(self, fmt):
        code, sink = run_counted("enumerate", "--q", "16", "--k", "4", "--format", fmt)
        listing = numth.qualifying_codes(16, 4)
        count, rows = listing.count, len({e1 for e1, _ in listing.pairs()})
        assert code == 0 and count == 122_880
        assert sink.writes <= -(-count // 4096) + rows + 2, sink.writes
        if fmt == "json":
            assert sink.digest.hexdigest() == self.GOLDEN_16_4_JSON

    def test_the_dual_writes_a_call_per_64_kib(self):
        code, sink = run_counted("dual", "--q", "2", "--k", "13", "--e1", "0", "--e2", "1",
                                 "--format", "text")
        assert code == 0 and sink.size > 7_000_000
        assert sink.writes <= -(-sink.size // (64 << 10)) + 2, sink.writes

    def test_an_unbuffered_stdout_keeps_the_bytes(self):
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "cyclochar.cli", "enumerate", "--q", "16", "--k", "4",
             "--format", "json"],
            env={**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": "1"},
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == self.GOLDEN_16_4_JSON


class TestCharsum:
    def test_all_zero_case(self, capsys):
        code, out, _ = run(
            capsys, "charsum", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            "--a", "0", "--b", "0", "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["integer"] == 189
        assert parsed["closed_form_applies"] is True

    def test_generic_class_is_one(self, capsys):
        ctx = field_for(4, 3)
        from cyclochar.gf import ZERO
        a = next(e for e in range(63) if ctx.trace_to(e, "Fq") != ZERO)
        code, out, _ = run(
            capsys, "charsum", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            "--a", f"g{a}", "--b", "g0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["integer"] == 1

    def test_gap_case_flagged(self, capsys):
        # (4, 2), e1=2, e2=1: d = 3 > 1
        ctx = field_for(4, 2)
        from cyclochar.gf import ZERO
        a = next(e for e in range(15) if ctx.trace_to(e, "Fq") != ZERO)
        code, out, _ = run(
            capsys, "charsum", "--q", "4", "--k", "2", "--e1", "2", "--e2", "1",
            "--a", f"g{a}", "--b", "g0", "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["closed_form_applies"] is False
        assert parsed["d"] == 3
        assert parsed["d_divides"] is True
        assert parsed["integer"] != 1

    def test_invalid_spec_exit_2(self, capsys):
        code, _, err = run(
            capsys, "charsum", "--q", "3", "--k", "2", "--e1", "0", "--e2", "2",
            "--a", "0", "--b", "0",
        )
        assert code == 2

    @pytest.mark.parametrize("b,e", [("-1", -1), ("g-1", -1), ("g63", 63)])
    def test_exponent_out_of_range_exit_2(self, capsys, b, e):
        # -1 once collided with the zero element's sentinel and exited 0
        code, out, err = run(
            capsys, "charsum", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            "--a", "g1", "--b", b,
        )
        assert code == 2
        assert out == ""
        assert f"element exponent out of range: {e} is not in [0, 63)" in err

    def test_literals_echoed_as_typed(self, capsys):
        code, out, _ = run(
            capsys, "charsum", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            "--a", "g1", "--b", "62", "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        assert (parsed["a"], parsed["b"], parsed["integer"]) == ("g1", "62", 1)

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_malformed_literal_exit_64(self, capsys, flag):
        literals = {"--a": "g1", "--b": "0", flag: "xyz"}
        code, _, err = run(
            capsys, "charsum", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            *(v for pair in literals.items() for v in pair),
        )
        assert code == 64
        assert "invalid element 'xyz'" in err


class TestDualAndMinpoly:
    def test_dual_simplex(self, capsys):
        code, out, _ = run(
            capsys, "dual", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1",
            "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["dual_min_weight"] == 4
        assert parsed["dual_weights"] == [[0, 1], [4, 7]]

    def test_dual_past_the_int_str_digit_limit(self, capsys):
        # the B_j of the [4095, 4082] dual run to about 1230 digits, past a
        # limit of 640; main lifts the limit for dual and restores it
        from cyclochar.codes import macwilliams_dual, weight_distribution_trace

        argv = ("dual", "--q", "2", "--k", "12", "--e1", "0", "--e2", "1", "--format")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            outs = {}
            for fmt in ("json", "text"):
                code, outs[fmt], _ = run(capsys, *argv, fmt)
                assert code == 0
                assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        want = macwilliams_dual(weight_distribution_trace(field_for(2, 12), 0, 1), 2, 13)
        assert json.loads(outs["json"])["dual_weights"] == want.pairs()
        assert outs["text"].splitlines()[1] == f"dual enumerator: {want.enumerator()}"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_dual_holds_less_than_its_output(self, fmt):
        # the [8191, 8177] dual writes 7.3 MB; written a frequency at a time,
        # the run never holds the whole output beside the transform
        class HashingSink:
            def __init__(self):
                self.digest, self.size = hashlib.sha256(), 0

            def write(self, text):
                data = text.encode()
                self.digest.update(data)
                self.size += len(data)
                return len(text)

            def flush(self):
                pass

        field_for(2, 13)
        sink = HashingSink()
        tracemalloc.start()
        try:
            with redirect_stdout(sink), redirect_stderr(io.StringIO()):
                code = cli.main(["dual", "--q", "2", "--k", "13", "--e1", "0", "--e2", "1",
                                 "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and sink.size > 7_000_000
        assert peak < sink.size

    def test_minpoly_text_format(self, capsys):
        code, out, _ = run(capsys, "minpoly", "--q", "2", "--k", "3", "--a", "1")
        assert code == 0
        assert out.strip() == "1,0,1,1"

    def test_minpoly_with_override_table(self, capsys, tmp_path):
        path = tmp_path / "prims.txt"
        path.write_text("2 3 1 0 1 1\n")
        code, out, _ = run(
            capsys, "minpoly", "--q", "2", "--k", "3", "--a", "1",
            "--primitive-table", str(path),
        )
        assert code == 0
        assert out.strip() == "1,1,0,1"  # reciprocal field: h_1 flips

    def test_missing_primitive_table_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing.txt"
        code, _, err = run(
            capsys, "minpoly", "--q", "2", "--k", "3", "--a", "1", "--primitive-table", str(path),
        )
        assert code == 2
        assert f"error: {path}: cannot read the primitive table" in err

    def test_non_integer_primitive_table_token_exit_2(self, capsys, tmp_path):
        path = tmp_path / "prims.txt"
        path.write_text("# p degree c0 .. cd\n2 3 1 0 x 1\n")
        code, _, err = run(
            capsys, "minpoly", "--q", "2", "--k", "3", "--a", "1", "--primitive-table", str(path),
        )
        assert code == 2
        assert f"error: {path}:2: non-integer token" in err


def test_a_failed_condition_is_refused_before_numpy_is_imported():
    # check_field, the gcd conditions and charsum's element range come before
    # the imports, the --primitive-table file and the field: at q^k = 2^20
    # that field is most of half a second
    runs = [
        ["charsum", "--q", "1024", "--k", "2", "--e1", "0", "--e2", "0", "--a", "0", "--b", "0"],
        ["charsum", "--q", "1024", "--k", "2", "--e1", "0", "--e2", "1", "--a", "g1048575",
         "--b", "0"],
        ["build", "--q", "1024", "--k", "2", "--e1", "0", "--e2", "0"],
        ["build", "--q", "1024", "--k", "2", "--e1", "0", "--e2", "0", "--format", "json"],
        ["build", "--q", "4", "--k", "2", "--e1", "2", "--e2", "1", "--format", "json"],
    ]
    assert fresh_interpreter_modules(runs, {"numpy"}) == "[2, 2, 2, 2, 2] []"


def test_the_other_subcommands_load_no_dataclasses():
    # every record they make is a NamedTuple or a plain class
    commands = [
        ["verify", "--q", "2", "--k", "3"],
        ["charsum", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5", "--a", "g3", "--b", "0"],
        ["dual", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1"],
        ["minpoly", "--q", "2", "--k", "3", "--a", "1"],
    ]
    runs = [[*argv, "--format", fmt] for argv in commands for fmt in ("json", "text")]
    assert fresh_interpreter_modules(runs, {"dataclasses"}) == f"{[0] * len(runs)} []"


class TestVerify:
    def test_small_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--q", "2", "--k", "3..5")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS three_weight_iff_conditions q=2 k=5" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--q", "3", "--k", "2", "--format", "json",
        )
        assert code == 0
        results = json.loads(out)
        assert all(r["ok"] for r in results)
        assert {r["property"] for r in results} == set(verify.PROPERTIES)

    def test_prop_subset(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--q", "2", "--k", "2",
            "--props", "substitution_bijection,enumeration_count",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_unknown_prop_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "2", "--k", "2", "--props", "nope")
        assert code == 2

    def test_empty_props_exit_2(self, capsys):
        # an empty selection is refused like ",", not read as "every property"
        code, out, err = run(capsys, "verify", "--q", "2", "--k", "2", "--props", "")
        assert code == 2
        assert out == ""
        assert "unknown properties: ['']" in err

    def test_unknown_prop_names_the_valid_ones(self, capsys):
        code, _, err = run(capsys, "verify", "--q", "2", "--k", "2", "--props", "nope,char_sum_cases")
        assert code == 2
        assert "unknown properties: ['nope']" in err
        assert all(prop in err for prop in verify.PROPERTIES)

    def test_injected_fault_exit_3(self, capsys, monkeypatch):
        # sabotage the condition test; the sweep must catch the lie
        import cyclochar.verify as vmod

        real = vmod.gcd_conditions

        def flipped(q, k, e1, e2):
            g1, g2 = real(q, k, e1, e2)
            return (2 if g1 == 1 else 1, g2)

        monkeypatch.setattr(vmod, "gcd_conditions", flipped)
        code, out, err = run(
            capsys, "verify", "--q", "3", "--k", "2",
            "--props", "three_weight_iff_conditions",
        )
        assert code == 3
        assert "FAIL" in out
        assert "counterexample" in err

    def test_run_block_calls_sweeps_by_name(self, monkeypatch):
        # a rebound module global (a tracing wrapper, a stub) must be the
        # function run_block calls
        calls = []

        def stub(ctx):
            calls.append((ctx.q, ctx.k))
            return -1, None

        monkeypatch.setattr(verify, "verify_enumeration", stub)
        results = list(verify.run_block(2, 3, 1 << 20, ("enumeration_count",)))
        assert calls == [(2, 3)]
        assert [r.checked for r in results] == [-1]

    def test_refused_fieldless_sweep_builds_no_field(self, capsys, monkeypatch):
        # the substitution sweep reads no field, so the budget refuses it
        # before F_(2^20) is built
        def no_field(*args, **kwargs):
            raise AssertionError("the field was built")

        monkeypatch.setattr(gf.FieldCtx, "__init__", no_field)
        code, out, err = run(
            capsys, "verify", "--q", "32", "--k", "4", "--props", "substitution_bijection"
        )
        assert code == 2
        assert out == ""
        assert "the substitution grid needs about 1.9 GiB" in err

    @pytest.mark.parametrize("argv", [("--q", "6"), ("--q", "128"), ("--max-length", "2")])
    def test_empty_selection_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "no (q, k) block was selected" in err

    def test_empty_selection_at_a_large_max_length_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "--q", "6", "--max-length", "3000000")
        assert time.perf_counter() - start < 2
        assert code == 2
        assert "no (q, k) block was selected" in err

    @pytest.mark.parametrize("argv,refused", [
        ((), "field order 2^21 exceeds"), (("--k", "2"), "field order 1031^2 exceeds"),
    ])
    def test_a_block_past_the_cap_is_refused_before_the_pair_walk_ends(
        self, capsys, monkeypatch, argv, refused
    ):
        # the whole walk to isqrt(10^14 + 1) would split 10^7 candidate q;
        # reaching 1031 takes 1030
        real, calls = verify.prime_power_split, []

        def bounded(q):
            calls.append(q)
            if len(calls) > 2000:
                raise AssertionError("the pair walk ran past the first refused block")
            return real(q)

        monkeypatch.setattr(verify, "prime_power_split", bounded)
        code, out, err = run(capsys, "verify", "--max-length", "100000000000000", *argv)
        assert code == 2
        assert out == ""
        assert refused in err

    @pytest.mark.parametrize("argv,split,exit_code", [
        (("--q", "6", "--max-length", str(10**12)), [6], 2),
        (("--q", f"2..{10**9}"), list(range(2, 12)), 0),
        (("--q", "1000000..1000003", "--max-length", str(10**12)), [10**6], 2),
    ])
    def test_a_q_range_walks_only_its_own_q_under_the_root(self, capsys, monkeypatch, argv,
                                                             split, exit_code):
        # q <= isqrt(--max-length + 1) bounds every block; no other q is split
        real, calls = verify.prime_power_split, []
        monkeypatch.setattr(verify, "prime_power_split", lambda q: calls.append(q) or real(q))
        code, _, _ = run(capsys, "verify", *argv, "--props", "substitution_bijection")
        assert calls == split
        assert code == exit_code

    @pytest.mark.parametrize("limit", [0, 3, 127, 4095, 10**6])
    def test_a_q_range_selects_what_the_filtered_walk_did(self, limit):
        for lo, hi in [(2, 2), (0, 5), (-3, 1), (5, 4), (3, 40), (7, 10**9), (1024, 1024)]:
            qs = range(lo, hi + 1)
            every = [(q, k) for q, k in verify.default_pairs(limit) if q in qs]
            assert list(verify.default_pairs(limit, qs)) == every

    def test_run_block_is_a_generator(self):
        assert inspect.isgeneratorfunction(verify.run_block)

    @pytest.mark.parametrize("fmt,first", [
        ("json", '[{"property": "substitution_bijection", "q": 2, "k": 3, "ok": true, '
                 '"checked": 42}'),
        ("text", "PASS substitution_bijection q=2 k=3 checked=42\n"),
    ])
    def test_a_result_is_flushed_before_the_next_sweep_starts(self, monkeypatch, fmt, first):
        out, seen = _FlushLog(), []

        def second(ctx):
            seen.append(out.flushed)
            return 1, None

        monkeypatch.setattr(verify, "verify_char_sum_unit_iff", second)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["verify", "--q", "2", "--k", "3", "--format", fmt,
                             "--props", "substitution_bijection,char_sum_unit_iff"])
        assert code == 0
        assert seen == [first]

    @pytest.mark.parametrize("exc,code", [(KeyboardInterrupt, None), (RuntimeError, 1)])
    def test_an_aborted_run_leaves_the_finished_results(self, monkeypatch, exc, code):
        # an interrupt propagates out of main, any other error exits 1; both
        # leave a JSON array of what finished
        def raising(ctx):
            raise exc("stop")

        monkeypatch.setattr(verify, "verify_char_sum_unit_iff", raising)
        out, err = io.StringIO(), io.StringIO()
        argv = ["verify", "--q", "2", "--k", "2", "--format", "json",
                "--props", "substitution_bijection,char_sum_unit_iff"]
        with redirect_stdout(out), redirect_stderr(err):
            if code is None:
                with pytest.raises(KeyboardInterrupt):
                    cli.main(argv)
            else:
                assert cli.main(argv) == code
        assert json.loads(out.getvalue()) == [{"property": "substitution_bijection", "q": 2,
                                               "k": 2, "ok": True, "checked": 6}]
        assert out.getvalue().endswith("]\n")

    @pytest.mark.parametrize("limit", [127, 4095, 65535])
    def test_default_pairs_scan_only_up_to_the_root(self, limit):
        # the scan over every q <= limit + 1 it replaces
        every_q = []
        for q in range(2, limit + 2):
            if len(factorize(q)) == 1:
                k = 2
                while q**k - 1 <= limit:
                    every_q.append((q, k))
                    k += 1
        assert list(verify.default_pairs(limit)) == sorted(every_q)

    def test_bad_block_refused_before_any_sweep(self, capsys, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(verify, "run_block", no_sweep)
        code, out, err = run(capsys, "verify", "--q", "2..6", "--k", "2")
        assert code == 2
        assert out == ""
        assert "6 is not a prime power" in err

    @pytest.mark.parametrize("argv,message,blocks", [
        (("--q", f"2..{10**9}", "--k", "2"), "6 is not a prime power",
         [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2)]),
        (("--q", "2", "--k", f"2..{10**9}"), "field order 2^21 exceeds the cap",
         [(2, k) for k in range(2, 22)]),
    ])
    def test_huge_range_refused_as_its_blocks_come(self, capsys, monkeypatch, argv, message, blocks):
        checked = []

        def counting_check(q, k, cap):
            checked.append((q, k))
            return numth.check_field(q, k, cap)

        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(cli, "check_field", counting_check)
        monkeypatch.setattr(verify, "run_block", no_sweep)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert checked == blocks

    @pytest.mark.parametrize("flag,value", [("--q", "abc"), ("--q", "3.."), ("--k", "2..x")])
    def test_malformed_range_exit_64(self, capsys, flag, value):
        code, _, err = run(capsys, "verify", flag, value)
        assert code == 64
        assert f"invalid value {value!r}" in err

    def test_refusal_prints_the_finished_results(self, capsys):
        code, out, err = run(
            capsys, "verify", "--q", "2", "--k", "3", "--bruteforce-cap", "8", "--format", "json",
        )
        assert code == 2
        results = json.loads(out)
        assert [r["property"] for r in results] == [
            "substitution_bijection", "char_sum_cases", "char_sum_unit_iff",
        ]
        assert all(r["ok"] for r in results)
        assert "exceed the brute-force cap 8" in err

    def test_gap_scan_refusal_is_not_a_violation(self, capsys):
        code, out, err = run(
            capsys, "verify", "--q", "2", "--k", "3", "--props", "two_weight_gaps",
            "--bruteforce-cap", "4",
        )
        assert code == 2
        assert out == ""
        assert "exceed the brute-force cap 4" in err

    def test_sweep_error_becomes_a_failing_result(self, capsys, monkeypatch):
        from cyclochar.errors import ConsistencyError

        def broken(q, k, cap):
            raise ConsistencyError("listing broke")

        monkeypatch.setattr(verify, "enumerate_codes", broken)
        code, out, err = run(
            capsys, "verify", "--q", "2", "--k", "3",
            "--props", "enumeration_count,two_weight_gaps", "--format", "json",
        )
        assert code == 3
        failed, passed = json.loads(out)
        assert failed == {"property": "enumeration_count", "q": 2, "k": 3, "ok": False,
                          "checked": 0, "counterexample": {"error": "listing broke"}}
        assert passed["property"] == "two_weight_gaps" and passed["ok"]
        assert "counterexample" in err

    def test_capped_run_keeps_its_bytes(self, capsys):
        # the refusal comes at the same pair with the orbit memo as without it
        code, out, err = run(capsys, "verify", "--q", "2", "--k", "3..4", "--bruteforce-cap", "8")
        assert code == 2
        assert out == (
            "PASS substitution_bijection q=2 k=3 checked=42\n"
            "PASS char_sum_cases q=2 k=3 checked=132\n"
            "PASS char_sum_unit_iff q=2 k=3 checked=42\n"
        )
        assert err == "error: 2^4 codewords exceed the brute-force cap 8\n"

    def test_build_and_verify_leave_numpy_ma_unloaded(self):
        # np.unique would import numpy.ma, 11-15 ms of every item
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        script = "\n".join([
            "import contextlib, io, sys",
            "import cyclochar.cli as cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    codes = [cli.main(['build', '--q', '4', '--k', '3', '--e1', '2', '--e2', '5']),",
            "             cli.main(['verify', '--q', '2', '--k', '3', '--format', 'json'])]",
            "print(codes, 'numpy' in sys.modules, 'numpy.ma' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0] True False"

    def test_bruteforce_cap_is_read(self, capsys):
        code, _, err = run(
            capsys, "verify", "--q", "2", "--k", "3", "--props", "oracle_equivalence",
            "--bruteforce-cap", "8",
        )
        assert code == 2
        assert "exceed the brute-force cap 8" in err

    def test_traced_run_records_every_layer(self, tmp_path):
        # perfbench/traced_item.py wraps a fixed list of functions by name;
        # a missing one fails the run, and a sweep run_block bound too early
        # would record no span
        root = Path(__file__).resolve().parents[1]
        spans = tmp_path / "spans.json"
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced_item.py"), str(spans), "0",
             "verify", "--q", "2", "--k", "3", "--format", "json"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert all(r["ok"] for r in json.loads(proc.stdout))
        names = {span[0] for span in json.loads(spans.read_text())["spans"]}
        sweeps = {"verify_substitution", "verify_char_sum_cases", "verify_char_sum_unit_iff",
                  "verify_three_weight_iff", "verify_oracle_equivalence", "verify_duality",
                  "verify_enumeration", "verify_two_weight_gaps"}
        assert {f"verify.{fn}" for fn in sweeps} <= names
        assert {"expsum.char_sum", "codes.weight_distribution_bruteforce"} <= names


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
class TestBlasThreads:
    # numpy's OpenBLAS starts a worker thread per CPU that spins although
    # no subcommand calls BLAS; importing the CLI first keeps it to one
    def run_script(self, env_value):
        root = Path(__file__).resolve().parents[1]
        env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        if env_value is not None:
            env["OPENBLAS_NUM_THREADS"] = env_value
        script = "\n".join([
            "import os",
            "import cyclochar.cli",
            "import numpy",
            "threads = [line.split()[1] for line in open('/proc/self/status')",
            "           if line.startswith('Threads:')]",
            "print(threads[0], os.environ['OPENBLAS_NUM_THREADS'])",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_numpy_runs_on_one_thread(self):
        assert self.run_script(None) == ["1", "1"]

    def test_a_value_the_user_set_is_kept(self):
        assert self.run_script("2")[1] == "2"


class TestDegreeOne:
    @pytest.mark.parametrize(
        "argv",
        [
            ("build", "--e1", "0", "--e2", "1"),
            ("verify",),
            ("enumerate",),
            ("charsum", "--e1", "0", "--e2", "1", "--a", "0", "--b", "0"),
        ],
    )
    def test_k1_is_a_precondition_failure(self, capsys, argv):
        code, _, err = run(capsys, argv[0], "--q", "2", "--k", "1", *argv[1:])
        assert code == 2
        assert "requires k >= 2" in err


class TestInternalErrors:
    def test_empty_message_names_the_exception_type(self, capsys, monkeypatch):
        def fail(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_build", fail)
        code, _, err = run(capsys, "build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5")
        assert code == 1
        assert err.strip() == "internal error: MemoryError"

    def test_oversized_dual_refused_before_any_field(self, capsys, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("dual built a field")

        monkeypatch.setattr(gf.FieldCtx, "__init__", no_field)
        monkeypatch.setattr(gf, "field_for", no_field)
        code, _, err = run(capsys, "dual", "--q", "2", "--k", "20", "--e1", "0", "--e2", "1")
        assert code == 2
        assert "the MacWilliams transform at n = 1048575, q = 2 needs about 136.7 GiB" in err

    def test_dual_output_over_the_budget_refused_before_any_field(self, capsys, monkeypatch):
        # (2, 16): the transform fits the budget, its 1.2 GiB of decimal output does not
        def no_field(*args, **kwargs):
            raise AssertionError("dual built a field")

        monkeypatch.setattr(gf, "field_for", no_field)
        code, out, err = run(capsys, "dual", "--q", "2", "--k", "16", "--e1", "0", "--e2", "1")
        assert (code, out) == (2, "")
        assert "writing the dual distribution at n = 65535, q = 2 needs about 1.2 GiB" in err

    def test_oversized_dual_exits_2(self, capsys, monkeypatch):
        # the real case, dual --q 2 --k 20, needs a 137 GiB transform
        monkeypatch.setattr(numth, "JOB_BUDGET_BYTES", 1 << 9)
        code, _, err = run(capsys, "dual", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5")
        assert code == 2
        assert "MacWilliams transform" in err and "budget" in err

    def test_dual_is_budgeted_on_its_real_weight_count(self, capsys, monkeypatch):
        # e2 = 0 gives gcd(e2, Delta) = Delta, a trace grid of more than n + 1
        # cells, but the code has two weights: 55 kB of transform at (3, 5),
        # against 128 kB for n + 1 weights
        argv = ("dual", "--q", "3", "--k", "5", "--e1", "0", "--e2", "0")
        want = run(capsys, *argv)
        assert want[0] == 0
        monkeypatch.setattr(numth, "JOB_BUDGET_BYTES", 100_000)
        assert codes.macwilliams_size_bytes(242, 3, 243) > numth.JOB_BUDGET_BYTES
        assert run(capsys, *argv) == want


class TestClosedStdout:
    # a reader that stops early is no program fault: exit 141, as a SIGPIPE
    # kill shows in a shell, and write nothing to stderr
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--q", "2", "--k", "18"],
        ["verify", "--q", "2..1000000000", "--format", "json"],
    ])
    def test_a_closed_pipe_exits_141_quietly(self, argv):
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        proc = subprocess.Popen([sys.executable, "-m", "cyclochar.cli", *argv],
                                env={**os.environ, "PYTHONPATH": path},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        finally:
            proc.kill()
            proc.wait()
        assert len(head) == 10
        assert (code, err) == (141, b"")


class TestTerminated:
    def test_sigterm_closes_the_json_array_and_exits_143(self):
        # SIGTERM once the first result is out, seconds before the last:
        # stdout is one JSON array of the results finished by then
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
        argv = ["verify", "--max-length", "255", "--format", "json"]
        proc = subprocess.Popen([sys.executable, "-m", "cyclochar.cli", *argv],
                                env={**os.environ, "PYTHONPATH": path},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            head = os.read(proc.stdout.fileno(), 1)  # leaves the rest to communicate
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=300)
        finally:
            proc.kill()
            proc.wait()
        results = json.loads(head + out)
        assert (proc.returncode, err) == (143, b"")
        assert 1 <= len(results) < len(verify.PROPERTIES) * len(list(verify.default_pairs(255)))
        assert all(r["ok"] and r["checked"] > 0 for r in results)


class TestUsage:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "build", "--q", "4", "--k", "3", "--e1", "2")
        assert code == 64

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 64

    def test_bad_format_value(self, capsys):
        code, _, _ = run(
            capsys, "build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5",
            "--format", "yaml",
        )
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("build", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1", "--bruteforce-cap", "1"),
        ("charsum", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1", "--a", "0", "--b", "0",
         "--bruteforce-cap", "1"),
        ("dual", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1", "--bruteforce-cap", "1"),
        ("minpoly", "--q", "2", "--k", "3", "--a", "1", "--bruteforce-cap", "1"),
        ("verify", "--q", "2", "--k", "2", "--props", "enumeration_count",
         "--primitive-table", "/nonexistent/table.txt"),
    ])
    def test_unread_flag_exit_64(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert "unrecognized arguments" in err


class TestConfig:
    def test_env_field_cap(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_FIELD_CAP, "16")
        code, _, err = run(capsys, "build", "--q", "2", "--k", "5", "--e1", "0", "--e2", "1")
        assert code == 2
        assert "cap" in err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_FIELD_CAP, "16")
        code, _, _ = run(
            capsys, "build", "--q", "2", "--k", "5", "--e1", "0", "--e2", "1",
            "--field-cap", str(1 << 20),
        )
        assert code == 0

    def test_malformed_env_field_cap_exit_64(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_FIELD_CAP, "abc")
        code, _, err = run(capsys, "enumerate", "--q", "2", "--k", "3")
        assert code == 64
        assert "argument --field-cap: invalid int value: 'abc'" in err

    def test_nonpositive_cap_rejected(self, capsys):
        code, _, _ = run(
            capsys, "build", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1",
            "--field-cap", "0",
        )
        assert code == 2


# Literals for the --a/--b elements and the verify --q/--k ranges: valid,
# out of range and malformed.
ELEMENTS = ["0", "g0", "g1", "7", "-1", "g-1", "g999", "xyz", "g", ""]
RANGES = ["2", "3", "4", "6", "2..3", "3..2", "1", "-1", "abc", "3..", "..3"]
CAPS = ["0", "64", "x"]


@st.composite
def command_lines(draw):
    """One subcommand with small arguments: q^k <= 2^8 where both are drawn."""
    command = draw(st.sampled_from(["build", "enumerate", "verify", "charsum", "dual", "minpoly"]))
    argv = [command, "--format", "json"]
    field_cap = draw(st.none() | st.sampled_from(CAPS))
    if field_cap is not None:
        argv += ["--field-cap", field_cap]
    if command == "verify":
        for flag in ("--q", "--k"):
            value = draw(st.none() | st.sampled_from(RANGES))
            if value is not None:
                argv += [flag, value]
        props = draw(st.sampled_from([*verify.PROPERTIES, "nope", ""]))
        brute_cap = draw(st.sampled_from(["8", "64", str(1 << 22), "0"]))
        return argv + ["--max-length", draw(st.sampled_from(["2", "7", "15"])),
                       "--props", props, "--bruteforce-cap", brute_cap]
    q = draw(st.integers(min_value=0, max_value=16))
    k = draw(st.integers(min_value=-1, max_value=8).filter(lambda k: q ** max(k, 0) <= 1 << 8))
    argv += ["--q", str(q), "--k", str(k)]
    exponent = st.integers(min_value=-300, max_value=300).map(str)
    if command in ("build", "charsum", "dual"):
        argv += ["--e1", draw(exponent), "--e2", draw(exponent)]
    if command == "charsum":
        argv += ["--a", draw(st.sampled_from(ELEMENTS)), "--b", draw(st.sampled_from(ELEMENTS))]
    if command == "minpoly":
        argv += ["--a", draw(exponent)]
    return argv


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(command_lines())
    def test_exit_code_contract(self, argv):
        # a 16 MiB job budget keeps every example small; larger jobs take
        # the budget's exit-2 path
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(numth, "JOB_BUDGET_BYTES", 1 << 24), \
                redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 2, 3, 64), (argv, stderr.getvalue())
        if code == 0:
            parsed = json.loads(stdout.getvalue())
            if argv[0] == "enumerate":
                q, k = int(argv[argv.index("--q") + 1]), int(argv[argv.index("--k") + 1])
                assert parsed["count"] == parsed["formula"] == code_count(q, k)
                assert len(parsed["codes"]) == parsed["count"]

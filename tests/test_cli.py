"""Command-line surface: exit codes, formats, round-trips, fault injection."""

import json

import pytest

from cyclochar import cli, codes, verify
from cyclochar.characterize import build_code
from cyclochar.cli import report_json
from cyclochar.gf import field_for


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
        assert parsed == report_json(build_code(ctx, 4, 3, 2, 5))
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

    def test_internal_cap_exit_2(self, capsys):
        code, _, err = run(
            capsys, "build", "--q", "2", "--k", "25", "--e1", "0", "--e2", "1",
        )
        assert code == 2
        assert "cap" in err


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

        def broken(ctx, q, k):
            raise TheoremViolationError("enumerated 15 codes but the count formula gives 16")

        monkeypatch.setattr(cli, "enumerate_codes", broken)
        code, _, err = run(capsys, "enumerate", "--q", "3", "--k", "4")
        assert code == 3
        assert "identity violated" in err


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

    def test_injected_fault_exit_3(self, capsys, monkeypatch):
        # sabotage the condition test; the sweep must catch the lie
        import cyclochar.verify as vmod

        real = vmod.check_conditions

        def flipped(q, k, e1, e2):
            c1, c2 = real(q, k, e1, e2)
            return (not c1, c2)

        monkeypatch.setattr(vmod, "check_conditions", flipped)
        code, out, err = run(
            capsys, "verify", "--q", "3", "--k", "2",
            "--props", "three_weight_iff_conditions",
        )
        assert code == 3
        assert "FAIL" in out
        assert "counterexample" in err


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
        def fail(args, cfg):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_build", fail)
        code, _, err = run(capsys, "build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5")
        assert code == 1
        assert err.strip() == "internal error: MemoryError"

    def test_oversized_dual_exits_2(self, capsys, monkeypatch):
        # the real case, build --q 2 --k 20, needs a 128 GiB transform
        monkeypatch.setattr(codes, "MACWILLIAMS_BUDGET_BYTES", 1 << 9)
        code, _, err = run(capsys, "build", "--q", "4", "--k", "3", "--e1", "2", "--e2", "5")
        assert code == 2
        assert "MacWilliams transform" in err and "budget" in err


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

    def test_nonpositive_cap_rejected(self, capsys):
        code, _, _ = run(
            capsys, "build", "--q", "2", "--k", "3", "--e1", "0", "--e2", "1",
            "--field-cap", "0",
        )
        assert code == 2

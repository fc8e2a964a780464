import json
import re
import subprocess
import sys
import warnings

import pytest

from symdiv.cli import run_cli
from symdiv.verify import REGISTRY

# oracle-derived golden bytes (12 significant digits)
GOLDEN_COMPUTE_J = '{\n  "J": 0.162186043243\n}\n'
GOLDEN_SWEEP_S = (
    "s,Phi,V,W\n"
    "-1,0.0833333333333,0.166666666667,0.02\n"
    "0.5,0.0808164115469,0.161632823094,0.0202553879795\n"
    "2,0.0833333333333,0.166666666667,0.0208333333333\n"
)


@pytest.fixture
def histograms(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps({"weights": [0.6, 0.4]}))
    q.write_text(json.dumps({"weights": [0.4, 0.6]}))
    return str(p), str(q)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_golden_json_output(self, capsys, histograms):
        p, q = histograms
        code, out, _ = run(capsys, "compute", "--input-p", p, "--input-q", q,
                           "--measure", "J", "--format", "json")
        assert code == 0
        assert out == GOLDEN_COMPUTE_J

    def test_output_is_byte_stable(self, capsys, histograms):
        p, q = histograms
        outs = set()
        for _ in range(3):
            _, out, _ = run(capsys, "compute", "--input-p", p, "--input-q", q,
                            "--measure", "J", "--format", "json")
            outs.add(out)
        assert len(outs) == 1

    def test_family_measures(self, capsys, histograms):
        p, q = histograms
        code, out, _ = run(capsys, "compute", "--input-p", p, "--input-q", q,
                           "--measure", "W:0.5", "--format", "csv")
        assert code == 0
        assert out == "measure,value\nW:0.5,0.0202553879795\n"

    def test_table_format(self, capsys, histograms):
        p, q = histograms
        code, out, _ = run(capsys, "compute", "--input-p", p, "--input-q", q,
                           "--measure", "HELLINGER", "--format", "table")
        assert code == 0
        assert out.startswith("HELLINGER")

    def test_zero_weight_without_normalize_exits_one(self, capsys, tmp_path, histograms):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"weights": [0.5, 0.0, 0.5]}))
        code, _, err = run(capsys, "compute", "--input-p", str(bad),
                           "--input-q", str(bad), "--measure", "J")
        assert code == 1
        assert "NONPOSITIVE_WEIGHT" in err

    def test_normalize_flag_repairs_scaling(self, capsys, tmp_path):
        p = tmp_path / "p.csv"
        q = tmp_path / "q.csv"
        p.write_text("3\n1\n")
        q.write_text("1\n1\n")
        code, out, _ = run(capsys, "compute", "--input-p", str(p), "--input-q", str(q),
                           "--measure", "TOTAL_VARIATION", "--normalize", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"TOTAL_VARIATION": 0.5}

    def test_unknown_measure_exits_one(self, capsys, histograms):
        p, q = histograms
        code, _, err = run(capsys, "compute", "--input-p", p, "--input-q", q,
                           "--measure", "WASSERSTEIN")
        assert code == 1
        assert "unknown measure" in err

    def test_missing_file_exits_one(self, capsys, histograms):
        p, _ = histograms
        code, _, err = run(capsys, "compute", "--input-p", p,
                           "--input-q", "/nonexistent.json", "--measure", "J")
        assert code == 1
        assert "BAD_INPUT_FILE" in err

    def test_usage_error_exits_one(self, capsys, histograms):
        p, q = histograms
        code, _, _ = run(capsys, "compute", "--input-p", p, "--input-q", q)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"]) == 0

    def test_boolean_weights_exit_one(self, capsys, tmp_path, histograms):
        # JSON true/false are not numbers, even though bool subclasses int
        _, q = histograms
        flags = tmp_path / "flags.json"
        flags.write_text(json.dumps({"weights": [True, True]}))
        code, out, err = run(capsys, "compute", "--normalize", "--input-p", str(flags),
                             "--input-q", q, "--measure", "KL")
        assert (code, out) == (1, "")
        assert "BAD_INPUT_FILE" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_non_finite_result_exits_one(self, capsys, tmp_path, fmt):
        # V_1000 of this pair is about 1e1993: past the double range, so the
        # refusal stays right once the kernels stop overflowing early
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps({"weights": [0.99, 0.01]}))
        q.write_text(json.dumps({"weights": [0.01, 0.99]}))
        # a numpy floating-point warning raises here instead of reaching stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "compute", "--input-p", str(p), "--input-q", str(q),
                                 "--measure", "V:1000", "--format", fmt)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: [NON_FINITE_RESULT] the result is not finite in double precision"]

    def test_binary_input_exits_one(self, capsys, tmp_path, histograms):
        _, q = histograms
        blob = tmp_path / "blob.bin"
        blob.write_bytes(bytes([0xff, 0xfe, 0x00, 0x99]))
        code, _, err = run(capsys, "compute", "--input-p", str(blob),
                           "--input-q", q, "--measure", "J")
        assert code == 1
        assert "BAD_INPUT_FILE" in err


class TestBounds:
    def test_report_fields(self, capsys, histograms):
        p, q = histograms
        code, out, _ = run(capsys, "bounds", "--input-p", p, "--input-q", q,
                           "--measure", "PHI:1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.162186043243
        assert payload["endpoint_B"] == 0.162186043243
        assert payload["endpoint_A"] == 0.342554906156
        assert payload["delta"] == 2.63888888889
        assert payload["f3_sup"] == 9.0
        assert payload["ratio_bounds"]["R"] == 1.5

    def test_requires_family_generator(self, capsys, histograms):
        p, q = histograms
        code, _, err = run(capsys, "bounds", "--input-p", p, "--input-q", q,
                           "--measure", "J")
        assert code == 1
        assert "PHI:s or PSI:s" in err


class TestSweepS:
    def test_golden_csv(self, capsys, histograms):
        p, q = histograms
        code, out, _ = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                           "--s-grid=-1,0.5,2")
        assert code == 0
        assert out == GOLDEN_SWEEP_S

    def test_round_trip_matches_library(self, capsys, histograms):
        from symdiv import (ag_js_divergence_type_s, j_divergence_type_s,
                            relative_information_type_s, validate_distribution)
        p, q = histograms
        _, out, _ = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                        "--s-grid=-1.5,0.25,1.75")
        dp = validate_distribution([0.6, 0.4])
        dq = validate_distribution([0.4, 0.6])
        lines = out.strip().splitlines()
        assert lines[0] == "s,Phi,V,W"
        for line in lines[1:]:
            s, phi, v, w = (float(tok) for tok in line.split(","))
            for printed, exact in ((phi, relative_information_type_s(s, dp, dq)),
                                   (v, j_divergence_type_s(s, dp, dq)),
                                   (w, ag_js_divergence_type_s(s, dp, dq))):
                assert printed == float(format(exact, ".12g"))


class TestVerify:
    def test_small_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--dims", "2,3", "--samples", "5",
                           "--seed", "7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["samples"] == 10
        assert payload["assert_failures"] == 0
        assert {c["id"] for c in payload["cases"]} == {c.id for c in REGISTRY}

    def test_output_stable_modulo_timing(self, capsys):
        argv = ("verify", "--dims", "2", "--samples", "4", "--seed", "9",
                "--format", "json")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        scrub = lambda text: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
        assert scrub(out1) == scrub(out2)

    def test_assert_failure_exits_two(self, capsys, monkeypatch):
        # force a violation by flipping the slack test's sign
        import symdiv.verify as verify_mod
        real = verify_mod.slack_violation
        monkeypatch.setattr(verify_mod, "slack_violation",
                            lambda lhs, rhs, tol: -real(lhs, rhs, tol) + 1.0)
        code, out, _ = run(capsys, "verify", "--dims", "2", "--samples", "2",
                           "--format", "json")
        assert code == 2
        assert json.loads(out)["assert_failures"] > 0

    def test_non_finite_comparison_exits_one(self, capsys):
        # V_200 overflows on some of these pairs; the sweep refuses the comparison
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--dims", "10", "--samples", "40",
                                 "--seed", "5", "--t-grid", "200")
        assert (code, out) == (1, "")
        assert err.startswith("error: [NON_FINITE_RESULT] ")
        assert len(err.splitlines()) == 1

    def test_bad_dims_exit_one(self, capsys):
        code, _, err = run(capsys, "verify", "--dims", "2,x")
        assert code == 1
        assert "invalid dims" in err

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run(capsys, "verify", "--dims", "2", "--samples", "2", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err.startswith("error: [BAD_CONFIG] ")
        assert len(err.splitlines()) == 1

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--dims", "2", "--samples", "2",
                           "--format", "table")
        assert code == 0
        assert "EQ183" in out and "assert_failures=0" in out


class TestConsoleEntry:
    def test_module_invocation(self, histograms):
        p, q = histograms
        proc = subprocess.run(
            [sys.executable, "-m", "symdiv.cli", "compute", "--input-p", p,
             "--input-q", q, "--measure", "J", "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_COMPUTE_J

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
import symdiv
from symdiv import (GeneratorFamilyKind, SweepConfig, ag_js_divergence_type_s, bound_report,
                    family_generator, j_divergence_type_s, relative_information_type_s,
                    validate_distribution)
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


def library_pair():
    """The pair of the ``histograms`` files."""
    return validate_distribution([0.6, 0.4]), validate_distribution([0.4, 0.6])


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scrub_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def child_env():
    """The environment of a child interpreter that imports the symdiv under
    test, installed or not."""
    src = str(Path(symdiv.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fresh_modules(code):
    """The symdiv modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('symdiv')]))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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

    @pytest.mark.parametrize("s", [-1.5, 0.5, 2.0])
    def test_phi_tag_is_the_relative_information(self, capsys, histograms, s):
        p, q = histograms
        code, out, err = run(capsys, "compute", "--input-p", p, "--input-q", q,
                             "--measure", f"PHI:{s}", "--format", "csv")
        value = relative_information_type_s(s, *library_pair())
        assert (code, out, err) == (0, f"measure,value\nPHI:{s:g},{value:.12g}\n", "")

    @pytest.mark.parametrize("measure, message", [
        ("PHI:", "[BAD_CONFIG] family measure needs an order, e.g. PHI:0.5"),
        ("W", "[BAD_CONFIG] family measure needs an order, e.g. W:0.5"),
        ("V:x", "[BAD_CONFIG] invalid order 'x'"),
        ("J:1", "[BAD_CONFIG] measure 'J' does not take an order"),
    ])
    def test_measure_parse_errors(self, capsys, histograms, measure, message):
        p, q = histograms
        for command in ("compute", "bounds"):
            code, out, err = run(capsys, command, "--input-p", p, "--input-q", q,
                                 "--measure", measure)
            assert (code, out, err) == (1, "", f"error: {message}\n")

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

    def test_kl_of_a_vanishing_weight_is_finite(self, capsys, tmp_path):
        # (a - b)/b rounds to -1 on the first entry: log(a) - log(b) is taken there
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps({"weights": [1e-300, 1.0]}))
        q.write_text(json.dumps({"weights": [0.99, 0.01]}))
        code, out, err = run(capsys, "compute", "--input-p", str(p), "--input-q", str(q),
                             "--measure", "KL", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"KL": 4.60517018599}

    def test_large_order_is_finite(self, capsys, histograms):
        # V_1000 of this pair is about 9.88e169: finite, and the powers are
        # taken in log space, so no factor overflows on its own
        p, q = histograms
        code, out, err = run(capsys, "compute", "--input-p", p, "--input-q", q,
                             "--measure", "V:1000", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"V:1000": 9.88060538063e+169}

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

    @pytest.mark.parametrize("fmt, line", [("csv", "{},{}"), ("table", "{:<23}  {}")])
    def test_flat_formats_match_the_library(self, capsys, histograms, fmt, line):
        p, q = histograms
        code, out, err = run(capsys, "bounds", "--input-p", p, "--input-q", q,
                             "--measure", "PSI:0.5", "--format", fmt)
        report = bound_report(family_generator(GeneratorFamilyKind.PSI, 0.5), *library_pair())
        rows = [(key, value) for key, value in report.to_json_dict().items()
                if key != "ratio_bounds"]
        rows += [(f"ratio_bounds.{key}", value)
                 for key, value in report.to_json_dict()["ratio_bounds"].items()]
        lines = (["field,value"] if fmt == "csv" else []) + [
            line.format(key, format(value, ".12g") if isinstance(value, float) else value)
            for key, value in rows]
        assert (code, out, err) == (0, "\n".join(lines) + "\n", "")
        assert "ratio_bounds.degenerate" in out and "ratio_bounds.R" in out

    @pytest.mark.parametrize("tag, family", [("V", "PHI"), ("W", "PSI")])
    def test_family_tags_name_the_same_generator(self, capsys, histograms, tag, family):
        p, q = histograms
        outs = [run(capsys, "bounds", "--input-p", p, "--input-q", q, "--measure",
                    f"{name}:-1.5", "--format", "json") for name in (tag, family)]
        report = bound_report(family_generator(GeneratorFamilyKind[family], -1.5),
                              *library_pair())
        code, out, _ = outs[0]
        assert outs[1] == outs[0] and code == 0
        payload = json.loads(out)
        assert payload["generator"] == report.generator == f"{family}(s=-1.5)"
        assert payload["value"] == float(format(report.value, ".12g"))

    def test_an_overflowing_cubic_chi_exits_one(self, capsys, tmp_path):
        # |chi|^3 of this pair is inf (q^2 underflows to 0); every other field
        # is finite, and the refusal comes without a numpy warning first
        p = tmp_path / "p.json"
        q = tmp_path / "q.json"
        p.write_text(json.dumps({"weights": [0.5, 0.5]}))
        q.write_text(json.dumps({"weights": [1e-300, 1.0]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "bounds", "--input-p", str(p), "--input-q", str(q),
                                 "--measure", "PHI:0.5")
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: [NON_FINITE_RESULT] the result is not finite in double precision"]

    @pytest.mark.parametrize("kind", list(GeneratorFamilyKind), ids=lambda k: k.value)
    def test_large_order_generators_build(self, kind):
        # f'' > 0 overflows to +inf on the spot grid, and +inf is positive
        assert family_generator(kind, 1000.0).name == f"{kind.value}(s=1000)"

    def test_order_1000_reports_finite_fields(self, capsys, histograms):
        p, q = histograms
        code, out, _ = run(capsys, "bounds", "--input-p", p, "--input-q", q,
                           "--measure", "PHI:1000", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(np.isfinite(v) for v in payload.values() if isinstance(v, float))
        want = oracle.v_s(1000.0, (0.6, 0.4), (0.4, 0.6))
        assert abs((payload["value"] - want) / want) <= 1e-12

    def test_psi_at_minus_800_is_finite_or_refused(self, capsys, histograms):
        # a RuntimeWarning would fail this test: the suite turns them into errors
        p, q = histograms
        code, out, err = run(capsys, "bounds", "--input-p", p, "--input-q", q,
                             "--measure", "PSI:-800", "--format", "json")
        if code == 0:
            payload = json.loads(out)
            assert all(np.isfinite(v) for v in payload.values() if isinstance(v, float))
        else:
            assert re.fullmatch(r"error: \[[A-Z_]+\] .*\n", err), err

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

    def test_each_family_reuses_its_table_over_the_grid(self, capsys, histograms, tables):
        # R, V and W each run over the whole grid in turn: V and W build one table each, R
        # one per direction (s > 1/2 is R_{1-s} on (Q, P)); KL at s in {0, 1} builds none
        p, q = histograms
        code, out, _ = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                           "--s-grid=-1,0,0.5,1,2,3")
        assert code == 0 and out.startswith("s,Phi,V,W\n-1,0.0833333333333,")
        assert tables.built == 4

    def test_the_first_bad_order_is_refused(self, capsys, histograms):
        p, q = histograms
        code, out, err = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                             "--s-grid=0.5,inf,nan")
        assert (code, out, err) == (1, "", "error: [PARAMETER_OUT_OF_RANGE] family order must "
                                           "be finite, got inf\n")

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_json_and_table_match_the_library(self, capsys, histograms, fmt):
        p, q = histograms
        code, out, err = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                             "--s-grid=-1.5,0.25,3", "--format", fmt)
        rows = [(s, relative_information_type_s(s, *library_pair()),
                 j_divergence_type_s(s, *library_pair()),
                 ag_js_divergence_type_s(s, *library_pair())) for s in (-1.5, 0.25, 3.0)]
        if fmt == "json":
            expected = json.dumps([{"s": s, "Phi": float(f"{phi:.12g}"), "V": float(f"{v:.12g}"),
                                    "W": float(f"{w:.12g}")} for s, phi, v, w in rows], indent=2)
        else:
            expected = "\n".join([f"{'s':>8} {'Phi':>18} {'V':>18} {'W':>18}"] + [
                f"{s:>8.12g} {phi:>18.12g} {v:>18.12g} {w:>18.12g}" for s, phi, v, w in rows])
        assert (code, out, err) == (0, expected + "\n", "")

    @pytest.mark.parametrize("grid, message", [
        ("a,1", "[BAD_CONFIG] invalid grid 'a,1'"),
        ("", "[EMPTY_GRID] grid '' is empty"),
        (",", "[EMPTY_GRID] grid ',' is empty"),
    ])
    def test_grid_parse_errors(self, capsys, histograms, grid, message):
        p, q = histograms
        code, out, err = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                             f"--s-grid={grid}")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_large_orders_print_finite_cells(self, capsys, histograms):
        p, q = histograms
        code, out, err = run(capsys, "sweep-s", "--input-p", p, "--input-q", q,
                             "--s-grid=-800,1000")
        assert (code, err) == (0, "")
        cells = [float(tok) for line in out.strip().splitlines()[1:] for tok in line.split(",")]
        assert len(cells) == 8 and all(np.isfinite(cells))

    def test_round_trip_matches_library(self, capsys, histograms):
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
        assert scrub_elapsed(out1) == scrub_elapsed(out2)

    def test_defaults_are_sweep_configs(self, capsys):
        # the parser leaves the grids and tol unset, so SweepConfig alone holds
        # them; a bare run prints what its defaults spelled out print
        config = SweepConfig()
        spelled = ("--dims", ",".join(map(str, config.dims)),
                   "--samples", str(config.samples_per_dim), "--seed", str(config.seed),
                   "--s-grid=" + ",".join(map(repr, config.s_grid)),
                   "--t-grid=" + ",".join(map(repr, config.t_grid)), "--tol", repr(config.tol))
        code, bare, _ = run(capsys, "verify")
        assert (code, scrub_elapsed(bare)) == (0, scrub_elapsed(run(capsys, "verify", *spelled)[1]))
        payload = json.loads(bare)
        assert payload["config"] == config.to_json_dict()
        assert payload["samples"] == config.samples_per_dim * len(config.dims)

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

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_bad_tol_exits_one(self, capsys, tol):
        code, out, err = run(capsys, "verify", "--dims", "2", "--samples", "2", "--tol", tol)
        assert (code, out) == (1, "")
        assert err == f"error: [BAD_CONFIG] tol must be finite and > 0, got {float(tol)}\n"

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
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN_COMPUTE_J


class TestImports:
    """What ``import symdiv`` and each subcommand load, in a fresh interpreter."""

    def test_import_loads_no_submodule(self):
        assert fresh_modules("import symdiv") == {"symdiv"}

    NO_ENGINE = {"symdiv.csiszar", "symdiv.verify", "symdiv.means"}

    @pytest.mark.parametrize("argv, absent", [
        (["compute", "--measure", "W:0.5"], NO_ENGINE),
        (["compute", "--measure", "J"], NO_ENGINE),
        (["sweep-s", "--s-grid=-1,0.5,2"], NO_ENGINE),
        (["bounds", "--measure", "PSI:0.5"], {"symdiv.verify", "symdiv.means"}),
    ])
    def test_subcommand_loads_only_its_modules(self, histograms, argv, absent):
        p, q = histograms
        argv = [*argv, "--input-p", p, "--input-q", q]
        loaded = fresh_modules(f"from symdiv.cli import run_cli\nassert run_cli({argv!r}) == 0")
        assert "symdiv.families" in loaded
        assert not loaded & absent

    def test_public_names_are_their_home_modules_objects(self):
        # each name is looked up in its home module, never stored on the package
        fresh_modules("""
import importlib, inspect
import symdiv
for name in symdiv.__all__:
    home = importlib.import_module(f"symdiv.{symdiv._HOME[name]}")
    value = getattr(symdiv, name)
    assert value is vars(home)[name], name
    assert not (inspect.isclass(value) or inspect.isfunction(value)) \\
        or value.__module__ == home.__name__, name
    assert name in dir(symdiv) and name not in vars(symdiv), name
""")

    def test_star_import_binds_every_name_and_unknown_names_raise(self):
        fresh_modules("""
import symdiv
names = {}
exec("from symdiv import *", names)
assert all(names[name] is getattr(symdiv, name) for name in symdiv.__all__)
try:
    symdiv.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("no AttributeError")
""")

    def test_a_name_rebound_in_its_home_module_is_seen(self, monkeypatch):
        # a tracer wraps functions in their home module's namespace
        import symdiv.csiszar
        wrapper = lambda *args: None
        monkeypatch.setattr(symdiv.csiszar, "bound_report", wrapper)
        assert symdiv.bound_report is wrapper

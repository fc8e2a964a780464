"""Tests of the benchmark itself, at its smallest sizes.

    python3 -m pytest -q perfbench/tests

Each run here is a real ``run.py`` run with ``--tiny`` and a short
measuring window, so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced() -> dict:
    return {w: run(w) for w in ("sweep", "kernels", "cli")}


def test_every_workload_is_declared(declared):
    assert [w["name"] for w in declared["workloads"]] == ["sweep", "kernels", "cli"]


@pytest.mark.parametrize("workload", ["sweep", "kernels", "cli"])
def test_untraced_run_prints_every_end_to_end_metric(workload, untraced, declared):
    out = result(untraced[workload])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep", "cli"])
def test_sweep_and_cli_fail_nothing(workload, untraced):
    assert result(untraced[workload])["failed"] == 0


def test_kernels_failures_are_the_known_fault_strata(untraced):
    proc = untraced["kernels"]
    out = result(proc)
    ops = len(inputs.kernel_ops(inputs.kernel_pairs(3, inputs.TINY.kernel_repeat)))
    rounds, rest = divmod(out["attempted"], ops)
    assert rest == 0 and out["failed"] % rounds == 0
    labels = [line.split()[2] for line in proc.stderr.splitlines()
              if line.startswith("failed kernels:")]
    assert len(labels) == out["failed"] // rounds
    assert all(label.startswith(("eps=", "large_s")) for label in labels)


def test_traced_run_prints_every_layer_metric(declared):
    out = result(run("kernels", trace=1))
    assert out["correct"] is True
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units


def test_traced_call_counts_repeat():
    first, second = (result(run("sweep", trace=1))["metrics"] for _ in range(2))
    counts = [name for name, m in first.items() if m["unit"] == "count"]
    assert counts and all(first[n]["value"] == second[n]["value"] for n in counts)
    assert first["verify.slack_violation.calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["sweep", "kernels", "cli"])
def test_a_planted_wrong_value_is_a_failed_operation(workload, untraced):
    base = result(untraced[workload])
    planted = result(run(workload, "--plant"))
    assert _failed_per_round(planted, workload) == _failed_per_round(base, workload) + 1


def _failed_per_round(out: dict, workload: str) -> int:
    ops = {"sweep": 4 * inputs.TINY.sweep_samples_per_dim,
           "kernels": len(inputs.kernel_ops(inputs.kernel_pairs(3, inputs.TINY.kernel_repeat))),
           "cli": 4}[workload]
    return out["failed"] // (out["attempted"] // ops)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = run("sweep", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_wrong_kernel_value_fails_its_check():
    pairs = inputs.kernel_pairs(3, inputs.TINY.kernel_repeat, generic_only=True)
    ops = inputs.kernel_ops(pairs)
    rows = [oracle.rows_of(kp.p, kp.q) for kp in pairs]
    kind, i, name, s = ops[0]
    good = float(oracle.FAMILY[name](s, rows[i]))
    record = {"generic_only": True, "identical": True, "values": [good]}
    assert checks.check("kernels", record, 3, inputs.TINY).failed_per_round == 0
    record["values"] = [good * (1 + 1e-7)]
    assert checks.check("kernels", record, 3, inputs.TINY).failed_per_round == 1


def test_rounds_that_differ_make_the_run_incorrect():
    record = {"generic_only": True, "identical": False, "values": []}
    assert checks.check("kernels", record, 3, inputs.TINY).problems


def test_sweep_check_skips_pairs_near_the_diagonal():
    q = [0.5, 0.5]
    assert inputs.sweep_checkable([0.6, 0.4], q)
    assert not inputs.sweep_checkable([0.5 + 1e-4, 0.5 - 1e-4], q)

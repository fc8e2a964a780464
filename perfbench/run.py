"""symdiv benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout that holds ``src/symdiv``. It starts
the measuring worker (``worker.py``) in a fresh interpreter, then checks
the worker's outputs in mpmath (``checks.py``) and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones;
the traced run also writes its spans to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_pairs_per_s": "pairs/s",
    "family_evals_per_s": "evals/s",
    "classic_evals_per_s": "evals/s",
    "bound_reports_per_s": "reports/s",
    "cli_compute_ms": "ms",
    "cli_bounds_ms": "ms",
    "cli_sweep_s_ms": "ms",
    "cli_verify_ms": "ms",
}


def _worker(args, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    if args.tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + 150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "kernels", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for tests")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one checked output, to test the checks")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symdiv" / "__init__.py").is_file():
        print(f"no symdiv sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    # imported late: the checker needs numpy and mpmath, the guard above neither
    sys.path.insert(0, str(HERE))
    import checks
    import inputs

    result = _worker(args, *(["--plant"] if args.plant else []))
    sizes = inputs.TINY if args.tiny else inputs.FULL

    correct, failed, attempted = True, 0, 0
    for part, record in result["records"].items():
        verdict = checks.check(part, record, args.seed, sizes)
        for line in verdict.problems:
            print(f"PROBLEM {part}: {line}", file=sys.stderr)
        correct &= not verdict.problems
        if part == args.workload:
            attempted = record["ops_per_round"] * result["rounds"]
            failed = verdict.failed_per_round * result["rounds"]
            for line in verdict.failures:
                print(f"failed {part}: {line}", file=sys.stderr)
        elif verdict.failures:
            # companion passes run only inputs on which nothing may fail
            correct = False
            for line in verdict.failures:
                print(f"PROBLEM {part} (companion): {line}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("ms") else "count"}
                   for name, value in result["metrics"].items()}
        for name, value in result["traced_throughput"].items():
            print(f"traced {name} = {value:.6g}", file=sys.stderr)
    else:
        for kind, factor in result["speed"].items():
            print(f"host speed against nominal, {kind} reference: {factor:.4f}",
                  file=sys.stderr)
        for name, value in result["unscaled"].items():
            print(f"unscaled {name} = {value:.6g}", file=sys.stderr)
        metrics = {name: {"value": result["values"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

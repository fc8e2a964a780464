"""CPU time and Python calls per round of ``run_sweep``, in a fresh process.

Three rounds are probed: a 4-pair round (``SweepConfig(samples_per_dim=1)``,
one pair per dim), whose cost is almost all the per-run work that does not
depend on the pairs; the 60-pair round of the benchmark's ``sweep`` workload
(``SweepConfig(samples_per_dim=15)``: 15 pairs for each of the dims 2, 3, 5
and 10); and the default 1000-pair ``SweepConfig()``. After one warm-up
round of each, the probe prints the median CPU ms per round and the
calls of one round as cProfile counts them (Python functions and builtins,
numpy's among them). A sweep's pairs are tiny, so per-call overhead sets its
speed; the call count repeats exactly from run to run, the timings do not,
so read them, do not gate on them. Run it as

    PYTHONPATH=src python tools/sweep_probe.py
"""

import cProfile
import pstats
import statistics
import time

from symdiv.verify import SweepConfig, run_sweep

# round name -> (config, timed rounds)
ROUNDS = {"4-pair": (SweepConfig(samples_per_dim=1), 60),
          "60-pair": (SweepConfig(samples_per_dim=15), 60), "1000-pair": (SweepConfig(), 15)}


def cpu_ms(config: SweepConfig, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.process_time()
        run_sweep(config)
        times.append((time.process_time() - start) * 1e3)
    return statistics.median(times)


def calls(config: SweepConfig) -> int:
    profile = cProfile.Profile()
    profile.runcall(run_sweep, config)
    return pstats.Stats(profile).total_calls


def main() -> None:
    print(f"{'round':<10} {'rounds':>6} {'cpu_ms':>8} {'calls':>7}")
    for name, (config, rounds) in ROUNDS.items():
        run_sweep(config)  # the first round warms up
        print(f"{name:<10} {rounds:>6} {cpu_ms(config, rounds):>8.2f} {calls(config):>7}")


if __name__ == "__main__":
    main()

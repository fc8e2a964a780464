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
so read them, do not gate on them. It then splits the 60-pair round's CPU
time by quantity (``SPLIT``), timing the functions ``symdiv.verify`` calls
by their names in its namespace: sampling, the classic and |chi|^m sums, the V and W family sums, the
bound reports' E and E* sums, the reports' ends (``_report``), and the rest
(the comparisons, the ratio range, the Vajda bounds, the engine's own work).
Run it as

    PYTHONPATH=src python tools/sweep_probe.py
"""

import cProfile
import pstats
import statistics
import time

from symdiv import verify
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


# quantity -> the names in symdiv.verify's namespace that form it; none calls another
SPLIT = {"sampling": ("_sample_stack",), "classic sums": ("_classic", "_abs_chi"),
         "family sums": ("_v_values", "_w_values"), "report sums": ("_sums",),
         "report ends": ("_report",)}


def split_ms(config: SweepConfig, rounds: int) -> dict:
    """Median CPU ms per round in each quantity of SPLIT, the rest and the total."""
    spent, originals = {}, {name: getattr(verify, name) for names in SPLIT.values()
                            for name in names}

    def timed(part, fn):
        def call(*args, **kwargs):
            start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[part] += time.process_time() - start
        return call
    for part, names in SPLIT.items():
        for name in names:
            setattr(verify, name, timed(part, originals[name]))
    try:
        rows = []
        for _ in range(rounds + 1):  # the first round warms up
            spent.update(dict.fromkeys(SPLIT, 0.0))
            start = time.process_time()
            run_sweep(config)
            total = time.process_time() - start
            rows.append(spent | {"rest": total - sum(spent.values()), "total": total})
    finally:
        for name, fn in originals.items():
            setattr(verify, name, fn)
    return {part: statistics.median(row[part] for row in rows[1:]) * 1e3 for part in rows[0]}


def main() -> None:
    print(f"{'round':<10} {'rounds':>6} {'cpu_ms':>8} {'calls':>7}")
    for name, (config, rounds) in ROUNDS.items():
        run_sweep(config)  # the first round warms up
        print(f"{name:<10} {rounds:>6} {cpu_ms(config, rounds):>8.2f} {calls(config):>7}")
    config, rounds = ROUNDS["60-pair"]
    print(f"\n60-pair round, median CPU ms per quantity over {rounds} rounds")
    for part, ms in split_ms(config, rounds).items():
        print(f"{part:<14} {ms:>8.3f}")


if __name__ == "__main__":
    main()

"""CPU time and minor page faults per round of large-pair calls, in a fresh process.

A round makes the calls of the benchmark's ``kernels`` workload on two
generic pairs of n = 65536 entries (64 distinct rows, each repeated 1024
times): the three family sums at nine orders, the twelve classic measures,
and bound reports at the nine orders, one part per generator (``PHI``,
``PSI``), each generator's reports on a pair in a row, so that they share the
rows that do not depend on the order through the family memo's one table (a
PSI table is the tallest); and the three family sums at the nine orders on a
pair within 1e-6 of P = Q (``near``), whose W takes its series in
(a - b)/(a + b) on every block. After one warm-up
round, the probe prints for each part the median CPU ms and minor page faults
(``ru_minflt``) per round over five rounds. After each part it times a fixed
numpy computation over 65536 entries that does not use symdiv (``reference``),
and prints its CPU ms and faults too: memory that the program holds back
between calls and that makes other code fault its pages in shows there.
Beside them it prints the process's peak resident set (``ru_maxrss``, in MB)
right after the part's first run: the family memo's table, whose rows are
resident once a stage fills them, shows there as the part that first
needs them raises the peak.

Long sums run a block of ``symdiv.families._BLOCK`` entries at a time, and
their temporaries are mapped, trimmed and faulted in again, or reused, as
the C allocator decides; fault counts depend on that allocator and on what
the process ran before, so read them, do not gate on them. Run it as

    PYTHONPATH=src python tools/fault_probe.py
"""

import resource
import statistics
import time

import numpy as np

from symdiv import (GeneratorFamilyKind, MeasureKind, ag_js_divergence_type_s, bound_report,
                    classic_divergence, family_generator, j_divergence_type_s,
                    relative_information_type_s, validate_distribution)
from symdiv.families import _BLOCK

ORDERS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
ROWS, REPEAT, FLOOR, ROUNDS = 64, 1024, 1e-4, 5
_RNG = np.random.default_rng(2005)
_A, _B = _RNG.random(ROWS * REPEAT) + 0.1, _RNG.random(ROWS * REPEAT) + 0.1


def generic_pair(index: int):
    """Two floored Dirichlet rows of ROWS weights, each spread over REPEAT
    entries and scattered by one permutation."""
    rng = np.random.default_rng([2005, index])
    rows = [np.maximum(rng.dirichlet(np.ones(ROWS)), FLOOR) for _ in range(2)]
    order = rng.permutation(ROWS * REPEAT)
    return [validate_distribution(np.repeat(w / w.sum() / REPEAT, REPEAT)[order]) for w in rows]


def near_pair(eps: float = 1e-6):
    """p = q (1 + eps z) on generic_pair(0)'s second row q, sum(q z) = 0 and max |z| = 1."""
    q = generic_pair(0)[1].weights
    z = np.random.default_rng(2005).uniform(-1.0, 1.0, q.size)
    z -= (q * z).sum() / q.sum()
    z /= np.abs(z).max()
    return validate_distribution(q * (1.0 + eps * z)), validate_distribution(q)


def parts(pairs, near) -> dict:
    """Part name -> its calls, as zero-argument functions."""
    families = (j_divergence_type_s, ag_js_divergence_type_s, relative_information_type_s)
    return {
        "family": [lambda f=f, s=s, p=p, q=q: f(s, p, q)
                   for p, q in pairs for f in families for s in ORDERS],
        "near": [lambda f=f, s=s: f(s, *near) for f in families for s in ORDERS],
        "classic": [lambda k=k, p=p, q=q: classic_divergence(k, p, q)
                    for p, q in pairs for k in MeasureKind],
        **{g.value: [lambda g=g, s=s, p=p, q=q: bound_report(family_generator(g, s), p, q)
                     for p, q in pairs for s in ORDERS] for g in GeneratorFamilyKind},
    }


def reference() -> float:
    """Powers, logs and sums over 65536 entries, with 512 KiB temporaries."""
    ratio = _A / _B
    return float(np.sum(_B * (ratio ** 1.5 - 1.5 * ratio + 0.5))) + float(
        np.sum((_A - _B) * np.log(ratio)))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measured(work) -> tuple[float, int]:
    """CPU ms and minor faults of work()."""
    faults, cpu = minor_faults(), time.process_time()
    work()
    return (time.process_time() - cpu) * 1e3, minor_faults() - faults


def main() -> None:
    calls = parts([generic_pair(i) for i in range(2)], near_pair())
    seen, peaks = {name: [] for name in calls}, {}
    for round_ in range(ROUNDS + 1):
        for name, part in calls.items():
            row = measured(lambda: [call() for call in part])
            peaks.setdefault(name, peak_mb())
            row += measured(reference)
            if round_:  # the first round warms up
                seen[name].append(row)
    print(f"_BLOCK = {_BLOCK}, n = {ROWS * REPEAT}, medians of {ROUNDS} rounds after one warm-up;"
          " ref_* is the numpy reference run after the part; peak_mb after the part's first run")
    print(f"{'part':<8} {'calls':>5} {'cpu_ms':>8} {'minflt':>8} {'peak_mb':>8} {'ref_ms':>8}"
          f" {'ref_minflt':>10}")
    for name, rows in seen.items():
        cpu, faults, ref_cpu, ref_faults = (statistics.median(column) for column in zip(*rows))
        print(f"{name:<8} {len(calls[name]):>5} {cpu:>8.1f} {faults:>8.0f} {peaks[name]:>8.1f}"
              f" {ref_cpu:>8.2f} {ref_faults:>10.0f}")


if __name__ == "__main__":
    main()

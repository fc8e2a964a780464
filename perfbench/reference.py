"""Fixed reference computations that track the host's speed.

The shared host this benchmark runs on changes speed by a third or more,
for seconds to minutes at a time, and CPU time slows with it. So before
every round of a part the worker times one reference of the same kind
of work as that part, and scales the round's figures by the reference's
nominal time below over its measured time; a set-up sample takes the
process reference. A figure then reads as on the host at its nominal
speed, and a change to the program moves it as much as it moves the
unscaled time. None of this code touches ``symdiv``.

    python     small numpy calls, dicts and float arithmetic in a Python
               loop, like a sweep round (for ``sweep_pairs_per_s``)
    numpy      elementwise powers, logs and sums over 65536 entries, like
               a kernels call (for the three kernels rates)
    process    a fresh interpreter that imports numpy and runs the python
               reference once: a CLI process without the program (for
               ``cli_*_ms`` and ``setup_s``)
"""

from __future__ import annotations

import math

import numpy as np

# CPU seconds of one reference on the 2-core host the benchmark was built
# on, in its fast state; fixed, so that figures from any run compare
NOMINAL = {"python": 0.025, "numpy": 0.009, "process": 0.170}

# run as ``python -c PROCESS_CODE`` with this directory on sys.path
PROCESS_CODE = "import reference; reference.python_work()"

_rng = np.random.default_rng(0)
_SMALL = [_rng.random(5) + 0.1 for _ in range(8)]
_A = _rng.random(65536) + 0.1
_B = _rng.random(65536) + 0.1


def python_work() -> float:
    acc = 0.0
    table = {}
    for i in range(2400):
        a = _SMALL[i & 7]
        v = float(np.sum(a * np.log(a / a.mean())))
        table[i & 63] = {"v": v, "i": i}
        acc += math.sqrt(abs(v) + i)
    return acc


def numpy_work() -> float:
    acc = 0.0
    ratio = _A / _B
    for s in (-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 2.5, 3.0) * 2:
        acc += float(np.sum(_B * (ratio ** s - s * ratio + s - 1.0)))
        acc += float(np.sum((_A - _B) * np.log(ratio)))
    return acc

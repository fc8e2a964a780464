import sys
import threading
import weakref

import numpy as np
import pytest

import symdiv.families as families
from symdiv import Distribution, sample_simplex, validate_distribution


def close(a, b, tol):
    """Tolerance convention used across the suite: |a-b| <= tol*max(1,|a|,|b|).

    The relative part guards large values, the absolute floor guards
    near-zero comparisons (a strict relative test is meaningless in
    float64 once the compared quantities are dominated by summation
    rounding).
    """
    a, b = float(a), float(b)
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def assert_close(a, b, tol, label=""):
    assert close(a, b, tol), f"{label}: {a!r} vs {b!r} (tol {tol})"


@pytest.fixture
def pair():
    return validate_distribution([0.6, 0.4]), validate_distribution([0.4, 0.6])


@pytest.fixture
def pair3():
    return (validate_distribution([0.5, 0.3, 0.2]),
            validate_distribution([0.25, 0.25, 0.5]))


@pytest.fixture
def tables(monkeypatch):
    """The live tables of the family memo (``families._memo``), each built after the one
    before it was dropped, and (``built``) how many were built."""
    live = weakref.WeakSet()
    live.built = 0

    class Counted(families._Table):
        def __init__(self, *args):
            assert len(live) == 0
            super().__init__(*args)
            live.add(self)
            live.built += 1
    monkeypatch.setattr(families, "_Table", Counted)
    monkeypatch.setattr(families, "_last", None)
    return live


def sampled_pairs(dims=(2, 3, 5, 10), per_dim=25, seed=20240) -> list[tuple[Distribution, Distribution]]:
    out = []
    for dim in dims:
        for i in range(per_dim):
            ss = np.random.SeedSequence((seed, dim, i))
            s1, s2 = (int(v) for v in ss.generate_state(2))
            out.append((sample_simplex(dim, s1), sample_simplex(dim, s2)))
    return out


def run_in_threads(work, args) -> None:
    """work(arg) on one thread per arg, started together and switching every microsecond
    (so also inside a call); joins time out, and every thread must finish its work."""
    start, done = threading.Barrier(len(args)), []

    def run(arg):
        start.wait(timeout=30)
        work(arg)
        done.append(arg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(arg,)) for arg in args]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == sorted(args)

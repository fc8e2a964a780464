"""Every family output against frozen bits: V, W and R, the generators'
orders 0-3 and every bound-report field or refusal, one digest per
(output, order) row, held in tests/data/frozen_bits.json.

The other bit-for-bit tests compare two paths of the program with each
other (a grid row with its order alone, the shared logs with the generic
path); these rows compare it with the bits that the separate one-order
path gave before the evaluators took a column of orders. The orders are
the grid rows of test_families (limit windows, numpy's power paths, large
orders) on sampled pairs, and the shortcut cases of test_formula_table.

A change that means to move bits rewrites the file with
``PYTHONPATH=src python tests/test_frozen_bits.py`` and says which rows
moved and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import sampled_pairs
from symdiv import (DomainError, GeneratorFamilyKind, ag_js_divergence_type_s, bound_report,
                    family_generator, generator_eval, j_divergence_type_s,
                    relative_information_type_s, validate_distribution)
from test_families import GRID_ROWS_S
from test_formula_table import near_pair, shortcut_cases

FROZEN = Path(__file__).parent / "data" / "frozen_bits.json"
FAMILIES = {"V": j_divergence_type_s, "W": ag_js_divergence_type_s,
            "R": relative_information_type_s}
# generator arguments around x = 1 and far out, as in TestGridRows
X = np.concatenate([np.geomspace(1e-3, 1e3, 97), [1.0, 0.5, 2.0]])


def grid_cases():
    """(pair, orders): the grid rows on sampled pairs of every dim, the
    two-point pair and a near-diagonal one."""
    pairs = sampled_pairs(per_dim=3)
    pairs += [(validate_distribution([0.6, 0.4]), validate_distribution([0.4, 0.6])),
              near_pair(1e-6)]
    return [(pair, GRID_ROWS_S) for pair in pairs]


def _report_bits(kind, s, p, q) -> bytes:
    try:
        report = bound_report(family_generator(kind, s), p, q)
    except DomainError as err:
        return str(err).encode()
    return b"".join(np.float64(v).tobytes() if isinstance(v, float) else repr(v).encode()
                    for v in vars(report).values())


def frozen_rows() -> dict:
    """Row name -> digest of the row's bytes over every case, in case order."""
    rows: dict = {}

    def add(name, s, data: bytes):
        rows.setdefault(f"{name} s={s!r}", hashlib.sha256()).update(data)
    with np.errstate(over="ignore", invalid="ignore"):  # large orders overflow far out
        for (p, q), orders in grid_cases() + shortcut_cases():
            for s in orders:
                for name, fn in FAMILIES.items():
                    add(name, s, np.float64(fn(s, p, q)).tobytes())
                for kind in GeneratorFamilyKind:
                    for order in range(4):
                        add(f"{kind.value}{order}", s,
                            generator_eval(kind, s, p.weights / q.weights, order).tobytes())
                    add(f"{kind.value} report", s, _report_bits(kind, s, p, q))
        for s in GRID_ROWS_S:
            for kind in GeneratorFamilyKind:
                for order in range(4):
                    add(f"{kind.value}{order} on X", s, generator_eval(kind, s, X, order).tobytes())
    return {name: digest.hexdigest()[:20] for name, digest in rows.items()}


@pytest.fixture(scope="module")
def rows():
    return frozen_rows()


def test_rows_cover_every_output(rows):
    frozen = json.loads(FROZEN.read_text())
    assert sorted(rows) == sorted(frozen)
    # 13 rows (V, W, R, two generators' orders 0-3 and reports) per order,
    # 8 more per grid row for the generators on X
    orders = {repr(s) for _, orders in grid_cases() + shortcut_cases() for s in orders}
    assert len(frozen) == 13 * len(orders) + 8 * len(GRID_ROWS_S)


def test_every_row_keeps_its_frozen_bits(rows):
    frozen = json.loads(FROZEN.read_text())
    moved = [name for name in frozen if rows.get(name) != frozen[name]]
    assert moved == []


if __name__ == "__main__":
    FROZEN.write_text(json.dumps(frozen_rows(), indent=0) + "\n")

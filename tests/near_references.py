"""Write tests/data/near_references.json: the mpmath references (tests/oracle.py,
50 digits, stored to 30) of test_formula_table's slowest near-diagonal checks,
W at its orders on the near pairs and the bound reports' value, E and E* near
P = Q, with a digest of each pair's weights. The tests compare with these at
1e-13 relative. Rewrite the file when a pair or an order changes:

    PYTHONPATH=src python tests/near_references.py
"""

import json

from mpmath import mp

import oracle
from test_formula_table import (LIMITS, REFERENCES, REPORT_ORDERS, REPORT_PAIRS, SLOPES,
                                W_ORDERS, W_PAIRS, named_pair, weights_digest)

DIGITS = 30


def entry(name: str, compute) -> dict:
    """The named pair's weights digest and ``compute(p, q)``'s values as strings."""
    p, q = named_pair(name)
    values = compute(p.weights.tolist(), q.weights.tolist())
    text = lambda v: mp.nstr(v, DIGITS, strip_zeros=False)
    return {"weights": weights_digest(p, q),
            "values": ({k: text(v) for k, v in values.items()} if isinstance(values, dict)
                       else [text(v) for v in values])}


def w_values(pw, qw) -> dict:
    return {repr(s): LIMITS["W", s](pw, qw) if ("W", s) in LIMITS else oracle.w_s(s, pw, qw)
            for s in W_ORDERS}


def report_values(family, s):
    _, slope, value = SLOPES[family]
    return lambda pw, qw: (value(s, pw, qw), *oracle.linearized_pair(slope, s, pw, qw))


def references() -> dict:
    out = {"W": {name: entry(name, w_values) for name in W_PAIRS}}
    for family, s in ((family, s) for family in SLOPES for s in REPORT_ORDERS):
        out[f"{family.value} report s={s!r}"] = {name: entry(name, report_values(family, s))
                                                  for name in REPORT_PAIRS}
    return out


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(references(), indent=1) + "\n")

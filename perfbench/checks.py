"""Checks of a worker's outputs, in mpmath and by the paper's properties.

Each ``check_<part>`` takes the part's record (the outputs of its first
round) and returns a :class:`Verdict`: how many operations of one round
failed, and any problem that makes the run incorrect. An operation fails
when its output disagrees with the 50-digit reference; a problem is a
broken property of outputs that did not fail (an identity, an ordering,
a witness that does not replay, rounds that differ).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from mpmath import mpf

import inputs
import oracle

REL_TOL = 1e-9


@dataclass
class Verdict:
    failed_per_round: int = 0
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed_per_round += 1
        self.failures.append(what)


def _close(value: float, ref) -> bool:
    return oracle.rel_err(value, ref) <= REL_TOL


def _ordered(values, slack: float = REL_TOL) -> bool:
    """Nondecreasing, up to a relative slack."""
    return all(lo <= hi + slack * max(abs(lo), abs(hi)) for lo, hi in zip(values, values[1:]))


# -- bound reports ------------------------------------------------------------

def bound_report_errors(report: dict, kind: str, s: float, rows) -> list[str]:
    """Fields off their reference, then broken orderings of the report:
    value <= E <= A, value <= B <= A and the two deviation bounds."""
    ref = oracle.bound_fields(kind, s, rows)
    got = {**report, **{k: report["ratio_bounds"][k] for k in ("r", "R")}}
    errors = [f"{name} off by {oracle.rel_err(got[name], ref[name]):.2e}"
              for name in ref if not _close(got[name], ref[name])]
    value, e, e_star = report["value"], report["linearized"], report["linearized_mid"]
    a, b = report["endpoint_A"], report["endpoint_B"]
    if not (_ordered([value, e, a]) and _ordered([value, b, a])):
        errors.append("value <= E <= A or value <= B <= A fails")
    if not (_ordered([abs(value - e / 2), report["half_E_bound"]])
            and _ordered([abs(value - e_star), report["E_star_bound"]])):
        errors.append("a deviation bound fails")
    return errors


# -- sweep --------------------------------------------------------------------

def _replay(case: dict, tol: float) -> str | None:
    """Recompute a printed witness's signed violation; None when it agrees."""
    witness = case["witness"]
    if case["id"] != "EQ53_LOWER":
        return f"no replay for {case['id']}"
    rows = oracle.rows_of(witness["p"], witness["q"])
    m = mpf(witness["m"])
    r, _ = oracle.ratio_range(rows)
    lhs = (1 - r ** m) / (1 - r) * oracle.classic("TOTAL_VARIATION", rows)
    rhs = oracle.vajda(witness["m"], rows)
    ref = lhs - rhs - tol * max(1, abs(rhs))
    scale = max(abs(lhs), abs(rhs), tol)
    if abs(mpf(case["max_violation"]) - ref) > REL_TOL * scale:
        return f"{case['id']} witness replays to {float(ref):.6g}, " \
               f"printed {case['max_violation']:.6g}"
    return None


def check_summary(summary: dict, pairs: int, verdict: Verdict) -> None:
    """A sweep summary: the pair count, no ASSERT failure, witnesses replay."""
    if summary["samples"] != pairs:
        verdict.problems.append(f"sweep ran {summary['samples']} pairs, configured {pairs}")
    if summary["assert_failures"]:
        verdict.failed_per_round = pairs
        verdict.failures.append(f"{summary['assert_failures']} ASSERT cases failed")
    for case in summary["cases"]:
        if "witness" in case:
            trouble = _replay(case, summary["config"]["tol"])
            if trouble:
                verdict.problems.append(trouble)


def check_sweep(record: dict, seed: int, sizes: inputs.Sizes) -> Verdict:
    verdict = Verdict()
    check_summary(record["summary"], record["ops_per_round"], verdict)
    grid = record["s_grid"]
    if not record["checked"]:
        verdict.problems.append("no sweep pair was checked in mpmath")
    for n, pair in enumerate(record["checked"]):
        if not inputs.sweep_checkable(pair["p"], pair["q"]):
            verdict.problems.append(f"checked pair {n} is nearer the diagonal than the "
                                    "check admits")
        rows = oracle.rows_of(pair["p"], pair["q"])
        refs = [oracle.classic(kind, rows) for kind in inputs.CHAIN_KINDS]
        refs += [oracle.v_family(s, rows) for s in grid]
        refs += [oracle.w_family(s, rows) for s in grid]
        got = pair["classic"] + pair["V"] + pair["W"]
        if not all(_close(v, ref) for v, ref in zip(got, refs)):
            verdict.fail(f"checked pair {n}: a value is off its reference")
            continue
        scale = (1 / 4, 1, 1, 4, 1 / 8, 1, 1 / 16)  # tri/4 js hel 4d j/8 ag sym_chi2/16
        chain_ref = [c * ref for c, ref in zip(scale, refs)]
        if not _ordered(chain_ref, slack=0.0):
            verdict.problems.append(f"checked pair {n}: the reference chain is out of order")
        if not _ordered([c * v for c, v in zip(scale, pair["classic"])]):
            verdict.problems.append(f"checked pair {n}: the program's chain is out of order")
    return verdict


# -- kernels ------------------------------------------------------------------

def _identity_errors(values: dict, i: int, grid) -> list[str]:
    """The paper's identities among one pair's program values."""
    v = {s: values.get(("family", i, "j_divergence_type_s", s)) for s in grid}
    w = {s: values.get(("family", i, "ag_js_divergence_type_s", s)) for s in grid}
    c = {name: values.get(("classic", i, name, None)) for name in inputs.CLASSIC_KINDS}
    claims = [(f"V_{s:g} = V_{1 - s:g}", v[s], v[1 - s]) for s in grid if 1 - s in v]
    claims += [
        ("J = 4(JS + AG)", c["J"], None if c["JS"] is None or c["AG"] is None
         else 4 * (c["JS"] + c["AG"])),
        ("W_-1 = tri/4", w.get(-1.0), None if c["TRIANGULAR"] is None else c["TRIANGULAR"] / 4),
        ("W_0 = JS", w.get(0.0), c["JS"]),
        ("W_1 = AG", w.get(1.0), c["AG"]),
        ("W_2 = sym_chi2/16", w.get(2.0),
         None if c["SYM_CHI2"] is None else c["SYM_CHI2"] / 16),
        ("V_1/2 = 8 hel", v.get(0.5), None if c["HELLINGER"] is None else 8 * c["HELLINGER"]),
    ]
    return [name for name, lhs, rhs in claims
            if lhs is not None and rhs is not None
            and abs(lhs - rhs) > 2 * REL_TOL * max(abs(lhs), abs(rhs))]


def check_kernels(record: dict, seed: int, sizes: inputs.Sizes) -> Verdict:
    verdict = Verdict()
    pairs = inputs.kernel_pairs(seed, sizes.kernel_repeat, record["generic_only"])
    rows = [oracle.rows_of(kp.p, kp.q) for kp in pairs]
    passed = {}  # (kind, pair, name, s) -> value, for calls that matched mpmath
    for op, value in zip(inputs.kernel_ops(pairs), record["values"]):
        kind, i, name, s = op
        label = f"{pairs[i].label} {name}" + ("" if s is None else f" s={s:g}")
        if kind == "bound":
            errors = bound_report_errors(value, name, s, rows[i])
            if errors:
                verdict.fail(f"{label}: {'; '.join(errors)}")
            continue
        ref = (oracle.FAMILY[name](s, rows[i]) if kind == "family"
               else oracle.classic(name, rows[i]))
        if _close(value, ref):
            passed[op] = value
        else:
            verdict.fail(f"{label}: relative error {oracle.rel_err(value, ref):.2e}")
    for i, kp in enumerate(pairs):
        for claim in _identity_errors(passed, i, inputs.S_GRID):
            verdict.problems.append(f"{kp.label}: {claim} fails")
    return verdict


# -- cli ----------------------------------------------------------------------

def _cli_errors(name: str, text: str, rows, seed: int, sizes: inputs.Sizes) -> list[str]:
    if name == "compute":  # the measure is W at some order
        (key, value), = json.loads(text).items()
        ref = oracle.w_family(float(inputs.CLI_COMPUTE_MEASURE.partition(":")[2]), rows)
        if key == inputs.CLI_COMPUTE_MEASURE and _close(value, ref):
            return []
        return [f"{key}={value} against {float(ref):.12g}"]
    if name == "bounds":
        kind, _, order = inputs.CLI_BOUNDS_MEASURE.partition(":")
        return bound_report_errors(json.loads(text), kind, float(order), rows)
    if name == "sweep_s":
        table = list(csv.reader(io.StringIO(text)))
        if table[0] != ["s", "Phi", "V", "W"] or len(table) != len(inputs.CLI_S_GRID) + 1:
            return ["unexpected table shape"]
        errors = []
        for s, row in zip(inputs.CLI_S_GRID, table[1:]):
            refs = (s, oracle.relative_information(s, rows), oracle.v_family(s, rows),
                    oracle.w_family(s, rows))
            errors += [f"s={s:g} column {col}" for col, (cell, ref) in enumerate(zip(row, refs))
                       if not _close(float(cell), mpf(ref))]
        return errors
    summary = json.loads(text)
    verdict = Verdict()
    check_summary(summary, len(inputs.CLI_VERIFY_DIMS) * sizes.cli_verify_samples, verdict)
    if summary["seed"] != seed:
        verdict.problems.append("verify ran another seed")
    return verdict.failures + verdict.problems


def check_cli(record: dict, seed: int, sizes: inputs.Sizes) -> Verdict:
    verdict = Verdict()
    p, q = inputs.cli_pair(seed)
    rows = oracle.rows_of(p, q)
    for name, out in record["outputs"].items():
        if out["returncode"] != 0:
            verdict.fail(f"{name} exited {out['returncode']}")
            continue
        try:
            errors = _cli_errors(name, out["stdout"], rows, seed, sizes)
        except (ValueError, KeyError, IndexError) as exc:
            errors = [f"unreadable output ({exc!r})"]
        if errors:
            verdict.fail(f"{name}: {'; '.join(errors)}")
    return verdict


CHECKS = {"sweep": check_sweep, "kernels": check_kernels, "cli": check_cli}


def check(part: str, record: dict, seed: int, sizes: inputs.Sizes) -> Verdict:
    verdict = CHECKS[part](record, seed, sizes)
    if not record["identical"]:
        verdict.problems.append(f"{part}: a later round's outputs differ from the first's")
    return verdict

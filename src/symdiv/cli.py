"""Command-line front-end.

Subcommands:

* ``compute``  -- evaluate one measure of a histogram pair
* ``bounds``   -- print the full bound report for a family generator
* ``verify``   -- run the inequality sweep and print its summary
* ``sweep-s``  -- tabulate the three type-s families over an s grid

Exit codes: 0 success, 1 input or validation error (including a result
that is not finite, NON_FINITE_RESULT), 2 when a verify run records at
least one ASSERT failure. Numeric output carries 12 significant digits so
outputs are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

# each subcommand imports the other modules it calls when it runs (``from .x
# import f``, which -X importtime lists), so a traced run sees the calls
from .errors import _FILTERS, DomainError, InputError, SymdivError
from .simplex import (NormalizationMode, NormalizationPolicy, load_weights,
                      validate_distribution)

# family tag -> the generator family of its bound report
_FAMILY_TAGS = {"PHI": "PHI", "V": "PHI", "PSI": "PSI", "W": "PSI"}


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _round12(value):
    """Recursively round floats to 12 significant digits for stable JSON."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round12(v) for v in value]
    return value


def _require_finite(payload) -> None:
    """Refuse to print inf or NaN in any format: JSON has no such numbers,
    and a non-finite figure is an overflow, not a result."""
    try:
        json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise DomainError("NON_FINITE_RESULT",
                          "the result is not finite in double precision") from exc


def _dump_json(obj) -> str:
    return json.dumps(_round12(obj), indent=2)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError("BAD_CONFIG", f"invalid grid {text!r}") from exc
    if not values:
        raise InputError("EMPTY_GRID", f"grid {text!r} is empty")
    return values


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise InputError("BAD_CONFIG", f"invalid dims {text!r}") from exc


def _load_pair(args):
    policy = NormalizationPolicy(
        NormalizationMode.RENORMALIZE if args.normalize else NormalizationMode.REJECT,
        epsilon=args.epsilon)
    p = validate_distribution(load_weights(args.input_p), policy)
    q = validate_distribution(load_weights(args.input_q), policy)
    return p, q


def _parse_measure(text: str):
    """A classic kind name, or a family tag with its order: PHI:0.5, V:2, W:-1."""
    name, _, order = text.partition(":")
    name = name.strip().upper()
    if name in _FAMILY_TAGS:
        if not order:
            raise InputError("BAD_CONFIG",
                             f"family measure needs an order, e.g. {name}:0.5")
        try:
            return name, float(order)
        except ValueError as exc:
            raise InputError("BAD_CONFIG", f"invalid order {order!r}") from exc
    if order:
        raise InputError("BAD_CONFIG", f"measure {name!r} does not take an order")
    from .divergences import MeasureKind
    try:
        return MeasureKind[name], None
    except KeyError as exc:
        known = ", ".join(k.name for k in MeasureKind)
        raise InputError("BAD_CONFIG",
                         f"unknown measure {text!r}; expected one of {known} "
                         f"or PHI:s / V:s / W:s") from exc


def _emit_mapping(pairs, fmt: str, header: str = "field,value") -> None:
    if fmt == "json":
        print(_dump_json(dict(pairs)))
    elif fmt == "csv":
        print(header)
        for key, value in pairs:
            print(f"{key},{_fmt(value) if isinstance(value, float) else value}")
    else:
        width = max(len(k) for k, _ in pairs)
        for key, value in pairs:
            print(f"{key:<{width}}  {_fmt(value) if isinstance(value, float) else value}")


def _cmd_compute(args) -> int:
    p, q = _load_pair(args)
    measure, order = _parse_measure(args.measure)
    if order is None:
        from .divergences import classic_divergence
        value = classic_divergence(measure, p, q)
    else:
        from .families import (ag_js_divergence_type_s, j_divergence_type_s,
                               relative_information_type_s)
        value = {"PHI": relative_information_type_s, "V": j_divergence_type_s,
                 "W": ag_js_divergence_type_s, "PSI": ag_js_divergence_type_s}[measure](order, p, q)
    key = f"{measure}:{order:g}" if order is not None else measure.name
    _require_finite(float(value))
    _emit_mapping([(key, float(value))], args.format, header="measure,value")
    return 0


def _cmd_bounds(args) -> int:
    p, q = _load_pair(args)
    measure, order = _parse_measure(args.measure)
    if order is None:
        raise InputError("BAD_CONFIG", "bounds needs a family generator: PHI:s or PSI:s")
    from .csiszar import bound_report, family_generator
    from .families import GeneratorFamilyKind
    report = bound_report(family_generator(GeneratorFamilyKind[_FAMILY_TAGS[measure]], order), p, q)
    payload = report.to_json_dict()
    _require_finite(payload)
    if args.format == "json":
        print(_dump_json(payload))
    else:
        ranges = payload.pop("ratio_bounds")
        _emit_mapping([*payload.items(), *((f"ratio_bounds.{k}", v) for k, v in ranges.items())],
                      args.format)
    return 0


def _cmd_verify(args) -> int:
    from .verify import SweepConfig, run_sweep
    # a flag left out keeps SweepConfig's default, which lives only there
    config = SweepConfig(dims=_parse_dims(args.dims),
                         samples_per_dim=args.samples,
                         seed=args.seed,
                         **{key: _parse_grid(text) for key, text in
                            (("s_grid", args.s_grid), ("t_grid", args.t_grid)) if text is not None},
                         **({} if args.tol is None else {"tol": args.tol}))
    summary = run_sweep(config)
    payload = summary.to_json_dict()
    _require_finite(payload)
    if args.format == "json":
        print(_dump_json(payload))
    else:
        for case in summary.cases:
            status = "PASS" if case.passed else "FAIL"
            rate = f"{case.violations}/{case.evaluations}"
            print(f"{status} {case.case_id:<12} {case.severity.value:<10} "
                  f"violations={rate} max={_fmt(case.max_violation) if case.max_violation is not None else 'n/a'}")
        print(f"pairs={summary.samples} assert_failures={summary.assert_failures} "
              f"elapsed_ms={summary.elapsed_ms}")
    return 0 if summary.ok else 2


def _cmd_sweep_s(args) -> int:
    p, q = _load_pair(args)
    grid = _parse_grid(args.s_grid)
    from .families import (ag_js_divergence_type_s, j_divergence_type_s,
                           relative_information_type_s)
    # each family over the grid in turn, reusing its memo's table; R refuses a bad order first
    rows = list(zip(grid, *([fn(s, p, q) for s in grid] for fn in (
        relative_information_type_s, j_divergence_type_s, ag_js_divergence_type_s))))
    _require_finite(rows)
    if args.format == "json":
        print(_dump_json([{"s": s, "Phi": phi, "V": v, "W": w}
                          for s, phi, v, w in rows]))
    elif args.format == "table":
        print(f"{'s':>8} {'Phi':>18} {'V':>18} {'W':>18}")
        for s, phi, v, w in rows:
            print(f"{_fmt(s):>8} {_fmt(phi):>18} {_fmt(v):>18} {_fmt(w):>18}")
    else:
        print("s,Phi,V,W")
        for s, phi, v, w in rows:
            print(f"{_fmt(s)},{_fmt(phi)},{_fmt(v)},{_fmt(w)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symdiv",
        description="Symmetric divergence measures, bound certificates, and "
                    "inequality verification for discrete distributions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair_flags(sp, default_format):
        sp.add_argument("--input-p", required=True, help="histogram file for P (JSON or CSV)")
        sp.add_argument("--input-q", required=True, help="histogram file for Q (JSON or CSV)")
        sp.add_argument("--normalize", action="store_true",
                        help="renormalize inputs instead of rejecting them")
        sp.add_argument("--epsilon", type=float, default=0.0,
                        help="smoothing added to each entry under --normalize")
        sp.add_argument("--format", choices=("json", "csv", "table"), default=default_format)

    sp = sub.add_parser("compute", help="evaluate one divergence measure")
    add_pair_flags(sp, "json")
    sp.add_argument("--measure", required=True,
                    help="measure name (e.g. J, JS, HELLINGER) or family tag PHI:s / V:s / W:s")
    sp.set_defaults(func=_cmd_compute)

    sp = sub.add_parser("bounds", help="print a bound report for a family generator")
    add_pair_flags(sp, "json")
    sp.add_argument("--measure", required=True, help="generator: PHI:s or PSI:s")
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("verify", help="run the inequality sweep")
    sp.add_argument("--dims", default="2,3,5,10", help="comma-separated dimensions")
    sp.add_argument("--samples", type=int, default=250, help="pairs per dimension")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--s-grid")
    sp.add_argument("--t-grid")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("sweep-s", help="tabulate Phi, V, W over an s grid")
    add_pair_flags(sp, "csv")
    sp.add_argument("--s-grid", required=True, help="comma-separated s values")
    sp.set_defaults(func=_cmd_sweep_s)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for verify
        # failures (--help and friends still exit 0)
        return 0 if exc.code in (0, None) else 1
    try:
        # an overflow is refused as NON_FINITE_RESULT, without numpy's warning
        with _FILTERS, warnings.catch_warnings():  # not np.errstate, which slows later ufuncs
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except (SymdivError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()

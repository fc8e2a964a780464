"""Span tracing of the program's public functions, from outside ``src/``.

``Tracer.install`` replaces each traced function in every ``symdiv``
module namespace that binds it (``from .x import f`` gives each importer
its own binding), and the traced methods on their classes. Calls made
inside the program then resolve to the wrappers too. ``uninstall`` puts
the originals back.

Spans are (name, start, end, parent) kept in memory; ``parent`` is the
index of the enclosing traced span, or -1. Self time is a span's
duration minus its direct children's: the program runs on one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("symdiv", "symdiv.simplex", "symdiv.divergences", "symdiv.families",
           "symdiv.means", "symdiv.csiszar", "symdiv.verify", "symdiv.cli")

# (defining module, attribute) -> span name
FUNCTIONS = {
    ("symdiv.simplex", "sample_simplex"): "simplex.sample_simplex",
    ("symdiv.simplex", "ratio_bounds"): "simplex.ratio_bounds",
    ("symdiv.divergences", "classic_divergence"): "divergences.classic_divergence",
    ("symdiv.divergences", "vajda_abs_chi"): "divergences.vajda_abs_chi",
    ("symdiv.families", "j_divergence_type_s"): "families.j_divergence_type_s",
    ("symdiv.families", "ag_js_divergence_type_s"): "families.ag_js_divergence_type_s",
    ("symdiv.families", "relative_information_type_s"): "families.relative_information_type_s",
    ("symdiv.csiszar", "bound_report"): "csiszar.bound_report",
    ("symdiv.csiszar", "csiszar_divergence"): "csiszar.csiszar_divergence",
    ("symdiv.csiszar", "linearized_functionals"): "csiszar.linearized_functionals",
    ("symdiv.csiszar", "endpoint_bounds"): "csiszar.endpoint_bounds",
    ("symdiv.csiszar", "smoothness_bounds"): "csiszar.smoothness_bounds",
    ("symdiv.csiszar", "family_generator"): "csiszar.family_generator",
    ("symdiv.verify", "run_sweep"): "verify.run_sweep",
    ("symdiv.verify", "pair_for"): "verify.pair_for",
    ("symdiv.verify", "slack_violation"): "verify.slack_violation",
    # one span name per subcommand, e.g. cli.run_cli.verify
    ("symdiv.cli", "run_cli"): "cli.run_cli",
}

# (defining module, class, method) -> span name
METHODS = {
    ("symdiv.csiszar", "Generator", "eval"): "csiszar.Generator.eval",
    ("symdiv.simplex", "Distribution", "__post_init__"): "simplex.Distribution.__post_init__",
}


class Tracer:
    """Spans in four parallel columns (name id, start, end, parent), so a
    traced run of a million calls holds tens of megabytes, not hundreds."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, name_ids, starts, ends, parents, stack = (
            self.names, self.name_ids, self.starts, self.ends, self.parents, self._stack)
        per_subcommand = name == "cli.run_cli"
        fixed = names.setdefault(name, len(names))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = fixed
            if per_subcommand:
                argv = args[0] if args else kwargs.get("argv")
                label = f"{name}.{argv[0] if argv else 'none'}"
                name_id = names.setdefault(label, len(names))
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for (home, attr), name in FUNCTIONS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        for (home, cls_name, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        spans = list(zip(self.name_ids, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        label = {i: name for name, i in self.names.items()}
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (name_id, start, end, _), inner in zip(spans, child):
            row = out[label[name_id]]
            row["calls"] += 1
            row["ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - inner) * 1e3
        return dict(out)

    def write(self, path, header: dict, limit: int) -> None:
        """Write the first ``limit`` spans as columns, times in microseconds
        from the first span."""
        origin = self.starts[0] if self.starts else 0.0

        def micros(column):
            return [round((v - origin) * 1e6, 1) for v in column[:limit]]

        with open(path, "w") as fh:
            json.dump({**header, "names": list(self.names),
                       "name": list(self.name_ids[:limit]), "start_us": micros(self.starts),
                       "end_us": micros(self.ends), "parent": list(self.parents[:limit])},
                      fh, separators=(",", ":"))

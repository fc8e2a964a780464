"""One measurement process of the benchmark.

It imports ``symdiv`` from the checkout's ``src/``, builds the inputs,
interleaves rounds of the three parts until the deadline, each part
taking its share of the time, and prints what it measured, with the
outputs the checker needs, as one JSON line. ``run.py`` starts it in a
fresh interpreter so that import time, set-up time and peak memory belong
to the program and not to the mpmath checker.

Every time it measures is CPU time of the process that did the work: this
process for the library calls, the child for a CLI invocation. The
program runs on one thread and waits on nothing, so on an idle machine
that equals wall time; on a shared host it leaves out the time the host
gives the CPU to others. Wall time only keeps the run's schedule. Each
round is then scaled by a reference timed just before it, to the host's
nominal speed (``reference.py``).

A round is a fixed list of calls that depends on the seed alone, and every
round of a part repeats the first one. The worker compares each round's
outputs with the first round's; the checker recomputes the first round.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 5 --trace 0
"""

from time import perf_counter, process_time

T0 = process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread: numpy's BLAS pool would otherwise start a thread per core in
# this process and in every CLI child, and its spinning would be timed.
# Children inherit the setting.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import symdiv  # noqa: E402
from symdiv import cli, csiszar, divergences, families, verify  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("sweep", "kernels", "cli")
ELAPSED = re.compile(r'("elapsed_ms": )\d+')
PLANT_FACTOR = 1.0 + 1e-6


def _same(a, b) -> bool:
    """Equality that treats NaN as equal to NaN."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return a == b


class SweepPart:
    """run_sweep on the default registry config, one fixed seed per run."""

    reference = "python"

    def __init__(self, seed: int, sizes: inputs.Sizes):
        self.seed = seed
        self.config = verify.SweepConfig(samples_per_dim=sizes.sweep_samples_per_dim,
                                          seed=seed)
        self.ops_per_round = len(self.config.dims) * self.config.samples_per_dim
        self.times: list[float] = []
        self.first = None
        self.identical = True

    def round(self) -> None:
        start = process_time()
        summary = verify.run_sweep(self.config)
        self.times.append(process_time() - start)
        out = summary.to_json_dict()
        out.pop("elapsed_ms")
        if self.first is None:
            self.first = out
        elif out != self.first:
            self.identical = False

    def samples(self) -> dict:
        return {"sweep_pairs_per_s": [self.ops_per_round / t for t in self.times]}

    def record(self) -> dict:
        """Round one's summary, and the chain and V_s/W_s values of the first
        checkable pairs of each dim, recomputed through the public functions."""
        kinds = [divergences.MeasureKind[k] for k in inputs.CHAIN_KINDS]
        checked = []
        for dim in self.config.dims:
            pairs = (verify.pair_for(self.seed, dim, index)
                     for index in range(self.config.samples_per_dim))
            pairs = [(p, q) for p, q in pairs if inputs.sweep_checkable(p.weights, q.weights)]
            for p, q in pairs[:inputs.SWEEP_CHECKED_PER_DIM]:
                checked.append({
                    "p": p.weights.tolist(), "q": q.weights.tolist(),
                    "classic": [divergences.classic_divergence(k, p, q) for k in kinds],
                    "V": [families.j_divergence_type_s(s, p, q) for s in self.config.s_grid],
                    "W": [families.ag_js_divergence_type_s(s, p, q)
                          for s in self.config.s_grid],
                })
        return {"summary": self.first, "s_grid": list(self.config.s_grid),
                "checked": checked}

    @staticmethod
    def plant(record: dict) -> None:
        record["checked"][0]["V"][0] *= PLANT_FACTOR


class KernelsPart:
    """Family, classic and bound-report calls on a few pairs of large n."""

    reference = "numpy"

    def __init__(self, seed: int, sizes: inputs.Sizes, generic_only: bool):
        pairs = inputs.kernel_pairs(seed, sizes.kernel_repeat, generic_only)
        dists = [(symdiv.validate_distribution(kp.p), symdiv.validate_distribution(kp.q))
                 for kp in pairs]
        self.generic_only = generic_only
        self.ops = inputs.kernel_ops(pairs)
        self.calls = [(kind, self._call(kind, name, s, *dists[i]))
                      for kind, i, name, s in self.ops]
        self.ops_per_round = len(self.ops)
        self.counts = {kind: sum(1 for k, *_ in self.ops if k == kind)
                       for kind in ("family", "classic", "bound")}
        self.busy: list[dict] = []
        self.first = None
        self.identical = True

    @staticmethod
    def _call(kind, name, s, p, q):
        # attributes are looked up at call time, so a traced run sees the calls
        if kind == "family":
            return lambda: getattr(families, name)(s, p, q)
        if kind == "classic":
            measure = divergences.MeasureKind[name]
            return lambda: divergences.classic_divergence(measure, p, q)
        generator = families.GeneratorFamilyKind[name]
        return lambda: csiszar.bound_report(csiszar.family_generator(generator, s), p, q)

    def round(self) -> None:
        busy = dict.fromkeys(self.counts, 0.0)
        outs = []
        for kind, call in self.calls:
            start = process_time()
            value = call()
            busy[kind] += process_time() - start
            outs.append(value)
        self.busy.append(busy)
        if self.first is None:
            self.first = outs
        elif not all(_same(a, b) for a, b in zip(outs, self.first)):
            self.identical = False

    def samples(self) -> dict:
        def rate(kind):
            return [self.counts[kind] / b[kind] for b in self.busy]
        return {"family_evals_per_s": rate("family"),
                "classic_evals_per_s": rate("classic"),
                "bound_reports_per_s": rate("bound")}

    def record(self) -> dict:
        values = [v.to_json_dict() if kind == "bound" else v
                  for (kind, *_), v in zip(self.ops, self.first)]
        return {"generic_only": self.generic_only, "values": values}

    @staticmethod
    def plant(record: dict) -> None:
        record["values"][0] *= PLANT_FACTOR


class CliPart:
    """Sequential ``python -m symdiv.cli`` invocations on a small pair."""

    reference = "process"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: Path):
        self.p, self.q = inputs.cli_pair(seed)
        paths = []
        for label, weights in (("p", self.p), ("q", self.q)):
            path = workdir / f"{label}.json"
            path.write_text(json.dumps({"weights": weights}))
            paths.append(str(path))
        self.commands = inputs.cli_commands(*paths, seed, sizes)
        self.ops_per_round = len(self.commands)
        self.env = child_env()
        self.times = {name: [] for name in self.commands}
        self.peak_rss_mb = 0.0
        self.first = None
        self.identical = True

    def round(self) -> None:
        outs = {}
        for name, argv in self.commands.items():
            code, text, usage = run_child(["-m", "symdiv.cli", *argv], self.env)
            self.times[name].append(usage.ru_utime + usage.ru_stime)
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
            outs[name] = (code, text)
        self._keep(outs)

    def in_process_round(self) -> None:
        """The same four subcommands through run_cli, in this process."""
        outs = {}
        for name, argv in self.commands.items():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.run_cli(argv)
            outs[name] = (code, buffer.getvalue())
        self._keep(outs)

    def _keep(self, outs: dict) -> None:
        outs = {name: (code, ELAPSED.sub(r"\g<1>0", text))
                for name, (code, text) in outs.items()}
        if self.first is None:
            self.first = outs
        elif outs != self.first:
            self.identical = False

    def samples(self) -> dict:
        return {f"cli_{name}_ms": [t * 1e3 for t in times]
                for name, times in self.times.items()}

    def record(self) -> dict:
        return {"p": self.p, "q": self.q,
                "outputs": {name: {"returncode": code, "stdout": text}
                            for name, (code, text) in self.first.items()}}

    @staticmethod
    def plant(record: dict) -> None:
        out = record["outputs"]["compute"]
        values = {key: value * PLANT_FACTOR for key, value in json.loads(out["stdout"]).items()}
        out["stdout"] = json.dumps(values, indent=2) + "\n"


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv: list[str], env: dict) -> tuple[int, str, resource.struct_rusage]:
    """Run ``python ARGV`` to its end; its exit code, its standard output
    and its own resource usage (CPU time, peak RSS), reaped with wait4."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        text = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, text, usage


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _startup_ms(code: str, repeats: int) -> float:
    env = child_env()
    times = []
    for _ in range(repeats):
        status, _, usage = run_child(["-c", code], env)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited {status}")
        times.append(usage.ru_utime + usage.ru_stime)
    return statistics.median(times) * 1e3


def layer_metrics(tracer: tracing.Tracer, cycles: int) -> dict:
    """Per-layer figures per traced cycle, named as in BENCHMARK.json."""
    rows = tracer.summary()
    absent = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    return {metric: rows.get(span, absent)[field] / cycles
            for metric, (span, field) in inputs.LAYER_METRICS.items()}


def build_parts(args, sizes: inputs.Sizes, workdir: Path) -> dict:
    return {
        "sweep": SweepPart(args.seed, sizes),
        "kernels": KernelsPart(args.seed, sizes, generic_only=args.workload != "kernels"),
        "cli": CliPart(args.seed, sizes, workdir),
    }


def _setup_sample(args) -> float:
    """Set-up time of a fresh worker that builds the inputs and exits."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--setup-only", *(["--tiny"] if args.tiny else [])]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(proc.stdout)["setup_s"]


def time_reference(kind: str) -> float:
    """CPU seconds of one run of a reference computation."""
    if kind == "process":
        env = dict(child_env(), PYTHONPATH=str(HERE))
        status, _, usage = run_child(["-c", reference.PROCESS_CODE], env)
        if status != 0:
            raise RuntimeError(f"the process reference exited {status}")
        return usage.ru_utime + usage.ru_stime
    work = reference.python_work if kind == "python" else reference.numpy_work
    start = process_time()
    work()
    return process_time() - start


def scaled(samples: list[float], refs: list[float], kind: str, rate: bool) -> list[float]:
    """Each sample scaled to the nominal host speed by the reference timed
    just before it (reference.py): a time times nominal over reference, a
    rate the other way round."""
    nominal = reference.NOMINAL[kind]
    return [v * ref / nominal if rate else v * nominal / ref for v, ref in zip(samples, refs)]


def measure(args, parts: dict, sizes: inputs.Sizes) -> dict:
    """Interleave rounds of every part until the deadline, each part
    taking its share of the time (inputs.SHARES), and take set-up samples
    evenly across the window. Each round and each set-up sample is
    preceded by its reference, which scales it. Every figure is the median
    of its scaled samples over the whole run."""
    own = parts[args.workload]
    share = inputs.SHARES[args.workload]
    busy = dict.fromkeys(parts, 0.0)
    refs: dict[str, list[float]] = {name: [] for name in parts}
    setups: list[float] = []
    setup_refs: list[float] = []
    rounds = 0
    start = perf_counter()
    while (perf_counter() < start + args.seconds or not all(busy.values())
           or len(setups) < sizes.setup_samples):
        if len(setups) < sizes.setup_samples and \
                perf_counter() - start >= len(setups) * args.seconds / sizes.setup_samples:
            setup_refs.append(time_reference("process"))
            setups.append(_setup_sample(args))
            continue
        name = min(parts, key=lambda n: busy[n] / share[n])
        begin = perf_counter()
        refs[name].append(time_reference(parts[name].reference))
        parts[name].round()
        busy[name] += perf_counter() - begin
        rounds += parts[name] is own
    peak = parts["cli"].peak_rss_mb if own is parts["cli"] else \
        _peak_rss_mb(resource.RUSAGE_SELF)
    values = {"setup_s": scaled(setups, setup_refs, "process", rate=False)}
    unscaled = {"setup_s": setups}
    for name, part in parts.items():
        for metric, samples in part.samples().items():
            values[metric] = scaled(samples, refs[name], part.reference,
                                    rate=metric.endswith("_per_s"))
            unscaled[metric] = samples
    speed = {part.reference: reference.NOMINAL[part.reference] / statistics.median(refs[name])
             for name, part in parts.items()}
    values = {metric: statistics.median(v) for metric, v in values.items()}
    values["peak_rss_mb"] = peak
    unscaled = {metric: statistics.median(v) for metric, v in unscaled.items()}
    return {"rounds": rounds, "values": values, "unscaled": unscaled, "speed": speed,
            "parts": parts}


def measure_traced(args, parts: dict) -> dict:
    """Rounds of the workload's own part, each followed by one in-process
    pass of the four CLI subcommands, so every layer is entered on every
    workload. Layer figures are per cycle; cycles repeat exactly."""
    own, cli_part = parts[args.workload], parts["cli"]
    tracer = tracing.Tracer()
    tracer.install()
    deadline = perf_counter() + args.seconds
    cycles = written = 0
    try:
        while cycles == 0 or perf_counter() < deadline:
            if own is not cli_part:
                own.round()
            cli_part.in_process_round()
            cycles += 1
            if cycles == inputs.TRACE_WRITE_CYCLES:
                written = len(tracer.starts)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, cycles)
    metrics["cli.interpreter_ms"] = _startup_ms("pass", inputs.STARTUP_REPEATS)
    metrics["cli.import_ms"] = (_startup_ms("import symdiv", inputs.STARTUP_REPEATS)
                                - metrics["cli.interpreter_ms"])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "cycles": cycles,
                  "metrics": metrics}, limit=written or len(tracer.starts))
    traced = {} if own is cli_part else {
        name: statistics.median(values) for name, values in own.samples().items()}
    return {"rounds": cycles, "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "metrics": metrics, "traced_throughput": traced,
            "parts": {args.workload: own}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes, for tests")
    parser.add_argument("--plant", action="store_true",
                        help="corrupt one checked output of the workload's own part")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, report the set-up time and exit")
    args = parser.parse_args(argv)
    if Path(symdiv.__file__).resolve().parent != SRC / "symdiv":
        print(f"symdiv was imported from {symdiv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", RuntimeWarning)  # the large-|s| overflows
    sizes = inputs.TINY if args.tiny else inputs.FULL
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        parts = build_parts(args, sizes, workdir)
        setup_s = process_time() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure_traced(args, parts) if args.trace else measure(args, parts, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = {}
    for name, part in result.pop("parts").items():
        records[name] = {"ops_per_round": part.ops_per_round, "identical": part.identical,
                         **part.record()}
    if args.plant:
        type(parts[args.workload]).plant(records[args.workload])
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result,
                      "records": records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

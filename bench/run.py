"""Benchmark for iobf: obfuscation latency, batch throughput, interpreter
speed and output cost, on seeded workloads (bench/workloads.py).

    python3 bench/run.py --workload corpus-default --seed 3 --seconds 40 --trace 0

Run from the root of a checkout. One single-threaded process drives the
load as a closed loop with one client: each module starts only after the
previous one has finished. The loop cycles through the workload's modules
and starts a new cycle while fewer than `--seconds` have passed, so every
figure comes from whole cycles.

Each module goes through the batch cycle: `cli.run_pipeline` (parse,
validate, passes, print), re-parse and validate the printed text, run the
original and the obfuscated module on every input vector, then
`metrics.similarity` and `metrics.overhead`. Every run is checked (see
`check_vector`); failures count against the attempted operations.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones:
it measures half the time untraced and half traced, reports each layer's
self time from spans around iobf's public functions, the tracing overhead,
and writes the spans to bench/out/. The last line of standard output is
one JSON object; the lines before it are the same figures for people.
Metric names and units come from BENCHMARK.json; bench/spec.json records
why each workload exists and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

import calibration  # noqa: E402 - after the bytecode switch, like iobf

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = ROOT / "tests" / "reference_algorithms.py"
SETUP_REPEATS = 5


def _import_program():
    if not (SRC / "iobf" / "__init__.py").is_file() or not REFERENCES.is_file():
        sys.exit(f"error: {SRC / 'iobf'} or {REFERENCES} is missing; "
                 "run from the root of an iobf checkout")
    sys.path.insert(0, str(SRC))
    spec = importlib.util.spec_from_file_location("reference_algorithms", REFERENCES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.REFERENCES


@dataclass
class Sample:
    """One module through the batch cycle, as wall-clock intervals."""

    item: int  # index into the workload's items
    obfuscate: tuple[float, float]
    reparse: tuple[float, float]
    # (vector index, original run, obfuscated run, steps of both)
    runs: list[tuple[int, tuple[float, float], tuple[float, float], int]]
    metrics: tuple[float, float]


@dataclass
class Stats:
    """Everything one measurement loop observed."""

    clock: calibration.Clock
    samples: list[Sample] = field(default_factory=list)
    cycles: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    # per cycle: exact output figures and, when traced, the layer counts
    exact: list[tuple] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)

    def fail(self, item, what: str, ops: int = 1):
        self.attempted += ops
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(f"{item.name} seed={item.config.seed}: {what}")


def check_vector(item, index, args, before, after) -> str | None:
    """Why this vector fails, or None.

    The obfuscated run must match the original's observable behaviour;
    the original must match the pinned manifest output or, for generated
    vectors, what the independent Python reference computed in set-up.
    """
    from iobf.interp import RETURNED
    if before.observable() != after.observable():
        return f"oracle {args}: {before.observable()} != {after.observable()}"
    if before.status != RETURNED:
        return f"{args}: {before.status} {before.reason or ''}"
    if before.output != item.expected[index]:
        return f"{args}: printed {before.output}, expected {item.expected[index]}"
    if item.values is not None and before.value != item.values[index]:
        return f"{args}: returned {before.value}, expected {item.values[index]}"
    return None


def process(index: int, item, stats: Stats, cycle: dict):
    """One module through the batch cycle. The calibration clock ticks only
    between the timed intervals."""
    from iobf import cli, interp, metrics, parser
    clock = stats.clock
    t0 = time.perf_counter()
    try:
        result = cli.run_pipeline(item.config, item.text)
        t1 = time.perf_counter()
        clock.tick()
        t2 = time.perf_counter()
        obf = parser.parse_module(result.text)  # raises on any diagnostic
        t3 = time.perf_counter()
    except Exception as exc:  # any exception from iobf is a failed module
        stats.fail(item, f"{type(exc).__name__}: {exc}", 1 + len(item.vectors))
        return
    cycle["digest"].update(result.text.encode("utf-8"))
    sample = Sample(index, (t0, t1), (t2, t3), [], (0.0, 0.0))

    steps_before = steps_after = 0
    for i, args in enumerate(item.vectors):
        clock.tick()
        try:
            t0 = time.perf_counter()
            before = interp.run(item.original, item.entry, args, item.fuel)
            t1 = time.perf_counter()
            after = interp.run(obf, item.entry, args, item.fuel)
            t2 = time.perf_counter()
        except Exception as exc:  # e.g. RecursionError on deep recursion
            stats.fail(item, f"run{args}: {type(exc).__name__}: {exc}")
            continue
        sample.runs.append((i, (t0, t1), (t1, t2), before.steps + after.steps))
        steps_before += before.steps
        steps_after += after.steps
        problem = check_vector(item, i, args, before, after)
        if problem:
            stats.fail(item, problem)
        else:
            stats.attempted += 1

    clock.tick()
    try:
        t0 = time.perf_counter()
        sim = metrics.similarity(item.original, obf)
        over = metrics.overhead(item.original, obf, item.entry, item.vectors,
                                0, item.fuel)
        sample.metrics = (t0, time.perf_counter())
    except Exception as exc:
        stats.fail(item, f"metrics: {type(exc).__name__}: {exc}")
        return
    stats.attempted += 1
    stats.samples.append(sample)
    cycle["exact"].append((over.space_ratio, steps_after / max(1, steps_before),
                           sim.prog_sim))


def measure(items, seconds: float, tracer=None) -> Stats:
    """Whole cycles over `items` until `seconds` have passed."""
    stats = Stats(calibration.Clock())
    stats.clock.tick(force=True)
    start = time.perf_counter()
    while True:
        cycle = {"digest": hashlib.sha256(), "exact": []}
        if tracer is not None:
            tracer.counts.clear()
        for index, item in enumerate(items):
            gc.collect()  # start each module from a collected heap
            stats.clock.tick()
            if tracer is None:
                process(index, item, stats, cycle)
            else:
                span = tracer.open("bench.module")
                try:
                    process(index, item, stats, cycle)
                finally:
                    tracer.close(span)
        stats.cycles += 1
        ex = cycle["exact"]
        stats.exact.append((
            _geomean([e[0] for e in ex]), _geomean([e[1] for e in ex]),
            statistics.fmean(e[2] for e in ex) if ex else 0.0,
            cycle["digest"].hexdigest()))
        if tracer is not None:
            stats.counts.append(dict(tracer.counts))
        if time.perf_counter() - start >= seconds:
            stats.clock.tick(force=True)
            return stats


def _geomean(values) -> float:
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(stats: Stats, setup_s: float) -> dict[str, float]:
    """Times in reference seconds (see calibration.py).

    Every module (and every input vector) is timed once per cycle; its
    latency is the median over cycles, and p50/p90 are taken over modules
    (vectors), so they do not depend on how many cycles fitted in the run.
    The rates divide all work done by all time spent on it.
    """
    ref = stats.clock.reference
    obf, runs = defaultdict(list), defaultdict(list)
    total_s = run_time = 0.0
    steps = 0
    for s in stats.samples:
        obf_s = ref(*s.obfuscate)
        obf[s.item].append(obf_s)
        total_s += obf_s + ref(*s.reparse) + ref(*s.metrics)
        for vector, before, after, both_steps in s.runs:
            after_s = ref(*after)
            runs[s.item, vector].append(after_s)
            run_time += ref(*before) + after_s
            total_s += ref(*before) + after_s
            steps += both_steps
    obf_s = [statistics.median(v) for v in obf.values()]
    run_s = [statistics.median(v) for v in runs.values()]
    space, step, sim, _ = stats.exact[0]
    return {
        "setup_s": setup_s,
        "obf_s.p50": statistics.median(obf_s) if obf_s else 0.0,
        "obf_s.p90": percentile(obf_s, 0.9),
        "batch_modules_per_s": len(stats.samples) / total_s if total_s else 0.0,
        "run_s.p50": statistics.median(run_s) if run_s else 0.0,
        "run_s.p90": percentile(run_s, 0.9),
        "exec_steps_per_s": steps / run_time if run_time else 0.0,
        "space_ratio": space,
        "step_ratio": step,
        "prog_sim": sim,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced: Stats, base: Stats, load_s: float,
              since: int, compile_s: float) -> dict[str, float]:
    """Self time of each layer per module, in reference seconds, and the
    layer counts of one cycle (every cycle's are checked to be equal)."""
    f = traced.clock.factor()
    self_s = {k: v * f for k, v in tracer.self_times(since).items()}
    modules = max(1, len(traced.samples))
    counts = traced.counts[0] if traced.counts else {}

    def per_module(name):
        return self_s.get(name, 0.0) / modules

    total = defaultdict(int)
    for c in traced.counts:
        for k, v in c.items():
            total[k] += v
    parse_s = self_s.get("parser.parse_module", 0.0)
    run_s = self_s.get("interp.run", 0.0)
    base_e2e = end_to_end(base, 0.0)
    traced_e2e = end_to_end(traced, 0.0)
    return {
        "parser.parse_module_s": per_module("parser.parse_module"),
        "parser.bytes_per_s": total["parser.bytes"] / parse_s if parse_s else 0.0,
        "validate.validate_s": per_module("validate.validate"),
        "validate.diagnostics": counts.get("validate.diagnostics", 0),
        "ir.print_module_s": per_module("ir.print_module"),
        "ir.bytes_out": counts.get("ir.bytes_out", 0),
        "cli.pass_applier_self_s": per_module("cli.pass_applier"),
        "flatten.nested_switch_s": per_module("flatten.nested_switch"),
        "flatten.flatten_s": per_module("flatten.flatten"),
        "flatten.calls": counts.get("flatten.calls", 0),
        "flatten.insts_out": counts.get("flatten.insts_out", 0),
        "bogus.indegree_obfuscate_s": per_module("bogus.indegree_obfuscate"),
        "bogus.bogus_control_flow_s": per_module("bogus.bogus_control_flow"),
        "bogus.insts_out": counts.get("bogus.insts_out", 0),
        "rename.obfuscate_identifiers_default_s":
            per_module("rename.obfuscate_identifiers_default"),
        "rename.insts_out": counts.get("rename.insts_out", 0),
        "interp.compile_s": compile_s * f / modules,
        "interp.run_s": per_module("interp.run"),
        "interp.steps": counts.get("interp.steps", 0),
        "interp.steps_per_s": total["interp.steps"] / run_s if run_s else 0.0,
        "metrics.similarity_s": per_module("metrics.similarity"),
        "metrics.overhead_s": per_module("metrics.overhead"),
        "corpus.load_corpus_s": load_s,
        "overhead.obf_s.p50": traced_e2e["obf_s.p50"] - base_e2e["obf_s.p50"],
        "overhead.run_s.p50": traced_e2e["run_s.p50"] - base_e2e["run_s.p50"],
        "overhead.batch_modules_per_s":
            traced_e2e["batch_modules_per_s"] - base_e2e["batch_modules_per_s"],
    }


def timed_setups(build, seed, references, repeats: int):
    """Set the workload up `repeats` times; the last items and the median
    set-up time in reference seconds."""
    from iobf import corpus
    clock = calibration.Clock()
    times = []
    for _ in range(repeats):
        gc.collect()
        clock.tick(force=True)
        t0 = time.perf_counter()
        items = build(corpus.default_corpus_dir(), seed, references)
        times.append((t0, time.perf_counter()))
    clock.tick(force=True)
    return items, statistics.median(clock.reference(*t) for t in times)


def run_plain(build, seed, seconds, references):
    items, setup_s = timed_setups(build, seed, references, SETUP_REPEATS)
    stats = measure(items, seconds)
    return stats, end_to_end(stats, setup_s), []


def run_traced(build, seed, seconds, references, span_path):
    """Half the time untraced, half traced, on the same items."""
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        items, _ = timed_setups(build, seed, references, 1)
    finally:
        tracer.uninstall()
    load_s = tracer.self_times(0).get("corpus.load_corpus", 0.0)  # one set-up, one load
    base = measure(items, seconds / 2)
    since, compile_before = len(tracer.spans), tracer.compile_s
    tracer.install()
    try:
        traced = measure(items, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    layers = per_layer(tracer, traced, base, load_s * base.clock.factor(),
                       since, tracer.compile_s - compile_before)
    tracer.write(span_path, traced.counts)
    problems = []
    if any(c != traced.counts[0] for c in traced.counts[1:]):
        problems.append("layer counts differ between cycles: "
                        + json.dumps(traced.counts, sort_keys=True))
    if layers["validate.diagnostics"]:
        problems.append(f"validate() reported {layers['validate.diagnostics']} "
                        "diagnostics")
    traced.attempted += base.attempted
    traced.failed += base.failed
    traced.failures += base.failures
    traced.exact += base.exact
    return traced, layers, problems


def main(argv=None) -> int:
    references = _import_program()
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "bench" / "spec.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build = workloads.WORKLOADS[args.workload]
    if args.trace:
        span_path = ROOT / "bench" / "out" / f"spans-{args.workload}-{args.seed}.json"
        stats, values, problems = run_traced(build, args.seed, args.seconds,
                                             references, span_path)
        declared = bench["per_layer"]
    else:
        stats, values, problems = run_plain(build, args.seed, args.seconds, references)
        declared = bench["end_to_end"]

    if set(values) != {m["name"] for m in declared}:
        sys.exit(f"error: computed metrics {sorted(values)} differ from "
                 f"BENCHMARK.json {sorted(m['name'] for m in declared)}")
    if len({e[:3] for e in stats.exact}) > 1:
        problems.append("space/step/similarity figures differ between cycles")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {stats.cycles}  modules {len(stats.samples)}  "
          f"obfuscated runs {sum(len(s.runs) for s in stats.samples)}")
    print(f"  times in reference seconds: calibration kernel median "
          f"{statistics.median(stats.clock.kernel_s) * 1e3:.3f} ms, reference "
          f"{calibration.REFERENCE_S * 1e3:g} ms")
    print(f"  latencies: obf_s over {len({s.item for s in stats.samples})} modules, "
          f"run_s over {len({(s.item, r[0]) for s in stats.samples for r in s.runs})} "
          f"vectors, each the median of its {stats.cycles} cycles")
    for m in declared:
        print(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']:<10} "
              f"({m['better']} is better)")
    print(f"  {'failed_frac':<40} {stats.failed / max(1, stats.attempted):>16.6g} "
          f"{'ratio':<10} ({stats.failed} of {stats.attempted} operations)")
    print(f"  output sha256 {stats.exact[0][3]}")
    for line in stats.failures + problems:
        print(f"  FAIL {line}")
    if args.trace:
        print(f"  spans written to {span_path.relative_to(ROOT)}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({
        "correct": stats.failed == 0 and not problems,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload of the curvebench benchmark and print its metrics.

    python3 bench/run.py --workload score-warm --seed 1 --seconds 34 --trace 0

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1``
it replays the same operations serially with spans around the calls into
each layer and reports per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object.  Every
operation's output is checked against ``reference/``; a mismatch counts
as a failed operation.  See README.md for what each metric means.
"""

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO

import program
import tracing
import workloads

SETUP_REPEATS = 5    # input set-ups per run; setup_s takes their median
IMPORT_REPEATS = 3   # imports of curvebench per run, all but one in a child
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import curvebench.cli; "
                "print(time.perf_counter() - t)")
TAIL_BEYOND = 10   # the tail percentile keeps at least this many samples above it


def tail(samples):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples
    above it.  With fewer than 2 * TAIL_BEYOND + 1 samples that percentile
    would lie below the median, so the median stands in for it."""
    xs = sorted(samples)
    n = len(xs)
    if n > 2 * TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return statistics.median(xs), 50.0, n


def import_seconds(first: float) -> list:
    """``first`` plus the import time of curvebench in fresh interpreters.

    Run after peak_rss_mb() has been read, so these children do not count.
    """
    times = [first]
    for _ in range(IMPORT_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(program.ROOT / "src")],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout))
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Checker:
    """Counts attempted and failed operations against the stored reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def check(self, key, got) -> None:
        self.attempted += 1
        why = program.mismatch(got, self.reference.get(key))
        if why is not None:
            self.failures.append(f"{key}: {why}")


def timed_ops(passes, seconds, run_op, after_first_pass=None):
    """Run operations pass by pass until the next one would end after
    ``seconds``, judged by the median operation so far.  The first pass
    always completes.  Returns the latencies and the walls of whole passes.
    """
    start = time.perf_counter()
    latencies, walls = [], []
    for ops in passes:
        t = time.perf_counter()
        for op in ops:
            elapsed = time.perf_counter() - start
            if walls and elapsed + statistics.median(latencies) > seconds:
                return latencies, walls
            latencies.append(run_op(op))
        walls.append(time.perf_counter() - t)
        if len(walls) == 1 and after_first_pass is not None:
            after_first_pass()
    return latencies, walls


# ----------------------------------------------------------------------
# set-up


def setup(cb, workload, seed):
    """The workload's passes, with instances generated and embeddings made."""
    if workload == "score-warm":
        return itertools.repeat(program.prepare_score_ops(cb, workloads.warm_pass(seed)))
    if workload == "score-cold":
        return [program.prepare_score_ops(cb, c) for c in workloads.cold_cycles(seed)]
    return ([s] for s in itertools.cycle(workloads.suite_seeds(seed)))


# ----------------------------------------------------------------------
# untraced runs: end-to-end metrics


def score_op(cb, checker, prepared):
    op = prepared[0]
    t = time.perf_counter()
    try:
        got = program.outcome(program.score(cb, prepared))
    except Exception as exc:  # a failed operation is counted, not fatal
        print(f"{op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        got = None
    elapsed = time.perf_counter() - t
    checker.check(op.key, got)
    return elapsed


def suite_pass(cb, checker, suite_seed, workers=workloads.SUITE_WORKERS, job_seconds=None):
    """One ``curvebench suite`` invocation; returns its wall time and adds
    the time of each of its (instance, method) runs to ``job_seconds``."""
    expected = workloads.SUITE_LIMIT * len(workloads.SUITE_METHODS.split(","))
    with tempfile.TemporaryDirectory(dir=program.work_dir()) as out_dir:
        argv = workloads.suite_argv(suite_seed, out_dir, workers)
        t = time.perf_counter()
        try:
            with redirect_stdout(StringIO()):
                status = cb.cli.main(argv)
        except Exception as exc:  # every expected row then counts as failed
            print(f"suite --seed {suite_seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = None
        wall = time.perf_counter() - t
        rows, seconds = program.suite_outcomes(out_dir) if status == 0 else ({}, [])
    if job_seconds is not None:
        job_seconds.extend(seconds)
    for key, got in rows.items():
        checker.check(f"{suite_seed}/{key}", got)
    for _ in range(expected - len(rows)):
        checker.check(f"{suite_seed}/missing row", None)
    return wall


def measure(cb, checker, workload, passes, seconds) -> dict:
    """End-to-end metrics.  An operation is one score_embedding call, or for
    suite-paper one (instance, method) run, timed by the suite's reports."""
    if workload == "suite-paper":
        op_latencies = []
        run_op = lambda s: suite_pass(cb, checker, s, job_seconds=op_latencies)
    else:
        run_op = lambda prepared: score_op(cb, checker, prepared)
    latencies, walls = timed_ops(passes, seconds, run_op)
    if workload != "suite-paper" or not op_latencies:  # no suite row succeeded
        op_latencies = latencies
    value, pct, n = tail(op_latencies)
    return {
        "throughput_per_s": (checker.attempted / sum(latencies), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(op_latencies), "ms"),
        "latency_tail_ms": (1000.0 * value, "ms"),
        "suite_wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }, f"tail is p{pct:.1f} of {n} samples; {len(walls)} whole passes"


# ----------------------------------------------------------------------
# traced runs: per-layer metrics


def traced_score_op(cb, checker, tracer, prepared, latencies):
    """One call twice, untraced then traced, so drift hits both alike."""
    tracer.enabled = False
    latencies["untraced"].append(score_op(cb, checker, prepared))
    tracer.enabled = True
    tracer.new_op()
    span = tracer.begin("op")
    try:
        score_op(cb, checker, prepared)
    finally:
        tracer.end(span)
    latencies["traced"].append(span.end - span.start)
    return latencies["untraced"][-1] + latencies["traced"][-1]


def traced_suite_op(cb, checker, tracer, suite_seed, latencies):
    """Parallel and serial untraced, then serial traced, on one suite seed."""
    latencies["parallel"].append(suite_pass(cb, checker, suite_seed))
    latencies["untraced"].append(suite_pass(cb, checker, suite_seed, workers=1))
    with tracing.Instrumented(tracer, program.probes()):
        span = tracer.begin("cli.suite")
        try:
            suite_pass(cb, checker, suite_seed, workers=1)
        finally:
            tracer.end(span)
    latencies["traced"].append(span.end - span.start)
    return span.end - span.start + latencies["parallel"][-1] + latencies["untraced"][-1]


def trace(cb, checker, workload, passes, seconds):
    tracer = tracing.Tracer()
    latencies = {"untraced": [], "traced": [], "parallel": []}
    first_pass_counts = {}
    snapshot = lambda: first_pass_counts.update(tracer.counts)
    if workload == "suite-paper":
        run_op = lambda s: traced_suite_op(cb, checker, tracer, s, latencies)
        timed_ops(passes, seconds, run_op, snapshot)
    else:
        run_op = lambda p: traced_score_op(cb, checker, tracer, p, latencies)
        with tracing.Instrumented(tracer, program.probes()):
            timed_ops(passes, seconds, run_op, snapshot)
    return tracer, first_pass_counts, latencies


def median_ms(values):
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(tracer, counts, latencies) -> dict:
    durations, selfs = {}, {}
    own = tracing.self_times(tracer.spans)
    for s in tracer.spans:
        durations.setdefault(s.name, []).append(s.end - s.start)
        selfs.setdefault(s.name, []).append(own[s.id])
    med = lambda name: median_ms(durations.get(name, []))
    iters = tracer.counts.get("reducers.mds_iters", 0)
    efficiency = 0.0
    if latencies["parallel"]:
        efficiency = statistics.median(
            t / (workloads.SUITE_WORKERS * p)
            for t, p in zip(latencies["traced"], latencies["parallel"]))
    metrics = {
        "generator.instance_ms": (med("generator.makegen") + med("generator.evaluate"), "ms"),
        "reducers.linear_ms": (med("reducers.linear"), "ms"),
        "reducers.mds_ms": (med("reducers.mds"), "ms"),
        "reducers.classical_mds_ms": (med("reducers.classical_mds"), "ms"),
        "reducers.smacof_ms": (med("reducers.smacof"), "ms"),
        "reducers.smacof_ms_per_iter": (
            1000.0 * sum(durations.get("reducers.smacof", [])) / iters if iters else 0.0, "ms"),
        "reducers.mds_iters": (counts.get("reducers.mds_iters", 0), "count"),
        "reducers.npr_ms": (med("reducers.npr"), "ms"),
        "estimation.knn_fit_ms": (med("estimation.knn_fit"), "ms"),
        "estimation.metric_curvature_ms": (med("estimation.metric_curvature"), "ms"),
        "estimation.function_spline_ms": (med("estimation.function_spline"), "ms"),
        "estimation.failed_nodes": (counts.get("estimation.failed_nodes", 0), "count"),
        "estimation.clamped_nodes": (counts.get("estimation.clamped_nodes", 0), "count"),
        "geometry.degenerate_nodes": (counts.get("geometry.degenerate_nodes", 0), "count"),
        "geometry.floored_plane_nodes": (counts.get("geometry.floored_plane_nodes", 0), "count"),
        "geometry.l2_score_ms": (med("geometry.l2_score"), "ms"),
        "cli.score_self_ms": (median_ms(selfs.get("cli.score_embedding", [])), "ms"),
        "cli.suite_parallel_efficiency": (efficiency, "ratio"),
    }
    return metrics, trace_summary(tracer, own, latencies)


def trace_summary(tracer, own, latencies) -> list:
    """Per-layer self time per operation, and what tracing itself cost.

    The median operation's column sums to its traced latency, which is the
    traced latency_p50_ms; the mean column sums to the mean latency.
    """
    per_op, total = {}, {}
    for s in tracer.spans:
        if s.op is not None:
            layers = per_op.setdefault(s.op, {})
            layers[s.name] = layers.get(s.name, 0.0) + own[s.id]
            if s.parent is None or tracer.spans[s.parent].op != s.op:
                total[s.op] = s.end - s.start
    median_op = sorted(total, key=total.get)[(len(total) - 1) // 2]
    names = sorted({n for layers in per_op.values() for n in layers})
    lines = [f"trace: {len(tracer.spans)} spans over {len(per_op)} operations; "
             f"self time in ms: median operation (op {median_op}), mean per operation"]
    for name in names:
        mean = sum(layers.get(name, 0.0) for layers in per_op.values()) / len(per_op)
        lines.append(f"  {name:30s} {1000 * per_op[median_op].get(name, 0.0):10.3f} "
                     f"{1000 * mean:10.3f}")
    lines.append(f"  {'sum':30s} {1000 * sum(per_op[median_op].values()):10.3f} "
                 f"{1000 * sum(total.values()) / len(total):10.3f}")
    untraced, traced = median_ms(latencies["untraced"]), median_ms(latencies["traced"])
    lines.append(f"traced latency_p50_ms {traced:.3f}, untraced {untraced:.3f}: "
                 f"tracing overhead {traced - untraced:.3f} ms "
                 f"({100.0 * (traced - untraced) / untraced:.2f}%)")
    return lines


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        start = time.perf_counter()
        cb = program.import_curvebench()
        import_s = time.perf_counter() - start
        reference = program.load_reference(args.workload)
    except (ImportError, OSError) as exc:
        print(f"bench: cannot start: {exc}", file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        passes = setup(cb, args.workload, args.seed)
        setups.append(time.perf_counter() - t)

    checker = Checker(reference)
    if args.trace:
        tracer, counts, latencies = trace(cb, checker, args.workload,
                                          passes, args.seconds)
        metrics, notes = layer_metrics(tracer, counts, latencies)
        path = program.work_dir() / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.as_json()))
        notes.append(f"spans written to {path}")
    else:
        metrics, note = measure(cb, checker, args.workload, passes, args.seconds)
        imports = import_seconds(import_s)
        metrics["setup_s"] = (statistics.median(imports) + statistics.median(setups), "s")
        notes = [note, "setup: imports " + ", ".join(f"{s:.3f}" for s in imports)
                 + " s; inputs " + ", ".join(f"{s:.3f}" for s in setups) + " s"]

    failed = len(checker.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    for key, value in program.provenance().items():
        print(f"  {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / max(checker.attempted, 1):.6g} "
          f"({failed} of {checker.attempted} operations)")
    for line in notes + checker.failures[:20]:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

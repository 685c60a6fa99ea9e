"""ncalg benchmark: one closed-loop client, one thread, three workloads.

    python3 perfbench/run.py --workload {cli_session,solve_exact,newton_float}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (the program is imported from ./src).  The
last line of standard output is one JSON object with keys `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 is the judged run.  It generates a fixed list of
round(nominal rate * S) ops (at least 100) from the seed, times the import
plus set-up in fresh interpreters, runs every op once in a timed closed loop,
then checks every output against the oracle and reports ops_per_s,
latency_p50_ms, latency_p90_ms, setup_s and peak_rss_mb.

--trace 1 is the separate per-layer run; it does the same work whatever
--workload names.  For every workload it runs a shorter op list, each op
untraced and traced (spans around ncalg's public functions), reports self
times, calls, counts and the tracing overhead, and then measures the algebra
ladder (see ladder.py).  Spans and the full
breakdown are written to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_OPS = 100          # p90 then has at least 10 samples beyond it
TRACE_SHARE = 0.2      # traced-run op count, as a share of the judged run's
MIN_TRACE_OPS = 20

SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import {module}
t1 = time.perf_counter()
import workloads
w = workloads.WORKLOADS[{name!r}]
constants = workloads.constants_for(w)
t2 = time.perf_counter()
w.setup(constants)
t3 = time.perf_counter()
print(repr((t1 - t0) + (t3 - t2)))
"""


def op_count(workload, seconds, share=1.0, floor=MIN_OPS):
    return max(floor, round(workload.nominal_ops_per_s * seconds * share))


def fresh_setup_seconds(workload):
    """Median over fresh interpreters of import + set-up (constants excluded)."""
    module = "ncalg.cli" if workload.name == "cli_session" else "ncalg"
    code = SETUP_CHILD.format(src=SRC, bench=BENCH_DIR, module=module,
                              name=workload.name)
    samples = []
    for _ in range(workload.setup_reps):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120, cwd=ROOT)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_op(call):
    try:
        return call()
    except Exception as exc:  # an op that raises counts as failed
        return exc


def timed_loop(calls):
    """Run every call once; returns (results, latencies in ns, wall ns)."""
    results, latencies = [], []
    gc.collect()
    clock = time.perf_counter_ns
    start = clock()
    for call in calls:
        t0 = clock()
        results.append(run_op(call))
        latencies.append(clock() - t0)
    return results, latencies, clock() - start


def check_all(workload, ops, results):
    import oracle
    from workloads import ref_algebra
    refs = {name: ref_algebra(name) for name in workload.algebras}
    verdicts = [workload.check(op, r, refs) for op, r in zip(ops, results)]
    ok = verdicts.count(oracle.OK)
    return {"correct": oracle.WRONG not in verdicts, "attempted": len(ops),
            "failed": len(ops) - ok, "ok": ok}


def metric(value, unit):
    return {"value": value, "unit": unit}


def judged_run(workload, seed, count):
    from workloads import constants_for
    ops = workload.generate(seed, count, WORK)
    setup_s = fresh_setup_seconds(workload)
    ctx = workload.setup(constants_for(workload))
    calls = [workload.prepare(op, ctx) for op in ops]
    results, latencies, wall = timed_loop(calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checked = check_all(workload, ops, results)
    lat_ms = [v / 1e6 for v in latencies]
    print(f"{workload.name} seed={seed}: {len(ops)} ops timed (latency samples), "
          f"{checked['failed']} failed, wall {wall / 1e9:.2f} s", flush=True)
    if workload.name == "solve_exact":
        print(f"solve_exact seed={seed}: richardson fell back to the field answer "
              f"(PivotNotInvertible) on {workload.fallbacks(results)} of "
              f"{len(ops)} ops", flush=True)
    return {
        "correct": checked["correct"], "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {
            "ops_per_s": metric(checked["ok"] / (wall / 1e9), "1/s"),
            "latency_p50_ms": metric(statistics.median(lat_ms), "ms"),
            "latency_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


# -- traced run ------------------------------------------------------------------


def traced_workload(workload, seed, count):
    """One op list, each op untraced and traced; returns (metrics, detail,
    spans, checked)."""
    from tracing import HARNESS, Tracer
    from workloads import constants_for

    ops = workload.generate(seed, count, WORK)
    constants = constants_for(workload)

    setup_tracer = Tracer()
    setup_tracer.enable()
    try:
        ctx = setup_tracer.op("setup", lambda: workload.setup(constants))
    finally:
        setup_tracer.disable()
    calls = [workload.prepare(op, ctx) for op in ops]

    # each op runs untraced and traced back to back, in alternating order, so
    # that machine-speed drift and warm caches cancel out of the overhead
    tracer = Tracer()
    results, untraced_wall, traced_wall = [], 0, 0
    clock = time.perf_counter_ns
    gc.collect()
    try:
        for op_id, call in enumerate(calls):
            for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
                if traced:
                    tracer.enable()
                t0 = clock()
                result = run_op(lambda: tracer.op(op_id, call) if traced else call())
                t1 = clock()
                tracer.disable()
                if traced:
                    results.append(result)
                    traced_wall += t1 - t0
                else:
                    untraced_wall += t1 - t0
    finally:
        tracer.disable()
    checked = check_all(workload, ops, results)

    n = len(ops)
    self_ns, calls_per_name = tracer.self_times()
    counts, maxima = tracer.counts, tracer.maxima
    detail = {
        "ops": n,
        "untraced_wall_s": untraced_wall / 1e9,
        "traced_wall_s": traced_wall / 1e9,
        "self_ms_per_op": {k: v / 1e6 / n for k, v in sorted(self_ns.items())},
        "calls_per_op": {k: v / n for k, v in sorted(calls_per_name.items())},
        "counts": dict(sorted(counts.items())),
        "maxima": dict(sorted(maxima.items())),
    }
    setup_self, setup_calls = setup_tracer.self_times()
    detail["setup_self_ms"] = {k: v / 1e6 for k, v in sorted(setup_self.items())}
    detail["setup_calls"] = dict(sorted(setup_calls.items()))

    def self_ms(name):
        return self_ns.get(name, 0) / 1e6 / n

    def per_op(name):
        return calls_per_name.get(name, 0) / n

    out = {
        "trace.ops": (n, "count"),
        "trace.overhead_share": (traced_wall / untraced_wall - 1, "share"),
        "trace.accounted_share":
            ((sum(self_ns.values()) - self_ns.get(HARNESS, 0)) / traced_wall, "share"),
        "harness.self_ms": (self_ms(HARNESS), "ms"),
        "algebra.mul.calls": (counts["algebra.mul.calls"] / n, "count"),
        "algebra.inverse.calls": (per_op("algebra.inverse"), "count"),
    }
    if workload.name == "cli_session":
        solves = {k for k, op in enumerate(ops) if op["kind"] == "solve"}
        ran = tracer.ops_that_ran("solvers.solve_richardson") & solves
        out.update({
            "cli.run.self_ms": (self_ms("cli.run"), "ms"),
            "parser.parse.self_ms": (self_ms("parser.parse"), "ms"),
            "parser.normalize.self_ms": (self_ms("parser.normalize"), "ms"),
            "parser.format_element.self_ms": (self_ms("parser.format_element"), "ms"),
            "algebra.build.self_ms": (self_ms("algebra.build"), "ms"),
            "algebra.build.calls": (per_op("algebra.build"), "count"),
            "algebra.pair_products.self_ms": (self_ms("algebra.pair_products"), "ms"),
            "solvers.crosscheck_share": (len(ran) / max(1, len(solves)), "share"),
            "solvers.crosscheck_base": (len(solves), "count"),
        })
    elif workload.name == "solve_exact":
        candidates = counts["solvers.richardson_candidates"]
        out.update({
            "setup.algebra.build.self_ms": (setup_self.get("algebra.build", 0) / 1e6, "ms"),
            "setup.algebra.build.calls": (setup_calls.get("algebra.build", 0), "count"),
            "setup.algebra.pair_products.self_ms":
                (setup_self.get("algebra.pair_products", 0) / 1e6, "ms"),
            "tensor.operator_matrix.self_ms": (self_ms("tensor.operator_matrix"), "ms"),
            "linalg.row_reduce.self_ms": (self_ms("linalg.row_reduce"), "ms"),
            "linalg.row_reduce.calls": (per_op("linalg.row_reduce"), "count"),
            "linalg.row_reduce.cells": (counts["linalg.row_reduce.cells"] / n, "count"),
            "linalg.denominator_bits_max":
                (maxima["linalg.denominator_bits_max"], "bits"),
            "solvers.solve_field.self_ms": (self_ms("solvers.solve_field"), "ms"),
            "solvers.build_richardson.self_ms": (self_ms("solvers.build_richardson"), "ms"),
            "solvers.nc_row_reduce.self_ms": (self_ms("solvers.nc_row_reduce"), "ms"),
            "solvers.nc_row_reduce.cells":
                (counts["solvers.nc_row_reduce.cells"] / n, "count"),
            "solvers.verify.self_ms": (self_ms("solvers.verify"), "ms"),
            "solvers.richardson_verified_share":
                (counts["solvers.richardson_verified"] / max(1, candidates), "share"),
            "solvers.richardson_candidates": (candidates, "count"),
            "solvers.richardson_fallback_share": (workload.fallbacks(results) / n, "share"),
            "solvers.richardson_fallbacks": (workload.fallbacks(results), "count"),
        })
    else:
        attempted = counts["newton.attempted"]
        out.update({
            "tensor.invert.self_ms": (self_ms("tensor.invert"), "ms"),
            "tensor.invert.calls": (per_op("tensor.invert"), "count"),
            "tensor.compose.self_ms": (self_ms("tensor.compose"), "ms"),
            "tensor.apply.self_ms": (self_ms("tensor.apply"), "ms"),
            "linalg.row_reduce.self_ms": (self_ms("linalg.row_reduce"), "ms"),
            "linalg.row_reduce.calls": (per_op("linalg.row_reduce"), "count"),
            "linalg.row_reduce.cells": (counts["linalg.row_reduce.cells"] / n, "count"),
            "newton.iterations": (counts["newton.iterations"] / max(1, attempted), "count"),
            "newton.converged_share":
                (counts["newton.converged"] / max(1, attempted), "share"),
            "newton.attempted": (attempted, "count"),
            "newton.evaluate.self_ms": (self_ms("newton.evaluate"), "ms"),
            "newton.derivative_at.self_ms": (self_ms("newton.derivative_at"), "ms"),
        })
    metrics = {f"{workload.name}.{k}": metric(v, u) for k, (v, u) in out.items()}
    spans = [s + [workload.name] for s in setup_tracer.spans + tracer.spans]
    return metrics, detail, spans, checked


def traced_run(seed, counts, only=None, ladder_algebras=None):
    """Every workload (with counts[name] ops) traced, then the ladder."""
    import ladder
    from workloads import WORKLOADS

    metrics, details, spans = {}, {}, []
    correct, attempted, failed = True, 0, 0
    for name, workload in WORKLOADS.items():
        m, detail, s, checked = traced_workload(workload, seed, counts[name])
        metrics.update(m)
        details[name] = detail
        spans.extend(s)
        correct &= checked["correct"]
        attempted += checked["attempted"]
        failed += checked["failed"]
        print(f"traced {name}: {detail['ops']} ops, overhead "
              f"{m[name + '.trace.overhead_share']['value']:.2f}", flush=True)
    ladder_rows = ladder.measure(ladder_algebras or ladder.ALGEBRAS)
    metrics.update({k: metric(v, u) for k, (v, u) in ladder_rows.items()})
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"trace-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workloads": details, "metrics": metrics}, fh, indent=1)
    with open(os.path.join(WORK, f"spans-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id",
                              "error", "workload"], "spans": spans}, fh)
    if only is not None:
        metrics = {k: v for k, v in metrics.items() if k in only}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ncalg", "__init__.py")):
        print(f"error: no ncalg sources under {SRC}", file=sys.stderr)
        return 1
    sys.path[:0] = [SRC, BENCH_DIR]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 1
    if args.trace:
        counts = {name: op_count(w, args.seconds, TRACE_SHARE, MIN_TRACE_OPS)
                  for name, w in WORKLOADS.items()}
        result = traced_run(args.seed, counts, per_layer_names())
    else:
        workload = WORKLOADS[args.workload]
        result = judged_run(workload, args.seed, op_count(workload, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast self-test of the benchmark: tiny op counts, every metric name and unit,
and every oracle path.

    python3 perfbench/smoke.py

Exits 0 and prints "smoke: ok" when every check passes; raises on the first
failure.  Run from the repository root.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import ladder  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tables  # noqa: E402
from workloads import WORKLOADS, constants_for, ref_algebra  # noqa: E402

TINY = {"cli_session": 12, "solve_exact": 12, "newton_float": 12}


def expect(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_judged_runs(bench):
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
           "BENCHMARK.json workloads differ from the benchmark's")
    for name, workload in WORKLOADS.items():
        result = run.judged_run(workload, 1, TINY[name])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result keys")
        expect(result["correct"], f"{name}: oracle refuted an answer")
        expect(result["attempted"] == TINY[name], f"{name}: attempted count")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{name}: end-to-end metrics {got} != {want}")
        expect(all(v["value"] > 0 for v in result["metrics"].values()),
               f"{name}: a metric reads 0")


def check_traced_run(bench):
    want = {m["name"]: m["unit"] for m in bench["per_layer"]}
    result = run.traced_run(1, TINY, set(want), ladder_algebras=("H", "complex"))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    skipped = {k for k in want if k.startswith("ladder.")
               and k.split(".")[1] not in ("H", "complex")}
    expect(set(got) == set(want) - skipped,
           f"per-layer names: missing {set(want) - skipped - set(got)}")
    expect(all(got[k] == want[k] for k in got), "per-layer units")
    expect(all(k.split(".")[1] in ladder.ALGEBRAS for k in skipped),
           "ladder metric for an algebra the ladder does not cover")
    for name in WORKLOADS:
        # the layer spans, without the harness's own span, must carry the op
        # time; an unwrapped top-level call (cli.run, newton_solve) drops
        # this to about 0.91 and 0.98
        share = result["metrics"][f"{name}.trace.accounted_share"]["value"]
        expect(0.99 < share < 1.0, f"{name}: layer self times account for {share}")


def check_oracle_paths():
    """Tampered answers must be caught: WRONG for a refuted answer, FAILED
    for no answer."""
    import ncalg

    # library solve: correct, wrong x, wrong verdict, exception
    w = WORKLOADS["solve_exact"]
    ctx = w.setup(constants_for(w))
    refs = {n: ref_algebra(n) for n in w.algebras}
    op = next(o for o in w.generate(7, 40, run.WORK) if o["alg"] == "H")
    field, rich = w.prepare(op, ctx)()
    expect(w.check(op, (field, rich), refs) == oracle.OK, "library solve ok path")
    if field.x is not None:
        bumped = ncalg.AlgebraSolution(field.kind, [x + x.algebra.one() for x in field.x],
                                       field.nullspace, field.free_names, None)
        expect(w.check(op, (bumped, rich), refs) == oracle.WRONG, "wrong x not caught")
    flipped = ncalg.AlgebraSolution("inconsistent" if field.kind != "inconsistent"
                                    else "unique", None, [], [], None)
    expect(w.check(op, (flipped, rich), refs) == oracle.WRONG, "wrong verdict not caught")
    expect(w.check(op, RuntimeError("x"), refs) == oracle.FAILED, "exception path")
    # PivotNotInvertible: failed on H, the field answer elsewhere
    expect(w.check(op, (field, None), refs) == oracle.FAILED, "H fallback not failed")
    op = next(o for o in w.generate(7, 40, run.WORK) if o["alg"] == "Cl11")
    field, _rich = w.prepare(op, ctx)()
    expect(w.check(op, (field, None), refs) == oracle.OK, "fallback path")
    expect(w.fallbacks([(field, None), (field, _rich), RuntimeError("x")]) == 1,
           "fallback count")

    # Newton: converged, stopped early, claimed convergence at a wrong point
    w = WORKLOADS["newton_float"]
    ctx = w.setup(constants_for(w))
    refs = {n: ref_algebra(n) for n in w.algebras}
    op = w.generate(7, 10, run.WORK)[0]
    trace = w.prepare(op, ctx)()
    expect(w.check(op, trace, refs) == oracle.OK, "newton ok path")
    stopped = ncalg.NewtonTrace(list(trace.iterates), "singular_derivative")
    expect(w.check(op, stopped, refs) == oracle.FAILED, "newton stop path")
    x, r, norm = trace.iterates[-1]
    lying = ncalg.NewtonTrace(list(trace.iterates) + [(x + x.algebra.one(), r, norm)],
                              "converged")
    expect(w.check(op, lying, refs) == oracle.WRONG, "false convergence not caught")

    # CLI: every command's ok path, then tampered payloads
    w = WORKLOADS["cli_session"]
    refs = {n: ref_algebra(n) for n in w.algebras}
    ops = w.generate(7, 40, run.WORK)
    seen = set()
    for op in ops:
        code, out = w.prepare(op, {})()
        expect(w.check(op, (code, out), refs) == oracle.OK, f"cli {op['kind']} ok path")
        seen.add(op["kind"])
        payload = json.loads(out)
        if op["kind"] == "solve" and payload["status"] == "disagreement":
            seen.add("disagreement")
            payload["richardson"]["status"] = "unique"
            tampered = (code, json.dumps(payload))
            expect(w.check(op, tampered, refs) == oracle.WRONG,
                   "disagreement without an unverified candidate not caught")
        elif op["kind"] in ("solve", "check", "invert"):
            payload["status"] = {"unique": "inconsistent", "inconsistent": "unique",
                                 "parametric": "unique", "ok": "nonzero",
                                 "nonzero": "ok", "singular": "ok"}[payload["status"]]
            expect(w.check(op, (code, json.dumps(payload)), refs) == oracle.WRONG,
                   f"cli {op['kind']} wrong status not caught")
        expect(w.check(op, (code, "{not json"), refs) == oracle.WRONG,
               "malformed output not caught")
        expect(w.check(op, (2, ""), refs) == oracle.FAILED, "usage error path")
    expect(seen >= {"solve", "check", "invert", "newton", "disagreement"},
           f"cli oracle paths not all exercised: {seen}")


def main():
    expect(tables.check_tables(), "algebra tables")
    bench = spec()
    check_oracle_paths()
    check_judged_runs(bench)
    check_traced_run(bench)
    print("smoke: ok")


if __name__ == "__main__":
    main()

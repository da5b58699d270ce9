#!/usr/bin/env python3
"""One benchmark process: set up, run one workload in a closed loop, report.

Started by run.py, never by hand.  It imports dualpg from the checkout's
``src/``, runs the workload's warm-up pass, and reports the set-up time
measured from its own spawn (``--t0``, a time.monotonic() reading taken by
the parent just before starting it).  With ``--setup-only`` it stops there;
otherwise it runs whole passes of the workload until ``--seconds`` have
elapsed and prints one JSON object as its last line.

With ``--trace 1`` every pass runs untraced and then traced (the difference
in ops/s is the tracing overhead), and a short fixed probe then covers
every per-layer metric the workload itself does not reach.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
TAIL_BEYOND = 10  # the tail is the slowest op that still has 10 slower ones
SMALL_CALLS = 200  # calls per timed batch for the n <= 38 band kernels
RULE_LOOKUPS = 1000
RULE_COUNT = 80  # nodes the paper_tables projections stop at


def import_dualpg():
    sys.path.insert(0, str(SRC))
    import dualpg

    where = Path(dualpg.__file__).resolve().parent
    if where != (SRC / "dualpg").resolve():
        raise SystemExit(f"dualpg was imported from {where}, not from {SRC}")
    return dualpg


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the slowest op with 10 slower ones."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    beyond = len(ordered) - 1 - idx
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), beyond


def build_rules_cold(tracer) -> None:
    from dualpg.jacobi import JacobiParams, gauss_jacobi_rule

    with tracer.span("jacobi.rule_cold", count=RULE_COUNT):
        for params in (JacobiParams(1.0, 2.0), JacobiParams(2.0, 3.0)):
            gauss_jacobi_rule(params, RULE_COUNT)


def probe(tracer, workloads, seen: set[tuple[str, int | None]]) -> None:
    """Fixed calls for the per-layer metrics the traced passes left empty."""
    import numpy as np
    from dualpg.assembly import operator_matrix
    from dualpg.banded import lu_factor_banded
    from dualpg.jacobi import JacobiParams, gauss_jacobi_rule

    with tracer.span("jacobi.rule_lookup", calls=RULE_LOOKUPS):
        for _ in range(RULE_LOOKUPS):
            gauss_jacobi_rule(JacobiParams(1.0, 2.0), RULE_COUNT)

    if ("assembly.rhs_projection", 24) not in seen:
        paper = workloads.PaperTables(0)
        for (fid, j, m), family in paper.families.items():
            for c in (0.0, 1.0):
                coeffs = (c,) * (3 if family.order == 3 else 5)
                workloads.PaperInput(fid, j, m, coeffs, family).run_traced(tracer)

    if ("assembly.operator_matrix", 4096) not in seen:
        rng = np.random.default_rng(0)
        for order in (3, 5):
            for N, _ in workloads.BAND_MIX:
                workloads.BandLargeN.make_input(rng, order, N).run_traced(tracer)

    for order in (3, 5):
        matrix = operator_matrix(order, (1.0,) * order, workloads.COND_N[-1])
        factored = lu_factor_banded(matrix)
        v = np.linspace(1.0, 2.0, matrix.n)
        for call, fn in (("solve", factored.solve),
                         ("solve_transpose", factored.solve_transpose),
                         ("matvec", matrix.matvec)):
            with tracer.span(f"banded.{call}.small", calls=SMALL_CALLS, n=matrix.n):
                for _ in range(SMALL_CALLS):
                    fn(v)

    if not any(name == "analysis.condition_full" for name, _ in seen):
        for order in (3, 5):
            for N in workloads.COND_N:
                workloads.CondInput(order, N, (1.0,) * order).run_traced(tracer)

    # the known-defect inputs no workload draws; a failure is recorded on
    # the span and counted in analysis.condition_full.failed
    for order, N, coeffs in workloads.COND_OUTSIDE:
        try:
            with tracer.span("analysis.condition_full.outside", N=N, order=order):
                workloads.condition_full(order, N, coeffs)
        except Exception:  # the span keeps the exception type
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_dualpg()
    import numpy as np

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        # first jacobi call of a fresh process: the cold rule build
        build_rules_cold(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    for inp in workload.warmup():
        inp.run()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    digest = hashlib.sha256()
    latencies = {False: [], True: []}  # traced? -> op seconds
    by_label: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    reproducers: list[str] = []
    attempted = raised = wrong = passes = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        inputs = workload.make_pass(passes)
        for inp in inputs:
            inp.digest_into(digest)
        schedule = [(False, inp) for inp in inputs]
        if tracer is not None:
            # every pass again with spans: the overhead compares identical inputs
            schedule += [(True, inp) for inp in inputs]
        for traced, inp in schedule:
            attempted += 1
            result, problem = None, None
            if traced:
                tracer.op = attempted
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.span("op", label=inp.label):
                        result = inp.run_traced(tracer)
                else:
                    result = inp.run()
            except Exception as exc:  # a failed op is counted, never fatal
                problem = f"{type(exc).__name__}: {exc}"
                raised += 1
            seconds = time.perf_counter() - start
            if traced:
                tracer.op = None
            if problem is None:
                problem = inp.check(result)
                if problem is not None:
                    wrong += 1
            latencies[traced].append(seconds)
            by_label.setdefault(inp.label, []).append(seconds)
            if problem is not None:
                kind = "check" if result is not None else problem.split(":")[0]
                failures[kind] = failures.get(kind, 0) + 1
                if len(reproducers) < 5:
                    reproducers.append(f"{inp.describe()}: {problem}")
        passes += 1
        if time.perf_counter() >= deadline:
            break

    plain = latencies[False]
    every = plain + latencies[True]
    value, pct, beyond = tail(every)
    report = {
        "attempted": attempted,
        "failed": raised + wrong,
        "raised": raised,
        "wrong": wrong,
        "failure_kinds": failures,
        "reproducers": reproducers,
        "passes": passes,
        "inputs_digest": digest.hexdigest(),
        "numpy": np.__version__,
        "setup_s": setup_s,
        "ops_per_s": len(every) / sum(every),
        "op_ms_p50": statistics.median(every) * 1e3,
        "op_ms_tail": value * 1e3,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(every),
        "ok_frac": 1.0 - (raised + wrong) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "by_label_ms": {k: {"count": len(v), "median": statistics.median(v) * 1e3}
                        for k, v in sorted(by_label.items())},
    }

    if tracer is not None:
        seen = {(s.name, s.attrs.get("N")) for s in tracer.spans if s.op is not None}
        probe(tracer, workloads, seen)
        layers = tracing.layer_metrics(tracer.spans)
        self_by_name, op_total, op_self = tracing.self_time(tracer.spans)
        traced_rate = len(latencies[True]) / sum(latencies[True])
        plain_rate = len(plain) / sum(plain)
        layers["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "fraction")
        layers["trace.op_self_us"] = (statistics.median(op_self) * 1e6, "us")
        layers["trace.self_frac"] = (sum(op_self) / sum(op_total), "fraction")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        total = sum(op_total)
        report["op_time_breakdown"] = {
            "op_seconds": total,
            "self_seconds_by_layer": self_by_name,
            "op_self_seconds": sum(op_self),
            "accounted_frac": (sum(self_by_name.values()) + sum(op_self)) / total,
        }
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))

    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

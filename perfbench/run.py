#!/usr/bin/env python3
"""dualpg benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads (see NOTES.md for why each is
here): paper_tables, band_large_n, conditioning.  Each run starts fresh
processes: with ``--trace 0`` a few set-up-only processes (set-up time is
their median together with the measuring process's own) and then one
process that measures the workload in a closed loop, a single client
thread, for ``--seconds``.  With ``--trace 1`` the measuring process also
records spans and the run prints the per-layer metrics instead.

Lines before the last are provenance and details; the last line is
{"correct", "attempted", "failed", "metrics"}.  The full report, with the
digest of the generated inputs, goes to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("paper_tables", "band_large_n", "conditioning")
SETUP_SAMPLES = 3  # fresh processes timed through set-up, the measuring one included
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170  # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("ok_frac", "fraction"), ("peak_rss_mb", "MB"))


def git_sha(root: Path) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


def start_worker(args, extra: list[str], timeout: float) -> dict:
    """Run one worker process to completion and return its last-line JSON."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(time.monotonic())] + extra
    # subprocess.run kills and reaps the worker if it overruns its timeout
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (ROOT / "src" / "dualpg" / "__init__.py").is_file():
        print(f"error: no dualpg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance()

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(start_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
    left = RUN_TIMEOUT_S - (time.monotonic() - began)
    report = start_worker(args, [], left)
    setup.append(report["setup_s"])
    prov["numpy"] = report["numpy"]
    print(json.dumps({"provenance": prov}))
    report["setup_samples_s"] = setup
    report["setup_s"] = statistics.median(setup)

    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": report["passes"],
        "inputs_digest": report["inputs_digest"],
        "op_ms_tail": f"p{report['tail_percentile']:.2f} of {report['samples']} ops, "
                      f"{report['tail_beyond']} slower",
        "failures": report["failure_kinds"], "reproducers": report["reproducers"],
    }))
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    with open(out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as f:
        json.dump({"provenance": prov, "report": report}, f, indent=1)
    print(json.dumps({
        "correct": report["wrong"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Condition reports of D1 and D2 across truncations, with their wall time.

For orders 3 and 5 with all-ones coefficients, prints cond, sigma_max and
eig_max of `condition_full` at each truncation N, the median wall time
of REPEATS calls in this process (the first call of a process also
compiles the band kernels it needs) and the operator applications of the
report's four Krylov runs (sigma_max, sigma_min, eig_max, eig_min), counted
in one more, untimed call.
"""
from __future__ import annotations

import argparse
import statistics
import time

from dualpg import analysis
from dualpg.analysis import condition_full
from dualpg.orders import SPECS

REPEATS = 3  # timed calls per row


def run_lengths(order: int, N: int, coeffs) -> list[int]:
    """Operator applications of each Krylov run of one report, in run order."""
    lengths = []
    krylov = analysis._dominant_eigenvalue

    def counted(apply_op, start, symmetric=False):
        lengths.append(0)

        def op(v):
            lengths[-1] += 1
            return apply_op(v)

        return krylov(op, start, symmetric)

    analysis._dominant_eigenvalue = counted
    try:
        condition_full(order, N, coeffs)
    finally:
        analysis._dominant_eigenvalue = krylov
    return lengths


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[24, 256, 1024, 4096, 16384],
        help="truncations N to report",
    )
    args = parser.parse_args(argv)

    print(f"{'order':>5} {'N':>6} {'cond':>13} {'sigma_max':>13} {'eig_max':>13} "
          f"{'ms':>9}  runs")
    for order, spec in SPECS.items():
        coeffs = (1.0,) * spec.n_coefficients
        for N in args.sizes:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                rep = condition_full(order, N, coeffs)
                times.append(time.perf_counter() - start)
            print(f"{order:>5} {N:>6} {rep.cond:>13.6e} {rep.sigma_max:>13.6e} "
                  f"{rep.eig_max:>13.6e} {statistics.median(times) * 1e3:>9.1f}  "
                  + "/".join(map(str, run_lengths(order, N, coeffs))))


if __name__ == "__main__":
    main()

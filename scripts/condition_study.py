#!/usr/bin/env python3
"""Condition reports of D1 and D2 across truncations, with their wall time.

For orders 3 and 5 with all-ones coefficients, prints cond, sigma_max and
eig_max of `condition_full` at each truncation N and the median wall time
of REPEATS calls in this process (the first call of a process also
compiles the band kernels it needs).
"""
from __future__ import annotations

import argparse
import statistics
import time

from dualpg.analysis import condition_full
from dualpg.orders import SPECS

REPEATS = 3  # timed calls per row


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[24, 256, 1024, 4096, 16384],
        help="truncations N to report",
    )
    args = parser.parse_args(argv)

    print(f"{'order':>5} {'N':>6} {'cond':>13} {'sigma_max':>13} {'eig_max':>13} "
          f"{'ms':>9}")
    for order, spec in SPECS.items():
        coeffs = (1.0,) * spec.n_coefficients
        for N in args.sizes:
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                rep = condition_full(order, N, coeffs)
                times.append(time.perf_counter() - start)
            print(f"{order:>5} {N:>6} {rep.cond:>13.6e} {rep.sigma_max:>13.6e} "
                  f"{rep.eig_max:>13.6e} {statistics.median(times) * 1e3:>9.1f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Band LU operation counts against the linear-cost constants.

Factors D1 (bandwidth 3) and D2 (bandwidth 5) with all-ones coefficients
across a range of truncations and reports counted totals next to the
21(N-2) / 13(N-2) and 55(N-4) / 21(N-4) ceilings, read from the
verification suite's per-order checks (`dualpg.verify.CHECKS`).
"""
from __future__ import annotations

import argparse

import numpy as np

from dualpg.assembly import operator_matrix
from dualpg.banded import lu_factor_banded
from dualpg.orders import order_spec
from dualpg.verify import CHECKS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[16, 32, 64, 128],
        help="truncations N to factor",
    )
    args = parser.parse_args()

    print(f"{'order':>5} {'N':>5} {'n':>5} {'factor':>8} {'ceiling':>8} "
          f"{'solve':>7} {'ceiling':>8} {'factor/n':>9}")
    for order, checks in CHECKS.items():
        cf, cs = checks.ceilings
        coeffs = (1.0,) * order_spec(order).n_coefficients
        for N in args.sizes:
            matrix = operator_matrix(order, coeffs, N)
            fac = lu_factor_banded(matrix)
            _, solve_ops = fac.solve(np.ones(matrix.n))
            print(
                f"{order:>5} {N:>5} {matrix.n:>5} {fac.ops.total:>8} "
                f"{cf * matrix.n:>8} {solve_ops.total:>7} {cs * matrix.n:>8} "
                f"{fac.ops.total / matrix.n:>9.2f}"
            )


if __name__ == "__main__":
    main()

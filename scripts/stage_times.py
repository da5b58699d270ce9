#!/usr/bin/env python3
"""Median wall time of each stage of a manufactured-solution solve.

For order 3 (family 1, j = 1, m = 1) and order 5 (family 2, m = 1), both
with all-ones operator coefficients, prints per truncation N in SIZES the
median of REPEATS timed calls in this process, in microseconds, of:

  problem   building the family's problem record, right-hand side included
  rhs       sampling the right-hand side at every node array the projection
            samples (the arrays are recorded in one untimed projection)
  project   `rhs_projection`, the sampling included
  assemble  `operator_matrix`
  lu        `lu_factor_banded`
  solve     `BandedLU.solve`
  eval21    `evaluate_solution` at 21 uniform points, as the CLI prints
  eval1001  `evaluate_solution` at the 1001 points of `max_pointwise_error`
  cond      `condition_full`

One untimed pass runs first, so the band kernels are compiled before any
timing.  Run with `src/` on PYTHONPATH:

    PYTHONPATH=src python3 scripts/stage_times.py
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from dualpg.analysis import SpectralSolution, condition_full, evaluate_solution
from dualpg.assembly import boundary_lift, operator_matrix, rhs_projection
from dualpg.banded import lu_factor_banded
from dualpg.families import make_family

SIZES = (24, 256, 4096, 16384)  # truncations N
REPEATS = 7  # timed calls per stage and N
CASES = {3: (1, {"j": 1, "m": 1}), 5: (2, {"m": 1.0})}  # order: family, parameters
STAGES = ("problem", "rhs", "project", "assemble", "lu", "solve",
          "eval21", "eval1001", "cond")


def stage_calls(order: int, N: int) -> dict:
    """One zero-argument callable per stage, on inputs prepared untimed."""
    family_id, params = CASES[order]
    family = make_family(family_id, **params)
    coeffs = (1.0,) * order
    problem = family.problem(coeffs)
    sampled = []

    def recording(x):
        sampled.append(np.array(x))
        return problem.rhs(x)

    fstar = rhs_projection(order, recording, N)
    matrix = operator_matrix(order, coeffs, N)
    factored = lu_factor_banded(matrix)
    a, _ = factored.solve(fstar)
    solution = SpectralSolution(order, N, a, boundary_lift(problem.bc))
    x21, x1001 = np.linspace(-1.0, 1.0, 21), np.linspace(-1.0, 1.0, 1001)
    return {
        "problem": lambda: family.problem(coeffs),
        "rhs": lambda: [problem.rhs(x) for x in sampled],
        "project": lambda: rhs_projection(order, problem.rhs, N),
        "assemble": lambda: operator_matrix(order, coeffs, N),
        "lu": lambda: lu_factor_banded(matrix),
        "solve": lambda: factored.solve(fstar),
        "eval21": lambda: evaluate_solution(solution, x21),
        "eval1001": lambda: evaluate_solution(solution, x1001),
        "cond": lambda: condition_full(order, N, coeffs),
    }


def median_us(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def main() -> None:
    print(f"{'order':>5} {'N':>6} " + " ".join(f"{s:>9}" for s in STAGES) + "  (us)")
    for order in CASES:
        for N in SIZES:
            calls = stage_calls(order, N)
            for call in calls.values():  # compile kernels, warm caches
                call()
            row = [median_us(calls[s], REPEATS) for s in STAGES]
            print(f"{order:>5} {N:>6} " + " ".join(f"{t:>9.1f}" for t in row), flush=True)


if __name__ == "__main__":
    main()

"""Condition numbers, solve drivers, solution evaluation, error measurement.

One route serves both orders: `solve(problem, N)` assembles and solves the
problem's system, with every order-dependent quantity taken from its
`OrderSpec`; `solve_third` and `solve_fifth` are aliases of it.

Conditioning of the diagonal blocks B1/B2 follows directly from their
entries.  For the full matrices D1/D2 the tabulated reference values are
2-norm condition numbers, so cond is the singular-value ratio, computed by
power iteration on D^T D (largest) and inverse power iteration through the
band LU of D (smallest; transpose solves reuse the same factors).  The
extreme eigenvalues of D itself are also computed, since the method's
positivity claim is about them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    BandSystem,
    LiftPolynomial,
    assemble,
    boundary_lift,
    operator_matrix,
)
from .banded import BandedLU, BandedMatrix, lu_factor_banded, solve_diagonal
from .jacobi import ConvergenceError, eval_R_table
from .orders import order_spec

__all__ = [
    "SpectralSolution",
    "ConditionReport",
    "solve",
    "solve_system",
    "solve_third",
    "solve_fifth",
    "evaluate_solution",
    "max_pointwise_error",
    "residual_norm",
    "condition_diagonal",
    "condition_full",
    "diagonal_entries",
]

ERROR_GRID_POINTS = 1001
# stop below the documented 1e-10 accuracy: the change-per-iteration
# criterion underestimates the remaining error for slowly converging modes
ITERATION_TOL = 1e-12
ITERATION_MAX = 10_000

@dataclass(frozen=True)
class SpectralSolution:
    """Coefficients a_k of u_N = sum a_k phi_k - lift, tagged with order and N."""

    order: int
    N: int
    coefficients: np.ndarray
    lift: LiftPolynomial

    def __post_init__(self) -> None:
        expect = order_spec(self.order).dimension(self.N)
        if len(self.coefficients) != expect:
            raise ValueError(
                f"order {self.order}, N = {self.N} needs {expect} coefficients, "
                f"got {len(self.coefficients)}"
            )

    def __call__(self, x):
        return evaluate_solution(self, x)


def evaluate_solution(solution: SpectralSolution, x):
    """u_N(x) = sum_k a_k phi_k(x) minus the boundary lift."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    a = np.asarray(solution.coefficients)
    spec = order_spec(solution.order)
    table = eval_R_table(spec.trial_params, max(len(a) - 1, 0), arr)
    weight = np.polynomial.polynomial.polyval(arr, spec.trial_weight)
    vals = weight * (a @ table) - solution.lift(arr)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def max_pointwise_error(solution: SpectralSolution, exact) -> float:
    """max |u_N - exact| over a uniform 1001-point grid on [-1, 1]."""
    grid = np.linspace(-1.0, 1.0, ERROR_GRID_POINTS)
    return float(np.max(np.abs(evaluate_solution(solution, grid) - exact(grid))))


def solve_system(problem, N: int, system: BandSystem) -> SpectralSolution:
    """Solve the assembled system of `problem` at truncation N.

    All operator coefficients zero leaves the diagonal B1 or B2
    (L = D^3 or -D^5), which is solved directly instead of by band LU.
    """
    if all(c == 0.0 for c in problem.coefficients):
        a = solve_diagonal(system.order, system.rhs)
    else:
        a, _ = lu_factor_banded(system.matrix).solve(system.rhs)
    return SpectralSolution(
        order=system.order, N=N, coefficients=a, lift=boundary_lift(problem.bc)
    )


def solve(problem, N: int) -> SpectralSolution:
    """Solve a third- or fifth-order problem at truncation N."""
    return solve_system(problem, N, assemble(problem, N))


solve_third = solve_fifth = solve


@dataclass(frozen=True)
class ConditionReport:
    """Extreme eigenvalues / singular values and the condition number.

    For the diagonal matrices cond = eig_max / eig_min.  For the full
    matrices cond = sigma_max / sigma_min (the 2-norm value the reference
    tables contain) while eig_min/eig_max still carry the extreme
    eigenvalues of D for the positivity claim.
    """

    n_label: int  # 1 for order 3, 2 for order 5
    N: int
    eig_min: float
    eig_max: float
    cond: float
    cond_over_power: float
    sigma_min: float | None = None
    sigma_max: float | None = None


def _report(
    order: int, N: int, eig_min, eig_max, sigma_min, sigma_max, cond
) -> ConditionReport:
    """ConditionReport labelled n = m and scaled by N^(2m) for the order."""
    m = order_spec(order).m
    return ConditionReport(
        n_label=m, N=N, eig_min=eig_min, eig_max=eig_max, cond=cond,
        cond_over_power=cond / N ** (2 * m), sigma_min=sigma_min, sigma_max=sigma_max,
    )


def diagonal_entries(order: int, N: int) -> np.ndarray:
    """Diagonal of B1 (order 3) or B2 (order 5) at truncation N."""
    spec = order_spec(order)
    return spec.diagonal(np.arange(spec.dimension(N)))


def condition_diagonal(order: int, N: int) -> ConditionReport:
    """Condition number of the diagonal block B1 or B2."""
    diag = diagonal_entries(order, N)
    if diag.size == 0:
        raise ValueError(f"N = {N} gives an empty system for order {order}")
    eig_min, eig_max = float(diag[0]), float(diag[-1])
    return _report(order, N, eig_min, eig_max, eig_min, eig_max, eig_max / eig_min)


def _start_vector(n: int) -> np.ndarray:
    # deterministic, no accidental orthogonality to the dominant mode
    v = 1.0 + 0.5 * np.sin(np.arange(1, n + 1, dtype=float))
    return v / np.linalg.norm(v)


def _power_largest(apply_op, n: int, label: str) -> float:
    """Dominant eigenvalue of a linear operator by power iteration."""
    v = _start_vector(n)
    lam = 0.0
    for _ in range(ITERATION_MAX):
        w = apply_op(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise ConvergenceError(f"{label}: operator annihilated the iterate")
        v_new = w / norm
        lam_new = float(v_new @ apply_op(v_new))
        if abs(lam_new - lam) <= ITERATION_TOL * abs(lam_new):
            return lam_new
        lam, v = lam_new, v_new
    raise ConvergenceError(
        f"{label}: power iteration did not converge in {ITERATION_MAX} iterations"
    )


def _gram_apply(matrix: BandedMatrix):
    return lambda v: matrix.rmatvec(matrix.matvec(v))


def _gram_solve(factored: BandedLU):
    def apply(v: np.ndarray) -> np.ndarray:
        y = factored.solve_transpose(v)
        x, _ = factored.solve(y)
        return x

    return apply


def condition_full(order: int, N: int, coefficients=None) -> ConditionReport:
    """Condition report for the full matrix D1 or D2 (default: all-ones).

    sigma extremes come from power / inverse-power iteration on D^T D via
    the band LU; eigenvalue extremes of D from plain power / inverse-power
    iteration, both to 1e-10 relative.
    """
    if coefficients is None:
        coefficients = (1.0,) * order_spec(order).n_coefficients
    matrix = operator_matrix(order, coefficients, N)
    n = matrix.n
    if n == 1:
        only = matrix.get(0, 0)
        return _report(order, N, only, only, abs(only), abs(only), 1.0)
    factored = lu_factor_banded(matrix)
    sigma_max = math.sqrt(_power_largest(_gram_apply(matrix), n, "sigma_max"))
    sigma_min = 1.0 / math.sqrt(_power_largest(_gram_solve(factored), n, "sigma_min"))
    eig_max = _power_largest(matrix.matvec, n, "eig_max")
    eig_min = 1.0 / _power_largest(lambda v: factored.solve(v)[0], n, "eig_min")
    return _report(
        order, N, eig_min, eig_max, sigma_min, sigma_max, sigma_max / sigma_min
    )


def residual_norm(system: BandSystem, coefficients: np.ndarray) -> float:
    """Infinity norm of D a - f* for a computed coefficient vector."""
    return float(np.max(np.abs(system.matrix.matvec(coefficients) - system.rhs)))

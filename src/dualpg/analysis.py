"""Condition numbers, solve drivers, solution evaluation, error measurement.

One route serves both orders: `solve(problem, N)` assembles and solves the
problem's system, with every order-dependent quantity taken from its
`OrderSpec`.

Conditioning of the diagonal blocks B1/B2 follows directly from their
entries.  For the full matrices D1/D2 the tabulated reference values are
2-norm condition numbers, so cond is the singular-value ratio.  Both
singular values and the extreme eigenvalues of D itself (the method's
positivity claim is about them) are dominant eigenvalues of an operator
applied through the band storage and the band LU of D: D^T D, its
inverse (transpose solves reuse the same factors), D and D^-1.  Each comes
from a Krylov method, Lanczos for the two symmetric operators and Arnoldi
with full reorthogonalization for the others, stopped once the Ritz
residual beta_m |y_m| is at most 1e-14 of the Ritz value.  The residual is
checked every 6 steps up to m = 48 and every m // 8 steps after that, so
the O(m^3) eigensolves of the Hessenberg matrix stay a small share of a
large-N report while small reports stop at the same step.  At m = n steps
the Krylov space is the whole space and the Ritz value is exact, so the
iteration ends for every input; a complex dominant pair is no obstacle.
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
from .banded import lu_factor_banded, solve_diagonal
from .jacobi import eval_R_table
from .orders import order_spec

__all__ = [
    "SpectralSolution",
    "ConditionReport",
    "solve",
    "solve_system",
    "evaluate_solution",
    "max_pointwise_error",
    "residual_norm",
    "condition_diagonal",
    "condition_full",
]

ERROR_GRID_POINTS = 1001
# Krylov extremes: Ritz residual tolerance, relative to the Ritz value, and
# the least number of steps between convergence checks (max(6, m // 8)
# after a check at step m)
KRYLOV_TOL = 1e-14
KRYLOV_CHECK = 6

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


@dataclass(frozen=True)
class ConditionReport:
    """Extreme eigenvalues / singular values and the condition number.

    For the diagonal matrices cond = eig_max / eig_min.  For the full
    matrices cond = sigma_max / sigma_min (the 2-norm value the reference
    tables contain) while eig_min/eig_max still carry the extreme
    eigenvalues of D for the positivity claim: eig_max is the real part of
    the eigenvalue of largest modulus and eig_min the real part of the
    eigenvalue of smallest modulus (1 / mu for the dominant mu of D^-1).
    Where those are real, as for the paper's operators, that is the
    eigenvalue itself; where they are a complex pair, it is the pair's
    common real part.
    """

    n_label: int  # 1 for order 3, 2 for order 5
    N: int
    eig_min: float
    eig_max: float
    cond: float
    cond_over_power: float
    sigma_min: float
    sigma_max: float


def _report(
    order: int, N: int, eig_min, eig_max, sigma_min, sigma_max, cond
) -> ConditionReport:
    """ConditionReport labelled n = m and scaled by N^(2m) for the order."""
    m = order_spec(order).m
    return ConditionReport(
        n_label=m, N=N, eig_min=eig_min, eig_max=eig_max, cond=cond,
        cond_over_power=cond / N ** (2 * m), sigma_min=sigma_min, sigma_max=sigma_max,
    )


def condition_diagonal(order: int, N: int) -> ConditionReport:
    """Condition number of the diagonal block B1 or B2."""
    spec = order_spec(order)
    diag = spec.diagonal(np.arange(spec.dimension(N)))
    if diag.size == 0:
        raise ValueError(f"N = {N} gives an empty system for order {order}")
    eig_min, eig_max = float(diag[0]), float(diag[-1])
    return _report(order, N, eig_min, eig_max, eig_min, eig_max, eig_max / eig_min)


def _start_vector(n: int) -> np.ndarray:
    # deterministic, no accidental orthogonality to the dominant mode
    v = 1.0 + 0.5 * np.sin(np.arange(1, n + 1, dtype=float))
    return v / np.linalg.norm(v)


def _grown(array: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """`array` copied into the top-left corner of a rows x cols zero array."""
    out = np.zeros((rows, cols))
    out[: array.shape[0], : array.shape[1]] = array
    return out


def _dominant_eigenvalue(apply_op, n: int, symmetric: bool = False) -> complex:
    """Eigenvalue of largest modulus of a linear operator on R^n.

    Arnoldi with full reorthogonalization (two classical Gram-Schmidt
    passes) from a fixed start vector; for a symmetric operator the
    Hessenberg matrix is the Lanczos tridiagonal and its Ritz values come
    from `eigh`.  At the checks, KRYLOV_CHECK steps apart and then
    max(KRYLOV_CHECK, m // 8) steps after a check at step m, the Ritz value
    theta of largest modulus is accepted once its residual beta_m |y_m| is
    at most KRYLOV_TOL |theta|.  Each check solves the whole m x m
    Hessenberg eigenproblem, so the growing interval keeps their O(m^3)
    cost from dominating large-n runs.  At m = n the Krylov space is all
    of R^n, so the Ritz values are the eigenvalues and the answer is exact
    up to rounding; no step cap is needed.  The basis grows with the step
    count.
    """
    basis = _start_vector(n)[None, :]  # rows: orthonormal Krylov vectors
    hess = np.zeros((1, 0))
    check = KRYLOV_CHECK
    for m in range(1, n + 1):
        if hess.shape[1] < m:  # double the capacity, never past n steps
            cap = min(n, 2 * m)
            basis = _grown(basis, min(n, cap + 1), n)
            hess = _grown(hess, cap + 1, cap)
        vecs = basis[:m]
        w = apply_op(vecs[-1])
        h = vecs @ w
        w = w - h @ vecs
        again = vecs @ w
        w -= again @ vecs
        beta = float(np.linalg.norm(w))
        hess[:m, m - 1] = h + again
        hess[m, m - 1] = beta
        if m == n or beta == 0.0 or m == check:
            check = m + max(KRYLOV_CHECK, m // 8)
            if symmetric:
                ritz, vectors = np.linalg.eigh(hess[:m, :m])
            else:
                ritz, vectors = np.linalg.eig(hess[:m, :m])
            top = int(np.argmax(np.abs(ritz)))
            theta = ritz[top]
            if m == n or beta * abs(vectors[-1, top]) <= KRYLOV_TOL * abs(theta):
                return theta
        basis[m] = w / beta
    raise AssertionError("unreachable: the loop returns at m = n")


def condition_full(order: int, N: int, coefficients=None) -> ConditionReport:
    """Condition report for the full matrix D1 or D2 (default: all-ones).

    Four Krylov runs (`_dominant_eigenvalue`) through the band storage and
    the band LU of D, with no dense matrix: Lanczos on D^T D (matvec then
    rmatvec) gives sigma_max^2, Lanczos on (D^T D)^-1 (transpose solve then
    solve) gives 1 / sigma_min^2, Arnoldi on D gives eig_max and Arnoldi
    on D^-1 gives 1 / eig_min.  Each stops once its Ritz residual is at
    most 1e-14 of the Ritz value, or at m = n steps, where it is exact.
    """
    if coefficients is None:
        coefficients = (1.0,) * order_spec(order).n_coefficients
    matrix = operator_matrix(order, coefficients, N)
    n = matrix.n
    if n == 1:
        only = matrix.get(0, 0)
        return _report(order, N, only, only, abs(only), abs(only), 1.0)
    factored = lu_factor_banded(matrix)

    def gram(v):
        return matrix.rmatvec(matrix.matvec(v))

    def gram_inverse(v):
        return factored.solve(factored.solve_transpose(v))[0]

    sigma_max = math.sqrt(_dominant_eigenvalue(gram, n, symmetric=True))
    sigma_min = 1.0 / math.sqrt(_dominant_eigenvalue(gram_inverse, n, symmetric=True))
    eig_max = _dominant_eigenvalue(matrix.matvec, n).real
    eig_min = (1.0 / _dominant_eigenvalue(lambda v: factored.solve(v)[0], n)).real
    return _report(
        order, N, float(eig_min), float(eig_max), sigma_min, sigma_max,
        sigma_max / sigma_min,
    )


def residual_norm(system: BandSystem, coefficients: np.ndarray) -> float:
    """Infinity norm of D a - f* for a computed coefficient vector."""
    return float(np.max(np.abs(system.matrix.matvec(coefficients) - system.rhs)))

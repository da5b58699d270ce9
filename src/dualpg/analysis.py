"""Condition numbers, solve drivers, solution evaluation, error measurement.

One route serves both orders: `solve(problem, N)` assembles and solves the
problem's system, with every order-dependent quantity taken from its
`OrderSpec`.

Conditioning of the diagonal blocks B1/B2 follows directly from their
entries.  For the full matrices D1/D2 the tabulated reference values are
2-norm condition numbers, so cond is the singular-value ratio.  Both
singular values and the extreme eigenvalues of D itself (the method's
positivity claim is about them) come from four short Krylov runs through
band storage and band LUs (`condition_full`), each ending at a Ritz
residual of 1e-14 relative, checked every 6 steps, or exactly at m = n.
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
from .banded import SingularMatrixError, lu_factor_banded, solve_diagonal
from .jacobi import R_rows
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
# Krylov extremes: Ritz residual tolerance, relative to the Ritz value, steps
# between convergence checks, and the raise of the shift ||D^T D||_1 above
# the spectrum (its computed sum is within a few eps of the Gershgorin bound)
KRYLOV_TOL = 1e-14
KRYLOV_CHECK = 6
SHIFT_RAISE = 1e-12
BACKWARD_TOL = 1e-10  # stable band LUs of D measured below 4e-14
EPS = float(np.finfo(float).eps)

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
        if self.lift.order != self.order:
            raise ValueError(f"order-{self.order} solution needs an order-{self.order} "
                             f"lift, got an order-{self.lift.order} lift")

    def __call__(self, x):
        return evaluate_solution(self, x)


def evaluate_solution(solution: SpectralSolution, x):
    """u_N(x) = sum_k a_k phi_k(x) minus the boundary lift, in x's shape.

    The Jacobi series is summed row by row as its recurrence runs, so
    memory is O(x.size) whatever the dimension.
    """
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    a = solution.coefficients
    spec = order_spec(solution.order)
    series = np.zeros(flat.size)
    for ak, row in zip(a, R_rows(spec.trial_params, len(a) - 1, flat)):
        series += ak * row
    weight = np.polynomial.polynomial.polyval(flat, spec.trial_weight)
    vals = (weight * series - solution.lift(flat)).reshape(arr.shape)
    return float(vals) if arr.ndim == 0 else vals


def max_pointwise_error(solution: SpectralSolution, exact) -> float:
    """max |u_N - exact| over a uniform 1001-point grid on [-1, 1]."""
    grid = np.linspace(-1.0, 1.0, ERROR_GRID_POINTS)
    return float(np.max(np.abs(evaluate_solution(solution, grid) - exact(grid))))


def _check_backward_error(matrix, x: np.ndarray, b: np.ndarray) -> None:
    """Refuse x from D's band LU if its 1-norm backward error for D x = b is above
    BACKWARD_TOL: the LU takes no pivots, and one near 0 spoils every solve."""
    residual = np.abs(matrix.matvec(x) - b).sum()
    # tolerance first: ||D||_1 ||x||_1 alone can overflow where the bound does not
    bound = BACKWARD_TOL * np.abs(x).sum() * np.abs(matrix.data).sum(axis=0).max()
    if not residual <= bound:
        raise SingularMatrixError(
            f"unstable band LU: backward error {BACKWARD_TOL * residual / bound:.1e}")


def solve_system(problem, N: int, system: BandSystem) -> SpectralSolution:
    """Solve the assembled system of `problem` at truncation N.

    All operator coefficients zero leaves the diagonal B1 or B2
    (L = D^3 or -D^5), which is solved directly instead of by band LU.
    """
    if all(c == 0.0 for c in problem.coefficients):
        a = solve_diagonal(system.order, system.rhs)
    else:
        a, _ = lu_factor_banded(system.matrix).solve(system.rhs)
        _check_backward_error(system.matrix, a, system.rhs)
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


def _report(order: int, N: int, eig_min, eig_max, sigma_min, sigma_max) -> ConditionReport:
    """ConditionReport, cond = sigma_max / sigma_min, labelled n = m and scaled by N^(2m)."""
    m, cond = order_spec(order).m, sigma_max / sigma_min
    return ConditionReport(
        n_label=m, N=N, eig_min=eig_min, eig_max=eig_max, cond=cond,
        cond_over_power=cond / N ** (2 * m), sigma_min=sigma_min, sigma_max=sigma_max,
    )


def condition_diagonal(order: int, N: int) -> ConditionReport:
    """Condition number of the diagonal block B1 or B2."""
    spec = order_spec(order)
    diag = spec.diagonal(np.arange(spec.dimension(N)))
    eig_min, eig_max = float(diag[0]), float(diag[-1])
    return _report(order, N, eig_min, eig_max, eig_min, eig_max)


def _grown(array: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """`array` copied into the top-left corner of a rows x cols zero array."""
    out = np.zeros((rows, cols))
    out[: array.shape[0], : array.shape[1]] = array
    return out


def _dominant_eigenvalue(apply_op, start, symmetric=False) -> tuple[complex, np.ndarray]:
    """Eigenvalue of largest modulus of a linear operator on R^n, and its Ritz vector.

    Arnoldi with full reorthogonalization (two classical Gram-Schmidt
    passes) from the nonzero vector `start` of length n; for a symmetric
    operator the Hessenberg matrix is the Lanczos tridiagonal and its Ritz
    values come from `eigh`.  Every KRYLOV_CHECK steps, and at a breakdown
    (a new direction beta_m at most eps of the part of A v_m in the basis),
    the Ritz value theta of largest modulus is accepted once its residual
    beta_m |y_m| is at most KRYLOV_TOL |theta|; its unit Ritz vector is
    complex when theta is.  At m = n the Krylov space is all of R^n, so
    the Ritz values are the eigenvalues, exact up to rounding; no step cap
    is needed.  The basis grows with the step count.
    """
    n = len(start)
    basis = (start / np.linalg.norm(start))[None, :]  # rows: orthonormal Krylov vectors
    hess = np.zeros((1, 0))
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
        if m == n or m % KRYLOV_CHECK == 0 or beta <= EPS * np.linalg.norm(h + again):
            if symmetric:
                ritz, vectors = np.linalg.eigh(hess[:m, :m])
            else:
                ritz, vectors = np.linalg.eig(hess[:m, :m])
            top = int(np.argmax(np.abs(ritz)))
            theta = ritz[top]
            if m == n or beta * abs(vectors[-1, top]) <= KRYLOV_TOL * abs(theta):
                return theta, vectors[:, top] @ vecs
        basis[m] = w / beta
    raise AssertionError("unreachable: the loop returns at m = n")


def condition_full(order: int, N: int, coefficients=None) -> ConditionReport:
    """Condition report for the full matrix D1 or D2 (default: all-ones).

    Four Krylov runs (`_dominant_eigenvalue`), with no dense matrix.  G =
    D^T D is formed in band storage, and s = ||G||_1 (1 + SHIFT_RAISE)
    lies strictly above its spectrum, so the LU of G - sI needs no pivots
    and Lanczos on (G - sI)^-1 gives 1 / (sigma_max^2 - s) and the top
    right singular vector v1.  Lanczos on (D^T D)^-1 gives
    1 / sigma_min^2, Arnoldi on D from v1 gives eig_max and Arnoldi on D^-1
    gives 1 / eig_min.  One probe solve with D's factors goes through
    `_check_backward_error` first.  The runs see D / 2^e, 2^e the power of
    two just above max |D|, so that neither the norms of Krylov vectors of
    size 1 / |D|^2 nor G underflow or overflow; the extremes are scaled
    back exactly.
    """
    if coefficients is None:
        coefficients = (1.0,) * order_spec(order).n_coefficients
    matrix = operator_matrix(order, coefficients, N)
    n = matrix.n
    if n == 1:
        only = matrix.get(0, 0)
        return _report(order, N, only, only, abs(only), abs(only))
    e = math.frexp(float(np.abs(matrix.data).max()))[1]
    np.ldexp(matrix.data, -e, out=matrix.data)
    factored = lu_factor_banded(matrix)
    start = 1.0 + 0.5 * np.sin(np.arange(1, n + 1))  # fixed, not orthogonal to the top mode
    _check_backward_error(matrix, factored.solve(start)[0], start)
    gram = matrix.gram()
    shift = float(np.abs(gram.data).sum(axis=0).max()) * (1.0 + SHIFT_RAISE)
    gram.data[gram.q] -= shift
    shifted = lu_factor_banded(gram)
    mu, v1 = _dominant_eigenvalue(lambda v: shifted.solve(v)[0], start, symmetric=True)
    inverse_gram, _ = _dominant_eigenvalue(
        lambda v: factored.solve(factored.solve_transpose(v))[0], start, symmetric=True)
    # entries below eps of the largest are rounding residue of the Ritz sums; left
    # in, they cost Arnoldi on D 60 steps instead of 18 (order 3, (2, 3, 4), N = 1024)
    v1[np.abs(v1) < EPS * np.abs(v1).max()] = 0.0
    eig_max, _ = _dominant_eigenvalue(matrix.matvec, v1)
    inverse_eig, _ = _dominant_eigenvalue(lambda v: factored.solve(v)[0], start)
    extremes = (float((1.0 / inverse_eig).real), float(eig_max.real),
                1.0 / math.sqrt(inverse_gram), math.sqrt(shift + 1.0 / mu))
    return _report(order, N, *(math.ldexp(value, e) for value in extremes))


def residual_norm(system: BandSystem, coefficients: np.ndarray) -> float:
    """Infinity norm of D a - f* for a computed coefficient vector."""
    return float(np.max(np.abs(system.matrix.matvec(coefficients) - system.rhs)))

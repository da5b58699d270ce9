"""Assembly of the dual Petrov-Galerkin band systems.

A problem of order 2m + 1 (m = 1: third order, m = 2: fifth order) tested
against psi_k = (1-x^2)^m (1+x) R_k^{(m,m+1)} reduces, after dividing row
k by the norm h_k^{(m,m+1)}, to the (N-2m) x (N-2m) band system

    (B + sum_{q <= 2m} w_q E_q) a = f*,

where column j of E_q holds the R^{(m,m+1)}-expansion coefficients of
D^q phi_j, w_q is the signed operator coefficient of D^q, and B is the
diagonal block of the leading derivative: B1 + a1 E2 + b1 E1 + g1 E0 for
order 3 and B2 + a2 G4 + b2 G3 + g2 G2 + d2 G1 + m2 G0 for order 5 in the
paper's notation.  One route, `assemble(problem, N)`, builds either from
the problem's `OrderSpec`; the matrix it assembles is checked entrywise
against the quadrature oracle, and where the alternative tabulated entry
formulas disagree with the oracle the verification report enumerates
both values.  `operator_matrix` takes the whole band, B included, from
one `OrderSpec.expansion_band` call: a chain of 4m + 2 two-term Jacobi
relations over all columns at once, whose rows are the band rows.

Nonhomogeneous boundary data is removed by subtracting a low-degree lift
polynomial; the induced right-hand-side correction is projected exactly on
the test expansion through the monomial tables that `OrderSpec` derives
from the test family's three-term recurrence (no quadrature).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .banded import BandedMatrix
from .gjp import eval_phi, eval_psi
from .jacobi import (
    ConvergenceError,
    JacobiParams,
    eval_R_table,
    gauss_jacobi_rule,
    norm_h,
)
from .orders import (
    FifthOrderBC,
    FifthOrderProblem,
    ThirdOrderBC,
    ThirdOrderProblem,
    order_spec,
)

__all__ = [
    "ThirdOrderBC",
    "FifthOrderBC",
    "ThirdOrderProblem",
    "FifthOrderProblem",
    "LiftPolynomial",
    "BandSystem",
    "operator_matrix",
    "assemble",
    "rhs_projection",
    "boundary_lift",
    "lift_correction_polynomial",
    "modified_rhs",
    "operator_oracle_matrix",
]

PROJECTION_TOL = 1e-14
PROJECTION_MAX_NODES = 2560


@dataclass(frozen=True)
class LiftPolynomial:
    """Polynomial subtracted to homogenize the boundary data.

    V(x) = u(x) + sum_i coefficients[i] x^i; zero data gives the zero
    polynomial.
    """

    order: int
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        expect = order_spec(self.order).n_coefficients
        if len(self.coefficients) != expect:
            raise ValueError(f"order {self.order} lift needs {expect} coefficients")

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coefficients)

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(
            np.asarray(x, dtype=float), np.asarray(self.coefficients)
        )


@dataclass(frozen=True)
class BandSystem:
    """Assembled matrix and normalized right-hand side of one problem."""

    matrix: BandedMatrix
    rhs: np.ndarray
    order: int

    def __post_init__(self) -> None:
        if len(self.rhs) != self.matrix.n:
            raise ValueError("system dimension mismatch")


def operator_matrix(order: int, coefficients, N: int) -> BandedMatrix:
    """Assemble D1 (order 3) or D2 (order 5) directly into band storage.

    One `OrderSpec.expansion_band` call builds every weighted derivative
    order's expansion for all columns; its rows are the band rows, so they
    are wrapped as the matrix as they stand (the middle ones only when the
    dimension clips the band).  The slots of rows past the matrix end are
    cleared.  A NaN or infinite coefficient raises ValueError naming its
    index.
    """
    spec = order_spec(order)
    dim = spec.dimension(N)
    weights = spec.weights(coefficients)
    for i, c in enumerate(coefficients):
        if not math.isfinite(c):
            raise ValueError(f"operator coefficient {i} must be finite, got {c}")
    band = min(spec.bandwidth, dim - 1)
    stack = spec.expansion_band(weights, 0, dim)
    matrix = BandedMatrix(dim, band, band, stack[order - band:order + band + 1])
    # an offset-d coefficient of column k lands in row k + d, past the
    # matrix end for k >= dim - d: clear those slots
    for d in range(1, band + 1):
        matrix.data[band + d, dim - d:] = 0.0
    return matrix


def _projection(
    rhs: Callable, N: int, params: JacobiParams, dim: int
) -> np.ndarray:
    """Moments f_k / h_k against R_k under the test weight, adaptively refined.

    Refinement stops once successive rules agree to 1e-14 relative, with a
    per-entry floor at the quadrature roundoff level (machine epsilon times
    the positive-mass bound on the moment, amplified by the 1/h_k
    normalization, plus a unit-scale term for right-hand sides that cancel
    to pure rounding noise).  A refinement whose change fails to decay by
    4x against the previous one has hit the rounding floor of the rule
    family rather than a resolution limit (unresolved smooth integrands
    decay spectrally per doubling) and is likewise accepted.

    The rule doubles from max(N + 8, 40) nodes up to a budget of
    max(2560, 4 * max(N + 8, 40)); a right-hand side still unresolved there
    (a kink or a singularity) raises `ConvergenceError` instead of growing
    the dense rule without bound.
    """
    hk = norm_h(params, np.arange(dim))
    eps = np.finfo(float).eps

    def evaluate(count: int) -> tuple[np.ndarray, np.ndarray]:
        rule = gauss_jacobi_rule(params, count)
        fvals = np.asarray(rhs(rule.nodes), dtype=float)
        if fvals.shape != rule.nodes.shape:
            fvals = np.broadcast_to(fvals, rule.nodes.shape).astype(float)
        if not np.all(np.isfinite(fvals)):
            raise ValueError("rhs is not finite at the quadrature nodes")
        table = eval_R_table(params, dim - 1, rule.nodes)
        weighted = rule.weights * fvals
        roundoff = (
            2048.0 * eps * (np.abs(table) @ np.abs(weighted))
            + 256.0 * eps * (np.abs(table) @ rule.weights)
        ) / hk
        return table @ weighted / hk, roundoff

    count = max(N + 8, 40)
    ceiling = max(PROJECTION_MAX_NODES, 4 * count)
    current, _ = evaluate(count)
    previous_change = None
    while 2 * count <= ceiling:
        count *= 2
        refined, roundoff = evaluate(count)
        diff = np.abs(refined - current)
        scale = np.full(dim, np.max(np.abs(refined), initial=1e-300))
        if np.all(diff <= np.maximum(PROJECTION_TOL * scale, roundoff)):
            return refined
        change = float(np.max(diff))
        if previous_change is not None and change >= 0.25 * previous_change:
            return refined
        current = refined
        previous_change = change
    raise ConvergenceError(
        f"rhs projection did not stabilize to {PROJECTION_TOL:g} "
        f"at {count} quadrature nodes (node budget {ceiling} for N = {N})"
    )


def rhs_projection(order: int, rhs: Callable, N: int) -> np.ndarray:
    """f*_k = (rhs, R_k^{(m,m+1)})_w / h_k^{(m,m+1)}, w = (1-x^2)^m (1+x), k < N-2m."""
    spec = order_spec(order)
    return _projection(rhs, N, spec.test_params, spec.dimension(N))


def boundary_lift(bc) -> LiftPolynomial:
    """Lift of degree 2m turning the boundary data `bc` homogeneous."""
    return LiftPolynomial(order=bc.order, coefficients=order_spec(bc.order).lift(bc))


def lift_correction_polynomial(order: int, lift: LiftPolynomial, problem) -> np.ndarray:
    """Monomial coefficients of L(lift), the rhs term induced by the lift.

    Coefficient d sums w_q (d+q)!/d! c_{d+q} from the highest q down.
    """
    c = lift.coefficients
    weights = order_spec(order).weights(problem.coefficients)
    return np.array([
        reduce(add, [math.perm(d + q, q) * weights[q] * c[d + q]
                     for q in range(len(c) - 1 - d, -1, -1)])
        for d in range(len(c))
    ])


def modified_rhs(order: int, lift: LiftPolynomial, base: np.ndarray, problem) -> np.ndarray:
    """Add the lift-induced polynomial correction to the projected rhs.

    The correction L(lift) is a polynomial of degree < order, so it only
    touches entries k < order; its expansion in the test family is exact
    via the monomial tables.
    """
    out = np.asarray(base, dtype=float).copy()
    if lift.is_zero:
        return out
    g = lift_correction_polynomial(order, lift, problem)
    table = order_spec(order).mono_to_test
    for degree, gd in enumerate(g):
        if gd == 0.0:
            continue
        for i, c in enumerate(table[degree]):
            if i < out.size:
                out[i] += gd * c
    return out


def assemble(problem, N: int) -> BandSystem:
    """Band system D a = f* of a third- or fifth-order problem (dimension N-2m)."""
    order = problem.order
    matrix = operator_matrix(order, problem.coefficients, N)
    rhs = rhs_projection(order, problem.rhs, N)
    if not problem.bc.is_homogeneous:
        rhs = modified_rhs(order, boundary_lift(problem.bc), rhs, problem)
    return BandSystem(matrix=matrix, rhs=rhs, order=order)


def operator_oracle_matrix(order: int, coefficients, N: int) -> np.ndarray:
    """Dense ground-truth matrix: entry [k, j] is (L phi_j, psi_k) / h_k.

    Independent of `OrderSpec.expansion_band`: phi derivatives come from the
    exact product rule and each integral from a unit-weight Gauss-Legendre
    rule sized N + 16 (the integrand is a polynomial of degree <= 2N + 1).
    Each sum is compensated, since the 1/h_k normalization amplifies
    rounding noise at high degree.
    """
    spec = order_spec(order)
    dim = spec.dimension(N)
    weights = spec.weights(coefficients)
    rule = gauss_jacobi_rule(JacobiParams(0.0, 0.0), N + 16)
    x = rule.nodes
    psi = np.vstack([eval_psi(order, k, x) for k in range(dim)])
    hk = norm_h(spec.test_params, np.arange(dim))
    out = np.empty((dim, dim))
    for j in range(dim):
        lphi = np.zeros_like(x)
        for q, w in weights.items():
            if w != 0.0:
                lphi += w * eval_phi(order, j, x, q)
        weighted = rule.weights * lphi
        for k in range(dim):
            out[k, j] = math.fsum(weighted * psi[k]) / hk[k]
    return out

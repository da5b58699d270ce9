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

The right-hand side f*_k = (f, R_k)_w / h_k is f's coefficient vector in
the test family, taken by a Chebyshev transform without quadrature.
Nonhomogeneous boundary data is removed by a low-degree lift polynomial:
v = u + lift solves L v = f + L(lift) with homogeneous data, and that sum
goes through the same one transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from operator import add, mul
from typing import Callable

import numpy as np

from .banded import BandedMatrix
from .gjp import eval_phi, eval_psi
from .jacobi import (
    ConvergenceError,
    JacobiParams,
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

_P = np.polynomial.polynomial


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
        return _P.polyval(np.asarray(x, dtype=float), np.asarray(self.coefficients))


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
    stack = spec.expansion_band(weights, dim)
    matrix = BandedMatrix(dim, band, band, stack[order - band:order + band + 1])
    # an offset-d coefficient of column k lands in row k + d, past the
    # matrix end for k >= dim - d: clear those slots
    for d in range(1, band + 1):
        matrix.data[band + d, dim - d:] = 0.0
    return matrix


def _chop(c: np.ndarray) -> int | None:
    """Length of the Chebyshev series c to keep, None while it has no plateau.

    Aurentz & Trefethen's standardChop (ACM TOMS 43, 2017) at tolerance eps
    relative to max |c|, 1-based as there.  A zero series keeps nothing.
    """
    tol = np.finfo(float).eps
    envelope = np.maximum.accumulate(np.abs(c[::-1]))[::-1]
    if envelope[0] == 0.0:
        return 0
    envelope /= envelope[0]
    e = envelope.tolist()
    for j in range(2, (4 * c.size - 19) // 5 + 1):  # while j2 = round(1.25 j + 5) <= n
        j2, e1 = (5 * j + 22) // 4, e[j - 1]
        if e1 == 0.0 or e[j2 - 1] / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    else:
        return None
    if e[j - 2] == 0.0:
        return j - 1
    floor = tol ** (7.0 / 6.0)
    end = min(j2, np.count_nonzero(envelope >= floor) + 1)
    envelope[end - 1] = max(envelope[end - 1], floor)
    ramp = np.log10(envelope[:end]) - np.arange(end) * (np.log10(tol) / (3.0 * (end - 1)))
    return max(int(np.argmin(ramp)), 1)


def _legendre_from_chebyshev(c: np.ndarray, rows: int) -> np.ndarray:
    """Legendre coefficients a_0 .. a_{rows-1} of sum_k c_k T_k.

    Alpert & Rokhlin (SISC 12, 1991): a_j = c_j / (2 A_j) (a_0 = c_0) less
    k (2j + 1) A_{t-1} B_{j+t-1} / ((j + k + 1) 2t) c_k over k = j + 2t, t >= 1,
    with A_n = Lambda(n) / sqrt(pi) = (1/2)_n / n!, B_n = Lambda(n + 1/2)
    sqrt(pi) / 2 = n! / (3/2)_n by ratio recurrences, Lambda(z) = Gamma(z +
    1/2) / Gamma(z + 1).  Row blocks of ~2^16 entries keep memory O(c.size).
    """
    i, t = np.arange(1.0, c.size), np.arange(1, (c.size + 1) // 2)
    A = np.cumprod(np.concatenate(([1.0], (i - 0.5) / i)))
    B = np.cumprod(np.concatenate(([1.0], i / (i + 0.5), np.zeros(t.size))))
    out = c[:rows] / (2.0 * A[:rows])
    out[:1] = c[:1]
    padded = np.concatenate((c, np.zeros(2 * t.size)))  # c_k = 0 for k >= n
    step = max((1 << 16) // max(t.size, 1), 1)
    for start in range(0, rows, step):
        j = np.arange(start, min(start + step, rows))[:, None]
        k = j + 2 * t
        entries = k * (2 * j + 1) / ((k + j + 1) * (2 * t)) * A[t - 1] * B[j + t - 1]
        out[start:start + j.size] -= (entries * padded[k]).sum(1)
    return out


def _projection(
    rhs: Callable, N: int, params: JacobiParams, dim: int
) -> np.ndarray:
    """f*_k = (rhs, R_k)_w / h_k for k < dim: the R-coefficients of rhs.

    One DCT-II (the `rfft` of the even extension) of rhs at `count`
    Chebyshev points of the first kind, the Gauss-Chebyshev nodes; `count`
    doubles from max(N + 8, 64) (about 45 terms chop in one round) until
    `_chop` cuts the series, or raises `ConvergenceError` past
    max(2560, 4 * (N + 8)) (a kink or a singularity).

    Rounding noise above eps relative (an rhs formed by cancellation) leaves
    no plateau at eps.  Such a series is cut after its last coefficient above
    the largest move of the leading ones between two doublings, once that
    move is within unit-scale rounding (256 eps), or is below 2^-20 of the
    series and shrank less than 2.5x in the last doubling: noise shrinks
    sqrt(2)x to 2x per doubling, a kink |x|^s 2^(1 + s)x.  A series within
    256 eps of 0 is rounding noise (of an rhs L u = 0, say) and keeps nothing.

    The kept series goes to Legendre, to P^{(a,b)} in a + b two-term steps
    (DLMF 18.9.5) and, over P_k(1) = binomial(k + a, a), to R_k; entries
    past it are exactly 0.0.  Integral indexes only.
    """
    count, keep, previous, moved = max(N + 8, 64), None, None, math.inf
    ceiling = max(2560, 4 * (N + 8))
    rounding = 256.0 * np.finfo(float).eps
    while keep is None:
        if count > ceiling:
            raise ConvergenceError(f"rhs Chebyshev series did not chop at {count // 2} "
                                   f"quadrature nodes (node budget {ceiling} for N = {N})")
        nodes = np.sin(0.5 * np.pi * np.arange(count - 1, -count, -2) / count)
        values = np.broadcast_to(np.asarray(rhs(nodes), dtype=float), nodes.shape)
        top = float(np.max(np.abs(values)))  # NaN if any value is
        if not math.isfinite(top):
            raise ValueError("rhs is not finite at the quadrature nodes")
        # the transform sees values / 2^e, max |values| < 2^e, so its sums cannot overflow
        e = math.frexp(top)[1]
        even = np.concatenate((values, values[::-1]))
        spectrum = np.fft.rfft(np.ldexp(even, -e, out=even))[:count]
        c = (spectrum * np.exp(-0.5j * np.pi * np.arange(count) / count)).real / count
        c[0] *= 0.5
        np.ldexp(c, e, out=c)
        keep, scale = _chop(c), float(np.max(np.abs(c)))
        if keep is None and scale <= rounding:
            keep = 0
        elif keep is None and previous is not None:
            moved, before = float(np.max(np.abs(c[:previous.size] - previous))), moved
            if moved <= rounding or 0.4 * before <= moved <= 2.0 ** -20 * scale:
                keep = int(np.flatnonzero(np.abs(c) > moved)[-1]) + 1
        previous, count = c, 2 * count
    alpha, beta = int(params.alpha), int(params.beta)
    # entry k of the result reads Legendre coefficients k .. k + alpha + beta
    a = _legendre_from_chebyshev(c[:keep], min(keep, dim + alpha + beta))
    n, ia, ib = np.arange(float(a.size)), 0, 0
    for raise_b in [True] * beta + [False] * alpha:
        # P_n = ((n + lam) P'_n + s_n P'_{n-1}) / (2n + lam), the primed family
        # one index higher: s_n = n + ia raising b, -(n + ib) raising a
        lam = ia + ib + 1.0
        den = 2.0 * n + lam
        raised = a * ((n + lam) / den)
        raised[:-1] += a[1:] * ((n[1:] + ia if raise_b else -(n[1:] + ib)) / den[1:])
        a, ia, ib = raised, ia + (not raise_b), ib + raise_b
    a = a[:dim] * np.array([math.comb(k + alpha, alpha) for k in range(min(a.size, dim))])
    return np.concatenate((a, np.zeros(dim - a.size)))


def rhs_projection(order: int, rhs: Callable, N: int) -> np.ndarray:
    """f*_k = (rhs, R_k^{(m,m+1)})_w / h_k^{(m,m+1)}, w = (1-x^2)^m (1+x), k < N-2m."""
    spec = order_spec(order)
    return _projection(rhs, N, spec.test_params, spec.dimension(N))


def boundary_lift(bc) -> LiftPolynomial:
    """Lift of degree 2m turning the boundary data `bc` homogeneous.

    Its coefficients are c = -H^-1 v (`OrderSpec.lift_matrix`), v the values
    of `bc`; each sum runs left to right from +0.0, so zero data gives +0.0.
    """
    values = [getattr(bc, f.name) for f in fields(bc)]
    rows = order_spec(bc.order).lift_matrix
    return LiftPolynomial(bc.order, tuple(sum(map(mul, row, values)) for row in rows))


def lift_correction_polynomial(order: int, lift: LiftPolynomial, problem) -> np.ndarray:
    """Monomial coefficients of L(lift), the rhs term induced by the lift.

    Coefficient d sums w_q (d+q)!/d! c_{d+q} from the highest q down.  A
    lift of another order raises ValueError.
    """
    if lift.order != order:
        raise ValueError(f"order-{order} correction needs an order-{order} lift, "
                         f"got an order-{lift.order} lift")
    c = lift.coefficients
    weights = order_spec(order).weights(problem.coefficients)
    return np.array([
        reduce(add, [math.perm(d + q, q) * weights[q] * c[d + q]
                     for q in range(len(c) - 1 - d, -1, -1)])
        for d in range(len(c))
    ])


def modified_rhs(order: int, lift: LiftPolynomial, base: np.ndarray, problem) -> np.ndarray:
    """base plus the projection of the lift-induced correction L(lift).

    The projection is the same Chebyshev transform as any rhs, at the N of
    base's dimension N - 2m.  L(lift) is a polynomial of degree < order, so
    it reads exactly 0.0 past entry order - 1.
    """
    out = np.asarray(base, dtype=float).copy()
    if lift.is_zero:
        return out
    g = lift_correction_polynomial(order, lift, problem)
    return out + rhs_projection(order, lambda x: _P.polyval(x, g), out.size + order - 1)


def assemble(problem, N: int) -> BandSystem:
    """Band system D a = f* of a third- or fifth-order problem (dimension N-2m).

    Nonhomogeneous data projects f + L(lift) in the one transform.
    """
    order = problem.order
    matrix = operator_matrix(order, problem.coefficients, N)
    rhs = problem.rhs
    if not problem.bc.is_homogeneous:
        g = lift_correction_polynomial(order, boundary_lift(problem.bc), problem)
        rhs = lambda x: problem.rhs(x) + _P.polyval(x, g)
    return BandSystem(matrix=matrix, rhs=rhs_projection(order, rhs, N), order=order)


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

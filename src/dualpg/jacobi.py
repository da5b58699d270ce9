"""Normalized Jacobi polynomials and Gauss-Jacobi quadrature.

Everything is expressed through R_n^{(a,b)} = P_n^{(a,b)} / P_n^{(a,b)}(1),
the Jacobi polynomial normalized to R_n(1) = 1, generated by its three-term
recurrence.  Derivatives use the index-shift relation

    D^q R_n^{(a,b)} = (n-q+1)_q (n+a+b+1)_q / (2^q (a+1)_q) * R_{n-q}^{(a+q,b+q)},

never Rodrigues' formula or a monomial expansion.  Quadrature nodes are the
roots of R_count: each rule is built directly from the eigenvalues of the
count x count symmetric Jacobi matrix of the weight (Golub & Welsch 1969),
polished by two Newton sweeps on R_count; weights come from the derivative
formula and are validated by the degree-(2*count-1) exactness contract.
Rules are built afresh on each call; the verification suites, the
quadrature oracle matrix and the tests use them, the solver does not.

All functions are pure, all types immutable and no state is shared, so
everything here is safe to use across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "JacobiParams",
    "QuadratureRule",
    "pochhammer",
    "R_rows",
    "R_series",
    "eval_R",
    "eval_R_derivative",
    "norm_h",
    "gauss_jacobi_rule",
]

class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


@dataclass(frozen=True)
class JacobiParams:
    """Index pair (alpha, beta) of a classical Jacobi family, both > -1."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > -1.0 and self.beta > -1.0):
            raise ValueError(
                f"classical Jacobi family needs alpha, beta > -1, "
                f"got ({self.alpha}, {self.beta})"
            )

    @property
    def lam(self) -> float:
        """alpha + beta + 1, the recurring combination of the two indexes."""
        return self.alpha + self.beta + 1.0


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); empty product for k = 0.

    Computed as a direct product (k stays small here), which avoids the
    cancellation a gamma-ratio would suffer for negative or tiny bases.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def _recurrence(params: JacobiParams, count: int):
    """c0, c1, c2, c3 of c0 R_{n+1} = (c1 x + c2) R_n - c3 R_{n-1}, n < count.

    Four float arrays, each entry the same IEEE operations on the integer n
    as the scalar formula would take; n = 0 holds the start R_1 = ((lam + 1)
    x + a - b) / (2 (a + 1)), with c3 = 0 against R_{-1} = 0.
    """
    a, b = params.alpha, params.beta
    lam = params.lam
    n = np.arange(float(count))
    s = 2.0 * n + lam
    c0 = 2.0 * (n + lam) * (n + a + 1.0) * (s - 1.0)
    c1 = (s - 1.0) * s * (s + 1.0)
    c2 = (a * a - b * b) * s
    c3 = 2.0 * n * (n + b) * (s + 1.0)
    if count:
        c0[0], c1[0], c2[0], c3[0] = 2.0 * (a + 1.0), lam + 1.0, a - b, 0.0
    return c0, c1, c2, c3


def R_rows(params: JacobiParams, nmax: int, x: np.ndarray):
    """Yield R_0 .. R_nmax at the 1-d points x, keeping two rows alive."""
    if nmax < 0:
        raise ValueError("degree must be nonnegative")
    prev, cur = np.zeros(x.size), np.ones(x.size)
    yield cur
    for c0, c1, c2, c3 in zip(*(c.tolist() for c in _recurrence(params, nmax))):
        # ((c1 x + c2) cur - c3 prev) / c0 in that order, on one new array
        # rather than a temporary per operation
        nxt = c1 * x
        nxt += c2
        nxt *= cur
        nxt -= c3 * prev
        nxt /= c0
        prev, cur = cur, nxt
        yield cur


def R_series(params: JacobiParams, coefficients, x: np.ndarray) -> np.ndarray:
    """sum_k coefficients[k] R_k at the 1-d points x, by Clenshaw's backward sum.

    With R_{k+1} = (A_k x + B_k) R_k - C_k R_{k-1}, the ratios c1 / c0,
    c2 / c0 and c3 / c0 of `_recurrence`, the sum is b_0 of
    b_k = a_k + (A_k x + B_k) b_{k+1} - C_{k+1} b_{k+2}, b past the top
    degree 0 (Clenshaw, Math. Tables Aids Comput. 9, 1955): one backward
    pass of six array operations per degree on three rotating rows of
    x.size, whatever the degree.
    """
    a = np.asarray(coefficients, dtype=float).tolist()
    nmax = len(a) - 1
    c0, c1, c2, c3 = _recurrence(params, nmax + 1)
    A, B, C = (c1 / c0).tolist(), (c2 / c0).tolist(), (c3 / c0).tolist()
    b1, b2, new = np.full(x.size, a[nmax]), np.zeros(x.size), np.empty(x.size)
    for k in range(nmax - 1, -1, -1):
        np.multiply(x, A[k], out=new)
        new += B[k]
        new *= b1
        new += a[k]
        b2 *= C[k + 1]
        new -= b2
        b1, b2, new = new, b1, b2
    return b1


def eval_R(params: JacobiParams, n: int, x):
    """R_n^{(alpha,beta)}(x) via the three-term recurrence.

    Accepts a scalar or an array of points and matches the input shape.
    Only two rows of the recurrence are kept, so memory is O(x.size).
    """
    arr = np.asarray(x, dtype=float)
    for row in R_rows(params, n, arr.ravel()):
        pass
    vals = row.reshape(arr.shape)
    return float(vals) if arr.ndim == 0 else vals


def eval_R_derivative(params: JacobiParams, n: int, q: int, x):
    """q-th derivative D^q R_n^{(alpha,beta)}(x); zero when q > n."""
    if q < 0:
        raise ValueError("derivative order must be nonnegative")
    if q == 0:
        return eval_R(params, n, x)
    arr = np.asarray(x, dtype=float)
    if q > n:
        zeros = np.zeros(arr.shape)
        return float(zeros) if arr.ndim == 0 else zeros
    scale = (
        pochhammer(n - q + 1, q)
        * pochhammer(n + params.lam, q)
        / (2.0 ** q * pochhammer(params.alpha + 1.0, q))
    )
    shifted = JacobiParams(params.alpha + q, params.beta + q)
    return scale * eval_R(shifted, n - q, x)


def norm_h(params: JacobiParams, n):
    """Squared weighted norm h_n = integral of (1-x)^a (1+x)^b R_n^2.

    h_n = 2^lam n! Gamma(n+b+1) Gamma(a+1)^2 / ((2n+lam) Gamma(n+lam)
    Gamma(n+a+1)).  Integral indexes reduce to short exact products, for an
    int n or, elementwise in the same sequence of divisions, for an int
    array of degrees; the general case goes through lgamma, for an int n.
    """
    a, b = params.alpha, params.beta
    lam = params.lam
    if float(a).is_integer() and float(b).is_integer():
        ia, ib = int(a), int(b)
        val = 2.0 ** (ia + ib + 1) * math.factorial(ia) ** 2 / (2 * n + ia + ib + 1)
        for i in range(1, ia + 1):
            val /= n + i
        for i in range(ib + 1, ia + ib + 1):
            val /= n + i
        return val
    if np.ndim(n):
        raise ValueError("norm_h takes an array of degrees for integral indexes only")
    if 2 * n + lam <= 0.0:
        # n = 0 and lam <= 0, where (2n + lam) Gamma(n + lam) = Gamma(lam + 1):
        # h_0 = 2^lam Gamma(a+1) Gamma(b+1) / Gamma(lam+1), the weight's mass
        return math.exp(
            lam * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1)
            - math.lgamma(lam + 1)
        )
    return math.exp(
        lam * math.log(2.0)
        + math.lgamma(n + 1)
        + math.lgamma(n + b + 1)
        + 2.0 * math.lgamma(a + 1)
        - math.log(2 * n + lam)
        - math.lgamma(n + lam)
        - math.lgamma(n + a + 1)
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule: exact to degree 2*count-1 against (1-x)^a (1+x)^b."""

    params: JacobiParams
    nodes: np.ndarray
    weights: np.ndarray
    count: int

    def __post_init__(self) -> None:
        nodes, weights = self.nodes, self.weights
        if nodes.shape != (self.count,) or weights.shape != (self.count,):
            raise ValueError("node/weight arrays must have length count")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
            raise ValueError("nodes must be strictly increasing inside (-1, 1)")
        if not np.all(weights > 0):
            raise ValueError("weights must be positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of integrand values sampled at the nodes."""
        return float(np.dot(self.weights, values))


def _jacobi_matrix_nodes(params: JacobiParams, count: int) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal Jacobi matrix (Golub-Welsch).

    The monic recurrence of the weight (1-x)^a (1+x)^b has diagonal
    (b^2 - a^2) / (s (s + 2)) and squared off-diagonal
    4k (k+a) (k+b) (k+a+b) / (s^2 (s+1) (s-1)), s = 2k + a + b; the k = 0
    diagonal and k = 1 off-diagonal are written in closed form, because the
    general formulas read 0/0 there when a + b = 0 or a + b = -1.
    """
    a, b = params.alpha, params.beta
    k = np.arange(float(count))
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
        off_sq = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    diag[0] = (b - a) / (a + b + 2.0)
    if count > 1:
        off_sq[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    off = np.sqrt(off_sq[1:])
    matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(matrix)


def gauss_jacobi_rule(params: JacobiParams, count: int) -> QuadratureRule:
    """Gauss-Jacobi rule with `count` nodes for the given weight indexes."""
    if count < 1:
        raise ValueError("count must be at least 1")
    if count == 1:
        # the root of R_1 carrying the whole mass h_0; the derivative
        # formula's K_1 / K_0 ratio reads 0/0 at alpha + beta = -1
        a, b = params.alpha, params.beta
        return QuadratureRule(
            params=params,
            nodes=np.array([(b - a) / (a + b + 2.0)]),
            weights=np.array([norm_h(params, 0)]),
            count=1,
        )
    x = _jacobi_matrix_nodes(params, count)
    # two unguarded Newton sweeps push the eigenvalues from the 1e-14 level
    # of the dense solver down to the evaluation noise floor of R_count; the
    # final rule accuracy feeds straight into the oracle integrals
    for _ in range(2):
        f = eval_R(params, count, x)
        df = np.asarray(eval_R_derivative(params, count, 1, x))
        x = np.where(df != 0.0, x - f / df, x)
    # weights from the Gauss-Jacobi derivative formula; the leading factor
    # is the leading-coefficient ratio K_n / K_{n-1} of R_n over R_{n-1}
    n, lam = count, params.lam
    kratio = (2 * n + lam - 1.0) * (2 * n + lam - 2.0) / (
        2.0 * (n + lam - 1.0) * (n + params.alpha)
    )
    rn_prev, rn_der = eval_R(params, n - 1, x), np.asarray(eval_R_derivative(params, n, 1, x))
    weights = kratio * norm_h(params, n - 1) / (rn_prev * rn_der)
    return QuadratureRule(params=params, nodes=x, weights=weights, count=count)

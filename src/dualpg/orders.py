"""Per-order data of the dual Petrov-Galerkin construction.

Orders 3 and 5 are the m = 1, 2 cases of one construction of order 2m + 1:
trial phi_k = (1-x^2)^m (1-x) R_k^{(m+1,m)}, test psi_k = (1-x^2)^m (1+x)
R_k^{(m,m+1)}, dimension N - 2m, bandwidth and coefficient count 2m + 1.
`OrderSpec` derives these from m and tabulates only what differs: the
boundary-data and problem records and the operator signs; a shared base
checks that the records are finite and that a problem's boundary data is
of its order.  The lift and D come from m as well: the diagonal of
B = +-D^order is (m+1) (k+1)_m (k+m+2)_m, and `OrderSpec.expansion_band`
builds the weighted expansion of every derivative order for the columns
0 .. count - 1 at once in 2 (2m + 1) two-term Jacobi relations, Horner's
rule over q, in a stack whose rows are the band rows; a row k + d < 0 reads
exactly 0.0.  `lift_matrix`, -H^-1, maps boundary values to the lift's
coefficients; `assembly.boundary_lift` applies it.  `order_spec` is the
one place that accepts or rejects an order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from numbers import Real
from operator import attrgetter
from typing import Callable, ClassVar

import numpy as np

from .jacobi import JacobiParams

__all__ = [
    "ThirdOrderBC",
    "FifthOrderBC",
    "ThirdOrderProblem",
    "FifthOrderProblem",
    "OrderSpec",
    "SPECS",
    "order_spec",
]

_P = np.polynomial.polynomial


class _Record:
    """Base of the frozen data records: every real field must be finite."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Real) and not math.isfinite(value):
                raise ValueError(
                    f"{type(self).__name__}.{f.name} must be finite, got {value}"
                )


class _BoundaryData(_Record):
    """Boundary values in `boundary_points` order."""

    @property
    def is_homogeneous(self) -> bool:
        return all(getattr(self, name) == 0.0 for name in self.__match_args__)


class _Problem(_Record):
    """Operator coefficients first, then `rhs` and `bc` of the same order."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.bc.order != self.order:
            raise ValueError(f"an order-{self.order} {type(self).__name__} needs "
                             f"order-{self.order} boundary data, got an "
                             f"order-{self.bc.order} {type(self.bc).__name__}")

    @property
    def coefficients(self) -> tuple[float, ...]:
        # __match_args__: the field names in order.  attrgetter sizes the
        # tuple exactly; tuple() of a generator over-allocates and shrinks,
        # which piles blocks onto the free list of the smaller size
        return attrgetter(*self.__match_args__[:-2])(self)


@dataclass(frozen=True)
class ThirdOrderBC(_BoundaryData):
    """Boundary data u(-1) = a_minus, u(1) = a_plus, u'(1) = a1_plus."""

    order: ClassVar[int] = 3
    a_minus: float = 0.0
    a_plus: float = 0.0
    a1_plus: float = 0.0


@dataclass(frozen=True)
class FifthOrderBC(_BoundaryData):
    """Boundary data u(+-1), u'(+-1), u''(1)."""

    order: ClassVar[int] = 5
    a_minus: float = 0.0
    a_plus: float = 0.0
    a1_minus: float = 0.0
    a1_plus: float = 0.0
    a2_plus: float = 0.0


@dataclass(frozen=True)
class ThirdOrderProblem(_Problem):
    """u''' - alpha1 u'' - beta1 u' + gamma1 u = rhs on (-1, 1)."""

    order: ClassVar[int] = 3
    alpha1: float
    beta1: float
    gamma1: float
    rhs: Callable[[np.ndarray], np.ndarray]
    bc: ThirdOrderBC = field(default_factory=ThirdOrderBC)


@dataclass(frozen=True)
class FifthOrderProblem(_Problem):
    """-u''''' + alpha2 u'''' + beta2 u''' - gamma2 u'' - delta2 u' + mu2 u = rhs."""

    order: ClassVar[int] = 5
    alpha2: float
    beta2: float
    gamma2: float
    delta2: float
    mu2: float
    rhs: Callable[[np.ndarray], np.ndarray]
    bc: FifthOrderBC = field(default_factory=FifthOrderBC)


def _negated_inverse(H: list[list[int]]) -> list[list[float]]:
    """-H^-1 for a nonsingular integer matrix H, each entry rounded once.

    Gauss-Jordan on [H | -I] over the integers: every row operation scales
    by whole numbers, so row i ends as d_i e_i | -d_i H^-1[i] and entry
    (i, j) is one correctly rounded integer division (exact where it is
    dyadic, as for orders 3 and 5).
    """
    size = len(H)
    rows = [row + [-int(i == j) for j in range(size)] for i, row in enumerate(H)]
    for col in range(size):
        swap = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[swap] = rows[swap], rows[col]
        pivot = rows[col]
        rows = [[pivot[col] * a - row[col] * b for a, b in zip(row, pivot)]
                if r != col and row[col] else row for r, row in enumerate(rows)]
    return [[a / row[i] for a in row[size:]] for i, row in enumerate(rows)]


@dataclass(eq=False)
class OrderSpec:
    """Everything order-dependent about one odd order 2m + 1.

    The fields are the tabulated data: the two records and the operator
    signs; `__post_init__` derives the rest from m.  `SPECS` holds one
    instance per supported order.
    """

    order: int
    bc: type  # boundary-data record, fields in `boundary_points` order
    problem: type  # problem record, operator coefficients first
    signs: dict[int, float]  # sign of D^q in the operator, q = order .. 0

    def __post_init__(self) -> None:
        m = self.m = (self.order - 1) // 2  # also the label n of B_n, D_n
        # operator coefficients = boundary conditions = lift coefficients
        self.n_coefficients = self.bandwidth = 2 * m + 1
        self.trial_params = JacobiParams(m + 1.0, float(m))
        self.test_params = JacobiParams(float(m), m + 1.0)
        # (1-x^2)^m (1-x) and (1-x^2)^m (1+x), ascending coefficients
        self.trial_weight = _P.polymul(_P.polypow([1.0, 0.0, -1.0], m), [1.0, -1.0])
        self.test_weight = _P.polymul(_P.polypow([1.0, 0.0, -1.0], m), [1.0, 1.0])
        # (i, x) of each condition u^(i)(x): i <= m at x = 1, i < m at x = -1
        self.boundary_points = tuple(
            (i, x) for i in range(m + 1) for x in (-1.0, 1.0) if i < m or x > 0.0
        )
        size = self.n_coefficients
        # H[r][d] = D^i x^d at boundary point r = (i, x), an integer matrix
        H = [[math.perm(d, i) * int(x) ** (d - i) if d >= i else 0 for d in range(size)]
             for i, x in self.boundary_points]
        self.lift_matrix = _negated_inverse(H)

    def dimension(self, N: int) -> int:
        """Number of basis functions at truncation N; ValueError for N < order."""
        if N < self.order:
            raise ValueError(f"order-{self.order} system needs N >= {self.order}, got {N}")
        return N - 2 * self.m

    def diagonal(self, k):
        """Diagonal of B = sign D^order: (m+1) (k+1)_m (k+m+2)_m, k int or array.

        Multiplied left to right, so it is bitwise 2.0 * (k+1) * (k+3) for
        order 3 and 3.0 * (k+1) * (k+2) * (k+4) * (k+5) for order 5.
        """
        value = self.m + 1.0
        for i in chain(range(1, self.m + 1), range(self.m + 2, 2 * self.m + 2)):
            value = value * (k + i)
        return value

    def expansion_band(self, weights, count: int) -> np.ndarray:
        """Band rows of sum_q w_q D^q phi_k over the columns k = 0 .. count - 1.

        weights maps derivative orders q = 0 .. order to their factors (a
        missing q weighs nothing).  Row order + d of the (2 order + 1) x count
        result holds the coefficient of R_{k+d} (test family) at column k, so
        the rows are band storage; a row k + d < 0 reads exactly 0.0.

        Every term comes from m through one chain of two-term relations
        between normalized Jacobi coefficients R = P / P(1) (DLMF 18.9),
        run as Horner's rule over q.  With D^q phi_k = c_q (1-x)^(m+1-q)
        (1+x)^(m-q) R_{k+q}^{(m+1-q, m-q)}, c_q = (-2)^q (m+2-q)_q, for q <= m,
        the sum starts as w_0 at offset 0 in index (m+1, m); each q absorbs
        (1+x) and (1-x) and adds w_q c_q at offset q.  One more (1-x) reaches
        Legendre (0, 0); raising b gives index (0, 1), where D^(m+1) phi_k =
        -C R_{k+m} with C = (-2)^m (m+1)!; each r = 1 .. m raises a and b,
        and D^(m+1+r) phi_k = lead_r R_{k+m-r}^{(r, r+1)} there, lead_r =
        lead_{r-1} n (n + 2r) / (2r) with n = k + m - r + 1.  That is 4m + 2
        relations, ending in the test index (m, m+1) with lead_m = sign B_kk.
        A relation acts on every row and column at once through views of two
        coefficient vectors over the degrees, which read 0.0 at negative
        degrees; a column depends on its k alone.
        """
        m, order = self.m, self.order
        rows, size = 2 * order + 1, count + 2 * order
        # shift[p] is j + p/2 over the degrees j = 0 .. count + order - 1
        half = np.arange(0, count + 3 * order, 0.5)
        shift = np.ndarray((4 * order + 1, count + order), float, half, 0, (8, 16))

        stack, part = np.zeros((rows, count)), np.empty((rows, count))
        x, y = np.zeros(size), np.zeros(size)
        xs, ys = x[order:], y[order:]  # slots below `order` are negative degrees
        # x and y at the degree of row i, column c: slot c + i
        X, Y = (np.ndarray((rows, count), float, v, 0, (8, 8)) for v in (x, y))
        lo, hi = order, order - 1  # the rows that hold nonzeros: none yet

        def add(row, term):
            nonlocal lo, hi
            stack[row] += term
            lo, hi = min(lo, row), max(hi, row)

        def relate(step):
            """R_j = x(j) R'_j + y(j) R'_{j+step}: every row to itself and its neighbour."""
            nonlocal lo, hi
            src, sent = stack[lo:hi + 1], part[:hi + 1 - lo]
            np.multiply(src, Y[lo:hi + 1], out=sent)
            src *= X[lo:hi + 1]
            stack[lo + step:hi + 1 + step] += sent
            lo, hi = min(lo, lo + step), max(hi, hi + step)

        def absorb(a, b, plus):
            """(1+x) R_j = [(j+b) R_j + (j+a+1) R_{j+1}] / K, (a, b) -> (a, b-1), or
            (1-x) R_j = a [R_j - R_{j+1}] / K, (a, b) -> (a-1, b); K = j + (a+b+1)/2."""
            if lo > hi:
                return
            k = shift[a + b + 1]
            if plus:
                np.divide(shift[2 * b], k, out=xs)
                np.divide(shift[2 * a + 2], k, out=ys)
            else:
                np.divide(a, k, out=xs)
                np.negative(xs, out=ys)
            relate(1)

        def promote(a, b, in_a):
            """R_j = [(j+a+b+1) R'_j + j R'_{j-1}] / s, (a, b) -> (a, b+1), or
            R_j = [(j+a+b+1)(j+a+1) R'_j - j(j+b) R'_{j-1}] / ((a+1) s),
            (a, b) -> (a+1, b); s = 2j + a + b + 1.  Both pairs of factors
            sum to one, so y = 1 - x."""
            if lo > hi:
                return
            np.divide(shift[2 * (a + b + 1)], shift[a + b + 1], out=xs)
            if in_a:
                np.multiply(xs, shift[2 * a + 2], out=xs)
            np.divide(xs, 2 * (a + 1) if in_a else 2, out=xs)
            np.subtract(1.0, xs, out=ys)
            relate(-1)

        if weights.get(0, 0.0):
            add(order, weights[0])
        for q in range(1, m + 1):
            absorb(m + 2 - q, m + 1 - q, plus=True)
            absorb(m + 2 - q, m - q, plus=False)
            if weights.get(q, 0.0):
                add(order + q, weights[q] * (-2.0) ** q * math.prod(range(m + 2 - q, m + 2)))
        absorb(1, 0, plus=False)
        promote(0, 0, in_a=False)
        lead = -(-2.0) ** m * math.factorial(m + 1)
        if weights.get(m + 1, 0.0):
            add(order + m, weights[m + 1] * lead)
        for r in range(1, m + 1):
            promote(r - 1, r, in_a=True)
            promote(r, r, in_a=False)
            # times n (n + 2r) / (2r), n = k + m - r + 1: exact integers
            lead = lead * shift[2 * (m - r + 1)][:count]
            lead *= shift[2 * (m + r + 1)][:count]
            lead /= 2 * r
            if weights.get(m + 1 + r, 0.0):
                add(order + m - r, np.multiply(lead, weights[m + 1 + r], out=part[0]))
        return stack

    def weights(self, coefficients) -> dict[int, float]:
        """Signed weight of D^q in the operator, q = order .. 0 (leading one)."""
        if len(coefficients) != self.n_coefficients:
            raise ValueError(
                f"order {self.order} needs {self.n_coefficients} operator "
                f"coefficients, got {len(coefficients)}"
            )
        return {q: self.signs[q] * c for q, c in zip(self.signs, (1.0, *coefficients))}


SPECS: dict[int, OrderSpec] = {
    3: OrderSpec(
        order=3,
        bc=ThirdOrderBC,
        problem=ThirdOrderProblem,
        signs={3: 1.0, 2: -1.0, 1: -1.0, 0: 1.0},
    ),
    5: OrderSpec(
        order=5,
        bc=FifthOrderBC,
        problem=FifthOrderProblem,
        signs={5: -1.0, 4: 1.0, 3: 1.0, 2: -1.0, 1: -1.0, 0: 1.0},
    ),
}


def pinned(route, order: int, name: str):
    """`route` under the per-order `name`, refusing records of the other order.

    The first argument of `route` is a record with an `order` attribute (a
    problem, boundary data or a manufactured family).
    """

    def pinned_route(record, *args, **kwargs):
        if record.order != order:
            raise ValueError(f"{name} takes an order-{order} record, got an "
                             f"order-{record.order} {type(record).__name__}")
        return route(record, *args, **kwargs)

    pinned_route.__name__ = pinned_route.__qualname__ = name
    pinned_route.__doc__ = route.__doc__
    return pinned_route


def order_spec(order: int) -> OrderSpec:
    """The spec of a supported order; ValueError for any other."""
    try:
        return SPECS[order]
    except KeyError:
        raise ValueError(f"order must be 3 or 5, got {order}") from None

"""Per-order data of the dual Petrov-Galerkin construction.

Orders 3 and 5 are the m = 1, 2 cases of one construction of order 2m + 1:
trial phi_k = (1-x^2)^m (1-x) R_k^{(m+1,m)}, test psi_k = (1-x^2)^m (1+x)
R_k^{(m,m+1)}, dimension N - 2m, bandwidth and coefficient count 2m + 1.
`OrderSpec` derives these from m and tabulates only what differs: the
boundary-data and problem records, operator signs, B1/B2 diagonal,
monomial tables, closed-form lift and the derivative expansions.  The
expansions are data: one row per (q, d) holding the constants and rising
factorials (k+a)_j of the closed form of the coefficient of R_{k+d} in
D^q phi_k.  `OrderSpec.expansion_blocks` evaluates all rows of an order
over blocks of consecutive columns in one pass: one half-step sequence
holds every shift k + a of the block and one product per length extends
it to every rising factorial, each formed once, and every coefficient is
formed in the association of the written-out formula, so it is bitwise
what the formula gives; an offset whose row k + d is negative reads
exactly 0.0.  `OrderSpec.expansion_table(q, k)` is the offset-keyed view
of that pass at an int or an array of consecutive columns.  `order_spec`
is the one place that accepts or rejects an order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain
from numbers import Real
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


def _require_finite(record) -> None:
    """Reject a NaN or infinite number in any real field of a data record."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Real) and not math.isfinite(value):
            raise ValueError(
                f"{type(record).__name__}.{f.name} must be finite, got {value}"
            )


@dataclass(frozen=True)
class ThirdOrderBC:
    """Boundary data u(-1) = a_minus, u(1) = a_plus, u'(1) = a1_plus."""

    order: ClassVar[int] = 3
    a_minus: float = 0.0
    a_plus: float = 0.0
    a1_plus: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)

    @property
    def is_homogeneous(self) -> bool:
        return self.a_minus == self.a_plus == self.a1_plus == 0.0


@dataclass(frozen=True)
class FifthOrderBC:
    """Boundary data u(+-1), u'(+-1), u''(1)."""

    order: ClassVar[int] = 5
    a_minus: float = 0.0
    a_plus: float = 0.0
    a1_minus: float = 0.0
    a1_plus: float = 0.0
    a2_plus: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)

    @property
    def is_homogeneous(self) -> bool:
        return (
            self.a_minus == self.a_plus == self.a1_minus
            == self.a1_plus == self.a2_plus == 0.0
        )


@dataclass(frozen=True)
class ThirdOrderProblem:
    """u''' - alpha1 u'' - beta1 u' + gamma1 u = rhs on (-1, 1)."""

    order: ClassVar[int] = 3
    alpha1: float
    beta1: float
    gamma1: float
    rhs: Callable[[np.ndarray], np.ndarray]
    bc: ThirdOrderBC = field(default_factory=ThirdOrderBC)

    def __post_init__(self) -> None:
        _require_finite(self)

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return (self.alpha1, self.beta1, self.gamma1)


@dataclass(frozen=True)
class FifthOrderProblem:
    """-u''''' + alpha2 u'''' + beta2 u''' - gamma2 u'' - delta2 u' + mu2 u = rhs."""

    order: ClassVar[int] = 5
    alpha2: float
    beta2: float
    gamma2: float
    delta2: float
    mu2: float
    rhs: Callable[[np.ndarray], np.ndarray]
    bc: FifthOrderBC = field(default_factory=FifthOrderBC)

    def __post_init__(self) -> None:
        _require_finite(self)

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.alpha2, self.beta2, self.gamma2, self.delta2, self.mu2)


def _b1_diagonal(k):
    """Diagonal of B1: D^3 phi_k = 2 (k+1)(k+3) R_k^{(1,2)}; k int or array."""
    return 2.0 * (k + 1) * (k + 3)


def _b2_diagonal(k):
    """Diagonal of B2: -D^5 phi_k = 3 (k+1)(k+2)(k+4)(k+5) R_k^{(2,3)}."""
    return 3.0 * (k + 1) * (k + 2) * (k + 4) * (k + 5)


# --- expansion coefficient rows ------------------------------------------
#
# D^order phi_k = sign B_kk R_k, the duality of the two families.  For
# q < order, row (q, d) of an order gives the coefficient of R_{k+d} (test
# family) in D^q phi_k, for every column k at once, as
#
#     c (k+a1)_j1 (k+a2)_j2 / (c' (k+b1)_i1 (k+b2)_i2),
#
# written (q, d, c, c', a1, j1, a2, j2, b1, i1, b2, i2); a length 0 is the
# empty product and c' is a power of two.  Each product is formed left to right and each rising
# factorial as the prefix product (k+a) (k+a+1) ... of `jacobi.pochhammer`,
# so every coefficient is rounded exactly as the closed form written out
# term by term.  Rising factorials with nonpositive bases truncate the
# out-of-range terms: a row k + d < 0 reads exactly 0.0.  Rows run over
# q = order - 1 .. 0 and, within q, over d = q - order .. order - q; every
# row has a first numerator and a first denominator factor.

MIN_BLOCK = 256  # columns below which a bound on the tables never splits a pass

_THIRD_ROWS = (
    # q  d       c     c'     a1 j1     a2 j2     b1 i1     b2 i2
    (2, -1,   -2.0,   2.0,     0, 2,     0, 0,   1.5, 1,     0, 0),
    (2,  0,   -1.0,   1.0,     1, 1,     3, 1,   1.5, 2,     0, 0),
    (2,  1,    2.0,   2.0,     3, 2,     0, 0,   2.5, 1,     0, 0),
    (1, -2,    1.0,   2.0,    -1, 3,     0, 0,     2, 1,   0.5, 2),
    (1, -1,    1.0,   1.0,     0, 2,     0, 0,   0.5, 3,     0, 0),
    (1,  0,   -1.0,   1.0,     1, 1,     3, 1,   1.5, 2,     0, 0),
    (1,  1,   -1.0,   1.0,     3, 2,     0, 0,   1.5, 3,     0, 0),
    (1,  2,    1.0,   2.0,     3, 3,     0, 0,     2, 1,   2.5, 2),
    (0, -3,   -1.0,   4.0,    -2, 3,     0, 0,     2, 1,  -0.5, 3),
    (0, -2,   -3.0,   4.0,    -1, 3,     0, 0,     2, 1,  -0.5, 4),
    (0, -1,    3.0,   4.0,     0, 2,     0, 0,   0.5, 3,     0, 0),
    (0,  0,    3.0,   2.0,     1, 1,     3, 1,   0.5, 4,     0, 0),
    (0,  1,   -3.0,   4.0,     3, 2,     0, 0,   1.5, 3,     0, 0),
    (0,  2,   -3.0,   4.0,     3, 3,     0, 0,     2, 1,   1.5, 4),
    (0,  3,    1.0,   4.0,     4, 3,     0, 0,     2, 1,   2.5, 3),
)

_FIFTH_ROWS = (
    # q  d       c     c'     a1 j1     a2 j2     b1 i1     b2 i2
    (4, -1,    3.0,   2.0,     0, 3,     4, 1,   2.5, 1,     0, 0),
    (4,  0,    3.0,   2.0,     1, 2,     4, 2,   2.5, 2,     0, 0),
    (4,  1,   -3.0,   2.0,     2, 1,     4, 3,   3.5, 1,     0, 0),
    (3, -2,   -3.0,   4.0,    -1, 4,     0, 0,   1.5, 2,     0, 0),
    (3, -1,   -3.0,   2.0,     0, 3,     4, 1,   1.5, 3,     0, 0),
    (3,  0,    3.0,   2.0,     1, 2,     4, 2,   2.5, 2,     0, 0),
    (3,  1,    3.0,   2.0,     2, 1,     4, 3,   2.5, 3,     0, 0),
    (3,  2,   -3.0,   4.0,     4, 4,     0, 0,   3.5, 2,     0, 0),
    (2, -3,    3.0,   8.0,    -2, 5,     0, 0,     3, 1,   0.5, 3),
    (2, -2,    9.0,   8.0,    -1, 4,     0, 0,   0.5, 4,     0, 0),
    (2, -1,   -9.0,   8.0,     0, 3,     4, 1,   1.5, 3,     0, 0),
    (2,  0,   -9.0,   4.0,     1, 2,     4, 2,   1.5, 4,     0, 0),
    (2,  1,    9.0,   8.0,     2, 1,     4, 3,   2.5, 3,     0, 0),
    (2,  2,    9.0,   8.0,     4, 4,     0, 0,   2.5, 4,     0, 0),
    (2,  3,   -3.0,   8.0,     4, 5,     0, 0,     3, 1,   3.5, 3),
    (1, -4,   -3.0,  16.0,    -3, 5,     0, 0,     3, 1,  -0.5, 4),
    (1, -3,   -3.0,   4.0,    -2, 5,     0, 0,     3, 1,  -0.5, 5),
    (1, -2,    3.0,   4.0,    -1, 4,     0, 0,   0.5, 4,     0, 0),
    (1, -1,    9.0,   4.0,     0, 3,     4, 1,   0.5, 5,     0, 0),
    (1,  0,   -9.0,   8.0,     1, 2,     4, 2,   1.5, 4,     0, 0),
    (1,  1,   -9.0,   4.0,     2, 1,     4, 3,   1.5, 5,     0, 0),
    (1,  2,    3.0,   4.0,     4, 4,     0, 0,   2.5, 4,     0, 0),
    (1,  3,    3.0,   4.0,     4, 5,     0, 0,     3, 1,   2.5, 5),
    (1,  4,   -3.0,  16.0,     5, 5,     0, 0,     3, 1,   3.5, 4),
    (0, -5,    3.0,  32.0,    -4, 5,     0, 0,     3, 1,  -1.5, 5),
    (0, -4,   15.0,  32.0,    -3, 5,     0, 0,     3, 1,  -1.5, 6),
    (0, -3,  -15.0,  32.0,    -2, 5,     0, 0,     3, 1,  -0.5, 5),
    (0, -2,  -15.0,   8.0,    -1, 4,     0, 0,  -0.5, 6,     0, 0),
    (0, -1,   15.0,  16.0,     0, 3,     4, 1,   0.5, 5,     0, 0),
    (0,  0,   45.0,  16.0,     1, 2,     4, 2,   0.5, 6,     0, 0),
    (0,  1,  -15.0,  16.0,     2, 1,     4, 3,   1.5, 5,     0, 0),
    (0,  2,  -15.0,   8.0,     4, 4,     0, 0,   1.5, 6,     0, 0),
    (0,  3,   15.0,  32.0,     4, 5,     0, 0,     3, 1,   2.5, 5),
    (0,  4,   15.0,  32.0,     5, 5,     0, 0,     3, 1,   2.5, 6),
    (0,  5,   -3.0,  32.0,     6, 5,     0, 0,     3, 1,   3.5, 5),
)


def _evaluate_rows(rows, columns: range, weights: np.ndarray, max_bytes: int | None):
    """Yield (lo, values): w_i times row i at columns[lo:lo + m] in values[i].

    One pass serves every row.  Over consecutive columns k = k0 + j a
    rising factorial depends on k + a alone, and every base a lies on a
    half-integer grid from lo, so per block one sequence per length t,

        G_t[p] = (x_p)_t,  x_p = k0 + lo + p/2,

    holds every rising factorial of that length the rows name: (k+a)_t at
    column j is G_t[2 (a - lo) + 2 j].  G_1 is the half-step sequence x_p
    itself, one add, and G_t = G_{t-1} (x_p + t - 1) one multiply per
    length, the prefix products of `jacobi.pochhammer`.  One fancy index
    into a strided view of the sequences gathers one factor slot of every
    row (an empty product reads the row of ones); the numerators take c/c'
    and their second factors, the denominators their second factors, each
    numerator is divided by its denominator and the quotient is scaled by
    its row's weight (the column `weights`).  A block has as many columns
    as keep its sequences and products within max_bytes, but at least
    MIN_BLOCK (all columns if None).  The buffers are reused, so each
    yielded array is overwritten by the next block.
    """
    n, count = len(rows), len(columns)
    spec = np.fromiter(chain.from_iterable(rows), float, 12 * n).reshape(n, 12)
    # c' is a power of two, so (c/c') (k+a1)_j1 ... / ((k+b1)_i1 ...) rounds
    # exactly as c (k+a1)_j1 ... / (c' (k+b1)_i1 ...): a power-of-two scale
    # commutes with every rounding
    scales = (spec[:, 2] / spec[:, 3])[:, None]
    bases, lengths = spec[:, 4::2], spec[:, 5::2].astype(np.intp)
    lo, longest = bases.min(), lengths.max()
    steps = (2 * (bases - lo)).astype(np.intp)
    # per column: the products, a gather of their size and the sequences
    width = count if max_bytes is None else max(
        MIN_BLOCK, max_bytes // (8 * (3 * n + 2 * longest)))
    width = min(width, count)
    reach = steps.max() + 2 * width - 1  # entries of each G_t a block reads
    half_steps = 0.5 * np.arange(reach + 2 * longest - 2)
    # row 0 holds ones, the empty product, and row t holds G_t, so (k+a)_t
    # at block column j is sequences.flat[at + 2 j]
    sequences = np.empty((longest + 1, half_steps.size))
    sequences[0] = 1.0
    at = (lengths * half_steps.size + steps).T
    products_buf = np.empty(2 * n * width)
    for start in range(0, count, width):
        m = min(width, count - start)
        used = reach - 2 * (width - m)
        x = sequences[1, :used + 2 * longest - 2]
        np.add(half_steps[:x.size], columns[start] + lo, out=x)
        for t in range(2, longest + 1):
            np.multiply(sequences[t - 1, :used], sequences[1, 2 * t - 2:2 * t - 2 + used],
                        out=sequences[t, :used])
        table = np.ndarray((sequences.size - 2 * m + 2, m), float, sequences, 0, (8, 16))
        num, den = products_buf[:2 * n * m].reshape(2, n, m)
        np.multiply(table[at[0]], scales, out=num)
        num *= table[at[1]]
        den[...] = table[at[2]]
        den *= table[at[3]]
        np.divide(num, den, out=num)
        num *= weights
        yield start, num


def _lift_third(bc: ThirdOrderBC) -> tuple[float, float, float]:
    """Quadratic lift turning the order-3 boundary data homogeneous."""
    am, ap, a1p = bc.a_minus, bc.a_plus, bc.a1_plus
    a0 = (-am - 3.0 * ap + 2.0 * a1p) / 4.0
    a1 = (am - ap) / 2.0
    a2 = (-am + ap - 2.0 * a1p) / 4.0
    return (a0, a1, a2)


def _lift_fifth(bc: FifthOrderBC) -> tuple[float, float, float, float, float]:
    """Quartic lift for the order-5 boundary data (interpolates all five)."""
    am, ap = bc.a_minus, bc.a_plus
    a1m, a1p, a2p = bc.a1_minus, bc.a1_plus, bc.a2_plus
    a0 = (-2.0 * a1m + 8.0 * a1p - 2.0 * a2p - 5.0 * am - 11.0 * ap) / 16.0
    a1 = (a1m + a1p + 3.0 * am - 3.0 * ap) / 4.0
    a2 = (-6.0 * a1p + 2.0 * a2p - 3.0 * am + 3.0 * ap) / 8.0
    a3 = (-a1m - a1p - am + ap) / 4.0
    a4 = (-2.0 * a2p + 4.0 * a1p + 2.0 * a1m + 3.0 * am - 3.0 * ap) / 16.0
    return (a0, a1, a2, a3, a4)


@dataclass(eq=False)
class OrderSpec:
    """Everything order-dependent about one odd order 2m + 1.

    The fields are the tabulated data; `__post_init__` derives the rest
    from m.  `SPECS` holds one instance per supported order.
    """

    order: int
    bc: type  # boundary-data record, fields in `boundary_points` order
    problem: type  # problem record, operator coefficients first
    signs: dict[int, float]  # sign of D^q in the operator, q = order .. 0
    expansion_rows: tuple  # closed forms of the D^q phi_k expansions, q < order
    diagonal: Callable  # diagonal of B = +-D^order in the test family
    mono_to_test: tuple[tuple[float, ...], ...]  # x^d = sum_i [d][i] R_i, test family
    lift: Callable  # closed-form lift coefficients of a `bc` record

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

    def dimension(self, N: int) -> int:
        """Number of basis functions at truncation N."""
        return N - 2 * self.m

    def expansion_blocks(self, columns: range, weights, max_bytes: int | None = None):
        """Yield (lo, stacks) over blocks columns[lo:lo + m] in one pass.

        columns is a range of consecutive columns k; weights maps each
        derivative order q < order to evaluate, in descending q, to the
        factor its stack is multiplied by; max_bytes bounds the tables of a
        block (one block by default).  stacks[q][i] holds w_q times the
        coefficient of R_{k+d} (test family) in D^q phi_k at each column of
        the block, d = i - (order - q): the offsets q - order .. order - q,
        so offset 0 sits in the middle.  All of them come from one pass
        over their rows of `expansion_rows`.  Each stack is overwritten by
        the next block.
        """
        rows, spans, scale = [], [], []
        for q, w in weights.items():
            # the 2 (order - q) + 1 rows of q follow the (order - q)^2 - 1
            # rows of the higher orders
            first = (self.order - q) ** 2 - 1
            block = self.expansion_rows[first:first + 2 * (self.order - q) + 1]
            spans.append((q, len(rows), len(rows) + len(block)))
            rows += block
            scale += [w] * len(block)
        for lo, values in _evaluate_rows(rows, columns, np.array(scale)[:, None], max_bytes):
            yield lo, {q: values[a:b] for q, a, b in spans}

    def expansion_table(self, q: int, k) -> dict:
        """{d: coefficient of R_{k+d} in D^q phi_k}, d = order - q .. q - order.

        At an int k (float values) or a 1-d array of consecutive int columns
        (an array per offset): sign * diagonal(k) for q = order, otherwise a
        view of one `expansion_blocks` pass.
        """
        if not 0 <= q <= self.order:
            raise ValueError(
                f"order-{self.order} expansion defined for q in 0..{self.order}, got {q}"
            )
        cols = np.atleast_1d(k)
        first = int(cols[0])
        if cols.ndim != 1 or not np.array_equal(cols, np.arange(first, first + cols.size)):
            raise ValueError("expansion_table needs an int or consecutive int columns")
        if q == self.order:
            stack = self.signs[q] * self.diagonal(cols.astype(float))[None]
        else:
            _, stacks = next(self.expansion_blocks(range(first, first + cols.size), {q: 1.0}))
            stack = stacks[q]
        reach = self.order - q
        offsets = range(reach, -reach - 1, -1)
        if np.ndim(k) == 0:
            return {d: float(stack[reach + d][0]) for d in offsets}
        return {d: stack[reach + d] for d in offsets}

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
        expansion_rows=_THIRD_ROWS,
        diagonal=_b1_diagonal,
        mono_to_test=(
            (1.0,),
            (1.0 / 5.0, 4.0 / 5.0),
            (1.0 / 5.0, 8.0 / 35.0, 4.0 / 7.0),
        ),
        lift=_lift_third,
    ),
    5: OrderSpec(
        order=5,
        bc=FifthOrderBC,
        problem=FifthOrderProblem,
        signs={5: -1.0, 4: 1.0, 3: 1.0, 2: -1.0, 1: -1.0, 0: 1.0},
        expansion_rows=_FIFTH_ROWS,
        diagonal=_b2_diagonal,
        mono_to_test=(
            (1.0,),
            (1.0 / 7.0, 6.0 / 7.0),
            (1.0 / 7.0, 4.0 / 21.0, 2.0 / 3.0),
            (1.0 / 21.0, 2.0 / 7.0, 2.0 / 11.0, 16.0 / 33.0),
            (1.0 / 21.0, 8.0 / 77.0, 4.0 / 11.0, 64.0 / 429.0, 48.0 / 143.0),
        ),
        lift=_lift_fifth,
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

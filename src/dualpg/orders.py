"""Per-order data of the dual Petrov-Galerkin construction.

Orders 3 and 5 are the m = 1, 2 cases of one construction of order 2m + 1:
trial phi_k = (1-x^2)^m (1-x) R_k^{(m+1,m)}, test psi_k = (1-x^2)^m (1+x)
R_k^{(m,m+1)}, dimension N - 2m, bandwidth and coefficient count 2m + 1.
`OrderSpec` derives these from m and tabulates only what differs: the
boundary-data and problem records, operator signs, closed-form derivative
expansions (offset-keyed tables over an int or an array of columns k;
an offset whose row k + d is negative reads exactly 0.0 and callers
filter it), B1/B2 diagonal, monomial tables and closed-form lift.
`order_spec` is the one place that accepts or rejects an order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Real
from typing import Callable, ClassVar

import numpy as np

from .jacobi import JacobiParams, pochhammer

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


# --- expansion coefficient tables -----------------------------------------
#
# _third_table(q, k)[d] = coefficient of R_{k+d}^{(1,2)} in D^q phi_k, and
# _fifth_table(q, k)[d] = coefficient of R_{k+d}^{(2,3)} in D^q phi_k, for an
# int k or an int array k (one coefficient per column).  Pochhammer factors
# with nonpositive bases truncate the out-of-range terms.

def _third_table(q: int, k):
    """Offset-keyed R^{(1,2)}-expansion of D^q phi_k for the order-3 basis."""
    if q == 3:
        terms = {0: _b1_diagonal(k)}
    elif q == 2:
        terms = {
            1: 2.0 * pochhammer(k + 3, 2) / (2 * k + 5),
            0: -(k + 1) * (k + 3) / pochhammer(k + 1.5, 2),
            -1: -2.0 * pochhammer(k, 2) / (2 * k + 3),
        }
    elif q == 1:
        terms = {
            2: pochhammer(k + 3, 3) / (2.0 * (k + 2) * pochhammer(k + 2.5, 2)),
            1: -pochhammer(k + 3, 2) / pochhammer(k + 1.5, 3),
            0: -(k + 1) * (k + 3) / pochhammer(k + 1.5, 2),
            -1: pochhammer(k, 2) / pochhammer(k + 0.5, 3),
            -2: pochhammer(k - 1, 3) / (2.0 * (k + 2) * pochhammer(k + 0.5, 2)),
        }
    elif q == 0:
        terms = {
            3: pochhammer(k + 4, 3) / (4.0 * (k + 2) * pochhammer(k + 2.5, 3)),
            2: -3.0 * pochhammer(k + 3, 3) / (4.0 * (k + 2) * pochhammer(k + 1.5, 4)),
            1: -3.0 * pochhammer(k + 3, 2) / (4.0 * pochhammer(k + 1.5, 3)),
            0: 3.0 * (k + 1) * (k + 3) / (2.0 * pochhammer(k + 0.5, 4)),
            -1: 3.0 * pochhammer(k, 2) / (4.0 * pochhammer(k + 0.5, 3)),
            -2: -3.0 * pochhammer(k - 1, 3) / (4.0 * (k + 2) * pochhammer(k - 0.5, 4)),
            -3: -pochhammer(k - 2, 3) / (4.0 * (k + 2) * pochhammer(k - 0.5, 3)),
        }
    else:
        raise ValueError(f"third-order expansion defined for q in 0..3, got {q}")
    return terms


def _fifth_table(q: int, k):
    """Offset-keyed R^{(2,3)}-expansion of D^q phi_k for the order-5 basis."""
    if q == 5:
        terms = {0: -_b2_diagonal(k)}
    elif q == 4:
        terms = {
            1: -3.0 * (k + 2) * pochhammer(k + 4, 3) / (2 * k + 7),
            0: 3.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (2.0 * pochhammer(k + 2.5, 2)),
            -1: 3.0 * pochhammer(k, 3) * (k + 4) / (2 * k + 5),
        }
    elif q == 3:
        terms = {
            2: -3.0 * pochhammer(k + 4, 4) / (4.0 * pochhammer(k + 3.5, 2)),
            1: 3.0 * (k + 2) * pochhammer(k + 4, 3) / (2.0 * pochhammer(k + 2.5, 3)),
            0: 3.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (2.0 * pochhammer(k + 2.5, 2)),
            -1: -3.0 * pochhammer(k, 3) * (k + 4) / (2.0 * pochhammer(k + 1.5, 3)),
            -2: -3.0 * pochhammer(k - 1, 4) / (4.0 * pochhammer(k + 1.5, 2)),
        }
    elif q == 2:
        terms = {
            3: -3.0 * pochhammer(k + 4, 5) / (8.0 * (k + 3) * pochhammer(k + 3.5, 3)),
            2: 9.0 * pochhammer(k + 4, 4) / (8.0 * pochhammer(k + 2.5, 4)),
            1: 9.0 * (k + 2) * pochhammer(k + 4, 3) / (8.0 * pochhammer(k + 2.5, 3)),
            0: -9.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (4.0 * pochhammer(k + 1.5, 4)),
            -1: -9.0 * pochhammer(k, 3) * (k + 4) / (8.0 * pochhammer(k + 1.5, 3)),
            -2: 9.0 * pochhammer(k - 1, 4) / (8.0 * pochhammer(k + 0.5, 4)),
            -3: 3.0 * pochhammer(k - 2, 5) / (8.0 * (k + 3) * pochhammer(k + 0.5, 3)),
        }
    elif q == 1:
        terms = {
            4: -3.0 * pochhammer(k + 5, 5) / (16.0 * (k + 3) * pochhammer(k + 3.5, 4)),
            3: 3.0 * pochhammer(k + 4, 5) / (4.0 * (k + 3) * pochhammer(k + 2.5, 5)),
            2: 3.0 * pochhammer(k + 4, 4) / (4.0 * pochhammer(k + 2.5, 4)),
            1: -9.0 * (k + 2) * pochhammer(k + 4, 3) / (4.0 * pochhammer(k + 1.5, 5)),
            0: -9.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (8.0 * pochhammer(k + 1.5, 4)),
            -1: 9.0 * pochhammer(k, 3) * (k + 4) / (4.0 * pochhammer(k + 0.5, 5)),
            -2: 3.0 * pochhammer(k - 1, 4) / (4.0 * pochhammer(k + 0.5, 4)),
            -3: -3.0 * pochhammer(k - 2, 5) / (4.0 * (k + 3) * pochhammer(k - 0.5, 5)),
            -4: -3.0 * pochhammer(k - 3, 5) / (16.0 * (k + 3) * pochhammer(k - 0.5, 4)),
        }
    elif q == 0:
        terms = {
            5: -3.0 * pochhammer(k + 6, 5) / (32.0 * (k + 3) * pochhammer(k + 3.5, 5)),
            4: 15.0 * pochhammer(k + 5, 5) / (32.0 * (k + 3) * pochhammer(k + 2.5, 6)),
            3: 15.0 * pochhammer(k + 4, 5) / (32.0 * (k + 3) * pochhammer(k + 2.5, 5)),
            2: -15.0 * pochhammer(k + 4, 4) / (8.0 * pochhammer(k + 1.5, 6)),
            1: -15.0 * (k + 2) * pochhammer(k + 4, 3) / (16.0 * pochhammer(k + 1.5, 5)),
            0: 45.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (16.0 * pochhammer(k + 0.5, 6)),
            -1: 15.0 * pochhammer(k, 3) * (k + 4) / (16.0 * pochhammer(k + 0.5, 5)),
            -2: -15.0 * pochhammer(k - 1, 4) / (8.0 * pochhammer(k - 0.5, 6)),
            -3: -15.0 * pochhammer(k - 2, 5) / (32.0 * (k + 3) * pochhammer(k - 0.5, 5)),
            -4: 15.0 * pochhammer(k - 3, 5) / (32.0 * (k + 3) * pochhammer(k - 1.5, 6)),
            -5: 3.0 * pochhammer(k - 4, 5) / (32.0 * (k + 3) * pochhammer(k - 1.5, 5)),
        }
    else:
        raise ValueError(f"fifth-order expansion defined for q in 0..5, got {q}")
    return terms


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
    expansion_table: Callable  # (q, k) -> {offset: coefficient} of D^q phi_k, test family
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
        expansion_table=_third_table,
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
        expansion_table=_fifth_table,
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


def order_spec(order: int) -> OrderSpec:
    """The spec of a supported order; ValueError for any other."""
    try:
        return SPECS[order]
    except KeyError:
        raise ValueError(f"order must be 3 or 5, got {order}") from None

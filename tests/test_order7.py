"""Order 7 (m = 3) from records and signs alone, installed into SPECS here.

Nothing in the package knows order 7: these tests register an `OrderSpec`
built from test-local boundary-data and problem records with all operator
signs +1, the leading one (-1)^(m+1) of orders 3 and 5 included, and run
the general route on it.
"""
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np
import pytest

from dualpg.analysis import condition_full, max_pointwise_error, solve
from dualpg.assembly import boundary_lift, operator_matrix, operator_oracle_matrix
from dualpg.orders import SPECS, OrderSpec

P = np.polynomial.polynomial
ONES = (1.0,) * 7


@dataclass(frozen=True)
class SeventhOrderBC:
    """u(+-1), u'(+-1), u''(+-1), u'''(1), in `boundary_points` order."""

    order: ClassVar[int] = 7
    a_minus: float = 0.0
    a_plus: float = 0.0
    a1_minus: float = 0.0
    a1_plus: float = 0.0
    a2_minus: float = 0.0
    a2_plus: float = 0.0
    a3_plus: float = 0.0

    @property
    def is_homogeneous(self) -> bool:
        return all(getattr(self, f.name) == 0.0 for f in fields(self))


@dataclass(frozen=True)
class SeventhOrderProblem:
    """u^(7) + c6 u^(6) + ... + c0 u = rhs on (-1, 1)."""

    order: ClassVar[int] = 7
    c6: float
    c5: float
    c4: float
    c3: float
    c2: float
    c1: float
    c0: float
    rhs: Callable[[np.ndarray], np.ndarray]
    bc: SeventhOrderBC = field(default_factory=SeventhOrderBC)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return (self.c6, self.c5, self.c4, self.c3, self.c2, self.c1, self.c0)


@pytest.fixture
def spec(monkeypatch):
    seventh = OrderSpec(
        order=7,
        bc=SeventhOrderBC,
        problem=SeventhOrderProblem,
        signs={q: 1.0 for q in range(7, -1, -1)},
    )
    monkeypatch.setitem(SPECS, 7, seventh)
    return seventh


@pytest.mark.parametrize("N,bound", [(12, 1.5e-14), (20, 4.5e-13)])
def test_operator_matrix_matches_oracle(spec, N, bound):
    assembled = operator_matrix(7, ONES, N).to_dense()
    oracle = operator_oracle_matrix(7, ONES, N)
    assert np.max(np.abs(assembled - oracle)) <= bound * np.max(np.abs(oracle))


@pytest.mark.parametrize("N", [40, 64])
def test_manufactured_polynomial_solution(spec, N):
    # (1-x)^4 (1+x)^3 p(x) meets the seven homogeneous conditions; with p
    # of degree 25 it has degree 32, inside the trial space for N >= 32
    exact = P.polymul(P.polymul(P.polypow([1.0, -1.0], 4), P.polypow([1.0, 1.0], 3)),
                      np.cos(np.arange(26.0)))
    rhs = sum(w * np.pad(P.polyder(exact, q), (0, q))
              for q, w in spec.weights(ONES).items())
    problem = SeventhOrderProblem(*ONES, rhs=lambda x: P.polyval(x, rhs))
    solution = solve(problem, N)
    assert max_pointwise_error(solution, lambda x: P.polyval(x, exact)) <= 8e-12


def test_lift_meets_the_seven_conditions(spec):
    data = (0.5, -1.0, 2.0, 0.25, -3.0, 1.5, 4.0)
    lift = boundary_lift(SeventhOrderBC(*data))
    # u_N carries minus the lift, so -lift takes the boundary data
    u = -np.asarray(lift.coefficients)
    values = [P.polyval(x, P.polyder(u, i)) for i, x in spec.boundary_points]
    assert np.max(np.abs(np.subtract(values, data))) <= 1e-14 * max(map(abs, data))


def test_condition_grows_as_N_to_the_2m(spec):
    conds = {N: condition_full(7, N).cond for N in (16, 24, 32, 40)}
    assert conds == pytest.approx(
        {16: 3711.265, 24: 69717.33, 32: 491413.9, 40: 2134259.0}, rel=1e-6
    )
    growth = np.log(conds[40] / conds[32]) / np.log(40 / 32)
    assert 5.5 <= growth <= 7.5

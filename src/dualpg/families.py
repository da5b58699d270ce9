"""Built-in manufactured-solution families.

Each family carries a closed-form exact solution whose derivatives (up to
order five) are differentiated analytically: solutions are finite sums of
polynomial * {sin, cos} or polynomial * {sinh, cosh} terms, a class closed
under d/dx, so right-hand sides are exact and convergence tables are never
polluted by differentiation error.

  family 1 (order 3): u = (1 - x^2) x^j sin(m pi x), integer j, m >= 1;
                      homogeneous data u(+-1) = u'(1) = 0
  family 2 (order 5): u = (1 - x^2)^2 (1 - x) cosh(m x), real m;
                      homogeneous data u(+-1) = u'(+-1) = u''(1) = 0
  family 3 (order 3): u = sinh(m x), real m; nonhomogeneous data
                      u(+-1) = +-sinh m, u'(1) = m cosh m
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .orders import order_spec, pinned

__all__ = ["TrigPolySum", "ExampleFamily", "make_family"]

_P = np.polynomial.polynomial


@dataclass(frozen=True)
class TrigPolySum:
    """sum over kernels of p_kernel(x) * kernel(omega x), closed under d/dx."""

    omega: float
    terms: tuple[tuple[str, tuple[float, ...]], ...]

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        kernels = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh}
        total = np.zeros(arr.shape)
        for kernel, coeffs in self.terms:
            total = total + _P.polyval(arr, np.asarray(coeffs)) * kernels[kernel](
                self.omega * arr
            )
        return float(total) if arr.ndim == 0 else total

    def derivative(self) -> "TrigPolySum":
        partner = {"sin": ("cos", 1.0), "cos": ("sin", -1.0),
                   "sinh": ("cosh", 1.0), "cosh": ("sinh", 1.0)}
        acc: dict[str, np.ndarray] = {}

        def push(kernel: str, coeffs: np.ndarray) -> None:
            if kernel in acc:
                size = max(len(acc[kernel]), len(coeffs))
                merged = np.zeros(size)
                merged[: len(acc[kernel])] += acc[kernel]
                merged[: len(coeffs)] += coeffs
                acc[kernel] = merged
            else:
                acc[kernel] = np.asarray(coeffs, dtype=float)

        for kernel, coeffs in self.terms:
            poly = np.asarray(coeffs, dtype=float)
            if len(poly) > 1:
                push(kernel, _P.polyder(poly))
            other, sign = partner[kernel]
            push(other, sign * self.omega * poly)
        terms = tuple(
            (kernel, tuple(c)) for kernel, c in sorted(acc.items()) if np.any(c)
        )
        return TrigPolySum(omega=self.omega, terms=terms)


@dataclass(frozen=True)
class ExampleFamily:
    """A manufactured solution with exact derivatives and boundary data."""

    order: int
    exact: TrigPolySum
    derivatives: tuple[TrigPolySum, ...]  # exact, u', ..., u^(5)
    homogeneous: bool = False  # boundary data vanishes structurally

    def rhs(self, coefficients):
        """Right-hand side L u of the family's order for these coefficients."""
        weights = order_spec(self.order).weights(coefficients)
        d = self.derivatives

        def rhs(x):
            return reduce(add, [w * d[q](x) for q, w in weights.items()])

        return rhs

    def bc(self):
        """Boundary data of the exact solution, as the order's BC record."""
        spec = order_spec(self.order)
        if self.homogeneous:
            # exact zeros: evaluating sin(m pi) etc. would leave roundoff
            return spec.bc()
        return spec.bc(*(self.derivatives[i](x) for i, x in spec.boundary_points))

    def problem(self, coefficients):
        """The family's boundary value problem for these operator coefficients."""
        rhs = self.rhs(coefficients)
        return order_spec(self.order).problem(*coefficients, rhs=rhs, bc=self.bc())

    third_order_problem = pinned(problem, 3, "third_order_problem")
    fifth_order_problem = pinned(problem, 5, "fifth_order_problem")


def _with_derivatives(
    order: int, u: TrigPolySum, homogeneous: bool = False
) -> ExampleFamily:
    chain = [u]
    for _ in range(5):
        chain.append(chain[-1].derivative())
    return ExampleFamily(
        order=order, exact=u, derivatives=tuple(chain), homogeneous=homogeneous
    )


def make_family(family_id: int, j: int | None = None, m: float | None = None) -> ExampleFamily:
    """Construct one of the three built-in families; only family 1 takes j."""
    if family_id == 1:
        j = 1 if j is None else j
        m = 1 if m is None else m
        if j < 0 or int(j) != j:
            raise ValueError("family 1 needs an integer j >= 0")
        if m <= 0 or float(m) != int(m):
            raise ValueError("family 1 needs an integer m >= 1 (homogeneous data)")
        j = int(j)
        poly = np.zeros(j + 3)
        poly[j] = 1.0
        poly[j + 2] = -1.0  # (1 - x^2) x^j
        u = TrigPolySum(omega=int(m) * np.pi, terms=(("sin", tuple(poly)),))
        return _with_derivatives(3, u, homogeneous=True)
    if family_id in (2, 3) and j is not None:
        raise ValueError(f"family {family_id} takes no j, got j = {j}")
    if family_id == 2:
        m = 1.0 if m is None else float(m)
        poly = (1.0, -1.0, -2.0, 2.0, 1.0, -1.0)  # (1-x^2)^2 (1-x)
        u = TrigPolySum(omega=m, terms=(("cosh", poly),))
        return _with_derivatives(5, u, homogeneous=True)
    if family_id == 3:
        m = 1.0 if m is None else float(m)
        u = TrigPolySum(omega=m, terms=(("sinh", (1.0,)),))
        return _with_derivatives(3, u)
    raise ValueError(f"family_id must be 1, 2 or 3, got {family_id}")

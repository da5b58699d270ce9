"""Generalized Jacobi polynomials with negative integer indexes.

For l, m <= -1 the definition J_k^{(l,m)} = (1-x)^{-l} (1+x)^{-m}
R_{k-k0}^{(-l,-m)} with k0 = -(l+m) builds the boundary behaviour
D^i J(1) = 0 for i < -l and D^j J(-1) = 0 for j < -m directly into the
basis.  A nonnegative index keeps no factor and enters R as it is, so
`eval_J` reads (1-x)^{max(-l,0)} (1+x)^{max(-m,0)} R_{k-k0}^{(|l|,|m|)}
for every sign, with k0 = max(-l,0) + max(-m,0).  The third- and
fifth-order trial/test pairs used by the solver, `eval_phi` and
`eval_psi`, are

    order 3:  phi_k = J_{k+3}^{(-2,-1)} = (1-x^2)(1-x)   R_k^{(2,1)}
              psi_k = J_{k+3}^{(-1,-2)} = (1-x^2)(1+x)   R_k^{(1,2)}
    order 5:  phi_k = J_{k+5}^{(-3,-2)} = (1-x^2)^2(1-x) R_k^{(3,2)}
              psi_k = J_{k+5}^{(-2,-3)} = (1-x^2)^2(1+x) R_k^{(2,3)}

Derivatives of phi_k are exact: Leibniz product rule over the polynomial
weight factor times the Jacobi index-shift derivative, never finite
differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .jacobi import JacobiParams, eval_R, eval_R_derivative, eval_R_table
from .orders import order_spec

__all__ = [
    "GJPIndex",
    "eval_J",
    "eval_phi",
    "eval_psi",
    "legendre_expansion_J",
]

_LEGENDRE = JacobiParams(0.0, 0.0)


@dataclass(frozen=True)
class GJPIndex:
    """Integer index pair (ell, m) of a generalized Jacobi polynomial."""

    ell: int
    m: int

    @property
    def offset(self) -> int:
        """Degree offset k0: the sum of the negative indexes' magnitudes."""
        return max(-self.ell, 0) + max(-self.m, 0)


def eval_J(idx: GJPIndex, k: int, x):
    """Generalized Jacobi polynomial J_k^{(ell,m)}(x), one formula for any signs.

    (1-x)^{max(-ell,0)} (1+x)^{max(-m,0)} R_{k-k0}^{(|ell|,|m|)}(x): a
    negative index becomes a weight factor, a nonnegative one stays in R.
    """
    k0 = idx.offset
    if k < k0:
        raise ValueError(f"J_k^{{({idx.ell},{idx.m})}} needs k >= {k0}, got {k}")
    arr = np.asarray(x, dtype=float)
    ell, m = idx.ell, idx.m
    factor = (1.0 - arr) ** max(-ell, 0) * (1.0 + arr) ** max(-m, 0)
    out = factor * eval_R(JacobiParams(abs(ell), abs(m)), k - k0, arr)
    return float(out) if arr.ndim == 0 else out


def _poly_derivative_values(coeffs: np.ndarray, i: int, x: np.ndarray) -> np.ndarray:
    c = np.polynomial.polynomial.polyder(coeffs, i) if i else coeffs
    return np.polynomial.polynomial.polyval(x, c)


def eval_phi(order: int, k: int, x, q: int = 0):
    """q-th derivative of the trial basis function phi_k (q <= order)."""
    spec = order_spec(order)
    if not 0 <= q <= order:
        raise ValueError(f"derivative order must be in 0..{order}, got {q}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    weight = spec.trial_weight
    params = spec.trial_params
    total = np.zeros(arr.shape)
    for i in range(min(q, len(weight) - 1) + 1):
        wi = _poly_derivative_values(weight, i, arr)
        total += comb(q, i) * wi * eval_R_derivative(params, k, q - i, arr)
    return float(total[0]) if np.ndim(x) == 0 else total


def eval_psi(order: int, k: int, x):
    """Dual (test) basis function psi_k."""
    spec = order_spec(order)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    vals = _poly_derivative_values(spec.test_weight, 0, arr) * eval_R(
        spec.test_params, k, arr
    )
    return float(vals[0]) if np.ndim(x) == 0 else vals


def legendre_expansion_J(idx: GJPIndex, k: int) -> np.ndarray:
    """Legendre coefficients of J_k^{(ell,m)} for the four solver index pairs.

    Returns c with J_k = sum_i c[i] L_i, length k+1.
    """
    pair = (idx.ell, idx.m)
    if pair == (-2, -1):
        if k < 3:
            raise ValueError("expansion of J^{(-2,-1)} needs k >= 3")
        lead = 4.0 / ((k - 1) * (2 * k - 3))
        ratio = (2 * k - 3) / (2 * k - 1)
        entries = {k - 3: 1.0, k - 2: -ratio, k - 1: -1.0, k: ratio}
    elif pair == (-1, -2):
        if k < 3:
            raise ValueError("expansion of J^{(-1,-2)} needs k >= 3")
        lead = 2.0 / (2 * k - 3)
        ratio = (2 * k - 3) / (2 * k - 1)
        entries = {k - 3: 1.0, k - 2: ratio, k - 1: -1.0, k: -ratio}
    elif pair == (-3, -2):
        if k < 5:
            raise ValueError("expansion of J^{(-3,-2)} needs k >= 5")
        lead = 24.0 / ((2 * k - 5) * (2 * k - 7) * (k - 2))
        entries = {
            k - 5: 1.0,
            k - 4: -(2 * k - 7) / (2 * k - 3),
            k - 3: -2.0 * (2 * k - 5) / (2 * k - 3),
            k - 2: 2.0 * (2 * k - 7) / (2 * k - 1),
            k - 1: (2 * k - 7) / (2 * k - 3),
            k: -(2 * k - 5) * (2 * k - 7) / ((2 * k - 1) * (2 * k - 3)),
        }
    elif pair == (-2, -3):
        if k < 5:
            raise ValueError("expansion of J^{(-2,-3)} needs k >= 5")
        lead = 8.0 / ((2 * k - 5) * (2 * k - 7))
        entries = {
            k - 5: 1.0,
            k - 4: (2 * k - 7) / (2 * k - 3),
            k - 3: -2.0 * (2 * k - 5) / (2 * k - 3),
            k - 2: -2.0 * (2 * k - 7) / (2 * k - 1),
            k - 1: (2 * k - 7) / (2 * k - 3),
            k: (2 * k - 5) * (2 * k - 7) / ((2 * k - 1) * (2 * k - 3)),
        }
    else:
        raise ValueError(f"no Legendre expansion for index pair {pair}")
    coeffs = np.zeros(k + 1)
    for degree, value in entries.items():
        coeffs[degree] = lead * value
    return coeffs


def eval_legendre_series(coeffs: np.ndarray, x) -> np.ndarray:
    """Evaluate sum_i coeffs[i] L_i(x) with L_i = R_i^{(0,0)}."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    table = eval_R_table(_LEGENDRE, len(coeffs) - 1, arr)
    vals = coeffs @ table
    return float(vals[0]) if np.ndim(x) == 0 else vals

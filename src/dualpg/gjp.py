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

`legendre_expansion_J` takes any ell, m <= 0 to Legendre coefficients by
absorbing the weight factors in two-term relations.  They are two of the
four relations that `OrderSpec.expansion_band` runs in place on its
strided band stack; that stack is tuned for its per-step cost, and sharing
the code would make it branch on its caller, so each keeps its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .jacobi import JacobiParams, eval_R, eval_R_derivative
from .orders import order_spec

__all__ = [
    "GJPIndex",
    "eval_J",
    "eval_phi",
    "eval_psi",
    "legendre_expansion_J",
]

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
    """Legendre coefficients c of J_k^{(ell,m)} = sum_i c[i] L_i, length k+1, for ell, m <= 0.

    Starts from R_{k-k0} in the index (a, b) = (-ell, -m) and absorbs the
    weight factors one at a time, K = j + (a+b+1)/2: first each (1+x),
    (1+x) R_j = [(j+b) R_j + (j+a+1) R_{j+1}] / K with (a, b) -> (a, b-1),
    then each (1-x), (1-x) R_j = a [R_j - R_{j+1}] / K with (a, b) -> (a-1, b),
    ending at (0, 0) where R_j = L_j.
    """
    if idx.ell > 0 or idx.m > 0:
        raise ValueError(f"Legendre expansion needs ell, m <= 0, got ({idx.ell}, {idx.m})")
    k0 = idx.offset
    if k < k0:
        raise ValueError(f"expansion of J^{{({idx.ell},{idx.m})}} needs k >= {k0}, got {k}")
    a, b = -idx.ell, -idx.m
    coeffs = np.zeros(k - k0 + 1)
    coeffs[-1] = 1.0
    while a or b:
        j = np.arange(coeffs.size)
        K = j + (a + b + 1) / 2
        if b:
            here, up = coeffs * (j + b) / K, coeffs * (j + a + 1) / K
            b -= 1
        else:
            here = coeffs * a / K
            up = -here
            a -= 1
        coeffs = np.append(here, 0.0)
        coeffs[1:] += up
    return coeffs

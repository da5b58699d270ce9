"""Band matrices, LU factorization without pivoting, and operation counting.

Storage is diagonal-major: entry (i, j) with -p <= j - i <= q lives at
data[q + i - j, j]; slots outside the matrix stay zero.  Elimination never
fills outside the band, so L (unit lower, bandwidth p) and U (upper,
bandwidth q) overwrite the same layout.  The factorization and the
substitutions run on that layout as Python lists of floats (one
`tolist()` per factorization), which is several times faster than
indexing numpy scalars and performs the same IEEE operations in the same
order.  Every addition, subtraction, multiplication and division actually
performed is counted, from the trip counts of the loops that perform them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .orders import order_spec

__all__ = [
    "SingularMatrixError",
    "OpCount",
    "BandedMatrix",
    "BandedLU",
    "lu_factor_banded",
    "solve_diagonal",
    "solve_diagonal_third",
    "solve_diagonal_fifth",
    "diagonal_third_from_moments",
    "diagonal_fifth_from_moments",
]

PIVOT_FLOOR = 1e-300


class SingularMatrixError(ArithmeticError):
    """Elimination hit a vanishing or NaN pivot (leading principal minor ~ 0)."""


@dataclass
class OpCount:
    """Tally of scalar arithmetic operations."""

    additions: int = 0
    subtractions: int = 0
    multiplications: int = 0
    divisions: int = 0

    @property
    def total(self) -> int:
        return self.additions + self.subtractions + self.multiplications + self.divisions


@dataclass
class BandedMatrix:
    """Square band matrix with lower bandwidth p and upper bandwidth q."""

    n: int
    p: int
    q: int
    data: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not (0 <= self.p < self.n and 0 <= self.q < self.n):
            raise ValueError("bandwidths must satisfy 0 <= p, q < n")
        if self.data is None:
            self.data = np.zeros((self.p + self.q + 1, self.n))
        elif self.data.shape != (self.p + self.q + 1, self.n):
            raise ValueError("data must have shape (p+q+1, n)")

    def in_band(self, i: int, j: int) -> bool:
        return -self.p <= j - i <= self.q

    def get(self, i: int, j: int) -> float:
        if not (0 <= i < self.n and 0 <= j < self.n) or not self.in_band(i, j):
            return 0.0
        return float(self.data[self.q + i - j, j])

    def set(self, i: int, j: int, value: float) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"entry ({i}, {j}) outside a {self.n}x{self.n} matrix")
        if not self.in_band(i, j):
            raise IndexError(f"entry ({i}, {j}) outside band p={self.p}, q={self.q}")
        self.data[self.q + i - j, j] = value

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x, accumulated diagonal by diagonal."""
        x = np.asarray(x, dtype=float)
        y = np.zeros(self.n)
        for d in range(-self.p, self.q + 1):
            row = self.data[self.q - d]
            if d >= 0:
                y[: self.n - d] += row[d:] * x[d:]
            else:
                y[-d:] += row[: self.n + d] * x[: self.n + d]
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """y = A^T x."""
        x = np.asarray(x, dtype=float)
        y = np.zeros(self.n)
        for d in range(-self.p, self.q + 1):
            row = self.data[self.q - d]
            if d >= 0:
                y[d:] += row[d:] * x[: self.n - d]
            else:
                y[: self.n + d] += row[: self.n + d] * x[-d:]
        return y

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for d in range(-self.p, self.q + 1):  # d = j - i, one slice per diagonal
            i = np.arange(max(0, -d), min(self.n, self.n - d))
            out[i, i + d] = self.data[self.q - d, i + d]
        return out

    def copy(self) -> "BandedMatrix":
        return BandedMatrix(self.n, self.p, self.q, self.data.copy())


def _sweep_trips(n: int, w: int) -> int:
    """sum_{i < n} min(w, i): inner-loop trips of one substitution sweep."""
    m = min(w, n)
    return m * (m - 1) // 2 + w * (n - m)


@dataclass
class BandedLU:
    """In-band LU factors (L unit lower / U upper share one layout).

    rows[q + i - j][j] holds entry (i, j) of L (i > j) or U (i <= j), as
    Python floats.
    """

    n: int
    p: int
    q: int
    rows: list[list[float]] = field(repr=False)
    ops: OpCount

    def _get(self, i: int, j: int) -> float:
        return self.rows[self.q + i - j][j]

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, OpCount]:
        """Forward/back substitution; returns solution and its OpCount."""
        if len(rhs) != self.n:
            raise ValueError(f"rhs length {len(rhs)} != dimension {self.n}")
        n, p, q, rows = self.n, self.p, self.q, self.rows
        x = np.asarray(rhs, dtype=float).tolist()
        for i in range(n):
            xi = x[i]
            for j in range(max(0, i - p), i):
                xi -= rows[q + i - j][j] * x[j]
            x[i] = xi
        diag = rows[q]
        for i in range(n - 1, -1, -1):
            xi = x[i]
            for j in range(i + 1, min(n, i + q + 1)):
                xi -= rows[q + i - j][j] * x[j]
            x[i] = xi / diag[i]
        trips = _sweep_trips(n, p) + _sweep_trips(n, q)
        ops = OpCount(subtractions=trips, multiplications=trips, divisions=n)
        return np.array(x), ops

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T y = rhs through the same factors (A^T = U^T L^T)."""
        if len(rhs) != self.n:
            raise ValueError(f"rhs length {len(rhs)} != dimension {self.n}")
        n, p, q, rows = self.n, self.p, self.q, self.rows
        x = np.asarray(rhs, dtype=float).tolist()
        diag = rows[q]
        for i in range(n):
            xi = x[i]
            for j in range(max(0, i - q), i):
                xi -= rows[q + j - i][i] * x[j]
            x[i] = xi / diag[i]
        for i in range(n - 1, -1, -1):
            xi = x[i]
            for j in range(i + 1, min(n, i + p + 1)):
                xi -= rows[q + j - i][i] * x[j]
            x[i] = xi
        return np.array(x)


def lu_factor_banded(matrix: BandedMatrix) -> BandedLU:
    """LU factorization without pivoting, confined to the band."""
    n, p, q = matrix.n, matrix.p, matrix.q
    rows = matrix.data.tolist()
    diag = rows[q]
    divisions = products = 0
    for k in range(n):
        pivot = diag[k]
        if not abs(pivot) >= PIVOT_FLOOR:  # also catches NaN
            raise SingularMatrixError(
                f"unusable pivot at row {k} ({pivot:.3e}, need |pivot| >= "
                f"{PIVOT_FLOOR:g})"
            )
        imax, jmax = min(n, k + p + 1), min(n, k + q + 1)
        for i in range(k + 1, imax):
            lower = rows[q + i - k]
            mult = lower[k] / pivot
            lower[k] = mult
            for j in range(k + 1, jmax):
                rows[q + i - j][j] -= mult * rows[q + k - j][j]
        divisions += imax - k - 1
        products += (imax - k - 1) * (jmax - k - 1)
    ops = OpCount(subtractions=products, multiplications=products, divisions=divisions)
    return BandedLU(n=n, p=p, q=q, rows=rows, ops=ops)


def solve_diagonal(order: int, fstar: np.ndarray) -> np.ndarray:
    """Solve B a = fstar when all operator coefficients vanish.

    B is the diagonal block B1 (order 3) or B2 (order 5), whose entries the
    order spec holds, so a_k = fstar_k / B_kk.
    """
    fstar = np.asarray(fstar, dtype=float)
    return fstar / order_spec(order).diagonal(np.arange(fstar.size))


solve_diagonal_third = partial(solve_diagonal, 3)
solve_diagonal_fifth = partial(solve_diagonal, 5)


def diagonal_third_from_moments(f: np.ndarray) -> np.ndarray:
    """Explicit route a_k = (k+2)/16 f_k from the unnormalized moments."""
    f = np.asarray(f, dtype=float)
    k = np.arange(f.size)
    return (k + 2) / 16.0 * f


def diagonal_fifth_from_moments(f: np.ndarray) -> np.ndarray:
    """Explicit route a_k = (k+3)/384 f_k from the unnormalized moments."""
    f = np.asarray(f, dtype=float)
    k = np.arange(f.size)
    return (k + 3) / 384.0 * f

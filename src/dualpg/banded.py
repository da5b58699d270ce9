"""Band matrices, LU factorization without pivoting, and operation counting.

Storage is diagonal-major: entry (i, j) with -p <= j - i <= q lives at
data[q + i - j, j]; slots outside the matrix stay zero.  Elimination never
fills outside the band, so L (unit lower, bandwidth p) and U (upper,
bandwidth q) overwrite the same layout.  The factorization and the
substitutions run on that layout as Python lists of floats (one
`tolist()` per factorization), in straight-line kernels generated once per
bandwidth pair (p, q) and cached: on first use `_kernel` builds the Python
source of a kernel from the two integers and compiles it with `exec`.
Each kernel binds every band row to a local, walks the rows with `zip`,
writes the p x q update of a factor step as one statement per entry and
carries the last p or q unknowns of a substitution in rotating locals, so
no inner loop, `min`/`max` or double index is left per entry.  The
factorization pads the band rows past the matrix end, so the edge clips
none of its steps; the substitutions give their clipped rows zero
coefficients, whose terms subtract an exact +0.0 and so change nothing.
Every entry sees the same IEEE operations in the same order as the
entry-by-entry loops, so factors and solutions are bitwise equal to
theirs.  Only p and q enter the generated source: no matrix value is
written into it as text, which would round it and tie the cache to the
data, and nothing else can reach `exec`.

`OpCount` is the trip count of the algorithm: every subtraction,
multiplication and division the elimination and the substitutions
perform, in closed form from n, p and q rather than tallied in the loops.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from typing import Callable

import numpy as np

from .orders import order_spec

__all__ = [
    "SingularMatrixError",
    "OpCount",
    "BandedMatrix",
    "BandedLU",
    "lu_factor_banded",
    "solve_diagonal",
]

PIVOT_FLOOR = 1e-300


class SingularMatrixError(ArithmeticError):
    """Elimination hit a vanishing or NaN pivot (leading principal minor ~ 0)."""


@dataclass
class OpCount:
    """Tally of scalar arithmetic operations."""

    subtractions: int = 0
    multiplications: int = 0
    divisions: int = 0

    @property
    def total(self) -> int:
        return self.subtractions + self.multiplications + self.divisions


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
        """y = A x, summed from +0.0 over the diagonals in increasing j - i.

        The products data[q - d, j] x[j] go into band rows reversed and
        padded by p columns before and q after, so that one skewed view
        lines up every term of y[i] in column i, the padding standing in
        for the entries past the matrix edge; the sum over the view adds
        them in that diagonal order, as a loop over the diagonals would.
        """
        n, p, q = self.n, self.p, self.q
        rows, width = p + q + 1, n + p + q
        products = np.zeros((rows, width))
        np.multiply(self.data[::-1], x, out=products[:, p:p + n])
        step = products.itemsize  # one row down and one column right per diagonal
        skewed = np.ndarray((rows, n), float, products, 0, ((width + 1) * step, step))
        return skewed.sum(axis=0, initial=0.0)

    def gram(self) -> BandedMatrix:
        """G = A^T A, with both bandwidths p + q (at most n - 1).

        G[i, i + d] = sum_s data[s, i] data[s - d, i + d] over the band rows
        s >= d, one product per diagonal d of G, summed from +0.0 in
        decreasing s (increasing diagonal of A, the order of a loop over the
        rows of A); the diagonals of G below its main one mirror those above.
        """
        n, w = self.n, min(self.p + self.q, self.n - 1)
        rows = self.p + self.q + 1
        gram = BandedMatrix(n, w, w)
        for d in range(w + 1):
            products = self.data[d:, : n - d][::-1] * self.data[: rows - d, d:][::-1]
            gram.data[w - d, d:] = products.sum(axis=0, initial=0.0)
            gram.data[w + d, : n - d] = gram.data[w - d, d:]
        return gram

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for d in range(-self.p, self.q + 1):  # d = j - i, one slice per diagonal
            i = np.arange(max(0, -d), min(self.n, self.n - d))
            out[i, i + d] = self.data[self.q - d, i + d]
        return out


def _sweep_trips(n: int, w: int) -> int:
    """sum_{i < n} min(w, i): inner-loop trips of one substitution sweep."""
    m = min(w, n)
    return m * (m - 1) // 2 + w * (n - m)


def _update_trips(n: int, p: int, q: int) -> int:
    """sum_{t < n} min(p, t) min(q, t): entry updates of the factorization."""
    edge = min(n, max(p, q))
    return sum(min(p, t) * min(q, t) for t in range(edge)) + p * q * (n - edge)


def _unusable_pivot(k: int, pivot: float) -> None:
    raise SingularMatrixError(
        f"unusable pivot at row {k} ({pivot:.3e}, need |pivot| >= {PIVOT_FLOOR:g})"
    )


def _rows_binding(p: int, q: int) -> str:
    """Statement binding band row r of `rows` to the local row{r}."""
    return ", ".join(f"row{r}" for r in range(p + q + 1)) + ", = rows"


def _factor_source(p: int, q: int) -> list[str]:
    """`factor(rows, steps)`: the first `steps` elimination steps, unrolled.

    Before step k the locals e{a}_{b} (a < p, b < q) hold the current value
    of entry (k + a, k + b).  Each step also reads one untouched entry of
    every diagonal, f{r} from band row r, which together with the e's make
    up the (p + 1) x (q + 1) window of the step.  The step's pivot, its
    U row and its multipliers are final and are stored; the window's other
    p x q entries, one statement each, become the next step's e's, which
    are stored after the last step.
    """

    def at(a: int, b: int) -> str:
        return f"e{a}_{b}" if a < p and b < q else f"f{q + a - b}"

    def upper(b: int) -> str:  # U(k, k + b), copied where an update overwrites it
        return f"u{b}" if p and b < q else at(0, b)

    fresh = ", ".join(f"f{r}" for r in range(p + q + 1))
    diagonals = ", ".join(
        f"islice(row{r}, {min(q, q + p - r)}, None)" for r in range(p + q + 1)
    )
    return [
        "def factor(rows, steps):",
        "    " + _rows_binding(p, q),
        *(f"    e{a}_{b} = row{q + a - b}[{b}]" for a in range(p) for b in range(q)),
        "    floor, low = PIVOT_FLOOR, -PIVOT_FLOOR",
        f"    for k, {fresh} in zip(range(steps), {diagonals}):",
        f"        pivot = {at(0, 0)}",
        "        if not (pivot >= floor or pivot <= low):  # also catches NaN",
        "            _unusable_pivot(k, pivot)",
        *(f"        u{b} = e0_{b}" for b in range(1, q) if p),
        *(f"        m{a} = {at(a, 0)} / pivot" for a in range(1, p + 1)),
        f"        row{q}[k] = pivot",
        *(f"        row{q - b}[k + {b}] = {upper(b)}" for b in range(1, q + 1)),
        *(f"        row{q + a}[k] = m{a}" for a in range(1, p + 1)),
        *(f"        e{a - 1}_{b - 1} = {at(a, b)} - m{a} * {upper(b)}"
          for a in range(1, p + 1) for b in range(1, q + 1)),
        *(f"    row{q + a - b}[steps + {b}] = e{a}_{b}" for a in range(p) for b in range(q)),
    ]


def _sweep(coefficients: list[str], pivots: str = "", backward: bool = False) -> list[str]:
    """Body lines of one substitution sweep over the list `x`, in place.

    `coefficients[s - 1]` lists, in sweep order, the coefficient of the
    unknown found s rows earlier in the sweep (0.0 where that row does not
    exist), which the rotating locals y1, y2, ... carry.  The terms are
    subtracted in increasing column order, and the result is divided by
    the entries of `pivots` when given.
    """
    width = len(coefficients)
    if not (width or pivots):
        return []
    ys = [f"y{s}" for s in range(1, width + 1)]
    cs = [f"c{s}" for s in range(1, width + 1)]
    terms = [f"{c} * {y}" for c, y in zip(cs, ys)]
    value = " - ".join(["xi"] + (terms if backward else terms[::-1]))
    if pivots:
        value = f"({value}) / pivot" if width else "xi / pivot"
    names = ["i", "xi"] + (["pivot"] if pivots else []) + cs
    lists = (["range(n - 1, -1, -1)", "reversed(x)"] if backward else ["range(n)", "x"])
    lists += ([pivots] if pivots else []) + coefficients
    lines = [f"    {' = '.join(ys)} = 0.0"] if width else []
    lines.append(f"    for {', '.join(names)} in zip({', '.join(lists)}):")
    if width:
        lhs = ", ".join(reversed(ys))
        rhs = ", ".join(ys[-2::-1] + [value])
        return lines + [f"        {lhs} = {rhs}", "        x[i] = y1"]
    return lines + [f"        x[i] = {value}"]


def _solve_source(p: int, q: int) -> list[str]:
    """`solve(rows, x)`: L y = x forward, U z = y backward, in x."""
    return [
        "def solve(rows, x):",
        "    n = len(x)",
        "    " + _rows_binding(p, q),
        *_sweep([f"[0.0] * {s} + row{q + s}[:n - {s}]" for s in range(1, p + 1)]),
        *_sweep([f"[0.0] * {s} + row{q - s}[:{s - 1}:-1]" for s in range(1, q + 1)],
                pivots=f"reversed(row{q})", backward=True),
    ]


def _solve_transpose_source(p: int, q: int) -> list[str]:
    """`solve_transpose(rows, x)`: U^T y = x forward, L^T z = y backward, in x."""
    return [
        "def solve_transpose(rows, x):",
        "    n = len(x)",
        "    " + _rows_binding(p, q),
        *_sweep([f"[0.0] * {s} + row{q - s}[{s}:]" for s in range(1, q + 1)],
                pivots=f"row{q}"),
        *_sweep([f"[0.0] * {s} + row{q + s}[n - 1 - {s}::-1]" for s in range(1, p + 1)],
                backward=True),
    ]


_KERNEL_SOURCES = {
    "factor": _factor_source,
    "solve": _solve_source,
    "solve_transpose": _solve_transpose_source,
}


@cache
def _kernel(name: str, p: int, q: int) -> Callable[..., None]:
    """Compile kernel `name` (a `_KERNEL_SOURCES` key) for bandwidths (p, q).

    The source is built from the two integers alone, so one compilation
    serves every matrix with these bandwidths.
    """
    p, q = operator.index(p), operator.index(q)
    source = "\n".join(_KERNEL_SOURCES[name](p, q))
    namespace = {
        "PIVOT_FLOOR": PIVOT_FLOOR, "_unusable_pivot": _unusable_pivot, "islice": islice,
    }
    exec(compile(source, f"<band {name} kernel p={p} q={q}>", "exec"), namespace)
    return namespace[name]


@dataclass
class BandedLU:
    """In-band LU factors (L unit lower / U upper share one layout).

    rows[q + i - j][j] holds entry (i, j) of L (i > j) or U (i <= j), as
    Python floats.  `solve` and `solve_transpose` run the substitution
    kernels generated for (p, q) on a copy of the right-hand side, which
    must be a vector of length n.  `ops` is the OpCount of the
    factorization, the trip count of its algorithm like the count `solve`
    returns.
    """

    n: int
    p: int
    q: int
    rows: list[list[float]] = field(repr=False)
    ops: OpCount

    def _get(self, i: int, j: int) -> float:
        return self.rows[self.q + i - j][j]

    def _vector(self, rhs) -> list[float]:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(
                f"rhs must be a vector of length {self.n}, got shape {rhs.shape}"
            )
        return rhs.tolist()

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, OpCount]:
        """Forward/back substitution; returns solution and its OpCount."""
        x = self._vector(rhs)
        _kernel("solve", self.p, self.q)(self.rows, x)
        trips = _sweep_trips(self.n, self.p) + _sweep_trips(self.n, self.q)
        ops = OpCount(subtractions=trips, multiplications=trips, divisions=self.n)
        return np.array(x), ops

    def solve_transpose(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A^T y = rhs through the same factors (A^T = U^T L^T)."""
        x = self._vector(rhs)
        _kernel("solve_transpose", self.p, self.q)(self.rows, x)
        return np.array(x)

    def _inverse_operator(self, *names: str) -> Callable[[np.ndarray], np.ndarray]:
        """v -> the kernels `names` (`_KERNEL_SOURCES` keys) run in turn on v.

        The operator of a Krylov run: each application makes one list of v
        and one array of the result, checks no shape and counts no
        operations.  `_inverse_operator("solve_transpose", "solve")` applies
        (A^T A)^-1 bit for bit as `solve(solve_transpose(v))` would.
        """
        rows = self.rows
        kernels = [_kernel(name, self.p, self.q) for name in names]

        def apply(v: np.ndarray) -> np.ndarray:
            x = v.tolist()
            for kernel in kernels:
                kernel(rows, x)
            return np.array(x)

        return apply


def lu_factor_banded(matrix: BandedMatrix) -> BandedLU:
    """LU factorization without pivoting, confined to the band."""
    n, p, q = matrix.n, matrix.p, matrix.q
    rows = matrix.data.tolist()
    # q slots past the matrix end let the kernel run all n steps, none of
    # them a pivot; the slots below the matrix (row q + a from n - a) are put back
    below = [row[n - a:] for a, row in enumerate(rows[q:])]
    for row in rows:
        row += [0.0] * q
    _kernel("factor", p, q)(rows, n)
    for row in rows[:q]:
        del row[n:]
    for a, tail in enumerate(below):
        rows[q + a][n - a:] = tail
    products = _update_trips(n, p, q)
    ops = OpCount(
        subtractions=products, multiplications=products, divisions=_sweep_trips(n, p)
    )
    return BandedLU(n=n, p=p, q=q, rows=rows, ops=ops)


def solve_diagonal(order: int, fstar: np.ndarray) -> np.ndarray:
    """Solve B a = fstar when all operator coefficients vanish.

    B is the diagonal block B1 (order 3) or B2 (order 5), whose entries the
    order spec holds, so a_k = fstar_k / B_kk.
    """
    fstar = np.asarray(fstar, dtype=float)
    return fstar / order_spec(order).diagonal(np.arange(fstar.size))


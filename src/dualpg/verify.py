"""Verification suites behind the `verify` CLI command.

Each suite checks one pile of identities or one dual-route equivalence and
reports its worst deviation against a pinned tolerance.  The assembled
matrices are defined by the quadrature oracle: the closed-form tables must
match it, and the alternative tabulated entry formulas shipped for
cross-checking are compared against the oracle separately, with any
disagreement enumerated (both values shown) rather than silently adopted.

Every per-order suite is written once and reads the order's facts from
`order_spec(order)`.  What the spec cannot derive (the sample sets and
sizes, the operation-count ceilings, the paper's printed formulas and
multipliers, the suite-name words) is data in `CHECKS`, one `OrderChecks`
record per order; a suite over both orders walks `CHECKS` in order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np

from .assembly import (
    boundary_lift,
    lift_correction_polynomial,
    modified_rhs,
    operator_matrix,
    operator_oracle_matrix,
    rhs_projection,
)
from .banded import BandedMatrix, lu_factor_banded, solve_diagonal
from .gjp import (
    GJPIndex,
    eval_J,
    eval_legendre_series,
    eval_phi,
    eval_psi,
    legendre_expansion_J,
)
from .jacobi import (
    JacobiParams,
    eval_R,
    eval_R_derivative,
    gauss_jacobi_rule,
    norm_h,
    pochhammer,
)
from .orders import order_spec

__all__ = ["SuiteResult", "OrderChecks", "CHECKS", "run_verification", "SUITES"]

# interior sample grid shared by the pointwise identity suites; endpoints
# are exercised by the boundary-vanishing suite instead
CHEBYSHEV_SAMPLES = np.cos(np.pi * np.arange(1, 34) / 34.0)

FOUR_PARAM_SETS = (
    JacobiParams(1.0, 2.0),
    JacobiParams(2.0, 1.0),
    JacobiParams(2.0, 3.0),
    JacobiParams(3.0, 2.0),
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


@dataclass(frozen=True)
class OrderChecks:
    """What the per-order suites check beyond what `order_spec` derives."""

    word: str  # the order's word in suite names
    coeff_sets: tuple  # oracle equivalence; the second drives the manufactured solve
    oracle_sizes: tuple[int, ...]
    expansion_kmax: int
    band_coeffs: tuple[float, ...]
    manufactured_N: int
    lift_samples: tuple  # boundary data, in `boundary_points` order
    two_path: tuple  # (operator coefficients, boundary data, N)
    ceilings: tuple[int, int]  # factor and solve operations per row of D
    printed_entries: tuple  # PRINTED_D1 or PRINTED_D2
    printed_lift_factors: tuple[float, ...]  # printed multiplier of degree d


def _result(name, dev, tol, detail=""):
    return SuiteResult(name=name, passed=dev <= tol, max_deviation=float(dev),
                       tolerance=tol, detail=detail)


def _exact_weighted_moment(a: int, b: int, d: int) -> float:
    """int_{-1}^{1} (1-x)^a (1+x)^b x^d dx, exactly over the rationals.

    Expands x^d = ((1+x) - 1)^d; each term is the beta integral
    2^(a+b+i+1) a! (b+i)! / (a+b+i+1)!.  The alternating sum cancels
    catastrophically in floats at high d, hence Fraction arithmetic.
    """
    total = Fraction(0)
    for i in range(d + 1):
        total += (
            Fraction(math.comb(d, i) * (-1) ** (d - i))
            * Fraction(2) ** (a + b + i + 1)
            * Fraction(math.factorial(a) * math.factorial(b + i),
                       math.factorial(a + b + i + 1))
        )
    return float(total)


def suite_quadrature_exactness() -> SuiteResult:
    """Monomials of degree <= 2*count-1 integrate to the exact weighted moment."""
    worst = 0.0
    for params in FOUR_PARAM_SETS + (JacobiParams(0.0, 0.0),):
        a, b = int(params.alpha), int(params.beta)
        for count in (1, 2, 5, 12, 20):
            rule = gauss_jacobi_rule(params, count)
            for d in range(2 * count):
                exact = _exact_weighted_moment(a, b, d)
                got = rule.integrate(rule.nodes ** d)
                scale = max(abs(exact), norm_h(params, 0))
                worst = max(worst, abs(got - exact) / scale)
    return _result("quadrature-exactness", worst, 1e-12)


def suite_orthogonality() -> SuiteResult:
    """(R_m, R_n)_w = h_n delta_mn for the four solver parameter pairs."""
    worst = 0.0
    for params in FOUR_PARAM_SETS:
        rule = gauss_jacobi_rule(params, 16)
        table = np.vstack([eval_R(params, n, rule.nodes) for n in range(13)])
        gram = table @ (rule.weights[:, None] * table.T)
        for n in range(13):
            hn = norm_h(params, n)
            worst = max(worst, abs(gram[n, n] - hn) / hn)
            for m in range(13):
                if m != n:
                    worst = max(worst, abs(gram[m, n]))
    return _result("orthogonality", worst, 1e-11)


def suite_endpoint_normalization() -> SuiteResult:
    """R_n(1) = 1 for n <= 50."""
    worst = 0.0
    for params in FOUR_PARAM_SETS + (JacobiParams(0.0, 0.0), JacobiParams(0.5, 1.5)):
        for n in range(51):
            worst = max(worst, abs(eval_R(params, n, 1.0) - 1.0))
    return _result("endpoint-normalization", worst, 1e-12)


def suite_shift_identities() -> SuiteResult:
    """Index-shift relations between neighbouring Jacobi families."""
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for params in FOUR_PARAM_SETS:
        a, b = params.alpha, params.beta
        lam = params.lam
        down_b = JacobiParams(a, b - 1.0)
        down_a = JacobiParams(a - 1.0, b)
        up_a = JacobiParams(a + 1.0, b)
        up_ab = JacobiParams(a + 1.0, b + 1.0)
        for k in range(21):
            base = eval_R(params, k, x)
            lhs1 = base
            rhs1 = ((k + a + 1.0) * eval_R(down_b, k + 1, x)
                    - a * eval_R(down_a, k + 1, x)) / (k + 1.0)
            worst = max(worst, np.max(np.abs(lhs1 - rhs1)))
            rhs2 = ((k + b) * eval_R(down_b, k, x)
                    + a * eval_R(down_a, k, x)) / (k + a + b)
            worst = max(worst, np.max(np.abs(base - rhs2)))
            lhs3 = (1.0 - x) * eval_R(up_a, k, x)
            rhs3 = (2.0 * (a + 1.0) / (2 * k + a + b + 2.0)) * (
                base - eval_R(params, k + 1, x)
            )
            worst = max(worst, np.max(np.abs(lhs3 - rhs3)))
            if k >= 1:
                lhs4 = (1.0 - x ** 2) * eval_R(up_ab, k - 1, x)
                s = 2 * k + lam
                rhs4 = (4.0 * (a + 1.0) / ((s - 1.0) * s * (s + 1.0))) * (
                    (k + b) * (s + 1.0) * eval_R(params, k - 1, x)
                    - (k + a + 1.0) * (s - 1.0) * eval_R(params, k + 1, x)
                    + (a - b) * s * eval_R(params, k, x)
                )
                worst = max(worst, np.max(np.abs(lhs4 - rhs4)))
    return _result("shift-identities", worst, 1e-10)


def suite_derivative_finite_difference() -> SuiteResult:
    """First derivative against central differences with step 1e-6."""
    h = 1e-6
    x = np.linspace(-0.9, 0.9, 19)
    worst = 0.0
    for params in FOUR_PARAM_SETS:
        for n in range(21):
            exact = np.asarray(eval_R_derivative(params, n, 1, x))
            fd = (eval_R(params, n, x + h) - eval_R(params, n, x - h)) / (2.0 * h)
            worst = max(worst, np.max(np.abs(exact - fd)))
    return _result("derivative-vs-finite-difference", worst, 1e-5)


def suite_derivative_identity(order: int) -> SuiteResult:
    """D^order phi_k = sign * B_kk * R_k of the test family (B = B1 or B2)."""
    spec = order_spec(order)
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for k in range(16):
        scale = spec.diagonal(k)
        lhs = eval_phi(order, k, x, order)
        rhs = spec.signs[order] * scale * eval_R(spec.test_params, k, x)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    return _result(f"{CHECKS[order].word}-derivative-identity", worst, 1e-9)


def suite_expansions(order: int) -> SuiteResult:
    """D^q phi_k (q < order) matches its closed-form test-family expansion."""
    spec = order_spec(order)
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for q in range(order):
        for k in range(CHECKS[order].expansion_kmax + 1):
            direct = np.asarray(eval_phi(order, k, x, q))
            series = np.zeros_like(x)
            for d, c in spec.expansion_table(q, k).items():
                if k + d >= 0:
                    series += c * eval_R(spec.test_params, k + d, x)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, np.max(np.abs(direct - series)) / scale)
    return _result(f"derivative-expansions-{CHECKS[order].word}", worst, 1e-9)


def suite_legendre_expansions() -> SuiteResult:
    """The four explicit Legendre expansions match direct evaluation."""
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for ell, m, kmin in ((-2, -1, 3), (-1, -2, 3), (-3, -2, 5), (-2, -3, 5)):
        idx = GJPIndex(ell, m)
        for k in range(kmin, 21):
            direct = eval_J(idx, k, x)
            series = eval_legendre_series(legendre_expansion_J(idx, k), x)
            worst = max(worst, np.max(np.abs(direct - series)))
    return _result("legendre-expansions", worst, 1e-11)


def suite_boundary_vanishing() -> SuiteResult:
    """D^i phi_k vanishes at every boundary point (i, x) of each order."""
    worst = 0.0
    for order in CHECKS:
        for k in range(21):
            for i, x in order_spec(order).boundary_points:
                worst = max(worst, abs(eval_phi(order, k, x, i)))
    return _result("boundary-vanishing", worst, 1e-10)


def suite_duality() -> SuiteResult:
    """(D^3 phi_j, psi_k) = 2 (j+1)(j+3) h_j^{(1,2)} delta_jk."""
    rule = gauss_jacobi_rule(JacobiParams(0.0, 0.0), 40)
    x = rule.nodes
    worst = 0.0
    for j in range(13):
        d3 = eval_phi(3, j, x, 3)
        for k in range(13):
            integral = rule.integrate(d3 * eval_psi(3, k, x))
            expected = (
                2.0 * (j + 1) * (j + 3) * norm_h(JacobiParams(1.0, 2.0), j)
                if j == k else 0.0
            )
            worst = max(worst, abs(integral - expected))
    return _result("trial-test-duality", worst, 1e-9)


def suite_oracle_equivalence(order: int) -> SuiteResult:
    """Assembled D1 or D2 matches the quadrature oracle entrywise."""
    # per-entry tolerance: 1e-10 relative (normalization-invariant), plus an
    # absolute floor for zero entries applied in the unnormalized moment
    # space (L phi_j, psi_k), where all entries share one natural scale;
    # the normalized matrix divides row k by h_k, which varies by orders of
    # magnitude and would make a single absolute floor meaningless
    spec = order_spec(order)
    checks = CHECKS[order]
    worst = 0.0
    worst_where = ""
    for coeffs in checks.coeff_sets:
        for N in checks.oracle_sizes:
            assembled = operator_matrix(order, coeffs, N).to_dense()
            oracle = operator_oracle_matrix(order, coeffs, N)
            hk = np.array([
                norm_h(spec.test_params, k) for k in range(oracle.shape[0])
            ])
            assembled_m = assembled * hk[:, None]
            oracle_m = oracle * hk[:, None]
            dev = np.abs(assembled_m - oracle_m)
            scale = max(1.0, float(np.max(np.abs(oracle_m))))
            tol_grid = np.maximum(1e-10 * np.abs(oracle_m), 1e-12 * scale)
            ratio = dev / tol_grid
            i, j = np.unravel_index(np.argmax(ratio), ratio.shape)
            if ratio[i, j] > worst:
                worst = float(ratio[i, j])
                worst_where = (
                    f"worst entry ({i}, {j}) at N={N}, coefficients={coeffs}: "
                    f"assembled={assembled[i, j]:.15g} oracle={oracle[i, j]:.15g}"
                )
    # deviations are measured in units of the per-entry tolerance
    return SuiteResult(
        name=f"oracle-equivalence-order{order}",
        passed=worst <= 1.0,
        max_deviation=worst,
        tolerance=1.0,
        detail=worst_where,
    )


def suite_band_structure() -> SuiteResult:
    """D1 is at most four-band (p = q <= 3), D2 six-band (p = q <= 5).

    Checked on the oracle matrix (the assembled band storage cannot even
    hold wider entries), relative to the matrix scale.
    """
    worst = 0.0
    for order, checks in CHECKS.items():
        band = order_spec(order).bandwidth
        oracle = operator_oracle_matrix(order, checks.band_coeffs, 20)
        scale = float(np.max(np.abs(oracle)))
        n = oracle.shape[0]
        for i in range(n):
            for j in range(n):
                if abs(i - j) > band:
                    worst = max(worst, abs(oracle[i, j]) / scale)
    return _result("band-structure", worst, 1e-11)


def suite_manufactured_coefficients() -> SuiteResult:
    """Solving with rhs = L(sum a_k phi_k) reproduces the coefficients."""
    rng = np.random.default_rng(20240311)
    worst = 0.0
    for order, checks in CHECKS.items():
        spec = order_spec(order)
        N = checks.manufactured_N
        coeffs = checks.coeff_sets[1]
        weights = spec.weights(coeffs)
        a_true = rng.uniform(-1.0, 1.0, spec.dimension(N))

        def rhs(x, _w=weights, _a=a_true, _order=order):
            out = np.zeros_like(np.asarray(x, dtype=float))
            for q, w in _w.items():
                if w != 0.0:
                    for k, ak in enumerate(_a):
                        out += w * ak * eval_phi(_order, k, x, q)
            return out

        matrix = operator_matrix(order, coeffs, N)
        proj = rhs_projection(order, rhs, N)
        solved, _ = lu_factor_banded(matrix).solve(proj)
        worst = max(worst, np.max(np.abs(solved - a_true)))
    return _result("manufactured-coefficients", worst, 1e-10)


def suite_lift_reconstruction() -> SuiteResult:
    """u = V - lift reproduces the boundary data exactly."""
    P = np.polynomial.polynomial
    worst = 0.0
    for order, checks in CHECKS.items():
        spec = order_spec(order)
        for values in checks.lift_samples:
            c = np.asarray(boundary_lift(spec.bc(*values)).coefficients)
            for (i, x), value in zip(spec.boundary_points, values):
                worst = max(worst, abs(float(P.polyval(x, P.polyder(c, i))) + value))
    return _result("lift-reconstruction", worst, 1e-12)


def suite_modified_rhs_two_path() -> SuiteResult:
    """Adding the projected lift correction equals projecting f + L(lift)."""
    worst = 0.0
    f = np.cosh  # smooth stand-in rhs
    for order, checks in CHECKS.items():
        spec = order_spec(order)
        coeffs, bc, N = checks.two_path
        problem = spec.problem(*coeffs, rhs=f, bc=spec.bc(*bc))
        lift = boundary_lift(problem.bc)
        path_a = modified_rhs(order, lift, rhs_projection(order, f, N), problem)
        g = lift_correction_polynomial(order, lift, problem)

        def f_star(x):
            return f(x) + np.polynomial.polynomial.polyval(np.asarray(x), g)

        path_b = rhs_projection(order, f_star, N)
        worst = max(worst, np.max(np.abs(path_a - path_b)))
    return _result("modified-rhs-two-path", worst, 1e-11)


def suite_diagonal_fast_paths() -> SuiteResult:
    """Closed-form diagonal solves match the general band route."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for order in CHECKS:
        spec = order_spec(order)
        N = 24
        matrix = operator_matrix(order, (0.0,) * spec.n_coefficients, N)
        fstar = rng.uniform(-2.0, 2.0, spec.dimension(N))
        banded, _ = lu_factor_banded(matrix).solve(fstar)
        fast = solve_diagonal(order, fstar)
        worst = max(worst, np.max(np.abs(banded - fast)))
    return _result("diagonal-fast-paths", worst, 1e-13)


def suite_lu_reconstruction() -> SuiteResult:
    """L U rebuilt from the band factors matches the input matrix."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for n, p, q in ((8, 2, 2), (24, 3, 3), (64, 5, 5)):
        matrix = BandedMatrix(n, p, q)
        for i in range(n):
            for j in range(max(0, i - p), min(n, i + q + 1)):
                matrix.set(i, j, rng.uniform(-1.0, 1.0))
            matrix.set(i, i, matrix.get(i, i) + p + q + 2.0)  # diagonal dominance
        fac = lu_factor_banded(matrix)
        L = np.eye(n)
        U = np.zeros((n, n))
        for i in range(n):
            for j in range(max(0, i - p), i):
                L[i, j] = fac._get(i, j)
            for j in range(i, min(n, i + q + 1)):
                U[i, j] = fac._get(i, j)
        dev = np.max(np.abs(L @ U - matrix.to_dense()))
        worst = max(worst, dev / (p + q + 2.0))
    return _result("lu-reconstruction", worst, 1e-12)


def suite_operation_counts() -> SuiteResult:
    """LU/solve totals stay under the order-of constants and scale linearly."""
    details = []
    worst_ratio = 0.0
    per_n = {}
    for order, checks in CHECKS.items():
        cf, cs = checks.ceilings
        coeffs = (1.0,) * order_spec(order).n_coefficients
        per_n[order] = []
        for N in (16, 32, 64):
            matrix = operator_matrix(order, coeffs, N)
            n = matrix.n
            fac = lu_factor_banded(matrix)
            _, solve_ops = fac.solve(np.ones(n))
            worst_ratio = max(
                worst_ratio, fac.ops.total / (cf * n), solve_ops.total / (cs * n)
            )
            per_n[order].append(fac.ops.total / n)
            details.append(
                f"order {order} N={N}: factor {fac.ops.total} (<= {cf}(n)={cf * n}), "
                f"solve {solve_ops.total} (<= {cs}(n)={cs * n})"
            )
    # per-row cost approaches the interior constant from below as n grows
    # (edge columns do less work), so the spread stays modest but is not 1
    spread = max(
        max(v) / min(v) for v in per_n.values()
    )
    passed = worst_ratio <= 1.0 and spread <= 1.5
    return SuiteResult(
        name="operation-counts",
        passed=passed,
        max_deviation=worst_ratio,
        tolerance=1.0,
        detail="; ".join(details),
    )


# --- printed-entry comparison (informational) ------------------------------
#
# Entry formulas exactly as tabulated in the accompanying closed-form
# displays, including the entries the oracle rejects.  Each block of D1
# (order 3) and D2 (order 5) is (name, q of the derivative it weighs,
# {offset d: formula}); (k, offset) means matrix entry (k+max(-d,0),
# k+max(d,0)) for super/subdiagonal offset d.

def _safe(fn, k):
    try:
        return fn(k)
    except ZeroDivisionError:
        return math.nan


_p = pochhammer


def _r(k):
    return 3.0 * (k + 1) * (k + 2) * (k + 4) * (k + 5)


PRINTED_D1 = (
    ("B1", 3, {0: lambda k: 2.0 * (k + 1) * (k + 3)}),
    ("E2", 2, {
        1: lambda k: 2.0 * (k + 1) * (k + 2) / (2 * k + 5),
        -1: lambda k: -2.0 * (k + 3) * (k + 4) / (2 * k + 5),
        0: lambda k: 4.0 * (k + 1) * (k + 3) / ((2 * k + 3) * (2 * k + 5)),
    }),
    ("E1", 1, {
        0: lambda k: 4.0 * (k + 1) * (k + 3) / ((2 * k + 3) * (2 * k + 5)),
        1: lambda k: -8.0 * (k + 1) * (k + 2) / ((2 * k + 3) * (2 * k + 5) * (2 * k + 7)),
        2: lambda k: -2.0 * (k + 1) * (k + 2) * (k + 3) / ((k + 4) * (2 * k + 5) * (2 * k + 7)),
        -1: lambda k: 8.0 * (k + 3) * (k + 4) / ((2 * k + 3) * (2 * k + 5) * (2 * k + 7)),
        -2: lambda k: -2.0 * (k + 3) * (k + 4) * (k + 5) / ((k + 2) * (2 * k + 5) * (2 * k + 7)),
    }),
    ("E0", 0, {
        0: lambda k: 3.0 * (k + 1) * (k + 3) / (2.0 * _p(k + 0.5, 4)),
        1: lambda k: 3.0 * _p(k + 1, 2) / (4.0 * _p(k + 1.5, 3)),
        2: lambda k: -3.0 * _p(k + 1, 3) / (4.0 * (k + 4) * _p(k + 1.5, 4)),
        3: lambda k: -_p(k + 1, 3) / (4.0 * (k + 5) * _p(k + 2.5, 3)),
        -1: lambda k: -3.0 * _p(k + 3, 2) / (4.0 * _p(k + 1.5, 3)),
        -2: lambda k: -3.0 * _p(k + 3, 5) / (4.0 * k * _p(k + 1.5, 4)),
        -3: lambda k: _p(k + 4, 3) / (4.0 * (k + 2) * _p(k + 2.5, 3)),
    }),
)

PRINTED_D2 = (
    ("B2", 5, {0: _r}),
    ("G4", 4, {
        0: lambda k: _r(k) / (2.0 * _p(k + 2.5, 2)),
        1: lambda k: 3.0 * _p(k + 1, 3) * (k + 5) / (2 * k + 7),
        -1: lambda k: -3.0 * _p(k + 2, 5) / ((k + 3) * (2 * k + 7)),
    }),
    ("G3", 3, {
        0: lambda k: _r(k) / (2.0 * _p(k + 2.5, 2)),
        1: lambda k: -3.0 * _p(k + 1, 3) * (k + 5) / (2.0 * _p(k + 2.5, 3)),
        2: lambda k: -3.0 * _p(k + 1, 4) / (4.0 * _p(k + 3.5, 2)),
        -1: lambda k: 3.0 * (k + 2) * _p(k + 4, 3) / (2.0 * _p(k + 2.5, 3)),
        -2: lambda k: -3.0 * _p(k + 4, 4) / (4.0 * _p(k + 3.5, 2)),
    }),
    ("G2", 2, {
        0: lambda k: 3.0 * _r(k) / (4.0 * _p(k + 1.5, 4)),
        1: lambda k: 9.0 * _p(k + 1, 3) * (k + 5) / (8.0 * _p(k + 2.5, 3)),
        2: lambda k: -9.0 * _p(k + 1, 4) / (8.0 * _p(k + 2.5, 4)),
        3: lambda k: -3.0 * _p(k + 1, 5) / (8.0 * (k + 6) * _p(k + 3.5, 3)),
        -1: lambda k: -9.0 * (k + 2) * _p(k + 4, 3) / (8.0 * _p(k + 2.5, 3)),
        -2: lambda k: -9.0 * _p(k + 4, 4) / (8.0 * _p(k + 2.5, 4)),
        -3: lambda k: 3.0 * _p(k + 4, 5) / (8.0 * (k + 3) * _p(k + 3.5, 3)),
    }),
    ("G1", 1, {
        0: lambda k: 3.0 * _r(k) / (8.0 * _p(k + 1.5, 4)),
        1: lambda k: -9.0 * _p(k + 1, 3) * (k + 5) / (4.0 * _p(k + 1.5, 5)),
        2: lambda k: -3.0 * _p(k + 1, 4) / (4.0 * _p(k + 2.5, 4)),
        3: lambda k: 3.0 * _p(k + 1, 5) / (4.0 * (k + 6) * _p(k + 2.5, 5)),
        4: lambda k: 3.0 * _p(k + 1, 5) / (16.0 * (k + 7) * _p(k + 3.5, 4)),
        -1: lambda k: 9.0 * (k + 2) * _p(k + 4, 3) / (4.0 * _p(k + 1.5, 5)),
        -2: lambda k: -3.0 * _p(k + 4, 4) / (4.0 * _p(k + 2.5, 4)),
        -3: lambda k: -3.0 * _p(k + 4, 5) / (4.0 * (k + 3) * _p(k + 2.5, 5)),
        -4: lambda k: 3.0 * _p(k + 5, 5) / (16.0 * (k + 3) * _p(k + 3.5, 4)),
    }),
    ("G0", 0, {
        0: lambda k: 15.0 * _r(k) / (16.0 * _p(k + 0.5, 6)),
        1: lambda k: 15.0 * _p(k + 1, 3) * (k + 5) / (16.0 * _p(k + 1.5, 5)),
        2: lambda k: -15.0 * _p(k + 1, 4) / (8.0 * _p(k + 1.5, 6)),
        3: lambda k: -15.0 * _p(k + 1, 5) / (32.0 * (k + 6) * _p(k + 2.5, 5)),
        4: lambda k: 15.0 * _p(k + 1, 5) / (32.0 * (k + 7) * _p(k + 2.5, 6)),
        5: lambda k: 3.0 * _p(k + 1, 5) / (32.0 * (k + 8) * _p(k + 3.5, 5)),
        -1: lambda k: -15.0 * (k + 2) * _p(k + 4, 3) / (16.0 * _p(k + 1.5, 5)),
        -2: lambda k: -15.0 * _p(k + 4, 4) / (8.0 * _p(k + 1.5, 6)),
        -3: lambda k: 15.0 * _p(k + 4, 5) / (32.0 * (k + 3) * _p(k + 2.5, 5)),
        -4: lambda k: 15.0 * _p(k + 5, 5) / (32.0 * (k + 3) * _p(k + 2.5, 6)),
        -5: lambda k: -3.0 * _p(k + 6, 5) / (32.0 * (k + 3) * _p(k + 3.5, 5)),
    }),
)


def _compare_printed(order: int) -> list[str]:
    """Printed per-block entries vs the oracle blocks; returns mismatch lines."""
    zeros, N = (0.0,) * order_spec(order).n_coefficients, 16
    base = operator_oracle_matrix(order, zeros, N)
    dim = base.shape[0]
    mismatches: list[str] = []
    for name, q, formulas in CHECKS[order].printed_entries:
        if q == order:
            oracle_block = base
        else:
            # coefficients weigh D^(order-1) first, D^0 last
            coeffs = list(zeros)
            coeffs[order - 1 - q] = 1.0
            oracle_block = operator_oracle_matrix(order, tuple(coeffs), N) - base
        for offset, formula in formulas.items():
            for k in range(dim - abs(offset)):
                i, j = (k, k + offset) if offset >= 0 else (k - offset, k)
                want = _safe(formula, k)
                got = oracle_block[i, j]
                if not math.isfinite(want) or abs(want - got) > 1e-9 * max(1.0, abs(got)):
                    mismatches.append(
                        f"{name}[{i},{j}] printed={want:.12g} oracle={got:.12g}"
                    )
    return mismatches


def suite_tabulated_entry_formulas() -> SuiteResult:
    """Tabulated closed-form entries vs the oracle (informational)."""
    lines = [line for order in CHECKS for line in _compare_printed(order)]
    if lines:
        shown = "; ".join(lines[:6])
        more = f" (+{len(lines) - 6} more of the same pattern)" if len(lines) > 6 else ""
        detail = f"{len(lines)} printed entries disagree with the oracle: {shown}{more}"
    else:
        detail = "all printed entries agree with the oracle"
    return SuiteResult(
        name="tabulated-entry-formulas",
        passed=True,
        max_deviation=float(len(lines)),
        tolerance=math.inf,
        detail=detail,
    )


def suite_printed_lift_factors() -> SuiteResult:
    """Printed nonhomogeneous rhs multipliers vs the exact projection."""
    lines = []
    for order, checks in CHECKS.items():
        table = order_spec(order).mono_to_test
        for d, a in enumerate(checks.printed_lift_factors):
            b = table[d][d]
            if abs(a - b) > 1e-12:
                lines.append(
                    f"order {order} degree {d}: printed {a:.6g} vs projection {b:.6g}"
                )
    detail = (
        "printed diagonal multipliers differ from the exact projection "
        "(projection validated by the two-path suite): " + "; ".join(lines)
        if lines else "printed multipliers match the projection"
    )
    return SuiteResult(
        name="printed-lift-factors",
        passed=True,
        max_deviation=float(len(lines)),
        tolerance=math.inf,
        detail=detail,
    )


_GRID = np.linspace(-1.0, 1.0, 5)

CHECKS: dict[int, OrderChecks] = {
    3: OrderChecks(
        word="third",
        coeff_sets=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 3.0, 4.0)),
        oracle_sizes=(8, 15, 24),
        expansion_kmax=15,
        band_coeffs=(1.0, 2.0, 3.0),
        manufactured_N=16,
        lift_samples=tuple(product(_GRID, _GRID[::2], _GRID[::2])),
        two_path=((1.5, -0.5, 2.0), (0.3, -0.2, 0.7), 14),
        ceilings=(21, 13),
        printed_entries=PRINTED_D1,
        printed_lift_factors=(1.0, 6.0 / 5.0, 10.0 / 7.0),
    ),
    5: OrderChecks(
        word="fifth",
        coeff_sets=(
            (0.0, 0.0, 0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0, 1.0, 1.0),
            (2.0, 3.0, 4.0, 5.0, 6.0),
        ),
        oracle_sizes=(10, 17, 24),
        expansion_kmax=12,
        band_coeffs=(1.0,) * 5,
        manufactured_N=18,
        lift_samples=tuple(
            map(tuple, np.random.default_rng(77).uniform(-1.0, 1.0, (40, 5)))
        ),
        two_path=((1.0, 0.5, -1.0, 2.0, 0.25), (0.3, -0.2, 0.7, 0.1, -0.4), 16),
        ceilings=(55, 21),
        printed_entries=PRINTED_D2,
        printed_lift_factors=(1.0, 8.0 / 7.0, 4.0 / 3.0, 50.0 / 33.0, 238.0 / 143.0),
    ),
}


def _per_order(suite):
    return tuple(partial(suite, order) for order in CHECKS)


SUITES = (
    suite_quadrature_exactness,
    suite_orthogonality,
    suite_endpoint_normalization,
    suite_shift_identities,
    suite_derivative_finite_difference,
    *_per_order(suite_derivative_identity),
    *_per_order(suite_expansions),
    suite_legendre_expansions,
    suite_boundary_vanishing,
    suite_duality,
    *_per_order(suite_oracle_equivalence),
    suite_band_structure,
    suite_manufactured_coefficients,
    suite_lift_reconstruction,
    suite_modified_rhs_two_path,
    suite_diagonal_fast_paths,
    suite_lu_reconstruction,
    suite_operation_counts,
    suite_tabulated_entry_formulas,
    suite_printed_lift_factors,
)


def run_verification() -> list[SuiteResult]:
    """Run every suite; informational suites never fail the run."""
    return [suite() for suite in SUITES]

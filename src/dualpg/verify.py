"""Verification suites behind the `verify` CLI command.

Each suite checks one pile of identities or one dual-route equivalence and
reports its worst deviation against a pinned tolerance.  The assembled
matrices are defined by the quadrature oracle: the closed-form tables must
match it, and the alternative tabulated entry formulas shipped for
cross-checking are compared against the oracle separately, with any
disagreement enumerated (both values shown) rather than silently adopted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import assembly
from .assembly import (
    FifthOrderBC,
    ThirdOrderBC,
    lift_correction_polynomial,
    lift_fifth,
    lift_third,
    modified_rhs,
    operator_matrix,
    operator_oracle_matrix,
    rhs_projection_fifth,
    rhs_projection_third,
)
from .banded import (
    BandedMatrix,
    lu_factor_banded,
    solve_diagonal_fifth,
    solve_diagonal_third,
)
from .gjp import (
    GJPIndex,
    dual_params,
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

__all__ = ["SuiteResult", "run_verification", "SUITES"]

# interior sample grid shared by the pointwise identity suites; endpoints
# are exercised by the boundary-vanishing suite instead
CHEBYSHEV_SAMPLES = np.cos(np.pi * np.arange(1, 34) / 34.0)

FOUR_PARAM_SETS = (
    JacobiParams(1.0, 2.0),
    JacobiParams(2.0, 1.0),
    JacobiParams(2.0, 3.0),
    JacobiParams(3.0, 2.0),
)

THIRD_COEFF_SETS = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 3.0, 4.0))
FIFTH_COEFF_SETS = (
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (2.0, 3.0, 4.0, 5.0, 6.0),
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


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


def suite_third_derivative_identity() -> SuiteResult:
    """D^3 phi_k = 2 (k+1)(k+3) R_k^{(1,2)} for the order-3 trial basis."""
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for k in range(16):
        lhs = eval_phi(3, k, x, 3)
        rhs = 2.0 * (k + 1) * (k + 3) * eval_R(JacobiParams(1.0, 2.0), k, x)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / (2.0 * (k + 1) * (k + 3)))
    return _result("third-derivative-identity", worst, 1e-9)


def suite_fifth_derivative_identity() -> SuiteResult:
    """D^5 phi_k = -3 (k+1)(k+2)(k+4)(k+5) R_k^{(2,3)} for order 5."""
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for k in range(16):
        scale = 3.0 * (k + 1) * (k + 2) * (k + 4) * (k + 5)
        lhs = eval_phi(5, k, x, 5)
        rhs = -scale * eval_R(JacobiParams(2.0, 3.0), k, x)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    return _result("fifth-derivative-identity", worst, 1e-9)


def _expansion_deviation(order: int, qmax: int, kmax: int) -> float:
    expansion = assembly.third_expansion if order == 3 else assembly.fifth_expansion
    params = dual_params(order)
    x = CHEBYSHEV_SAMPLES
    worst = 0.0
    for q in range(qmax + 1):
        for k in range(kmax + 1):
            direct = np.asarray(eval_phi(order, k, x, q))
            series = np.zeros_like(x)
            for i, c in expansion(q, k).items():
                series += c * eval_R(params, i, x)
            scale = max(1.0, float(np.max(np.abs(direct))))
            worst = max(worst, np.max(np.abs(direct - series)) / scale)
    return worst


def suite_expansion_third() -> SuiteResult:
    """D^q phi_k (q <= 2) matches its closed-form R^{(1,2)} expansion."""
    return _result("derivative-expansions-third", _expansion_deviation(3, 2, 15), 1e-9)


def suite_expansion_fifth() -> SuiteResult:
    """D^q phi_k (q <= 4) matches its closed-form R^{(2,3)} expansion."""
    return _result("derivative-expansions-fifth", _expansion_deviation(5, 4, 12), 1e-9)


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
    """D^i phi_k vanishes at +1 (i < l) and at -1 (i < m) for both orders."""
    worst = 0.0
    for order, at_plus, at_minus in ((3, 2, 1), (5, 3, 2)):
        for k in range(21):
            for i in range(at_plus):
                worst = max(worst, abs(eval_phi(order, k, 1.0, i)))
            for i in range(at_minus):
                worst = max(worst, abs(eval_phi(order, k, -1.0, i)))
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


def _oracle_equivalence(order: int, coeff_sets, sizes) -> SuiteResult:
    # per-entry tolerance: 1e-10 relative (normalization-invariant), plus an
    # absolute floor for zero entries applied in the unnormalized moment
    # space (L phi_j, psi_k), where all entries share one natural scale;
    # the normalized matrix divides row k by h_k, which varies by orders of
    # magnitude and would make a single absolute floor meaningless
    worst = 0.0
    worst_where = ""
    for coeffs in coeff_sets:
        for N in sizes:
            assembled = operator_matrix(order, coeffs, N).to_dense()
            oracle = operator_oracle_matrix(order, coeffs, N)
            hk = np.array([
                norm_h(dual_params(order), k) for k in range(oracle.shape[0])
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


def suite_oracle_equivalence_third() -> SuiteResult:
    """Assembled D1 matches the quadrature oracle entrywise."""
    return _oracle_equivalence(3, THIRD_COEFF_SETS, (8, 15, 24))


def suite_oracle_equivalence_fifth() -> SuiteResult:
    """Assembled D2 matches the quadrature oracle entrywise."""
    return _oracle_equivalence(5, FIFTH_COEFF_SETS, (10, 17, 24))


def suite_band_structure() -> SuiteResult:
    """D1 is at most four-band (p = q <= 3), D2 six-band (p = q <= 5).

    Checked on the oracle matrix (the assembled band storage cannot even
    hold wider entries), relative to the matrix scale.
    """
    worst = 0.0
    for order, coeffs, band in ((3, (1.0, 2.0, 3.0), 3), (5, (1.0,) * 5, 5)):
        oracle = operator_oracle_matrix(order, coeffs, 20)
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
    for order, coeff_sets, N in ((3, THIRD_COEFF_SETS, 16), (5, FIFTH_COEFF_SETS, 18)):
        dim = N - 2 if order == 3 else N - 4
        weights = order_spec(order).weights(coeff_sets[1])
        a_true = rng.uniform(-1.0, 1.0, dim)

        def rhs(x, _w=weights, _a=a_true, _order=order):
            out = np.zeros_like(np.asarray(x, dtype=float))
            for q, w in _w.items():
                if w != 0.0:
                    for k, ak in enumerate(_a):
                        out += w * ak * eval_phi(_order, k, x, q)
            return out

        matrix = operator_matrix(order, coeff_sets[1], N)
        proj = (rhs_projection_third if order == 3 else rhs_projection_fifth)(rhs, N)
        solved, _ = lu_factor_banded(matrix).solve(proj)
        worst = max(worst, np.max(np.abs(solved - a_true)))
    return _result("manufactured-coefficients", worst, 1e-10)


def suite_lift_reconstruction() -> SuiteResult:
    """u = V - lift reproduces the boundary data exactly."""
    grid = np.linspace(-1.0, 1.0, 5)
    worst = 0.0
    for am in grid:
        for ap in grid[::2]:
            for a1p in grid[::2]:
                lift = lift_third(ThirdOrderBC(am, ap, a1p))
                c = np.asarray(lift.coefficients)
                dc = np.polynomial.polynomial.polyder(c)
                worst = max(
                    worst,
                    abs(lift(1.0) + ap),
                    abs(lift(-1.0) + am),
                    abs(float(np.polynomial.polynomial.polyval(1.0, dc)) + a1p),
                )
    rng = np.random.default_rng(77)
    for _ in range(40):
        am, ap, a1m, a1p, a2p = rng.uniform(-1.0, 1.0, 5)
        lift = lift_fifth(FifthOrderBC(am, ap, a1m, a1p, a2p))
        c = np.asarray(lift.coefficients)
        dc = np.polynomial.polynomial.polyder(c)
        ddc = np.polynomial.polynomial.polyder(c, 2)
        pv = np.polynomial.polynomial.polyval
        worst = max(
            worst,
            abs(lift(1.0) + ap),
            abs(lift(-1.0) + am),
            abs(float(pv(1.0, dc)) + a1p),
            abs(float(pv(-1.0, dc)) + a1m),
            abs(float(pv(1.0, ddc)) + a2p),
        )
    return _result("lift-reconstruction", worst, 1e-12)


def suite_modified_rhs_two_path() -> SuiteResult:
    """Adding the projected lift correction equals projecting f + L(lift)."""
    worst = 0.0
    f = np.cosh  # smooth stand-in rhs

    class _P3:
        coefficients = (1.5, -0.5, 2.0)

    class _P5:
        coefficients = (1.0, 0.5, -1.0, 2.0, 0.25)

    lift3 = lift_third(ThirdOrderBC(0.3, -0.2, 0.7))
    base3 = rhs_projection_third(f, 14)
    path_a = modified_rhs(3, lift3, base3, _P3)
    g3 = lift_correction_polynomial(3, lift3, _P3)

    def f_star3(x):
        return f(x) + np.polynomial.polynomial.polyval(np.asarray(x), g3)

    path_b = rhs_projection_third(f_star3, 14)
    worst = max(worst, np.max(np.abs(path_a - path_b)))

    lift5 = lift_fifth(FifthOrderBC(0.3, -0.2, 0.7, 0.1, -0.4))
    base5 = rhs_projection_fifth(f, 16)
    path_a5 = modified_rhs(5, lift5, base5, _P5)
    g5 = lift_correction_polynomial(5, lift5, _P5)

    def f_star5(x):
        return f(x) + np.polynomial.polynomial.polyval(np.asarray(x), g5)

    path_b5 = rhs_projection_fifth(f_star5, 16)
    worst = max(worst, np.max(np.abs(path_a5 - path_b5)))
    return _result("modified-rhs-two-path", worst, 1e-11)


def suite_diagonal_fast_paths() -> SuiteResult:
    """Closed-form diagonal solves match the general band route."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for order in (3, 5):
        N = 24
        dim = N - 2 if order == 3 else N - 4
        zeros = (0.0, 0.0, 0.0) if order == 3 else (0.0,) * 5
        matrix = operator_matrix(order, zeros, N)
        fstar = rng.uniform(-2.0, 2.0, dim)
        banded, _ = lu_factor_banded(matrix).solve(fstar)
        fast = solve_diagonal_third(fstar) if order == 3 else solve_diagonal_fifth(fstar)
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
    per_n = {3: [], 5: []}
    for order, band_consts in ((3, (21, 13)), (5, (55, 21))):
        cf, cs = band_consts
        coeffs = (1.0, 1.0, 1.0) if order == 3 else (1.0,) * 5
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
# displays, including the entries the oracle rejects.  (k, offset) means matrix entry (k+max(-d,0),
# k+max(d,0)) for super/subdiagonal offset d.

def _safe(fn, k):
    try:
        return fn(k)
    except ZeroDivisionError:
        return math.nan


def _printed_third():
    p = pochhammer
    return {
        "B1": {0: lambda k: 2.0 * (k + 1) * (k + 3)},
        "E2": {
            1: lambda k: 2.0 * (k + 1) * (k + 2) / (2 * k + 5),
            -1: lambda k: -2.0 * (k + 3) * (k + 4) / (2 * k + 5),
            0: lambda k: 4.0 * (k + 1) * (k + 3) / ((2 * k + 3) * (2 * k + 5)),
        },
        "E1": {
            0: lambda k: 4.0 * (k + 1) * (k + 3) / ((2 * k + 3) * (2 * k + 5)),
            1: lambda k: -8.0 * (k + 1) * (k + 2) / ((2 * k + 3) * (2 * k + 5) * (2 * k + 7)),
            2: lambda k: -2.0 * (k + 1) * (k + 2) * (k + 3) / ((k + 4) * (2 * k + 5) * (2 * k + 7)),
            -1: lambda k: 8.0 * (k + 3) * (k + 4) / ((2 * k + 3) * (2 * k + 5) * (2 * k + 7)),
            -2: lambda k: -2.0 * (k + 3) * (k + 4) * (k + 5) / ((k + 2) * (2 * k + 5) * (2 * k + 7)),
        },
        "E0": {
            0: lambda k: 3.0 * (k + 1) * (k + 3) / (2.0 * p(k + 0.5, 4)),
            1: lambda k: 3.0 * p(k + 1, 2) / (4.0 * p(k + 1.5, 3)),
            2: lambda k: -3.0 * p(k + 1, 3) / (4.0 * (k + 4) * p(k + 1.5, 4)),
            3: lambda k: -p(k + 1, 3) / (4.0 * (k + 5) * p(k + 2.5, 3)),
            -1: lambda k: -3.0 * p(k + 3, 2) / (4.0 * p(k + 1.5, 3)),
            -2: lambda k: -3.0 * p(k + 3, 5) / (4.0 * k * p(k + 1.5, 4)),
            -3: lambda k: p(k + 4, 3) / (4.0 * (k + 2) * p(k + 2.5, 3)),
        },
    }


def _printed_fifth():
    p = pochhammer

    def r(k):
        return 3.0 * (k + 1) * (k + 2) * (k + 4) * (k + 5)

    return {
        "B2": {0: r},
        "G4": {
            0: lambda k: r(k) / (2.0 * p(k + 2.5, 2)),
            1: lambda k: 3.0 * p(k + 1, 3) * (k + 5) / (2 * k + 7),
            -1: lambda k: -3.0 * p(k + 2, 5) / ((k + 3) * (2 * k + 7)),
        },
        "G3": {
            0: lambda k: r(k) / (2.0 * p(k + 2.5, 2)),
            1: lambda k: -3.0 * p(k + 1, 3) * (k + 5) / (2.0 * p(k + 2.5, 3)),
            2: lambda k: -3.0 * p(k + 1, 4) / (4.0 * p(k + 3.5, 2)),
            -1: lambda k: 3.0 * (k + 2) * p(k + 4, 3) / (2.0 * p(k + 2.5, 3)),
            -2: lambda k: -3.0 * p(k + 4, 4) / (4.0 * p(k + 3.5, 2)),
        },
        "G2": {
            0: lambda k: 3.0 * r(k) / (4.0 * p(k + 1.5, 4)),
            1: lambda k: 9.0 * p(k + 1, 3) * (k + 5) / (8.0 * p(k + 2.5, 3)),
            2: lambda k: -9.0 * p(k + 1, 4) / (8.0 * p(k + 2.5, 4)),
            3: lambda k: -3.0 * p(k + 1, 5) / (8.0 * (k + 6) * p(k + 3.5, 3)),
            -1: lambda k: -9.0 * (k + 2) * p(k + 4, 3) / (8.0 * p(k + 2.5, 3)),
            -2: lambda k: -9.0 * p(k + 4, 4) / (8.0 * p(k + 2.5, 4)),
            -3: lambda k: 3.0 * p(k + 4, 5) / (8.0 * (k + 3) * p(k + 3.5, 3)),
        },
        "G1": {
            0: lambda k: 3.0 * r(k) / (8.0 * p(k + 1.5, 4)),
            1: lambda k: -9.0 * p(k + 1, 3) * (k + 5) / (4.0 * p(k + 1.5, 5)),
            2: lambda k: -3.0 * p(k + 1, 4) / (4.0 * p(k + 2.5, 4)),
            3: lambda k: 3.0 * p(k + 1, 5) / (4.0 * (k + 6) * p(k + 2.5, 5)),
            4: lambda k: 3.0 * p(k + 1, 5) / (16.0 * (k + 7) * p(k + 3.5, 4)),
            -1: lambda k: 9.0 * (k + 2) * p(k + 4, 3) / (4.0 * p(k + 1.5, 5)),
            -2: lambda k: -3.0 * p(k + 4, 4) / (4.0 * p(k + 2.5, 4)),
            -3: lambda k: -3.0 * p(k + 4, 5) / (4.0 * (k + 3) * p(k + 2.5, 5)),
            -4: lambda k: 3.0 * p(k + 5, 5) / (16.0 * (k + 3) * p(k + 3.5, 4)),
        },
        "G0": {
            0: lambda k: 15.0 * r(k) / (16.0 * p(k + 0.5, 6)),
            1: lambda k: 15.0 * p(k + 1, 3) * (k + 5) / (16.0 * p(k + 1.5, 5)),
            2: lambda k: -15.0 * p(k + 1, 4) / (8.0 * p(k + 1.5, 6)),
            3: lambda k: -15.0 * p(k + 1, 5) / (32.0 * (k + 6) * p(k + 2.5, 5)),
            4: lambda k: 15.0 * p(k + 1, 5) / (32.0 * (k + 7) * p(k + 2.5, 6)),
            5: lambda k: 3.0 * p(k + 1, 5) / (32.0 * (k + 8) * p(k + 3.5, 5)),
            -1: lambda k: -15.0 * (k + 2) * p(k + 4, 3) / (16.0 * p(k + 1.5, 5)),
            -2: lambda k: -15.0 * p(k + 4, 4) / (8.0 * p(k + 1.5, 6)),
            -3: lambda k: 15.0 * p(k + 4, 5) / (32.0 * (k + 3) * p(k + 2.5, 5)),
            -4: lambda k: 15.0 * p(k + 5, 5) / (32.0 * (k + 3) * p(k + 2.5, 6)),
            -5: lambda k: -3.0 * p(k + 6, 5) / (32.0 * (k + 3) * p(k + 3.5, 5)),
        },
    }


def _compare_printed(order: int) -> list[str]:
    """Printed per-block entries vs the oracle blocks; returns mismatch lines."""
    if order == 3:
        printed = _printed_third()
        blocks = {"B1": None, "E2": 2, "E1": 1, "E0": 0}
        zeros, N = (0.0, 0.0, 0.0), 16
    else:
        printed = _printed_fifth()
        blocks = {"B2": None, "G4": 4, "G3": 3, "G2": 2, "G1": 1, "G0": 0}
        zeros, N = (0.0,) * 5, 16
    base = operator_oracle_matrix(order, zeros, N)
    dim = base.shape[0]
    mismatches: list[str] = []
    for name, slot in blocks.items():
        if slot is None:
            oracle_block = base
        else:
            coeffs = list(zeros)
            coeffs[{3: {2: 0, 1: 1, 0: 2}, 5: {4: 0, 3: 1, 2: 2, 1: 3, 0: 4}}[order][slot]] = 1.0
            oracle_block = operator_oracle_matrix(order, tuple(coeffs), N) - base
        for offset, formula in printed[name].items():
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
    lines = _compare_printed(3) + _compare_printed(5)
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
    printed3 = (1.0, 6.0 / 5.0, 10.0 / 7.0)
    exact3 = tuple(order_spec(3).mono_to_test[d][d] for d in range(3))
    printed5 = (1.0, 8.0 / 7.0, 4.0 / 3.0, 50.0 / 33.0, 238.0 / 143.0)
    exact5 = tuple(order_spec(5).mono_to_test[d][d] for d in range(5))
    lines = []
    for d, (a, b) in enumerate(zip(printed3, exact3)):
        if abs(a - b) > 1e-12:
            lines.append(f"order 3 degree {d}: printed {a:.6g} vs projection {b:.6g}")
    for d, (a, b) in enumerate(zip(printed5, exact5)):
        if abs(a - b) > 1e-12:
            lines.append(f"order 5 degree {d}: printed {a:.6g} vs projection {b:.6g}")
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


SUITES = (
    suite_quadrature_exactness,
    suite_orthogonality,
    suite_endpoint_normalization,
    suite_shift_identities,
    suite_derivative_finite_difference,
    suite_third_derivative_identity,
    suite_fifth_derivative_identity,
    suite_expansion_third,
    suite_expansion_fifth,
    suite_legendre_expansions,
    suite_boundary_vanishing,
    suite_duality,
    suite_oracle_equivalence_third,
    suite_oracle_equivalence_fifth,
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

"""Jacobi evaluation, norms, and quadrature against independent oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpg.jacobi import (
    JacobiParams,
    R_rows,
    eval_R,
    eval_R_derivative,
    gauss_jacobi_rule,
    norm_h,
    pochhammer,
)

P12 = JacobiParams(1.0, 2.0)
P21 = JacobiParams(2.0, 1.0)
P23 = JacobiParams(2.0, 3.0)
P32 = JacobiParams(3.0, 2.0)
LEGENDRE = JacobiParams(0.0, 0.0)
ALL_PARAMS = (P12, P21, P23, P32)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.0, 0) == 1.0

    def test_integer_base(self):
        assert pochhammer(2.0, 3) == 24.0

    def test_real_base(self):
        # direct product oracle: 1.5 * 2.5
        assert pochhammer(1.5, 2) == pytest.approx(3.75, abs=0.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(1.0, -1)

    @given(st.floats(-5, 5), st.integers(0, 12))
    def test_recursion_property(self, a, k):
        assert pochhammer(a, k + 1) == pytest.approx(
            pochhammer(a, k) * (a + k), rel=1e-12, abs=1e-300
        )


class TestEvalR:
    def test_degree_zero(self):
        assert eval_R(P12, 0, 0.3) == 1.0

    def test_degree_one_from_recurrence_start(self):
        # R_1 = (alpha - beta + (lambda+1) x) / (2 (alpha+1))
        assert eval_R(P12, 1, 0.2) == pytest.approx((-1 + 5 * 0.2) / 4.0, abs=1e-15)

    def test_legendre_degree_two(self):
        # oracle: L_2(x) = (3 x^2 - 1) / 2
        assert eval_R(LEGENDRE, 2, 0.5) == pytest.approx(-0.125, abs=1e-15)

    def test_endpoint_normalization(self):
        for params in ALL_PARAMS + (LEGENDRE,):
            for n in range(51):
                assert eval_R(params, n, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_array_input_matches_scalars(self):
        x = np.linspace(-1, 1, 7)
        vals = eval_R(P23, 5, x)
        assert vals.shape == x.shape
        for xi, vi in zip(x, vals):
            assert eval_R(P23, 5, float(xi)) == vi

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_rolling_rows_match_table_bitwise(self, params):
        x = np.linspace(-1.0, 1.0, 41)
        rows = list(R_rows(params, 300, x))
        assert len(rows) == 301
        for n, row in enumerate(rows):
            assert np.array_equal(eval_R(params, n, x), row)

    def test_table_consistency(self):
        x = np.linspace(-0.9, 0.9, 5)
        for n, row in enumerate(R_rows(P32, 8, x)):
            assert np.allclose(row, eval_R(P32, n, x), rtol=0, atol=1e-14)

    def test_classical_regime_enforced(self):
        with pytest.raises(ValueError):
            JacobiParams(-2.0, 0.0)

    def test_negative_degree_rejected(self):
        x = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            eval_R(P12, -1, x)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            next(R_rows(P12, -1, x))


class TestDerivative:
    def test_zeroth_is_identity(self):
        assert eval_R_derivative(P12, 3, 0, 0.4) == eval_R(P12, 3, 0.4)

    def test_annihilation_above_degree(self):
        assert eval_R_derivative(P12, 1, 2, 0.0) == 0.0

    def test_legendre_first_derivative(self):
        # oracle: d/dx L_2 = 3x, checked at x = 0.5
        assert eval_R_derivative(LEGENDRE, 2, 1, 0.5) == pytest.approx(1.5, abs=1e-14)

    def test_against_central_differences(self):
        h = 1e-6
        x = np.linspace(-0.9, 0.9, 13)
        for params in ALL_PARAMS:
            for n in range(21):
                fd = (eval_R(params, n, x + h) - eval_R(params, n, x - h)) / (2 * h)
                exact = np.asarray(eval_R_derivative(params, n, 1, x))
                assert np.max(np.abs(fd - exact)) < 1e-5

    def test_second_derivative_pochhammer_scaling(self):
        # D^2 L_2 = 3; the power reading of the divisor would give 6
        assert eval_R_derivative(LEGENDRE, 2, 2, 0.1) == pytest.approx(3.0, abs=1e-13)


class TestNormH:
    def test_legendre_constant(self):
        assert norm_h(LEGENDRE, 0) == pytest.approx(2.0, abs=0.0)

    def test_solver_family_closed_form(self):
        for k in range(12):
            assert norm_h(P12, k) == pytest.approx(
                8.0 / ((k + 1) * (k + 2) * (k + 3)), rel=1e-14
            )

    def test_weight_mass_oracle(self):
        # oracle: int (1-x)^2 (1+x)^3 dx = 2^6 * 2! * 3! / 6! = 16/15
        assert norm_h(P23, 0) == pytest.approx(16.0 / 15.0, rel=1e-14)

    def test_fifth_order_test_family_closed_form(self):
        for k in range(12):
            expect = 128.0 / ((k + 1) * (k + 2) * (k + 3) * (k + 4) * (k + 5))
            assert norm_h(P23, k) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("indexes", [(1, 2), (2, 3), (0, 0), (3, 4)])
    def test_int_array_matches_scalar_calls_bitwise(self, indexes):
        params = JacobiParams(*map(float, indexes))
        n = np.arange(5001)
        expect = np.array([norm_h(params, int(i)) for i in n])
        assert np.array_equal(norm_h(params, n).view(np.int64), expect.view(np.int64))

    def test_real_index_path_rejects_an_array(self):
        with pytest.raises(ValueError, match="integral indexes only"):
            norm_h(JacobiParams(0.5, 1.5), np.arange(6))

    def test_real_index_path_matches_integer_path(self):
        # lgamma route against the exact integer route at an integer pair
        integer = norm_h(P23, 4)
        real = norm_h(JacobiParams(2.0 + 1e-13, 3.0), 4)
        assert real == pytest.approx(integer, rel=1e-10)


class TestGaussJacobi:
    def test_midpoint_rule(self):
        rule = gauss_jacobi_rule(LEGENDRE, 1)
        assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
        assert rule.weights[0] == pytest.approx(2.0, rel=1e-14)

    def test_chebyshev_one_node_rule(self):
        # the derivative formula's K_1 / K_0 ratio is 0/0 at alpha + beta = -1
        rule = gauss_jacobi_rule(JacobiParams(-0.5, -0.5), 1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(np.pi, rel=1e-14)

    def test_cubic_moment(self):
        # oracle: int (1-x)(1+x)^2 x^3 dx = 4/35 by the antiderivative
        rule = gauss_jacobi_rule(P12, 20)
        assert rule.integrate(rule.nodes ** 3) == pytest.approx(4.0 / 35.0, rel=1e-13)

    def test_weight_sum_is_total_mass(self):
        rule = gauss_jacobi_rule(P12, 14)
        assert rule.weights.sum() == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_invariants(self):
        for params in ALL_PARAMS:
            rule = gauss_jacobi_rule(params, 17)
            assert np.all(np.diff(rule.nodes) > 0)
            assert rule.nodes[0] > -1 and rule.nodes[-1] < 1
            assert np.all(rule.weights > 0)

    @given(st.integers(1, 24))
    @settings(max_examples=12, deadline=None)
    def test_exactness_to_degree(self, count):
        rule = gauss_jacobi_rule(P21, count)
        # highest exactly-integrable monomial via n+1 extra nodes as oracle
        check = gauss_jacobi_rule(P21, count + 6)
        d = 2 * count - 1
        got = rule.integrate(rule.nodes ** d)
        ref = check.integrate(check.nodes ** d)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_nodes_are_basis_roots(self):
        rule = gauss_jacobi_rule(P32, 9)
        residuals = eval_R(P32, 9, rule.nodes)
        assert np.max(np.abs(residuals)) < 1e-13

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(P12, 0)

    def test_concurrent_calls_match_serial(self):
        # nothing in the package holds shared state: eight threads that
        # project, solve and build rules at once get the serial results bit
        # for bit
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from dualpg import ThirdOrderProblem, rhs_projection, solve

        problem = ThirdOrderProblem(1.0, 2.0, 3.0, rhs=np.cosh)

        def rule():
            built = gauss_jacobi_rule(JacobiParams(0.5, 1.5), 30)
            return np.concatenate((built.nodes, built.weights))

        calls = (
            lambda: rhs_projection(5, np.cosh, 24),
            lambda: solve(problem, 24).coefficients,
            rule,
        )
        serial = [call().tobytes() for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-computation
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(lambda i: calls[i % 3]().tobytes(), range(48),
                                        timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial[i % 3] for i in range(48)]

    @pytest.mark.parametrize("count", [1, 2, 5, 40, 80, 200])
    def test_legendre_matches_numpy_leggauss(self, count):
        # independent oracle: numpy's Legendre-Gauss rule
        nodes, weights = np.polynomial.legendre.leggauss(count)
        rule = gauss_jacobi_rule(LEGENDRE, count)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14
        assert np.max(np.abs(rule.weights / weights - 1.0)) <= 1e-10

    @pytest.mark.parametrize("params", [P12, P23], ids=str)
    def test_large_rule_nodes_are_roots(self, params):
        count = 640
        rule = gauss_jacobi_rule(params, count)
        f = eval_R(params, count, rule.nodes)
        df = eval_R_derivative(params, count, 1, rule.nodes)
        assert np.max(np.abs(f / df)) <= 1e-15
        assert rule.weights.sum() == pytest.approx(norm_h(params, 0), rel=1e-13)


class TestOrthogonality:
    def test_orthogonality_and_norms(self):
        for params in ALL_PARAMS:
            rule = gauss_jacobi_rule(params, 16)
            table = np.stack([eval_R(params, n, rule.nodes) for n in range(13)])
            gram = (table * rule.weights[None, :]) @ table.T
            for m in range(13):
                for n in range(13):
                    if m == n:
                        assert gram[m, n] == pytest.approx(
                            norm_h(params, n), rel=1e-11
                        )
                    else:
                        assert abs(gram[m, n]) < 1e-11


class TestShiftIdentities:
    X = np.cos(np.pi * np.arange(1, 34) / 34.0)

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_index_lowering(self, params):
        a, b = params.alpha, params.beta
        down_b, down_a = JacobiParams(a, b - 1), JacobiParams(a - 1, b)
        for k in range(21):
            base = eval_R(params, k, self.X)
            via_degree_raise = (
                (k + a + 1) * eval_R(down_b, k + 1, self.X)
                - a * eval_R(down_a, k + 1, self.X)
            ) / (k + 1)
            assert np.max(np.abs(base - via_degree_raise)) < 1e-10
            via_same_degree = (
                (k + b) * eval_R(down_b, k, self.X) + a * eval_R(down_a, k, self.X)
            ) / (k + a + b)
            assert np.max(np.abs(base - via_same_degree)) < 1e-10

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_one_minus_x_raise(self, params):
        a, b = params.alpha, params.beta
        up = JacobiParams(a + 1, b)
        for k in range(21):
            lhs = (1 - self.X) * eval_R(up, k, self.X)
            rhs = (2 * (a + 1) / (2 * k + a + b + 2)) * (
                eval_R(params, k, self.X) - eval_R(params, k + 1, self.X)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_one_minus_x_squared_raise(self, params):
        a, b = params.alpha, params.beta
        lam = params.lam
        up = JacobiParams(a + 1, b + 1)
        for k in range(1, 21):
            s = 2 * k + lam
            lhs = (1 - self.X ** 2) * eval_R(up, k - 1, self.X)
            rhs = (4 * (a + 1) / ((s - 1) * s * (s + 1))) * (
                (k + b) * (s + 1) * eval_R(params, k - 1, self.X)
                - (k + a + 1) * (s - 1) * eval_R(params, k + 1, self.X)
                + (a - b) * s * eval_R(params, k, self.X)
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-10

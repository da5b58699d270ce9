"""Generalized Jacobi basis: boundary behaviour, derivative identities."""
import numpy as np
import pytest

from dualpg.gjp import (
    GJPIndex,
    eval_J,
    eval_legendre_series,
    eval_phi,
    eval_psi,
    legendre_expansion_J,
)
from dualpg.jacobi import JacobiParams, eval_R, gauss_jacobi_rule, norm_h

X = np.cos(np.pi * np.arange(1, 34) / 34.0)


class TestEvalJ:
    def test_vanishes_at_plus_one(self):
        assert eval_J(GJPIndex(-2, -1), 3, 1.0) == 0.0

    def test_unit_at_origin(self):
        # weight factors and R_0 all equal one at x = 0
        assert eval_J(GJPIndex(-2, -1), 3, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_composition_with_weight_factor(self):
        # oracle: (1 - 0.25)(0.5) R_1^{(2,1)}(0.5) with R_1 = (1 + 5x)/6
        expect = 0.75 * 0.5 * (1 + 5 * 0.5) / 6.0
        assert eval_J(GJPIndex(-2, -1), 4, 0.5) == pytest.approx(expect, abs=1e-15)
        assert expect == pytest.approx(0.21875)

    def test_rejects_degree_below_offset(self):
        with pytest.raises(ValueError):
            eval_J(GJPIndex(-2, -1), 2, 0.0)
        with pytest.raises(ValueError):
            eval_J(GJPIndex(-3, -2), 4, 0.0)

    def test_mixed_branch(self):
        idx = GJPIndex(-2, 1)
        assert idx.offset == 2
        expect = (1 - 0.3) ** 2 * eval_R(JacobiParams(2.0, 1.0), 1, 0.3)
        assert eval_J(idx, 3, 0.3) == pytest.approx(expect, rel=1e-14)

    def test_positive_ell_negative_m(self):
        idx = GJPIndex(1, -3)
        assert idx.offset == 3
        x = np.linspace(-1.0, 1.0, 9)
        expect = (1 + x) ** 3 * eval_R(JacobiParams(1.0, 3.0), 2, x)
        assert np.allclose(eval_J(idx, 5, x), expect, rtol=1e-14, atol=1e-15)

    def test_classical_branch(self):
        idx = GJPIndex(1, 2)
        assert idx.offset == 0
        assert eval_J(idx, 4, 0.2) == pytest.approx(
            eval_R(JacobiParams(1.0, 2.0), 4, 0.2), rel=1e-14
        )


class TestPhi:
    def test_homogeneous_conditions_built_in(self):
        assert eval_phi(3, 0, 1.0, 0) == 0.0
        assert eval_phi(3, 0, -1.0, 0) == 0.0
        assert eval_phi(3, 0, 1.0, 1) == 0.0

    def test_third_derivative_identity(self):
        # D^3 phi_k = 2 (k+1)(k+3) R_k^{(1,2)}
        vals = eval_phi(3, 2, X, 3)
        expect = 30.0 * eval_R(JacobiParams(1.0, 2.0), 2, X)
        assert np.max(np.abs(vals - expect)) < 1e-12

    def test_fifth_derivative_identity(self):
        # D^5 phi_k = -3 (k+1)(k+2)(k+4)(k+5) R_k^{(2,3)}
        vals = eval_phi(5, 1, X, 5)
        expect = -540.0 * eval_R(JacobiParams(2.0, 3.0), 1, X)
        assert np.max(np.abs(vals - expect)) / 540.0 < 1e-12

    def test_boundary_vanishing_multiplicities(self):
        for order, mult_plus, mult_minus in ((3, 2, 1), (5, 3, 2)):
            for k in range(21):
                for q in range(mult_plus):
                    assert abs(eval_phi(order, k, 1.0, q)) < 1e-10
                for q in range(mult_minus):
                    assert abs(eval_phi(order, k, -1.0, q)) < 1e-10

    def test_derivative_order_capped(self):
        with pytest.raises(ValueError):
            eval_phi(3, 0, 0.0, 4)

    def test_only_odd_orders_supported(self):
        with pytest.raises(ValueError):
            eval_phi(4, 0, 0.0)


class TestPsi:
    def test_dual_conditions(self):
        assert eval_psi(3, 0, -1.0) == 0.0
        assert eval_psi(3, 0, 1.0) == 0.0

    def test_unit_at_origin(self):
        assert eval_psi(3, 0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_fifth_order_value(self):
        # oracle: (0.75)^2 * 1.5 * R_0 = 0.84375
        assert eval_psi(5, 0, 0.5) == pytest.approx(0.84375, abs=1e-15)


class TestDuality:
    def test_third_order_biorthogonality(self):
        # (D^3 phi_j, psi_k) = 2 (j+1)(j+3) h_j^{(1,2)} delta_jk
        rule = gauss_jacobi_rule(JacobiParams(0.0, 0.0), 40)
        for j in range(13):
            d3 = eval_phi(3, j, rule.nodes, 3)
            for k in range(13):
                got = rule.integrate(d3 * eval_psi(3, k, rule.nodes))
                expect = (
                    2.0 * (j + 1) * (j + 3) * norm_h(JacobiParams(1.0, 2.0), j)
                    if j == k else 0.0
                )
                assert got == pytest.approx(expect, abs=1e-9)


class TestLegendreExpansions:
    def test_first_pair_at_k3(self):
        # (2/3) [L_0 - (3/5) L_1 - L_2 + (3/5) L_3]
        coeffs = legendre_expansion_J(GJPIndex(-2, -1), 3)
        assert coeffs == pytest.approx(
            np.array([2 / 3, -2 / 5, -2 / 3, 2 / 5]), rel=1e-15
        )

    def test_second_pair_at_k3(self):
        # (2/3) [L_0 + (3/5) L_1 - L_2 - (3/5) L_3]
        coeffs = legendre_expansion_J(GJPIndex(-1, -2), 3)
        assert coeffs == pytest.approx(
            np.array([2 / 3, 2 / 5, -2 / 3, -2 / 5]), rel=1e-15
        )

    @pytest.mark.parametrize(
        "ell,m,kmin", [(-2, -1, 3), (-1, -2, 3), (-3, -2, 5), (-2, -3, 5)]
    )
    def test_expansion_matches_direct_evaluation(self, ell, m, kmin):
        idx = GJPIndex(ell, m)
        for k in range(kmin, 21):
            series = eval_legendre_series(legendre_expansion_J(idx, k), X)
            direct = eval_J(idx, k, X)
            assert np.max(np.abs(series - direct)) < 1e-11

    def test_pointwise_consistency_at_single_point(self):
        idx = GJPIndex(-2, -1)
        series = eval_legendre_series(legendre_expansion_J(idx, 7), 0.3)
        assert series == pytest.approx(eval_J(idx, 7, 0.3), abs=1e-11)

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError):
            legendre_expansion_J(GJPIndex(-4, -1), 6)

    def test_degree_floor_enforced(self):
        with pytest.raises(ValueError):
            legendre_expansion_J(GJPIndex(-3, -2), 4)


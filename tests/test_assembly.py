"""System assembly against the quadrature oracle, projections, and lifting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpg import (
    assemble_fifth,
    assemble_third,
    lift_fifth,
    lift_third,
    rhs_projection_fifth,
    rhs_projection_third,
)
from dualpg.assembly import (
    FifthOrderBC,
    FifthOrderProblem,
    LiftPolynomial,
    ThirdOrderBC,
    ThirdOrderProblem,
    lift_correction_polynomial,
    modified_rhs,
    operator_matrix,
    operator_oracle_matrix,
    rhs_projection,
)
from dualpg.jacobi import ConvergenceError, JacobiParams, eval_R, norm_h
from dualpg.orders import order_spec

unit_coeff = st.floats(-1.0, 1.0, allow_nan=False)


class TestOperatorMatrix:
    def test_pure_third_derivative_is_diagonal(self):
        m = operator_matrix(3, (0.0, 0.0, 0.0), 10)
        dense = m.to_dense()
        assert np.allclose(dense, np.diag(np.diag(dense)))
        assert dense[0, 0] == pytest.approx(6.0)

    def test_second_derivative_superdiagonal_entry(self):
        # E2 entry (k, k+1) = 2 (k+1)(k+2) / (2k+5); 4/5 at k = 0
        base = operator_matrix(3, (0.0, 0.0, 0.0), 10).to_dense()
        with_a1 = operator_matrix(3, (1.0, 0.0, 0.0), 10).to_dense()
        e2 = with_a1 - base
        assert e2[0, 1] == pytest.approx(4.0 / 5.0, rel=1e-14)
        for k in range(7):
            assert e2[k, k + 1] == pytest.approx(
                2.0 * (k + 1) * (k + 2) / (2 * k + 5), rel=1e-13
            )

    def test_pure_fifth_derivative_diagonal(self):
        dense = operator_matrix(5, (0.0,) * 5, 12).to_dense()
        assert np.allclose(dense, np.diag(np.diag(dense)))
        assert dense[0, 0] == pytest.approx(120.0)

    def test_band_widths(self):
        assert operator_matrix(3, (1.0, 1.0, 1.0), 20).p == 3
        assert operator_matrix(5, (1.0,) * 5, 20).q == 5

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            operator_matrix(3, (0.0, 0.0, 0.0), 2)
        with pytest.raises(ValueError):
            operator_matrix(5, (0.0,) * 5, 4)

    @pytest.mark.parametrize("order,coeffs,index", [
        (3, (np.nan, 1.0, 1.0), 0),
        (3, (1.0, 1.0, np.inf), 2),
        (5, (1.0, 1.0, 1.0, -np.inf, 1.0), 3),
    ])
    def test_nonfinite_coefficient_names_index(self, order, coeffs, index):
        with pytest.raises(ValueError, match=f"coefficient {index} must be finite"):
            operator_matrix(order, coeffs, 16)

    def test_expansion_tables_self_truncate(self):
        # every coefficient of a row k + d < 0 is an exact zero, so the
        # filter callers apply drops nothing but those zeros
        ks = np.arange(8)
        for order in (3, 5):
            table = order_spec(order).expansion_table
            for q in range(order + 1):
                for k in range(8):
                    for d, c in table(q, k).items():
                        if k + d < 0:
                            assert c == 0.0, (order, q, k, d)
                for d, c in table(q, ks).items():
                    assert np.all(np.asarray(c)[ks + d < 0] == 0.0), (order, q, d)


def scalar_expansion(order, q, j):
    """{row: coefficient} of column j from the table at an int j, nonzeros only."""
    return {
        j + d: c for d, c in order_spec(order).expansion_table(q, j).items()
        if j + d >= 0 and c != 0.0
    }

# coefficient sets per order, zeros included: a zero weight skips its table
BITWISE_COEFFS = {
    3: ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 1.0, 2.0), (-3.7, 0.0, 2.9),
        (2.0, 3.0, 4.0)),
    5: ((1.0,) * 5, (0.0,) * 5, (0.0, 1.0, 2.0, 3.0, 4.0),
        (1.3, -2.6, 0.0, 3.9, -0.4), (2.0, 3.0, 4.0, 5.0, 6.0)),
}


def reference_operator_data(order, coefficients, N):
    """Band data assembled entry by entry from the table at each int column."""
    spec = order_spec(order)
    dim = spec.dimension(N)
    band = min(spec.bandwidth, dim - 1)
    data = np.zeros((2 * band + 1, dim))
    for j in range(dim):
        for q, w in spec.weights(coefficients).items():
            if w == 0.0:
                continue
            for i, c in scalar_expansion(order, q, j).items():
                if i < dim:
                    data[band + i - j, j] = float(data[band + i - j, j]) + w * c
    return data


class TestVectorisedAssembly:
    @pytest.mark.parametrize("order", [3, 5])
    def test_array_table_matches_scalar_view(self, order):
        spec = order_spec(order)
        k = np.arange(301)
        for q in range(order + 1):
            table = spec.expansion_table(q, k)
            for j in range(k.size):
                from_table = {
                    j + d: float(c[j]) for d, c in table.items()
                    if j + d >= 0 and c[j] != 0.0
                }
                scalar = scalar_expansion(order, q, j)
                assert list(from_table) == list(scalar), (q, j)
                for i, c in scalar.items():
                    assert np.float64(c).tobytes() == np.float64(from_table[i]).tobytes()

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 24, 256])
    def test_matches_entry_by_entry_assembly_bitwise(self, order, N):
        for coefficients in BITWISE_COEFFS[order]:
            matrix = operator_matrix(order, coefficients, N)
            expect = reference_operator_data(order, coefficients, N)
            assert np.array_equal(matrix.data.view(np.int64), expect.view(np.int64))


class TestOperatorOracle:
    def test_diagonal_entry_from_duality(self):
        # (D^3 phi_2, psi_2) / h_2 = 2 * 3 * 5 = 30
        got = operator_oracle_matrix(3, (0.0, 0.0, 0.0), 12)[2, 2]
        assert got == pytest.approx(30.0, rel=1e-12)

    def test_fifth_order_corner(self):
        got = operator_oracle_matrix(5, (0.0,) * 5, 12)[0, 0]
        assert got == pytest.approx(120.0, rel=1e-12)

    def test_outside_band_vanishes(self):
        scale = 6.0  # smallest diagonal of B1 anchors the zero tolerance
        oracle = operator_oracle_matrix(3, (1.0, 1.0, 1.0), 12)
        for j, k in ((0, 4), (5, 1), (0, 7)):
            got = oracle[k, j]
            assert abs(got) < 1e-11 * scale

    @pytest.mark.parametrize(
        "order,coeffs,N",
        [
            (3, (0.0, 0.0, 0.0), 8),
            (3, (1.0, 1.0, 1.0), 16),
            (3, (2.0, 3.0, 4.0), 24),
            (5, (0.0,) * 5, 10),
            (5, (1.0,) * 5, 17),
            (5, (2.0, 3.0, 4.0, 5.0, 6.0), 24),
        ],
    )
    def test_assembled_matches_oracle(self, order, coeffs, N):
        assembled = operator_matrix(order, coeffs, N).to_dense()
        oracle = operator_oracle_matrix(order, coeffs, N)
        hk = np.array(
            [norm_h(order_spec(order).test_params, k) for k in range(oracle.shape[0])]
        )
        dev = np.abs(assembled - oracle) * hk[:, None]
        oracle_m = np.abs(oracle) * hk[:, None]
        scale = max(1.0, float(oracle_m.max()))
        assert np.all(dev <= np.maximum(1e-10 * oracle_m, 1e-12 * scale))


class TestRhsProjection:
    def test_zero_function(self):
        out = rhs_projection_third(lambda x: np.zeros_like(x), 10)
        assert out.shape == (8,)
        assert np.max(np.abs(out)) < 1e-13

    def test_reproduces_unit_basis_function(self):
        # f = R_0 = 1: f*_0 = 1, every other entry 0 by orthogonality
        out = rhs_projection_third(lambda x: np.ones_like(x), 12)
        assert out[0] == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_reproduces_higher_basis_function(self):
        p12 = JacobiParams(1.0, 2.0)
        out = rhs_projection_third(lambda x: eval_R(p12, 2, x), 12)
        assert out[2] == pytest.approx(1.0, rel=1e-12)
        out[2] -= 1.0
        assert np.max(np.abs(out)) < 1e-12

    def test_fifth_order_unit_function(self):
        out = rhs_projection_fifth(lambda x: np.ones_like(x), 12)
        assert out[0] == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_scalar_rhs_broadcast(self):
        out = rhs_projection_third(lambda x: 1.0, 8)
        assert out[0] == pytest.approx(1.0, rel=1e-12)

    def test_nonfinite_rhs_rejected(self):
        def blows_up(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return x / (x - x)

        with pytest.raises(ValueError):
            rhs_projection_third(blows_up, 8)

    @pytest.mark.parametrize("order,N", [(3, 24), (5, 24), (3, 256)])
    def test_unresolved_rhs_stops_at_node_budget(self, order, N):
        # a kink never settles; refinement must stop at the node budget
        with pytest.raises(ConvergenceError, match="quadrature nodes"):
            rhs_projection(order, np.abs, N)


class TestLiftThird:
    def test_zero_data(self):
        lift = lift_third(ThirdOrderBC())
        assert lift.is_zero
        assert lift(0.37) == 0.0

    def test_sinh_family_closed_form(self):
        m = 1.0
        bc = ThirdOrderBC(-np.sinh(m), np.sinh(m), m * np.cosh(m))
        a0, a1, a2 = lift_third(bc).coefficients
        assert a0 == pytest.approx((np.cosh(1) - np.sinh(1)) / 2, rel=1e-14)
        assert a1 == pytest.approx(-np.sinh(1), rel=1e-14)
        assert a2 == pytest.approx(-(np.cosh(1) - np.sinh(1)) / 2, rel=1e-14)

    def test_simple_instance(self):
        lift = lift_third(ThirdOrderBC(-1.0, 1.0, 1.0))
        assert lift.coefficients == pytest.approx((0.0, -1.0, 0.0), abs=1e-15)

    @given(unit_coeff, unit_coeff, unit_coeff)
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, am, ap, a1p):
        lift = lift_third(ThirdOrderBC(am, ap, a1p))
        c = np.asarray(lift.coefficients)
        dc = np.polynomial.polynomial.polyder(c)
        pv = np.polynomial.polynomial.polyval
        assert pv(1.0, c) == pytest.approx(-ap, abs=1e-12)
        assert pv(-1.0, c) == pytest.approx(-am, abs=1e-12)
        assert pv(1.0, dc) == pytest.approx(-a1p, abs=1e-12)

    def test_double_application_changes_nothing(self):
        lift = lift_third(ThirdOrderBC(0.0, 0.0, 0.0))
        assert lift.is_zero


class TestLiftFifth:
    def test_zero_data(self):
        assert lift_fifth(FifthOrderBC()).is_zero

    def test_second_derivative_only(self):
        # a2+ = 1 alone: lift is (-1/8, 0, 1/4, 0, -1/8)
        lift = lift_fifth(FifthOrderBC(a2_plus=1.0))
        assert lift.coefficients == pytest.approx(
            (-0.125, 0.0, 0.25, 0.0, -0.125), abs=1e-15
        )

    @given(unit_coeff, unit_coeff, unit_coeff, unit_coeff, unit_coeff)
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, am, ap, a1m, a1p, a2p):
        lift = lift_fifth(FifthOrderBC(am, ap, a1m, a1p, a2p))
        c = np.asarray(lift.coefficients)
        pv = np.polynomial.polynomial.polyval
        dc = np.polynomial.polynomial.polyder(c)
        ddc = np.polynomial.polynomial.polyder(c, 2)
        assert pv(1.0, c) == pytest.approx(-ap, abs=1e-12)
        assert pv(-1.0, c) == pytest.approx(-am, abs=1e-12)
        assert pv(1.0, dc) == pytest.approx(-a1p, abs=1e-12)
        assert pv(-1.0, dc) == pytest.approx(-a1m, abs=1e-12)
        assert pv(1.0, ddc) == pytest.approx(-a2p, abs=1e-12)

    def test_coefficient_count_enforced(self):
        with pytest.raises(ValueError):
            LiftPolynomial(order=5, coefficients=(1.0, 2.0))
        with pytest.raises(ValueError):
            LiftPolynomial(order=4, coefficients=(0.0,) * 5)


class TestModifiedRhs:
    def test_zero_lift_is_identity(self):
        base = np.arange(6.0)
        problem = ThirdOrderProblem(1.0, 2.0, 3.0, rhs=np.cosh)
        out = modified_rhs(3, lift_third(ThirdOrderBC()), base, problem)
        assert np.array_equal(out, base)
        assert out is not base

    def test_two_path_equivalence_third(self):
        problem = ThirdOrderProblem(
            1.5, -0.5, 2.0, rhs=np.cosh, bc=ThirdOrderBC(0.3, -0.2, 0.7)
        )
        lift = lift_third(problem.bc)
        base = rhs_projection_third(problem.rhs, 14)
        path_a = modified_rhs(3, lift, base, problem)
        g = lift_correction_polynomial(3, lift, problem)
        path_b = rhs_projection_third(
            lambda x: np.cosh(x) + np.polynomial.polynomial.polyval(x, g), 14
        )
        assert np.max(np.abs(path_a - path_b)) < 1e-11

    def test_two_path_equivalence_fifth(self):
        problem = FifthOrderProblem(
            1.0, 0.5, -1.0, 2.0, 0.25, rhs=np.sinh,
            bc=FifthOrderBC(0.3, -0.2, 0.7, 0.1, -0.4),
        )
        lift = lift_fifth(problem.bc)
        base = rhs_projection_fifth(problem.rhs, 16)
        path_a = modified_rhs(5, lift, base, problem)
        g = lift_correction_polynomial(5, lift, problem)
        path_b = rhs_projection_fifth(
            lambda x: np.sinh(x) + np.polynomial.polynomial.polyval(x, g), 16
        )
        assert np.max(np.abs(path_a - path_b)) < 1e-11

    def test_corrections_confined_to_low_entries(self):
        problem = ThirdOrderProblem(
            1.0, 1.0, 1.0, rhs=np.cosh, bc=ThirdOrderBC(0.5, 0.5, 0.5)
        )
        base = np.zeros(10)
        out = modified_rhs(3, lift_third(problem.bc), base, problem)
        assert np.max(np.abs(out[3:])) == 0.0
        problem5 = FifthOrderProblem(
            1.0, 1.0, 1.0, 1.0, 1.0, rhs=np.cosh,
            bc=FifthOrderBC(0.5, 0.4, 0.3, 0.2, 0.1),
        )
        out5 = modified_rhs(5, lift_fifth(problem5.bc), np.zeros(10), problem5)
        assert np.max(np.abs(out5[5:])) == 0.0


class TestAssemble:
    def test_third_system_shape(self):
        problem = ThirdOrderProblem(1.0, 2.0, 3.0, rhs=np.cosh)
        system = assemble_third(problem, 12)
        assert system.matrix.n == 10
        assert system.order == 3
        assert system.matrix.p <= 3 and system.matrix.q <= 3

    def test_fifth_system_shape(self):
        problem = FifthOrderProblem(1.0, 1.0, 1.0, 1.0, 1.0, rhs=np.cosh)
        system = assemble_fifth(problem, 12)
        assert system.matrix.n == 8
        assert system.matrix.p <= 5

    def test_minimum_truncation(self):
        with pytest.raises(ValueError):
            assemble_third(ThirdOrderProblem(0.0, 0.0, 0.0, rhs=np.cosh), 2)

    def test_manufactured_polynomial_solution(self):
        # rhs built from a known coefficient vector must reproduce it
        from dualpg.gjp import eval_phi

        rng = np.random.default_rng(5)
        a_true = rng.uniform(-1, 1, 8)
        coeffs = (2.0, 3.0, 4.0)

        def rhs(x):
            acc = np.zeros_like(np.asarray(x, dtype=float))
            for k, ak in enumerate(a_true):
                acc += ak * (
                    eval_phi(3, k, x, 3)
                    - coeffs[0] * eval_phi(3, k, x, 2)
                    - coeffs[1] * eval_phi(3, k, x, 1)
                    + coeffs[2] * eval_phi(3, k, x, 0)
                )
            return acc

        from dualpg.banded import lu_factor_banded

        system = assemble_third(ThirdOrderProblem(*coeffs, rhs=rhs), 10)
        solved, _ = lu_factor_banded(system.matrix).solve(system.rhs)
        assert np.max(np.abs(solved - a_true)) < 1e-10

"""System assembly against the quadrature oracle, projections, and lifting."""
import dataclasses
import tracemalloc
from fractions import Fraction

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
from dualpg.analysis import SpectralSolution, condition_diagonal
from dualpg.assembly import (
    _legendre_from_chebyshev,
    FifthOrderBC,
    FifthOrderProblem,
    LiftPolynomial,
    ThirdOrderBC,
    ThirdOrderProblem,
    assemble,
    boundary_lift,
    lift_correction_polynomial,
    modified_rhs,
    operator_matrix,
    operator_oracle_matrix,
    rhs_projection,
)
from dualpg.families import make_family
from dualpg.jacobi import ConvergenceError, JacobiParams, eval_R, norm_h, pochhammer
from dualpg.orders import order_spec

unit_coeff = st.floats(-1.0, 1.0, allow_nan=False)
P = np.polynomial.polynomial


def _b1_diagonal(k):
    """Diagonal of B1: D^3 phi_k = 2 (k+1)(k+3) R_k^{(1,2)}; k int or array."""
    return 2.0 * (k + 1) * (k + 3)


def _b2_diagonal(k):
    """Diagonal of B2: -D^5 phi_k = 3 (k+1)(k+2)(k+4)(k+5) R_k^{(2,3)}."""
    return 3.0 * (k + 1) * (k + 2) * (k + 4) * (k + 5)


# --- reference expansion tables --------------------------------------------
#
# The closed forms written out term by term, one `pochhammer` call per rising
# factorial: an independent reference for `OrderSpec.expansion_band` and
# `operator_matrix`.  Those build every entry from m through a chain of
# two-term Jacobi relations, so they agree with these forms to rounding, not
# bit for bit: within COLUMN_EPS machine epsilons of the largest
# sum_q |w_q E_q| entry of the same column (the chain measured <= 3.6 eps).
# An entry about 1/k the size of its neighbours keeps that absolute error,
# so it can be off by thousands of ulps of itself at k ~ 4000.
#
# _third_table(q, k)[d] = coefficient of R_{k+d}^{(1,2)} in D^q phi_k, and
# _fifth_table(q, k)[d] = coefficient of R_{k+d}^{(2,3)} in D^q phi_k, for an
# int k or an int array k (one coefficient per column).  Pochhammer factors
# with nonpositive bases truncate the out-of-range terms.

def _third_table(q: int, k):
    """Offset-keyed R^{(1,2)}-expansion of D^q phi_k for the order-3 basis."""
    if q == 3:
        terms = {0: _b1_diagonal(k)}
    elif q == 2:
        terms = {
            1: 2.0 * pochhammer(k + 3, 2) / (2 * k + 5),
            0: -(k + 1) * (k + 3) / pochhammer(k + 1.5, 2),
            -1: -2.0 * pochhammer(k, 2) / (2 * k + 3),
        }
    elif q == 1:
        terms = {
            2: pochhammer(k + 3, 3) / (2.0 * (k + 2) * pochhammer(k + 2.5, 2)),
            1: -pochhammer(k + 3, 2) / pochhammer(k + 1.5, 3),
            0: -(k + 1) * (k + 3) / pochhammer(k + 1.5, 2),
            -1: pochhammer(k, 2) / pochhammer(k + 0.5, 3),
            -2: pochhammer(k - 1, 3) / (2.0 * (k + 2) * pochhammer(k + 0.5, 2)),
        }
    elif q == 0:
        terms = {
            3: pochhammer(k + 4, 3) / (4.0 * (k + 2) * pochhammer(k + 2.5, 3)),
            2: -3.0 * pochhammer(k + 3, 3) / (4.0 * (k + 2) * pochhammer(k + 1.5, 4)),
            1: -3.0 * pochhammer(k + 3, 2) / (4.0 * pochhammer(k + 1.5, 3)),
            0: 3.0 * (k + 1) * (k + 3) / (2.0 * pochhammer(k + 0.5, 4)),
            -1: 3.0 * pochhammer(k, 2) / (4.0 * pochhammer(k + 0.5, 3)),
            -2: -3.0 * pochhammer(k - 1, 3) / (4.0 * (k + 2) * pochhammer(k - 0.5, 4)),
            -3: -pochhammer(k - 2, 3) / (4.0 * (k + 2) * pochhammer(k - 0.5, 3)),
        }
    else:
        raise ValueError(f"third-order expansion defined for q in 0..3, got {q}")
    return terms


def _fifth_table(q: int, k):
    """Offset-keyed R^{(2,3)}-expansion of D^q phi_k for the order-5 basis."""
    if q == 5:
        terms = {0: -_b2_diagonal(k)}
    elif q == 4:
        terms = {
            1: -3.0 * (k + 2) * pochhammer(k + 4, 3) / (2 * k + 7),
            0: 3.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (2.0 * pochhammer(k + 2.5, 2)),
            -1: 3.0 * pochhammer(k, 3) * (k + 4) / (2 * k + 5),
        }
    elif q == 3:
        terms = {
            2: -3.0 * pochhammer(k + 4, 4) / (4.0 * pochhammer(k + 3.5, 2)),
            1: 3.0 * (k + 2) * pochhammer(k + 4, 3) / (2.0 * pochhammer(k + 2.5, 3)),
            0: 3.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (2.0 * pochhammer(k + 2.5, 2)),
            -1: -3.0 * pochhammer(k, 3) * (k + 4) / (2.0 * pochhammer(k + 1.5, 3)),
            -2: -3.0 * pochhammer(k - 1, 4) / (4.0 * pochhammer(k + 1.5, 2)),
        }
    elif q == 2:
        terms = {
            3: -3.0 * pochhammer(k + 4, 5) / (8.0 * (k + 3) * pochhammer(k + 3.5, 3)),
            2: 9.0 * pochhammer(k + 4, 4) / (8.0 * pochhammer(k + 2.5, 4)),
            1: 9.0 * (k + 2) * pochhammer(k + 4, 3) / (8.0 * pochhammer(k + 2.5, 3)),
            0: -9.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (4.0 * pochhammer(k + 1.5, 4)),
            -1: -9.0 * pochhammer(k, 3) * (k + 4) / (8.0 * pochhammer(k + 1.5, 3)),
            -2: 9.0 * pochhammer(k - 1, 4) / (8.0 * pochhammer(k + 0.5, 4)),
            -3: 3.0 * pochhammer(k - 2, 5) / (8.0 * (k + 3) * pochhammer(k + 0.5, 3)),
        }
    elif q == 1:
        terms = {
            4: -3.0 * pochhammer(k + 5, 5) / (16.0 * (k + 3) * pochhammer(k + 3.5, 4)),
            3: 3.0 * pochhammer(k + 4, 5) / (4.0 * (k + 3) * pochhammer(k + 2.5, 5)),
            2: 3.0 * pochhammer(k + 4, 4) / (4.0 * pochhammer(k + 2.5, 4)),
            1: -9.0 * (k + 2) * pochhammer(k + 4, 3) / (4.0 * pochhammer(k + 1.5, 5)),
            0: -9.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (8.0 * pochhammer(k + 1.5, 4)),
            -1: 9.0 * pochhammer(k, 3) * (k + 4) / (4.0 * pochhammer(k + 0.5, 5)),
            -2: 3.0 * pochhammer(k - 1, 4) / (4.0 * pochhammer(k + 0.5, 4)),
            -3: -3.0 * pochhammer(k - 2, 5) / (4.0 * (k + 3) * pochhammer(k - 0.5, 5)),
            -4: -3.0 * pochhammer(k - 3, 5) / (16.0 * (k + 3) * pochhammer(k - 0.5, 4)),
        }
    elif q == 0:
        terms = {
            5: -3.0 * pochhammer(k + 6, 5) / (32.0 * (k + 3) * pochhammer(k + 3.5, 5)),
            4: 15.0 * pochhammer(k + 5, 5) / (32.0 * (k + 3) * pochhammer(k + 2.5, 6)),
            3: 15.0 * pochhammer(k + 4, 5) / (32.0 * (k + 3) * pochhammer(k + 2.5, 5)),
            2: -15.0 * pochhammer(k + 4, 4) / (8.0 * pochhammer(k + 1.5, 6)),
            1: -15.0 * (k + 2) * pochhammer(k + 4, 3) / (16.0 * pochhammer(k + 1.5, 5)),
            0: 45.0 * pochhammer(k + 1, 2) * pochhammer(k + 4, 2)
                / (16.0 * pochhammer(k + 0.5, 6)),
            -1: 15.0 * pochhammer(k, 3) * (k + 4) / (16.0 * pochhammer(k + 0.5, 5)),
            -2: -15.0 * pochhammer(k - 1, 4) / (8.0 * pochhammer(k - 0.5, 6)),
            -3: -15.0 * pochhammer(k - 2, 5) / (32.0 * (k + 3) * pochhammer(k - 0.5, 5)),
            -4: 15.0 * pochhammer(k - 3, 5) / (32.0 * (k + 3) * pochhammer(k - 1.5, 6)),
            -5: 3.0 * pochhammer(k - 4, 5) / (32.0 * (k + 3) * pochhammer(k - 1.5, 5)),
        }
    else:
        raise ValueError(f"fifth-order expansion defined for q in 0..5, got {q}")
    return terms


REFERENCE_TABLES = {3: _third_table, 5: _fifth_table}
COLUMN_EPS = 16.0
EPS = np.finfo(float).eps


def assert_within_column_bound(got, expect, scale, context=()):
    """|got - expect| <= COLUMN_EPS eps * scale of its column, entry by entry."""
    got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
    excess = np.abs(got - expect) - COLUMN_EPS * EPS * scale
    assert np.all(excess <= 0.0), (*context, float(np.max(excess)))


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
            spec = order_spec(order)
            for q in range(order + 1):
                for d, c in band_table(spec, q, ks.size).items():
                    assert np.all(c[ks + d < 0] == 0.0), (order, q, d)


def band_table(spec, q, count):
    """{d: row} of `expansion_band` with the one weight w_q = 1 over the columns
    0 .. count - 1, d = order - q .. q - order; the other rows must be exact zeros."""
    stack = spec.expansion_band({q: 1.0}, count)
    reach = spec.order - q
    outside = np.r_[:q, 2 * spec.order + 1 - q:2 * spec.order + 1]
    assert not np.any(stack[outside]), (spec.order, q)
    return {d: stack[spec.order + d] for d in range(reach, -reach - 1, -1)}


def scalar_expansion(order, q, j):
    """{row: coefficient} of column j from the reference table at an int j, nonzeros only."""
    return {
        j + d: c for d, c in REFERENCE_TABLES[order](q, j).items()
        if j + d >= 0 and c != 0.0
    }

# coefficient sets per order, zeros included: a zero weight skips its table
BITWISE_COEFFS = {
    3: ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (0.0, 1.0, 2.0), (-3.7, 0.0, 2.9),
        (2.0, 3.0, 4.0), (-3.7e6, 1.1e6, 2.9e6)),
    5: ((1.0,) * 5, (0.0,) * 5, (0.0, 1.0, 2.0, 3.0, 4.0),
        (1.3, -2.6, 0.0, 3.9, -0.4), (2.0, 3.0, 4.0, 5.0, 6.0),
        (1.3e6, -2.6e6, 0.7e6, 3.9e6, -0.4e6)),
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


def reference_operator_data_array(order, coefficients, N):
    """Band data assembled one offset at a time from the reference tables over all columns.

    Also returns each column's largest sum_q |w_q E_q| entry, the scale of
    the accuracy bound.
    """
    spec = order_spec(order)
    dim = spec.dimension(N)
    band = min(spec.bandwidth, dim - 1)
    data = np.zeros((2 * band + 1, dim))
    size = np.zeros((2 * band + 1, dim))
    k = np.arange(dim)
    for q, w in spec.weights(coefficients).items():
        if w == 0.0:
            continue
        for d, c in REFERENCE_TABLES[order](q, k).items():
            lo, hi = max(0, -d), min(dim, dim - d)
            if lo < hi:
                data[band + d, lo:hi] += w * c[lo:hi]
                size[band + d, lo:hi] += np.abs(w * c[lo:hi])
    return data, size.max(axis=0)


class TestVectorisedAssembly:
    @pytest.mark.parametrize("order", [3, 5])
    def test_expansion_table_matches_reference_bitwise(self, order):
        # the diagonal of B (q = order) is exact integers and matches bit for
        # bit; every other entry is within the column bound of the reference
        spec = order_spec(order)
        for q in range(order + 1):
            columns = band_table(spec, q, 41)
            for k in range(41):
                got = {d: row[k] for d, row in columns.items()}
                expect = REFERENCE_TABLES[order](q, k)
                assert list(got) == list(expect), (q, k)
                scale = max(abs(c) for c in expect.values())
                for d, c in expect.items():
                    if q == order:
                        assert np.float64(c).tobytes() == np.float64(got[d]).tobytes(), (q, k)
                    else:
                        assert_within_column_bound(got[d], c, scale, (q, k, d))
            for n in (1, 7, 300, 4092, 20000):
                k = np.arange(n)
                got, expect = band_table(spec, q, n), REFERENCE_TABLES[order](q, k)
                assert list(got) == list(expect), (q, n)
                scale = np.max([np.abs(c) for c in expect.values()], axis=0)
                for d, c in expect.items():
                    c = np.asarray(c, dtype=float)
                    if q == order:
                        assert np.array_equal(c.view(np.int64), got[d].view(np.int64)), (q, n)
                    else:
                        assert_within_column_bound(got[d], c, scale, (q, n, d))

    @pytest.mark.parametrize("order", [3, 5])
    def test_diagonal_matches_closed_form_bitwise(self, order):
        diagonal = order_spec(order).diagonal
        closed_form = _b1_diagonal if order == 3 else _b2_diagonal
        for k in range(41):
            assert np.float64(diagonal(k)).tobytes() == np.float64(closed_form(k)).tobytes()
        for k in (np.arange(20000), np.arange(20000, dtype=float)):
            assert np.array_equal(diagonal(k).view(np.int64), closed_form(k).view(np.int64))

    @pytest.mark.parametrize("order", [3, 5])
    def test_peak_allocation_bounded(self, order):
        # the chain runs in place on the band rows with one scratch stack of
        # the same size and a few vectors over the columns, so the
        # transients of a large assembly stay a small multiple of the band
        coefficients = (1.0,) * order
        operator_matrix(order, coefficients, 4096)
        tracemalloc.start()
        try:
            matrix = operator_matrix(order, coefficients, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * matrix.data.nbytes

    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 24, 40, 256, 1024, 4096])
    def test_matches_entry_by_entry_assembly_bitwise(self, order, N):
        # bit for bit with all-zero coefficients (the diagonal of B alone),
        # within the column bound otherwise
        for coefficients in BITWISE_COEFFS[order]:
            matrix = operator_matrix(order, coefficients, N)
            expect, scale = reference_operator_data_array(order, coefficients, N)
            if N <= 256:
                expect = reference_operator_data(order, coefficients, N)
            if not any(coefficients):
                assert np.array_equal(matrix.data.view(np.int64), expect.view(np.int64))
            else:
                assert_within_column_bound(matrix.data, expect, scale, (coefficients,))

    @pytest.mark.parametrize("order", [3, 5])
    @given(N=st.integers(5, 300), magnitudes=st.lists(st.floats(-6.0, 6.0), min_size=5,
           max_size=5), signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_coefficients_within_column_bound(self, order, N, magnitudes, signs):
        coefficients = tuple(s * 10.0 ** e for s, e in zip(signs[:order], magnitudes))
        matrix = operator_matrix(order, coefficients, N)
        expect, scale = reference_operator_data_array(order, coefficients, N)
        assert_within_column_bound(matrix.data, expect, scale, (coefficients, N))


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

    @pytest.mark.parametrize("order,N", [(3, 24), (3, 1024), (5, 24), (5, 1024)])
    def test_cosh_matches_high_precision(self, order, N):
        # 40-digit mpmath quadratures of (cosh, R_k)_w / h_k, k = 0..13 and
        # one high k where the coefficient is far below rounding
        got = rhs_projection(order, np.cosh, N)
        high = COSH_PROJECTION_HIGH_K[order]
        ref = np.array([float(v) for v in COSH_PROJECTION[order]])
        assert np.max(np.abs(got[:14] - ref[:14])) <= 4e-15
        assert abs(got[high] - ref[14]) <= 4e-15

    def test_entries_past_the_chop_are_exact_zeros(self):
        out = rhs_projection(3, np.cosh, 1024)
        assert np.count_nonzero(out[24:]) == 0
        # a polynomial of degree 2 has no R_k component past k = 2
        out = rhs_projection(5, lambda x: 3.0 * x * x - x, 40)
        assert np.count_nonzero(out[3:]) == 0

    def test_rounding_noise_projects_to_zeros(self):
        # table 5, m = 1, coefficients 1,1,1: L sinh = 0, so the sum of the
        # sampled derivative terms is rounding noise of both signs (the
        # family's merged right-hand side is exactly zero instead)
        family = make_family(3, m=1.0)
        weights = order_spec(3).weights((1.0, 1.0, 1.0))

        def noisy(x):
            return sum(w * family.derivatives[q](x) for q, w in weights.items())

        x = np.linspace(-1.0, 1.0, 101)
        assert 0.0 < np.max(np.abs(noisy(x))) < 1e-15
        assert np.count_nonzero(rhs_projection(3, noisy, 24)) == 0

    @pytest.mark.parametrize("index,delta,N", [
        (0, 1e-9, 24), (1, 1e-9, 24), (2, 1e-12, 24), (0, 1e-9, 256),
    ])
    def test_cancellation_noise_projects_its_signal(self, index, delta, N):
        # moving one of table 5's coefficients 1,1,1 leaves L sinh at the
        # size of the move, with rounding noise of unit-scale terms on top:
        # the series never chops at eps relative, yet it is resolved
        family = make_family(3, m=1.0)
        base = (1.0, 1.0, 1.0)
        moved = tuple(c + delta * (i == index) for i, c in enumerate(base))
        spec = order_spec(3)
        before, after = spec.weights(base), spec.weights(moved)
        (q,) = [q for q in after if after[q] != before[q]]
        signal = rhs_projection(
            3, lambda x: (after[q] - before[q]) * family.derivatives[q](x), N
        )
        got = rhs_projection(3, family.third_order_problem(moved).rhs, N)
        assert np.max(np.abs(got - signal)) <= 1e-15

    def test_noise_above_unit_scale_rounding_is_cut(self):
        # 1e-3 left over from terms of size 1e6: the noise is an ulp of
        # 1e6 cosh, far above 256 eps but 2^-20 below the series
        got = rhs_projection(3, lambda x: (1e6 * np.cosh(x) + 1e-3) - 1e6 * np.cosh(x), 24)
        expect = np.zeros(got.size)
        expect[0] = 1e-3
        assert np.max(np.abs(got - expect)) <= 1e-9

    def test_small_smooth_rhs_chops_relative_to_its_size(self):
        small = rhs_projection(3, lambda x: 1e-16 * np.cosh(x), 24)
        full = rhs_projection(3, np.cosh, 24)
        assert np.count_nonzero(small) == np.count_nonzero(full) == 15
        assert np.max(np.abs(small - 1e-16 * full)) <= 1e-16 * 4e-15

    @pytest.mark.parametrize("rhs", [np.sign, lambda x: np.abs(x) ** 0.01,
                                     lambda x: np.where(x > 0.3, 1.0, 0.0)])
    @pytest.mark.parametrize("N", [24, 1024])
    def test_jumps_and_weak_singularities_are_not_noise(self, rhs, N):
        # their coefficients stall like noise, but at a visible size
        with pytest.raises(ConvergenceError, match="quadrature nodes"):
            rhs_projection(3, rhs, N)

    def test_kink_at_large_N_is_not_noise(self):
        # past 4000 points the moves of |x| fall below 2^-20 of the series,
        # but they shrink 4x per doubling, which rounding noise does not
        with pytest.raises(ConvergenceError, match="quadrature nodes"):
            rhs_projection(3, np.abs, 2048)

    def test_large_N_memory_peak(self):
        rhs_projection(3, np.cosh, 1024)
        tracemalloc.start()
        try:
            rhs_projection(3, np.cosh, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2 ** 20


def _exact_legendre_of_chebyshev(n):
    """Column k: the Legendre coefficients of T_k, k < n, as Fractions.

    Runs T_{k+1} = 2x T_k - T_{k-1} with x P_j = ((j+1) P_{j+1} + j P_{j-1})
    / (2j+1).
    """
    def times_x(a):
        out = [Fraction(0)] * (len(a) + 1)
        for j, v in enumerate(a):
            out[j + 1] += v * Fraction(j + 1, 2 * j + 1)
            if j:
                out[j - 1] += v * Fraction(j, 2 * j + 1)
        return out

    columns = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    while len(columns) < n:
        following = [2 * v for v in times_x(columns[-1])]
        for j, v in enumerate(columns[-2]):
            following[j] -= v
        columns.append(following)
    return columns[:n]


class TestChebyshevToLegendre:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40, 64])
    def test_matches_exact_rationals(self, n):
        # every entry within 8 eps relative; the exact zeros stay 0.0
        eps = np.finfo(float).eps
        for k, column in enumerate(_exact_legendre_of_chebyshev(n)):
            got = _legendre_from_chebyshev(np.eye(n)[k], n)
            ref = np.zeros(n)
            ref[:k + 1] = [float(v) for v in column]
            assert np.all(got[ref == 0.0] == 0.0)
            nonzero = ref != 0.0
            assert np.all(np.abs(got - ref)[nonzero] <= 8 * eps * np.abs(ref[nonzero]))

    def test_leading_rows(self):
        c = np.random.default_rng(3).uniform(-1.0, 1.0, 64)
        np.testing.assert_allclose(
            _legendre_from_chebyshev(c, 20), _legendre_from_chebyshev(c, 64)[:20],
            rtol=0.0, atol=1e-14,
        )

    def test_row_blocks_agree_with_evaluation(self):
        # 600 coefficients take several row blocks; both series must agree
        # at every point
        c = np.random.default_rng(4).uniform(-1.0, 1.0, 600) / np.arange(1, 601) ** 2
        a = _legendre_from_chebyshev(c, 600)
        x = np.linspace(-1.0, 1.0, 201)
        difference = np.polynomial.legendre.legval(x, a) - np.polynomial.chebyshev.chebval(x, c)
        assert np.max(np.abs(difference)) <= 1e-14


# (cosh, R_k^{(m,m+1)})_w / h_k for k = 0..13 and the high k, 40-digit mpmath
COSH_PROJECTION_HIGH_K = {3: 20, 5: 19}
COSH_PROJECTION = {
    3: ("1.103638323514326964786571", "0.1207810862888383333976528",
        "0.3019527157220958334941321", "0.005997742512040955511215625",
        "0.01049604939607167214462734", "0.00008535006265927348163234748",
        "0.0001280250939889102224485212", "0.0000005630805692824823635018957",
        "0.0000007742357827634132498151065", "2.129191113341253909143453e-9",
        "2.767948447343630081886488e-9", "5.204677024205892414622913e-12",
        "6.505846280257365518278642e-12", "8.888212577740011471776123e-15",
        "9.527771206979325643056918e-24"),
    5: ("1.073443051942117381437158", "0.09965128148869178524617476",
        "0.3487794852104212483616117", "0.006426280373482846903758231",
        "0.01445913084033640553345602", "0.0001126155331680110159947675",
        "0.0002064618108080201959904072", "0.0000008830158736324654964379988",
        "0.000001434900794652756431711748", "3.869402681554455632984998e-9",
        "5.804104022331683449477498e-9", "1.075634417799385118724054e-11",
        "1.523815425215795584859076e-11", "2.058668256980935427012968e-14",
        "2.539538781912181356256034e-23"),
}


# --- reference lifts and monomial tables -----------------------------------
#
# The closed-form lifts and literal monomial tables that `OrderSpec` used to
# carry, kept as references: for the lift it derives from m as -H^-1 applied
# to the boundary data, and for the Chebyshev transform of x^d, which
# projects the lift's right-hand-side correction.


def _lift_third(bc: ThirdOrderBC) -> tuple[float, float, float]:
    """Quadratic lift turning the order-3 boundary data homogeneous."""
    am, ap, a1p = bc.a_minus, bc.a_plus, bc.a1_plus
    a0 = (-am - 3.0 * ap + 2.0 * a1p) / 4.0
    a1 = (am - ap) / 2.0
    a2 = (-am + ap - 2.0 * a1p) / 4.0
    return (a0, a1, a2)


def _lift_fifth(bc: FifthOrderBC) -> tuple[float, float, float, float, float]:
    """Quartic lift for the order-5 boundary data (interpolates all five)."""
    am, ap = bc.a_minus, bc.a_plus
    a1m, a1p, a2p = bc.a1_minus, bc.a1_plus, bc.a2_plus
    a0 = (-2.0 * a1m + 8.0 * a1p - 2.0 * a2p - 5.0 * am - 11.0 * ap) / 16.0
    a1 = (a1m + a1p + 3.0 * am - 3.0 * ap) / 4.0
    a2 = (-6.0 * a1p + 2.0 * a2p - 3.0 * am + 3.0 * ap) / 8.0
    a3 = (-a1m - a1p - am + ap) / 4.0
    a4 = (-2.0 * a2p + 4.0 * a1p + 2.0 * a1m + 3.0 * am - 3.0 * ap) / 16.0
    return (a0, a1, a2, a3, a4)


# x^d = sum_i MONO_TO_TEST[order][d][i] R_i, test family
MONO_TO_TEST = {
    3: (
        (1.0,),
        (1.0 / 5.0, 4.0 / 5.0),
        (1.0 / 5.0, 8.0 / 35.0, 4.0 / 7.0),
    ),
    5: (
        (1.0,),
        (1.0 / 7.0, 6.0 / 7.0),
        (1.0 / 7.0, 4.0 / 21.0, 2.0 / 3.0),
        (1.0 / 21.0, 2.0 / 7.0, 2.0 / 11.0, 16.0 / 33.0),
        (1.0 / 21.0, 8.0 / 77.0, 4.0 / 11.0, 64.0 / 429.0, 48.0 / 143.0),
    ),
}

# boundary data of both signs over magnitudes 1e-6 .. 1e6
signed_datum = st.builds(
    lambda power, sign: sign * 10.0 ** power,
    st.floats(-6.0, 6.0), st.sampled_from([-1.0, 1.0]),
)


def bc_values(bc) -> np.ndarray:
    return np.array([getattr(bc, f.name) for f in dataclasses.fields(bc)])


class TestDerivedLift:
    @pytest.mark.parametrize("order", [3, 5])
    def test_inverse_is_exact(self, order):
        # H[r][d] = D^i x^d at boundary point r = (i, x), built from polyder
        spec = order_spec(order)
        size = spec.n_coefficients
        unit = np.eye(size)
        H = np.array([[P.polyval(x, P.polyder(unit[d], i)) for d in range(size)]
                      for i, x in spec.boundary_points])
        assert np.array_equal(np.array(spec.lift_matrix) @ H, -np.eye(size))

    @given(st.lists(signed_datum, min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_third_bitwise_closed_form(self, data):
        bc = ThirdOrderBC(*data)
        got = np.array(boundary_lift(bc).coefficients)
        assert got.tobytes() == np.array(_lift_third(bc)).tobytes()

    @given(st.lists(signed_datum, min_size=5, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_fifth_within_rounding_of_closed_form(self, data):
        bc = FifthOrderBC(*data)
        spec = order_spec(5)
        scale = np.abs(np.array(spec.lift_matrix)) @ np.abs(bc_values(bc))
        excess = np.abs(np.array(boundary_lift(bc).coefficients) - _lift_fifth(bc))
        excess -= 4.0 * EPS * scale
        assert np.all(excess <= 0.0), float(np.max(excess))

    @pytest.mark.parametrize("order", [3, 5])
    def test_zero_data_gives_positive_zeros(self, order):
        spec = order_spec(order)
        coefficients = np.array(boundary_lift(spec.bc()).coefficients)
        assert not np.any(coefficients) and not np.any(np.signbit(coefficients))

    @pytest.mark.parametrize("order,N", [(3, 6), (3, 24), (3, 1024),
                                         (5, 10), (5, 24), (5, 1024)])
    def test_transform_of_monomials_matches_literal(self, order, N):
        # the transform of x^d, d < order, reproduces the exact expansion to
        # 4 eps of the row's largest entry (2.06 eps measured) and reads
        # exactly 0.0 past degree d
        for d, row in enumerate(MONO_TO_TEST[order]):
            got = rhs_projection(order, lambda x: x**d, N)
            excess = np.abs(got[:d + 1] - row) - 4.0 * EPS * max(map(abs, row))
            assert np.all(excess <= 0.0), (d, float(np.max(excess)))
            assert np.all(got[d + 1:] == 0.0)


@pytest.mark.parametrize("call", [
    lambda N: operator_matrix(3, (1.0, 1.0, 1.0), N),
    lambda N: operator_matrix(5, (1.0,) * 5, N + 2),
    lambda N: rhs_projection(3, np.cosh, N),
    lambda N: rhs_projection(5, np.cosh, N + 2),
    lambda N: rhs_projection_third(np.cosh, N),
    lambda N: condition_diagonal(3, N),
    lambda N: condition_diagonal(5, N + 2),
    lambda N: SpectralSolution(3, N, np.zeros(0), lift_third(ThirdOrderBC())),
], ids=["operator_matrix-3", "operator_matrix-5", "rhs_projection-3", "rhs_projection-5",
        "rhs_projection_third", "condition_diagonal-3", "condition_diagonal-5",
        "SpectralSolution"])
@pytest.mark.parametrize("N", [2, 0, -5])
def test_truncation_below_order_rejected(call, N):
    # N + 2 reaches the order-5 routes at 4, 2 and -3: all below 5
    with pytest.raises(ValueError, match=r"order-\d system needs N >= \d, got -?\d"):
        call(N)


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

    @pytest.mark.parametrize("order,other", [(3, 5), (5, 3)])
    def test_lift_of_other_order_rejected(self, order, other):
        problem = order_spec(order).problem(*(1.0,) * order, rhs=np.cosh)
        lift = boundary_lift(order_spec(other).bc(*range(1, other + 1)))
        with pytest.raises(ValueError, match=f"order-{order} .* order-{other} lift"):
            modified_rhs(order, lift, np.zeros(10), problem)

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

    @pytest.mark.parametrize("problem,N", [
        (ThirdOrderProblem(1.5, -0.5, 2.0, rhs=np.cosh, bc=ThirdOrderBC(0.3, -0.2, 0.7)), 14),
        (FifthOrderProblem(1.0, 0.5, -1.0, 2.0, 0.25, rhs=np.sinh,
                           bc=FifthOrderBC(0.3, -0.2, 0.7, 0.1, -0.4)), 16),
    ], ids=["third", "fifth"])
    def test_nonhomogeneous_rhs_is_one_transform_of_lifted_rhs(self, problem, N):
        order = problem.order
        g = lift_correction_polynomial(order, boundary_lift(problem.bc), problem)
        expect = rhs_projection(order, lambda x: problem.rhs(x) + P.polyval(x, g), N)
        assert assemble(problem, N).rhs.tobytes() == expect.tobytes()

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

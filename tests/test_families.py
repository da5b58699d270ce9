"""Manufactured-solution families: exact derivatives and boundary data."""
import numpy as np
import pytest

from dualpg.families import TrigPolySum, make_family


def central_difference(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestTrigPolySum:
    def test_evaluation(self):
        u = TrigPolySum(omega=2.0, terms=(("sin", (0.0, 1.0)),))  # x sin(2x)
        x = 0.7
        assert u(x) == pytest.approx(x * np.sin(2 * x), rel=1e-15)

    def test_derivative_closure(self):
        u = TrigPolySum(omega=3.0, terms=(("cosh", (1.0, 0.0, -1.0)),))
        du = u.derivative()
        x = np.linspace(-0.9, 0.9, 9)
        assert np.max(np.abs(du(x) - central_difference(u, x))) < 1e-8

    def test_five_fold_derivative_against_differences(self):
        u = TrigPolySum(omega=1.5, terms=(("sin", (0.5, 1.0, 2.0)),))
        d2 = u.derivative().derivative()
        fd = (u(0.3 + 1e-5) - 2 * u(0.3) + u(0.3 - 1e-5)) / 1e-10
        assert d2(0.3) == pytest.approx(fd, rel=1e-4)


class TestFamilyOne:
    def test_exact_solution_form(self):
        family = make_family(1, j=2, m=1)
        x = np.linspace(-1, 1, 21)
        expect = (1 - x ** 2) * x ** 2 * np.sin(np.pi * x)
        assert np.max(np.abs(family.exact(x) - expect)) < 1e-14

    def test_homogeneous_boundary_data(self):
        for j, m in ((0, 1), (1, 1), (1, 2), (2, 1)):
            family = make_family(1, j=j, m=m)
            bc = family.bc()
            assert bc.is_homogeneous

    def test_rhs_matches_difference_quotients(self):
        family = make_family(1, j=1, m=1)
        rhs = family.rhs((2.0, 3.0, 4.0))
        x = np.linspace(-0.8, 0.8, 7)
        h = 1e-4
        u = family.exact
        d1 = central_difference(u, x, h)
        d2 = (u(x + h) - 2 * u(x) + u(x - h)) / h ** 2
        d3 = (u(x + 2 * h) - 2 * u(x + h) + 2 * u(x - h) - u(x - 2 * h)) / (2 * h ** 3)
        approx = d3 - 2.0 * d2 - 3.0 * d1 + 4.0 * u(x)
        assert np.max(np.abs(rhs(x) - approx)) < 1e-3

    def test_integer_m_required(self):
        with pytest.raises(ValueError):
            make_family(1, j=1, m=1.5)
        with pytest.raises(ValueError):
            make_family(1, j=-1, m=1)


class TestFamilyTwo:
    def test_exact_solution_form(self):
        family = make_family(2, m=3.0)
        x = np.linspace(-1, 1, 21)
        expect = (1 - x ** 2) ** 2 * (1 - x) * np.cosh(3 * x)
        assert np.max(np.abs(family.exact(x) - expect)) < 1e-12

    def test_all_five_conditions_homogeneous(self):
        family = make_family(2, m=2.5)
        bc = family.bc()
        assert bc.is_homogeneous
        # derivative multiplicities at the endpoints
        assert family.derivatives[2](1.0) == pytest.approx(0.0, abs=1e-12)
        assert family.derivatives[1](-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_rhs_uses_all_coefficients(self):
        family = make_family(2, m=1.0)
        base = family.rhs((0.0,) * 5)
        shifted = family.rhs((0.0, 0.0, 0.0, 0.0, 1.0))
        x = np.linspace(-0.9, 0.9, 5)
        assert np.max(np.abs(shifted(x) - base(x) - family.exact(x))) < 1e-12


class TestFamilyThree:
    def test_boundary_data(self):
        family = make_family(3, m=2.0)
        bc = family.bc()
        assert bc.a_minus == pytest.approx(-np.sinh(2.0), rel=1e-15)
        assert bc.a_plus == pytest.approx(np.sinh(2.0), rel=1e-15)
        assert bc.a1_plus == pytest.approx(2.0 * np.cosh(2.0), rel=1e-15)

    def test_rhs_cancellation_for_unit_coefficients(self):
        # u''' - u'' - u' + u vanishes identically for u = sinh(x)
        family = make_family(3, m=1.0)
        rhs = family.rhs((1.0, 1.0, 1.0))
        x = np.linspace(-1, 1, 9)
        assert np.max(np.abs(rhs(x))) < 1e-14

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_family(3, m=1.0).fifth_order_problem((0.0,) * 5)
        with pytest.raises(ValueError):
            make_family(2, m=1.0).third_order_problem((0.0, 0.0, 0.0))
        # the right coefficient count for the family, the other order's name
        with pytest.raises(ValueError, match="third_order_problem takes an order-3 "
                                             "record, got an order-5 ExampleFamily"):
            make_family(2, m=1.0).third_order_problem((1.0,) * 5)
        with pytest.raises(ValueError, match="fifth_order_problem takes an order-5 "
                                             "record, got an order-3 ExampleFamily"):
            make_family(3, m=1.0).fifth_order_problem((1.0,) * 3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_family(4)

    @pytest.mark.parametrize("family_id", [2, 3])
    def test_j_rejected_where_unused(self, family_id):
        with pytest.raises(ValueError, match=f"family {family_id} takes no j"):
            make_family(family_id, j=3)
        assert make_family(family_id, j=None, m=2.0).exact.omega == 2.0

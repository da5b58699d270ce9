"""Manufactured-solution families: exact derivatives and boundary data."""
import numpy as np
import pytest

from dualpg.assembly import rhs_projection
from dualpg.families import TrigPolySum, make_family
from dualpg.orders import order_spec

# (family, j, m) of Tables 3-5 and every coefficient set of their order:
# the printed sets, Table 3's (N, N^2, N^3) and (N^3, N^2, N) at N = 8..24,
# and a few draws from [0, 4]
TABLE_FAMILIES = (
    [(1, j, m) for j in (0, 1, 2) for m in (1, 2)]
    + [(2, None, m) for m in (0.5, 1.0, 2.0, 3.0)]
    + [(3, None, m) for m in (1.0, 2.0, 3.0)]
)
_DRAWS = np.random.default_rng(27).uniform(0.0, 4.0, (4, 5))
TABLE_COEFFICIENTS = {
    3: [(0.0, 0.0, 0.0), (2.0, 3.0, 4.0), (0.0, 1.0, 0.0), (1.0, 0.0, 1.0),
        (1.0, 1.0, 1.0)]
       + [(float(N), float(N) ** 2, float(N) ** 3) for N in (8, 12, 16, 20, 24)]
       + [(float(N) ** 3, float(N) ** 2, float(N)) for N in (8, 12, 16, 20, 24)]
       + [tuple(d[:3]) for d in _DRAWS],
    5: [(0.0,) * 5, (1.0,) * 5, (0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 2.0, 1.0, 2.0, 1.0)]
       + [tuple(d) for d in _DRAWS],
}
EPS = np.finfo(float).eps
KERNELS = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh}


def per_derivative_rhs(family, coefficients, x):
    """sum_q w_q u^(q)(x), one sampled term per derivative, summed from 0."""
    weights = order_spec(family.order).weights(coefficients)
    return sum(w * family.derivatives[q](x) for q, w in weights.items())


def term_scale(family, coefficients):
    """sum_q |w_q| sum over kernels and powers of |c_i| max |kernel| on [-1, 1]."""
    weights = order_spec(family.order).weights(coefficients)
    omega = family.exact.omega
    top = {"sin": 1.0, "cos": 1.0, "sinh": np.sinh(abs(omega)), "cosh": np.cosh(omega)}
    return sum(abs(w) * sum(top[k] * np.abs(c).sum() for k, c in family.derivatives[q].terms)
               for q, w in weights.items())


def polyval_sum(u, x):
    """The sum of polyval(x, p) * kernel(omega x) over u's terms, from zeros."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape)
    for kernel, coeffs in u.terms:
        total = total + np.polynomial.polynomial.polyval(
            x, np.asarray(coeffs)) * KERNELS[kernel](u.omega * x)
    return total


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


class TestTrigPolySumHorner:
    def test_call_is_bitwise_polyval(self):
        # the in-place Horner of __call__ against polyval, over every term
        # of the table families' derivative chains
        x = np.concatenate((np.linspace(-1.0, 1.0, 37), [-0.0, 0.0]))
        for fid, j, m in TABLE_FAMILIES:
            for u in make_family(fid, j=j, m=m).derivatives:
                assert u(x).tobytes() == polyval_sum(u, x).tobytes()
                assert u(0.3) == float(polyval_sum(u, 0.3))


class TestMergedRhs:
    @pytest.mark.parametrize("fid,j,m", TABLE_FAMILIES, ids=str)
    def test_matches_per_derivative_sum(self, fid, j, m):
        # the merged sum and the per-derivative sum round differently; both
        # are within a few eps of the terms' absolute sum, so 32 eps bounds
        # their gap
        family = make_family(fid, j=j, m=m)
        x = np.cos(np.pi * (np.arange(64) + 0.5) / 64)  # Chebyshev points
        for coefficients in TABLE_COEFFICIENTS[family.order]:
            rhs = family.rhs(coefficients)
            assert isinstance(rhs, TrigPolySum)
            assert len({kernel for kernel, _ in rhs.terms}) == len(rhs.terms)
            gap = np.max(np.abs(rhs(x) - per_derivative_rhs(family, coefficients, x)))
            assert gap <= 32 * EPS * term_scale(family, coefficients)

    @pytest.mark.parametrize("fid,j,m", TABLE_FAMILIES, ids=str)
    def test_merge_adds_weighted_polynomials_in_order(self, fid, j, m):
        # each kernel's polynomial is 0.0 + w_q c_q summed in weight order,
        # q = order .. 0, the missing terms counted as zeros
        family = make_family(fid, j=j, m=m)
        for coefficients in TABLE_COEFFICIENTS[family.order]:
            merged = {}
            for q, w in order_spec(family.order).weights(coefficients).items():
                for kernel, poly in family.derivatives[q].terms:
                    acc = merged.setdefault(kernel, [0.0] * len(poly))
                    acc += [0.0] * (len(poly) - len(acc))
                    for i, c in enumerate(poly):
                        acc[i] += w * c
            rhs = family.rhs(coefficients)
            assert rhs.omega == family.exact.omega
            expected = {k: p for k, p in merged.items() if any(p)}
            assert {k: list(p[:len(expected[k])]) for k, p in rhs.terms} == expected
            assert all(not any(p[len(expected[k]):]) for k, p in rhs.terms)

    def test_cancelling_rhs_is_exactly_zero(self):
        # table 5, m = 1, coefficients 1,1,1: L sinh = 0, and the merge
        # cancels it coefficient by coefficient
        problem = make_family(3, m=1.0).third_order_problem((1.0, 1.0, 1.0))
        assert problem.rhs.terms == ()
        x = np.linspace(-1.0, 1.0, 101)
        assert problem.rhs(x).tobytes() == np.zeros(101).tobytes()
        assert np.count_nonzero(rhs_projection(3, problem.rhs, 24)) == 0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("fid,index,field", [
        (1, 0, "alpha1"), (3, 2, "gamma1"), (2, 4, "mu2"),
    ])
    def test_nonfinite_coefficient_named_before_merging(self, bad, fid, index, field):
        # RuntimeWarnings are errors here: inf times a zero polynomial
        # coefficient would raise one, so no arithmetic may run first
        family = make_family(fid)
        coefficients = [1.0] * family.order
        coefficients[index] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            family.rhs(tuple(coefficients))
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            family.problem(tuple(coefficients))

    def test_boundary_data_computed_once(self):
        family = make_family(3, m=2.0)
        assert family.bc() is family.bc()
        assert family.problem((1.0, 0.0, 1.0)).bc is family.bc()


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

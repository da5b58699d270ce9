"""Condition reports, solve drivers, solution evaluation, error measurement."""
import tracemalloc

import numpy as np
import pytest

from dualpg.analysis import (
    SpectralSolution,
    _dominant_eigenvalue,
    condition_diagonal,
    condition_full,
    evaluate_solution,
    max_pointwise_error,
    residual_norm,
)
from dualpg import assemble_third, lift_fifth, lift_third, solve_fifth, solve_third
from dualpg.assembly import (
    FifthOrderBC,
    FifthOrderProblem,
    LiftPolynomial,
    ThirdOrderProblem,
    operator_matrix,
    ThirdOrderBC,
)
from dualpg.banded import BandedLU, BandedMatrix
from dualpg.families import make_family
from dualpg.gjp import eval_phi


def zero_lift(order):
    return LiftPolynomial(order=order, coefficients=(0.0,) * (3 if order == 3 else 5))


# each Krylov step applies its operator once; these are the band kernels
# the four extremes run on (D^T D: matvec + rmatvec, (D^T D)^-1:
# solve_transpose + solve, D: matvec, D^-1: solve)
APPLICATIONS = ((BandedMatrix, "matvec"), (BandedMatrix, "rmatvec"),
                (BandedLU, "solve"), (BandedLU, "solve_transpose"))


def count_calls(monkeypatch, targets):
    """Count calls to each (owner, name) in the returned dict, by name."""
    calls = {}

    def counted(name, function):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return function(*args)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def applications_per_extreme(calls):
    return {
        "sigma_max": calls["rmatvec"],
        "sigma_min": calls["solve_transpose"],
        "eig_max": calls["matvec"] - calls["rmatvec"],
        "eig_min": calls["solve"] - calls["solve_transpose"],
    }


class TestConditionDiagonal:
    def test_third_order_reference_row(self):
        rep = condition_diagonal(3, 16)
        assert rep.eig_min == 6.0
        assert rep.eig_max == 448.0
        assert rep.cond == pytest.approx(74.667, rel=1e-4)
        assert rep.cond_over_power == pytest.approx(0.2917, rel=1e-3)

    def test_fifth_order_reference_row(self):
        rep = condition_diagonal(5, 16)
        assert rep.eig_min == 120.0
        assert rep.eig_max == 112320.0
        assert rep.cond == pytest.approx(936.0, rel=1e-12)

    def test_single_mode_system(self):
        assert condition_diagonal(3, 3).cond == 1.0

    def test_closed_form_matches_table_column(self):
        # cond(B1) = (N-2) N / 3 for the diagonal third-order block
        for N in range(8, 41, 4):
            rep = condition_diagonal(3, N)
            assert rep.cond == pytest.approx((N - 2) * N / 3.0, rel=1e-13)

    def test_fifth_order_closed_form(self):
        # max diagonal sits at k = N-5, so cond = (N-4)(N-3)(N-1)N / 40
        for N in range(12, 41, 4):
            rep = condition_diagonal(5, N)
            expect = (N - 4) * (N - 3) * (N - 1) * N / 40.0
            assert rep.cond == pytest.approx(expect, rel=1e-13)


class TestConditionFull:
    def test_reference_value_third(self):
        rep = condition_full(3, 16)
        assert rep.cond == pytest.approx(55.287, rel=2e-2)

    def test_extremes_match_dense_oracle(self):
        # oracle: dense eigenvalues / singular values via numpy on N <= 12
        for order, N in ((3, 10), (3, 12), (5, 11), (5, 12)):
            rep = condition_full(order, N)
            dense = operator_matrix(
                order, (1.0,) * (3 if order == 3 else 5), N
            ).to_dense()
            eigs = np.linalg.eigvals(dense)
            assert np.max(np.abs(eigs.imag)) < 1e-9
            eigs = np.sort(eigs.real)
            sigmas = np.linalg.svd(dense, compute_uv=False)
            assert rep.eig_max == pytest.approx(eigs[-1], rel=1e-8)
            assert rep.eig_min == pytest.approx(eigs[0], rel=1e-8)
            assert rep.sigma_max == pytest.approx(sigmas[0], rel=1e-8)
            assert rep.sigma_min == pytest.approx(sigmas[-1], rel=1e-8)
            assert rep.cond == pytest.approx(sigmas[0] / sigmas[-1], rel=1e-8)

    def test_eigenvalues_positive(self):
        for order in (3, 5):
            for N in (16, 24):
                rep = condition_full(order, N)
                assert rep.eig_min > 0
                assert rep.eig_max > 0

    def test_custom_coefficients(self):
        rep = condition_full(3, 14, (2.0, 3.0, 4.0))
        dense = operator_matrix(3, (2.0, 3.0, 4.0), 14).to_dense()
        sig = np.linalg.svd(dense, compute_uv=False)
        assert rep.cond == pytest.approx(sig[0] / sig[-1], rel=1e-8)

    def test_complex_dominant_eigenpair(self):
        # D's dominant eigenvalues are the pair 403.2 +- 43.2i (cond 46.48);
        # eig_max reports the real part of the eigenvalue of largest modulus
        coeffs = (3.81, 1.42, 1.84)
        rep = condition_full(3, 16, coeffs)
        dense = operator_matrix(3, coeffs, 16).to_dense()
        assert rep.cond == pytest.approx(np.linalg.cond(dense), rel=1e-8)
        eigs = np.linalg.eigvals(dense)
        dominant = eigs[np.argmax(np.abs(eigs))]
        assert abs(dominant.imag) > 40.0
        assert rep.eig_max == pytest.approx(dominant.real, rel=1e-8)

    @pytest.mark.parametrize("N", [64, 256])
    @pytest.mark.parametrize("order", [3, 5])
    @pytest.mark.parametrize("draw", ["ones", "seeded"])
    def test_large_n_extremes_match_dense(self, order, N, draw):
        if draw == "ones":
            coeffs = (1.0,) * order
        else:
            rng = np.random.default_rng(1000 * order + N)
            coeffs = tuple(rng.uniform(-4.0, 4.0, order))
        rep = condition_full(order, N, coeffs)
        dense = operator_matrix(order, coeffs, N).to_dense()
        sigmas = np.linalg.svd(dense, compute_uv=False)
        eigs = np.linalg.eigvals(dense)
        eigs = eigs[np.argsort(np.abs(eigs))]
        assert rep.sigma_max == pytest.approx(sigmas[0], rel=1e-8)
        assert rep.sigma_min == pytest.approx(sigmas[-1], rel=1e-8)
        assert rep.eig_max == pytest.approx(eigs[-1].real, rel=1e-8)
        assert rep.eig_min == pytest.approx(eigs[0].real, rel=1e-8)

    def test_operator_applications_bounded_at_large_n(self, monkeypatch):
        calls = count_calls(monkeypatch, APPLICATIONS)
        rep = condition_full(3, 1024, (2.0, 3.0, 4.0))
        per_extreme = applications_per_extreme(calls)
        assert all(0 < count <= 256 for count in per_extreme.values()), per_extreme
        assert rep.cond == pytest.approx(181395, rel=1e-5)

    def test_check_interval_grows_with_steps(self, monkeypatch):
        # Ritz values are checked every KRYLOV_CHECK steps up to m = 48, so
        # the N = 40 step counts are those of a fixed 6-step interval; past
        # that the interval grows as m // 8, and N = 1024 solves fewer
        # Hessenberg eigenproblems than the 33 eig / 24 eigh of a fixed one
        calls = count_calls(monkeypatch, APPLICATIONS + ((np.linalg, "eig"),
                                                         (np.linalg, "eigh")))
        condition_full(3, 40, (2.0, 3.0, 4.0))
        assert applications_per_extreme(calls) == {
            "sigma_max": 24, "sigma_min": 12, "eig_max": 36, "eig_min": 18}
        calls.clear()
        rep = condition_full(3, 1024, (2.0, 3.0, 4.0))
        assert calls["eig"] < 33 and calls["eigh"] < 24, calls
        assert rep.cond == pytest.approx(181395, rel=1e-5)

    def test_krylov_routine_on_small_operators(self):
        # zero operator: breakdown at step 1 (beta = 0) is exact
        assert _dominant_eigenvalue(lambda v: 0.0 * v, 10) == 0.0
        # rotation: a complex pair; m = n ends the iteration exactly
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        theta = _dominant_eigenvalue(lambda v: rotation @ v, 2)
        assert abs(theta.imag) == pytest.approx(1.0, rel=1e-14)
        assert abs(theta.real) < 1e-14
        # the dominant eigenvalue keeps its sign
        diag = np.array([1.0, -5.0, 2.0])
        assert _dominant_eigenvalue(lambda v: diag * v, 3) == pytest.approx(-5.0)

    def test_nonfinite_coefficient_named(self):
        with pytest.raises(ValueError, match="coefficient 0 must be finite"):
            condition_full(3, 16, (np.nan, 1.0, 1.0))


class TestEvaluateSolution:
    def test_zero_everywhere(self):
        sol = SpectralSolution(3, 10, np.zeros(8), zero_lift(3))
        x = np.linspace(-1, 1, 11)
        assert np.max(np.abs(evaluate_solution(sol, x))) == 0.0

    def test_vanishes_at_endpoints_without_lift(self):
        sol = SpectralSolution(3, 10, np.ones(8), zero_lift(3))
        assert evaluate_solution(sol, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert evaluate_solution(sol, -1.0) == pytest.approx(0.0, abs=1e-12)

    def test_single_mode_matches_basis(self):
        coeffs = np.zeros(8)
        coeffs[0] = 1.0
        sol = SpectralSolution(3, 10, coeffs, zero_lift(3))
        assert evaluate_solution(sol, 0.0) == pytest.approx(
            eval_phi(3, 0, 0.0), abs=1e-14
        )
        assert evaluate_solution(sol, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_lift_subtraction(self):
        lift = lift_third(ThirdOrderBC(0.5, -0.5, 0.25))
        sol = SpectralSolution(3, 10, np.zeros(8), lift)
        assert evaluate_solution(sol, 0.3) == pytest.approx(-lift(0.3), abs=1e-15)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            SpectralSolution(3, 10, np.zeros(5), zero_lift(3))
        with pytest.raises(ValueError):
            SpectralSolution(4, 10, np.zeros(6), zero_lift(3))

    def test_lift_of_other_order_rejected(self):
        lift = lift_fifth(FifthOrderBC(1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(ValueError, match="order-3 solution .* order-5 lift"):
            SpectralSolution(3, 12, np.zeros(10), lift)

    @pytest.mark.parametrize("shape", [(), (0,), (7,), (2, 3)], ids=str)
    def test_shape_follows_input(self, shape):
        lift = lift_third(ThirdOrderBC(0.5, -0.5, 0.25))
        sol = SpectralSolution(3, 12, np.linspace(1.0, -1.0, 10), lift)
        x = np.linspace(-0.9, 0.8, int(np.prod(shape))).reshape(shape)
        vals = evaluate_solution(sol, x)
        assert np.shape(vals) == shape
        assert isinstance(vals, float) == (shape == ())
        assert np.array_equal(sol(x), vals)
        scalars = [evaluate_solution(sol, float(xi)) for xi in x.ravel()]
        assert np.array_equal(np.ravel(vals), scalars)


class TestMaxPointwiseError:
    def test_self_comparison_is_zero(self):
        family = make_family(1, j=1, m=1)
        sol = solve_third(family.third_order_problem((0.0, 0.0, 0.0)), 12)
        assert max_pointwise_error(sol, lambda x: evaluate_solution(sol, x)) < 1e-14

    def test_example1_reference_level(self):
        family = make_family(1, j=1, m=1)
        sol = solve_third(family.third_order_problem((0.0, 0.0, 0.0)), 16)
        assert max_pointwise_error(sol, family.exact) <= 1e-8

    def test_example2_reference_level(self):
        family = make_family(2, m=3.0)
        sol = solve_fifth(family.fifth_order_problem((0.0,) * 5), 20)
        assert max_pointwise_error(sol, family.exact) <= 1e-9

    def test_memory_independent_of_dimension(self):
        # a 4094 x 1001 table of basis values would take 31 MiB; the
        # streamed series keeps a few rows of 1001 points alive
        family = make_family(3, m=1.0)
        sol = solve_third(family.third_order_problem((1.0, 1.0, 1.0)), 4096)
        tracemalloc.start()
        try:
            error = max_pointwise_error(sol, family.exact)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert error <= 1e-13
        assert peak < 2 * 2**20


class TestSolveDrivers:
    def test_monotone_spectral_convergence(self):
        for family, order, coeffs in (
            (make_family(1, j=1, m=1), 3, (0.0, 0.0, 0.0)),
            (make_family(2, m=3.0), 5, (0.0,) * 5),
            (make_family(3, m=2.0), 3, (0.0, 1.0, 0.0)),
        ):
            errors = []
            for N in (8, 16, 24):
                if order == 3:
                    sol = solve_third(family.third_order_problem(coeffs), N)
                else:
                    sol = solve_fifth(family.fifth_order_problem(coeffs), N)
                errors.append(max_pointwise_error(sol, family.exact))
            assert errors[2] < errors[1] < errors[0]

    def test_residual_contract(self):
        family = make_family(1, j=0, m=1)
        problem = family.third_order_problem((2.0, 3.0, 4.0))
        system = assemble_third(problem, 16)
        sol = solve_third(problem, 16)
        scale = max(1.0, float(np.max(np.abs(system.rhs))))
        assert residual_norm(system, sol.coefficients) <= 1e-10 * scale

    def test_nonfinite_coefficient_rejected_before_solving(self):
        with pytest.raises(ValueError, match="alpha1 must be finite"):
            solve_third(ThirdOrderProblem(np.nan, 1.0, 1.0, rhs=np.cosh), 12)

    @pytest.mark.parametrize("build,field", [
        (lambda: ThirdOrderProblem(1.0, np.inf, 1.0, rhs=np.cosh), "beta1"),
        (lambda: FifthOrderProblem(1.0, 1.0, 1.0, 1.0, -np.inf, rhs=np.cosh), "mu2"),
        (lambda: ThirdOrderBC(a1_plus=np.nan), "a1_plus"),
        (lambda: FifthOrderBC(a2_plus=np.float32("nan")), "a2_plus"),
    ])
    def test_nonfinite_problem_data_names_field(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: FifthOrderProblem(1, 1, 1, 1, 1, rhs=np.cosh, bc=ThirdOrderBC(1, 2, 3)),
        lambda: ThirdOrderProblem(1, 1, 1, rhs=np.cosh, bc=FifthOrderBC(1, 2, 3, 4, 5)),
    ], ids=["fifth-with-third-bc", "third-with-fifth-bc"])
    def test_boundary_data_of_other_order_rejected(self, build):
        with pytest.raises(ValueError, match=r"order-(\d) \w+ needs order-\1 boundary data, "
                                             r"got an order-(?!\1)\d"):
            build()

    def test_zero_rhs_gives_zero_solution(self):
        problem = ThirdOrderProblem(0.0, 0.0, 0.0, rhs=lambda x: np.zeros_like(x))
        sol = solve_third(problem, 10)
        assert np.max(np.abs(sol.coefficients)) < 1e-13

    def test_minimum_truncations(self):
        # single-mode systems: N = 3 (order 3) and N = 5 (order 5)
        p3 = ThirdOrderProblem(1.0, 1.0, 1.0, rhs=np.cosh,
                               bc=ThirdOrderBC(0.1, -0.2, 0.3))
        sol3 = solve_third(p3, 3)
        assert sol3.coefficients.shape == (1,)
        assert np.isfinite(evaluate_solution(sol3, 0.5))
        from dualpg.assembly import FifthOrderProblem

        p5 = FifthOrderProblem(1.0, 1.0, 1.0, 1.0, 1.0, rhs=np.cosh)
        sol5 = solve_fifth(p5, 5)
        assert sol5.coefficients.shape == (1,)
        assert condition_full(3, 3).cond == 1.0


class TestPerOrderNames:
    """The `_third`/`_fifth` names that perfbench and the README call."""

    @pytest.mark.parametrize("order,word,problem", [
        (3, "third", make_family(3, m=2.0).third_order_problem((2.0, 3.0, 4.0))),
        (5, "fifth", FifthOrderProblem(
            1.0, 0.5, -1.0, 2.0, 0.25, rhs=np.cosh,
            bc=FifthOrderBC(0.3, -0.2, 0.7, 0.1, -0.4),
        )),
    ], ids=["order3", "order5"])
    def test_bitwise_equal_to_general_route(self, order, word, problem):
        import dualpg

        def alias(stem):
            return getattr(dualpg, f"{stem}_{word}")

        def same(a, b):
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            return a.shape == b.shape and a.tobytes() == b.tobytes()

        N = 16
        assert same(alias("solve")(problem, N).coefficients,
                    dualpg.solve(problem, N).coefficients)
        system, general = alias("assemble")(problem, N), dualpg.assemble(problem, N)
        assert same(system.matrix.data, general.matrix.data)
        assert same(system.rhs, general.rhs)
        assert same(alias("rhs_projection")(problem.rhs, N),
                    dualpg.rhs_projection(order, problem.rhs, N))
        assert same(alias("lift")(problem.bc).coefficients,
                    dualpg.boundary_lift(problem.bc).coefficients)
        assert not dualpg.boundary_lift(problem.bc).is_zero
        fstar = np.linspace(-1.0, 1.0, N - (order - 1))
        assert same(alias("solve_diagonal")(fstar), dualpg.solve_diagonal(order, fstar))

    @pytest.mark.parametrize("word,record", [
        ("third", FifthOrderProblem(1.0, 1.0, 1.0, 1.0, 1.0, rhs=np.cosh)),
        ("third", FifthOrderBC(0.3, -0.2, 0.7, 0.1, -0.4)),
        ("fifth", ThirdOrderProblem(1.0, 1.0, 1.0, rhs=np.cosh)),
        ("fifth", ThirdOrderBC(0.1, -0.2, 0.3)),
    ], ids=["third-gets-5", "third-gets-5bc", "fifth-gets-3", "fifth-gets-3bc"])
    def test_aliases_refuse_the_other_order(self, word, record):
        import dualpg

        stems = ("solve", "assemble") if hasattr(record, "rhs") else ("lift",)
        for stem in stems:
            alias = getattr(dualpg, f"{stem}_{word}")
            assert alias.__name__ == f"{stem}_{word}"
            args = (record, 16) if stem != "lift" else (record,)
            with pytest.raises(ValueError, match=f"{stem}_{word} takes an order-"):
                alias(*args)

    def test_family_problem_names(self):
        family = make_family(3, m=2.0)
        coeffs = (2.0, 3.0, 4.0)
        named, general = family.third_order_problem(coeffs), family.problem(coeffs)
        assert named.coefficients == general.coefficients and named.bc == general.bc
        x = np.linspace(-1.0, 1.0, 9)
        assert named.rhs(x).tobytes() == general.rhs(x).tobytes()
        fifth = make_family(2, m=1.0)
        assert fifth.fifth_order_problem((1.0,) * 5).coefficients == (1.0,) * 5

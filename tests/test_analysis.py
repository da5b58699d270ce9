"""Condition reports, solve drivers, solution evaluation, error measurement."""
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from dualpg import analysis
from dualpg.analysis import (
    SpectralSolution,
    _dominant_eigenvalue,
    condition_diagonal,
    condition_full,
    evaluate_solution,
    max_pointwise_error,
    residual_norm,
    solve,
)
from dualpg import assemble_third, lift_fifth, lift_third, solve_fifth, solve_third
from dualpg.assembly import (
    FifthOrderBC,
    FifthOrderProblem,
    LiftPolynomial,
    ThirdOrderProblem,
    assemble,
    operator_matrix,
    ThirdOrderBC,
)
from dualpg.banded import SingularMatrixError
from dualpg.families import make_family
from dualpg.gjp import eval_phi


def zero_lift(order):
    return LiftPolynomial(order=order, coefficients=(0.0,) * (3 if order == 3 else 5))


def count_krylov_runs(monkeypatch):
    """Operator applications of each `_dominant_eigenvalue` run, in run order."""
    runs = []
    original = analysis._dominant_eigenvalue

    def counted(apply_op, start, symmetric=False):
        runs.append(0)

        def op(v):
            runs[-1] += 1
            return apply_op(v)

        return original(op, start, symmetric)

    monkeypatch.setattr(analysis, "_dominant_eigenvalue", counted)
    return runs


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

    @pytest.mark.parametrize("order,coeffs", [(3, (2.0, 3.0, 4.0)), (5, (1.0,) * 5)],
                             ids=["3-234", "5-ones"])
    def test_krylov_runs_short_at_large_n(self, monkeypatch, order, coeffs):
        # sigma_max, sigma_min, eig_max, eig_min: each run applies its
        # operator a bounded number of times however large N grows
        runs = count_krylov_runs(monkeypatch)
        for N in (64, 1024, 4096):
            runs.clear()
            rep = condition_full(order, N, coeffs)
            assert len(runs) == 4 and all(0 < count <= 48 for count in runs), (N, runs)
            if (order, N) == (3, 1024):
                assert rep.cond == pytest.approx(181395, rel=1e-5)

    @pytest.mark.parametrize("order,coeffs,lengths", [
        (3, (2.0, 3.0, 4.0), (6, 9, 12, 9)), (5, (1.0,) * 5, (6, 9, 9, 6))],
        ids=["3-234", "5-ones"])
    def test_krylov_run_lengths_at_n4096(self, monkeypatch, order, coeffs, lengths):
        # sigma_max, sigma_min, eig_max, eig_min at N = 4096, each run
        # checked every KRYLOV_CHECK steps and eig_min started from
        # sigma_min's Ritz vector
        runs = count_krylov_runs(monkeypatch)
        condition_full(order, 4096, coeffs)
        assert len(runs) == 4 and all(0 < r <= b for r, b in zip(runs, lengths)), runs

    def test_near_defective_bottom_pair(self):
        # D's eigenvalues of least modulus are the pair 149.53783821009053
        # +- 1.33e-4 i (mpmath eig of the float matrix at 40 digits); numpy
        # eigvals splits it into two reals 2.7e-4 apart.  The Ritz-residual
        # stop bounds no error of such a pair: this pins one instance only
        rep = condition_full(3, 52, (-39.3, -6.3, -27.1))
        assert rep.eig_min == pytest.approx(149.53783821009053, rel=1e-8)

    @pytest.mark.parametrize("coefficient", [0.0, -1.2e-163])
    @pytest.mark.parametrize("N", [16, 24, 40])
    @pytest.mark.parametrize("order", [3, 5])
    def test_zero_coefficients_match_diagonal(self, order, N, coefficient):
        # D is the diagonal B1 or B2, so G = D^T D is diagonal too and
        # ||G||_1 is exactly its top eigenvalue: only the raise of the
        # shift keeps G - sI nonsingular.  With tiny coefficients eig_max's
        # first Arnoldi step leaves a residual whose square underflows
        full = condition_full(order, N, (coefficient,) * order)
        diagonal = condition_diagonal(order, N)
        for name in ("eig_min", "eig_max", "sigma_min", "sigma_max", "cond"):
            assert getattr(full, name) == pytest.approx(getattr(diagonal, name), rel=1e-13)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_extremes_match_dense_over_signed_coefficients(self, data):
        order = data.draw(st.sampled_from([3, 5]), label="order")
        N = data.draw(st.integers(order + 1, 96), label="N")
        coeffs = tuple(data.draw(st.lists(st.floats(-1000.0, 1000.0), min_size=order,
                                          max_size=order), label="coeffs"))
        dense = operator_matrix(order, coeffs, N).to_dense()
        try:
            rep = condition_full(order, N, coeffs)
        except SingularMatrixError:
            # allowed only where the no-pivot LU of D meets a pivot near
            # zero: pivot k is det(D[:k, :k]) / det(D[:k-1, :k-1])
            logdets = [np.linalg.slogdet(dense[:k, :k])[1] for k in range(1, len(dense) + 1)]
            with np.errstate(all="ignore"):  # an exactly singular minor has log 0 = -inf
                pivots = np.exp(np.diff(logdets, prepend=0.0))
            assert np.nanmin(pivots) <= 1e-8 * np.abs(dense).max()
            return
        sigmas = np.linalg.svd(dense, compute_uv=False)
        eigs = np.linalg.eigvals(dense)
        eigs = eigs[np.argsort(np.abs(eigs))]
        assert rep.sigma_max == pytest.approx(sigmas[0], rel=1e-8)
        assert abs(rep.eig_max - eigs[-1].real) <= 1e-8 * abs(eigs[-1])
        cond = sigmas[0] / sigmas[-1]
        if cond <= 1e8:  # past that neither route resolves sigma_min
            assert rep.sigma_min == pytest.approx(sigmas[-1], rel=1e-8)
            assert rep.cond == pytest.approx(cond, rel=1e-8)
        if max(map(abs, coeffs)) <= 4.0:  # a near-defective bottom pair occurs beyond
            assert abs(rep.eig_min - eigs[0].real) <= 1e-8 * abs(eigs[0])

    @pytest.mark.parametrize("N", [24, 40])
    @pytest.mark.parametrize("order", [3, 5])
    def test_cond_matches_dense_at_any_magnitude(self, order, N):
        # D / 2^e runs the Krylov iterations at unit scale: unscaled, squared
        # norms of 1 / |D|^2 vectors underflowed (a false breakdown, cond 64-76%
        # off from c = 1e80) and D^T D overflowed (NaN pivots from c ~ 1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for exponent in range(-6, 301, 9):
                for c in (10.0 ** exponent, -10.0 ** exponent):
                    dense = np.linalg.cond(operator_matrix(order, (c,) * order, N).to_dense())
                    rep = condition_full(order, N, (c,) * order)
                    assert rep.cond == pytest.approx(dense, rel=1e-8), c

    def test_unstable_factorization_raises(self):
        # the leading 3 x 3 minor of this D vanishes: the no-pivot LU meets
        # a pivot of 3.9e-14 and solves with a backward error near 1e-2
        with pytest.raises(SingularMatrixError, match="backward error"):
            condition_full(3, 6, (0.0, -9.0, 0.0))

    def test_krylov_routine_on_small_operators(self):
        # zero operator: breakdown at step 1 (beta = 0) is exact
        theta, vector = _dominant_eigenvalue(lambda v: 0.0 * v, np.ones(10))
        assert theta == 0.0
        assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-14)
        # rotation: a complex pair; m = n ends the iteration exactly
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        theta, _ = _dominant_eigenvalue(lambda v: rotation @ v, np.ones(2))
        assert abs(theta.imag) == pytest.approx(1.0, rel=1e-14)
        assert abs(theta.real) < 1e-14
        # the dominant eigenvalue keeps its sign; the Ritz vector is its eigenvector
        diag = np.array([1.0, -5.0, 2.0])
        for symmetric in (False, True):
            theta, vector = _dominant_eigenvalue(lambda v: diag * v, np.ones(3),
                                                 symmetric)
            assert theta == pytest.approx(-5.0)
            assert np.abs(vector) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

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

    def test_unstable_factorization_raises(self):
        # the leading 3 x 3 minor of D vanishes: the no-pivot LU meets a
        # pivot of 3.9e-14 and the solve's residual is of the order of f*
        problem = ThirdOrderProblem(0.0, -9.0, 0.0, rhs=lambda x: x)
        with pytest.raises(SingularMatrixError, match="backward error"):
            solve_third(problem, 24)

    @pytest.mark.parametrize("problem", [ThirdOrderProblem, FifthOrderProblem])
    def test_huge_rhs_scales_exactly(self, problem):
        # the transform and the backward-error bound run at unit scale, so f*
        # of 2^1019 cos (it peaks near 5e306) is 2^1019 times that of cos
        unit = problem(*(1.0,) * problem.order, rhs=np.cos)
        huge = problem(*(1.0,) * problem.order, rhs=lambda x: np.ldexp(np.cos(x), 1019))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fstar, solution = assemble(huge, 24).rhs, solve(huge, 24)
        assert fstar.tobytes() == np.ldexp(assemble(unit, 24).rhs, 1019).tobytes()
        expect = np.ldexp(solve(unit, 24).coefficients, 1019)
        assert solution.coefficients.tobytes() == expect.tobytes()

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

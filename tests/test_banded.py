"""Band storage, LU without pivoting, operation counts, diagonal fast paths."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualpg import banded, solve_diagonal_fifth, solve_diagonal_third
from dualpg.assembly import operator_matrix
from dualpg.banded import BandedMatrix, SingularMatrixError, lu_factor_banded


def diagonal_third_from_moments(f):
    """Explicit route a_k = (k+2)/16 f_k from the unnormalized moments."""
    f = np.asarray(f, dtype=float)
    k = np.arange(f.size)
    return (k + 2) / 16.0 * f


def diagonal_fifth_from_moments(f):
    """Explicit route a_k = (k+3)/384 f_k from the unnormalized moments."""
    f = np.asarray(f, dtype=float)
    k = np.arange(f.size)
    return (k + 3) / 384.0 * f


def random_band(n, p, q, rng, dominance=0.0):
    m = BandedMatrix(n, p, q)
    for i in range(n):
        for j in range(max(0, i - p), min(n, i + q + 1)):
            m.set(i, j, rng.uniform(-1, 1))
        m.set(i, i, m.get(i, i) + dominance)
    return m


def signed_band(n, p, q, rng):
    """Band with exact and signed zeros among its entries, zero outside the matrix."""
    m = BandedMatrix(n, p, q)
    for i in range(n):
        for j in range(max(0, i - p), min(n, i + q + 1)):
            m.set(i, j, rng.choice([-1.5, 0.0, -0.0, 3.25, rng.uniform(-1, 1)]))
    return m


def pair_loop_gram(matrix):
    """A^T A by the pair loop over diagonals a <= b of A: row k of A adds
    A[k, k + a] A[k, k + b] to G[k + a, k + b], G mirrored below."""
    n, p, q = matrix.n, matrix.p, matrix.q
    w = min(p + q, n - 1)
    gram = BandedMatrix(n, w, w)
    for a in range(-p, q + 1):
        for b in range(a, min(q, a + w) + 1):
            lo, hi = max(0, -a), n - max(0, b)
            gram.data[w - b + a, lo + b:hi + b] += (
                matrix.data[q - a, lo + a:hi + a] * matrix.data[q - b, lo + b:hi + b])
    for d in range(1, w + 1):
        gram.data[w + d, : n - d] = gram.data[w - d, d:]
    return gram


def diagonal_loop_matvec(matrix, x):
    """A x accumulated diagonal by diagonal into zeros, one slice each."""
    n, q = matrix.n, matrix.q
    y = np.zeros(n)
    for d in range(-matrix.p, q + 1):
        row = matrix.data[q - d]
        if d >= 0:
            y[: n - d] += row[d:] * x[d:]
        else:
            y[-d:] += row[: n + d] * x[: n + d]
    return y


def band_cases():
    """Operator matrices of orders 3 and 5 and signed random bands."""
    rng = np.random.default_rng(26)
    for order in (3, 5):
        for coeffs in ((1.0,) * order, tuple(rng.uniform(-40.0, 40.0, order))):
            for N in [*range(order + 1, 70), 255, 1024]:
                yield operator_matrix(order, coeffs, N), rng
    for n, p, q in ((9, 2, 3), (7, 0, 2), (7, 2, 0), (5, 3, 3), (2, 1, 1), (1, 0, 0)):
        for _ in range(20):
            yield signed_band(n, p, q, rng), rng


def reference_factor(matrix):
    """Band LU on numpy scalars, one entry at a time, in the kernel's order."""
    n, p, q = matrix.n, matrix.p, matrix.q
    data = matrix.data.copy()
    for k in range(n):
        for i in range(k + 1, min(n, k + p + 1)):
            data[q + i - k, k] = data[q + i - k, k] / data[q, k]
            for j in range(k + 1, min(n, k + q + 1)):
                data[q + i - j, j] -= data[q + i - k, k] * data[q + k - j, j]
    return data


def reference_solves(data, p, q, rhs):
    """A x = rhs and A^T y = rhs from reference factors, entry by entry."""
    n = rhs.size
    x, y = rhs.copy(), rhs.copy()
    for i in range(n):
        for j in range(max(0, i - p), i):
            x[i] -= data[q + i - j, j] * x[j]
        for j in range(max(0, i - q), i):
            y[i] -= data[q + j - i, i] * y[j]
        y[i] /= data[q, i]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, min(n, i + q + 1)):
            x[i] -= data[q + i - j, j] * x[j]
        x[i] /= data[q, i]
        for j in range(i + 1, min(n, i + p + 1)):
            y[i] -= data[q + j - i, i] * y[j]
    return x, y


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestBandedMatrix:
    def test_get_outside_band_is_zero(self):
        m = BandedMatrix(5, 1, 2)
        assert m.get(4, 0) == 0.0
        assert m.get(0, 4) == 0.0
        assert m.get(-1, 0) == 0.0

    def test_set_outside_band_rejected(self):
        m = BandedMatrix(5, 1, 2)
        with pytest.raises(IndexError):
            m.set(4, 0, 1.0)
        with pytest.raises(IndexError):
            m.set(0, 5, 1.0)

    @given(st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_get_set_roundtrip(self, i, j):
        m = BandedMatrix(8, 2, 3)
        if m.in_band(i, j):
            m.set(i, j, 0.5)
            assert m.get(i, j) == 0.5
        else:
            assert m.get(i, j) == 0.0

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        m = random_band(9, 2, 3, rng)
        x = rng.uniform(-1, 1, 9)
        dense = m.to_dense()
        assert np.allclose(m.matvec(x), dense @ x, atol=1e-14)

    @pytest.mark.parametrize("n,p,q", [(9, 2, 3), (12, 3, 3), (7, 0, 2), (7, 2, 0),
                                       (5, 3, 3), (4, 2, 1), (2, 1, 1), (1, 0, 0)])
    def test_gram_matches_dense(self, n, p, q):
        # the band of A^T A is p + q wide on each side, clipped to n - 1
        m = random_band(n, p, q, np.random.default_rng(n + 10 * p + 100 * q))
        dense = m.to_dense()
        gram = m.gram()
        assert gram.p == gram.q == min(p + q, n - 1)
        assert np.allclose(gram.to_dense(), dense.T @ dense, rtol=0.0, atol=1e-14)
        # the slots outside the matrix stay zero
        outside = np.ones_like(gram.data, dtype=bool)
        for d in range(-gram.p, gram.q + 1):
            outside[gram.q - d, max(0, d):min(n, n + d)] = False
        assert not gram.data[outside].any()

    def test_gram_bitwise_equal_to_pair_loop(self):
        # one product per diagonal of G sums the same terms in the same order
        for matrix, _ in band_cases():
            assert matrix.gram().data.tobytes() == pair_loop_gram(matrix).data.tobytes()

    def test_matvec_bitwise_equal_to_diagonal_loop(self):
        # the skewed view adds the diagonals in the loop's order; the padding
        # terms are zeros, which leave a sum started at +0.0 unchanged
        for matrix, rng in band_cases():
            x = rng.choice([-0.0, 0.0, 1.0, rng.uniform(-1.0, 1.0)], size=matrix.n)
            assert matrix.matvec(x).tobytes() == diagonal_loop_matvec(matrix, x).tobytes()

    def test_bandwidth_bounds(self):
        with pytest.raises(ValueError):
            BandedMatrix(3, 3, 0)


class TestLU:
    def test_identity(self):
        m = BandedMatrix(6, 0, 0)
        for i in range(6):
            m.set(i, i, 1.0)
        fac = lu_factor_banded(m)
        assert fac.ops.multiplications == 0
        x, ops = fac.solve(np.arange(6.0))
        assert np.allclose(x, np.arange(6.0))
        assert ops.multiplications == 0
        assert ops.divisions == 6

    def test_reconstruction_random_bands(self):
        rng = np.random.default_rng(7)
        for n, p, q in ((8, 2, 2), (21, 3, 1), (64, 5, 5)):
            m = random_band(n, p, q, rng, dominance=p + q + 2.0)
            fac = lu_factor_banded(m)
            L = np.eye(n)
            U = np.zeros((n, n))
            for i in range(n):
                for j in range(max(0, i - p), i):
                    L[i, j] = fac._get(i, j)
                for j in range(i, min(n, i + q + 1)):
                    U[i, j] = fac._get(i, j)
            assert np.max(np.abs(L @ U - m.to_dense())) < 1e-12 * (p + q + 2)

    @pytest.mark.parametrize("n, p, q", [(1, 0, 0), (7, 6, 6), (9, 2, 2),
                                         (21, 3, 1), (40, 5, 5), (33, 1, 4)])
    def test_bitwise_equal_to_entrywise_reference(self, n, p, q):
        rng = np.random.default_rng(n + 10 * p + 100 * q)
        m = random_band(n, p, q, rng, dominance=p + q + 2.0)
        fac = lu_factor_banded(m)
        data = reference_factor(m)
        assert same_bits(np.array(fac.rows), data)
        rhs = rng.uniform(-1, 1, n)
        x, y = reference_solves(data, p, q, rhs)
        assert same_bits(fac.solve(rhs)[0], x)
        assert same_bits(fac.solve_transpose(rhs), y)
        assert same_bits(m.to_dense(), [[m.get(i, j) for j in range(n)] for i in range(n)])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_generated_kernels_bitwise_equal_to_reference(self, data):
        # n runs from the smallest allowed size, where every factor step is
        # a clipped edge step, to sizes well past p + q
        p, q = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        n = data.draw(st.integers(max(p, q) + 1, 3 * (p + q) + 2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        m = random_band(n, p, q, rng, dominance=sign * (p + q + 2.0))
        fac = lu_factor_banded(m)
        ref = reference_factor(m)
        assert same_bits(np.array(fac.rows), ref)
        rhs = rng.uniform(-1, 1, n)
        x, y = reference_solves(ref, p, q, rhs)
        assert same_bits(fac.solve(rhs)[0], x)
        assert same_bits(fac.solve_transpose(rhs), y)

    def test_kernels_built_once_per_bandwidth_pair(self):
        banded._kernel.cache_clear()
        rng = np.random.default_rng(5)
        for n in (9, 30):
            fac = lu_factor_banded(random_band(n, 4, 2, rng, dominance=8.0))
            fac.solve(np.ones(n))
            fac.solve_transpose(np.ones(n))
        info = banded._kernel.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        assert banded._kernel("solve", 4, 2) is banded._kernel("solve", 4, 2)
        assert banded._kernel("solve", 2, 4) is not banded._kernel("solve", 4, 2)

    def test_solution_matches_dense_oracle(self):
        # oracle: dense Gaussian elimination via numpy on the same system
        rng = np.random.default_rng(11)
        m = random_band(8, 2, 2, rng, dominance=3.0)
        rhs = rng.uniform(-1, 1, 8)
        x, _ = lu_factor_banded(m).solve(rhs)
        expect = np.linalg.solve(m.to_dense(), rhs)
        assert np.max(np.abs(x - expect)) < 1e-11

    def test_transpose_solve(self):
        rng = np.random.default_rng(13)
        m = random_band(10, 3, 2, rng, dominance=4.0)
        rhs = rng.uniform(-1, 1, 10)
        y = lu_factor_banded(m).solve_transpose(rhs)
        assert np.max(np.abs(m.to_dense().T @ y - rhs)) < 1e-11

    def test_inverse_operator_bitwise_equal_to_solves(self):
        # one list through both kernels gives what two checked solves give
        rng = np.random.default_rng(11)
        for n, p, q in ((1, 0, 0), (9, 2, 3), (38, 5, 5)):
            fac = lu_factor_banded(random_band(n, p, q, rng, dominance=p + q + 2.0))
            v = rng.uniform(-1.0, 1.0, n)
            both = fac._inverse_operator("solve_transpose", "solve")(v)
            assert both.tobytes() == fac.solve(fac.solve_transpose(v))[0].tobytes()
            assert fac._inverse_operator("solve")(v).tobytes() == fac.solve(v)[0].tobytes()

    def test_singular_pivot_names_row(self):
        m = BandedMatrix(4, 1, 1)
        for i in range(4):
            m.set(i, i, 1.0)
        m.set(2, 2, 0.0)
        with pytest.raises(SingularMatrixError, match="row 2"):
            lu_factor_banded(m)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, 1e-301])
    def test_nan_or_vanishing_pivot_rejected(self, bad):
        m = BandedMatrix(4, 1, 1)
        for i in range(4):
            m.set(i, i, 1.0)
        m.set(1, 1, bad)
        with pytest.raises(SingularMatrixError, match="row 1"):
            lu_factor_banded(m)

    @pytest.mark.parametrize("p, q, row", [(5, 5, 12), (3, 1, 0), (1, 4, 26), (5, 5, 29)])
    def test_unusable_pivot_row_in_unrolled_and_edge_steps(self, p, q, row):
        # n = 30: rows below n - max(p, q) are unrolled steps, the rest edge steps
        m = BandedMatrix(30, p, q)
        m.data[q] = 3.0
        m.data[q, row] = -0.0
        with pytest.raises(SingularMatrixError, match=re.escape(
                f"unusable pivot at row {row} (-0.000e+00, need |pivot| >= 1e-300)")):
            lu_factor_banded(m)

    def test_pivot_at_floor_accepted(self):
        m = BandedMatrix(3, 1, 1)
        for i in range(3):
            m.set(i, i, 1e-300)
        x, _ = lu_factor_banded(m).solve(np.full(3, 1e-300))
        assert np.array_equal(x, np.ones(3))

    def test_rhs_length_checked(self):
        m = BandedMatrix(4, 1, 1)
        for i in range(4):
            m.set(i, i, 2.0)
        with pytest.raises(ValueError):
            lu_factor_banded(m).solve(np.ones(3))

    @pytest.mark.parametrize("shape", [(4, 1), (4, 2), (3,), ()],
                             ids=["column", "two-columns", "short", "scalar"])
    @pytest.mark.parametrize("method", ["solve", "solve_transpose"])
    def test_rhs_must_be_vector_of_dimension(self, method, shape):
        m = BandedMatrix(4, 1, 1)
        for i in range(4):
            m.set(i, i, 2.0)
        solver = getattr(lu_factor_banded(m), method)
        with pytest.raises(ValueError, match=re.escape(f"length 4, got shape {shape}")):
            solver(np.ones(shape))


class TestOperationCounts:
    def test_total_is_sum_of_fields(self):
        rng = np.random.default_rng(2)
        fac = lu_factor_banded(random_band(12, 2, 2, rng, dominance=3.0))
        ops = fac.ops
        assert ops.total == ops.subtractions + ops.multiplications + ops.divisions

    def test_factor_and_solve_ceilings(self):
        # cost model constants: factor <= (p + p*q*2 per column), solve
        # <= (2p + 2q + 1 per row); for p = q = 3 these are 21 and 13
        rng = np.random.default_rng(4)
        for n, p, q, cf, cs in ((18, 3, 3, 21, 13), (16, 5, 5, 55, 21)):
            m = random_band(n, p, q, rng, dominance=p + q + 2.0)
            fac = lu_factor_banded(m)
            assert fac.ops.total <= cf * n
            _, solve_ops = fac.solve(np.ones(n))
            assert solve_ops.total <= cs * n

    def test_linear_scaling(self):
        rng = np.random.default_rng(6)
        per_row = []
        for n in (16, 32, 64):
            fac = lu_factor_banded(random_band(n, 3, 3, rng, dominance=8.0))
            per_row.append(fac.ops.total / n)
        assert max(per_row) <= 21.0
        assert max(per_row) / min(per_row) < 1.5


    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 17])
    def test_counts_are_closed_form_trip_sums(self, n):
        # every (p, q) with p, q < n, so n <= p + 1 is covered at p = n - 1
        rng = np.random.default_rng(n)
        for p in range(n):
            for q in range(n):
                fac = lu_factor_banded(random_band(n, p, q, rng, dominance=p + q + 2.0))
                below = [min(p, n - 1 - k) for k in range(n)]
                right = [min(q, n - 1 - k) for k in range(n)]
                products = sum(r * c for r, c in zip(below, right))
                assert (fac.ops.subtractions, fac.ops.multiplications,
                        fac.ops.divisions) == (products, products, sum(below))
                _, ops = fac.solve(np.ones(n))
                sweeps = sum(min(p, i) for i in range(n)) + sum(right)
                assert (ops.subtractions, ops.multiplications,
                        ops.divisions) == (sweeps, sweeps, n)

    def test_opcount_study_script_within_ceilings(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        out = subprocess.run(
            [sys.executable, str(root / "scripts" / "opcount_study.py"),
             "--sizes", "16", "64"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        rows = [line.split() for line in out.splitlines()[1:]]
        assert len(rows) == 4
        for order, N, n, factor, factor_cap, solve, solve_cap, _ in rows:
            assert int(factor) <= int(factor_cap), (order, N)
            assert int(solve) <= int(solve_cap), (order, N)


class TestDiagonalFastPaths:
    def test_zero_maps_to_zero(self):
        assert np.all(solve_diagonal_third(np.zeros(5)) == 0.0)
        assert np.all(solve_diagonal_fifth(np.zeros(5)) == 0.0)

    def test_moment_route_third_instance(self):
        # a_0 = (0+2)/16 * 16 = 2 from the unnormalized moment route
        assert diagonal_third_from_moments(np.array([16.0]))[0] == pytest.approx(2.0)

    def test_moment_route_fifth_instance(self):
        assert diagonal_fifth_from_moments(np.array([384.0]))[0] == pytest.approx(3.0)

    def test_route_equivalence_third(self):
        # h_k * 2 (k+1)(k+3) = 16/(k+2) links the two diagonal routes
        rng = np.random.default_rng(8)
        f = rng.uniform(-3, 3, 14)
        k = np.arange(14)
        h = 8.0 / ((k + 1) * (k + 2) * (k + 3))
        assert np.allclose(
            solve_diagonal_third(f / h), diagonal_third_from_moments(f),
            rtol=1e-13, atol=1e-16,
        )

    def test_route_equivalence_fifth(self):
        rng = np.random.default_rng(9)
        f = rng.uniform(-3, 3, 14)
        k = np.arange(14)
        h = 128.0 / ((k + 1) * (k + 2) * (k + 3) * (k + 4) * (k + 5))
        assert np.allclose(
            solve_diagonal_fifth(f / h), diagonal_fifth_from_moments(f),
            rtol=1e-13, atol=1e-16,
        )

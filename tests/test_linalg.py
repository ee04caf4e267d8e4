import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelfield import (CorrelationModel, FactorizationError, GridSpec, SparseSymmetric,
                         SpatialIndex, assemble, cholesky, kernel_vector)
from kernelfield.cli import synthetic_observations
from kernelfield.linalg import (QUAD_GROUP, _band_order, analyse, dense_spd_inverse,
                                layout_in_order)

from conftest import dense_factor
from oracles import from_dense, full_view, reconstruct


def random_spd(rng, n, jitter=1.0):
    b = rng.normal(size=(n, n))
    return b.T @ b + jitter * np.eye(n)


class TestSparseSymmetric:
    def test_from_entries_symmetrizes_pattern(self):
        s = SparseSymmetric.from_entries(3, [0, 1, 2, 0], [0, 1, 2, 2], [1.0, 2.0, 3.0, 0.5])
        dense = s.to_dense()
        assert np.array_equal(dense, dense.T)
        assert dense[0, 2] == 0.5 and dense[2, 0] == 0.5

    def test_explicit_zeros_dropped(self):
        s = SparseSymmetric.from_entries(2, [0, 1, 1], [0, 0, 1], [1.0, 0.0, 1.0])
        assert s.nnz_lower == 2

    def test_constructor_stores_zeros_as_given_and_from_entries_drops_them(self):
        lower = sp.csr_matrix((np.array([0.0, -0.0, 2.0]), np.array([0, 0, 1]),
                               np.array([0, 1, 3])), shape=(2, 2))
        for values in (None, np.array([0.0, 0.0, 3.0])):
            s = SparseSymmetric(lower, values)
            assert s._pattern is lower  # no copy
            rows, cols, vals = s.lower_entries()
            assert (rows.tolist(), cols.tolist()) == ([0, 1, 1], [0, 0, 1])
            assert vals.tobytes() == (lower.data if values is None else values).tobytes()
            # The stored zero on the diagonal is counted by position.
            assert s.nnz_lower == 3 and s.max_row_nnz() == 2 and s.density() == 1.0
            assert s.full().nnz == 1  # the full view stores no zero
            dropped = SparseSymmetric.from_entries(2, rows, cols, vals)
            assert [a.tolist() for a in dropped.lower_entries()] == [[1], [1], [vals[2]]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 0.5), st.integers(0, 2 ** 16))
    def test_full_view_is_scipys(self, n, density, seed):
        # Copies that store zeros of both signs, on a pattern with some diagonals unstored.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
        a[np.diag_indices(n)] *= rng.random(n) < 0.5
        first = from_dense(a + a.T)
        vals = first.lower_entries()[2]
        zeros = np.where(rng.random(vals.size) < 0.5, 0.0, -0.0)
        for s in (first, first.with_values(np.where(rng.random(vals.size) < 0.3, zeros, vals))):
            got, want = s.full(), full_view(s)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("rows, cols", [([0, 1, 1, 1], [0, 0, 1, 0]),
                                            ([0, 1, 1, 0], [0, 0, 1, 1])])
    def test_repeated_entry_refused_not_summed(self, rows, cols):
        with pytest.raises(ValueError, match=r"repeated entry \(1, 0\)"):
            SparseSymmetric.from_entries(2, rows, cols, [1.0, 0.5, 1.0, 0.0])

    def test_submatrix_and_matvec(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 6)
        s = from_dense(a)
        idx = np.array([1, 3, 4])
        assert np.allclose(s.submatrix(idx), a[np.ix_(idx, idx)])
        v = rng.normal(size=6)
        assert np.allclose(s.matvec(v), a @ v)


    @pytest.mark.parametrize("seed", range(4))
    def test_row_counts_read_off_the_lower_triangle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.2)
        a[np.diag_indices(n)] *= rng.random(n) < 0.5  # some diagonal entries unstored
        s = from_dense(a + a.T)
        full = s.to_dense() != 0.0
        assert s.max_row_nnz() == full.sum(axis=1).max()
        assert s.density() == full.sum() / n ** 2


class TestCholesky:
    def test_identity(self):
        f = cholesky(from_dense(np.eye(5)))
        assert np.allclose(reconstruct(f), np.eye(5))
        assert np.allclose(np.diag(f.lower), 1.0)

    def test_hand_checked_2x2(self):
        f = dense_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(f.lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]])

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 50)
        f = cholesky(from_dense(a))
        rel = np.linalg.norm(reconstruct(f) - a) / np.linalg.norm(a)
        assert rel < 1e-10

    def test_not_positive_definite_names_pivot(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(FactorizationError) as exc:
            dense_factor(a)
        assert exc.value.pivot_index == 1

    def test_sparse_failure_names_original_pivot(self):
        a = np.eye(4)
        a[2, 2] = -5.0
        with pytest.raises(FactorizationError) as exc:
            cholesky(from_dense(a))
        assert exc.value.pivot_index == 2

    def test_logdet(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 20)
        f = cholesky(from_dense(a))
        assert f.logdet() == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-10)

    def test_sparse_and_dense_paths_agree(self):
        rng = np.random.default_rng(3)
        # banded SPD so the sparse path actually has structure to permute
        n = 200
        a = np.eye(n) * 4.0
        for off in (1, 2, 3):
            d = rng.uniform(0.1, 0.4, n - off)
            a[np.arange(n - off), np.arange(off, n)] = d
            a[np.arange(off, n), np.arange(n - off)] = d
        rhs = rng.normal(size=n)
        x_sparse = cholesky(from_dense(a)).solve(rhs)
        x_dense = dense_factor(a).solve(rhs)
        assert np.linalg.norm(x_sparse - x_dense) / np.linalg.norm(x_dense) < 1e-12


def banded_spd(rng, n, bw):
    """Diagonally dominant SPD matrix with ``bw`` random sub-diagonals."""
    a = np.zeros((n, n))
    for off in range(1, bw + 1):
        d = rng.uniform(-1.0, 1.0, n - off)
        a[np.arange(n - off), np.arange(off, n)] = d
        a[np.arange(off, n), np.arange(n - off)] = d
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, n)
    return a


def shuffled(rng, a):
    p = rng.permutation(a.shape[0])
    return a[np.ix_(p, p)]


TAPERED_M52 = CorrelationModel("matern52", 0.5, 1.5)


@pytest.fixture(scope="module")
def tapered_set():
    obs = synthetic_observations(400, [(0.0, 20.0), (0.0, 20.0)], seed=1)
    return obs, assemble(obs, TAPERED_M52, 1.0)


class TestFactorStorage:
    def test_band_matches_dense_on_tapered_set(self, tapered_set):
        obs, mat = tapered_set
        band, dense = cholesky(mat), dense_factor(mat.to_dense())
        assert (band.storage, dense.storage) == ("band", "dense")
        assert band.lower.shape == (band.bandwidth + 1, 400)

        def rel(x, y):
            return np.abs(x - y).max() / np.abs(y).max()

        rhs = obs.values()
        assert rel(band.solve(rhs), dense.solve(rhs)) <= 1e-12
        nodes = GridSpec.parse("0,20,12;0,20,12").nodes()
        kernels = kernel_vector(obs, nodes, TAPERED_M52).T
        assert kernels.shape == (400, 144)
        # The orders differ, so only the squared column norms v' A^{-1} v agree.
        assert rel(band.quadratic_forms(kernels), dense.quadratic_forms(kernels)) <= 1e-12
        assert abs(band.logdet() - dense.logdet()) <= 1e-12 * abs(dense.logdet())
        assert rel(reconstruct(band), mat.to_dense()) <= 1e-12
        assert rel(reconstruct(dense), mat.to_dense()) <= 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_banded_spd_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        a = shuffled(rng, banded_spd(rng, n, int(rng.integers(0, max(1, n // 8) + 1))))
        f = cholesky(from_dense(a))
        if f.storage == "band":
            assert f.lower.shape == (f.bandwidth + 1, n) and 2 * (f.bandwidth + 1) <= n
        rhs = rng.normal(size=(n, 3))
        want = np.linalg.solve(a, rhs)
        assert np.abs(f.solve(rhs) - want).max() <= 1e-10 * np.abs(want).max()
        assert np.allclose(f.quadratic_forms(rhs), np.sum(rhs * want, axis=0), rtol=1e-10)
        assert f.logdet() == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-10, abs=1e-10)
        assert np.allclose(reconstruct(f), a, rtol=0.0, atol=1e-12 * np.abs(a).max())

    @pytest.mark.parametrize("k", [0, 23, 59])
    def test_band_failure_names_original_pivot(self, k):
        rng = np.random.default_rng(k)
        a = shuffled(rng, banded_spd(rng, 60, 3))
        assert cholesky(from_dense(a)).storage == "band"
        a[k, k] = -1.0
        with pytest.raises(FactorizationError) as exc:
            cholesky(from_dense(a))
        assert exc.value.pivot_index == k

    def test_full_matrix_factors_densely_in_natural_order(self):
        a = random_spd(np.random.default_rng(10), 30)
        f = cholesky(from_dense(a))
        assert f.storage == "dense"
        assert np.array_equal(f.perm, np.arange(30))
        assert f.bandwidth == 29
        assert np.allclose(f.lower, np.linalg.cholesky(a))

    def test_sparse_rhs_equals_dense_rhs(self, tapered_set):
        obs, mat = tapered_set
        nodes = GridSpec.parse("0,20,9;0,20,9").nodes()
        kernels = kernel_vector(obs, nodes, TAPERED_M52).T
        assert sp.issparse(kernels)
        for f in (cholesky(mat), dense_factor(mat.to_dense())):
            assert np.array_equal(f.solve(kernels), f.solve(kernels.toarray()))
            assert np.array_equal(f.quadratic_forms(kernels),
                                  f.quadratic_forms(kernels.toarray()))

    @pytest.mark.parametrize("dense", [False, True], ids=["band", "dense"])
    def test_zero_column_rhs(self, tapered_set, dense):
        obs, mat = tapered_set
        f = dense_factor(mat.to_dense()) if dense else cholesky(mat)
        for rhs in (np.empty((400, 0)), sp.csr_matrix((400, 0))):
            assert f.solve(rhs).shape == (400, 0)
            assert f.quadratic_forms(rhs).shape == (0,)

    def test_tapered_set_band_untapered_set_dense(self, tapered_set):
        obs, mat = tapered_set
        assert cholesky(mat).storage == "band"
        untapered = assemble(obs, CorrelationModel("matern52", 0.5), 1.0)
        assert cholesky(untapered).storage == "dense"

    @pytest.mark.parametrize("band", [True, False], ids=["band", "dense"])
    def test_with_values_factors_as_a_fresh_matrix(self, band):
        rng = np.random.default_rng(12)
        a = shuffled(rng, banded_spd(rng, 40, 2)) if band else random_spd(rng, 12)
        first = from_dense(a)
        layout = analyse(first)
        assert layout.storage == ("band" if band else "dense")
        rows, cols, vals = first.lower_entries()
        for scale in (2.0, 0.5):
            shifted = scale * vals + (rows == cols)  # same pattern, new values
            copy = first.with_values(shifted)
            fresh = SparseSymmetric.from_entries(first.order, rows, cols, shifted)
            assert copy._pattern is first._pattern  # so the pattern is laid out once
            assert np.array_equal(copy.to_dense(), fresh.to_dense())
            want = cholesky(fresh)
            for got in (cholesky(copy, layout), cholesky(copy)):
                assert got.lower.tobytes() == want.lower.tobytes()
                assert np.array_equal(got.perm, want.perm)

    def test_layout_is_immutable(self, tapered_set):
        layout = analyse(tapered_set[1])
        assert layout.storage == "band"
        for arr in (layout.perm, layout.inv_perm, layout.at):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(AttributeError):
            layout.perm = np.arange(400)
        assert np.array_equal(layout.inv_perm[layout.perm], np.arange(400))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 80), st.floats(0.0, 0.2), st.integers(0, 2 ** 16), st.booleans())
    @example(1, 0.0, 0, False)
    @example(40, 0.2, 0, True)
    def test_band_order_is_the_rcm_order_of_the_full_view(self, n, density, seed, signed):
        # scipy orders L + L' of the stored triangle L: signed values pin that no entry cancels.
        rng = np.random.default_rng(seed)
        draw = rng.standard_normal if signed else None  # None: scipy's uniform draws
        pattern = (sp.random(n, n, density, random_state=rng, data_rvs=draw)
                   + sp.diags(rng.integers(0, 2, n).astype(float)))
        a = SparseSymmetric(sp.tril(pattern + pattern.T).tocsr())  # some diagonals unstored
        got = _band_order(a)
        if a.max_row_nnz() + 1 > n:
            assert got is None
            return
        want = reverse_cuthill_mckee(a.full(), symmetric_mode=True)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_given_order_factors_as_the_chosen_one(self, tapered_set):
        obs, mat = tapered_set

        def fresh():
            return SparseSymmetric.from_entries(mat.order, *mat.lower_entries())

        chosen = cholesky(fresh())
        assert chosen.storage == "band"
        for order, want in ((chosen.perm.tolist(), chosen), (None, dense_factor(mat.to_dense()))):
            a = fresh()
            got = cholesky(a, layout_in_order(a, order))
            assert got.storage == want.storage and np.array_equal(got.perm, want.perm)
            assert got.perm.dtype == np.int64
            assert got.lower.tobytes() == want.lower.tobytes()
            assert cholesky(a).storage == "band"  # a given order is kept nowhere
        with pytest.raises(ValueError, match="the band does not fit in the given order"):
            layout_in_order(fresh(), np.arange(400))  # the natural order of a 2-D set

    def test_with_values_keeps_zeros_in_the_pattern(self):
        a = banded_spd(np.random.default_rng(13), 30, 3)
        first = from_dense(a)
        layout = analyse(first)
        rows, cols, vals = first.lower_entries()
        vals = np.where(np.abs(rows - cols) == 3, 0.0, vals)
        copy = first.with_values(vals)
        assert copy.nnz_lower == first.nnz_lower and copy.max_row_nnz() == first.max_row_nnz()
        assert np.array_equal(copy.lower_entries()[2], vals)
        zero_free = SparseSymmetric.from_entries(30, rows, cols, vals)
        assert zero_free.nnz_lower == first.nnz_lower - np.count_nonzero(np.abs(rows - cols) == 3)
        assert np.array_equal(copy.to_dense(), zero_free.to_dense())
        got, want = cholesky(copy, layout), cholesky(zero_free)
        assert got.storage == "band" and np.array_equal(got.perm, layout.perm)
        assert got.bandwidth == cholesky(first).bandwidth  # the zeros keep their band
        scale = np.abs(a).max()
        for f in (got, want):  # want may hold the zero-free pattern in another order
            assert np.abs(reconstruct(f) - zero_free.to_dense()).max() <= 1e-14 * scale
        assert got.logdet() == pytest.approx(want.logdet(), rel=1e-12)


def full_range_forms(f, rhs):
    """Oracle: v' A^{-1} v from one band forward solve of every column over
    all m rows."""
    x, info = dtbtrs(f.lower, rhs[f.perm], uplo="L")
    assert info == 0
    return np.einsum("ij,ij->j", x, x)


class TestQuadraticForms:
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=1, max_value=3 * QUAD_GROUP + 5))
    @example(seed=3, cols=1)
    @example(seed=4, cols=QUAD_GROUP + 1)
    @settings(max_examples=60, deadline=None)
    def test_band_forms_equal_the_full_range_solve_bitwise(self, seed, cols):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 150))
        a = shuffled(rng, banded_spd(rng, n, int(rng.integers(0, n // 10 + 1))))
        f = cholesky(from_dense(a))
        assert f.storage == "band"
        rhs = rng.normal(size=(n, cols)) * (rng.random((n, cols)) < rng.uniform(0.0, 0.3))
        # An empty column, and one whose only nonzero is the last permuted row
        # (one and the same column when there is one).
        picks = rng.permutation(cols)
        rhs[:, picks[0]] = rhs[:, picks[-1]] = 0.0
        rhs[f.perm[-1], picks[-1]] = rng.normal()
        want = full_range_forms(f, rhs)
        for given_rhs in (rhs, sp.csc_matrix(rhs), sp.csr_matrix(rhs.T).T):
            assert f.quadratic_forms(given_rhs).tobytes() == want.tobytes()
        exact = np.sum(rhs * np.linalg.solve(a, rhs), axis=0)
        dense = dense_factor(a)
        assert dense.storage == "dense"
        assert np.abs(dense.quadratic_forms(rhs) - exact).max() <= 1e-12 * np.abs(exact).max()


class TestSolve:
    def test_identity(self):
        f = dense_factor(np.eye(4))
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(f.solve(v), v)

    def test_diagonal(self):
        f = dense_factor(np.diag([2.0, 4.0]))
        assert np.allclose(f.solve(np.array([2.0, 4.0])), [1.0, 1.0])

    def test_constructed_solution(self):
        rng = np.random.default_rng(4)
        a = random_spd(rng, 60)
        x0 = rng.normal(size=60)
        f = cholesky(from_dense(a))
        assert np.linalg.norm(f.solve(a @ x0) - x0) < 1e-8

    def test_roundtrip_residual_n500(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 500)
        rhs = rng.normal(size=500)
        x = cholesky(from_dense(a)).solve(rhs)
        rel = np.abs(a @ x - rhs).max() / np.abs(rhs).max()
        assert rel < 1e-8

    def test_dimension_mismatch(self):
        f = dense_factor(np.eye(3))
        with pytest.raises(ValueError):
            f.solve(np.ones(4))


def every_row(a):
    """A dense SPD matrix as a stack of n copies, to ask for each of its rows."""
    n = a.shape[0]
    return np.repeat(a[None], n, axis=0), np.arange(n), np.arange(n)


class TestDenseInverse:
    def test_matches_numpy(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 30)
        assert np.allclose(dense_spd_inverse(*every_row(a)), np.linalg.inv(a), atol=1e-9)

    def test_one_by_one_exact(self):
        assert np.array_equal(dense_spd_inverse(np.array([[[1.0]]]), [0], [0]), [[1.0]])

    def test_failure_labels_center(self):
        with pytest.raises(FactorizationError) as exc:
            dense_spd_inverse(np.array([[[1.0, 0.0], [0.0, -1.0]]]), [17], [0])
        assert exc.value.pivot_index == 17

    def test_stack_equals_per_matrix_inverses(self):
        rng = np.random.default_rng(7)
        stack = np.stack([random_spd(rng, 6) for _ in range(4)])
        row = np.array([5, 0, 2, 2])
        got = dense_spd_inverse(stack, np.arange(4), row)
        assert got.shape == (4, 6)
        for j, a in enumerate(stack):
            assert np.array_equal(got[j], dense_spd_inverse(a[None], [j], row[j:j + 1])[0])

    def test_row_equals_that_row_of_the_inverse(self):
        rng = np.random.default_rng(9)
        stack = np.stack([random_spd(rng, 7) for _ in range(5)])
        row = np.array([0, 3, 6, 2, 2])
        got = dense_spd_inverse(stack, np.arange(5), row)
        want = np.linalg.inv(stack)[np.arange(5), row]
        assert got.shape == (5, 7)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_stack_failure_labels_failing_member(self):
        rng = np.random.default_rng(8)
        stack = np.stack([random_spd(rng, 3) for _ in range(3)])
        stack[1] = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(FactorizationError) as exc:
            dense_spd_inverse(stack, [5, 9, 12], [0, 0, 0])
        assert exc.value.pivot_index == 9

    def test_row_mode_failure_labels_failing_member(self):
        rng = np.random.default_rng(8)
        stack = np.stack([random_spd(rng, 3) for _ in range(3)])
        stack[2] = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(FactorizationError) as exc:
            dense_spd_inverse(stack, [5, 9, 12], [0, 2, 1])
        assert exc.value.pivot_index == 12

    # The localized fit inverts stacks of many orders; a few members each,
    # against numpy's LU inverse.
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 40])
    def test_stacks_of_mixed_orders_match_numpy(self, n):
        rng = np.random.default_rng(n)
        stack = np.stack([random_spd(rng, n) for _ in range(4)])
        want = np.linalg.inv(stack)
        scale = np.abs(want).max()
        row = rng.integers(0, n, 4)
        got_rows = dense_spd_inverse(stack, np.arange(4), row)
        assert np.abs(got_rows - want[np.arange(4), row]).max() <= 1e-12 * scale
        for a, inv in zip(stack, want):
            assert np.abs(dense_spd_inverse(*every_row(a)) - inv).max() <= 1e-12 * scale


def brute_force_neighbors(points, center, radius):
    d = np.linalg.norm(points - np.asarray(center), axis=1)
    return np.sort(np.nonzero(d < radius)[0])


class TestSpatialIndex:
    def test_single_location(self):
        idx = SpatialIndex(np.array([[0.5, 0.5]]))
        assert list(idx.neighbors([0.5, 0.5], 1.0)) == [0]
        assert list(idx.neighbors([5.0, 5.0], 1.0)) == []

    def test_1d_hand_count(self):
        idx = SpatialIndex(np.array([[0.0], [1.0], [2.0], [3.0]]))
        assert list(idx.neighbors([1.0], 1.5)) == [0, 1, 2]

    def test_strict_inequality(self):
        idx = SpatialIndex(np.array([[0.0], [1.0]]))
        assert list(idx.neighbors([0.0], 1.0)) == [0]

    def test_matches_brute_force_500_points(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 8, (500, 2))
        idx = SpatialIndex(pts)
        for _ in range(200):
            center = rng.uniform(-1, 9, 2)
            radius = float(rng.uniform(0.2, 2.5))
            assert np.array_equal(idx.neighbors(center, radius),
                                  brute_force_neighbors(pts, center, radius))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force_property(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        pts = rng.uniform(-3, 3, (int(rng.integers(1, 60)), dim))
        idx = SpatialIndex(pts)
        center = rng.uniform(-4, 4, dim)
        radius = float(rng.uniform(0.1, 3.0))
        assert np.array_equal(idx.neighbors(center, radius),
                              brute_force_neighbors(pts, center, radius))

    def test_invalid_radius(self):
        idx = SpatialIndex(np.array([[0.0]]))
        with pytest.raises(ValueError):
            idx.neighbors([0.0], 0.0)

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dtbtrs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelfield import (POINT, CorrelationModel, FactorizationError, GridSpec, SparseSymmetric,
                         assemble, cholesky, kernel_vector)
from kernelfield.cli import synthetic_observations
from kernelfield.linalg import (QUAD_GROUP, SpatialIndex, analyse,
                                dense_layout, dense_spd_inverse)

from conftest import dense_factor, observation_set
from oracles import from_dense, full_view, reconstruct


def random_spd(rng, n, jitter=1.0):
    b = rng.normal(size=(n, n))
    return b.T @ b + jitter * np.eye(n)


class TestSparseSymmetric:
    def test_constructor_stores_zeros_as_given(self):
        # A predictor file's Psi holds no zero (its reader refuses one); the
        # constructor stores what it is given, zeros of both signs too.
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

    def test_submatrix_and_matvec(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 6)
        s = from_dense(a)
        idx = np.array([1, 3, 4])
        assert np.allclose(s.submatrix(idx), a[np.ix_(idx, idx)])
        v = rng.normal(size=6)
        assert np.allclose(s.matvec(v), a @ v)

    # matvec, matvec_and_abs_row_sums and quadratic_forms read the stored
    # triangle, mirror terms and doubled off-diagonal values; the dense
    # products sum the full matrix.
    # Each side sums at most n + 1 rounded terms for A v, and 2n + 1 for
    # v' A v, so (to first order) they differ by at most 2(n + 1) eps and
    # 4(n + 1) eps times the sum of the terms' magnitudes.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.floats(0.0, 0.6), st.integers(1, 5), st.integers(0, 2 ** 16))
    def test_products_match_the_dense_matrix(self, n, density, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) * (rng.random((n, n)) < density)
        a[np.diag_indices(n)] *= rng.random(n) < 0.5  # some diagonal entries unstored
        first = from_dense(a + a.T)
        vals = first.lower_entries()[2]
        zeros = np.where(rng.random(vals.size) < 0.5, 0.0, -0.0)
        s = first.with_values(np.where(rng.random(vals.size) < 0.3, zeros, vals))
        dense, eps = s.to_dense(), np.finfo(float).eps
        v = rng.normal(size=(n, cols)) * (rng.random((n, cols)) < 0.7)
        for col in v.T:
            bound = 2 * (n + 1) * eps * (np.abs(dense) @ np.abs(col))
            assert np.all(np.abs(s.matvec(col) - dense @ col) <= bound)
            product, row_abs = s.matvec_and_abs_row_sums(col)
            assert product.tobytes() == s.matvec(col).tobytes()
        want = np.abs(dense).sum(axis=1)
        assert np.all(np.abs(row_abs - want) <= 2 * (n + 1) * eps * want)
        want = np.einsum("ij,ij->j", v, dense @ v)
        bound = 4 * (n + 1) * eps * np.einsum("ij,ij->j", np.abs(v), np.abs(dense) @ np.abs(v))
        for rhs in (v, sp.csr_matrix(v)):
            got = s.quadratic_forms(rhs)
            assert got.shape == (cols,) and np.all(np.abs(got - want) <= bound)

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
    """``a`` with its rows and columns in a random order, and each row's
    position in ``a`` as its one coordinate, the sites to :func:`analyse`."""
    p = rng.permutation(a.shape[0])
    return a[np.ix_(p, p)], p[:, None].astype(float)


def site_factor(obs, mat):
    """The factor of ``mat`` in the analysis of the rep points of ``obs``."""
    return cholesky(mat, analyse(mat, obs.rep_points()))


TAPERED_M52 = CorrelationModel("matern52", 0.5, 1.5)


@pytest.fixture(scope="module")
def tapered_set():
    obs = synthetic_observations(400, [(0.0, 20.0), (0.0, 20.0)], seed=1)
    return obs, assemble(obs, TAPERED_M52, 1.0)


class TestFactorStorage:
    def test_band_matches_dense_on_tapered_set(self, tapered_set):
        obs, mat = tapered_set
        band, dense = site_factor(obs, mat), dense_factor(mat.to_dense())
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
        a, pos = shuffled(rng, banded_spd(rng, n, int(rng.integers(0, max(1, n // 8) + 1))))
        s = from_dense(a)
        f = cholesky(s, analyse(s, pos))
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
        a, pos = shuffled(rng, banded_spd(rng, 60, 3))

        def factor():
            s = from_dense(a)
            return cholesky(s, analyse(s, pos))

        assert factor().storage == "band"
        a[k, k] = -1.0
        with pytest.raises(FactorizationError) as exc:
            factor()
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
        for f in (site_factor(obs, mat), dense_factor(mat.to_dense())):
            assert np.array_equal(f.solve(kernels), f.solve(kernels.toarray()))
            assert np.array_equal(f.quadratic_forms(kernels),
                                  f.quadratic_forms(kernels.toarray()))

    @pytest.mark.parametrize("dense", [False, True], ids=["band", "dense"])
    def test_zero_column_rhs(self, tapered_set, dense):
        obs, mat = tapered_set
        f = dense_factor(mat.to_dense()) if dense else site_factor(obs, mat)
        for rhs in (np.empty((400, 0)), sp.csr_matrix((400, 0))):
            assert f.solve(rhs).shape == (400, 0)
            assert f.quadratic_forms(rhs).shape == (0,)

    def test_tapered_set_band_untapered_set_dense(self, tapered_set):
        obs, mat = tapered_set
        assert site_factor(obs, mat).storage == "band"
        untapered = assemble(obs, CorrelationModel("matern52", 0.5), 1.0)
        assert site_factor(obs, untapered).storage == "dense"

    @pytest.mark.parametrize("band", [True, False], ids=["band", "dense"])
    def test_with_values_factors_as_a_fresh_matrix(self, band):
        rng = np.random.default_rng(12)
        a, pos = shuffled(rng, banded_spd(rng, 40, 2)) if band else (random_spd(rng, 12), None)
        first = from_dense(a)
        layout = analyse(first, pos)
        assert layout.storage == ("band" if band else "dense")
        rows, cols, vals = first.lower_entries()
        for scale in (2.0, 0.5):
            shifted = scale * vals + (rows == cols)  # same pattern, new values
            copy = first.with_values(shifted)
            fresh = from_dense(scale * a + np.eye(a.shape[0]))
            assert copy._pattern is first._pattern  # so the pattern is laid out once
            assert np.array_equal(copy.to_dense(), fresh.to_dense())
            want = cholesky(fresh, analyse(fresh, pos))
            for got in (cholesky(copy, layout), cholesky(copy, analyse(copy, pos))):
                assert got.lower.tobytes() == want.lower.tobytes()
                assert np.array_equal(got.perm, want.perm)

    def test_layout_is_immutable(self, tapered_set):
        obs, mat = tapered_set
        layout = analyse(mat, obs.rep_points())
        assert layout.storage == "band"
        for arr in (layout.perm, layout.inv_perm, layout.at):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        with pytest.raises(AttributeError):
            layout.perm = np.arange(400)
        assert np.array_equal(layout.inv_perm[layout.perm], np.arange(400))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 150), st.floats(0.3, 4.0), st.floats(0.2, 3.0),
           st.integers(0, 2 ** 16))
    @example(1, 1, 1.0, 1.5, 0)  # one row: dense
    @example(2, 60, 4.0, 3.0, 1)  # the taper reaches across the box: dense in natural order
    @example(2, 150, 1.0, 1.5, 1)  # band storage
    @example(3, 150, 1.0, 1.5, 1)  # three candidate axes
    def test_analysis_keeps_the_narrowest_axis_sort(self, dim, m, density, taper, seed):
        # Sites uniform in a box of about ``density`` sites per unit volume, some
        # of it stretched along a random axis; a nugget keeps the matrix well
        # conditioned wherever two sites come close.
        rng = np.random.default_rng(seed)
        side = (m / density) ** (1.0 / dim) * rng.uniform(0.5, 2.0, dim)
        sites = rng.uniform(0.0, 1.0, (m, dim)) * side
        obs = observation_set([(POINT, p, float(rng.normal()), 0.5) for p in sites], dim)
        mat = assemble(obs, CorrelationModel("matern52", 0.5, taper), 1.0)
        layout = analyse(mat, obs.rep_points())
        # Oracle: the band of each axis's stable sort, read off the dense pattern.
        pattern = mat.with_values(np.ones(mat.nnz_lower)).to_dense() != 0.0
        sorts = [np.argsort(sites[:, k], kind="stable") for k in range(dim)]
        widths = []
        for perm in sorts:
            i, j = np.nonzero(pattern[np.ix_(perm, perm)])
            widths.append(int(np.abs(i - j).max()))
        bw = min(widths)
        assert layout.perm.dtype == np.int64
        assert np.array_equal(np.sort(layout.perm), np.arange(m))
        if 2 * (bw + 1) <= m:
            assert (layout.storage, layout.shape) == ("band", (bw + 1, m))
            assert np.array_equal(layout.perm, sorts[widths.index(bw)])  # the first on a tie
        else:
            assert (layout.storage, layout.shape) == ("dense", (m, m))
            assert np.array_equal(layout.perm, np.arange(m))
        got, want = cholesky(mat, layout), dense_factor(mat.to_dense())

        def rel(x, y):
            return np.abs(x - y).max() / np.abs(y).max()

        rhs = np.column_stack([obs.values(), rng.normal(size=m)])
        assert rel(got.solve(rhs), want.solve(rhs)) <= 1e-12
        assert rel(got.quadratic_forms(rhs), want.quadratic_forms(rhs)) <= 1e-12
        assert abs(got.logdet() - want.logdet()) <= 1e-12 * max(abs(want.logdet()), 1.0)
        # Without sites the row index is the one coordinate.
        natural = analyse(mat)
        for x, y in zip(natural, analyse(mat, np.arange(m, dtype=float)[:, None])):
            assert np.array_equal(x, y)
        assert np.array_equal(natural.perm, np.arange(m))

    def test_given_order_factors_as_the_chosen_one(self, tapered_set):
        # A layout given to cholesky is used for that call and kept nowhere:
        # the dense natural-order layout of a banded pattern factors as the
        # dense oracle, and the pattern's analysis still chooses a band.
        obs, mat = tapered_set
        a = from_dense(mat.to_dense())  # no stored zero
        got, want = cholesky(a, dense_layout(a)), dense_factor(mat.to_dense())
        assert got.storage == want.storage == "dense"
        assert np.array_equal(got.perm, np.arange(mat.order)) and got.perm.dtype == np.int64
        assert got.lower.tobytes() == want.lower.tobytes()
        assert site_factor(obs, a).storage == "band"

    def test_with_values_keeps_zeros_in_the_pattern(self):
        a = banded_spd(np.random.default_rng(13), 30, 3)
        first = from_dense(a)
        layout = analyse(first)
        rows, cols, vals = first.lower_entries()
        vals = np.where(np.abs(rows - cols) == 3, 0.0, vals)
        copy = first.with_values(vals)
        assert copy.nnz_lower == first.nnz_lower and copy.max_row_nnz() == first.max_row_nnz()
        assert np.array_equal(copy.lower_entries()[2], vals)
        i, j = np.indices(a.shape)
        zero_free = from_dense(np.where(np.abs(i - j) == 3, 0.0, a))
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
        a, pos = shuffled(rng, banded_spd(rng, n, int(rng.integers(0, n // 10 + 1))))
        s = from_dense(a)
        f = cholesky(s, analyse(s, pos))
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

"""Kernel correctness against independent dense-algebra oracles.

The truncated SVD of an operator is checked against a brute-force
eigendecomposition of the Gram matrix and against LAPACK's full SVD of the
same matrix, truncated, and the masked ALS against its own
exact-blockwise-minimization guarantee and against a row-by-row reference
on a dense matrix and mask.
"""

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse import coo_array, csr_array
from scipy.sparse.linalg import aslinearoperator

from coldrec.linalg import _als_half_sweep, als_wr_factorize, truncated_svd


def observed(M, mask):
    """The entries of M where mask is set, as the sparse observations the
    ALS-WR kernel takes (an observed 0 is stored)."""
    return coo_array((M[mask], np.nonzero(mask)), shape=M.shape)


def full_svd(M, rank):
    """Reference: LAPACK's full SVD of the dense M, truncated to rank."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U[:, :rank], s[:rank], Vt[:rank].T


class TestTruncatedSvd:
    def test_diagonal(self):
        U, s, V = truncated_svd(aslinearoperator(np.diag([3.0, 2.0, 1.0])), 2)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose((U * s) @ V.T, np.diag([3.0, 2.0, 0.0]), atol=1e-12)

    def test_exact_rank_matrix_recovered(self):
        rng = np.random.default_rng(29)
        M = np.outer(rng.uniform(size=8), rng.uniform(size=6)) + np.outer(
            rng.uniform(size=8), rng.uniform(size=6)
        )
        U, s, V = truncated_svd(aslinearoperator(M), 2)
        assert np.abs((U * s) @ V.T - M).max() < 1e-8

    def test_best_approximation_matches_full_svd_truncation(self):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((20, 15))
        U, s, V = truncated_svd(aslinearoperator(M), 5)
        Uf, sf, Vf = full_svd(M, 5)
        oracle = (Uf * sf) @ Vf.T
        got_err = np.linalg.norm(M - (U * s) @ V.T)
        oracle_err = np.linalg.norm(M - oracle)
        assert abs(got_err - oracle_err) < 1e-8

    def test_singular_values_match_gram_eigendecomposition(self):
        """Brute-force oracle: singular values are √eigenvalues of MᵀM."""
        rng = np.random.default_rng(37)
        for shape in ((5, 5), (12, 9), (20, 20)):
            M = rng.standard_normal(shape)
            r = min(shape) - 1
            _, s, _ = truncated_svd(aslinearoperator(M), r)
            gram_eigs = np.linalg.eigvalsh(M.T @ M)[::-1]
            oracle = np.sqrt(np.clip(gram_eigs, 0.0, None))[:r]
            np.testing.assert_allclose(s, oracle, atol=1e-8)

    def test_orthonormal_columns_and_ordering(self):
        rng = np.random.default_rng(41)
        M = rng.uniform(size=(10, 7))
        U, s, V = truncated_svd(aslinearoperator(M), 4)
        np.testing.assert_allclose(U.T @ U, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(V.T @ V, np.eye(4), atol=1e-8)
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_rank_out_of_range(self):
        M = aslinearoperator(np.eye(3))
        for rank in (0, 3, 4):
            with pytest.raises(ValueError, match=rf"^rank must be in \[1, 2\] for a 3x3 operator, got {rank}$"):
                truncated_svd(M, rank)

    @pytest.mark.parametrize("M", [np.eye(3), csr_array(np.eye(3))], ids=["ndarray", "sparse"])
    def test_rejects_a_matrix_it_cannot_factor(self, M):
        with pytest.raises(TypeError, match=f"LinearOperator, got {type(M).__name__}$"):
            truncated_svd(M, 1)


class TestAlsWr:
    def test_rank_one_fully_observed(self):
        rng = np.random.default_rng(43)
        u = rng.uniform(0.2, 1.0, size=12)
        v = rng.uniform(0.2, 1.0, size=9)
        M = np.outer(u, v)
        mask = np.ones(M.shape, dtype=bool)
        U, V = als_wr_factorize(observed(M, mask), rank=1, lam=1e-6, iters=20, rng=0)
        rmse = np.sqrt(np.mean((M - U @ V.T) ** 2))
        assert rmse <= 1e-4

    def test_rejects_a_dense_matrix(self):
        # a dense 0 cannot say whether it is an observation
        with pytest.raises(TypeError, match="sparse"):
            als_wr_factorize(np.ones((3, 3)), rank=1, lam=0.1, iters=2)

    @pytest.mark.parametrize("changes,message", [
        ({"rank": 0}, r"^rank must be in \[1, 2\] for a 2x3 matrix, got 0"),
        ({"rank": 3}, r"^rank must be in \[1, 2\] for a 2x3 matrix, got 3"),
        ({"iters": 0}, "^need at least one iteration, got 0"),
        ({"lam": np.nan}, "^regularization must be positive and finite, got nan"),
        ({"lam": np.inf}, "^regularization must be positive and finite, got inf"),
        ({"R": coo_array(([0.5, np.nan], ([0, 1], [1, 2])), shape=(2, 3))}, "^observations contain non-finite"),
    ], ids=["rank-0", "rank-above-min", "iters-0", "lambda-nan", "lambda-inf", "nan-observation"])
    def test_rejects_bad_arguments(self, changes, message):
        args = {"R": coo_array(([0.5, 0.25], ([0, 1], [1, 2])), shape=(2, 3)), "rank": 1, "lam": 0.1, "iters": 2}
        with pytest.raises(ValueError, match=message):
            als_wr_factorize(**{**args, **changes})

    def test_rejects_a_repeated_coordinate(self):
        R = coo_array(([0.5, 0.25, 1.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
        with pytest.raises(ValueError, match="more than once"):
            als_wr_factorize(R, rank=1, lam=0.1, iters=2)

    def test_stored_zeros_are_observations(self):
        M = np.zeros((4, 3))
        M[:, 0] = 1.0
        mask = np.ones((4, 3), dtype=bool)
        U, V = als_wr_factorize(observed(M, mask), rank=1, lam=0.1, iters=3, rng=0)
        U_ref, V_ref, _ = als_reference(M, mask, 1, 0.1, 3, rng=0)
        np.testing.assert_allclose(U, U_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-12)

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(47)
        M = np.clip(rng.uniform(size=(15, 3)) @ rng.uniform(size=(3, 12)) / 3, 0, 1)
        mask = rng.random((15, 12)) < 0.5
        mask[np.arange(15), rng.integers(12, size=15)] = True
        mask[rng.integers(15, size=12), np.arange(12)] = True
        history = objective_history(observed(M, mask), M, mask, rank=3, lam=0.05, iters=12, rng=1)
        assert np.all(np.diff(history) <= 1e-9)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(59)
        M = rng.uniform(size=(10, 7))
        mask = rng.random((10, 7)) < 0.6
        mask[np.arange(10), rng.integers(7, size=10)] = True
        mask[rng.integers(10, size=7), np.arange(7)] = True
        U1, V1 = als_wr_factorize(observed(M, mask), rank=3, lam=0.05, iters=4, rng=9)
        U2, V2 = als_wr_factorize(observed(M, mask), rank=3, lam=0.05, iters=4, rng=9)
        np.testing.assert_array_equal(U1, U2)
        np.testing.assert_array_equal(V1, V2)


def dense_objective(M, mask, U, V, lam):
    """The ALS-WR objective on a dense matrix and mask: the squared error on
    the observed entries plus λ(Σ_i n_i‖u_i‖² + Σ_j n_j‖v_j‖²)."""
    resid = (M - U @ V.T)[mask]
    penalty = lam * (mask.sum(axis=1) @ np.sum(U * U, axis=1) + mask.sum(axis=0) @ np.sum(V * V, axis=1))
    return float(resid @ resid + penalty)


def objective_history(R, M, mask, rank, lam, iters, rng):
    """dense_objective of M and mask at each iterate of als_wr_factorize on
    the observations R: iterate k is the run with k iterations."""
    return np.array([dense_objective(M, mask, *als_wr_factorize(R, rank, lam, k, rng=rng), lam)
                     for k in range(1, iters + 1)])


def als_half_sweep_reference(M, mask, fixed, lam, axis):
    """Row-by-row ALS-WR half sweep: one dense solve per row (axis=0) or
    per column (axis=1) of its observed entries."""
    if axis == 1:
        M, mask = M.T, mask.T
    rank = fixed.shape[1]
    out = np.zeros((M.shape[0], rank))
    for i in range(M.shape[0]):
        F = fixed[mask[i]]
        G = F.T @ F + (lam * F.shape[0]) * np.eye(rank)
        out[i] = np.linalg.solve(G, F.T @ M[i, mask[i]])
    return out


def als_reference(M, mask, rank, lam, iters, rng):
    """ALS-WR from the same initial V as als_wr_factorize, swept row by row
    on a dense matrix and mask that has every row and column."""
    q = M.shape[1]
    V = np.zeros((q, rank))
    V[:, 0] = np.where(mask, M, 0.0).sum(axis=0) / mask.sum(axis=0)
    if rank > 1:
        V[:, 1:] = np.random.default_rng(rng).uniform(-0.5 / rank, 0.5 / rank, size=(q, rank - 1))
    history = []
    for _ in range(iters):
        U = als_half_sweep_reference(M, mask, V, lam, axis=0)
        V = als_half_sweep_reference(M, mask, U, lam, axis=1)
        history.append(dense_objective(M, mask, U, V, lam))
    return U, V, np.array(history)


def random_observed(rng, p, q, density):
    """A [0, 1] matrix with a random mask that has every row and column."""
    M = rng.uniform(size=(p, q))
    mask = rng.random((p, q)) < density
    mask[np.arange(p), rng.integers(q, size=p)] = True
    mask[rng.integers(p, size=q), np.arange(q)] = True
    return M, mask


class TestAlsWrBatchedAgainstRowByRow:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(100 + seed)
        p, q = rng.integers(5, 40, size=2)
        M, mask = random_observed(rng, p, q, rng.uniform(0.05, 0.6))
        rank = int(rng.integers(1, min(p, q) + 1))
        U, V = als_wr_factorize(observed(M, mask), rank, 0.05, 6, rng=seed)
        history = objective_history(observed(M, mask), M, mask, rank, 0.05, 6, rng=seed)
        U_ref, V_ref, history_ref = als_reference(M, mask, rank, 0.05, 6, rng=seed)
        np.testing.assert_allclose(U, U_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(history, history_ref, rtol=1e-12)

    @pytest.mark.parametrize("empty_rows", [[], [0, 17]])
    def test_empty_columns_against_stored_zeros(self, empty_rows):
        # the closed form of a never-rated column against p stored zeros;
        # rows observed in no other column solve against those zeros alone
        rng = np.random.default_rng(7)
        M, mask = random_observed(rng, 30, 25, 0.1)
        mask[empty_rows] = False
        mask[rng.choice(np.setdiff1d(np.arange(30), empty_rows), 25), np.arange(25)] = True
        mask[:, [3, 11, 12]] = False
        U, V = als_wr_factorize(observed(M, mask), 8, 0.05, 5, rng=3)
        M_ref, mask_ref = M.copy(), mask.copy()
        M_ref[:, [3, 11, 12]] = 0.0
        mask_ref[:, [3, 11, 12]] = True
        history = objective_history(observed(M, mask), M_ref, mask_ref, 8, 0.05, 5, rng=3)
        U_ref, V_ref, history_ref = als_reference(M_ref, mask_ref, 8, 0.05, 5, rng=3)
        np.testing.assert_allclose(U @ V.T, U_ref @ V_ref.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(U, U_ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(V[[3, 11, 12]], 0.0)
        np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(history, history_ref, rtol=1e-12)

    def test_empty_rows_against_stored_means(self):
        # with every column rated, a row without ratings is observed at the
        # column means in every column
        rng = np.random.default_rng(11)
        M, mask = random_observed(rng, 30, 25, 0.15)
        mask[[0, 17]] = False
        mask[rng.choice(np.setdiff1d(np.arange(30), [0, 17]), 25), np.arange(25)] = True
        U, V = als_wr_factorize(observed(M, mask), 6, 0.05, 5, rng=4)
        M_ref, mask_ref = M.copy(), mask.copy()
        M_ref[[0, 17]] = np.where(mask, M, 0.0).sum(axis=0) / mask.sum(axis=0)
        mask_ref[[0, 17]] = True
        U_ref, V_ref, _ = als_reference(M_ref, mask_ref, 6, 0.05, 5, rng=4)
        np.testing.assert_array_equal(U[0], U[17])
        np.testing.assert_allclose(U, U_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-12)

    def test_rank_above_the_smallest_row_count(self):
        # rows with one or two observations: the Gram block is rank-deficient
        # and only the λ n_i I term makes it invertible
        rng = np.random.default_rng(9)
        M, mask = random_observed(rng, 20, 18, 0.3)
        mask[:4] = False
        mask[np.arange(4), np.arange(4)] = True
        mask[1, 7] = True
        U, V = als_wr_factorize(observed(M, mask), 6, 0.05, 4, rng=5)
        U_ref, V_ref, _ = als_reference(M, mask, 6, 0.05, 4, rng=5)
        assert mask.sum(axis=1).min() < 6
        np.testing.assert_allclose(U, U_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(V, V_ref, rtol=0, atol=1e-12)


def half_sweep_by_solve(W, RW, fixed, lam, n_obs, extra_gram):
    """One half sweep by a pivoted-LU solve of each row's dense Gram block."""
    W, RW = W.toarray(), RW.toarray()
    rank = fixed.shape[1]
    out = np.empty((W.shape[0], rank))
    for i in range(W.shape[0]):
        G = (fixed.T * W[i]) @ fixed + extra_gram + lam * n_obs[i] * np.eye(rank)
        out[i] = np.linalg.solve(G, fixed.T @ RW[i])
    return out


class TestHalfSweepAgainstSolve:
    """The batched Cholesky half sweep against np.linalg.solve, row by row."""

    @pytest.mark.parametrize("rank", [1, 16, 20])
    @pytest.mark.parametrize("extra", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_stacks(self, rank, extra, seed):
        rng = np.random.default_rng(200 + seed)
        p, q = 30, 20  # rank 20 is min(p, q)
        M, mask = random_observed(rng, p, q, 0.3)
        mask[[4, 9]] = False  # rows only λ n_i I and extra_gram hold up
        W = csr_array(mask.astype(np.float64))
        RW = csr_array(np.where(mask, M, 0.0))
        fixed = rng.uniform(-1.0, 1.0, size=(q, rank))
        n_obs = mask.sum(axis=1) + rng.integers(1, 4, size=p)
        extra_gram = 0.0
        if extra:
            F = rng.uniform(-1.0, 1.0, size=(3, rank))
            extra_gram = F.T @ F
        got = _als_half_sweep(W, RW, fixed, 0.05, n_obs, extra_gram)
        want = half_sweep_by_solve(W, RW, fixed, 0.05, n_obs, extra_gram)
        assert got.shape == (p, rank) and got.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 5])
    def test_a_pivot_that_is_not_positive_raises(self, rank):
        # row 2 has no observation and no regularization: its block is 0;
        # the check comes before the square root, so no NaN is formed
        mask = np.ones((4, 6), dtype=bool)
        mask[2] = False
        W = csr_array(mask.astype(np.float64))
        fixed = np.random.default_rng(3).uniform(size=(6, rank))
        with np.errstate(invalid="raise"), pytest.raises(np.linalg.LinAlgError, match="row 2 is not positive"):
            _als_half_sweep(W, W, fixed, 0.0, mask.sum(axis=1), 0.0)

    def test_an_indefinite_extra_gram_raises(self):
        # positive first pivots, then a negative one in a later column
        mask = np.ones((3, 4), dtype=bool)
        W = csr_array(mask.astype(np.float64))
        fixed = np.random.default_rng(5).uniform(size=(4, 3))
        extra_gram = np.diag([0.0, 0.0, -1e3])
        with np.errstate(invalid="raise"), pytest.raises(np.linalg.LinAlgError, match="row 0 is not positive"):
            _als_half_sweep(W, W, fixed, 0.05, mask.sum(axis=1), extra_gram)


def spectrum_matrix(rng, p, q, singular_values):
    """p×q matrix with the given singular values and random singular vectors."""
    r = len(singular_values)
    U, _ = np.linalg.qr(rng.standard_normal((p, r)))
    V, _ = np.linalg.qr(rng.standard_normal((q, r)))
    return (U * singular_values) @ V.T


class TestTruncatedSvdAgainstFullSvd:
    def test_small_gap_300x200(self):
        rng = np.random.default_rng(61)
        rank = 16
        s_true = np.concatenate([np.linspace(40.0, 3.77, rank), np.linspace(3.72, 0.01, 184)])
        M = spectrum_matrix(rng, 300, 200, s_true)
        U, s, V = truncated_svd(aslinearoperator(M), rank)
        Uf, sf, Vf = full_svd(M, rank)
        np.testing.assert_allclose(s, sf, rtol=1e-12)
        np.testing.assert_allclose((U * s) @ V.T, (Uf * sf) @ Vf.T, rtol=0, atol=1e-10)
        np.testing.assert_allclose(U.T @ U, np.eye(rank), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(rank), atol=1e-12)

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40), (6, 6)])
    def test_rank_boundary(self, shape):
        """min(p, q) − 1, ARPACK's largest rank, agrees with the full SVD;
        min(p, q) raises."""
        M = np.random.default_rng(67).uniform(size=shape)
        rank = min(shape) - 1
        U, s, V = truncated_svd(aslinearoperator(M), rank)
        Uf, sf, Vf = full_svd(M, rank)
        np.testing.assert_allclose(s, sf, rtol=1e-10)
        np.testing.assert_allclose((U * s) @ V.T, (Uf * sf) @ Vf.T, rtol=0, atol=1e-10)
        with pytest.raises(ValueError, match=rf"got {min(shape)}$"):
            truncated_svd(aslinearoperator(M), min(shape))

    def test_reruns_bit_identical(self):
        rng = np.random.default_rng(71)
        M = aslinearoperator(rng.uniform(size=(60, 45)))
        first = truncated_svd(M, 8)
        for a, b in zip(first, truncated_svd(M, 8)):
            np.testing.assert_array_equal(a, b)


class TestTruncatedSvdOfAnOperator:
    """A LinearOperator is factored through its products alone."""

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
    def test_agrees_with_the_dense_matrix(self, shape):
        """An operator that has only M·x and Mᵀ·y agrees with the full SVD of M."""
        M = np.random.default_rng(73).uniform(size=shape)
        operator = scipy.sparse.linalg.LinearOperator(shape, matvec=lambda x: M @ x, rmatvec=lambda y: M.T @ y,
                                                      dtype=np.float64)
        for rank in (3, min(shape) - 1):
            U, s, V = truncated_svd(operator, rank)
            U_ref, s_ref, V_ref = full_svd(M, rank)
            np.testing.assert_allclose(s, s_ref, rtol=1e-12)
            np.testing.assert_allclose((U * s) @ V.T, (U_ref * s_ref) @ V_ref.T, rtol=0, atol=1e-12)

    def test_rejects_full_rank(self):
        # ARPACK's bound; the full SVD takes the matrix densely
        operator = scipy.sparse.linalg.aslinearoperator(np.ones((9, 7)))
        with pytest.raises(ValueError, match=r"\[1, 6\] for a 9x7 operator"):
            truncated_svd(operator, 7)

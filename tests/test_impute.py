"""Imputation strategies against hand-computed fills, exact-rank fixtures,
and the dense mean-filled and dense-mask factorizations kept here as
references: a factorization's r×q context is held to its reference
reconstruction's Gram matrix, which is all a contextual policy reads."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import remade, to_dense
from test_linalg import als_reference

from scipy.sparse import coo_array

from coldrec import linalg
from coldrec.data import RatingDataset, dataset_from_dense, write_csv
from coldrec.linalg import als_wr_factorize, truncated_svd
from coldrec.impute import (
    AlsWr,
    BaseMatrix,
    ImputedSvd,
    ItemAverage,
    Zero,
    fill,
    method_from_name,
    method_label,
)

# 5x5 fixture: column 2 has no observations at all, the rest are partial.
# Values are dyadic so the hand-computed column means are exact in float64
# and the fills can be checked bit-for-bit.
FIXTURE_VALUES = np.array(
    [
        [0.75, 0.0, 0.0, 0.25, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.25, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.75, 0.5],
    ]
)
FIXTURE_MASK = np.array(
    [
        [True, False, False, True, False],
        [False, True, False, False, False],
        [True, False, False, False, False],
        [False, False, False, True, False],
        [False, False, False, True, True],
    ]
)

# column means over observed entries: 0.5, 1.0, (empty -> 0), 0.5, 0.5
AVERAGE_EXPECTED = np.array(
    [
        [0.75, 1.0, 0.0, 0.25, 0.5],
        [0.5, 1.0, 0.0, 0.5, 0.5],
        [0.25, 1.0, 0.0, 0.5, 0.5],
        [0.5, 1.0, 0.0, 0.5, 0.5],
        [0.5, 1.0, 0.0, 0.75, 0.5],
    ]
)


def gram(X):
    return X.T @ X


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture
def fixture_base():
    return dataset_from_dense(FIXTURE_VALUES, FIXTURE_MASK)


class TestDirectFills:
    def test_zero_fill_hand_computed(self, fixture_base):
        X = fill(fixture_base, Zero()).X
        np.testing.assert_array_equal(X, FIXTURE_VALUES)

    def test_average_fill_hand_computed(self, fixture_base):
        X = fill(fixture_base, ItemAverage()).X
        np.testing.assert_array_equal(X, AVERAGE_EXPECTED)

    def test_observed_entries_bit_identical(self, fixture_base):
        for method in (Zero(), ItemAverage()):
            X = fill(fixture_base, method).X
            assert np.array_equal(X[FIXTURE_MASK], FIXTURE_VALUES[FIXTURE_MASK])

    def test_single_column_examples(self):
        # column 0 observed {0.8, 0.4} plus one missing entry
        grid = np.array([[0.8, 0.1], [0.4, 0.0], [0.0, 0.3]])
        mask = np.array([[True, True], [True, False], [False, True]])
        base = dataset_from_dense(grid, mask)
        assert fill(base, Zero()).X[2, 0] == 0.0
        assert fill(base, ItemAverage()).X[2, 0] == pytest.approx(0.6)

    def test_average_fill_equals_column_means_on_random_data(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(size=(14, 11))
        mask = rng.random((14, 11)) < 0.4
        mask[np.arange(14), rng.integers(11, size=14)] = True
        base = dataset_from_dense(grid, mask)
        X = fill(base, ItemAverage()).X
        for j in range(11):
            observed = grid[mask[:, j], j]
            expected = observed.mean() if observed.size else 0.0
            filled = X[~mask[:, j], j]
            assert np.all(np.abs(filled - expected) < 1e-12)


class TestReconstructionFills:
    def test_imputed_svd_exact_rank_input(self):
        rng = np.random.default_rng(0)
        M = 0.5 * np.outer(rng.uniform(size=6), rng.uniform(size=5))
        M += 0.5 * np.outer(rng.uniform(size=6), rng.uniform(size=5))
        base = dataset_from_dense(M)  # fully observed, exactly rank 2
        W = fill(base, ImputedSvd(rank=2)).X
        assert W.shape == (2, 5)
        assert np.abs(gram(W) - gram(M)).max() < 1e-8

    def test_imputed_svd_constant_columns_partial(self):
        # mean-filling constant columns gives an exactly rank-1 matrix
        cols = np.array([0.2, 0.5, 0.9, 0.4])
        M = np.tile(cols, (5, 1))
        rng = np.random.default_rng(1)
        mask = rng.random((5, 4)) < 0.6
        mask[np.arange(5), rng.integers(4, size=5)] = True
        mask[rng.integers(5, size=4), np.arange(4)] = True
        base = dataset_from_dense(M, mask)
        W = fill(base, ImputedSvd(rank=1)).X
        np.testing.assert_allclose(gram(W), gram(M), atol=1e-8)

    @pytest.mark.parametrize(
        "shape,rank,zero",
        [((5, 5), 5, False), ((3, 5), 4, False), ((5, 3), 3, False), ((4, 6), 2, True)],
        ids=["full-rank", "wide-past-full-rank", "tall-full-rank", "all-zero"],
    )
    def test_imputed_svd_full_rank_reproduces_mean_fill(self, shape, rank, zero, monkeypatch):
        """A full SVD of the mean-filled base, or of an all-zero one, rebuilds
        it: the fill is the average fill itself, and no factorization runs."""
        rng = np.random.default_rng(sum(shape))
        mask = rng.random(shape) < 0.5
        mask[:, 0] = True  # every row rated
        base = dataset_from_dense(np.zeros(shape) if zero else np.round(rng.uniform(size=shape) * 8) / 8, mask)
        calls = []
        for name in linalg.__all__:
            monkeypatch.setattr(linalg, name, lambda *args, name=name, **kwargs: calls.append(name))
        X = fill(base, ImputedSvd(rank=rank)).X
        assert np.array_equal(X, fill(base, ItemAverage()).X)
        assert calls == []

    def test_alswr_runs_with_empty_column(self, fixture_base):
        X = fill(fixture_base, AlsWr(rank=2, lam=0.05, iters=8), seed=0).X
        assert X.shape == (2, 5)
        assert np.isfinite(X).all()

    def test_alswr_low_rank_recovery(self):
        rng = np.random.default_rng(2)
        M = np.clip(np.outer(rng.uniform(0.3, 1, 20), rng.uniform(0.3, 1, 15)), 0, 1)
        mask = rng.random((20, 15)) < 0.7
        mask[np.arange(20), rng.integers(15, size=20)] = True
        mask[rng.integers(20, size=15), np.arange(15)] = True
        base = dataset_from_dense(M, mask)
        W = fill(base, AlsWr(rank=1, lam=1e-4, iters=25), seed=3).X
        assert rel_err(gram(W), gram(M)) < 0.05

    def test_bounds_clipped_for_all_methods(self):
        """The direct fills stay in the rating range; a factorization's
        context is a factor, not ratings, and nothing clips it."""
        rng = np.random.default_rng(4)
        grid = rng.uniform(size=(12, 9))
        mask = rng.random((12, 9)) < 0.5
        mask[np.arange(12), rng.integers(9, size=12)] = True
        base = dataset_from_dense(grid, mask)
        for method in (Zero(), ItemAverage()):
            X = fill(base, method).X
            assert X.min() >= 0.0
            assert X.max() <= 1.0

    def test_rank_clamped_to_matrix_shape(self, fixture_base):
        X = fill(fixture_base, ImputedSvd(rank=50)).X
        assert X.shape == (5, 5)


def reference_svd_fill(base, rank):
    """LAPACK's full SVD of the mean-filled base built as a dense matrix,
    truncated to rank: the p×q reconstruction."""
    dense, mask = to_dense(base)
    counts = mask.sum(axis=0)
    means = np.divide(dense.sum(axis=0), counts, out=np.zeros(base.n_items), where=counts > 0)
    U, s, Vt = np.linalg.svd(np.where(mask, dense, means), full_matrices=False)
    return (U[:, :rank] * s[:rank]) @ Vt[:rank]


def reference_alswr_fill(base, method, seed):
    """ALS-WR swept row by row on the dense base, pre-filled as a dense
    mask: never-rated items observed at 0 in every row, then rows still
    without an observation observed at the item means.  Returns the p×q
    reconstruction."""
    dense, mask = to_dense(base)
    empty_cols = ~mask.any(axis=0)
    mask[:, empty_cols] = True
    empty_rows = ~mask.any(axis=1)
    dense[empty_rows] = dense.sum(axis=0) / mask.sum(axis=0)
    mask[empty_rows] = True
    rank = min(method.rank, *dense.shape)
    U, V, _ = als_reference(dense, mask, rank, method.lam, method.iters, rng=seed)
    return U @ V.T


def random_base(seed, p, q, density, empty_items=(), empty_users=()):
    """A random [0, 1] base with the given items never rated and the given
    users (as the new-item orientation produces) without ratings."""
    rng = np.random.default_rng(seed)
    keys = np.flatnonzero(rng.random(p * q) < density)
    users, items = np.divmod(keys, q)
    keep = ~np.isin(items, empty_items) & ~np.isin(users, empty_users)
    users, items = users[keep], items[keep]
    return RatingDataset(users, items, np.round(rng.uniform(size=users.size) * 8) / 8, p, q, 1.0)


FACTORIZATION_BASES = {
    "plain": dict(p=40, q=30, density=0.2),
    "wide": dict(p=25, q=60, density=0.15),
    "empty items": dict(p=40, q=30, density=0.2, empty_items=[2, 3, 29]),
    "empty users": dict(p=30, q=40, density=0.2, empty_users=[0, 7, 8]),
    "both": dict(p=30, q=40, density=0.2, empty_items=[5, 6], empty_users=[0, 29]),
}


class TestFactorizationFillsAgainstDenseReferences:
    @pytest.mark.parametrize("name", sorted(FACTORIZATION_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_svd_fill_matches_the_dense_mean_filled_matrix(self, name, seed):
        base = random_base(seed, **FACTORIZATION_BASES[name])
        for rank in (1, 4, 16):
            W = fill(base, ImputedSvd(rank=rank)).X
            assert W.shape == (rank, base.n_items)
            G, G_ref = gram(W), gram(reference_svd_fill(base, rank))
            np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-10)
            # the same pick in every Gram column whose best entry leads by
            # more than the tolerance (all-zero columns are ties)
            top = np.sort(G_ref, axis=0)[[-1, -2]]
            clear = np.abs(top[0] - top[1]) > 2e-10
            assert clear.mean() > 0.5
            np.testing.assert_array_equal(G.argmax(axis=0)[clear], G_ref.argmax(axis=0)[clear])

    @pytest.mark.parametrize("name", sorted(FACTORIZATION_BASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_alswr_fill_matches_the_dense_mask(self, name, seed):
        base = random_base(seed, **FACTORIZATION_BASES[name])
        method = AlsWr(rank=5, lam=0.05, iters=6)
        W = fill(base, method, seed=seed).X
        assert W.shape == (method.rank, base.n_items)
        np.testing.assert_allclose(gram(W), gram(reference_alswr_fill(base, method, seed)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("all_zero,rank", [(False, 16), (True, 2)])
    def test_short_wide_svd_fill_stays_at_its_size(self, all_zero, rank):
        """4 × 5000: rank 16 clamps to min(p, q) = 4, so the fill takes a full
        SVD of the dense mean-filled base, as it does for an all-zero base
        at any rank.  Its peak is ≈4.5 × 8·p·q bytes; anything q × q
        (an identity to densify an operator) would be 1250×."""
        p, q = 4, 5000
        base = random_base(0, p, q, 0.05)
        if all_zero:
            base = remade(base, ratings=np.zeros_like(base.ratings))
        tracemalloc.start()
        try:
            X = fill(base, ImputedSvd(rank=rank)).X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * p * q, f"fill peaked at {peak / 2**20:.1f} MB"
        assert X.shape == (p, q)  # the average fill, so its entries, not only its Gram
        np.testing.assert_allclose(X, reference_svd_fill(base, rank), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("method,bound", [(Zero(), 1.5), (ItemAverage(), 1.5), (ImputedSvd(), 0.5), (AlsWr(), 0.5)],
                             ids=["zero", "average", "svd", "alswr"])
    def test_no_dense_base_is_allocated(self, method, bound):
        """2000 × 2000 at 2% density: a direct fill builds one p×q array and
        BaseMatrix takes it without a copy, so its peak is X's 8·p·q bytes
        plus a little; a copy, a dense base or its mask on top would pass
        1.5×.  A factorization builds nothing p×q: its peak is sparse data
        and factors, where a p×q reconstruction alone would reach 1×.  X is
        read inside the window, since the fill builds it only then."""
        p = q = 2000
        base = random_base(0, p, q, 0.02)
        tracemalloc.start()
        try:
            fill(base, method, seed=0).X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * p * q, f"fill peaked at {peak / (8 * p * q):.3f}x of 8·p·q"


def _with_nan_rating(base):
    return remade(base, ratings=np.where(np.arange(base.n_ratings) == 1, np.nan, base.ratings))


NORMALIZED = dataset_from_dense(np.array([[0.5, 0.25], [1.0, 0.0]]))

FILL_ERRORS = {
    "empty-base": (RatingDataset(np.array([], int), np.array([], int), np.array([]), 2, 2, 1.0), Zero(),
                   ValueError, "^base split is empty"),
    "unnormalized": (dataset_from_dense(np.array([[4.0, 2.0]]), scale_max=5.0), Zero(), ValueError, "normalized"),
    "nan-zero": (_with_nan_rating(NORMALIZED), Zero(), ValueError, "^base split ratings must be finite"),
    "nan-svd": (_with_nan_rating(NORMALIZED), ImputedSvd(rank=1), ValueError, "^base split ratings must be finite"),
    "nan-alswr": (_with_nan_rating(NORMALIZED), AlsWr(rank=1, iters=1), ValueError,
                  "^base split ratings must be finite"),
    "unknown-method": (NORMALIZED, "zero", TypeError, "unknown imputation method"),
    "svd-rank-0": (NORMALIZED, ImputedSvd(rank=0), ValueError, "^rank must be at least 1"),
    "alswr-rank-0": (NORMALIZED, AlsWr(rank=0), ValueError, "^rank must be at least 1"),
    "svd-rank-float": (NORMALIZED, ImputedSvd(rank=1.5), ValueError, "^rank must be at least 1 and an integer"),
    "alswr-rank-float": (NORMALIZED, AlsWr(rank=1.5), ValueError, "^rank must be at least 1 and an integer"),
    "alswr-rank-bool": (NORMALIZED, AlsWr(rank=True), ValueError, "^rank must be at least 1 and an integer"),
    "alswr-iters-float": (NORMALIZED, AlsWr(iters=1.5), ValueError, "^need at least one iteration, got 1.5"),
    "alswr-lambda-0": (NORMALIZED, AlsWr(lam=0.0), ValueError, "^regularization must be positive and finite"),
    "alswr-lambda-negative": (NORMALIZED, AlsWr(lam=-1.0), ValueError, "^regularization must be positive and finite"),
    "alswr-lambda-nan": (NORMALIZED, AlsWr(lam=np.nan), ValueError, "^regularization must be positive and finite"),
    "alswr-lambda-inf": (NORMALIZED, AlsWr(lam=np.inf), ValueError, "^regularization must be positive and finite"),
    "alswr-iters-0": (NORMALIZED, AlsWr(iters=0), ValueError, "^need at least one iteration"),
}


class TestFillValidation:
    @pytest.mark.parametrize("case", sorted(FILL_ERRORS))
    def test_raises_at_the_call(self, case):
        """Every input error raises from fill itself, before the handle
        exists, not from the deferred build at the first read of X."""
        base, method, error, message = FILL_ERRORS[case]
        with pytest.raises(error, match=message):
            fill(base, method)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dataset_from_dense(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))


def eager_fill(base, method, seed=None):
    """The fill as an eager function, to hold the deferred one to: the p×q
    matrix, built at the call from the same kernels, into a BaseMatrix; a
    factorization's is its unclipped reconstruction."""
    from coldrec.impute import _column_means, _mean_filled

    p, q = base.n_users, base.n_items
    means = _column_means(base)
    if isinstance(method, ImputedSvd) and method.rank < min(p, q) and base.ratings.any():
        U, s, V = truncated_svd(_mean_filled(base, means), method.rank)
        return BaseMatrix((U * s) @ V.T)
    if isinstance(method, AlsWr):
        R = coo_array((base.ratings, (base.users, base.items)), shape=(p, q))
        U, V = als_wr_factorize(R, min(method.rank, p, q), method.lam, method.iters, rng=seed)
        return BaseMatrix(U @ V.T)
    X = np.zeros((p, q)) if isinstance(method, Zero) else np.broadcast_to(means, (p, q)).copy()
    X[base.users, base.items] = base.ratings
    return BaseMatrix(X)


class TestDeferredBuild:
    @pytest.mark.parametrize("method", [Zero(), ItemAverage(), ImputedSvd(rank=4), ImputedSvd(rank=99),
                                        AlsWr(rank=4, iters=6)],
                             ids=method_label)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_eager_fill(self, method, seed):
        """The handle knows its shape before the build: r × q for a
        factorization below full rank, whose Gram is the reconstruction's to
        1e-12 relative; p × q for the rest, bit for bit the eager matrix."""
        base = random_base(seed, **FACTORIZATION_BASES["both"])
        bm, ref = fill(base, method, seed=seed), eager_fill(base, method, seed=seed)
        factor = method in (ImputedSvd(rank=4), AlsWr(rank=4, iters=6))
        shape = (bm.k, bm.n_arms)  # before the build
        assert shape == bm.X.shape == (4 if factor else base.n_users, base.n_items)
        assert not bm.X.flags.writeable
        if factor:
            assert rel_err(gram(bm.X), gram(ref.X)) < 1e-12
            np.testing.assert_allclose(bm.column_norms_sq, ref.column_norms_sq, rtol=1e-12)
        else:
            assert np.array_equal(bm.column_norms_sq, ref.column_norms_sq)
            assert np.array_equal(bm.X, ref.X)

    def test_builds_once_then_lets_the_base_go(self):
        base = dataset_from_dense(FIXTURE_VALUES, FIXTURE_MASK)
        bm = fill(base, ItemAverage())
        base = weakref.ref(base)
        gc.collect()
        assert base() is not None  # the handle still needs it
        X = bm.X
        gc.collect()
        assert base() is None
        assert bm.X is X and not bm.X.flags.writeable and not bm.column_norms_sq.flags.writeable

    def test_non_finite_build_raises_at_each_read(self, fixture_base, monkeypatch):
        # a build that fails leaves the handle unbuilt, not half built
        monkeypatch.setattr(linalg, "truncated_svd", lambda M, rank: (np.ones((5, 1)), np.array([np.nan]), np.ones((5, 1))))
        bm = fill(fixture_base, ImputedSvd(rank=1))
        for _ in range(2):
            with pytest.raises(ValueError, match="non-finite entries"):
                bm.column_norms_sq


class TestBaseMatrix:
    def test_column_norms_cached_correctly(self, fixture_base):
        bm = fill(fixture_base, ItemAverage())
        recomputed = np.einsum("ij,ij->j", bm.X, bm.X)
        np.testing.assert_allclose(bm.column_norms_sq, recomputed, atol=1e-12)

    @pytest.mark.parametrize("X", [np.ones(3), np.empty((0, 3))], ids=["1-d", "empty"])
    def test_rejects_a_shape_without_columns_of_entries(self, X):
        message = f"base matrix must be a non-empty 2-d array, got shape {X.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BaseMatrix(X)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_entry(self, value):
        X = np.full((4, 3), 0.5)
        X[2, 1] = value
        with pytest.raises(ValueError, match="non-finite entries"):
            BaseMatrix(X)

    def test_rejects_finite_entries_whose_squares_overflow(self):
        # every entry is finite, but column 0's squared norm is inf
        with pytest.raises(ValueError, match="non-finite entries or columns whose squared norm overflows"):
            BaseMatrix(np.array([[1e200, 0.5], [1e200, 0.5]]))

    def test_direct_fill_peaks_at_its_matrix(self):
        """The zero fill of a 2000 × 2000 base, built by the read of X,
        holds X and little else: a p×q bool temporary in the finiteness
        check would reach 1.125×."""
        p = q = 2000
        base = random_base(0, p, q, 0.02)
        tracemalloc.start()
        try:
            fill(base, Zero()).X
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 8 * p * q, f"fill peaked at {peak / (8 * p * q):.3f}x of X"

    def test_writable_input_is_copied(self):
        """A caller's array, or a read-only view of it, may still be
        written through the caller's reference, so BaseMatrix copies it;
        the array fill built is taken as it is."""
        X = np.eye(3)
        view = X[:]
        view.flags.writeable = False
        for given in (X, view):
            bm = BaseMatrix(given)
            assert not np.shares_memory(bm.X, X)
        X[0, 0] = 9.0
        assert bm.X[0, 0] == 1.0
        owned = np.eye(3)
        owned.flags.writeable = False
        assert BaseMatrix(owned).X is owned

    def test_read_only(self, fixture_base):
        bm = fill(fixture_base, Zero())
        with pytest.raises(ValueError):
            bm.X[0, 0] = 9.0
        with pytest.raises(ValueError):
            bm.X[:, 0][0] = 9.0


class TestMethodNames:
    def test_round_trip_labels(self):
        for name in ("zero", "average", "svd", "alswr"):
            method = method_from_name(name, rank=4)
            assert method_label(method).startswith(name[:3])

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown imputation"):
            method_from_name("median")

    def test_dump_csv(self, tmp_path, fixture_base):
        bm = fill(fixture_base, Zero())
        out = tmp_path / "base.csv"
        write_csv(out, None, bm.X.T)  # the --dump-base form: one row per base user
        grid = np.loadtxt(out, delimiter=",")
        np.testing.assert_array_equal(grid, bm.X)

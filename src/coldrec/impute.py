"""Filling the sparse base split into the dense context matrix X.

Four strategies: zeros, per-item observed averages, truncated-SVD
reconstruction of the mean-filled matrix, and masked ALS-WR reconstruction.
The two factorization methods replace *every* entry with the low-rank
reconstruction (clipped to [0, 1]); the two direct fills keep observed
entries bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import RatingDataset, atomic_write

__all__ = [
    "Zero",
    "ItemAverage",
    "ImputedSvd",
    "AlsWr",
    "ImputationMethod",
    "method_from_name",
    "method_label",
    "METHODS",
    "BaseMatrix",
    "fill",
    "write_base_csv",
]

DEFAULT_RANK = 16
DEFAULT_ALS_LAM = 0.05
DEFAULT_ALS_ITERS = 15


@dataclass(frozen=True)
class Zero:
    """Missing entries become 0 ("not rated, probably not liked")."""


@dataclass(frozen=True)
class ItemAverage:
    """Missing entries become the item column's observed mean (0 if none)."""


@dataclass(frozen=True)
class ImputedSvd:
    """Mean-fill the columns, then keep the top-`rank` singular directions."""

    rank: int = DEFAULT_RANK


@dataclass(frozen=True)
class AlsWr:
    """Masked low-rank factorization with weighted-λ regularization."""

    rank: int = DEFAULT_RANK
    lam: float = DEFAULT_ALS_LAM
    iters: int = DEFAULT_ALS_ITERS


ImputationMethod = Zero | ItemAverage | ImputedSvd | AlsWr

METHODS = {"zero": Zero, "average": ItemAverage, "svd": ImputedSvd, "alswr": AlsWr}


def method_from_name(
    name: str,
    rank: int = DEFAULT_RANK,
    lam: float = DEFAULT_ALS_LAM,
    iters: int = DEFAULT_ALS_ITERS,
) -> ImputationMethod:
    """Resolve a CLI/config imputation id into a method value."""
    try:
        cls = METHODS[name]
    except KeyError:
        raise ValueError(f"unknown imputation method {name!r}; choose from {sorted(METHODS)}") from None
    if cls is ImputedSvd:
        return ImputedSvd(rank=rank)
    if cls is AlsWr:
        return AlsWr(rank=rank, lam=lam, iters=iters)
    return cls()


def method_label(method: ImputationMethod) -> str:
    """Stable short id for filenames and summary rows: the method's id, plus
    its rank for the factorization methods."""
    name = next(name for name, cls in METHODS.items() if isinstance(method, cls))
    return f"{name}{method.rank}" if isinstance(method, (ImputedSvd, AlsWr)) else name


class BaseMatrix:
    """The dense k×n context matrix whose columns are the arm contexts.

    Immutable after construction (the array is marked read-only), with the
    squared column norms cached — the contextual policies consume those
    constantly and they must not drift from the matrix.  A read-only
    float64 array that owns its data, as :func:`fill` hands over, is taken
    as it is; any other input is copied, since its owner could still write
    to it.
    """

    def __init__(self, X: np.ndarray):
        if not (isinstance(X, np.ndarray) and X.dtype == np.float64 and X.flags.owndata and not X.flags.writeable):
            X = np.array(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise ValueError(f"base matrix must be a non-empty 2-d array, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("base matrix contains non-finite entries")
        X.flags.writeable = False
        self.X = X
        self.column_norms_sq = np.einsum("ij,ij->j", X, X)
        self.column_norms_sq.flags.writeable = False

    @property
    def k(self) -> int:
        return self.X.shape[0]

    @property
    def n_arms(self) -> int:
        return self.X.shape[1]

    def column(self, j: int) -> np.ndarray:
        """Read-only view of arm j's context vector."""
        if not 0 <= j < self.n_arms:
            raise IndexError(f"arm index {j} out of range [0, {self.n_arms})")
        return self.X[:, j]


def _column_means(base: RatingDataset) -> np.ndarray:
    """Per-item observed means; items without observations get 0."""
    counts = np.bincount(base.items, minlength=base.n_items)
    sums = np.bincount(base.items, weights=base.ratings, minlength=base.n_items)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def _rated_over(base: RatingDataset, dense: np.ndarray) -> np.ndarray:
    """The p×q array `dense` with the base's ratings written over it."""
    dense[base.users, base.items] = base.ratings
    return dense


def _average_filled(base: RatingDataset, means: np.ndarray) -> np.ndarray:
    """The dense base with every missing entry at its item's mean."""
    return _rated_over(base, np.broadcast_to(means, (base.n_users, base.n_items)).copy())


def _mean_filled(base: RatingDataset, means: np.ndarray):
    """The mean-filled base as a LinearOperator, never built densely: the
    sparse residuals r_ij − means_j plus the rank-one 1 meansᵀ."""
    from scipy.sparse import csr_array  # here, not at the top: a 4 MB import only factorizations need
    from scipy.sparse.linalg import LinearOperator

    S = csr_array((base.ratings - means[base.items], (base.users, base.items)), shape=(base.n_users, base.n_items))

    def matmat(X):  # X of shape (q,), (q, 1) or (q, k), as Y in rmatmat
        return S @ X + means @ X

    def rmatmat(Y):
        return S.T @ Y + np.multiply.outer(means, Y.sum(axis=0))

    return LinearOperator(S.shape, matvec=matmat, rmatvec=rmatmat, matmat=matmat, rmatmat=rmatmat, dtype=np.float64)


def fill(base: RatingDataset, method: ImputationMethod, seed=None) -> BaseMatrix:
    """Produce the dense context matrix from the sparse base split.

    The base must already be normalized (ratings in [0, 1]); otherwise the
    bounded-output and observed-entries-preserved guarantees cannot both
    hold.  `seed` feeds the ALS-WR initialization only.  The factorization
    methods work on the ratings alone; only their p×q reconstruction is
    dense.
    """
    if base.n_ratings == 0:
        raise ValueError("base split is empty")
    base.check_normalized("base split")

    if isinstance(method, Zero):
        return _hand_over(_rated_over(base, np.zeros((base.n_users, base.n_items))))
    means = _column_means(base)
    if isinstance(method, ItemAverage):
        return _hand_over(_average_filled(base, means))

    p, q = base.n_users, base.n_items
    rank = min(method.rank, p, q)
    if isinstance(method, ImputedSvd):
        # ARPACK takes the mean-filled base as an operator; LAPACK (rank at
        # min(p, q)) and an all-zero base get it dense, as the average fill
        mean_filled = _mean_filled if rank < min(p, q) and base.ratings.any() else _average_filled
        U, s, V = linalg.truncated_svd(mean_filled(base, means), rank)
        X = (U * s) @ V.T
    elif isinstance(method, AlsWr):
        from scipy.sparse import coo_array  # see _mean_filled

        R = coo_array((base.ratings, (base.users, base.items)), shape=(p, q))
        U, V = linalg.als_wr_factorize(R, rank, method.lam, method.iters, rng=seed)
        X = U @ V.T
    else:
        raise TypeError(f"unknown imputation method {method!r}")
    return _hand_over(np.clip(X, 0.0, 1.0, out=X))


def _hand_over(X: np.ndarray) -> BaseMatrix:
    """Wrap an array nothing else references without copying it."""
    X.flags.writeable = False
    return BaseMatrix(X)


def write_base_csv(base_matrix: BaseMatrix, path) -> None:
    """Debug dump of the filled X as a CSV grid, one row per base user."""
    atomic_write(path, ["".join(",".join(map(repr, row)) + "\n" for row in base_matrix.X.tolist())])

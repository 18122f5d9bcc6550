"""Filling the sparse base split into the dense context matrix X.

Four strategies: zeros, per-item observed averages, truncated-SVD
reconstruction of the mean-filled matrix, and masked ALS-WR reconstruction.
The two factorization methods replace *every* entry with the low-rank
reconstruction (clipped to [0, 1]); the two direct fills keep observed
entries bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import linalg
from .data import RatingDataset

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
    """Resolve a CLI/config imputation id into a method value; each method
    takes those of rank, lam and iters that it has as fields."""
    try:
        cls = METHODS[name]
    except KeyError:
        raise ValueError(f"unknown imputation method {name!r}; choose from {sorted(METHODS)}") from None
    given = {"rank": rank, "lam": lam, "iters": iters}
    return cls(**{f.name: given[f.name] for f in fields(cls)})


def method_label(method: ImputationMethod) -> str:
    """Stable short id for filenames and summary rows: the method's id, plus
    its rank for the factorization methods."""
    name = next(name for name, cls in METHODS.items() if isinstance(method, cls))
    return f"{name}{method.rank}" if isinstance(method, (ImputedSvd, AlsWr)) else name


class BaseMatrix:
    """The dense k×n context matrix whose columns are the arm contexts.

    Immutable once built (the array is marked read-only), with the squared
    column norms cached — the contextual policies consume those constantly
    and they must not drift from the matrix, so each must be finite: a NaN
    or ±inf entry, or finite entries whose squares overflow, raise
    ``ValueError``.  A read-only float64 array
    that owns its data, as :func:`fill` builds, is taken as it is; any
    other input is copied, since its owner could still write to it.

    ``BaseMatrix(X)`` holds X from the start.  :func:`fill` hands out a
    deferred one instead: its shape is known, but X and the norms are built
    on the first read of ``X`` or ``column_norms_sq``, once, after which the
    builder (and the base it refers to) is dropped.  A policy that never
    reads the context never builds it.
    """

    def __init__(self, X: np.ndarray):
        self._build = None
        self._take(X)

    @classmethod
    def _deferred(cls, shape: tuple[int, int], build) -> BaseMatrix:
        """A handle of the given shape whose array `build()` returns when first read."""
        self = cls.__new__(cls)
        self._shape, self._build = shape, build
        return self

    def _take(self, X: np.ndarray) -> None:
        if not (isinstance(X, np.ndarray) and X.dtype == np.float64 and X.flags.owndata and not X.flags.writeable):
            X = np.array(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise ValueError(f"base matrix must be a non-empty 2-d array, got shape {X.shape}")
        norms_sq = np.einsum("ij,ij->j", X, X)
        if not np.isfinite(norms_sq).all():
            raise ValueError("base matrix contains non-finite entries or columns whose squared norm overflows")
        X.flags.writeable = norms_sq.flags.writeable = False
        self._X, self._norms_sq, self._shape = X, norms_sq, X.shape

    def _built(self) -> BaseMatrix:
        if self._build is not None:
            self._take(self._build())
            self._build = None
        return self

    @property
    def X(self) -> np.ndarray:
        return self._built()._X

    @property
    def column_norms_sq(self) -> np.ndarray:
        return self._built()._norms_sq

    @property
    def k(self) -> int:
        return self._shape[0]

    @property
    def n_arms(self) -> int:
        return self._shape[1]


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
    """The dense context matrix of the sparse base split, built on first read.

    The base must already be normalized (ratings in [0, 1]); otherwise the
    bounded-output and observed-entries-preserved guarantees cannot both
    hold.  The base and the method are checked here; the returned handle
    knows its k×n shape, and fills X the first time its ``X`` or
    ``column_norms_sq`` is read (see :class:`BaseMatrix`), so a policy that
    never reads the context costs no fill.  `seed` feeds the ALS-WR
    initialization only, and is consumed at that build: a ``Generator``
    passed as `seed` is drawn from then.  The factorization methods work on
    the ratings alone; only their p×q reconstruction is dense.
    """
    if base.n_ratings == 0:
        raise ValueError("base split is empty")
    base.check_normalized("base split")
    _check_method(method)
    return BaseMatrix._deferred((base.n_users, base.n_items), partial(_build, base, method, seed))


def _check_method(method: ImputationMethod) -> None:
    """The errors the factorizations would raise, raised before any build."""
    if not isinstance(method, tuple(METHODS.values())):
        raise TypeError(f"unknown imputation method {method!r}")
    if isinstance(method, (ImputedSvd, AlsWr)) and method.rank < 1:
        raise ValueError(f"rank must be at least 1, got {method.rank}")
    if isinstance(method, AlsWr):
        if not 0 < method.lam < np.inf:
            raise ValueError(f"regularization must be positive and finite, got {method.lam}")
        if method.iters < 1:
            raise ValueError(f"need at least one iteration, got {method.iters}")


def _build(base: RatingDataset, method: ImputationMethod, seed) -> np.ndarray:
    """The p×q fill of a base and a method that :func:`fill` has checked,
    read-only: nothing else references it, so BaseMatrix takes it without a
    copy."""
    p, q = base.n_users, base.n_items
    if isinstance(method, Zero):
        X = _rated_over(base, np.zeros((p, q)))
    elif isinstance(method, ItemAverage):
        X = _average_filled(base, _column_means(base))
    else:  # a factorization's reconstruction, clipped to the rating range
        rank = min(method.rank, p, q)
        if isinstance(method, ImputedSvd):
            # ARPACK takes the mean-filled base as an operator; LAPACK (rank at
            # min(p, q)) and an all-zero base get it dense, as the average fill
            mean_filled = _mean_filled if rank < min(p, q) and base.ratings.any() else _average_filled
            U, s, V = linalg.truncated_svd(mean_filled(base, _column_means(base)), rank)
            X = (U * s) @ V.T
        else:
            from scipy.sparse import coo_array  # see _mean_filled

            R = coo_array((base.ratings, (base.users, base.items)), shape=(p, q))
            U, V = linalg.als_wr_factorize(R, rank, method.lam, method.iters, rng=seed)
            X = U @ V.T
        np.clip(X, 0.0, 1.0, out=X)
    X.flags.writeable = False
    return X

"""Filling the sparse base split into the context matrix the policies read.

Four strategies: zeros, per-item observed averages, a truncated SVD of the
mean-filled matrix, and masked ALS-WR.  The two direct fills return the p×q
matrix, observed entries bit-identical.  The two factorizations return an
r×q matrix W with WᵀW = XᵀX for their rank-r reconstruction X, which is
never formed: every contextual policy reads its context only through that
Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, partial

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
    """The dense k×n context matrix whose columns are the arm contexts: any
    matrix with the arms' Gram matrix XᵀX, which is all the contextual
    policies read.  ``k`` is its row count, the rank r for a factorization.

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
        self._build = lambda: X
        self._checked  # X raises here, not at its first read

    @classmethod
    def _deferred(cls, shape: tuple[int, int], build) -> BaseMatrix:
        """A handle of the given shape whose array `build()` returns when first read."""
        self = cls.__new__(cls)
        self._shape, self._build = shape, build
        return self

    @cached_property
    def _checked(self) -> tuple[np.ndarray, np.ndarray]:
        """X and its squared column norms, read-only; a build that raises stores nothing."""
        X = self._build()
        if not (isinstance(X, np.ndarray) and X.dtype == np.float64 and X.flags.owndata and not X.flags.writeable):
            X = np.array(X, dtype=np.float64)
        if X.ndim != 2 or X.size == 0:
            raise ValueError(f"base matrix must be a non-empty 2-d array, got shape {X.shape}")
        norms_sq = np.einsum("ij,ij->j", X, X)
        if not np.isfinite(norms_sq).all():
            raise ValueError("base matrix contains non-finite entries or columns whose squared norm overflows")
        X.flags.writeable = norms_sq.flags.writeable = False
        self._shape = X.shape
        del self._build
        return X, norms_sq

    @property
    def X(self) -> np.ndarray:
        return self._checked[0]

    @property
    def column_norms_sq(self) -> np.ndarray:
        return self._checked[1]

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


def _mean_filled(base: RatingDataset, means: np.ndarray):
    """The mean-filled base as a LinearOperator, never built densely: the
    sparse residuals r_ij − means_j plus the rank-one 1 meansᵀ."""
    from scipy.sparse import csr_array  # here, not at the top: a 4 MB import only factorizations need
    from scipy.sparse.linalg import LinearOperator

    S = csr_array((base.ratings - means[base.items], base.items, base.starts), shape=(base.n_users, base.n_items))

    def matmat(X):  # X of shape (q,), (q, 1) or (q, k), as Y in rmatmat
        return S @ X + means @ X

    def rmatmat(Y):
        return S.T @ Y + np.multiply.outer(means, Y.sum(axis=0))

    return LinearOperator(S.shape, matvec=matmat, rmatvec=rmatmat, matmat=matmat, rmatmat=rmatmat, dtype=np.float64)


def fill(base: RatingDataset, method: ImputationMethod, seed=None) -> BaseMatrix:
    """The context matrix of the sparse base split, built on first read.

    The base must already be normalized (ratings in [0, 1]), so that the
    direct fills stay in [0, 1].  The base and the method are checked here;
    the returned handle knows its k×n shape, and fills X the first time its
    ``X`` or ``column_norms_sq`` is read (see :class:`BaseMatrix`), so a
    policy that never reads the context costs no fill.  `seed` feeds the
    ALS-WR initialization only, and is consumed at that build: a
    ``Generator`` passed as `seed` is drawn from then.  The factorizations
    work on the ratings alone and return r×q, nothing p×q.
    """
    if base.n_ratings == 0:
        raise ValueError("base split is empty")
    base.check_normalized("base split")
    _check_method(method)
    p, q = base.n_users, base.n_items
    # the rank of a factorization's r×q context; None for a p×q fill, svd too where ARPACK cannot run
    # (rank ≥ min(p, q), or every rating 0), since its full SVD would only rebuild the average fill
    r = min(method.rank, p, q) if isinstance(method, AlsWr) else None
    if isinstance(method, ImputedSvd) and method.rank < min(p, q) and base.ratings.any():
        r = method.rank
    return BaseMatrix._deferred((r or p, q), partial(_build, base, method, r, seed))


def _check_method(method: ImputationMethod) -> None:
    """The errors the factorizations would raise, raised before any build."""
    if not isinstance(method, tuple(METHODS.values())):
        raise TypeError(f"unknown imputation method {method!r}")
    rank = getattr(method, "rank", 1)  # zero and average take no rank
    if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)) or rank < 1:
        raise ValueError(f"rank must be at least 1 and an integer, got {rank!r}")
    if isinstance(method, AlsWr):
        linalg.check_als_wr_args(method.lam, method.iters)


def _build(base: RatingDataset, method: ImputationMethod, r: int | None, seed) -> np.ndarray:
    """The context of a base and a method that :func:`fill` has checked,
    read-only: nothing else references it, so BaseMatrix takes it without a
    copy."""
    p, q = base.n_users, base.n_items
    if r is None:  # the ratings written over zeros or over the item means, each user's run into its row
        X = np.zeros((p, q)) if isinstance(method, Zero) else np.broadcast_to(_column_means(base), (p, q)).copy()
        X.reshape(-1)[np.repeat(np.arange(0, p * q, q), np.diff(base.starts)) + base.items] = base.ratings
    elif isinstance(method, ImputedSvd):  # U diag(s) Vᵀ with orthonormal U has the Gram of diag(s) Vᵀ
        _, s, V = linalg.truncated_svd(_mean_filled(base, _column_means(base)), r)
        X = s[:, None] * V.T
    else:  # U Vᵀ = Q R Vᵀ with orthonormal Q has the Gram of R Vᵀ
        from scipy.sparse import csr_array  # see _mean_filled

        R = csr_array((base.ratings, base.items, base.starts), shape=(p, q))
        U, V = linalg.als_wr_factorize(R, r, method.lam, method.iters, rng=seed)
        X = np.linalg.qr(U, mode="r") @ V.T
    X.flags.writeable = False
    return X

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
    constantly and they must not drift from the matrix.
    """

    def __init__(self, X: np.ndarray):
        X = np.array(X, dtype=np.float64)  # defensive copy, then freeze
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


def _column_means(dense: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-column observed means; columns without observations get 0."""
    counts = mask.sum(axis=0)
    sums = np.where(mask, dense, 0.0).sum(axis=0)
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def _mean_filled(dense: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, dense, _column_means(dense, mask)[None, :])


def fill(base: RatingDataset, method: ImputationMethod, seed=None) -> BaseMatrix:
    """Produce the dense context matrix from the sparse base split.

    The base must already be normalized (ratings in [0, 1]); otherwise the
    bounded-output and observed-entries-preserved guarantees cannot both
    hold.  `seed` feeds the ALS-WR initialization only.
    """
    if base.n_ratings == 0:
        raise ValueError("base split is empty")
    if base.ratings.min() < 0.0 or base.ratings.max() > 1.0:
        raise ValueError("base split must be normalized to [0, 1] before imputation")
    dense, mask = base.to_dense()

    if isinstance(method, Zero):
        return BaseMatrix(dense)
    if isinstance(method, ItemAverage):
        return BaseMatrix(_mean_filled(dense, mask))

    rank = min(method.rank, base.n_users, base.n_items)
    if isinstance(method, ImputedSvd):
        U, s, V = linalg.truncated_svd(_mean_filled(dense, mask), rank)
        return BaseMatrix(np.clip((U * s) @ V.T, 0.0, 1.0))

    if isinstance(method, AlsWr):
        # Deficient slices make the masked problem ill-posed; pre-fill them
        # by the item-average rule (0 for never-observed columns).
        empty_cols = ~mask.any(axis=0)
        if empty_cols.any():
            dense[:, empty_cols] = 0.0
            mask[:, empty_cols] = True
        empty_rows = ~mask.any(axis=1)
        if empty_rows.any():
            col_means = _column_means(dense, mask)
            dense[empty_rows] = col_means[None, :]
            mask[empty_rows] = True
        U, V = linalg.als_wr_factorize(dense, mask, rank, method.lam, method.iters, rng=seed)
        return BaseMatrix(np.clip(U @ V.T, 0.0, 1.0))

    raise TypeError(f"unknown imputation method {method!r}")


def write_base_csv(base_matrix: BaseMatrix, path) -> None:
    """Debug dump of the filled X as a CSV grid, one row per base user."""
    atomic_write(path, ["".join(",".join(map(repr, row)) + "\n" for row in base_matrix.X.tolist())])

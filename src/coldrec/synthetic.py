"""Synthetic low-rank rating environments with a known linear taste model.

Each evaluation user's ratings are θᵀX plus clipped Gaussian noise, where X
is the (fully observed) base users' rating matrix and θ is drawn from the
uniform simplex — so clean ratings are convex combinations of base rows and
stay inside [0, 1] by construction.
"""

from __future__ import annotations

import numpy as np

from .data import RatingDataset, dataset_from_dense

__all__ = ["linear_environment"]


def linear_environment(
    n_base_users: int,
    n_arms: int,
    n_eval_users: int,
    noise: float = 0.05,
    seed=None,
) -> tuple[RatingDataset, RatingDataset]:
    """Generate a (base, evaluation) dataset pair on the [0, 1] scale.

    The base half is dense, so zero imputation reproduces X exactly and the
    contextual policies see the true arm contexts.  The evaluation half is
    dense too: every reveal returns a real rating, never the zero fill.
    """
    if min(n_base_users, n_arms, n_eval_users) < 1:
        raise ValueError("environment dimensions must be positive")
    if not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n_base_users, n_arms))
    tastes = rng.dirichlet(np.ones(n_base_users), size=n_eval_users)
    Y = tastes @ X
    if noise > 0:  # Y + noise * z in place: the same bits, without its two temporaries
        z = rng.standard_normal(Y.shape)
        Y += np.multiply(z, noise, out=z)
    np.clip(Y, 0.0, 1.0, out=Y)
    return dataset_from_dense(X), dataset_from_dense(Y)

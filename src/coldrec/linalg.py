"""Dense linear-algebra kernels for the matrix-completion imputers: the
truncated SVD and masked ALS with weighted regularization.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "truncated_svd",
    "als_wr_factorize",
    "als_wr_objective",
]


def _finite_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def truncated_svd(M, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-`rank` factorization of M in the Frobenius norm.

    Returns (U, s, V) with orthonormal-column U (p×r) and V (q×r) and
    nonincreasing singular values s (length r), so that M ≈ U @ diag(s) @ V.T.
    Inputs of lower actual rank simply come back with trailing zero singular
    values.

    Only the leading triplets are computed, by implicitly restarted Lanczos
    (ARPACK) to full precision from a fixed start vector, so reruns are
    bit-identical.  ARPACK needs rank < min(p, q) and a nonzero M; the other
    inputs take a full LAPACK SVD.
    """
    M = _finite_matrix(M)
    p, q = M.shape
    if not 1 <= rank <= min(p, q):
        raise ValueError(f"rank must be in [1, {min(p, q)}] for a {p}x{q} matrix, got {rank}")
    if rank == min(p, q) or not M.any():
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        return U[:, :rank].copy(), s[:rank].copy(), Vt[:rank].T.copy()
    from scipy.sparse.linalg import svds  # here, not at the top: a 4 MB import only factorizations need

    start = np.random.default_rng(0).uniform(-1.0, 1.0, min(p, q))
    U, s, Vt = svds(M, k=rank, tol=0, v0=start, solver="arpack")
    order = np.argsort(s, kind="stable")[::-1]
    return U[:, order], s[order], Vt[order].T


def als_wr_objective(M, mask, U, V, lam: float) -> float:
    """Regularized observed-entry objective of a masked factorization.

    Σ_obs (M − U Vᵀ)² + λ(Σ_i n_i‖u_i‖² + Σ_j n_j‖v_j‖²), where n_i / n_j
    count the observations in row i / column j (the weighted-λ convention).
    """
    M = np.asarray(M, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    resid = (M - U @ V.T)[mask]
    n_row = mask.sum(axis=1)
    n_col = mask.sum(axis=0)
    penalty = lam * (n_row @ np.sum(U * U, axis=1) + n_col @ np.sum(V * V, axis=1))
    return float(resid @ resid + penalty)


def _als_half_sweep(W, MW, fixed, lam):
    """Exactly re-solve one side of the factorization, observed entries only.

    W is the sparse 0/1 observation mask (rows = the side being solved) and
    MW the observed values on the same pattern.  Row i's normal equations
    (Σ_{j∈obs(i)} f_j f_jᵀ + λ n_i I) x_i = Σ_{j∈obs(i)} m_ij f_j are formed
    for every row at once — the Gram blocks as W times the upper triangles
    of f_j f_jᵀ — and solved as one stacked system.
    """
    p, rank = W.shape[0], fixed.shape[1]
    iu, ju = np.triu_indices(rank)
    slot = np.empty((rank, rank), dtype=np.intp)  # (a, b) → column of the upper triangle
    slot[iu, ju] = slot[ju, iu] = np.arange(iu.size)
    G = (W @ (fixed[:, iu] * fixed[:, ju]))[:, slot]
    diag = np.arange(rank)
    G[:, diag, diag] += lam * W.sum(axis=1)[:, None]
    return np.linalg.solve(G, (MW @ fixed)[:, :, None])[:, :, 0]


def als_wr_factorize(
    M,
    mask,
    rank: int,
    lam: float,
    iters: int,
    rng=None,
    return_objective: bool = False,
):
    """Alternating least squares with weighted-λ regularization on a mask.

    Factors M ≈ U Vᵀ using only the entries where `mask` is True.  Each half
    sweep solves its block of the joint objective exactly, so the value
    reported by :func:`als_wr_objective` never increases across iterations.

    Every row and column of `mask` must contain at least one observation;
    callers with deficient slices pre-fill them (the imputer does).

    V is initialized with per-column observed means in its first factor and
    small uniform noise in [−0.5/rank, 0.5/rank] elsewhere, drawn from `rng`.

    Returns (U, V), or (U, V, objective_per_iteration) when
    `return_objective` is set.
    """
    M = _finite_matrix(M)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != M.shape:
        raise ValueError(f"mask shape {mask.shape} does not match matrix shape {M.shape}")
    p, q = M.shape
    if not 1 <= rank <= min(p, q):
        raise ValueError(f"rank must be in [1, {min(p, q)}] for a {p}x{q} matrix, got {rank}")
    if lam <= 0:
        raise ValueError(f"regularization must be positive, got {lam}")
    if iters < 1:
        raise ValueError(f"need at least one iteration, got {iters}")
    row_counts = mask.sum(axis=1)
    col_counts = mask.sum(axis=0)
    if (row_counts == 0).any():
        raise ValueError(f"row {int(np.argmin(row_counts))} of the observation mask has no entries")
    if (col_counts == 0).any():
        raise ValueError(f"column {int(np.argmin(col_counts))} of the observation mask has no entries")

    rng = np.random.default_rng(rng)
    V = np.zeros((q, rank))
    with np.errstate(invalid="ignore"):
        col_means = np.where(mask, M, 0.0).sum(axis=0) / col_counts
    V[:, 0] = col_means
    if rank > 1:
        V[:, 1:] = rng.uniform(-0.5 / rank, 0.5 / rank, size=(q, rank - 1))

    from scipy.sparse import csr_array  # here, not at the top: see truncated_svd

    rows, cols = np.nonzero(mask)
    W = csr_array((np.ones(rows.size), (rows, cols)), shape=(p, q))
    MW = csr_array((M[rows, cols], (rows, cols)), shape=(p, q))
    Wt, MWt = W.T.tocsr(), MW.T.tocsr()
    history = []
    for _ in range(iters):
        U = _als_half_sweep(W, MW, V, lam)
        V = _als_half_sweep(Wt, MWt, U, lam)
        if return_objective:
            history.append(als_wr_objective(M, mask, U, V, lam))

    if return_objective:
        return U, V, np.array(history)
    return U, V

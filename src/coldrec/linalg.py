"""Linear-algebra kernels for the matrix-completion imputers: the truncated
SVD and masked ALS with weighted regularization, both at the cost of the
observed entries where the input is sparse.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "truncated_svd",
    "als_wr_factorize",
    "check_als_wr_args",
]


def truncated_svd(M, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-`rank` factorization, in the Frobenius norm, of a nonzero
    ``scipy.sparse.linalg.LinearOperator`` M (the imputer's mean-filled base
    is one), computed from M's products alone.

    Returns (U, s, V) with orthonormal-column U (p×r) and V (q×r) and
    nonincreasing singular values s (length r), so that M ≈ U @ diag(s) @ V.T;
    an M of lower actual rank comes back with trailing zero singular values.
    Only the leading triplets are computed, by implicitly restarted Lanczos
    (ARPACK, which needs rank < min(p, q)) to full precision from a fixed
    start vector, so reruns are bit-identical.
    """
    from scipy.sparse.linalg import LinearOperator, svds  # here, not at the top: a 4 MB import

    if not isinstance(M, LinearOperator):
        raise TypeError(f"M must be a scipy.sparse.linalg.LinearOperator, got {type(M).__name__}")
    p, q = M.shape
    if not 1 <= rank < min(p, q):
        raise ValueError(f"rank must be in [1, {min(p, q) - 1}] for a {p}x{q} operator, got {rank}")
    start = np.random.default_rng(0).uniform(-1.0, 1.0, min(p, q))
    U, s, Vt = svds(M, k=rank, tol=0, v0=start, solver="arpack")
    order = np.argsort(s, kind="stable")[::-1]
    return U[:, order], s[order], Vt[order].T


def _als_half_sweep(W, RW, fixed, lam, n_obs, extra_gram):
    """Exactly re-solve one side of the factorization, observed entries only.

    W is the sparse 0/1 observation pattern (rows = the side being solved)
    and RW the observed values on it.  Row i's normal equations
    (Σ_{j∈obs(i)} f_j f_jᵀ + λ n_i I) x_i = Σ_{j∈obs(i)} r_ij f_j are formed
    for every row at once — the Gram blocks as W times the upper triangles
    of f_j f_jᵀ, plus `extra_gram` for observed zeros W leaves out, and
    n_i from `n_obs` — and solved together by a Cholesky factorization
    G = Rᵀ R and two triangular solves, each step vectorized over the rows.
    G packs the upper triangles row after row, rows of the sweep last, so a
    row of R is a contiguous slice.  A block not positive definite raises.
    """
    rank = fixed.shape[1]
    iu, ju = np.triu_indices(rank)
    slot = np.zeros((rank, rank), dtype=np.intp)  # (a, b ≥ a) → its row in G
    slot[iu, ju] = np.arange(iu.size)
    G = (W @ (fixed.take(iu, axis=1) * fixed.take(ju, axis=1))).T.copy()  # take: ≈4× faster than [:, iu]
    G += np.broadcast_to(extra_gram, (rank, rank))[iu, ju, None]
    G[np.diag(slot)] += lam * n_obs
    R = [G[slot[a, a] : slot[a, -1] + 1] for a in range(rank)]  # row a of R from its diagonal on, in G
    for a, Ra in enumerate(R):
        Ra -= np.einsum("kp,kcp->cp", G[slot[:a, a]], G[slot[:a, a:]])
        if not np.all(Ra[0] > 0):
            raise np.linalg.LinAlgError(f"Gram block of row {np.argmin(Ra[0] > 0)} is not positive definite")
        np.sqrt(Ra[0], out=Ra[0])
        Ra[1:] /= Ra[0]
    x = (RW @ fixed).T.copy()
    for a, Ra in enumerate(R):  # Rᵀ y = RW f, y over x
        x[a] /= Ra[0]
        x[a + 1 :] -= Ra[1:] * x[a]
    for a in reversed(range(rank)):  # R x = y
        x[a] -= np.einsum("kp,kp->p", R[a][1:], x[a + 1 :])
        x[a] /= R[a][0]
    return x.T.copy()


def check_als_wr_args(lam: float, iters: int) -> None:
    """Raise unless the regularization λ is positive and finite and the sweeps are an integer count of at least 1."""
    if not 0 < lam < np.inf:
        raise ValueError(f"regularization must be positive and finite, got {lam}")
    if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
        raise ValueError(f"need at least one iteration, got {iters!r}: iters must be an integer of at least 1")


def als_wr_factorize(R, rank: int, lam: float, iters: int, rng=None):
    """Alternating least squares with weighted-λ regularization.

    Factors M ≈ U Vᵀ on the observations only: the stored entries of the
    scipy sparse array R (explicit zeros too), plus the imputer's rules for
    empty lines.  A column E with no stored entry is observed 0 in every
    row; those zeros are in closed form: E's factor is 0 from the first
    column sweep on, and a row sweep gets V_Eᵀ V_E in each Gram block and
    |E| in each count.  A row left without any observation (so no column is
    empty) is observed at the column means in every column, stored as q
    entries.  Each half sweep exactly minimizes, over its side,
    Σ_obs (m_ij − u_i·v_j)² + λ(Σ_i n_i‖u_i‖² + Σ_j n_j‖v_j‖²), with n_i / n_j
    the observations in row i / column j (the weighted-λ convention), so
    that objective never increases across iterations.

    V is initialized with per-column observed means in its first factor and
    small uniform noise in [−0.5/rank, 0.5/rank] elsewhere, drawn from `rng`.
    The sweeps draw nothing, so the run with `iters` = k returns iterate k
    of any longer run.  Returns (U, V).
    """
    from scipy.sparse import coo_array, csr_array, issparse  # here, not at the top: see truncated_svd

    if not issparse(R):  # a dense 0 could not say whether it is an observation
        raise TypeError(f"observations must be a scipy sparse array, got {type(R).__name__}")
    coo = coo_array(R, dtype=np.float64)
    R = coo.tocsr()  # sums a coordinate stored twice, hence the count check
    if R.nnz != coo.nnz:
        raise ValueError("observations store a coordinate more than once")
    if not np.all(np.isfinite(R.data)):
        raise ValueError("observations contain non-finite entries")
    p, q = R.shape
    if not 1 <= rank <= min(p, q):
        raise ValueError(f"rank must be in [1, {min(p, q)}] for a {p}x{q} matrix, got {rank}")
    check_als_wr_args(lam, iters)
    Rt = R.T.tocsr()
    empty = np.diff(Rt.indptr) == 0
    empty_rows = np.flatnonzero(np.diff(R.indptr) + empty.sum() == 0)
    if empty_rows.size:
        R = R.tocoo()
        means = np.tile((Rt @ np.ones(p)) / np.diff(Rt.indptr), empty_rows.size)
        rows = np.concatenate([R.row, np.repeat(empty_rows, q)])
        cols = np.concatenate([R.col, np.tile(np.arange(q), empty_rows.size)])
        R = csr_array((np.concatenate([R.data, means]), (rows, cols)), shape=(p, q))
        Rt = R.T.tocsr()
    row_counts = np.diff(R.indptr) + empty.sum()
    # E's right-hand side is 0, so its solution is 0 whatever its Gram block: λ p I stands in
    col_counts = np.where(empty, p, np.diff(Rt.indptr))

    rng = np.random.default_rng(rng)
    V = np.zeros((q, rank))
    V[:, 0] = (Rt @ np.ones(p)) / col_counts
    if rank > 1:
        V[:, 1:] = rng.uniform(-0.5 / rank, 0.5 / rank, size=(q, rank - 1))

    W, Wt = R.copy(), Rt.copy()
    W.data[:] = Wt.data[:] = 1.0
    for _ in range(iters):
        U = _als_half_sweep(W, R, V, lam, row_counts, V[empty].T @ V[empty])
        V = _als_half_sweep(Wt, Rt, U, lam, col_counts, 0.0)
    return U, V

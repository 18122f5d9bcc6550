"""The four ways of turning a sparse base matrix into arm contexts, side by side.

A small base split with one never-rated item shows how each strategy treats
observed entries, missing entries, and empty columns.  The zero and average
fills are the base itself, one row per base user, with its gaps filled.  The
two factorizations hand the policies an r×q factor W instead, one row per
latent direction: its Gram matrix WᵀW is that of their rank-r
reconstruction, and the Gram matrix is all a contextual policy reads of its
context (alinucb reads only its diagonal, the squared norms ‖x_j‖²).
"""

import numpy as np

from coldrec import fill
from coldrec.data import dataset_from_dense
from coldrec.impute import AlsWr, ImputedSvd, ItemAverage, Zero

rng = np.random.default_rng(3)

# A low-rank "true" base with 55% of entries hidden; column 4 never rated.
true_base = np.clip(np.outer(rng.uniform(0.4, 1, 8), rng.uniform(0.3, 1, 6)), 0, 1)
mask = rng.random((8, 6)) < 0.45
mask[np.arange(8), rng.integers(4, size=8)] = True
mask[:, 4] = False
base = dataset_from_dense(true_base, mask)

METHODS = [
    ("zero", Zero()),
    ("average", ItemAverage()),
    ("svd", ImputedSvd(rank=2)),
    ("alswr", AlsWr(rank=2, lam=0.05, iters=15)),
]
contexts = {label: fill(base, method, seed=0) for label, method in METHODS}


def show(label, X, marked):
    print(f"\n{label}: {X.shape[0]}×{X.shape[1]}")
    for i, row in enumerate(X):
        cells = " ".join(f"{v:5.2f}" + ("*" if marked and mask[i, j] else " ") for j, v in enumerate(row))
        print("  " + cells)


print("(* marks an observed rating; everything else was filled in)")
show("zero fill — missing means 'probably not liked'", contexts["zero"].X, True)
show("item average — missing means 'typical for this item'", contexts["average"].X, True)
show("truncated SVD of the mean-filled matrix (rank 2), as diag(s)·Vᵀ", contexts["svd"].X, False)
show("masked ALS-WR (rank 2), as R·Vᵀ with U = QR", contexts["alswr"].X, False)

truth_gram = true_base.T @ true_base
print("\nSquared norms ‖x_j‖² per item, and the Gram matrix's error against the hidden truth's:")
print(f"  {'truth':<8} " + " ".join(f"{v:5.2f}" for v in np.diag(truth_gram)))
for label, bm in contexts.items():
    err = np.linalg.norm(bm.X.T @ bm.X - truth_gram) / np.linalg.norm(truth_gram)
    print(f"  {label:<8} " + " ".join(f"{v:5.2f}" for v in bm.column_norms_sq) + f"   relative error {err:.4f}")

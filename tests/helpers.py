"""Dense views of the library's sparse objects, for tests only."""

import numpy as np


def to_dense(ds):
    """The dataset as a dense (matrix, observed-mask) pair, missing entries
    zero; :func:`coldrec.data.dataset_from_dense` builds it back."""
    dense = np.zeros((ds.n_users, ds.n_items))
    mask = np.zeros((ds.n_users, ds.n_items), dtype=bool)
    dense[ds.users, ds.items] = ds.ratings
    mask[ds.users, ds.items] = True
    return dense, mask

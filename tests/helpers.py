"""Dense views of the library's sparse objects, for tests only."""

import numpy as np

from coldrec.data import RatingDataset


def to_dense(ds):
    """The dataset as a dense (matrix, observed-mask) pair, missing entries
    zero; :func:`coldrec.data.dataset_from_dense` builds it back."""
    dense = np.zeros((ds.n_users, ds.n_items))
    mask = np.zeros((ds.n_users, ds.n_items), dtype=bool)
    dense[ds.users, ds.items] = ds.ratings
    mask[ds.users, ds.items] = True
    return dense, mask


def remade(ds, **changes):
    """A dataset like `ds`, built through the triple constructor with the
    given arguments (users, items, ratings, n_users, n_items, scale_max)
    changed."""
    args = dict(users=ds.users, items=ds.items, ratings=ds.ratings, n_users=ds.n_users, n_items=ds.n_items,
                scale_max=ds.scale_max)
    return RatingDataset(**{**args, **changes})

"""Rating-dataset ingestion, normalization, base/eval splitting, and
the user↔item role swap for the new-item problem.

A dataset holds each user's run of (item, rating) pairs, the users densely
numbered: loaders drop users that contribute no ratings and re-index the
survivors, while the item axis keeps its catalog width (unrated items stay as
empty columns — a recommender knows its catalog, not which items got ratings).
"""

from __future__ import annotations

import enum
import itertools
import logging
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

__all__ = [
    "ProblemKind",
    "RatingDataset",
    "CorpusSplit",
    "load_movielens",
    "load_csv_triples",
    "LOADERS",
    "save_csv_triples",
    "normalize",
    "split_base_eval",
    "orient",
    "subsample",
    "filter_min_ratings",
    "dataset_from_dense",
    "atomic_write",
    "write_csv",
]

logger = logging.getLogger(__name__)
_CSV_CHUNK_ROWS = 10_000  # rows write_csv formats per write, so the text held at once does not grow with the file


class ProblemKind(enum.Enum):
    """Which cold-start direction an experiment runs in."""

    NEW_USER = "new-user"
    NEW_ITEM = "new-item"


@dataclass(frozen=True, eq=False, init=False)
class RatingDataset:
    """Sparse ratings in compressed-row form, plus the catalog width.

    User u rated ``items[starts[u]:starts[u + 1]]``, with those `ratings`:
    16 bytes per rating and 8 per user; :attr:`users` is derived, not held.
    Invariants, checked by both constructors: `starts` runs from 0 to
    n_ratings without decreasing, items strictly ascend inside each run (so
    the ratings are in (user, item) order, each pair once), item ids lie in
    [0, n_items), and the (user, item) keys fit int64.  Every user has a
    rating (loader-enforced; `orient` is the one exception).
    """

    starts: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    n_items: int
    scale_max: float

    def __init__(self, users, items, ratings, n_users, n_items, scale_max):
        """The dataset of the triples (users[i], items[i], ratings[i]), which must be in (user, item) order."""
        if not len(users) == len(items) == len(ratings):
            raise ValueError("users/items/ratings arrays must have equal length")
        _check_column("user", users, ids=True)
        _check_count("n_users", n_users)
        if not (users[1:] >= users[:-1]).all():  # name the first pair out of (user, item) order, be it an item repeat
            ordered = (users[1:] > users[:-1]) | (users[1:] == users[:-1]) & (items[1:] > items[:-1])
            raise ValueError(_order_error(int(ordered.argmin()) + 1, users, items))
        if len(users) and not (users[0] >= 0 and users[-1] < n_users):
            raise ValueError(f"user ids must lie in [0, {n_users}), got [{users[0]}, {users[-1]}]")
        self._hold(np.searchsorted(users, np.arange(n_users + 1)), items, ratings, n_items, scale_max)

    @classmethod
    def from_runs(cls, starts, items, ratings, n_items, scale_max) -> RatingDataset:
        """The dataset whose user u rated ``items[starts[u]:starts[u + 1]]``, with those `ratings`."""
        return cls.__new__(cls)._hold(starts, items, ratings, n_items, scale_max)

    def _hold(self, starts, items, ratings, n_items, scale_max) -> RatingDataset:
        """Hold the arrays as they are, uncopied, and check the invariants."""
        n = len(items)
        if not (starts.ndim == 1 and np.issubdtype(starts.dtype, np.integer) and len(starts) and starts[0] == 0
                and starts[-1] == n and (starts[1:] >= starts[:-1]).all()):
            raise ValueError(f"starts must run from 0 to the {n} ratings without decreasing")
        if n != len(ratings):
            raise ValueError("users/items/ratings arrays must have equal length")
        _check_column("item", items, ids=True)
        _check_column("rating", ratings, ids=False)
        _check_count("n_items", n_items)
        self.__dict__.update(starts=starts, items=items, ratings=ratings, n_items=n_items, scale_max=scale_max)
        _check_key_range(self.n_users, n_items)
        ordered = np.ones(n + 1, dtype=bool)  # ordered[i]: rating i starts a run or follows its run's rating i - 1
        np.greater(items[1:], items[:-1], out=ordered[1:-1])
        ordered[starts] = True
        if not ordered.all():
            raise ValueError(_order_error(int(ordered.argmin()), self.users, items))
        if n and not (items.min() >= 0 and items.max() < n_items):
            raise ValueError(f"item ids must lie in [0, {n_items}), got [{items.min()}, {items.max()}]")
        if not 0 < scale_max < np.inf:  # a NaN fails too
            raise ValueError(f"scale_max must be positive and finite, got {scale_max}")
        return self

    @property
    def n_users(self) -> int:
        return len(self.starts) - 1

    @property
    def n_ratings(self) -> int:
        return len(self.ratings)

    @property
    def users(self) -> np.ndarray:
        """Each rating's user, built from `starts` on every read."""
        return np.repeat(np.arange(self.n_users), np.diff(self.starts))

    def check_normalized(self, what: str) -> None:
        """Raise unless every rating lies in [0, 1]; a NaN fails too."""
        if self.n_ratings and not (self.ratings.min() >= 0.0 and self.ratings.max() <= 1.0):
            raise ValueError(f"{what} ratings must be finite and normalized to [0, 1]")


def _check_column(name: str, arr: np.ndarray, ids: bool) -> None:
    """Raise unless the column is 1-d, and of integers if it holds ids."""
    if arr.ndim != 1:
        raise ValueError(f"{name}s must be a 1-d array, got {arr.ndim} dimensions")
    if ids and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} ids must be integers, got {arr.dtype}")


def _check_count(name: str, n) -> None:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")


def _order_error(at: int, users, items) -> str:
    return (f"ratings must be in (user, item) order, each pair once: rating {at} is ({users[at]}, {items[at]}) "
            f"after ({users[at - 1]}, {items[at - 1]})")


def _check_key_range(n_users: int, n_items: int) -> None:
    """Raise unless the grid's keys ``user * n_items + item``, which the loaders sort by, fit int64."""
    if n_users and n_items > np.iinfo(np.int64).max // n_users:
        raise ValueError(f"{n_users} users x {n_items} items overflow the (user, item) keys")


@dataclass(frozen=True)
class CorpusSplit:
    """Row-disjoint base/evaluation partition of a dataset.

    `base` holds the sampled context rows (still sparse, pre-imputation),
    `evaluation` the complement used for replay; both keep the full item
    axis.  `base_user_ids` records which original rows were sampled.
    """

    base: RatingDataset
    evaluation: RatingDataset
    base_user_ids: np.ndarray


_TRIPLE = np.dtype([("user", "i8"), ("item", "i8"), ("rating", "f8")])


@dataclass(frozen=True)
class _Grammar:
    """One text format of ``user<sep>item<sep>rating[<sep>anything]`` lines."""

    sep: str
    n_fields: int
    first_id: int  # ids below it are rejected; items are shifted down by it
    expected: str  # the message for a wrong field count
    id_rule: str  # the message for an id below first_id
    header: bool  # the first non-blank line is a header if it has n_fields fields and float() rejects the first
    fields: np.dtype  # a line split at sep[0]: user, item, rating, and the "sep" fields a longer sep leaves empty


_MOVIELENS = _Grammar("::", 4, 1, "expected UserID::MovieID::Rating::Timestamp", "MovieLens ids are 1-based", False,
                      np.dtype([("user", "i8"), ("sep1", "S1"), ("item", "i8"), ("sep2", "S1"), ("rating", "f8"),
                                ("sep3", "S1"), ("timestamp", "S0")]))  # the timestamp is free text, discarded
_CSV = _Grammar(",", 3, 0, "expected user,item,rating", "ids must be nonnegative", True, _TRIPLE)

# Bytes that numpy reads otherwise than _parse_line: it strips 0x1c-0x1f as whitespace, which int() rejects, takes a
# NUL for a string's padding, and reads some non-ASCII characters as digits ("1\u01fe" as the id 472)
_NOT_FOR_NUMPY = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_open_text = partial(open, encoding="utf-8-sig", errors="replace")  # a leading byte-order mark is not part of line 1


def _parse_line(line: str, grammar: _Grammar, scale_max: float, where: str):
    """The (user, item, rating) triple of one stripped, non-empty line; any
    other line raises a ValueError that starts with `where`.  This defines
    the grammar: :func:`_bulk_triples` reads a file in numpy's form exactly
    as this would, and any other file is read here."""
    parts = line.split(grammar.sep)
    if len(parts) != grammar.n_fields:
        raise ValueError(f"{where}: {grammar.expected}")
    try:
        u, i, r = int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if u < grammar.first_id or i < grammar.first_id:
        raise ValueError(f"{where}: {grammar.id_rule}, got user={u} item={i}")
    if max(u, i) >= 2**63:  # wider than the int64 id arrays
        raise ValueError(f"{where}: ids must be below 2**63, got user={u} item={i}")
    if not 0.0 <= r <= scale_max:
        raise ValueError(f"{where}: rating {r} outside [0, {scale_max}]")
    return u, i - grammar.first_id, r


def _stripped_lines(fh):
    """(line number, stripped text) of each non-blank line of an open text file."""
    return ((lineno, text) for lineno, line in enumerate(fh, start=1) if (text := line.strip()))


def _numpy_rows(path, dtype: np.dtype, delimiter: str, skip: int):
    """The rows after line `skip`, parsed from disk by numpy (UTF-8, no comments), or None on a bad row or on none."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(path, dtype, comments=None, delimiter=delimiter, skiprows=skip, encoding="utf-8", ndmin=1)
    except (ValueError, Warning):
        return None


def _bulk_triples(path, grammar: _Grammar, scale_max: float, skip: int):
    """(users, items, ratings) of the lines after the first `skip`, read by :func:`_numpy_rows`, or None unless
    :func:`_parse_line` reads each line to the same triple: numpy also reads ids below first_id, ratings outside
    [0, scale_max] and text inside a separator, which the checks reject."""
    rows = _numpy_rows(path, grammar.fields, grammar.sep[0], skip)
    if rows is None:
        return None
    users, items, ratings = rows["user"], rows["item"], rows["rating"]
    if (min(users.min(), items.min()) < grammar.first_id or not (ratings.min() >= 0.0 and ratings.max() <= scale_max)
            or any(rows[name].view(np.uint8).any() for name in grammar.fields.names if name.startswith("sep"))):
        return None
    return users.copy(), items - grammar.first_id, ratings.copy()  # the rows are freed on return


def _load(path, grammar: _Grammar, scale_max: float) -> RatingDataset:
    """The file's triples as a dataset: deduplicated (keep last), users
    compacted, sorted canonically.  The lines past a header are read by
    :func:`_bulk_triples`, or else line by line through :func:`_parse_line`,
    whose errors name the first bad line."""
    skip = 0
    if grammar.header:
        with _open_text(path) as fh:
            lineno, line = next(_stripped_lines(fh), (0, ""))
        parts = line.split(grammar.sep)
        try:
            float(parts[0])
        except ValueError:
            skip = lineno if len(parts) == grammar.n_fields else 0  # the header and the blank lines above it
    with open(path, "rb") as fh:
        data = fh.read()
    numpy_form = data.isascii() and not any(map(data.__contains__, _NOT_FOR_NUMPY))
    del data  # before numpy reads the file
    triples = _bulk_triples(path, grammar, scale_max, skip) if numpy_form else None
    if triples is None:
        with _open_text(path) as fh:  # closed when a line raises too
            rows = np.fromiter((_parse_line(line, grammar, scale_max, f"{path}, line {lineno}")
                                for lineno, line in _stripped_lines(fh) if lineno > skip), dtype=_TRIPLE)
        triples = rows["user"], rows["item"], rows["rating"]
    raw_users, items, ratings = triples
    del triples
    if ratings.size == 0:
        raise ValueError(f"{path}: no ratings")
    if np.all(raw_users[1:] >= raw_users[:-1]):  # grouped by user, ascending: number the id changes
        keys = np.zeros(raw_users.size, dtype=np.int64)
        np.cumsum(raw_users[1:] != raw_users[:-1], out=keys[1:])
        n_users = int(keys[-1]) + 1
    else:
        uniq_users, keys = np.unique(raw_users, return_inverse=True)
        n_users = len(uniq_users)
    del raw_users
    n_items = int(items.max()) + 1
    try:
        _check_key_range(n_users, n_items)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    keys = keys * n_items + items  # each rating's (user, item) key, from its dense user id
    if np.all(keys[1:] > keys[:-1]):  # canonical order, as save_csv_triples writes it: no repeat, nothing to sort
        items, ratings = np.ascontiguousarray(items), np.ascontiguousarray(ratings)
    else:
        order = np.argsort(keys, kind="stable")  # equal keys in file order
        keys = keys[order]
        last = np.append(keys[1:] != keys[:-1], True)  # the last of each key
        keys, keep = keys[last], order[last]
        del order, last
        if keep.size < ratings.size:
            logger.warning("%s: %d duplicate (user, item) pairs, kept the last occurrence", path,
                           ratings.size - keep.size)
        items, ratings = items[keep], ratings[keep]
    starts = np.searchsorted(keys, np.arange(n_users + 1) * n_items)  # where each user's keys begin
    return RatingDataset.from_runs(starts, items, ratings, n_items, scale_max)


def load_movielens(path, scale_max: float = 5.0) -> RatingDataset:
    """Load a MovieLens ``UserID::MovieID::Rating::Timestamp`` file.

    Its ids are 1-based: items are shifted to 0-based and keep the catalog
    width (n_items = largest id), users are re-indexed densely.  Timestamps
    are discarded.  A repeated (user, item) pair keeps its last rating and
    is counted in a warning."""
    return _load(path, _MOVIELENS, scale_max)


def load_csv_triples(path, scale_max: float) -> RatingDataset:
    """Load a ``user,item,rating`` file with 0-based ids.  A first non-blank
    line of three fields whose first field float() rejects is a header.
    Users are re-indexed densely; the item axis spans [0, max id]."""
    return _load(path, _CSV, scale_max)


LOADERS = {"movielens": load_movielens, "csv": load_csv_triples}  # each file format's loader, by its id


def atomic_write(path, chunks) -> None:
    """Write the text chunks to `path` whole or not at all.

    They go to a temporary file beside `path` that then replaces it, so a
    reader never sees a half-written file; if writing fails, `path` keeps its
    old content and the temporary file is removed.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, header, columns) -> None:
    """Write equal-length 1-d columns as comma-separated rows, under a
    header line unless it is None, atomically (see :func:`atomic_write`).

    Every CSV file coldrec writes goes through here.  Each value is written
    as ``str()`` of its Python scalar, which for a float is its shortest
    repr: it reads back to the same bits, and equal values always give equal
    bytes, so a rerun writes byte-identical files.  Rows are formatted and
    written a fixed-size chunk at a time.
    """
    columns = [np.asarray(col) for col in columns]
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns must have equal lengths, got {sorted(lengths)}")
    row = ",".join(["%s"] * len(columns)) + "\n"
    chunks = ("".join(row % values for values in zip(*(col[lo:lo + _CSV_CHUNK_ROWS].tolist() for col in columns)))
              for lo in range(0, max(lengths, default=0), _CSV_CHUNK_ROWS))
    atomic_write(path, chunks if header is None else itertools.chain([header + "\n"], chunks))


def save_csv_triples(ds: RatingDataset, path) -> None:
    """Write the canonical save format: ``user,item,rating``, 0-based ids,
    one triple per line in (user, item) order, through :func:`write_csv`."""
    write_csv(path, None, [ds.users, ds.items, ds.ratings.astype(np.float64)])


def normalize(ds: RatingDataset) -> RatingDataset:
    """Divide every rating by the scale ceiling, mapping onto [0, 1]."""
    return RatingDataset.from_runs(ds.starts, ds.items, ds.ratings / ds.scale_max, ds.n_items, 1.0)


def _gather_runs(starts: np.ndarray, user_ids: np.ndarray):
    """The given (sorted) users' runs laid end to end: their new starts, and
    the positions of their ratings in the runs that `starts` bounds."""
    counts = np.diff(starts)[user_ids]
    gathered = np.concatenate(([0], np.cumsum(counts)))
    return gathered, np.repeat(starts[user_ids] - gathered[:-1], counts) + np.arange(gathered[-1])


def _restrict_users(ds: RatingDataset, user_ids: np.ndarray) -> RatingDataset:
    """Dataset over the given (sorted) original user ids, re-indexed densely."""
    starts, pos = _gather_runs(ds.starts, user_ids)
    return RatingDataset.from_runs(starts, ds.items[pos], ds.ratings[pos], ds.n_items, ds.scale_max)


def split_base_eval(ds: RatingDataset, k: int, seed=None) -> CorpusSplit:
    """Sample k user rows uniformly without replacement as the base matrix;
    the complement becomes the evaluation set.

    Deterministic for a fixed seed.  Both halves keep the full item axis so
    they index the same arms.
    """
    if not 1 <= k < ds.n_users:
        raise ValueError(f"base size k must be in [1, n_users), got k={k} with {ds.n_users} users")
    rng = np.random.default_rng(seed)
    base_ids = np.sort(rng.choice(ds.n_users, size=k, replace=False))
    eval_ids = np.setdiff1d(np.arange(ds.n_users), base_ids, assume_unique=True)
    return CorpusSplit(
        base=_restrict_users(ds, base_ids),
        evaluation=_restrict_users(ds, eval_ids),
        base_user_ids=base_ids,
    )


def orient(ds: RatingDataset, kind: ProblemKind | str) -> RatingDataset:
    """Identity for the new-user problem; swap user/item roles for new-item.
    `kind` is a :class:`ProblemKind` or its value string; anything else
    raises ValueError.

    The swap is a pure transpose in (user, item) order (applying it twice
    returns the original dataset exactly), so a transposed dataset may
    contain "users" without ratings — the original unrated catalog items.
    Run :func:`filter_min_ratings` afterwards if those rows should be dropped.
    """
    if ProblemKind(kind) is ProblemKind.NEW_USER:
        return ds
    order = np.argsort(ds.items, kind="stable")  # each item's users stay ascending
    starts = np.concatenate(([0], np.cumsum(np.bincount(ds.items, minlength=ds.n_items))))
    return RatingDataset.from_runs(starts, ds.users[order], ds.ratings[order], ds.n_users, ds.scale_max)


def subsample(ds: RatingDataset, max_users=None, max_items=None, seed=None) -> RatingDataset:
    """Uniform id subsample, used to cut public corpora down to desk scale.

    Sampled items keep their slot even if no rating survives (the catalog
    shrinks to exactly max_items); sampled users that end up rating-less are
    dropped, matching the loader's elimination rule.  Kept ratings keep
    their (user, item) order.  Only the sampled users' runs of ratings are
    read, through :attr:`RatingDataset.starts`.
    """
    rng = np.random.default_rng(seed)
    item_ids, starts, pos = None, ds.starts, slice(None)
    if max_items is not None and max_items < ds.n_items:
        item_ids = np.sort(rng.choice(ds.n_items, size=max_items, replace=False))
    if max_users is not None and max_users < ds.n_users:
        starts, pos = _gather_runs(ds.starts, np.sort(rng.choice(ds.n_users, size=max_users, replace=False)))
    items = ds.items[pos]
    if item_ids is not None:
        remap = np.full(ds.n_items, -1, dtype=np.int64)
        remap[item_ids] = np.arange(max_items)
        items = remap[items]
        kept = np.flatnonzero(items >= 0)
        starts = np.searchsorted(kept, starts)  # each run's start among the kept ratings
        items, pos = items[kept], kept if isinstance(pos, slice) else pos[kept]
    ratings = ds.ratings[pos]
    if len(ratings) == 0:
        raise ValueError("subsample removed every rating")
    # an emptied user's run starts where the next one does: the distinct starts keep the rated users
    n_items = ds.n_items if item_ids is None else max_items
    return RatingDataset.from_runs(np.unique(starts), items, ratings, n_items, ds.scale_max)


def filter_min_ratings(ds: RatingDataset, min_ratings: int = 1) -> RatingDataset:
    """Drop users with fewer than min_ratings ratings and compact ids."""
    keep_ids = np.flatnonzero(np.diff(ds.starts) >= min_ratings)
    if len(keep_ids) == ds.n_users:
        return ds
    if len(keep_ids) == 0:
        raise ValueError(f"no user has {min_ratings} or more ratings")
    return _restrict_users(ds, keep_ids)


def dataset_from_dense(matrix, mask=None, scale_max: float = 1.0) -> RatingDataset:
    """Build a dataset from a dense rating grid.

    With no mask every cell is an observed rating; rows must be fully
    missing-free users in that case.  Every row needs at least one
    observed rating, as the loaders' elimination rule requires.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    mask = np.ones(matrix.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if matrix.ndim != 2 or mask.shape != matrix.shape:
        raise ValueError(f"need a 2-d matrix and a mask of its shape, got shapes {matrix.shape} and {mask.shape}")
    counts = np.count_nonzero(mask, axis=1)
    if not counts.any():
        raise ValueError("no observed entries")
    if not counts.all():
        raise ValueError("every user row needs at least one observed rating")
    items = np.flatnonzero(mask)  # row-major positions, which become the item ids in place
    ratings = matrix.reshape(-1)[items]
    items %= matrix.shape[1]
    return RatingDataset.from_runs(np.concatenate(([0], np.cumsum(counts))), items, ratings, matrix.shape[1], scale_max)

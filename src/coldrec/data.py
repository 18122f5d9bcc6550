"""Rating-dataset ingestion, normalization, base/eval splitting, and
the user↔item role swap for the new-item problem.

A dataset is a flat bag of (user, item, rating) triples with dense user ids:
loaders drop users that contribute no ratings and re-index the survivors,
while the item axis keeps its catalog width (unrated items stay as empty
columns — a recommender knows its catalog, not which items got ratings).
"""

from __future__ import annotations

import contextlib
import enum
import logging
import os
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "ProblemKind",
    "RatingDataset",
    "UserRows",
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


class ProblemKind(enum.Enum):
    """Which cold-start direction an experiment runs in."""

    NEW_USER = "new-user"
    NEW_ITEM = "new-item"


@dataclass(frozen=True, eq=False)
class RatingDataset:
    """Sparse ratings as parallel arrays, plus the grid dimensions.

    Invariants: users/items/ratings are 1-d and of equal length, the (user,
    item) keys fit int64, and the ids lie in [0, n_users) × [0, n_items) (all
    checked here); (user, item) pairs are unique, and every user id in range
    occurs at least once (loader-enforced; `orient` is the one exception).
    """

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    n_users: int
    n_items: int
    scale_max: float

    def __post_init__(self):
        if not (len(self.users) == len(self.items) == len(self.ratings)):
            raise ValueError("users/items/ratings arrays must have equal length")
        for name, arr in (("users", self.users), ("items", self.items), ("ratings", self.ratings)):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d array, got {arr.ndim} dimensions")
        for name, n in (("n_users", self.n_users), ("n_items", self.n_items)):
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
        if self.n_users and self.n_items > np.iinfo(np.int64).max // self.n_users:
            raise ValueError(f"{self.n_users} users x {self.n_items} items overflow the (user, item) keys")
        for name, ids, n in (("user", self.users, self.n_users), ("item", self.items, self.n_items)):
            if not np.issubdtype(ids.dtype, np.integer):
                raise ValueError(f"{name} ids must be integers, got {ids.dtype}")
            if len(ids) and not (ids.min() >= 0 and ids.max() < n):
                raise ValueError(f"{name} ids must lie in [0, {n}), got [{ids.min()}, {ids.max()}]")
        if not 0 < self.scale_max < np.inf:  # a NaN fails too
            raise ValueError(f"scale_max must be positive and finite, got {self.scale_max}")

    @property
    def n_ratings(self) -> int:
        return len(self.ratings)

    def check_normalized(self, what: str) -> None:
        """Raise unless every rating lies in [0, 1]; a NaN fails too."""
        if self.n_ratings and not (self.ratings.min() >= 0.0 and self.ratings.max() <= 1.0):
            raise ValueError(f"{what} ratings must be finite and normalized to [0, 1]")

    @cached_property
    def user_rows(self) -> UserRows:
        """The ratings grouped by user, built once per dataset."""
        return UserRows(self)


class UserRows:
    """A dataset's ratings grouped by user, items ascending within each
    user, in O(ratings) memory.

    Triples already in canonical (user, item) order, as the loaders and
    splits leave them, are used as they are; others are sorted once.  A
    repeated (user, item) pair is rejected: it would have two ratings.
    """

    def __init__(self, dataset: RatingDataset):
        keys = dataset.users * dataset.n_items + dataset.items
        self.order = None  # the grouped order's positions in the dataset; None: the same
        if np.all(keys[1:] > keys[:-1]):
            self.items, self.ratings = dataset.items, dataset.ratings
        else:
            self.order = np.argsort(keys, kind="stable")
            if np.any(np.diff(keys[self.order]) == 0):
                raise ValueError("dataset repeats a (user, item) pair")
            self.items, self.ratings = dataset.items[self.order], dataset.ratings[self.order]
        self.starts = np.zeros(dataset.n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(dataset.users, minlength=dataset.n_users), out=self.starts[1:])

    def row(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        """One user's items, ascending, and their ratings (views)."""
        lo, hi = self.starts.item(user), self.starts.item(user + 1)
        return self.items[lo:hi], self.ratings[lo:hi]

    def positions(self, users: np.ndarray) -> np.ndarray:
        """Where the given ascending, distinct users' ratings sit in the
        dataset's own arrays, ascending: O(their ratings), not O(all ratings)."""
        lo, counts = self.starts[users], np.diff(self.starts)[users]
        pos = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        return pos if self.order is None else np.sort(self.order[pos])


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
    header: bool  # the first non-blank line may be a header (non-integer first field)
    fields: np.dtype  # a line split at sep[0]: user, item, rating, and the "sep" fields a longer sep leaves empty


_MOVIELENS = _Grammar("::", 4, 1, "expected UserID::MovieID::Rating::Timestamp", "MovieLens ids are 1-based", False,
                      np.dtype([("user", "i8"), ("sep1", "S1"), ("item", "i8"), ("sep2", "S1"), ("rating", "f8"),
                                ("sep3", "S1"), ("timestamp", "S0")]))  # the timestamp is free text, discarded
_CSV = _Grammar(",", 3, 0, "expected user,item,rating", "ids must be nonnegative", True, _TRIPLE)

# Bytes that numpy reads otherwise than _parse_line: it strips 0x1c-0x1f as whitespace, which int() rejects, takes a
# NUL for a string's padding, and reads some non-ASCII characters as digits ("1\u01fe" as the id 472)
_NOT_FOR_NUMPY = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _parse_line(line: str, grammar: _Grammar, scale_max: float, may_be_header: bool, where: str):
    """The (user, item, rating) triple of one stripped, non-empty line, or
    None for a header; any other line raises a ValueError that starts with
    `where`.  This defines the grammar: :func:`_bulk_triples` reads a file
    in numpy's form exactly as this would, and any other file is read here."""
    parts = line.split(grammar.sep)
    if len(parts) != grammar.n_fields:
        raise ValueError(f"{where}: {grammar.expected}")
    if may_be_header:
        try:
            int(parts[0])
        except ValueError:
            return None
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


def _stripped_lines(path):
    """(line number, stripped text) of each non-blank line of the file."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        yield from ((lineno, text) for lineno, line in enumerate(fh, start=1) if (text := line.strip()))


def _bulk_triples(path, grammar: _Grammar, scale_max: float, skip: int):
    """(users, items, ratings) of the lines after the first `skip`, read by
    numpy's C parser, or None unless :func:`_parse_line` reads each line to
    the same triple: numpy also reads ids below first_id, ratings outside
    [0, scale_max] and text inside a separator, which the checks reject."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, grammar.fields, comments=None, delimiter=grammar.sep[0], skiprows=skip,
                              encoding="utf-8", ndmin=1)
    except (ValueError, Warning):
        return None
    users, items, ratings = rows["user"], rows["item"], rows["rating"]
    if (min(users.min(), items.min()) < grammar.first_id or not (ratings.min() >= 0.0 and ratings.max() <= scale_max)
            or any(rows[name].view(np.uint8).any() for name in grammar.fields.names if name.startswith("sep"))):
        return None
    return users.copy(), items - grammar.first_id, ratings.copy()  # the rows are freed on return


def _load(path, grammar: _Grammar, scale_max: float) -> RatingDataset:
    """The file's triples as a dataset: deduplicated (keep last), users
    compacted, sorted canonically.  They are read by :func:`_bulk_triples`
    (past a CSV header that :func:`_parse_line` detects), or else line by
    line through :func:`_parse_line`, whose errors name the first bad line."""
    with open(path, "rb") as fh:
        data = fh.read()
    numpy_form = data.isascii() and not any(map(data.__contains__, _NOT_FOR_NUMPY))
    del data  # before numpy reads the file
    triples = _bulk_triples(path, grammar, scale_max, 0) if numpy_form else None
    if triples is None and numpy_form and grammar.header:
        lineno, line = next(_stripped_lines(path), (0, ""))
        if line and _parse_line(line, grammar, scale_max, True, f"{path}, line {lineno}") is None:
            triples = _bulk_triples(path, grammar, scale_max, lineno)  # past the header and the blank lines above it
    if triples is None:
        with contextlib.closing(_stripped_lines(path)) as lines:  # and the file, when a line raises
            rows = np.array([triple for n, (lineno, line) in enumerate(lines)
                             if (triple := _parse_line(line, grammar, scale_max, grammar.header and n == 0,
                                                       f"{path}, line {lineno}"))], dtype=_TRIPLE)
        triples = rows["user"], rows["item"], rows["rating"]
    raw_users, items, ratings = triples
    if ratings.size == 0:
        raise ValueError(f"{path}: no ratings")
    uniq_users, dense_users = np.unique(raw_users, return_inverse=True)
    try:
        raw = RatingDataset(dense_users, items, ratings, len(uniq_users), int(items.max()) + 1, scale_max)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    keys = raw.users * raw.n_items + raw.items
    order = np.argsort(keys, kind="stable")  # equal keys in file order
    keys = keys[order]
    keep = order[np.append(keys[1:] != keys[:-1], True)]  # the last of each key
    del keys, order
    if keep.size < raw.n_ratings:
        logger.warning("%s: %d duplicate (user, item) pairs, kept the last occurrence", path, raw.n_ratings - keep.size)
    return replace(raw, users=dense_users[keep], items=items[keep], ratings=ratings[keep])


def load_movielens(path, scale_max: float = 5.0) -> RatingDataset:
    """Load a MovieLens ``UserID::MovieID::Rating::Timestamp`` file.

    Its ids are 1-based: items are shifted to 0-based and keep the catalog
    width (n_items = largest id), users are re-indexed densely.  Timestamps
    are discarded.  A repeated (user, item) pair keeps its last rating and
    is counted in a warning."""
    return _load(path, _MOVIELENS, scale_max)


def load_csv_triples(path, scale_max: float) -> RatingDataset:
    """Load a ``user,item,rating`` file with 0-based ids, and a header
    line if the first non-blank line has a non-numeric first field.  Users
    are re-indexed densely; the item axis spans [0, max id]."""
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
    bytes, so a rerun writes byte-identical files.
    """
    row = ",".join(["%s"] * len(columns)) + "\n"
    body = "".join(row % values for values in zip(*(np.asarray(col).tolist() for col in columns), strict=True))
    atomic_write(path, [body] if header is None else [header + "\n", body])


def save_csv_triples(ds: RatingDataset, path) -> None:
    """Write the canonical save format: ``user,item,rating``, 0-based ids,
    one triple per line in (user, item) order, through :func:`write_csv`."""
    rows = ds.user_rows
    users = np.repeat(np.arange(ds.n_users), np.diff(rows.starts))
    write_csv(path, None, [users, rows.items, rows.ratings.astype(np.float64)])


def normalize(ds: RatingDataset) -> RatingDataset:
    """Divide every rating by the scale ceiling, mapping onto [0, 1]."""
    return replace(ds, ratings=ds.ratings / ds.scale_max, scale_max=1.0)


def _select_ids(old: np.ndarray, ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of `old` (ids in [0, n)) are among `ids`, and those
    entries renumbered by their position in `ids` (so sorted ids keep their
    order): (keep mask, new ids of the kept entries)."""
    remap = np.full(n, -1, dtype=np.int64)
    remap[ids] = np.arange(len(ids))
    new = remap[old]
    keep = new >= 0
    return keep, new[keep]


def _restrict_users(ds: RatingDataset, user_ids: np.ndarray) -> RatingDataset:
    """Dataset over the given (sorted) original user ids, re-indexed densely."""
    keep, users = _select_ids(ds.users, user_ids, ds.n_users)
    return replace(ds, users=users, items=ds.items[keep], ratings=ds.ratings[keep], n_users=len(user_ids))


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


def orient(ds: RatingDataset, kind: ProblemKind) -> RatingDataset:
    """Identity for the new-user problem; swap user/item roles for new-item.

    The swap is a pure transpose (applying it twice returns the original
    dataset exactly), so a transposed dataset may contain "users" without
    ratings — the original unrated catalog items.  Run
    :func:`filter_min_ratings` afterwards if those rows should be dropped.
    """
    if kind is ProblemKind.NEW_USER:
        return ds
    return replace(ds, users=ds.items, items=ds.users, n_users=ds.n_items, n_items=ds.n_users)


def subsample(ds: RatingDataset, max_users=None, max_items=None, seed=None) -> RatingDataset:
    """Uniform id subsample, used to cut public corpora down to desk scale.

    Sampled items keep their slot even if no rating survives (the catalog
    shrinks to exactly max_items); sampled users that end up rating-less are
    dropped, matching the loader's elimination rule.  Kept ratings keep
    their order.  Only the sampled users' rows are read, through
    :attr:`RatingDataset.user_rows`.
    """
    rng = np.random.default_rng(seed)
    item_ids, pos = None, slice(None)
    if max_items is not None and max_items < ds.n_items:
        item_ids = np.sort(rng.choice(ds.n_items, size=max_items, replace=False))
    if max_users is not None and max_users < ds.n_users:
        pos = ds.user_rows.positions(np.sort(rng.choice(ds.n_users, size=max_users, replace=False)))
    items = ds.items[pos]
    if item_ids is not None:
        keep, items = _select_ids(items, item_ids, ds.n_items)
        pos = keep if isinstance(pos, slice) else pos[keep]
    users, ratings = ds.users[pos], ds.ratings[pos]
    if len(ratings) == 0:
        raise ValueError("subsample removed every rating")
    rated = np.flatnonzero(np.bincount(users, minlength=ds.n_users))
    _, users = _select_ids(users, rated, ds.n_users)
    n_items = ds.n_items if item_ids is None else max_items
    return replace(ds, users=users, items=items, ratings=ratings, n_users=len(rated), n_items=n_items)


def filter_min_ratings(ds: RatingDataset, min_ratings: int = 1) -> RatingDataset:
    """Drop users with fewer than min_ratings ratings and compact ids."""
    counts = np.bincount(ds.users, minlength=ds.n_users)
    keep_ids = np.flatnonzero(counts >= min_ratings)
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
    if mask is None:
        mask = np.ones(matrix.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    users, items = np.nonzero(mask)
    if len(users) == 0:
        raise ValueError("no observed entries")
    if not mask.any(axis=1).all():
        raise ValueError("every user row needs at least one observed rating")
    return RatingDataset(
        users=users.astype(np.int64),
        items=items.astype(np.int64),
        ratings=matrix[mask].astype(np.float64),
        n_users=matrix.shape[0],
        n_items=matrix.shape[1],
        scale_max=scale_max,
    )

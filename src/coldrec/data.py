"""Rating-dataset ingestion, normalization, base/eval splitting, and
the user↔item role swap for the new-item problem.

A dataset is a flat bag of (user, item, rating) triples with dense user ids:
loaders drop users that contribute no ratings and re-index the survivors,
while the item axis keeps its catalog width (unrated items stay as empty
columns — a recommender knows its catalog, not which items got ratings).
"""

from __future__ import annotations

import enum
import logging
import os
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

    Invariants: users/items/ratings have equal length, ids lie inside
    [0, n_users) × [0, n_items), (user, item) pairs are unique, and every
    user id in range occurs at least once (loader-enforced; `orient` is the
    one exception, see its docstring).
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


def _build_dataset(
    raw_users: np.ndarray,
    items: np.ndarray,
    ratings: np.ndarray,
    scale_max: float,
    source: str,
) -> RatingDataset:
    """Deduplicate (keep last), compact users, and sort canonically."""
    if ratings.size == 0:
        raise ValueError(f"{source}: no ratings")
    n_items = int(items.max()) + 1
    uniq_users, dense_users = np.unique(raw_users, return_inverse=True)
    if n_items > np.iinfo(np.int64).max // len(uniq_users):
        raise ValueError(f"{source}: {len(uniq_users)} users x {n_items} items overflow the (user, item) keys")
    keys = dense_users * n_items + items
    # The first occurrence of a key in reversed order is its last in file order.
    _, first_reversed = np.unique(keys[::-1], return_index=True)
    keep = keys.size - 1 - first_reversed
    dupes = keys.size - keep.size
    if dupes:
        logger.warning("%s: %d duplicate (user, item) pairs, kept the last occurrence", source, dupes)
    return RatingDataset(
        users=dense_users[keep],
        items=items[keep],
        ratings=ratings[keep],
        n_users=len(uniq_users),
        n_items=n_items,
        scale_max=scale_max,
    )


@dataclass(frozen=True)
class _Grammar:
    """One text format of ``user<sep>item<sep>rating[<sep>anything]`` lines."""

    sep: str
    n_fields: int
    first_id: int  # ids below it are rejected; items are shifted down by it
    expected: str  # the message for a wrong field count
    id_rule: str  # the message for an id below first_id
    header: bool  # the first non-blank line may be a header (non-integer first field)


_MOVIELENS = _Grammar("::", 4, 1, "expected UserID::MovieID::Rating::Timestamp", "MovieLens ids are 1-based", False)
_CSV = _Grammar(",", 3, 0, "expected user,item,rating", "ids must be nonnegative", True)

_MAX_ID_DIGITS = 18  # every id of at most 18 digits fits in an int64
_MAX_RATING_WIDTH = 16  # wider ratings are read by _parse_line
_POWERS_OF_TEN = np.array([float(10**k) for k in range(_MAX_RATING_WIDTH)])


def _parse_line(line: str, grammar: _Grammar, scale_max: float, may_be_header: bool, where: str):
    """The (user, item, rating) triple of one stripped, non-empty line, or
    None for a header; any other line raises a ValueError that starts with
    `where`.

    This defines the grammar: :func:`_plain_lines` reads the common form in
    bulk, exactly as this would, and :func:`_read_triples` hands every other
    line here.
    """
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
    if not 0.0 <= r <= scale_max:
        raise ValueError(f"{where}: rating {r} outside [0, {scale_max}]")
    return u, i - grammar.first_id, r


def _decimal_field(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_width: int, max_dots: int):
    """The fields buf[lo:hi] read left to right: their digits as one int64,
    the count of digits after the '.', and which are plain: 1 to max_width
    bytes of digits with at most max_dots '.', not '.' alone.  A field that
    is not plain, as one that is empty or overlapped by its separators
    (hi < lo, as in ":::"), has meaningless digits and count."""
    plain = (hi > lo) & (hi - lo <= max_width)
    digits = np.zeros(lo.size, dtype=np.int64)
    frac = np.zeros(lo.size, dtype=np.uint8)
    dots = np.zeros(lo.size, dtype=np.uint8)
    pos = lo.copy()
    for _ in range(max_width):
        live = pos < hi  # the plain fields with a byte at pos
        live &= plain
        if not live.any():
            break
        byte = buf.take(pos, mode="clip")
        is_dot = (byte == ord(".")) & live
        byte -= ord("0")  # the digit, or past 9 for a byte below '0'
        is_digit = (byte < 10) & live
        np.multiply(digits, 10, out=digits, where=is_digit)
        np.add(digits, byte, out=digits, where=is_digit)
        frac += is_digit & (dots > 0)
        dots += is_dot
        plain ^= live  # a field read here stays plain on a digit or a '.'
        plain |= is_digit
        plain |= is_dot
        pos += 1
    plain &= (dots <= max_dots) & (dots < np.subtract(hi, lo, out=pos))
    return digits, frac, plain


def _plain_lines(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, grammar: _Grammar, scale_max: float):
    """The lines buf[starts:ends] of the plain form, and their triples.

    A plain line has exactly n_fields − 1 separators, none overlapping
    another, ids of 1 to 18 digits, at least first_id, and a rating of at
    most 16 bytes of digits with at most one '.', at most scale_max (see
    :func:`_decimal_field`); :func:`_parse_line` reads such a line the same
    way.  A plain rating is digits / 10**n_frac, which is float(text) bit
    for bit: with a '.' there are at most 15 digits, so both operands are
    exact and the division rounds correctly; without one, only the
    conversion rounds, correctly.  Separators are counted overlapping ("::"
    twice in ":::"), so an overlap leaves a field that is not plain.
    Returns (line indices, users, items, ratings).
    """
    sep = grammar.sep.encode()
    n_seps = grammar.n_fields - 1
    is_sep = buf[: buf.size - len(sep) + 1] == sep[0]
    for k in range(1, len(sep)):
        is_sep &= buf[k : buf.size - len(sep) + 1 + k] == sep[k]
    hits = np.flatnonzero(is_sep)
    del is_sep
    counts = np.diff(np.searchsorted(hits, ends), prepend=0)  # separators per line
    plain = counts == n_seps
    seps = hits[np.repeat(plain, counts)].reshape(-1, n_seps)
    del hits, counts
    lines = np.flatnonzero(plain)
    rating_end = seps[:, 2] if n_seps > 2 else ends[lines]  # MovieLens: a timestamp follows
    users, _, ok = _decimal_field(buf, starts[lines], seps[:, 0], _MAX_ID_DIGITS, 0)
    items, _, item_ok = _decimal_field(buf, seps[:, 0] + len(sep), seps[:, 1], _MAX_ID_DIGITS, 0)
    digits, frac, rating_ok = _decimal_field(buf, seps[:, 1] + len(sep), rating_end, _MAX_RATING_WIDTH, 1)
    del seps, rating_end
    scale = _POWERS_OF_TEN[frac]
    ratings = np.divide(digits, scale, out=scale)
    del digits, frac
    ok &= item_ok & rating_ok & (users >= grammar.first_id) & (items >= grammar.first_id) & (ratings <= scale_max)
    items -= grammar.first_id
    return lines[ok], users[ok], items[ok], ratings[ok]


def _read_triples(path, grammar: _Grammar, scale_max: float):
    """(users, items, ratings) of the file's lines, in file order, read in
    one pass: the plain lines in bulk, every other non-empty line through
    :func:`_parse_line`.  Errors name the physical line.  Its buffers are
    freed on return, before the caller builds the dataset."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # universal newlines
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines, users, items, ratings = _plain_lines(buf, starts, ends, grammar, scale_max)
    rest = ends > starts
    rest[lines] = False
    first_plain = lines[0] if lines.size else ends.size
    may_be_header = grammar.header
    at, triples = [], []
    for i, lo, hi in zip(np.flatnonzero(rest).tolist(), starts[rest].tolist(), ends[rest].tolist()):
        line = data[lo:hi].decode("utf-8", errors="replace").strip()
        if not line:
            continue
        triple = _parse_line(line, grammar, scale_max, may_be_header and i < first_plain, f"{path}, line {i + 1}")
        may_be_header = False
        if triple is not None:
            at.append(i)
            triples.append(triple)
    if triples:
        pos = np.searchsorted(lines, at)
        users, items, ratings = (np.insert(a, pos, v) for a, v in zip((users, items, ratings), zip(*triples)))
    return users, items, ratings


def load_movielens(path, scale_max: float = 5.0) -> RatingDataset:
    """Load a MovieLens ``UserID::MovieID::Rating::Timestamp`` file.

    Ids are 1-based in this format; items are shifted to 0-based and keep
    the catalog width (n_items = largest id), users are re-indexed densely.
    Timestamps are discarded.  Duplicate (user, item) pairs keep the last
    occurrence and are counted in a warning.
    """
    return _build_dataset(*_read_triples(path, _MOVIELENS, scale_max), scale_max, str(path))


def load_csv_triples(path, scale_max: float) -> RatingDataset:
    """Load a ``user,item,rating`` file with 0-based ids.

    A header line is tolerated (detected by a non-numeric first field) as
    the first non-blank line.
    Ratings outside [0, scale_max] are rejected with the offending line
    number.  Users are re-indexed densely; the item axis spans [0, max id].
    """
    return _build_dataset(*_read_triples(path, _CSV, scale_max), scale_max, str(path))


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

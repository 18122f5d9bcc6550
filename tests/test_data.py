"""Loader grammar, normalization, splitting, and role-swap behavior."""

import errno
import logging
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import to_dense

from coldrec import data
from coldrec.data import (
    ProblemKind,
    RatingDataset,
    dataset_from_dense,
    filter_min_ratings,
    load_csv_triples,
    load_movielens,
    normalize,
    orient,
    save_csv_triples,
    split_base_eval,
    subsample,
    write_csv,
)
from coldrec.synthetic import linear_environment


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def assert_same_dataset(got: RatingDataset, want: RatingDataset):
    for name in ("users", "items", "ratings"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert (got.n_users, got.n_items, got.scale_max) == (want.n_users, want.n_items, want.scale_max)


class TestLoadMovielens:
    def test_two_lines(self, tmp_path):
        path = write(tmp_path, "r.dat", "1::10::5::978300760\n1::12::3::978300760\n")
        ds = load_movielens(path)
        assert ds.n_users == 1
        assert ds.n_ratings == 2
        assert sorted(ds.ratings.tolist()) == [3.0, 5.0]
        # catalog width follows the largest id, 1-based shifted to 0-based
        assert ds.n_items == 12

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "empty.dat", "")
        with pytest.raises(ValueError, match="no ratings"):
            load_movielens(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = write(tmp_path, "bad.dat", "1::10::5::978300760\n1::x::5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_movielens(path)

    def test_duplicates_keep_last_and_warn(self, tmp_path, caplog):
        path = write(tmp_path, "dup.dat", "1::10::5::1\n1::10::2::2\n2::10::4::3\n")
        with caplog.at_level(logging.WARNING):
            ds = load_movielens(path)
        assert ds.n_ratings == 2
        assert 2.0 in ds.ratings
        assert 5.0 not in ds.ratings
        assert any("1 duplicate" in rec.getMessage() for rec in caplog.records)

    def test_user_elimination_reindexes_densely(self, tmp_path):
        # users 3 and 7 exist; 1..2 and 4..6 have no ratings and vanish
        path = write(tmp_path, "gap.dat", "7::2::4::0\n3::1::5::0\n")
        ds = load_movielens(path)
        assert ds.n_users == 2
        assert set(ds.users.tolist()) == {0, 1}

    def test_zero_item_id_rejected(self, tmp_path):
        path = write(tmp_path, "zero.dat", "1::0::5::0\n")
        with pytest.raises(ValueError, match="1-based"):
            load_movielens(path)

    def test_rating_out_of_scale_rejected(self, tmp_path):
        path = write(tmp_path, "high.dat", "1::1::9::0\n")
        with pytest.raises(ValueError, match="outside"):
            load_movielens(path)


class TestLoadCsvTriples:
    def test_basic(self, tmp_path):
        ds = load_csv_triples(write(tmp_path, "a.csv", "0,0,4.0\n"), scale_max=5)
        assert ds.n_ratings == 1
        assert ds.ratings[0] == 4.0

    def test_out_of_range_rating(self, tmp_path):
        path = write(tmp_path, "b.csv", "0,0,7\n")
        with pytest.raises(ValueError, match="outside"):
            load_csv_triples(path, scale_max=5)

    def test_header_detected(self, tmp_path):
        ds = load_csv_triples(write(tmp_path, "c.csv", "user,item,rating\n0,1,2.5\n"), scale_max=5)
        assert ds.n_ratings == 1
        assert ds.n_items == 2

    def test_keys_past_int64_name_the_file(self, tmp_path):
        path = write(tmp_path, "wide.csv", "0,0,1\n1,4611686018427387904,1\n")
        with pytest.raises(ValueError) as got:
            load_csv_triples(path, scale_max=5)
        assert str(got.value) == f"{path}: 2 users x 4611686018427387905 items overflow the (user, item) keys"

    def test_malformed_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "0,1,2.5\n0,2\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv_triples(path, scale_max=5)

    @pytest.mark.parametrize("text", ["\nuser,item,rating\n0,1,2\n", "\r\n\n  \nuser,item,rating\n0,1,2\n"])
    def test_header_after_blank_lines(self, tmp_path, text):
        """The header may follow blank and whitespace-only lines."""
        path = write(tmp_path, "e.csv", text)
        ds = load_csv_triples(path, scale_max=5)
        assert (ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist()) == ([0], [1], [2.0])
        assert_same_dataset(ds, reference_load(path, False, 5.0))

    def test_header_only_before_the_first_rating(self, tmp_path):
        path = write(tmp_path, "f.csv", "\n0,1,2\nuser,item,rating\n")
        with pytest.raises(ValueError, match="line 3: invalid literal"):
            load_csv_triples(path, scale_max=5)

    def test_round_trip_100_users(self, tmp_path):
        rng = np.random.default_rng(0)
        grid = rng.uniform(0, 5, size=(100, 30))
        mask = rng.random((100, 30)) < 0.2
        mask[np.arange(100), rng.integers(30, size=100)] = True
        mask[rng.integers(100), 29] = True  # keep the catalog width
        ds = dataset_from_dense(grid, mask, scale_max=5)
        path = tmp_path / "round.csv"
        save_csv_triples(ds, path)
        assert_same_dataset(load_csv_triples(path, scale_max=5), ds)

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        """A write that fails part-way (a full disk) leaves the previous
        file as it was, and no temporary file beside it."""

        class FullDisk:
            def __init__(self, file, mode="r", **kwargs):
                self.fh = open(file, mode, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:5])
                raise OSError(errno.ENOSPC, "No space left on device")

        path = tmp_path / "ratings.csv"
        path.write_text("0,0,1.0\n")
        ds = dataset_from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]), scale_max=5)
        with mock.patch.object(data, "open", FullDisk, create=True), pytest.raises(OSError, match="No space"):
            save_csv_triples(ds, path)
        assert path.read_text() == "0,0,1.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["ratings.csv"]

    def test_integer_ratings_are_saved_as_floats(self, tmp_path):
        ds = RatingDataset(np.array([0, 0, 1]), np.array([1, 0, 2]), np.array([3, 5, 1]), 2, 3, 5.0)
        path = tmp_path / "ints.csv"
        save_csv_triples(ds, path)
        assert path.read_text() == "0,0,5.0\n0,1,3.0\n1,2,1.0\n"

    def test_write_csv_rejects_columns_of_unequal_length(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError):
            write_csv(path, "a,b", [np.arange(3), np.arange(2)])
        assert not path.exists()

    @settings(max_examples=40, deadline=None)
    @given(
        n_users=st.integers(1, 8),
        n_items=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    def test_round_trip_fuzz(self, tmp_path_factory, n_users, n_items, seed):
        """Any valid dataset text survives save → load unchanged."""
        rng = np.random.default_rng(seed)
        grid = rng.uniform(0, 5, size=(n_users, n_items))
        mask = rng.random((n_users, n_items)) < 0.4
        mask[np.arange(n_users), rng.integers(n_items, size=n_users)] = True
        mask[rng.integers(n_users), n_items - 1] = True
        ds = dataset_from_dense(grid, mask, scale_max=5)
        path = tmp_path_factory.mktemp("fuzz") / "ds.csv"
        save_csv_triples(ds, path)
        assert_same_dataset(load_csv_triples(path, scale_max=5), ds)


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [(5.0, 1.0), (0.0, 0.0), (3.0, 0.6)])
    def test_examples(self, raw, expected):
        ds = RatingDataset(
            users=np.array([0]), items=np.array([0]), ratings=np.array([raw]),
            n_users=1, n_items=1, scale_max=5.0,
        )
        assert normalize(ds).ratings[0] == pytest.approx(expected)

    def test_bounds(self):
        rng = np.random.default_rng(1)
        grid = rng.uniform(0, 100, size=(6, 6))
        ds = normalize(dataset_from_dense(grid, scale_max=100.0))
        assert ds.ratings.min() >= 0.0
        assert ds.ratings.max() <= 1.0
        assert ds.scale_max == 1.0


def toy_dataset(n_users=10, n_items=6, seed=0):
    rng = np.random.default_rng(seed)
    grid = rng.uniform(size=(n_users, n_items))
    mask = rng.random((n_users, n_items)) < 0.5
    mask[np.arange(n_users), rng.integers(n_items, size=n_users)] = True
    return dataset_from_dense(grid, mask)


class TestSplitBaseEval:
    def test_k_too_large(self):
        with pytest.raises(ValueError):
            split_base_eval(toy_dataset(10), k=10, seed=0)

    def test_deterministic(self):
        ds = toy_dataset(10)
        a = split_base_eval(ds, k=3, seed=123)
        b = split_base_eval(ds, k=3, seed=123)
        np.testing.assert_array_equal(a.base_user_ids, b.base_user_ids)
        assert_same_dataset(a.base, b.base)

    def test_partition_for_many_seeds(self):
        ds = toy_dataset(12)
        for seed in range(20):
            split = split_base_eval(ds, k=5, seed=seed)
            assert split.base.n_users == 5
            assert split.evaluation.n_users == 7
            assert split.base.n_ratings + split.evaluation.n_ratings == ds.n_ratings
            assert len(np.intersect1d(split.base_user_ids, np.arange(12))) == 5
            # every original row lands in exactly one half
            eval_ids = np.setdiff1d(np.arange(12), split.base_user_ids)
            assert len(eval_ids) == 7

    def test_item_axis_shared(self):
        ds = toy_dataset(9, n_items=5)
        split = split_base_eval(ds, k=4, seed=1)
        assert split.base.n_items == split.evaluation.n_items == 5


class TestOrient:
    def test_new_user_is_identity(self):
        ds = toy_dataset()
        assert orient(ds, ProblemKind.NEW_USER) is ds

    def test_transpose_swaps_roles(self):
        ds = dataset_from_dense(np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]))
        flipped = orient(ds, ProblemKind.NEW_ITEM)
        assert (flipped.n_users, flipped.n_items) == (3, 2)
        dense, _ = to_dense(flipped)
        np.testing.assert_array_equal(dense, dense.T.T)
        np.testing.assert_allclose(dense.T, to_dense(ds)[0])

    def test_involution_exact(self):
        ds = toy_dataset(seed=5)
        twice = orient(orient(ds, ProblemKind.NEW_ITEM), ProblemKind.NEW_ITEM)
        np.testing.assert_array_equal(twice.users, ds.users)
        np.testing.assert_array_equal(twice.items, ds.items)
        np.testing.assert_array_equal(twice.ratings, ds.ratings)
        assert (twice.n_users, twice.n_items) == (ds.n_users, ds.n_items)


class TestSubsampleAndFilter:
    def test_caps(self):
        ds = toy_dataset(20, 10, seed=2)
        capped = subsample(ds, max_users=8, max_items=4, seed=0)
        assert capped.n_items == 4
        assert capped.n_users <= 8
        assert capped.ratings.size > 0

    def test_no_caps_returns_same_content(self):
        ds = toy_dataset(6, 4, seed=3)
        assert_same_dataset(subsample(ds, None, None, seed=0), ds)

    def test_filter_min_ratings(self):
        users = np.array([0, 0, 0, 1, 2])
        items = np.array([0, 1, 2, 0, 1])
        ratings = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        ds = RatingDataset(users, items, ratings, 3, 3, 1.0)
        kept = filter_min_ratings(ds, min_ratings=2)
        assert kept.n_users == 1
        assert kept.n_ratings == 3

    def test_filter_all_gone(self):
        ds = toy_dataset(4, 3, seed=4)
        with pytest.raises(ValueError):
            filter_min_ratings(ds, min_ratings=99)


class TestDenseRoundTrip:
    def test_to_dense_and_back(self):
        ds = toy_dataset(7, 5, seed=6)
        dense, mask = to_dense(ds)
        assert_same_dataset(dataset_from_dense(dense, mask), ds)


BAD_CONSTRUCTIONS = {
    "unequal-lengths": (lambda: RatingDataset(np.array([0, 1]), np.array([0]), np.array([0.5]), 2, 1, 1.0),
                        "^users/items/ratings arrays must have equal length$"),
    "scale-max-0": (lambda: RatingDataset(np.array([0]), np.array([0]), np.array([0.5]), 1, 1, 0.0),
                    r"^scale_max must be positive and finite, got 0\.0$"),
    "scale-max-nan": (lambda: RatingDataset(np.array([0]), np.array([0]), np.array([0.5]), 1, 1, float("nan")),
                      "^scale_max must be positive and finite, got nan$"),
    "scale-max-inf": (lambda: RatingDataset(np.array([0]), np.array([0]), np.array([0.5]), 1, 1, float("inf")),
                      "^scale_max must be positive and finite, got inf$"),
    "item-past-the-grid": (lambda: RatingDataset(np.array([0, 0]), np.array([0, 3]), np.array([0.2, 1.0]), 1, 3, 1.0),
                           r"^item ids must lie in \[0, 3\), got \[0, 3\]$"),
    "negative-user": (lambda: RatingDataset(np.array([-1, 0]), np.array([0, 1]), np.array([0.2, 1.0]), 2, 2, 1.0),
                      r"^user ids must lie in \[0, 2\), got \[-1, 0\]$"),
    "float-ids": (lambda: RatingDataset(np.array([0.0]), np.array([0]), np.array([0.5]), 1, 1, 1.0),
                  "^user ids must be integers, got float64$"),
    "float-dimension": (lambda: RatingDataset(np.array([0, 1]), np.array([0, 1]), np.array([0.5, 0.5]), 2.5, 2, 1.0),
                        r"^n_users must be a nonnegative integer, got 2\.5$"),
    "negative-dimension": (lambda: RatingDataset(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), -3, 2, 1.0),
                           "^n_users must be a nonnegative integer, got -3$"),
    "bool-dimension": (lambda: RatingDataset(np.array([0]), np.array([0]), np.array([0.5]), 1, True, 1.0),
                       "^n_items must be a nonnegative integer, got True$"),
    "2-d-ids": (lambda: RatingDataset(np.array([[0], [1]]), np.array([0, 1]), np.array([0.5, 0.5]), 2, 2, 1.0),
                "^users must be a 1-d array, got 2 dimensions$"),
    "2-d-ratings": (lambda: RatingDataset(np.array([0, 1]), np.array([0, 1]), np.array([[0.5], [0.5]]), 2, 2, 1.0),
                    "^ratings must be a 1-d array, got 2 dimensions$"),
    # At 3 × 2**62 the keys of user 2 wrap to negative, so user_rows would
    # hand user 0 user 2's item 0 and user 2 the items [3, 1], out of order.
    "keys-past-int64": (lambda: RatingDataset(np.array([0, 1, 2, 2]), np.array([3, 1, 0, 1]),
                                              np.array([0.5, 0.6, 0.9, 0.4]), 3, 2**62, 1.0),
                        r"^3 users x 4611686018427387904 items overflow the \(user, item\) keys$"),
    "row-without-rating": (lambda: dataset_from_dense(np.ones((2, 2)), np.array([[True, False], [False, False]])),
                           "^every user row needs at least one observed rating$"),
    "zero-dimension": (lambda: linear_environment(3, 0, 4), "^environment dimensions must be positive$"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_construction_rejects_bad_input(case):
    build, message = BAD_CONSTRUCTIONS[case]
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------- loader oracle


def reference_load(path, movielens: bool, scale_max: float) -> RatingDataset:
    """The loaders' grammar read line by line, with a dict keeping each
    (user, item)'s last rating: the same arrays, and the same error messages
    naming the same lines."""
    if movielens:
        sep, n_fields, first_id = "::", 4, 1
        expected, id_rule = "expected UserID::MovieID::Rating::Timestamp", "MovieLens ids are 1-based"
    else:
        sep, n_fields, first_id = ",", 3, 0
        expected, id_rule = "expected user,item,rating", "ids must be nonnegative"
    last = {}
    may_be_header = not movielens
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(sep)
            if len(parts) != n_fields:
                raise ValueError(f"{path}, line {lineno}: {expected}")
            if may_be_header:
                may_be_header = False
                try:
                    int(parts[0])
                except ValueError:
                    continue  # header row
            try:
                u, i, r = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {exc}") from None
            if u < first_id or i < first_id:
                raise ValueError(f"{path}, line {lineno}: {id_rule}, got user={u} item={i}")
            if max(u, i) >= 2**63:
                raise ValueError(f"{path}, line {lineno}: ids must be below 2**63, got user={u} item={i}")
            if not 0.0 <= r <= scale_max:
                raise ValueError(f"{path}, line {lineno}: rating {r} outside [0, {scale_max}]")
            last[(u, i - first_id)] = r
    if not last:
        raise ValueError(f"{path}: no ratings")
    pairs = np.array(sorted(last), dtype=np.int64)
    uniq, dense = np.unique(pairs[:, 0], return_inverse=True)
    return RatingDataset(
        users=dense.astype(np.int64),
        items=pairs[:, 1],
        ratings=np.array([last[(u, i)] for u, i in pairs.tolist()]),
        n_users=len(uniq),
        n_items=int(pairs[:, 1].max()) + 1,
        scale_max=scale_max,
    )


def assert_loads_like_reference(path, movielens: bool, scale_max: float = 5.0):
    """Both give the same dataset, or both raise the same message."""
    load = load_movielens if movielens else load_csv_triples
    try:
        want = reference_load(path, movielens, scale_max)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load(path, scale_max=scale_max)
        assert str(got.value) == str(exc)
    else:
        assert_same_dataset(load(path, scale_max=scale_max), want)


def count_line_parses(load, path):
    """The dataset `load` reads from `path`, and how many lines it handed to
    the line-by-line parser."""
    with mock.patch.object(data, "_parse_line", wraps=data._parse_line) as spy:
        ds = load(path, scale_max=5.0)
    return ds, spy.call_count


HALF_STARS = [f"{k / 2:g}" for k in range(11)]  # "0", "0.5", ..., "5"
triple = st.tuples(st.integers(1, 12), st.integers(1, 15), st.sampled_from(HALF_STARS), st.integers(0, 10**10))


def render_line(row, movielens, template=None):
    u, i, r, stamp = row
    if template is None:
        template = "{u}::{i}::{r}::{s}" if movielens else "{u},{i},{r}"
    return template.format(u=u if movielens else u - 1, i=i if movielens else i - 1, r=r, s=stamp)


def render(rows, movielens, newline, header, blank_every):
    lines = ["user,item,rating"] if header else []
    for n, row in enumerate(rows):
        if blank_every and n % blank_every == 0:
            lines.append("")
        lines.append(render_line(row, movielens))
    return newline.join(lines) + (newline if rows and rows[0][3] % 2 else "")


# Valid lines outside the plain form: stray whitespace, signs, exponents,
# digit separators, a lone-colon timestamp.
IRREGULAR = {
    True: ["  {u}::{i}::{r}::{s}", "{u} :: {i} ::{r}::x", "+{u}::{i}::{r}::", "{u}::{i}::{r}e0::{s}",
           "{u}::{i}::{r}::{s}\t", "{u}::{i}::{r}::{s}:{s}", "1_{u}::{i}::{r}::{s}", "{u}::{i}::{r}:::"],
    False: ["{u}, {i}, {r}", " {u},{i},+{r} ", "{u},{i},{r}e0", "1_{u},{i},{r}", "{u},+{i},{r}\x0b"],
}
# Lines that every loader must reject.
BAD = {
    True: ["{u}::{i}", "{u}::{i}::{r}::{s}::{s}", "{u}::x::{r}::{s}", "0::{i}::{r}::{s}", "{u}::{i}::9::{s}",
           "{u}:::{i}::{r}::{s}", "{u}::{i}::nan::{s}", "{u}::{i}::-1::{s}", "{u}::{i}::.::{s}", "a::b::c::d",
           "{u}::{i}::1.2.3::{s}", "{u}:::{i}::{r}", "{u}::{i}:::{r}"],
    False: ["{u},{i}", "{u},{i},{r},{s}", "{u},x,{r}", "-1,{i},{r}", "{u},{i},9", "{u},{i},nan", "{u},{i},.",
            "{u},,{r}", "{u},{i},5.5", "x,{i},{r}", "{u},{i},1..5"],
}


class TestLoaderAgainstLineByLineReference:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(triple, min_size=1, max_size=60),
        movielens=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n"]),
        header=st.booleans(),
        blank_every=st.integers(0, 5),
    )
    def test_canonical_files_parse_in_bulk(self, tmp_path_factory, rows, movielens, newline, header, blank_every):
        """Duplicates, blank lines, CRLF, a CSV header, half stars: the bulk
        parse gives the reference's arrays and hands no line to the line
        parser but the header."""
        header = header and not movielens
        path = tmp_path_factory.mktemp("load") / "ratings.txt"
        path.write_bytes(render(rows, movielens, newline, header, blank_every).encode())
        got, parsed = count_line_parses(load_movielens if movielens else load_csv_triples, path)
        assert parsed == int(header)
        assert_same_dataset(got, reference_load(path, movielens, 5.0))

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.sampled_from(["plain", "plain", "irregular", "blank"]), triple, st.integers(0, 99)),
            min_size=1,
            max_size=30,
        ),
        movielens=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        header=st.booleans(),
        bad=st.one_of(st.none(), st.tuples(st.integers(0, 30), triple, st.integers(0, 99))),
    )
    def test_mixed_lines_match_the_reference(self, tmp_path_factory, lines, movielens, newline, header, bad):
        """Plain, irregular and blank lines in any order, with at most one bad
        line anywhere: the reference's arrays, or its error and line number."""
        text = ["user,item,rating"] if header and not movielens else []
        for kind, row, pick in lines:
            if kind == "blank":
                text.append(["", "  "][pick % 2])
            else:
                templates = IRREGULAR[movielens] if kind == "irregular" else [None]
                text.append(render_line(row, movielens, templates[pick % len(templates)]))
        if bad is not None:
            at, row, pick = bad
            text.insert(min(at, len(text)), render_line(row, movielens, BAD[movielens][pick % len(BAD[movielens])]))
        path = tmp_path_factory.mktemp("mixed") / "ratings.txt"
        path.write_bytes(newline.join(text).encode())
        assert_loads_like_reference(path, movielens)

    @pytest.mark.parametrize(
        "movielens,text,parsed",
        [
            (True, "1::10::5::978300760\n2::12::3.5::978300761\n\n3::1::0.5::0\n", 0),
            (False, "0,1,5\n1,2,2.5\n", 0),
            (False, "user,item,rating\n0,1,5\n1,2,2.5\n", 1),
            (True, "1::10::5::1\n 1::1::5::0\n2::3::4::2\n", 0),
            (False, "0,1,5\n0, 2,4\n1,2,2.5\n", 0),
            (False, "0,1,5\n1,2,2.5\n0,1,4e0\n", 0),
            (True, "1::2::3::0\n0000000000000000002::3::4::0\n", 0),  # a 19-digit id
            (False, "0,1,2.50000000000000000000000000000001\n1,1,1\n", 0),  # a 34-byte rating
            # outside numpy's form, so the whole file is read line by line (a CSV's first line twice: once as a
            # possible header)
            (True, "1::10::5::1\n1::1::5::0:0\n2::3::4::2\n", 3),
            (False, "0,1,5\n  \n1,2,2.5\n", 3),
            (False, "user,item,rating\n0,1,5\n1,2,0_5\n", 4),
            (False, "0,1,5\n1,2,2.5\u2028\n", 2),  # not ASCII: no header check
        ],
    )
    def test_only_irregular_lines_are_read_one_by_one(self, tmp_path, movielens, text, parsed):
        path = write(tmp_path, "r.txt", text)
        got, calls = count_line_parses(load_movielens if movielens else load_csv_triples, path)
        assert calls == parsed
        assert_same_dataset(got, reference_load(path, movielens, 5.0))

    @pytest.mark.parametrize(
        "movielens,text",
        [
            (True, " 1::2::4::0\n2 :: 3 ::4.5::x\n\t\n+3::1::5::\n1::2::3::7 \n"),
            (True, "1::2::4e0::0\n2::3::.5::0\n2::3::1_0e-1::0\n"),
            (False, "0, 1, 4.5\n  \n1,2,+3 \n0,1,0.25\n"),
            (False, "u,i,r\n3,4,1e-05\n3,4,0.6000000000000001\n-0,0,-0.0\n"),
        ],
    )
    def test_other_valid_lines_read_line_by_line(self, tmp_path, movielens, text):
        path = write(tmp_path, "odd.txt", text)
        load = load_movielens if movielens else load_csv_triples
        assert_same_dataset(load(path, scale_max=5.0), reference_load(path, movielens, 5.0))

    @pytest.mark.parametrize(
        "movielens,text,lineno,message",
        [
            (True, "1::1::5::0\n1::2::3::4::5\n2::3::4\n", 2, "expected UserID::MovieID::Rating::Timestamp"),
            (False, "0,1,5\n0,1,2,3\n0,2\n", 2, "expected user,item,rating"),
            (True, "1::1::5::0\n\n1.5::2::3::0\n", 3, "invalid literal for int() with base 10: '1.5'"),
            (False, "0,1,5\n0,1.5,3\n", 2, "invalid literal for int() with base 10: '1.5'"),
            (True, "1::1::5::0\n2::2::nan::0\n", 2, "rating nan outside [0, 5.0]"),
            (False, "a,b,c\n0,1,nan\n", 2, "rating nan outside [0, 5.0]"),
            (True, "1::1::5::0\n0::2::3::0\n", 2, "MovieLens ids are 1-based, got user=0 item=2"),
            (False, "0,1,5\n0,-1,3\n", 2, "ids must be nonnegative, got user=0 item=-1"),
            (True, "1::1::5::0\r\n1::2::3::0\r\n1::3::5.5::0\r\n", 3, "rating 5.5 outside [0, 5.0]"),
            (False, "0,1,5\n0,2,7\n", 2, "rating 7.0 outside [0, 5.0]"),
            (True, "1::1::5::0\n1::2::.::0\n", 2, "could not convert string to float: '.'"),
            (True, "1::1::5::0\n\r1:::2::3::0\n", 3, "invalid literal for int() with base 10: ':2'"),
            (True, "1::1::5::0\n1:::2::5\n", 2, "expected UserID::MovieID::Rating::Timestamp"),
            (False, "0,1,5\n0,2,1.2.5\n", 2, "could not convert string to float: '1.2.5'"),
            (False, "user,item,rating\nuser,item,rating\n", 2, "invalid literal for int() with base 10: 'user'"),
            (False, "0,1,3\n99999999999999999999,1,3\n", 2,
             "ids must be below 2**63, got user=99999999999999999999 item=1"),
            (True, "1::1::5::0\n1::9223372036854775808::3::0\n", 2,
             "ids must be below 2**63, got user=1 item=9223372036854775808"),
        ],
    )
    def test_errors_name_the_first_bad_line(self, tmp_path, movielens, text, lineno, message):
        path = write(tmp_path, "bad.txt", text)
        load = load_movielens if movielens else load_csv_triples
        with pytest.raises(ValueError) as got:
            load(path, scale_max=5.0)
        assert str(got.value) == f"{path}, line {lineno}: {message}"
        with pytest.raises(ValueError) as want:
            reference_load(path, movielens, 5.0)
        assert str(want.value) == str(got.value)


def write_fields(tmp_path_factory, rows, movielens):
    path = tmp_path_factory.mktemp("fields") / "ratings.txt"
    sep = "::" if movielens else ","
    path.write_bytes("".join(sep.join(row) + (f"{sep}0\n" if movielens else "\n") for row in rows).encode())
    return path


@settings(max_examples=200, deadline=None)
@given(st.lists(st.from_regex(r"[0-9]{0,18}(\.[0-9]{0,18})?", fullmatch=True), min_size=1, max_size=25))
def test_plain_ratings_read_bit_for_bit_as_float(tmp_path_factory, texts):
    """Ratings of digits and at most one '.' load bit for bit as float()
    reads them, or fail at the reference's line."""
    path = write_fields(tmp_path_factory, [(str(n), "0", t) for n, t in enumerate(texts)], movielens=False)
    assert_loads_like_reference(path, movielens=False, scale_max=1e300)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.from_regex(r"[0-9]{0,20}(\.[0-9]*)?", fullmatch=True), min_size=1, max_size=25))
@example(["9" * 18, "1" * 19, "0" * 18, "", ".", "7.", "12.5"])
@example(["9223372036854775807", "9223372036854775808"])  # the int64 edge
def test_plain_ids_read_as_int(tmp_path_factory, texts):
    """User ids of digits load as int() reads them, or fail at the
    reference's line."""
    path = write_fields(tmp_path_factory, [(t, "0", "1") for t in texts], movielens=False)
    assert_loads_like_reference(path, movielens=False)


# Characters that numpy's parser or str/int/float treat specially: whitespace that only str.isspace() knows,
# separators of other kinds, signs, exponents, words, an Arabic-Indic digit, and a letter numpy reads as a digit.
ODD_CHARACTERS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\x00", " ", "\t", "_", "+",
                  "-", "e", ".", ":", "nan", "inf", "\u0663", "\u01fe"]
odd_field = st.lists(st.sampled_from([*"0123456789", *ODD_CHARACTERS]), max_size=6).map("".join)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(odd_field, odd_field, odd_field), min_size=1, max_size=8), movielens=st.booleans())
@example(rows=[("0", "1", "5"), ("5\x1c", "2", "3")], movielens=False)
@example(rows=[("1", "1\u01fe", "3")], movielens=True)
def test_fields_from_a_wider_alphabet_load_as_the_reference_reads_them(tmp_path_factory, rows, movielens):
    assert_loads_like_reference(write_fields(tmp_path_factory, rows, movielens), movielens)


@pytest.mark.parametrize(
    "movielens,text,lineno,message",
    [
        # numpy strips 0x1c as whitespace; int() does not
        (False, "0,1,5\n5\x1c,2,3\n", 2, r"invalid literal for int() with base 10: '5\x1c'"),
        # numpy reads text between a separator's colons into an S1 field
        (True, "1::1::5::0\n1:x:2::3::4\n", 2, "expected UserID::MovieID::Rating::Timestamp"),
        # a NUL is an empty S1 field to numpy
        (True, "1::1::5::0\n1:\x00:2::3::4\n", 2, "expected UserID::MovieID::Rating::Timestamp"),
        # numpy reads U+01FE as a digit: the id 472
        (False, "0,1,5\n1\u01fe,2,3\n", 2, "invalid literal for int() with base 10: '1\u01fe'"),
    ],
)
def test_lines_numpy_alone_accepts_are_errors(tmp_path, movielens, text, lineno, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as got:
        (load_movielens if movielens else load_csv_triples)(path, scale_max=5.0)
    assert str(got.value) == f"{path}, line {lineno}: {message}"
    assert_loads_like_reference(path, movielens)


@pytest.mark.parametrize("text", ["", "\n\n", "user,item,rating\n", "\nuser,item,rating\n\n"])
def test_a_file_without_ratings_raises_no_warning(tmp_path, text):
    """numpy warns that such a file holds no data; the loader raises its own error instead."""
    path = write(tmp_path, "none.csv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no ratings$"):
            load_csv_triples(path, scale_max=5.0)


def test_load_peak_grows_with_the_file(tmp_path):
    """The load's allocations peak at no more than 3x the bytes of a
    MovieLens file of 100k lines."""
    rng = np.random.default_rng(0)
    n = 100_000
    users, items = np.sort(rng.integers(1, 2001, n)), rng.integers(1, 4001, n)
    stars, stamps = rng.integers(1, 6, n), 956_703_932 + rng.integers(0, 34_000_000, n)
    path = tmp_path / "ratings.dat"
    rows = zip(users.tolist(), items.tolist(), stars.tolist(), stamps.tolist())
    path.write_text("".join(f"{u}::{i}::{r}::{s}\n" for u, i, r, s in rows))
    tracemalloc.start()
    try:
        ds = load_movielens(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n_ratings > 0.99 * n
    assert peak <= 3 * path.stat().st_size


@pytest.mark.parametrize(
    "rating,parsed",
    [("0.1", 0), ("4.99999999999999", 0), ("0.00000000000003", 0), ("3.", 0), (".25", 0), ("002.5", 0),
     ("4.999999999999999", 0)],
)
def test_ratings_load_as_float_reads_them(tmp_path, rating, parsed):
    path = write(tmp_path, "r.csv", f"0,0,{rating}\n1,1,1\n")
    got, calls = count_line_parses(load_csv_triples, path)
    assert calls == parsed and got.ratings[0] == float(rating)


def test_keys_that_would_overflow_are_rejected(tmp_path):
    rows = "".join(f"{u},{10**17},1\n" for u in range(100))
    with pytest.raises(ValueError, match="100 users x 100000000000000001 items overflow"):
        load_csv_triples(write(tmp_path, "wide.csv", rows), scale_max=5)


# ---------------------------------------------------------------- subsample oracle


def reference_restrict_users(ds, user_ids):
    keep = np.isin(ds.users, user_ids)
    return replace(
        ds,
        users=np.searchsorted(user_ids, ds.users[keep]).astype(np.int64),
        items=ds.items[keep],
        ratings=ds.ratings[keep],
        n_users=len(user_ids),
    )


def reference_subsample(ds, max_users, max_items, seed):
    """Id subsample by np.isin membership and searchsorted renumbering."""
    rng = np.random.default_rng(seed)
    users, items, ratings, n_items = ds.users, ds.items, ds.ratings, ds.n_items
    if max_items is not None and max_items < ds.n_items:
        item_ids = np.sort(rng.choice(ds.n_items, size=max_items, replace=False))
        keep = np.isin(items, item_ids)
        users, ratings = users[keep], ratings[keep]
        items = np.searchsorted(item_ids, items[keep]).astype(np.int64)
        n_items = max_items
    if max_users is not None and max_users < ds.n_users:
        user_ids = rng.choice(ds.n_users, size=max_users, replace=False)
        keep = np.isin(users, np.sort(user_ids))
        users, items, ratings = users[keep], items[keep], ratings[keep]
    if len(ratings) == 0:
        raise ValueError("subsample removed every rating")
    uniq, dense = np.unique(users, return_inverse=True)
    return replace(ds, users=dense.astype(np.int64), items=items, ratings=ratings, n_users=len(uniq), n_items=n_items)


def gather_all_subsample(ds, max_users, max_items, seed):
    """subsample as it was before it gathered only the ratings it keeps:
    every sampled user's ratings, at positions sorted whatever the order of
    the triples, then the item filter over all three arrays."""
    rng = np.random.default_rng(seed)
    item_ids, pos = None, slice(None)
    if max_items is not None and max_items < ds.n_items:
        item_ids = np.sort(rng.choice(ds.n_items, size=max_items, replace=False))
    if max_users is not None and max_users < ds.n_users:
        rows, user_ids = ds.user_rows, np.sort(rng.choice(ds.n_users, size=max_users, replace=False))
        lo, counts = rows.starts[user_ids], np.diff(rows.starts)[user_ids]
        pos = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        pos = np.sort(pos if rows.order is None else rows.order[pos])
    users, items, ratings = ds.users[pos], ds.items[pos], ds.ratings[pos]
    if item_ids is not None:
        keep, items = data._select_ids(items, item_ids, ds.n_items)
        users, ratings = users[keep], ratings[keep]
    rated = np.flatnonzero(np.bincount(users, minlength=ds.n_users))
    _, users = data._select_ids(users, rated, ds.n_users)
    n_items = ds.n_items if item_ids is None else max_items
    return replace(ds, users=users, items=items, ratings=ratings, n_users=len(rated), n_items=n_items)


class TestSubsampleAgainstGatherAll:
    @pytest.mark.parametrize("canonical", [True, False])
    @pytest.mark.parametrize("max_users,max_items", [(70, None), (70, 40), (None, 40), (None, None)])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_arrays(self, canonical, max_users, max_items, seed):
        ds = toy_dataset(300, 120, seed=seed)
        if not canonical:
            shuffle = np.random.default_rng(seed).permutation(ds.n_ratings)
            ds = replace(ds, users=ds.users[shuffle], items=ds.items[shuffle], ratings=ds.ratings[shuffle])
        assert (ds.user_rows.order is None) == canonical
        got = subsample(ds, max_users, max_items, seed=seed)
        assert_same_dataset(got, gather_all_subsample(ds, max_users, max_items, seed))


class TestSubsampleAgainstIsinReference:
    @settings(max_examples=80, deadline=None)
    @given(
        n_users=st.integers(2, 30),
        n_items=st.integers(1, 25),
        density=st.floats(0.05, 1.0),
        max_users=st.one_of(st.none(), st.integers(1, 35)),
        max_items=st.one_of(st.none(), st.integers(1, 30)),
        seed=st.integers(0, 10_000),
        shuffled=st.booleans(),
    )
    def test_same_arrays(self, n_users, n_items, density, max_users, max_items, seed, shuffled):
        """Canonical triples, and shuffled ones, which user_rows groups by sorting."""
        ds = toy_dataset(n_users, n_items, seed=seed)
        rng = np.random.default_rng(seed)
        keep = rng.random(ds.n_ratings) < density
        keep[0] = True
        if shuffled:
            keep = rng.permutation(np.flatnonzero(keep))
        ds = replace(ds, users=ds.users[keep], items=ds.items[keep], ratings=ds.ratings[keep])
        try:
            want = reference_subsample(ds, max_users, max_items, seed)
        except ValueError:
            with pytest.raises(ValueError, match="removed every rating"):
                subsample(ds, max_users, max_items, seed=seed)
            return
        assert_same_dataset(subsample(ds, max_users, max_items, seed=seed), want)

    @settings(max_examples=40, deadline=None)
    @given(n_users=st.integers(2, 30), n_items=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_split_restricts_users_like_the_reference(self, n_users, n_items, seed):
        ds = toy_dataset(n_users, n_items, seed=seed)
        k = int(np.random.default_rng(seed).integers(1, ds.n_users))
        split = split_base_eval(ds, k, seed=seed)
        eval_ids = np.setdiff1d(np.arange(ds.n_users), split.base_user_ids)
        assert_same_dataset(split.base, reference_restrict_users(ds, split.base_user_ids))
        assert_same_dataset(split.evaluation, reference_restrict_users(ds, eval_ids))

"""Replay protocol: regret accounting, reveal bookkeeping, determinism.

The evaluator's fast paths are checked against slow references kept here:
a dense m×n reveal log, a dict-walking best-surrogate, and the replay loop
that draws one user per step.
"""

import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from argmax_policies import ArgmaxALinUcb, ArgmaxAverage, ArgmaxEgreedy, ArgmaxUcb
from helpers import to_dense

from coldrec.data import RatingDataset, atomic_write, dataset_from_dense
from coldrec.impute import Zero, fill, method_from_name
from coldrec.policies import (
    POLICY_IDS,
    ALinUcbPolicy,
    AveragePolicy,
    EpsilonGreedyPolicy,
    Exp3Policy,
    OraclePolicy,
    Policy,
    RandomPolicy,
    UcbPolicy,
    make_policy,
    nth_open_arm,
)
from coldrec.replay import TRACE_HEADER, RegretTrace, RevealLog, read_trace_csv, run_replay, write_trace_csv
from coldrec.synthetic import linear_environment


def best_surrogate(ratings_by_arm, already_revealed) -> float:
    """Reference: highest known rating among arms not yet revealed to this
    user; 0 if nothing known remains."""
    best = 0.0
    for arm, rating in ratings_by_arm.items():
        if arm not in already_revealed and rating > best:
            best = float(rating)
    return best


class DenseRevealLog:
    """Reference reveal log over three dense m×n tables."""

    def __init__(self, evaluation: RatingDataset):
        m, n = evaluation.n_users, evaluation.n_items
        self.n_arms = n
        self.ratings = np.zeros((m, n))
        self.known = np.zeros((m, n), dtype=bool)
        self.ratings[evaluation.users, evaluation.items] = evaluation.ratings
        self.known[evaluation.users, evaluation.items] = True
        self.revealed = np.zeros((m, n), dtype=bool)
        self.arms_left = np.full(m, n, dtype=np.int64)

    def best_hidden_known(self, user: int) -> float:
        hidden = self.known[user] & ~self.revealed[user]
        return float(self.ratings[user][hidden].max()) if hidden.any() else 0.0

    def reveal(self, user: int, arm: int) -> float:
        if not 0 <= arm < self.n_arms or self.revealed[user, arm]:
            raise RuntimeError(f"arm {arm} is not available for user {user}")
        self.revealed[user, arm] = True
        self.arms_left[user] -= 1
        return float(self.ratings[user, arm]) if self.known[user, arm] else 0.0


def reference_replay(policy: Policy, evaluation: RatingDataset, T: int, seed=None) -> RegretTrace:
    """Reference loop: one scalar user draw per step over the dense log,
    with the running sums kept step by step."""
    log = DenseRevealLog(evaluation)
    pool = np.arange(evaluation.n_users)
    pool_size = evaluation.n_users
    user_rng = np.random.default_rng(seed)
    rows = []
    total = 0.0
    exhausted = False
    for t in range(1, T + 1):
        if pool_size == 0:
            exhausted = True
            break
        idx = user_rng.integers(pool_size)
        user = int(pool[idx])
        policy.observe_user(user)
        revealed = np.flatnonzero(log.revealed[user])
        best = log.best_hidden_known(user)
        arm = int(policy.select(revealed, t))
        reward = log.reveal(user, arm)
        if log.arms_left[user] == 0:
            pool_size -= 1
            pool[idx] = pool[pool_size]
        policy.update(arm, reward)
        total += best - reward
        rows.append((t, user, arm, reward, best, best - reward, total))
    cols = list(zip(*rows)) if rows else [()] * 7
    ints = [np.array(c, dtype=np.int64) for c in cols[:3]]
    floats = [np.array(c, dtype=np.float64) for c in cols[3:]]
    return RegretTrace(*ints, *floats, wall_time_seconds=0.0, exhausted=exhausted)


TRACE_FIELDS = ("t", "user", "arm", "revealed", "best", "increment", "cumulative")


def assert_same_trace(a: RegretTrace, b: RegretTrace):
    for field in TRACE_FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)
    assert a.exhausted == b.exhausted


class TestBestSurrogate:
    def test_nothing_revealed(self):
        assert best_surrogate({1: 0.8, 2: 0.4}, set()) == 0.8

    def test_best_already_revealed(self):
        assert best_surrogate({1: 0.8, 2: 0.4}, {1}) == 0.4

    def test_empty_map(self):
        assert best_surrogate({}, set()) == 0.0

    def test_everything_revealed(self):
        assert best_surrogate({3: 0.9}, {3}) == 0.0


class TestRevealLog:
    """One user's state from ``RevealLog.user``: its reveal, best hidden
    rating and ascending list of revealed arms."""

    def make_user(self):
        evaluation = dataset_from_dense(
            np.array([[0.6, 0.0, 0.3]]), np.array([[True, False, True]])
        )
        return RevealLog(evaluation).user(0)

    def test_present_rating(self):
        assert self.make_user().reveal(0, 3) == 0.6

    def test_absent_is_zero_filled(self):
        assert self.make_user().reveal(1, 3) == 0.0

    def test_repeat_reveal_rejected(self):
        state = self.make_user()
        state.reveal(2, 3)
        with pytest.raises(RuntimeError, match="^arm 2 is not available$"):
            state.reveal(2, 3)
        assert state.revealed == [2]

    def test_out_of_range_arm_rejected(self):
        state = self.make_user()
        for arm in (-1, 3):
            with pytest.raises(RuntimeError, match=f"^arm {arm} is not available$"):
                state.reveal(arm, 3)
        assert state.revealed == []

    def test_matches_best_surrogate_reference(self):
        state = self.make_user()
        by_arm = {0: 0.6, 2: 0.3}
        revealed = set()
        assert state.best == best_surrogate(by_arm, revealed)
        state.reveal(0, 3)
        revealed.add(0)
        assert state.best == best_surrogate(by_arm, revealed)
        state.reveal(2, 3)
        revealed.add(2)
        assert state.best == best_surrogate(by_arm, revealed) == 0.0

    def test_repeated_pair_rejected(self):
        evaluation = RatingDataset(np.array([0, 0]), np.array([1, 1]), np.array([0.2, 0.9]), 1, 2, 1.0)
        with pytest.raises(ValueError, match="repeats a"):
            RevealLog(evaluation)

    def test_revealing_one_of_two_tied_bests_keeps_the_best(self):
        state = RevealLog(dataset_from_dense(np.array([[0.75, 0.75, 0.25]]))).user(0)
        assert state.reveal(1, 3) == 0.75
        assert state.best == 0.75
        state.reveal(0, 3)
        assert state.best == 0.25

    def test_revealing_the_last_known_rating_leaves_zero(self):
        state = RevealLog(dataset_from_dense(np.array([[0.0, 0.5, 0.0]]), np.array([[False, True, False]]))).user(0)
        state.reveal(0, 3)
        assert state.best == 0.5
        assert state.reveal(1, 3) == 0.5
        assert state.best == 0.0

    def test_user_without_ratings(self):
        # users 0 and 2 rated nothing; the rows around them keep their own bests
        evaluation = RatingDataset(np.array([1, 1, 3]), np.array([0, 1, 1]), np.array([0.25, 0.5, 1.0]), 5, 2, 1.0)
        log = RevealLog(evaluation)
        assert [log.user(user).best for user in range(5)] == [0.0, 0.5, 0.0, 1.0, 0.0]
        assert log.user(0).reveal(1, 2) == 0.0
        assert log.user(0).best == 0.0

    def test_revealed_is_ascending(self):
        state = self.make_user()
        assert state.revealed == []
        for arm in (2, 0, 1):
            state.reveal(arm, 3)
        assert state.revealed == [0, 1, 2]


@st.composite
def evaluation_and_reveals(draw):
    """A random evaluation set, sparse or dense, with quarter-step ratings
    (so ties and known zeros occur) and some users without any rating,
    plus a random reveal sequence that includes repeats and out-of-range
    arms."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = rng.integers(0, 5, size=(m, n)) / 4
    if draw(st.booleans()):
        mask = np.ones((m, n), dtype=bool)
    else:
        mask = rng.random((m, n)) < draw(st.sampled_from([0.2, 0.5, 0.8]))
        mask[np.arange(m), rng.integers(n, size=m)] = True
    mask[rng.random(m) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = False
    # shuffle the triples: the log must not rely on canonical order
    users, items = np.nonzero(mask)
    order = rng.permutation(users.size)
    evaluation = RatingDataset(users[order], items[order], grid[mask][order], m, n, 1.0)
    steps = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-1, n)), max_size=3 * m * n))
    return evaluation, steps


class TestRevealLogOracle:
    @settings(max_examples=200, deadline=None)
    @given(evaluation_and_reveals())
    def test_matches_dense_reference(self, case):
        evaluation, steps = case
        m, n = evaluation.n_users, evaluation.n_items
        fast, slow = RevealLog(evaluation), DenseRevealLog(evaluation)
        for user, arm in steps:
            state = fast.user(user)
            assert state.best == slow.best_hidden_known(user)
            assert state.revealed == np.flatnonzero(slow.revealed[user]).tolist()
            try:
                expected = slow.reveal(user, arm)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="not available"):
                    state.reveal(arm, n)
            else:
                assert state.reveal(arm, n) == expected
            np.testing.assert_array_equal([n - len(fast.user(u).revealed) for u in range(m)], slow.arms_left)
        for user in range(m):
            assert fast.user(user).best == slow.best_hidden_known(user)


def tiny_env(seed=0):
    base, evaluation = linear_environment(4, 8, 6, noise=0.05, seed=seed)
    return fill(base, Zero()), evaluation


class TestRunReplay:
    def test_single_user_single_arm(self):
        evaluation = dataset_from_dense(np.array([[0.7]]))
        trace = run_replay(RandomPolicy(1, seed=0), evaluation, T=1, seed=0)
        assert trace.steps == 1
        assert trace.best[0] == pytest.approx(0.7)
        assert trace.revealed[0] == pytest.approx(0.7)
        assert trace.increment[0] == 0.0
        assert trace.final_regret == 0.0

    def test_oracle_zero_regret(self):
        X, evaluation = tiny_env(1)
        trace = run_replay(OraclePolicy(evaluation), evaluation, T=40, seed=3)
        assert trace.final_regret == 0.0
        assert np.all(trace.increment == 0.0)

    def test_oracle_zero_regret_sparse(self):
        rng = np.random.default_rng(4)
        grid = rng.uniform(size=(7, 9))
        mask = rng.random((7, 9)) < 0.4
        mask[np.arange(7), rng.integers(9, size=7)] = True
        evaluation = dataset_from_dense(grid, mask)
        trace = run_replay(OraclePolicy(evaluation), evaluation, T=60, seed=5)
        assert trace.final_regret == 0.0

    def test_random_positive_on_heterogeneous(self):
        X, evaluation = tiny_env(2)
        trace = run_replay(RandomPolicy(X.n_arms, seed=1), evaluation, T=40, seed=3)
        assert trace.final_regret > 0.0

    def test_bit_identical_reruns(self):
        X, evaluation = tiny_env(3)
        traces = [
            run_replay(ALinUcbPolicy(X, alpha=0.001), evaluation, T=30, seed=11) for _ in range(2)
        ]
        for field in ("t", "user", "arm", "revealed", "best", "increment", "cumulative"):
            np.testing.assert_array_equal(getattr(traces[0], field), getattr(traces[1], field))

    def test_user_stream_independent_of_policy(self):
        """Swapping the policy must not perturb the user draws."""
        X, evaluation = tiny_env(4)
        a = run_replay(RandomPolicy(X.n_arms, seed=0), evaluation, T=25, seed=42)
        b = run_replay(Exp3Policy(X.n_arms, seed=123), evaluation, T=25, seed=42)
        np.testing.assert_array_equal(a.user, b.user)

    def test_regret_accounting_invariants(self):
        X, evaluation = tiny_env(5)
        trace = run_replay(RandomPolicy(X.n_arms, seed=2), evaluation, T=48, seed=7)
        assert np.all(trace.increment >= 0.0)
        assert np.all(np.diff(trace.cumulative) >= 0.0)
        np.testing.assert_allclose(trace.cumulative, np.cumsum(trace.increment), atol=1e-9)
        assert trace.final_regret == pytest.approx(trace.increment.sum(), abs=1e-9)

    def test_no_user_arm_pair_repeats(self):
        X, evaluation = tiny_env(6)
        trace = run_replay(RandomPolicy(X.n_arms, seed=3), evaluation, T=48, seed=9)
        pairs = set(zip(trace.user.tolist(), trace.arm.tolist()))
        assert len(pairs) == trace.steps

    def test_early_stop_when_exhausted(self):
        evaluation = dataset_from_dense(np.array([[0.5, 0.2], [0.1, 0.9]]))
        trace = run_replay(RandomPolicy(2, seed=0), evaluation, T=100, seed=0)
        assert trace.steps == 4  # 2 users x 2 arms
        assert trace.exhausted

    def test_protocol_violation_detected(self):
        class StubbornPolicy(Policy):
            n_arms = 8

            def select(self, revealed, t):
                return 0  # ignores the exclusion set after arm 0 is spent

            def update(self, arm, reward):
                pass

        X, evaluation = tiny_env(7)
        single_user = dataset_from_dense(to_dense(evaluation)[0][:1])
        message = "policy violated the protocol at step 2: arm 0 is not available for user 0"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_replay(StubbornPolicy(), single_user, T=3, seed=0)

    def test_validation(self):
        X, evaluation = tiny_env(8)
        with pytest.raises(ValueError):
            run_replay(RandomPolicy(X.n_arms, seed=0), evaluation, T=0, seed=0)
        with pytest.raises(ValueError):
            run_replay(RandomPolicy(X.n_arms + 1, seed=0), evaluation, T=5, seed=0)
        no_ratings = RatingDataset(np.array([], int), np.array([], int), np.array([]), 2, X.n_arms, 1.0)
        with pytest.raises(ValueError, match="^evaluation dataset is empty$"):
            run_replay(RandomPolicy(X.n_arms, seed=0), no_ratings, T=5, seed=0)

    def test_rejects_nan_rating_before_the_first_step(self):
        X, evaluation = tiny_env(8)
        ratings = evaluation.ratings.copy()
        ratings[-1] = np.nan
        with pytest.raises(ValueError, match="^evaluation ratings must be finite"):
            run_replay(RandomPolicy(X.n_arms, seed=0), replace(evaluation, ratings=ratings), T=5, seed=0)

    def test_reveals_zero_for_unknown_pairs(self):
        # one user rated only item 1; forcing item 0 reveals the zero fill
        class FixedOrder(Policy):
            n_arms = 2

            def select(self, revealed, t):
                return nth_open_arm(revealed, 0)

            def update(self, arm, reward):
                pass

        evaluation = dataset_from_dense(np.array([[0.0, 0.6]]), np.array([[False, True]]))
        trace = run_replay(FixedOrder(), evaluation, T=2, seed=0)
        assert trace.revealed.tolist() == [0.0, 0.6]
        assert trace.best.tolist() == [0.6, 0.6]
        assert trace.increment.tolist() == [0.6, 0.0]


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        X, evaluation = tiny_env(9)
        trace = run_replay(ALinUcbPolicy(X), evaluation, T=20, seed=1)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        np.testing.assert_array_equal(loaded.t, trace.t)
        np.testing.assert_array_equal(loaded.arm, trace.arm)
        np.testing.assert_array_equal(loaded.cumulative, trace.cumulative)

    def test_round_trip_of_a_zero_step_trace(self, tmp_path):
        steps, values = np.zeros(0, dtype=np.int64), np.zeros(0)
        trace = RegretTrace(steps, steps, steps, values, values, values, values, wall_time_seconds=0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        loaded = read_trace_csv(path)
        assert loaded.steps == 0 and loaded.final_regret == 0.0
        for name in ("t", "user", "arm", "revealed", "best", "increment", "cumulative"):
            got, want = getattr(loaded, name), getattr(trace, name)
            assert got.dtype == want.dtype and got.shape == want.shape == (0,), name

    def test_integer_valued_columns_are_written_as_floats(self, tmp_path):
        steps, ones = np.arange(1, 3), np.ones(2, dtype=np.int64)
        trace = RegretTrace(steps, steps, steps, ones, ones, ones - 1, ones - 1, wall_time_seconds=0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[1:] == ["1,1,1,1.0,1.0,0.0,0.0", "2,2,2,1.0,1.0,0.0,0.0"]

    def test_rejects_a_file_without_seven_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,user,arm,revealed,best,increment\n1,0,2,0.5,0.5,0.0\n")
        with pytest.raises(ValueError, match=r"trace.csv: expected 7 columns \(t,user,arm,"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("x,y,z,a,b,c,d\n1,0,2,0.5,0.5,0.0,0.0\n", r"expected 7 columns \(t,user,arm,.*got the header 'x,y,z"),
            ("t,user,arm,revealed,best,increment,cumulative\n1,0,3.7,0.5,0.5,0.0,0.0\n",
             "could not convert string '3.7' to int64"),
        ],
        ids=["another-header", "non-integer-arm"],
    )
    def test_rejects_a_file_in_another_format(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}(, line 2)?: {message}"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "rows,lineno,message",
        [
            (["1,0,3.7,0.5,0.5,0.0,0.0"], 2, "could not convert string '3.7' to int64, column 3."),
            (["1,0,2,0.5,0.5,0.0,0.0", "", "2,0,3,0.5,0.5,0.0"], 4, "the dtype passed requires 7 columns but 6 were"),
            (["1,0,2,0.5,0.5,0.0,0.0", "2,0,3,0.5,0.5,0.0"], 3, "the dtype passed requires 7 columns but 6 were"),
        ],
        ids=["non-integer-arm", "six-fields-after-a-blank-line", "six-fields"],
    )
    def test_errors_name_the_file_line(self, tmp_path, rows, lineno, message):
        """numpy numbers a conversion error's row from 0 and a field count's from 1, both among the non-blank
        data rows; the reader names the line of the file."""
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([TRACE_HEADER, *rows, ""]))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}, line {lineno}: {message}')}"):
            read_trace_csv(path)

    def test_writes_no_id_that_is_not_an_integer(self, tmp_path):
        steps, values = np.arange(1, 2), np.zeros(1)
        trace = RegretTrace(steps, steps, np.array([3.7]), values, values, values, values, wall_time_seconds=0.0)
        with pytest.raises(TypeError, match="Cannot cast"):
            write_trace_csv(trace, tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_ids_read_back_exactly_past_two_to_the_53(self, tmp_path):
        steps, values = np.arange(1, 3), np.zeros(2)
        user = np.array([2**53 + 1, 0], dtype=np.int64)
        trace = RegretTrace(steps, user, steps, values, values, values, values, wall_time_seconds=0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[1] == "1,9007199254740993,1,0.0,0.0,0.0,0.0"
        loaded = read_trace_csv(path)
        assert loaded.user.dtype == np.int64 and loaded.user.tolist() == [2**53 + 1, 0]

    def test_header(self, tmp_path):
        X, evaluation = tiny_env(10)
        trace = run_replay(RandomPolicy(X.n_arms, seed=0), evaluation, T=5, seed=2)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text().splitlines()[0] == "t,user,arm,revealed,best,increment,cumulative"


def row_by_row_trace_text(trace) -> str:
    """The trace format written one formatted row at a time."""
    text = "t,user,arm,revealed,best,increment,cumulative\n"
    for i in range(trace.steps):
        text += (
            f"{trace.t[i]},{trace.user[i]},{trace.arm[i]},"
            f"{float(trace.revealed[i])!r},{float(trace.best[i])!r},"
            f"{float(trace.increment[i])!r},{float(trace.cumulative[i])!r}\n"
        )
    return text


class TestAtomicWrites:
    def test_trace_bytes_match_row_by_row_format(self, tmp_path):
        base, evaluation = linear_environment(30, 30, 40, seed=5)
        X = fill(base, Zero())
        trace = run_replay(ALinUcbPolicy(X, alpha=0.3), evaluation, 300, seed=2)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_text() == row_by_row_trace_text(trace)

    def test_failure_mid_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write(path, ["first version\n"])

        def chunks():
            yield "half of the second version\n" * 10_000
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            atomic_write(path, chunks())
        assert path.read_text() == "first version\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_trace_write_failing_leaves_no_temp_file(self, tmp_path, monkeypatch):
        _, evaluation = linear_environment(8, 8, 10, seed=6)
        trace = run_replay(RandomPolicy(8, seed=1), evaluation, 20, seed=3)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        before = path.read_bytes()
        monkeypatch.setattr("os.replace", lambda *args: (_ for _ in ()).throw(OSError("rename failed")))
        longer = run_replay(RandomPolicy(8, seed=2), evaluation, 40, seed=4)
        with pytest.raises(OSError, match="rename failed"):
            write_trace_csv(longer, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def pinned_corpus():
    """A 5-user base and a 9-user × 7-arm sparse evaluation set with
    quarter-step ratings; at T = 50 three users run out of arms."""
    rng = np.random.default_rng(20140901)
    base_grid = np.round(rng.uniform(size=(5, 7)) * 4) / 4
    base_mask = rng.random((5, 7)) < 0.7
    base_mask[np.arange(5), rng.integers(7, size=5)] = True
    eval_grid = np.round(rng.uniform(size=(9, 7)) * 4) / 4
    eval_mask = rng.random((9, 7)) < 0.5
    eval_mask[np.arange(9), rng.integers(7, size=9)] = True
    return dataset_from_dense(base_grid, base_mask), dataset_from_dense(eval_grid, eval_mask)


def pinned_base(impute):
    """The base of pinned_corpus as each fill's pin uses it.  The alswr pin
    drops item 1's two ratings, so the base has a never-rated item and the
    imputer's pre-fill of it is on the pinned path."""
    base, _ = pinned_corpus()
    if impute != "alswr":
        return base
    keep = base.items != 1
    return replace(base, users=base.users[keep], items=base.items[keep], ratings=base.ratings[keep])


# sha256 of the trace CSVs of pinned_corpus for the zero, svd and alswr
# fills (alswr on its pinned_base), T = 50, policy seed 7, user seed 11,
# fills at rank 3 with seed 1.  Recorded with the dense evaluator and the
# available-array select protocol, the alswr column with the dense-mask
# ALS-WR fill; the traces must not change.
PINNED_TRACE_SHA256 = {
    "random": ("1945232fe06a22d6a7233f644ae929f44572eb31647f6c616535a9cde74a9adf",) * 3,
    "aver": ("f2b491be8cd94e206cf6d711bebcb39c9db45c090e84265a121fae80e15c1f07",) * 3,
    "egreedy": ("d38c2551ceda7a0c7a4ab29c0defb25b828d67aebd5cbc91a307e66c6ca81711",) * 3,
    "ucb": ("bc15b0ad550c2cdc1a1d6cd6d5438e53bee403ea4bbff097c93fdca695fa2ad1",) * 3,
    "exp3": ("a67e966599c82cb686ff9f284c787797d2b4bc57078f72c6586fd6fa60c9c364",) * 3,
    "thompson": (
        "ee55fc640114189b0a06d648a664504b4a43994087c4559b63db044c729957c9",
        "c4cf7a65fa3fbb12cbb665cb48a288e94e346c2c243f4973ea0b83a0ef88a056",
        "41b71b26a2de4e3863de396b5aa80583768368bdddfedf4c12f0144ce4df0f9e",
    ),
    "linucb": (
        "1077a4f44f59bf3507257037e65d0c0cf39ffcf81ec2cf9f66306e07e91d8c7e",
        "c0b07b9922377077ae9cc668eebddb3a02ad4670a8d0679ca7ec99e33c988398",
        "1a1e0c0ac468872b8834879a50906841609ee270286f9abc3923800c7f60574c",
    ),
    "alinucb": (
        "a975e2535f38c06704ff37b3ce2e5d5833c64f15070f723473a4cf41c1215966",
        "4a831e44bf9263ed520976d54075dd4ae6abe4aa8b5a8090efa293ce6d7851dc",
        "d29c8b1a1c046dc36d78176f79f91d2930e6814b6d41b1c170c8143b7b5f4845",
    ),
}
PINNED_ORACLE_SHA256 = "59bf68427ba279d4b0643988b6c06e1d18f3d28bd8df1929670dabc642e1011f"


def trace_sha256(trace, path) -> str:
    write_trace_csv(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedTraces:
    def test_pinned_corpus_runs_users_out(self):
        _, evaluation = pinned_corpus()
        trace = run_replay(RandomPolicy(7, seed=7), evaluation, 50, seed=11)
        spent = np.bincount(trace.user, minlength=evaluation.n_users) == evaluation.n_items
        assert 0 < spent.sum() < evaluation.n_users and not trace.exhausted

    @pytest.mark.parametrize("impute_index,impute", [(0, "zero"), (1, "svd"), (2, "alswr")])
    def test_policy_trace_bytes(self, tmp_path, impute_index, impute):
        _, evaluation = pinned_corpus()
        X = fill(pinned_base(impute), method_from_name(impute, rank=3), seed=1)
        digests = {
            policy_id: trace_sha256(run_replay(make_policy(policy_id, X=X, seed=7), evaluation, 50, seed=11),
                                    tmp_path / f"{policy_id}.csv")
            for policy_id in POLICY_IDS
        }
        assert digests == {policy_id: pair[impute_index] for policy_id, pair in PINNED_TRACE_SHA256.items()}

    def test_oracle_trace_bytes(self, tmp_path):
        _, evaluation = pinned_corpus()
        trace = run_replay(OraclePolicy(evaluation), evaluation, 50, seed=11)
        assert trace_sha256(trace, tmp_path / "oracle.csv") == PINNED_ORACLE_SHA256


def tied_wide_corpus(seed):
    """A 2,000-arm evaluation set of 40 users at 5 % density and an 8-user
    base at 1 %, both with quarter-step ratings, so that tied scores are
    common: most base columns are empty, and many means and norms repeat."""
    rng = np.random.default_rng([seed, 2000])
    n = 2000

    def quarter_steps(m, density):
        mask = rng.random((m, n)) < density
        return dataset_from_dense(rng.integers(0, 5, size=(m, n)) / 4, mask)

    return fill(quarter_steps(8, 0.01), Zero()), quarter_steps(40, 0.05)


@pytest.mark.parametrize("seed", [0, 1])
def test_index_policies_match_argmax_references_on_a_wide_tied_set(tmp_path, seed):
    """alinucb, egreedy (exploiting from step ≈2,100), aver and ucb over
    6,000 steps, ≈150 reveals per user: the trace bytes equal those of the
    references that score every arm and take one argmax over the open arms
    every step."""
    X, evaluation = tied_wide_corpus(seed)
    n = X.n_arms
    pairs = {
        "alinucb": (lambda: ALinUcbPolicy(X, alpha=0.01), lambda: ArgmaxALinUcb(X, alpha=0.01)),
        "egreedy": (lambda: EpsilonGreedyPolicy(n, c=0.01, seed=seed), lambda: ArgmaxEgreedy(n, c=0.01, seed=seed)),
        "aver": (lambda: AveragePolicy(n), lambda: ArgmaxAverage(n)),
        "ucb": (lambda: UcbPolicy(n), lambda: ArgmaxUcb(n)),
    }
    for name, (fast, slow) in pairs.items():
        write_trace_csv(run_replay(slow(), evaluation, 6000, seed=seed), tmp_path / "slow.csv")
        write_trace_csv(run_replay(fast(), evaluation, 6000, seed=seed), tmp_path / "fast.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes(), name


def all_policies(evaluation, seed=0):
    X = fill(dataset_from_dense(np.random.default_rng(seed).uniform(size=(3, evaluation.n_items))), Zero())
    return {"oracle": lambda: OraclePolicy(evaluation)} | {
        policy_id: (lambda policy_id=policy_id: make_policy(policy_id, X=X, seed=seed)) for policy_id in POLICY_IDS
    }


RUN_OUT_SETS = {
    "2x2": dataset_from_dense(np.array([[0.5, 0.2], [0.1, 0.9]])),
    "5x3": dataset_from_dense(
        np.array([[0.5, 0.0, 0.25], [1.0, 0.75, 0.75], [0.0, 0.5, 0.0], [0.25, 0.25, 1.0], [0.5, 0.5, 0.5]]),
        np.array([[1, 0, 1], [1, 1, 1], [0, 1, 0], [1, 0, 1], [0, 0, 1]], dtype=bool),
    ),
}


class TestBatchedDraws:
    """run_replay draws users in blocks; the reference draws one per step."""

    @pytest.mark.parametrize("name", sorted(RUN_OUT_SETS))
    @pytest.mark.parametrize("T", [1, 3, 4, 6, 15, 100])
    def test_matches_per_step_reference_until_users_run_out(self, name, T):
        evaluation = RUN_OUT_SETS[name]
        for seed in range(4):
            for policy_id, make in all_policies(evaluation, seed).items():
                fast = run_replay(make(), evaluation, T, seed=seed)
                slow = reference_replay(make(), evaluation, T, seed=seed)
                assert_same_trace(fast, slow)
        assert fast.exhausted == (T > evaluation.n_users * evaluation.n_items)

    def test_matches_per_step_reference_on_pinned_corpus(self):
        _, evaluation = pinned_corpus()
        for policy_id, make in all_policies(evaluation, 3).items():
            assert_same_trace(run_replay(make(), evaluation, 70, seed=5), reference_replay(make(), evaluation, 70, seed=5))


def test_memory_grows_with_ratings_not_users_times_items():
    """20,000 users × 5,000 arms with 50k ratings: one dense float table
    would be 800 MB, the three of the dense log ≈1 GB."""
    rng = np.random.default_rng(0)
    m, n = 20_000, 5_000
    users, items = np.divmod(np.unique(rng.integers(0, m * n, size=51_000))[:50_000], n)
    evaluation = RatingDataset(users, items, rng.uniform(size=users.size), m, n, 1.0)
    policy = ALinUcbPolicy(rng.uniform(size=(4, n)))
    tracemalloc.start()
    try:
        trace = run_replay(policy, evaluation, 5_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == 5_000
    assert peak < 30 * 2**20, f"replay peaked at {peak / 2**20:.1f} MB"


def test_dense_evaluation_memory_stays_with_the_shared_arrays():
    """500 users × 500 arms, every pair rated (the dense-context shape,
    250k ratings), T = 2000: a user's state holds views of the grouped
    ratings and sorts them only when their best is revealed.  Copying each
    drawn user's ratings into Python lists would peak near 14 MB."""
    evaluation = dataset_from_dense(np.random.default_rng(0).uniform(size=(500, 500)))
    tracemalloc.start()
    try:
        trace = run_replay(RandomPolicy(500, seed=1), evaluation, 2_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == 2_000
    assert peak < 6 * 2**20, f"replay peaked at {peak / 2**20:.1f} MB"

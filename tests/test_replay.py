"""Replay protocol: regret accounting, reveal bookkeeping, determinism."""

import numpy as np
import pytest

from coldrec.data import atomic_write, dataset_from_dense
from coldrec.impute import Zero, fill
from coldrec.policies import ALinUcbPolicy, Exp3Policy, OraclePolicy, Policy, RandomPolicy
from coldrec.replay import RevealLog, best_surrogate, read_trace_csv, run_replay, write_trace_csv
from coldrec.synthetic import linear_environment


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
    def make_log(self):
        evaluation = dataset_from_dense(
            np.array([[0.6, 0.0, 0.3]]), np.array([[True, False, True]])
        )
        return RevealLog(evaluation)

    def test_present_rating(self):
        assert self.make_log().reveal(0, 0) == 0.6

    def test_absent_is_zero_filled(self):
        assert self.make_log().reveal(0, 1) == 0.0

    def test_repeat_reveal_rejected(self):
        log = self.make_log()
        log.reveal(0, 2)
        with pytest.raises(RuntimeError, match="not available"):
            log.reveal(0, 2)

    def test_matches_best_surrogate_reference(self):
        log = self.make_log()
        by_arm = {0: 0.6, 2: 0.3}
        revealed = set()
        assert log.best_hidden_known(0) == best_surrogate(by_arm, revealed)
        log.reveal(0, 0)
        revealed.add(0)
        assert log.best_hidden_known(0) == best_surrogate(by_arm, revealed)
        log.reveal(0, 2)
        revealed.add(2)
        assert log.best_hidden_known(0) == best_surrogate(by_arm, revealed) == 0.0


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

            def select(self, available, t):
                return 0  # ignores availability after arm 0 is spent

            def update(self, arm, reward):
                pass

        X, evaluation = tiny_env(7)
        single_user = dataset_from_dense(evaluation.to_dense()[0][:1])
        with pytest.raises(RuntimeError, match="not available"):
            run_replay(StubbornPolicy(), single_user, T=3, seed=0)

    def test_validation(self):
        X, evaluation = tiny_env(8)
        with pytest.raises(ValueError):
            run_replay(RandomPolicy(X.n_arms, seed=0), evaluation, T=0, seed=0)
        with pytest.raises(ValueError):
            run_replay(RandomPolicy(X.n_arms + 1, seed=0), evaluation, T=5, seed=0)

    def test_reveals_zero_for_unknown_pairs(self):
        # one user rated only item 1; forcing item 0 reveals the zero fill
        class FixedOrder(Policy):
            n_arms = 2

            def select(self, available, t):
                return int(available[0])

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

"""Policy scoring math against explicit matrix oracles, plus the shared
select/update protocol contract (tie-breaking, determinism, validation)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from argmax_policies import ArgmaxALinUcb, ArgmaxAverage, ArgmaxEgreedy, ArgmaxUcb
from helpers import to_dense

from coldrec import linalg
from coldrec.data import dataset_from_dense
from coldrec.impute import AlsWr, BaseMatrix, ImputedSvd, fill
from coldrec.policies import (
    POLICIES,
    ALinUcbPolicy,
    AveragePolicy,
    EpsilonGreedyPolicy,
    Exp3Policy,
    LinUcbPolicy,
    OraclePolicy,
    RandomPolicy,
    ThompsonPolicy,
    UcbPolicy,
    argmax_lowest,
    egreedy_epsilon,
    make_policy,
    nth_open_arm,
)
from coldrec.replay import run_replay
from coldrec.synthetic import linear_environment


NONE = np.empty(0, dtype=np.int64)


def closed(n, available):
    """The exclusion set that leaves exactly `available` open among n arms."""
    return np.setdiff1d(np.arange(n), available)


def argmax_over(scores, available):
    """Reference: the highest-scoring arm of the ascending `available`,
    lowest index on ties."""
    if len(available) == 0:
        raise ValueError("available arm set is empty")
    return int(available[np.argmax(scores[available])])


def ucb_score(mean, t: int, t_j):
    """UCB's score through UcbPolicy.select: the mean plus the
    √(2 ln t / t_j) radius, +inf where unplayed; scalars or arrays.

    Arm 0 is revealed, so select skips its unplayed-arm shortcut and scores
    every arm by the played mask; one extra played arm stays open.
    """
    shape = np.shape(t_j)
    n = math.prod(shape)
    pol = UcbPolicy(n + 1)
    pol.counts[:n] = np.ravel(t_j)
    pol.counts[n] = 1.0
    pol.means[:n] = np.broadcast_to(mean, shape).ravel()
    pol.played[:] = pol.counts > 0
    pol.select([0], t)
    out = pol._scores[:n].reshape(shape)
    return float(out) if out.ndim == 0 else out


def random_base(k=6, n=9, seed=0):
    rng = np.random.default_rng(seed)
    return BaseMatrix(rng.uniform(size=(k, n)))


def design_width(pol, j):
    """Confidence radius √(x_jᵀ A_j⁻¹ x_j) from the policy's design matrix,
    inverted with LAPACK."""
    x = pol.X[:, j]
    return float(np.sqrt(x @ np.linalg.inv(pol.design_matrix(j)) @ x))


def dense_linucb_score(x, count, reward_sum, alpha):
    """Oracle: explicit design matrix I + t·xxᵀ, inverted with LAPACK."""
    A_inv = np.linalg.inv(np.eye(len(x)) + count * np.outer(x, x))
    theta = A_inv @ (reward_sum * x)
    return float(theta @ x + alpha * np.sqrt(x @ A_inv @ x))


def exp3_distribution(weights, gamma):
    """Mixture of the weight-proportional and uniform distributions:
    p_j = (1 − γ)·w_j/Σw + γ/n, for positive finite weights."""
    return (1.0 - gamma) * weights / weights.sum() + gamma / weights.size


def exp3_reference_draw(weights, gamma, revealed, u):
    """Reference for Exp3Policy.select, in O(n): the mixture over all arms,
    restricted to the open ones and renormalized, then the inverse-CDF map
    of u that Generator.choice(p=...) applies.  Returns (arm, probability)."""
    is_open = np.ones(len(weights), dtype=bool)
    is_open[revealed] = False
    available = is_open.nonzero()[0]
    # the compact set, not a zero-masked p: p.sum() rounds differently with
    # zeros inserted
    p = exp3_distribution(weights, gamma)[available]
    p /= p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    idx = int(cdf.searchsorted(u, side="right"))
    return int(available[idx]), float(p[idx])


def fenwick_prefix(tree, i):
    """Sum of the first i weights, read from a 1-based Fenwick tree."""
    total = 0.0
    while i:
        total += tree[i]
        i -= i & -i
    return total


class TestEgreedyEpsilon:
    def test_degenerate_denominator(self):
        assert egreedy_epsilon(0.1, 0.5, 10, 11) == 1.0
        assert egreedy_epsilon(0.1, 0.5, 10, 5) == 1.0

    def test_arithmetic_example(self):
        assert egreedy_epsilon(0.1, 0.5, 10, 100) == pytest.approx(1.0 / 22.25, abs=1e-15)

    def test_decays_to_zero(self):
        values = [egreedy_epsilon(0.1, 0.5, 10, t) for t in (100, 1000, 10_000, 10**7)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-4


class TestUcbScore:
    def test_unplayed_is_infinite(self):
        assert ucb_score(0.0, 5, 0) == np.inf

    def test_arithmetic_example(self):
        expected = 0.5 + math.sqrt(2 * math.log(100) / 10)
        assert ucb_score(0.5, 100, 10) == pytest.approx(expected, abs=1e-15)

    def test_first_step_has_no_bonus(self):
        assert ucb_score(0.7, 1, 1) == pytest.approx(0.7)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="^step index must be >= 1, got 0$"):
            ucb_score(0.5, 0, 1)

    def test_array_matches_masked_formula_bitwise(self):
        rng = np.random.default_rng(40)
        counts = rng.integers(0, 4, size=50)
        means = np.where(counts > 0, rng.uniform(size=50), 0.0)
        for t in (1, 2, 17, 10**6):
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = np.where(counts > 0, means + np.sqrt(2.0 * math.log(t) / counts), np.inf)
            np.testing.assert_array_equal(ucb_score(means, t, counts), expected)


class TestExp3Distribution:
    def test_uniform_weights(self):
        np.testing.assert_allclose(exp3_distribution(np.ones(4), 0.01), np.full(4, 0.25), atol=1e-15)

    def test_gamma_one_is_uniform(self):
        p = exp3_distribution(np.array([10.0, 1.0, 1.0]), 1.0)
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-15)

    def test_exponential_weights_example(self):
        p = exp3_distribution(np.array([math.e, 1.0, 1.0]), 0.0)
        assert p[0] == pytest.approx(math.e / (math.e + 2), abs=1e-12)

    def test_bounds_and_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.uniform(0.1, 50, size=rng.integers(2, 20))
            gamma = float(rng.uniform(0.001, 1.0))
            p = exp3_distribution(w, gamma)
            n = w.size
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p >= gamma / n - 1e-15)
            assert np.all(p <= 1 - gamma + gamma / n + 1e-15)


class TestALinUcbScoring:
    def test_no_rewards_no_exploration(self):
        pol = ALinUcbPolicy(random_base(), alpha=0.0)
        assert all(pol.score(j) == 0.0 for j in range(pol.n_arms))

    def test_unit_norm_examples(self):
        X = BaseMatrix(np.eye(2))  # both columns have unit norm
        pol = ALinUcbPolicy(X, alpha=0.0)
        pol.update(0, 1.0)
        pol.update(0, 1.0)
        # S=2, q = 1/2
        assert pol.score(0) == pytest.approx(1.0, abs=1e-12)
        pol2 = ALinUcbPolicy(X, alpha=0.001)
        assert pol2.score(1) == pytest.approx(0.001 / math.sqrt(2), abs=1e-15)

    def test_squared_widths_in_unit_interval_and_growing_with_norm(self):
        """widths² = q = ‖x‖²/(1+‖x‖²): 0 for a zero context, below 1, and
        strictly increasing in ‖x‖."""
        x = np.random.default_rng(13).uniform(size=6)
        q = ALinUcbPolicy(np.outer(x, np.linspace(0.0, 10.0, 26))).widths ** 2
        assert q[0] == 0.0
        assert np.all(q < 1.0)
        assert np.all(np.diff(q) > 0.0)

    def test_update_examples(self):
        pol = ALinUcbPolicy(random_base(), alpha=0.0)
        before = pol.reward_sums.copy()
        pol.update(3, 0.0)
        np.testing.assert_array_equal(pol.reward_sums, before)
        pol.update(3, 0.3)
        pol.update(3, 0.5)
        assert pol.reward_sums[3] == pytest.approx(0.8)

    def test_update_touches_one_arm(self):
        pol = ALinUcbPolicy(random_base(), alpha=0.5)
        scores_before = pol._scores.copy()
        pol.update(4, 0.9)
        changed = np.nonzero(pol._scores != scores_before)[0]
        np.testing.assert_array_equal(changed, [4])

    def test_reward_out_of_range_rejected(self):
        pol = ALinUcbPolicy(random_base())
        with pytest.raises(ValueError):
            pol.update(0, 1.5)
        with pytest.raises(ValueError):
            pol.update(0, -0.1)

    def test_scalar_path_equals_dense_inversion_oracle(self):
        """Fast scalar scores == explicit A⁻¹ path after random histories."""
        rng = np.random.default_rng(5)
        base = random_base(k=12, n=7, seed=6)
        pol = ALinUcbPolicy(base, alpha=0.37)
        for _ in range(100):
            j = int(rng.integers(7))
            pol.update(j, float(rng.uniform()))
        for j in range(7):
            oracle = dense_linucb_score(base.X[:, j], 1, pol.reward_sums[j], 0.37)
            assert abs(pol.score(j) - oracle) < 1e-10

    def test_scalar_vs_vector_accumulator(self):
        """b_j = S_j·x_j: accumulating the vector directly agrees to 1e-12."""
        rng = np.random.default_rng(8)
        base = random_base(k=5, n=4, seed=9)
        pol = ALinUcbPolicy(base, alpha=0.0)
        b = np.zeros((4, 5))
        for _ in range(100):
            j = int(rng.integers(4))
            r = float(rng.uniform())
            pol.update(j, r)
            b[j] += r * base.X[:, j]
        for j in range(4):
            np.testing.assert_allclose(b[j], pol.reward_sums[j] * base.X[:, j], atol=1e-12)

    def test_width_constant_over_run(self):
        base = random_base(k=8, n=5, seed=10)
        pol = ALinUcbPolicy(base, alpha=0.01)
        snapshot = pol.widths.copy()
        rng = np.random.default_rng(11)
        for _ in range(200):
            pol.update(int(rng.integers(5)), float(rng.uniform()))
            assert np.array_equal(pol.widths, snapshot)  # bit-for-bit


class TestLinUcbScoring:
    def test_before_update_alpha_zero(self):
        pol = LinUcbPolicy(random_base(), alpha=0.0)
        assert all(pol.score(j) == 0.0 for j in range(pol.n_arms))

    def test_before_update_unit_norm(self):
        # A = I at t_j = 0, so the width is ‖x‖ = 1 (oracle: inv(I))
        pol = LinUcbPolicy(BaseMatrix(np.eye(3)), alpha=1.0)
        assert pol.score(0) == pytest.approx(1.0, abs=1e-12)

    def test_width_matches_rank_one_oracle(self):
        base = random_base(k=7, n=3, seed=12)
        pol = LinUcbPolicy(base, alpha=1.0)
        rng = np.random.default_rng(13)
        for step in range(30):
            j = int(rng.integers(3))
            pol.update(j, float(rng.uniform()))
            s = base.column_norms_sq[j]
            oracle = math.sqrt(s / (1.0 + pol.counts[j] * s))
            assert abs(design_width(pol, j) - oracle) < 1e-10

    def test_design_matrix_structure(self):
        base = random_base(k=4, n=2, seed=14)
        pol = LinUcbPolicy(base, alpha=0.5)
        pol.update(1, 0.4)
        pol.update(1, 0.6)
        x = base.X[:, 1]
        np.testing.assert_allclose(pol.design_matrix(1), np.eye(4) + 2 * np.outer(x, x), atol=1e-15)

    def test_width_monotone_nonincreasing(self):
        base = random_base(k=5, n=2, seed=15)
        pol = LinUcbPolicy(base, alpha=1.0)
        widths = [design_width(pol, 0)]
        for _ in range(10):
            pol.update(0, 0.5)
            widths.append(design_width(pol, 0))
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_dense_and_closed_form_agree(self):
        base = random_base(k=6, n=4, seed=16)
        dense = LinUcbPolicy(base, alpha=0.2, dense_inversion=True)
        closed = LinUcbPolicy(base, alpha=0.2, dense_inversion=False)
        rng = np.random.default_rng(17)
        for _ in range(50):
            j = int(rng.integers(4))
            r = float(rng.uniform())
            dense.update(j, r)
            closed.update(j, r)
        for j in range(4):
            assert abs(dense.score(j) - closed.score(j)) < 1e-10


def dense_thompson_posterior(X, counts, b):
    """Oracle: the design A = I + X diag(counts) Xᵀ built densely, with the
    posterior mean solved by LAPACK.  Returns (A, A⁻¹b)."""
    A = np.eye(X.shape[0]) + (X * counts) @ X.T
    return A, np.linalg.solve(A, b)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestThompson:
    def test_v_zero_fresh_ties_to_lowest(self):
        pol = ThompsonPolicy(random_base(), v=0.0, seed=0)
        assert pol.select(closed(9, [3, 5, 7]), 1) == 3

    def test_v_zero_is_deterministic_argmax(self):
        base = random_base(k=4, n=6, seed=18)
        pol = ThompsonPolicy(base, v=0.0, seed=0)
        pol.update(2, 1.0)
        pol.update(2, 1.0)
        _, theta = dense_thompson_posterior(base.X, pol.counts, pol.b)
        expected = argmax_over(theta @ base.X, np.arange(6))
        assert pol.select(NONE, 3) == expected

    def test_sherman_morrison_inverse_matches_dense(self):
        """2500 rank-one downdates at k = n = 50 keep the stored upper
        triangle within 1e-8 of the dense inverse, applied in place."""
        base = random_base(k=50, n=50, seed=28)
        pol = ThompsonPolicy(base, v=0.1, seed=29)
        A_inv = pol.A_inv
        rng = np.random.default_rng(30)
        for _ in range(2500):
            pol.update(int(rng.integers(50)), float(rng.uniform()))
        assert pol.counts.sum() == 2500
        assert pol.A_inv is A_inv  # downdated in place, never reallocated
        full = np.triu(pol.A_inv) + np.triu(pol.A_inv, 1).T
        A, mean = dense_thompson_posterior(base.X, pol.counts, pol.b)
        assert rel_err(full, np.linalg.inv(A)) < 1e-8
        assert rel_err(full @ pol.b, mean) < 1e-8

    def test_v_zero_matches_dense_solve_argmax(self):
        """200 select/update steps over random arm subsets pick the
        arms the dense posterior-mean argmax picks."""
        base = random_base(k=12, n=30, seed=31)
        pol = ThompsonPolicy(base, v=0.0, seed=32)
        counts = np.zeros(30)
        b = np.zeros(12)
        rng = np.random.default_rng(33)
        for t in range(1, 201):
            available = np.sort(rng.choice(30, size=int(rng.integers(1, 31)), replace=False))
            _, theta = dense_thompson_posterior(base.X, counts, b)
            arm = pol.select(closed(30, available), t)
            assert arm == argmax_over(theta @ base.X, available), t
            reward = float(rng.uniform())
            pol.update(arm, reward)
            counts[arm] += 1
            b += reward * base.X[:, arm]

    def test_posterior_sample_moments_match(self):
        """Monte Carlo through the policy's own draw: 20000 θ̃ have mean
        A⁻¹b and covariance v²A⁻¹ within 4 standard errors per entry."""
        base = random_base(k=3, n=5, seed=19)
        v, n_draws = 0.5, 20_000
        pol = ThompsonPolicy(base, v=v, seed=20)
        rng = np.random.default_rng(21)
        for _ in range(25):
            pol.update(int(rng.integers(5)), float(rng.uniform()))
        A, mean = dense_thompson_posterior(base.X, pol.counts, pol.b)
        cov = v * v * np.linalg.inv(A)
        draws = np.array([pol.sample_theta() for _ in range(n_draws)])
        mean_se = np.sqrt(np.diag(cov) / n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * mean_se)
        var = np.diag(cov)
        cov_se = np.sqrt((np.outer(var, var) + cov**2) / n_draws)
        assert np.all(np.abs(np.cov(draws, rowvar=False) - cov) < 4 * cov_se)


class TestSelectProtocol:
    def make_all(self, base, seed=0):
        return [
            RandomPolicy(base.n_arms, seed=seed),
            AveragePolicy(base.n_arms),
            EpsilonGreedyPolicy(base.n_arms, seed=seed),
            UcbPolicy(base.n_arms),
            Exp3Policy(base.n_arms, seed=seed),
            ThompsonPolicy(base, seed=seed),
            LinUcbPolicy(base),
            ALinUcbPolicy(base),
        ]

    def test_singleton_available(self):
        base = random_base(k=4, n=6, seed=22)
        for pol in self.make_all(base):
            assert pol.select(closed(6, [4]), 1) == 4

    def test_returns_member_of_available(self):
        base = random_base(k=4, n=10, seed=23)
        available = np.array([1, 4, 8])
        for pol in self.make_all(base):
            for t in range(1, 20):
                arm = pol.select(closed(10, available), t)
                assert arm in available
                pol.update(arm, 0.5)

    @pytest.mark.parametrize("t", [1, 10**6])  # egreedy explores at t = 1 and exploits at 10**6
    def test_empty_available_rejected(self, t):
        base = random_base(k=3, n=4, seed=24)
        for pol in self.make_all(base):
            with pytest.raises(ValueError, match="^available arm set is empty$"):
                pol.select(np.arange(4), t)

    def test_alinucb_tie_break_lowest(self):
        X = BaseMatrix(np.tile(np.ones((3, 1)) / 2, (1, 4)))  # identical columns
        pol = ALinUcbPolicy(X, alpha=0.0)
        assert pol.select(NONE, 1) == 0
        pol_explore = ALinUcbPolicy(X, alpha=0.5)
        assert pol_explore.select(closed(4, [2, 3]), 1) == 2

    def test_argmax_prefers_highest_then_lowest_index(self):
        scores = np.array([0.2, 0.9, 0.9])
        assert argmax_lowest(scores, NONE) == 1
        assert argmax_lowest(scores, np.array([1])) == 2

    def test_revealed_may_be_any_ascending_sequence(self):
        """A tuple, a list and an int64 array of the same arms pick the same
        arm, also where the global argmax is revealed and the rest masked."""
        scores = np.array([0.2, 0.9, 0.9, 0.5])
        for revealed in ((1,), (1, 2), (0, 1, 2)):
            assert argmax_lowest(scores, revealed) == argmax_lowest(scores, np.array(revealed)), revealed
        assert argmax_lowest(scores, (1, 2)) == 3
        base = random_base(k=4, n=9, seed=46)
        rng = np.random.default_rng(46)
        for as_tuple, as_list in zip(self.make_all(base), self.make_all(base)):
            for t in range(1, 30):
                revealed = sorted(rng.choice(9, size=int(rng.integers(0, 9)), replace=False).tolist())
                arm = as_tuple.select(tuple(revealed), t)
                assert arm == as_list.select(revealed, t), (type(as_tuple).__name__, t)
                reward = float(rng.integers(0, 5)) / 4
                as_tuple.update(arm, reward)
                as_list.update(arm, reward)

    def test_argmax_scale_invariant(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            scores = rng.uniform(size=12)
            revealed = np.sort(rng.choice(12, size=5, replace=False))
            picked = argmax_lowest(scores, revealed)
            for scale in (1e-6, 3.7, 1e6):
                assert argmax_lowest(scores * scale, revealed) == picked

    def test_seeded_reproducibility(self):
        base = random_base(k=5, n=8, seed=26)
        rewards = np.random.default_rng(27).uniform(size=60)
        for factory in (
            lambda s: RandomPolicy(8, seed=s),
            lambda s: EpsilonGreedyPolicy(8, seed=s),
            lambda s: Exp3Policy(8, seed=s),
            lambda s: ThompsonPolicy(base, seed=s),
        ):
            picks = []
            for _ in range(2):
                pol = factory(99)
                seq = []
                for t, r in enumerate(rewards, start=1):
                    arm = pol.select(NONE, t)
                    seq.append(arm)
                    pol.update(arm, float(r))
                picks.append(seq)
            assert picks[0] == picks[1]

    def test_select_leaves_the_revealed_list_as_it_is(self):
        """The replay hands select the user's own list: no policy may change
        it, whichever path its select takes."""
        base = random_base(k=4, n=12, seed=47)
        _, evaluation = linear_environment(3, 12, 4, seed=48)
        rng = np.random.default_rng(49)
        oracle = OraclePolicy(evaluation)
        oracle.observe_user(1)
        for pol in self.make_all(base) + [oracle]:
            for t in range(1, 40):
                revealed = sorted(rng.choice(12, size=int(rng.integers(0, 12)), replace=False).tolist())
                before = list(revealed)
                arm = pol.select(revealed, t)
                assert revealed == before, (type(pol).__name__, t)
                assert arm not in revealed
                pol.update(arm, float(rng.integers(0, 5)) / 4)


SCORE_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, -np.inf, np.inf, np.nan])


@st.composite
def scores_and_revealed(draw):
    n = draw(st.integers(1, 12))
    scores = np.array(draw(st.lists(SCORE_VALUES, min_size=n, max_size=n)))
    revealed = np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.int64)
    return scores, revealed


class TestExclusionSetProtocol:
    """The exclusion-set helpers against the available-array references."""

    @settings(max_examples=300, deadline=None)
    @given(scores_and_revealed())
    def test_argmax_lowest_matches_reference(self, case):
        scores, revealed = case
        available = np.setdiff1d(np.arange(len(scores)), revealed)
        if len(available) == 0:
            with pytest.raises(ValueError, match="empty"):
                argmax_lowest(scores, revealed)
        else:
            assert argmax_lowest(scores, revealed) == argmax_over(scores, available)

    @settings(max_examples=300, deadline=None)
    @given(scores_and_revealed())
    def test_nth_open_arm_matches_reference(self, case):
        scores, revealed = case
        available = np.setdiff1d(np.arange(len(scores)), revealed)
        assert [nth_open_arm(revealed, i) for i in range(len(available))] == available.tolist()

    def test_seeded_picks_match_available_array_reference(self):
        """random, egreedy (both branches) and exp3 draw from their streams
        exactly as they did when select took the available array; exp3's
        selection probability matches to 1e-12 relative (it is summed in
        another order)."""
        n, steps = 40, 300
        rng = np.random.default_rng(41)
        revealed_sets = [np.sort(rng.choice(n, size=rng.integers(0, n), replace=False)) for _ in range(steps)]
        rewards = rng.uniform(size=steps)
        policies = [RandomPolicy(n, seed=5), EpsilonGreedyPolicy(n, c=0.05, d=0.5, seed=5), Exp3Policy(n, seed=5)]
        for pol in policies:
            ref_rng = np.random.default_rng(5)
            for t, (revealed, reward) in enumerate(zip(revealed_sets, rewards), start=1):
                available = np.setdiff1d(np.arange(n), revealed)
                if isinstance(pol, RandomPolicy):
                    expected = int(available[ref_rng.integers(len(available))])
                elif isinstance(pol, EpsilonGreedyPolicy):
                    means = np.where(pol.counts > 0, pol.sums / np.maximum(pol.counts, 1), 0.0)
                    if ref_rng.random() < egreedy_epsilon(pol.c, pol.d, n, t):
                        expected = int(available[ref_rng.integers(len(available))])
                    else:
                        expected = argmax_over(means, available)
                else:
                    p = exp3_distribution(pol.weights, pol.gamma)[available]
                    p /= p.sum()
                    idx = ref_rng.choice(len(available), p=p)
                    expected = int(available[idx])
                assert pol.select(revealed, t) == expected, (type(pol).__name__, t)
                if isinstance(pol, Exp3Policy):
                    assert pol._pending[0] == expected, t
                    assert pol._pending[1] == pytest.approx(p[idx], rel=1e-12, abs=0.0), t
                pol.update(expected, float(reward))

    def test_counts_means_are_the_observed_averages(self):
        rng = np.random.default_rng(42)
        for pol in (AveragePolicy(7), EpsilonGreedyPolicy(7, seed=0), UcbPolicy(7)):
            for _ in range(40):
                pol.update(int(rng.integers(5)), float(rng.uniform()))
            expected = np.where(pol.counts > 0, pol.sums / np.maximum(pol.counts, 1), 0.0)
            np.testing.assert_array_equal(pol.means, expected)
            assert pol.means[5] == pol.means[6] == 0.0


TIED_VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def policy_runs(draw):
    """n arms, a seed for the context, and select/update steps with random
    revealed sets (never-played arms among them, or every arm but one) and
    quarter-step rewards, so means tie, rise and fall."""
    n = draw(st.integers(1, 10))
    revealed = st.one_of(
        st.sets(st.integers(0, n - 1), max_size=n - 1),
        st.integers(0, n - 1).map(lambda keep: set(range(n)) - {keep}),
    )
    step = st.tuples(revealed, TIED_VALUES)
    return n, draw(st.integers(0, 2**32 - 1)), draw(st.lists(step, min_size=1, max_size=5 * n))


class TestArgmaxReferences:
    """alinucb, egreedy, aver and ucb against their argmax references: the
    select and update they had before the scalar updates and ucb's
    never-played-arm shortcut."""

    @settings(max_examples=200, deadline=None)
    @given(policy_runs())
    def test_policies_match_argmax_references(self, case):
        """alinucb, egreedy, aver and ucb pick what their argmax references
        pick, including on revealed never-played arms, which only input
        outside the replay protocol holds."""
        n, seed, steps = case
        X = BaseMatrix(np.random.default_rng(seed).integers(0, 3, size=(3, n)) / 2)
        pairs = [
            (ALinUcbPolicy(X, alpha=0.25), ArgmaxALinUcb(X, alpha=0.25)),
            (EpsilonGreedyPolicy(n, c=0.01, seed=seed), ArgmaxEgreedy(n, c=0.01, seed=seed)),
            (AveragePolicy(n), ArgmaxAverage(n)),
            (UcbPolicy(n), ArgmaxUcb(n)),
        ]
        for fast, slow in pairs:
            for t, (revealed, reward) in enumerate(steps, start=1):
                revealed = sorted(revealed)
                arm = fast.select(revealed, t)
                assert arm == slow.select(revealed, t), (type(fast).__name__, t)
                fast.update(arm, reward)
                slow.update(arm, reward)

    @pytest.mark.parametrize("fast,slow", [(AveragePolicy, ArgmaxAverage), (UcbPolicy, ArgmaxUcb)])
    def test_revealed_never_played_arm(self, fast, slow):
        """Arms 0 and 2 played, 1, 3 and 4 never: a revealed list holding a
        never-played arm is outside the replay protocol, and aver and ucb
        still pick what the reference argmax picks."""
        pol, reference = fast(5), slow(5)
        for arm, reward in ((0, 0.25), (2, 0.5), (2, 0.0)):
            pol.update(arm, reward)
            reference.update(arm, reward)
        for revealed in ([1], [1, 2], [0, 1, 2], [1, 3], [1, 3, 4], [0, 1, 3, 4], [1, 2, 3, 4]):
            assert pol.select(revealed, 4) == reference.select(revealed, 4), revealed


class TestExp3Protocol:
    def test_draw_matches_generator_choice(self):
        """select's tree descent picks what Generator.choice(p=...) picks
        from the same stream, over weights spread across 40 decades."""
        n = 1000
        rng = np.random.default_rng(43)
        pol = Exp3Policy(n, gamma=0.05, seed=9)
        ref_rng = np.random.default_rng(9)
        for t in range(1, 2001):
            pol.set_weights(10.0 ** rng.uniform(-20, 20, size=n))
            revealed = np.sort(rng.choice(n, size=rng.integers(0, n), replace=False))
            available = np.setdiff1d(np.arange(n), revealed)
            p = exp3_distribution(pol.weights, pol.gamma)[available]
            p /= p.sum()
            assert pol.select(revealed, t) == int(available[ref_rng.choice(len(available), p=p)]), t
            pol._pending = None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.floats(0.001, 1.0), st.integers(0, 2**32 - 1))
    def test_picks_match_reference_draw(self, n, gamma, seed):
        """Random weights over 40 decades and random revealed sets: the
        tree descent picks the arm the O(n) reference draw picks."""
        rng = np.random.default_rng(seed)
        pol = Exp3Policy(n, gamma=gamma, seed=seed)
        ref_rng = np.random.default_rng(seed)
        for t in range(1, 6):
            weights = 10.0 ** rng.uniform(-20, 20, size=n)
            pol.set_weights(weights)
            revealed = np.sort(rng.choice(n, size=rng.integers(0, n), replace=False))
            arm, _ = exp3_reference_draw(weights, gamma, revealed, ref_rng.random())
            assert pol.select(revealed, t) == arm, t
            pol._pending = None

    def test_tree_prefix_sums_stay_exact_over_long_runs(self):
        """60 000 updates, through rebuilds and 1e150 rescales: every prefix
        sum read from the tree stays within 1e-12 relative of math.fsum,
        and every n updates the tree is rebuilt from the weights."""
        n = 64
        pol = Exp3Policy(n, gamma=0.9, seed=44)
        fresh = Exp3Policy(n)
        rng = np.random.default_rng(45)
        rescales = rebuilt = 0
        for t in range(1, 60_001):
            arm = pol.select(NONE, t)
            top = max(pol._w)
            pol.update(arm, float(rng.uniform()))
            rescales += max(pol._w) < top
            if t % 997 == 0:
                for i in range(1, n + 1):
                    exact = math.fsum(pol._w[:i])
                    assert abs(fenwick_prefix(pol._tree, i) - exact) <= 1e-12 * exact, (t, i)
            if 30_000 < t <= 30_000 + 2 * n:
                fresh.set_weights(pol.weights)
                rebuilt += fresh._tree == pol._tree
        assert rescales > 0  # the rescale path ran too
        assert rebuilt >= 2

    @pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
    def test_rounding_never_returns_a_revealed_arm(self, u):
        """At both ends of the unit interval, with the heaviest arms revealed
        so that subtracting their weight rounds, the pick is open."""

        class FixedDraw:
            def random(self):
                return u

        rng = np.random.default_rng(46)
        for n in (1, 2, 7, 64, 1000):
            for _ in range(20):
                pol = Exp3Policy(n, gamma=float(rng.uniform(0.001, 1.0)), seed=0)
                weights = 10.0 ** rng.uniform(-20, 20, size=n)
                revealed = np.sort(rng.choice(n, size=rng.integers(0, n), replace=False))
                weights[revealed] *= 1e30
                pol.set_weights(weights)
                pol.rng = FixedDraw()
                arm = pol.select(revealed, 1)
                assert 0 <= arm < n and arm not in revealed
                open_arms = np.setdiff1d(np.arange(n), revealed)
                assert arm == (open_arms[0] if u == 0.0 else open_arms[-1])

    @pytest.mark.parametrize("gamma", [0.0, 1.5, float("nan")])
    def test_rejects_gamma_outside_unit_interval(self, gamma):
        with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\], got"):
            Exp3Policy(3, gamma=gamma, seed=0)

    def test_set_weights_rejects_bad_weights(self):
        pol = Exp3Policy(3, seed=0)
        for bad in ([1.0, 2.0], [1.0, 0.0, 1.0], [1.0, np.inf, 1.0], [1.0, np.nan, 1.0]):
            with pytest.raises(ValueError, match="positive finite"):
                pol.set_weights(bad)

    def test_update_requires_selected_arm(self):
        pol = Exp3Policy(5, seed=0)
        arm = pol.select(NONE, 1)
        with pytest.raises(RuntimeError):
            pol.update((arm + 1) % 5, 0.5)

    def test_weights_stay_positive_finite(self):
        pol = Exp3Policy(4, gamma=0.3, seed=1)
        for t in range(1, 500):
            arm = pol.select(NONE, t)
            pol.update(arm, 1.0)
        assert np.all(pol.weights > 0)
        assert np.all(np.isfinite(pol.weights))


class TestAveragePolicy:
    def test_greedy_on_observed_average(self):
        pol = AveragePolicy(3)
        pol.update(0, 0.2)
        pol.update(1, 0.9)
        assert pol.select(NONE, 3) == 1

    def test_unplayed_scores_global_average(self):
        pol = AveragePolicy(3)
        pol.update(0, 0.4)
        # arm 1 and 2 unplayed -> global mean 0.4; tie with arm 0 -> lowest
        assert pol.select(NONE, 2) == 0
        pol.update(1, 0.1)
        # global mean 0.25: arm 0 (0.4) still wins over unplayed arm 2 (0.25)
        assert pol.select(np.array([0]), 3) == 2


class TestOraclePolicy:
    def test_picks_best_known_rating(self):
        _, evaluation = linear_environment(3, 6, 4, noise=0.0, seed=30)
        pol = OraclePolicy(evaluation)
        pol.observe_user(2)
        dense, _ = to_dense(evaluation)
        assert pol.select(NONE, 1) == int(np.argmax(dense[2]))

    def test_requires_observe_user(self):
        _, evaluation = linear_environment(3, 6, 4, noise=0.0, seed=31)
        pol = OraclePolicy(evaluation)
        with pytest.raises(RuntimeError):
            pol.select(NONE, 1)

    def test_rejects_unnormalized_ratings(self):
        with pytest.raises(ValueError, match="normalized"):
            OraclePolicy(dataset_from_dense(np.array([[0.5, 2.0]])))

    def test_rejects_nan_ratings(self):
        evaluation = replace(dataset_from_dense(np.array([[0.5, 0.25]])), ratings=np.array([0.5, np.nan]))
        with pytest.raises(ValueError, match="^evaluation ratings must be finite"):
            OraclePolicy(evaluation)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 7), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_dense_argmax(self, m, n, seed, dense):
        """Quarter-step ratings make ties and known zeros common; each user's
        exclusion set only grows, as under replay."""
        rng = np.random.default_rng(seed)
        grid = rng.integers(0, 5, size=(m, n)) / 4
        mask = np.ones((m, n), dtype=bool) if dense else rng.random((m, n)) < 0.5
        mask[np.arange(m), rng.integers(n, size=m)] = True
        evaluation = dataset_from_dense(grid, mask)
        table = np.where(mask, grid, 0.0)
        pol = OraclePolicy(evaluation)
        revealed = [set() for _ in range(m)]
        for t in range(1, m * n + 1):
            user = int(rng.choice([u for u in range(m) if len(revealed[u]) < n]))
            pol.observe_user(user)
            excluded = np.array(sorted(revealed[user]), dtype=np.int64)
            available = np.setdiff1d(np.arange(n), excluded)
            arm = pol.select(excluded, t)
            assert arm == argmax_over(table[user], available)
            # reveal the pick or, now and then, another open arm
            revealed[user].add(int(rng.choice(available)) if rng.random() < 0.3 else arm)


class TestMakePolicy:
    def test_all_ids_constructible(self):
        base = random_base(k=3, n=5, seed=32)
        for pid in ("random", "aver", "egreedy", "ucb", "exp3", "thompson", "linucb", "alinucb"):
            pol = make_policy(pid, X=base, seed=0)
            assert pol.n_arms == 5

    def test_contextual_needs_base(self):
        base = random_base(k=3, n=5, seed=31)
        assert make_policy("thompson", X=base, seed=0).X is base.X
        with pytest.raises(TypeError, match="'X'"):
            make_policy("alinucb")

    @pytest.mark.parametrize("policy_id", [pid for pid, cls in POLICIES.items() if cls.contextual])
    def test_contextual_rejects_an_overflowing_column_norm(self, policy_id):
        """Entries near 1e200 are finite, but their squared norm overflows to
        inf: linucb would start at an infinite score, thompson would draw θ of
        order 1e199 and alinucb would score inf / inf = NaN."""
        with pytest.raises(ValueError, match="columns whose squared norm overflows"):
            make_policy(policy_id, X=np.array([[1e200, 0.5, 0.2], [0.1, 0.3, 0.9]]), seed=0)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("greedy", X=random_base(k=3, n=3, seed=30))

    def test_alpha_validation(self):
        base = random_base(k=3, n=4, seed=33)
        with pytest.raises(ValueError):
            make_policy("alinucb", X=base, alpha=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "policy_id,key", [("linucb", "alpha"), ("alinucb", "alpha"), ("thompson", "v"), ("egreedy", "c"), ("egreedy", "d")]
    )
    def test_non_finite_hyper_parameter_names_its_key(self, policy_id, key, value):
        base = random_base(k=3, n=4, seed=35)
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            make_policy(policy_id, X=base, seed=0, **{key: value})

    def test_hyper_parameters_by_name(self):
        base = random_base(k=3, n=4, seed=34)
        pol = make_policy("egreedy", X=base, alpha=0.5, c=0.2, d=0.3, gamma=0.4, v=0.6, seed=0)
        assert (pol.c, pol.d) == (0.2, 0.3)  # the others belong to other policies
        assert make_policy("thompson", X=base, alpha=0.5).v == 0.1  # unset keeps its default
        with pytest.raises(TypeError, match="alhpa"):
            make_policy("linucb", X=base, alhpa=0.5)

    @pytest.mark.parametrize(
        "policy_id,builds",
        [("random", 0), ("aver", 0), ("egreedy", 0), ("ucb", 0), ("exp3", 0),
         ("alinucb", 1), ("thompson", 1), ("linucb", 1)],
    )
    @pytest.mark.parametrize("method", [ImputedSvd(rank=3), AlsWr(rank=3, iters=2)], ids=["svd", "alswr"])
    def test_only_contextual_policies_build_the_fill(self, policy_id, builds, method, monkeypatch):
        """fill defers its factorization to the first read of the context:
        a policy that reads only the arm count runs none, and one that reads
        X and its norms runs one, however often it reads them."""
        calls = []

        def counted(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("truncated_svd", "als_wr_factorize"):
            monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
        base, evaluation = linear_environment(8, 30, 20, seed=36)
        policy = make_policy(policy_id, X=fill(base, method, seed=0), seed=0)
        trace = run_replay(policy, evaluation, 60, seed=0)
        assert trace.steps == 60
        kernel = "truncated_svd" if isinstance(method, ImputedSvd) else "als_wr_factorize"
        assert calls == [kernel] * builds

"""Arm-selection policies behind one select/update protocol.

All policies implement: ``select(available, t) -> arm`` followed by exactly
one ``update(arm, reward)`` with the arm that select returned and the
revealed reward in [0, 1].  ``available`` is an ascending array of arm
indices; ties always break toward the lowest index, so runs are fully
reproducible given the seeds.

The contextual policies score arms against the columns of the base matrix.
The adapted-LinUCB policy freezes each arm's design matrix at I + x xᵀ,
which collapses scoring to two cached scalars per arm — no matrix is ever
inverted on its fast path.  The standard LinUCB baseline deliberately pays
the dense O(k³) inversion on every re-score, which is exactly the cost the
adapted variant removes; a closed-form flag exists for ablation only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dger

from .data import RatingDataset
from .impute import BaseMatrix

__all__ = [
    "Policy",
    "RandomPolicy",
    "AveragePolicy",
    "EpsilonGreedyPolicy",
    "UcbPolicy",
    "Exp3Policy",
    "ThompsonPolicy",
    "LinUcbPolicy",
    "ALinUcbPolicy",
    "OraclePolicy",
    "make_policy",
    "POLICY_IDS",
    "egreedy_epsilon",
    "ucb_score",
    "exp3_distribution",
    "argmax_lowest",
    "DEFAULT_ALPHA",
    "DEFAULT_C",
    "DEFAULT_D",
    "DEFAULT_GAMMA",
    "DEFAULT_V",
]

DEFAULT_ALPHA = 0.001
DEFAULT_C = 0.1
DEFAULT_D = 0.5
DEFAULT_GAMMA = 0.01
DEFAULT_V = 0.1


def argmax_lowest(scores: np.ndarray, available: np.ndarray) -> int:
    """Arm in `available` with the highest score, lowest index on ties.

    Requires `available` sorted ascending (np.argmax keeps the first max).
    """
    if len(available) == 0:
        raise ValueError("available arm set is empty")
    return int(available[np.argmax(scores[available])])


def egreedy_epsilon(c: float, d: float, n: int, t: int) -> float:
    """Decaying exploration rate min(1, c·n / (d²·(t − n − 1))).

    Degenerate denominators (t ≤ n + 1) mean the schedule has not started
    decaying yet: explore with probability 1.
    """
    span = t - n - 1
    if span <= 0:
        return 1.0
    return min(1.0, (c * n) / (d * d * span))


def ucb_score(mean, t: int, t_j):
    """Mean plus the √(2 ln t / t_j) confidence radius; +inf when unplayed.

    Accepts scalars or arrays for `mean`/`t_j`.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    mean = np.asarray(mean, dtype=np.float64)
    t_j = np.asarray(t_j, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.sqrt(2.0 * math.log(t) / t_j)
        out = np.where(t_j > 0, mean + radius, np.inf)
    return float(out) if out.ndim == 0 else out


def exp3_distribution(weights: np.ndarray, gamma: float) -> np.ndarray:
    """Mixture of the weight-proportional and uniform distributions:
    p_j = (1 − γ)·w_j/Σw + γ/n."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    n = weights.size
    return (1.0 - gamma) * weights / weights.sum() + gamma / n


def _check_reward(reward: float) -> float:
    reward = float(reward)
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward must lie in [0, 1], got {reward}")
    return reward


def _context_matrix(X) -> BaseMatrix:
    return X if isinstance(X, BaseMatrix) else BaseMatrix(np.asarray(X))


class Policy:
    """Base of the select/update protocol; subclasses fill in both sides."""

    n_arms: int

    def observe_user(self, user: int) -> None:
        """Hook called by the replay loop before each select.

        The bandit policies ignore the user's identity (shared accumulators
        across users); only the cheating oracle overrides this.
        """

    def select(self, available: np.ndarray, t: int) -> int:
        raise NotImplementedError

    def update(self, arm: int, reward: float) -> None:
        raise NotImplementedError


class RandomPolicy(Policy):
    """Uniform choice among the available arms."""

    def __init__(self, n_arms: int, seed=None):
        self.n_arms = n_arms
        self.rng = np.random.default_rng(seed)

    def select(self, available, t):
        if len(available) == 0:
            raise ValueError("available arm set is empty")
        return int(available[self.rng.integers(len(available))])

    def update(self, arm, reward):
        _check_reward(reward)


class AveragePolicy(Policy):
    """Greedy on the observed per-arm average reward.

    Arms never played score the running global average, so an unplayed arm
    neither attracts nor repels relative to the field.
    """

    def __init__(self, n_arms: int):
        self.n_arms = n_arms
        self.sums = np.zeros(n_arms)
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.total_sum = 0.0
        self.total_count = 0

    def _means(self):
        global_mean = self.total_sum / self.total_count if self.total_count else 0.0
        with np.errstate(invalid="ignore"):
            means = self.sums / self.counts
        return np.where(self.counts > 0, means, global_mean)

    def select(self, available, t):
        return argmax_lowest(self._means(), available)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        self.sums[arm] += reward
        self.counts[arm] += 1
        self.total_sum += reward
        self.total_count += 1


class EpsilonGreedyPolicy(Policy):
    """Explore uniformly with probability ε_t, else exploit the best average.

    ε_t decays as min(1, c·n/(d²(t−n−1))); unplayed arms count as average 0
    on the exploit branch.
    """

    def __init__(self, n_arms: int, c: float = DEFAULT_C, d: float = DEFAULT_D, seed=None):
        if c <= 0 or d <= 0:
            raise ValueError(f"c and d must be positive, got c={c} d={d}")
        self.n_arms = n_arms
        self.c = c
        self.d = d
        self.rng = np.random.default_rng(seed)
        self.sums = np.zeros(n_arms)
        self.counts = np.zeros(n_arms, dtype=np.int64)

    def select(self, available, t):
        if len(available) == 0:
            raise ValueError("available arm set is empty")
        eps = egreedy_epsilon(self.c, self.d, self.n_arms, t)
        if self.rng.random() < eps:
            return int(available[self.rng.integers(len(available))])
        with np.errstate(invalid="ignore"):
            means = np.where(self.counts > 0, self.sums / self.counts, 0.0)
        return argmax_lowest(means, available)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        self.sums[arm] += reward
        self.counts[arm] += 1


class UcbPolicy(Policy):
    """Classic frequentist UCB on observed averages (no context)."""

    def __init__(self, n_arms: int):
        self.n_arms = n_arms
        self.sums = np.zeros(n_arms)
        self.counts = np.zeros(n_arms, dtype=np.int64)

    def select(self, available, t):
        with np.errstate(invalid="ignore"):
            means = np.where(self.counts > 0, self.sums / self.counts, 0.0)
        return argmax_lowest(ucb_score(means, t, self.counts), available)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        self.sums[arm] += reward
        self.counts[arm] += 1


class Exp3Policy(Policy):
    """Adversarial exponential-weights sampler.

    The mixture distribution is formed over all arms, then restricted to the
    available set and renormalized; the importance weight on update uses the
    actual (restricted) selection probability, keeping the reward estimate
    unbiased under the replay protocol's shrinking arm sets.
    """

    def __init__(self, n_arms: int, gamma: float = DEFAULT_GAMMA, seed=None):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
        self.n_arms = n_arms
        self.gamma = gamma
        self.rng = np.random.default_rng(seed)
        self.weights = np.ones(n_arms)
        self._pending = None  # (arm, probability) from the last select

    def select(self, available, t):
        if len(available) == 0:
            raise ValueError("available arm set is empty")
        p = exp3_distribution(self.weights, self.gamma)[available]
        p /= p.sum()
        idx = self.rng.choice(len(available), p=p)
        arm = int(available[idx])
        self._pending = (arm, float(p[idx]))
        return arm

    def update(self, arm, reward):
        reward = _check_reward(reward)
        if self._pending is None or self._pending[0] != arm:
            raise RuntimeError("update must follow select with the arm select returned")
        _, prob = self._pending
        self._pending = None
        self.weights[arm] *= math.exp(self.gamma * (reward / prob) / self.n_arms)
        # rescaling leaves the mixture distribution unchanged
        top = self.weights.max()
        if top > 1e150:
            self.weights /= top


class ThompsonPolicy(Policy):
    """Posterior sampling on a shared Bayesian linear reward model.

    The model has design A = I + Σ x xᵀ and accumulator b = Σ r·x over all
    arms; each select draws θ̃ ~ N(A⁻¹b, v²A⁻¹) and plays the available arm
    maximizing θ̃ᵀx_j (Agrawal & Goyal, ICML 2013).  v = 0 degenerates to the
    posterior-mean greedy.

    A itself is never stored.  ``A_inv`` is kept current by the
    Sherman–Morrison rank-one downdate, and since A = I + X diag(counts) Xᵀ
    an exact draw needs only A⁻¹ and the per-arm play counts (see
    :meth:`sample_theta`), so every step is O(k² + k·n) with no factorization.
    """

    def __init__(self, X, v: float = DEFAULT_V, seed=None):
        if v < 0:
            raise ValueError(f"noise scale v must be nonnegative, got {v}")
        base = _context_matrix(X)
        self.X = base.X
        self.n_arms = base.n_arms
        self.v = v
        self.rng = np.random.default_rng(seed)
        k = base.k
        # Fortran order lets dger downdate it in place
        self.A_inv = np.eye(k, order="F")
        self.b = np.zeros(k)
        self.counts = np.zeros(self.n_arms, dtype=np.int64)

    def sample_theta(self) -> np.ndarray:
        """One draw θ̃ = A⁻¹(b + v·(z₀ + X(√counts ∘ ε))), z₀ ~ N(0, I_k),
        ε ~ N(0, I_n).

        The bracketed noise has covariance I + X diag(counts) Xᵀ = A, so θ̃
        has mean A⁻¹b and covariance v²A⁻¹AA⁻¹ = v²A⁻¹ exactly.
        """
        if self.v == 0:
            return self.A_inv @ self.b
        k = len(self.b)
        eps = self.rng.standard_normal(k + self.n_arms)
        noise = eps[:k]
        noise += self.X @ (np.sqrt(self.counts) * eps[k:])
        noise *= self.v
        noise += self.b
        return self.A_inv @ noise

    def select(self, available, t):
        return argmax_lowest(self.sample_theta() @ self.X, available)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        x = self.X[:, arm]
        u = self.A_inv @ x
        # A⁻¹ ← A⁻¹ − u uᵀ / (1 + xᵀu), in place
        self.A_inv = dger(-1.0 / (1.0 + x @ u), u, u, a=self.A_inv, overwrite_a=True)
        self.b += reward * x
        self.counts[arm] += 1


class LinUcbPolicy(Policy):
    """Disjoint-arms LinUCB with per-arm growing design matrices.

    Each arm's design matrix after t_j updates is I + t_j·x_jx_jᵀ (every
    observation of an arm repeats the same context row), so only the scalar
    pair (t_j, reward sum) is stored and the matrix is rebuilt on demand.
    With ``dense_inversion`` (the default, and what timing comparisons must
    use) every re-score explicitly inverts that k×k matrix; the closed-form
    alternative applies the rank-one inverse identity instead and exists for
    ablation.
    """

    def __init__(self, X, alpha: float = DEFAULT_ALPHA, dense_inversion: bool = True):
        if alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        base = _context_matrix(X)
        self.X = base.X
        self.n_arms = base.n_arms
        self.alpha = alpha
        self.dense_inversion = dense_inversion
        self.norms_sq = base.column_norms_sq
        self.counts = np.zeros(self.n_arms, dtype=np.int64)
        self.reward_sums = np.zeros(self.n_arms)
        # t_j = 0 for every arm: A_j = I, theta = 0, width = ‖x_j‖
        self._scores = alpha * np.sqrt(self.norms_sq)

    def design_matrix(self, j: int) -> np.ndarray:
        x = self.X[:, j]
        return np.eye(len(x)) + self.counts[j] * np.outer(x, x)

    def width(self, j: int) -> float:
        """Current confidence radius √(x_jᵀ A_j⁻¹ x_j) of arm j."""
        if self.dense_inversion:
            A_inv = np.linalg.inv(self.design_matrix(j))
            x = self.X[:, j]
            return float(np.sqrt(x @ A_inv @ x))
        s = self.norms_sq[j]
        return math.sqrt(s / (1.0 + self.counts[j] * s))

    def score(self, j: int) -> float:
        if self.dense_inversion:
            x = self.X[:, j]
            A_inv = np.linalg.inv(self.design_matrix(j))
            theta = A_inv @ (self.reward_sums[j] * x)
            return float(theta @ x + self.alpha * np.sqrt(x @ A_inv @ x))
        s = self.norms_sq[j]
        q = s / (1.0 + self.counts[j] * s)
        return self.reward_sums[j] * q + self.alpha * math.sqrt(q)

    def select(self, available, t):
        return argmax_lowest(self._scores, available)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        self.counts[arm] += 1
        self.reward_sums[arm] += reward
        self._scores[arm] = self.score(arm)


class ALinUcbPolicy(Policy):
    """Adapted LinUCB with the design matrix frozen at A_j = I + x_jx_jᵀ.

    Freezing makes the confidence width constant over the whole run and the
    inverse closed-form, so per-arm state collapses to the reward sum S_j:

        score_j = S_j·‖x_j‖²/(1+‖x_j‖²) + α·√(‖x_j‖²/(1+‖x_j‖²))

    ``score_via_design_inverse`` materializes the frozen matrix and inverts
    it densely — the slow equivalence-testing path, never used in runs.
    """

    def __init__(self, X, alpha: float = DEFAULT_ALPHA):
        if alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {alpha}")
        base = _context_matrix(X)
        self.X = base.X
        self.n_arms = base.n_arms
        self.alpha = alpha
        self._q = base.column_norms_sq / (1.0 + base.column_norms_sq)
        self.widths = np.sqrt(self._q)
        self.widths.flags.writeable = False
        self.reward_sums = np.zeros(self.n_arms)
        self._scores = self.reward_sums * self._q + alpha * self.widths

    def score(self, j: int) -> float:
        return float(self._scores[j])

    @staticmethod
    def score_via_design_inverse(x: np.ndarray, reward_sum: float, alpha: float) -> float:
        """Same score through the explicit matrix path: θ = A⁻¹b with
        A = I + xxᵀ and b = S·x, then θᵀx + α√(xᵀA⁻¹x)."""
        x = np.asarray(x, dtype=np.float64)
        A_inv = np.linalg.inv(np.eye(len(x)) + np.outer(x, x))
        theta = A_inv @ (reward_sum * x)
        return float(theta @ x + alpha * np.sqrt(x @ A_inv @ x))

    def select(self, available, t):
        return argmax_lowest(self._scores, available)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        self.reward_sums[arm] += reward
        self._scores[arm] = self.reward_sums[arm] * self._q[arm] + self.alpha * self.widths[arm]


class OraclePolicy(Policy):
    """Testing baseline that peeks at the held-out ratings.

    Plays the available arm with the current user's highest held-out rating
    (0 for unrated arms), which achieves the best-known value every step and
    hence exactly zero cumulative regret.  Never a real policy — it reads
    the answer key — but it pins down the evaluator's regret accounting.
    """

    def __init__(self, evaluation: RatingDataset):
        self.n_arms = evaluation.n_items
        self._ratings = np.zeros((evaluation.n_users, evaluation.n_items))
        self._ratings[evaluation.users, evaluation.items] = evaluation.ratings
        self._user = None

    def observe_user(self, user):
        self._user = user

    def select(self, available, t):
        if self._user is None:
            raise RuntimeError("oracle needs observe_user before select")
        return argmax_lowest(self._ratings[self._user], available)

    def update(self, arm, reward):
        _check_reward(reward)


POLICY_IDS = ("random", "aver", "egreedy", "ucb", "exp3", "thompson", "linucb", "alinucb")

_CONTEXTUAL = {"thompson", "linucb", "alinucb"}


def make_policy(
    policy_id: str,
    n_arms: int | None = None,
    X: BaseMatrix | None = None,
    alpha: float = DEFAULT_ALPHA,
    c: float = DEFAULT_C,
    d: float = DEFAULT_D,
    gamma: float = DEFAULT_GAMMA,
    v: float = DEFAULT_V,
    seed=None,
) -> Policy:
    """Instantiate a policy by its CLI id."""
    if policy_id not in POLICY_IDS:
        raise ValueError(f"unknown policy {policy_id!r}; choose from {POLICY_IDS}")
    if policy_id in _CONTEXTUAL:
        if X is None:
            raise ValueError(f"policy {policy_id!r} needs the base matrix X")
        n_arms = X.n_arms
    elif n_arms is None:
        if X is None:
            raise ValueError(f"policy {policy_id!r} needs the arm count n_arms")
        n_arms = X.n_arms
    if policy_id == "random":
        return RandomPolicy(n_arms, seed=seed)
    if policy_id == "aver":
        return AveragePolicy(n_arms)
    if policy_id == "egreedy":
        return EpsilonGreedyPolicy(n_arms, c=c, d=d, seed=seed)
    if policy_id == "ucb":
        return UcbPolicy(n_arms)
    if policy_id == "exp3":
        return Exp3Policy(n_arms, gamma=gamma, seed=seed)
    if policy_id == "thompson":
        return ThompsonPolicy(X, v=v, seed=seed)
    if policy_id == "linucb":
        return LinUcbPolicy(X, alpha=alpha)
    return ALinUcbPolicy(X, alpha=alpha)

"""Arm-selection policies behind one select/update protocol.

All policies implement: ``select(revealed, t) -> arm`` followed by exactly
one ``update(arm, reward)`` with the arm that select returned and the
revealed reward in [0, 1].  ``revealed`` is the ascending sequence of arms
already revealed to the current user, which select must not return; every
other arm is available.  The replay hands over the user's own sorted list:
select only reads it, and only during the call.  Ties always break toward
the lowest index, so runs are fully reproducible given the seeds.

The contextual policies score arms against the columns of the base matrix.
The adapted-LinUCB policy freezes each arm's design matrix at I + x xᵀ,
which collapses scoring to two cached scalars per arm — no matrix is ever
inverted on its fast path.  The standard LinUCB baseline deliberately pays
the dense O(k³) inversion on every re-score, which is exactly the cost the
adapted variant removes; a closed-form flag exists for ablation only.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence

import numpy as np
from scipy.linalg.blas import dsymv, dsyr

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
    "POLICIES",
    "POLICY_IDS",
    "egreedy_epsilon",
    "argmax_lowest",
    "nth_open_arm",
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


def _check_open(n_arms: int, revealed) -> int:
    """Number of arms not in `revealed`; raises if there is none."""
    n_open = n_arms - len(revealed)
    if n_open <= 0:
        raise ValueError("available arm set is empty")
    return n_open


def _is_revealed(revealed, arm: int) -> bool:
    pos = bisect.bisect_left(revealed, arm)
    return pos < len(revealed) and revealed[pos] == arm


def nth_open_arm(revealed, idx: int) -> int:
    """The idx-th (0-based) arm not in the ascending sequence `revealed`.

    Starting from idx, each revealed arm at or below the candidate pushes it
    up by one; the first revealed arm above it ends the walk.
    """
    arm = idx
    for r in revealed:
        if r > arm:
            break
        arm += 1
    return arm


def argmax_lowest(scores: np.ndarray, revealed) -> int:
    """Arm outside the ascending sequence `revealed` with the highest score,
    lowest index on ties.

    One global argmax (np.argmax keeps the first max) decides unless it lands
    on a revealed arm, which a bisect in `revealed` tells; only then are the
    revealed arms masked out.
    """
    _check_open(len(scores), revealed)
    arm = int(scores.argmax())
    if _is_revealed(revealed, arm):
        masked = np.array(scores, dtype=np.float64)
        masked[np.asarray(revealed, dtype=np.intp)] = -np.inf  # a tuple would index dimensions
        arm = int(masked.argmax())
        if _is_revealed(revealed, arm):  # every open arm scores -inf
            arm = nth_open_arm(revealed, 0)
    return arm


def egreedy_epsilon(c: float, d: float, n: int, t: int) -> float:
    """Decaying exploration rate min(1, c·n / (d²·(t − n − 1))).

    Degenerate denominators (t ≤ n + 1) mean the schedule has not started
    decaying yet: explore with probability 1.
    """
    span = t - n - 1
    if span <= 0:
        return 1.0
    return min(1.0, (c * n) / (d * d * span))


def _check_reward(reward: float) -> float:
    reward = float(reward)
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward must lie in [0, 1], got {reward}")
    return reward


def _check_hyper(name: str, value: float, positive: bool = False) -> float:
    """A hyper-parameter must be finite and nonnegative (or positive); NaN
    would make every score NaN and the argmax a fixed arm."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be finite and {'positive' if positive else 'nonnegative'}, got {value}")
    return value


def _context_matrix(X) -> BaseMatrix:
    return X if isinstance(X, BaseMatrix) else BaseMatrix(np.asarray(X))


class Policy:
    """Base of the select/update protocol; subclasses fill in both sides.

    For :func:`make_policy`, a subclass declares the hyper-parameters its
    constructor takes as keywords (named as the CLI config keys), whether it
    is built from the base matrix X rather than an arm count, and whether it
    takes a `seed`.
    """

    n_arms: int
    params: tuple[str, ...] = ()
    contextual = False
    seeded = False

    def observe_user(self, user: int) -> None:
        """Hook called by the replay loop before each select.

        The bandit policies ignore the user's identity (shared accumulators
        across users); only the cheating oracle overrides this.
        """

    def select(self, revealed: Sequence[int], t: int) -> int:
        raise NotImplementedError

    def update(self, arm: int, reward: float) -> None:
        raise NotImplementedError


class RandomPolicy(Policy):
    """Uniform choice among the available arms."""

    seeded = True

    def __init__(self, n_arms: int, seed=None):
        self.n_arms = n_arms
        self.rng = np.random.default_rng(seed)

    def select(self, revealed, t):
        return nth_open_arm(revealed, int(self.rng.integers(_check_open(self.n_arms, revealed))))

    def update(self, arm, reward):
        _check_reward(reward)


class _CountsPolicy(Policy):
    """Per-arm play counts, reward sums and their averages (0 for arms never
    played), plus which arms were played, shared by the policies that score
    arms by average reward.

    The counts are float64, exact below 2⁵³, so ucb divides by them as they
    are.  Update reads and writes the arrays through memoryviews, which index
    to Python scalars at a fraction of numpy's per-element cost and with the
    same IEEE arithmetic.
    """

    def __init__(self, n_arms: int):
        self.n_arms = n_arms
        self.sums = np.zeros(n_arms)
        self.counts = np.zeros(n_arms)
        self.means = np.zeros(n_arms)
        self.played = np.zeros(n_arms, dtype=bool)
        self._sums, self._counts, self._means, self._played = map(
            memoryview, (self.sums, self.counts, self.means, self.played)
        )

    def update(self, arm, reward):
        reward = _check_reward(reward)
        total = self._sums[arm] + reward
        count = self._counts[arm] + 1.0
        self._sums[arm] = total
        self._counts[arm] = count
        self._means[arm] = total / count
        self._played[arm] = True


class AveragePolicy(_CountsPolicy):
    """Greedy on the observed per-arm average reward.

    Arms never played score the running global average, so an unplayed arm
    neither attracts nor repels relative to the field.
    """

    def __init__(self, n_arms: int):
        super().__init__(n_arms)
        self.total_sum = 0.0
        self.total_count = 0

    def select(self, revealed, t):
        global_mean = self.total_sum / self.total_count if self.total_count else 0.0
        return argmax_lowest(np.where(self.played, self.means, global_mean), revealed)

    def update(self, arm, reward):
        super().update(arm, reward)
        self.total_sum += float(reward)
        self.total_count += 1


class EpsilonGreedyPolicy(_CountsPolicy):
    """Explore uniformly with probability ε_t, else exploit the best average.

    ε_t decays as min(1, c·n/(d²(t−n−1))); unplayed arms count as average 0
    on the exploit branch.
    """

    params = ("c", "d")
    seeded = True

    def __init__(self, n_arms: int, c: float = DEFAULT_C, d: float = DEFAULT_D, seed=None):
        super().__init__(n_arms)
        self.c = _check_hyper("c", c, positive=True)
        self.d = _check_hyper("d", d, positive=True)
        self.rng = np.random.default_rng(seed)

    def select(self, revealed, t):
        if self.rng.random() < egreedy_epsilon(self.c, self.d, self.n_arms, t):
            return nth_open_arm(revealed, int(self.rng.integers(_check_open(self.n_arms, revealed))))
        return argmax_lowest(self.means, revealed)


class UcbPolicy(_CountsPolicy):
    """Classic frequentist UCB1 on observed averages (no context; Auer,
    Cesa-Bianchi & Fischer 2002): score_j = mean_j + √(2 ln t / t_j).

    An unplayed arm scores +inf, so while an open one exists select returns
    the lowest such arm without scoring.  Once every arm is played, the
    scores are rewritten in place in one buffer each select.
    """

    def __init__(self, n_arms: int):
        super().__init__(n_arms)
        self._scores = np.full(n_arms, np.inf)
        self._unplayed = 0  # the lowest arm never played, n_arms once all are

    def select(self, revealed, t):
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        played = True  # every arm, once all are played
        if self._unplayed < self.n_arms:
            if not _is_revealed(revealed, self._unplayed):  # then that arm is open
                return self._unplayed
            played = self.played  # a never-played arm is revealed: it keeps its +inf
        scores = self._scores
        np.divide(2.0 * math.log(t), self.counts, out=scores, where=played)
        np.sqrt(scores, out=scores)
        scores += self.means
        return argmax_lowest(scores, revealed)

    def update(self, arm, reward):
        super().update(arm, reward)
        if arm == self._unplayed:
            played, nxt = self._played, arm + 1
            while nxt < self.n_arms and played[nxt]:
                nxt += 1
            self._unplayed = nxt


class Exp3Policy(Policy):
    """Adversarial exponential-weights sampler.

    The mixture p_j = (1 − γ)·w_j/Σw + γ/n is formed over all arms, then
    restricted to the available set and renormalized; the importance weight
    on update uses the actual (restricted) selection probability, keeping
    the reward estimate unbiased under the replay protocol's shrinking arm
    sets.

    The weights sit in a Fenwick tree of prefix sums (Fenwick 1994).  A draw
    is one descent over the open-arm mixture, which takes the revealed arms'
    weights out of each node it reads, so select costs
    O(|revealed| + log n · log |revealed|) and update O(log n).  The one
    uniform variate per select is mapped by inverse CDF in arm-index order,
    as ``Generator.choice`` maps it.
    """

    params = ("gamma",)
    seeded = True

    def __init__(self, n_arms: int, gamma: float = DEFAULT_GAMMA, seed=None):
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
        self.n_arms = n_arms
        self.gamma = gamma
        self.rng = np.random.default_rng(seed)
        self._pending = None  # (arm, probability) from the last select
        self.set_weights(np.ones(n_arms))

    @property
    def weights(self) -> np.ndarray:
        """A copy of the current weights."""
        return np.array(self._w)

    def set_weights(self, weights) -> None:
        """Replace the weights, which must be positive and finite, and
        rebuild the tree from them."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.n_arms,) or not np.all((w > 0.0) & (w < np.inf)):
            raise ValueError(f"weights must be {self.n_arms} positive finite values")
        self._w = w.tolist()
        self._rebuild()

    def _rebuild(self) -> None:
        """Rebuild the tree and Σw from the weights, dropping the rounding
        the incremental updates accumulated."""
        n = self.n_arms
        tree = [0.0, *self._w]  # 1-based: tree[i] sums weights (i − lowbit(i), i]
        for i in range(1, n + 1):
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]
        self._tree = tree
        self._total = math.fsum(self._w)
        self._top = max(self._w, default=0.0)
        self._stale = 0  # updates since the rebuild

    def select(self, revealed, t):
        n = self.n_arms
        n_open = _check_open(n, revealed)
        w, tree = self._w, self._tree
        rev_cum = list(itertools.accumulate((w[r] for r in revealed), initial=0.0))
        a = (1.0 - self.gamma) / self._total
        b = self.gamma / n
        mass = a * (self._total - rev_cum[-1]) + b * n_open
        rest = self.rng.random() * mass
        # Descend to the first arm whose open cumulative mass exceeds rest;
        # i counts the revealed arms below pos.
        pos = i = 0
        step = 1 << (n.bit_length() - 1)
        while step:
            nxt = pos + step
            if nxt <= n:
                j = bisect.bisect_left(revealed, nxt, i)
                node = a * (tree[nxt] - (rev_cum[j] - rev_cum[i])) + b * (step - (j - i))
                if node <= rest:
                    rest -= node
                    pos, i = nxt, j
            step >>= 1
        # Rounding can leave pos on a revealed arm or past the end: take the
        # next open arm, or the last one at the top end.
        arm = pos
        while i < len(revealed) and revealed[i] == arm:
            arm += 1
            i += 1
        if arm >= n:
            arm = nth_open_arm(revealed, n_open - 1)
        self._pending = (arm, (a * w[arm] + b) / mass)
        return arm

    def update(self, arm, reward):
        reward = _check_reward(reward)
        if self._pending is None or self._pending[0] != arm:
            raise RuntimeError("update must follow select with the arm select returned")
        _, prob = self._pending
        self._pending = None
        old = self._w[arm]
        new = self._w[arm] = old * math.exp(self.gamma * (reward / prob) / self.n_arms)
        self._top = max(self._top, new)  # weights never shrink
        # rescaling leaves the mixture distribution unchanged
        if self._top > 1e150:
            top = self._top
            self._w = [x / top for x in self._w]
            self._rebuild()
            return
        delta = new - old
        self._total += delta
        n, tree = self.n_arms, self._tree
        i = arm + 1
        while i <= n:
            tree[i] += delta
            i += i & -i
        self._stale += 1
        if self._stale >= n:  # bounds the drift at amortized O(1)
            self._rebuild()


class ThompsonPolicy(Policy):
    """Posterior sampling on a shared Bayesian linear reward model.

    The model has design A = I + Σ x xᵀ and accumulator b = Σ r·x over all
    arms; each select draws θ̃ ~ N(A⁻¹b, v²A⁻¹) and plays the available arm
    maximizing θ̃ᵀx_j (Agrawal & Goyal, ICML 2013).  v = 0 degenerates to the
    posterior-mean greedy.

    A itself is never stored.  The upper triangle of ``A_inv`` (its lower
    triangle is stale) is kept current by the symmetric Sherman–Morrison
    rank-one downdate, and since A = I + X diag(counts) Xᵀ
    an exact draw needs only A⁻¹ and the per-arm play counts (see
    :meth:`sample_theta`), so every step is O(k² + k·n) with no factorization.
    """

    params = ("v",)
    contextual = True
    seeded = True

    def __init__(self, X, v: float = DEFAULT_V, seed=None):
        _check_hyper("v", v)
        base = _context_matrix(X)
        self.X = base.X
        self.n_arms = base.n_arms
        self.v = v
        self.rng = np.random.default_rng(seed)
        k = base.k
        # Fortran order lets dsyr downdate the upper triangle in place
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
            return dsymv(1.0, self.A_inv, self.b)
        k = len(self.b)
        eps = self.rng.standard_normal(k + self.n_arms)
        noise = eps[:k]
        noise += self.X @ (np.sqrt(self.counts) * eps[k:])
        noise *= self.v
        noise += self.b
        return dsymv(1.0, self.A_inv, noise)

    def select(self, revealed, t):
        return argmax_lowest(self.sample_theta() @ self.X, revealed)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        x = self.X[:, arm]
        u = dsymv(1.0, self.A_inv, x)
        # A⁻¹ ← A⁻¹ − u uᵀ / (1 + xᵀu), in place
        self.A_inv = dsyr(-1.0 / (1.0 + x @ u), u, a=self.A_inv, overwrite_a=True)
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

    params = ("alpha",)
    contextual = True

    def __init__(self, X, alpha: float = DEFAULT_ALPHA, dense_inversion: bool = True):
        _check_hyper("alpha", alpha)
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

    def score(self, j: int) -> float:
        if self.dense_inversion:
            x = self.X[:, j]
            A_inv = np.linalg.inv(self.design_matrix(j))
            theta = A_inv @ (self.reward_sums[j] * x)
            return float(theta @ x + self.alpha * np.sqrt(x @ A_inv @ x))
        s = self.norms_sq[j]
        q = s / (1.0 + self.counts[j] * s)
        return self.reward_sums[j] * q + self.alpha * math.sqrt(q)

    def select(self, revealed, t):
        return argmax_lowest(self._scores, revealed)

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
    """

    params = ("alpha",)
    contextual = True

    def __init__(self, X, alpha: float = DEFAULT_ALPHA):
        _check_hyper("alpha", alpha)
        base = _context_matrix(X)
        self.n_arms = base.n_arms
        self.alpha = alpha
        norms_sq = base.column_norms_sq
        self._q = norms_sq / (1.0 + norms_sq)
        self.widths = np.sqrt(self._q)
        self.widths.flags.writeable = False
        self.reward_sums = np.zeros(self.n_arms)
        self._scores = self.reward_sums * self._q + alpha * self.widths
        self._sums_mv, self._q_mv, self._widths_mv, self._scores_mv = map(
            memoryview, (self.reward_sums, self._q, self.widths, self._scores)
        )

    def score(self, j: int) -> float:
        return float(self._scores[j])

    def select(self, revealed, t):
        return argmax_lowest(self._scores, revealed)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        if reward == 0.0:  # S_j and the score stay as they are
            return
        total = self._sums_mv[arm] + reward
        self._sums_mv[arm] = total
        self._scores_mv[arm] = total * self._q_mv[arm] + self.alpha * self._widths_mv[arm]


class OraclePolicy(Policy):
    """Baseline that peeks at the held-out ratings, for the tests and the
    benchmark's zero-regret check.

    Plays the available arm with the current user's highest held-out rating
    (0 for unrated arms), which achieves the best-known value every step and
    hence exactly zero cumulative regret.  Never a real policy — it reads
    the answer key — but it pins down the evaluator's regret accounting.

    It reads each user's ratings from per-user rating lists, O(ratings)
    memory in all.
    """

    def __init__(self, evaluation: RatingDataset):
        evaluation.check_normalized("evaluation")
        self.n_arms = evaluation.n_items
        self._rows = evaluation.user_rows
        self._user = None

    def observe_user(self, user):
        self._user = user

    def select(self, revealed, t):
        if self._user is None:
            raise RuntimeError("oracle needs observe_user before select")
        _check_open(self.n_arms, revealed)
        items, ratings = self._rows.row(self._user)
        # revealed ratings drop below every open arm's; items ascend, so
        # argmax keeps the lowest of tied arms
        hidden = np.where(np.isin(items, revealed), -1.0, ratings)
        if len(hidden) and hidden.max() > 0.0:
            return int(items[hidden.argmax()])
        # every open arm is unrated or rated 0: the lowest one ties for best
        return nth_open_arm(revealed, 0)

    def update(self, arm, reward):
        _check_reward(reward)


POLICIES: dict[str, type[Policy]] = {
    "random": RandomPolicy,
    "aver": AveragePolicy,
    "egreedy": EpsilonGreedyPolicy,
    "ucb": UcbPolicy,
    "exp3": Exp3Policy,
    "thompson": ThompsonPolicy,
    "linucb": LinUcbPolicy,
    "alinucb": ALinUcbPolicy,
}

POLICY_IDS = tuple(POLICIES)

_HYPER_PARAMS = {name for cls in POLICIES.values() for name in cls.params}


def make_policy(policy_id: str, X: BaseMatrix, seed=None, **hyper) -> Policy:
    """Instantiate a policy by its CLI id over the base matrix X; a
    non-contextual policy takes only its arm count, ``X.n_arms``.

    `hyper` holds hyper-parameters by name (alpha, c, d, gamma, v); each
    policy takes the ones it declares in ``params`` and ignores the rest, and
    those it is not given keep their defaults.
    """
    if policy_id not in POLICIES:
        raise ValueError(f"unknown policy {policy_id!r}; choose from {POLICY_IDS}")
    unknown = set(hyper) - _HYPER_PARAMS
    if unknown:
        raise TypeError(f"unknown hyper-parameters {sorted(unknown)}; choose from {sorted(_HYPER_PARAMS)}")
    cls = POLICIES[policy_id]
    kwargs = {name: hyper[name] for name in cls.params if name in hyper}
    if cls.seeded:
        kwargs["seed"] = seed
    return cls(X if cls.contextual else X.n_arms, **kwargs)

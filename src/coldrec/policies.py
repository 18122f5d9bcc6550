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
adapted variant removes; ``linucb-cf`` scores the same designs in closed form.
Thompson sampling keeps a square-root factor of its posterior projected
onto the arms, one n×k matrix and no k×k one, so its step is O(k·n): each
select reads the factor once, and the updates' rank-one steps wait in two
thin blocks until one matrix product folds a full block into the factor.
"""

from __future__ import annotations

import bisect
import inspect
import itertools
import math
from collections.abc import Sequence

import numpy as np
from scipy.linalg.blas import dgemm

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
    "ClosedFormLinUcbPolicy",
    "ALinUcbPolicy",
    "OraclePolicy",
    "make_policy",
    "policy_params",
    "HYPER_RULES",
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

# Each hyper-parameter's range: (predicate, what the predicate requires).  The
# config checks its key of the same name with the same pair.
HYPER_RULES = {
    "alpha": (lambda value: value >= 0, "nonnegative"),
    "c": (lambda value: value > 0, "positive"),
    "d": (lambda value: value > 0, "positive"),
    "gamma": (lambda value: 0 < value <= 1, "in (0, 1]"),
    "v": (lambda value: value >= 0, "nonnegative"),
}


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
    decaying yet: explore with probability 1, as when d² underflows to 0.
    """
    span = t - n - 1
    if span <= 0 or d * d == 0.0:
        return 1.0
    return min(1.0, (c * n) / (d * d * span))


class _DrawStream:
    """A policy's own PCG64 stream, read in blocks of raw words and spent bit for bit as ``Generator.random()``
    and ``.integers(n)`` spend it, without numpy's per-call cost.  random() is a word w as (w >> 11)·2⁻⁵³.
    integers(n), n ≤ 2³², is Lemire's multiply-and-reject (ACM TOMACS 2019) on 32-bit halves: a word's low
    half first, its high half held for the next one, as the bit generator holds it.  n = 1 reads nothing."""

    __slots__ = ("_word", "_half")
    BLOCK = 256  # raw words read per refill

    def __init__(self, rng: np.random.Generator):
        raw = rng.bit_generator.random_raw
        words = itertools.chain.from_iterable(iter(lambda: raw(_DrawStream.BLOCK).tolist(), None))  # endless
        self._word, self._half = words.__next__, None  # _word() reads on, one block of words at a time

    def _uint32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            word = self._word()
            half, self._half = word & 0xFFFFFFFF, word >> 32
        return half

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int) -> int:
        m = self._uint32() * n if n > 1 else 0
        while m & 0xFFFFFFFF < n and m & 0xFFFFFFFF < (1 << 32) % n:  # the threshold 2³² mod n is below n
            m = self._uint32() * n
        return m >> 32


def _draw_stream(seed, n_arms: int):
    """``default_rng(seed)`` read through a :class:`_DrawStream`, or as it is when the caller may share it (a
    Generator or BitGenerator seed, which reading ahead would move) or over 2³² arms take 64-bit draws."""
    rng = np.random.default_rng(seed)
    shared = isinstance(seed, (np.random.Generator, np.random.BitGenerator))
    return rng if shared or n_arms > 2**32 else _DrawStream(rng)


def _check_reward(reward: float) -> float:
    reward = float(reward)
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward must lie in [0, 1], got {reward}")
    return reward


def _check_hyper(name: str, value: float) -> float:
    """A hyper-parameter must be finite and in its HYPER_RULES range; NaN
    would make every score NaN and the argmax a fixed arm."""
    in_range, requirement = HYPER_RULES[name]
    if not (math.isfinite(value) and in_range(value)):
        raise ValueError(f"{name} must be finite and {requirement}, got {value}")
    return value


def _context_matrix(X) -> BaseMatrix:
    return X if isinstance(X, BaseMatrix) else BaseMatrix(np.asarray(X))


class Policy:
    """Base of the select/update protocol: subclasses fill in select, and update if a reward moves their state.

    :func:`make_policy` reads a registered subclass's constructor: a first
    parameter named ``X`` takes the base matrix, any other name the arm
    count; a ``seed`` keyword takes the cell's seed; and each keyword named
    in HYPER_RULES (the CLI config key of the same name) is a hyper-parameter.
    """

    n_arms: int

    def observe_user(self, user: int) -> None:
        """Hook called by the replay loop before each select.

        The bandit policies ignore the user's identity (shared accumulators
        across users); only the cheating oracle overrides this.
        """

    def select(self, revealed: Sequence[int], t: int) -> int:
        raise NotImplementedError

    def update(self, arm: int, reward: float) -> None:
        _check_reward(reward)


class RandomPolicy(Policy):
    """Uniform choice among the available arms."""

    def __init__(self, n_arms: int, seed=None):
        self.n_arms = n_arms
        self.rng = _draw_stream(seed, n_arms)

    def select(self, revealed, t):
        return nth_open_arm(revealed, int(self.rng.integers(_check_open(self.n_arms, revealed))))


class _CountsPolicy(Policy):
    """Per-arm play counts, reward sums and their averages (0 for arms never
    played), which arms were played and the lowest arm never played, shared
    by the policies that score arms by average reward.

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
        self._unplayed = 0  # the lowest arm never played, n_arms once all are

    def update(self, arm, reward):
        reward = _check_reward(reward)
        total = self._sums[arm] + reward
        count = self._counts[arm] + 1.0
        self._sums[arm] = total
        self._counts[arm] = count
        self._means[arm] = total / count
        self._played[arm] = True
        if arm == self._unplayed:
            self._unplayed = next((j for j in range(arm + 1, self.n_arms) if not self._played[j]), self.n_arms)


class AveragePolicy(_CountsPolicy):
    """Greedy on the observed per-arm average reward.

    Arms never played score the running global average, so an unplayed arm
    neither attracts nor repels relative to the field.  Select scores no
    array: the best open played arm (by means kept at −inf for arms never
    played) meets the lowest open arm never played, the lower on a tie.
    """

    def __init__(self, n_arms: int):
        super().__init__(n_arms)
        self.total_sum = 0.0
        self.total_count = 0
        self._played_means = np.full(n_arms, -np.inf)
        self._pm = memoryview(self._played_means)

    def select(self, revealed, t):
        best = argmax_lowest(self._played_means, revealed)
        fresh = self._unplayed
        while fresh < self.n_arms and (self._played[fresh] or _is_revealed(revealed, fresh)):
            fresh += 1
        global_mean = self.total_sum / self.total_count if self.total_count else 0.0
        score = self._pm[best]  # −inf if no open arm was played; fresh is n_arms if every open arm was
        return best if fresh == self.n_arms or score > global_mean or (score == global_mean and best < fresh) else fresh

    def update(self, arm, reward):
        super().update(arm, reward)
        self._pm[arm] = self._means[arm]
        self.total_sum += float(reward)
        self.total_count += 1


class EpsilonGreedyPolicy(_CountsPolicy):
    """Explore uniformly with probability ε_t, else exploit the best average.

    ε_t decays as min(1, c·n/(d²(t−n−1))); unplayed arms count as average 0
    on the exploit branch.
    """

    def __init__(self, n_arms: int, c: float = DEFAULT_C, d: float = DEFAULT_D, seed=None):
        super().__init__(n_arms)
        self.c = _check_hyper("c", c)
        self.d = _check_hyper("d", d)
        self.rng = _draw_stream(seed, n_arms)

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

    def __init__(self, n_arms: int, gamma: float = DEFAULT_GAMMA, seed=None):
        self.n_arms = n_arms
        self.gamma = _check_hyper("gamma", gamma)
        self.rng = _draw_stream(seed, n_arms)
        self._pending = None  # (arm, probability) from the last select
        self._w = [1.0] * n_arms
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
        if new > 1e150:  # weights only grow, so the one just raised is the first past the bound
            top = max(self._w)  # rescaling leaves the mixture distribution unchanged
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


# How many rank-one steps ThompsonPolicy collects before one dgemm folds
# them into its factor; 8 and 16 were fastest at k = 100–800 (ROADMAP).
_FOLD_BLOCK = 16


class ThompsonPolicy(Policy):
    """Posterior sampling on a shared Bayesian linear reward model.

    The model has design A = I + Σ x xᵀ and accumulator b = Σ r·x over all
    arms; each select draws θ̃ ~ N(A⁻¹b, v²A⁻¹) and plays the available arm
    maximizing θ̃ᵀx_j (Agrawal & Goyal, ICML 2013).  v = 0 degenerates to the
    posterior-mean greedy.

    Only the arms' scores θ̃ᵀX are ever needed, so neither A, A⁻¹ nor X is
    stored.  With a square-root factor L of A⁻¹ (LLᵀ = A⁻¹), the policy keeps
    the n×k matrix ``K`` = XᵀL and the k-vector ``h`` = Lᵀb; the scores
    K(h + v·z), z ~ N(0, I_k), have mean XᵀA⁻¹b and covariance v²XᵀA⁻¹X,
    exactly those of θ̃ᵀX.  An observation of arm a is Potter's square-root
    update (Potter & Stern 1963; Bierman 1977): with p = Lᵀx_a, row a
    of the factor, L ← L(I − βppᵀ) where β = 1/(σ(1 + σ)) and σ = √(1 + pᵀp).
    So a step costs O(k·n) and no k×k matrix exists.  The rank-one steps
    K ← K − β(Kp)pᵀ wait in blocks: the factor in force is K_eff = K − U Pᵀ
    over the first ``m`` columns of ``U`` (n×B) and ``P`` (k×B), which hold
    each step's β·K_eff p and p.  An update reads p = K_eff[a] in O(k·B).
    The next select forms Kp and Ky in one read of K, corrects both by
    U(Pᵀ[p, y]), scores arms by K_eff y − β(pᵀy)K_eff p and appends the
    step to U and P; an update with no select since the last one appends
    it first.  Every B = ``_FOLD_BLOCK`` steps one in-place dgemm folds
    K ← K − U Pᵀ.
    """

    def __init__(self, X, v: float = DEFAULT_V, seed=None):
        _check_hyper("v", v)
        base = _context_matrix(X)
        self.n_arms = base.n_arms
        self.v = v
        self.rng = np.random.default_rng(seed)
        self.K = np.array(base.X.T, order="C")  # L = I; C order makes each row K[a] one contiguous read
        self.h = np.zeros(base.k)
        # K_eff = K − U[:, :m] P[:, :m]ᵀ; in Fortran order dgemm takes U and P as they are
        self.U = np.zeros((self.n_arms, _FOLD_BLOCK), order="F")
        self.P = np.zeros((base.k, _FOLD_BLOCK), order="F")
        self.m = 0
        # row 0 holds the pending step's p, row 1 the vector select scores with
        self._py = np.zeros((2, base.k))
        self._beta = 0.0  # the pending step's β; 0 once it is in U and P

    def _scores(self, y: np.ndarray) -> np.ndarray:
        """K_eff'y, where K_eff' is K_eff after the pending step, which this
        appends to U and P, folding them into K once they are full."""
        py, m, beta = self._py, self.m, self._beta
        py[1] = y
        KpKy = py.dot(self.K.T)  # one read of K
        if m:
            KpKy -= py.dot(self.P[:, :m]).dot(self.U[:, :m].T)
        Kp, Ky = KpKy
        if beta:
            Ky -= (beta * (py[0] @ y)) * Kp
            np.multiply(Kp, beta, out=self.U[:, m])
            self.P[:, m] = py[0]
            self._beta = 0.0
            self.m = m = m + 1
            if m == _FOLD_BLOCK:  # Kᵀ ← Kᵀ − P Uᵀ in place
                dgemm(-1.0, self.P, self.U, beta=1.0, c=self.K.T, trans_b=True, overwrite_c=True)
                self.m = 0
        return Ky

    def sample_scores(self) -> np.ndarray:
        """One draw of the arms' scores θ̃ᵀX = K_eff(h + v·z), z ~ N(0, I_k)."""
        return self._scores(self.h + self.v * self.rng.standard_normal(len(self.h)))

    def select(self, revealed, t):
        return argmax_lowest(self.sample_scores(), revealed)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        if self._beta:  # no select since the last update
            self._scores(np.zeros(len(self.h)))
        m, p = self.m, self._py[0]
        np.subtract(self.K[arm], self.P[:, :m].dot(self.U[arm, :m]), out=p)  # K_eff[a] = Lᵀx_a
        sigma = math.sqrt(1.0 + p @ p)
        beta = 1.0 / (sigma * (1.0 + sigma))
        # h ← (I − βppᵀ)(h + r·p)
        h = self.h
        h += reward * p
        h -= (beta * (p @ h)) * p
        self._beta = beta


class LinUcbPolicy(Policy):
    """Disjoint-arms LinUCB with per-arm growing design matrices.

    Each arm's design matrix after t_j updates is I + t_j·x_jx_jᵀ (every
    observation of an arm repeats the same context row), so only the scalar
    pair (t_j, reward sum) is stored and the matrix is rebuilt on demand.
    Every re-score explicitly inverts that k×k matrix: this is the dense
    O(k³) baseline that timing comparisons must use.
    """

    def __init__(self, X, alpha: float = DEFAULT_ALPHA):
        _check_hyper("alpha", alpha)
        base = _context_matrix(X)
        self.X = base.X
        self.n_arms = base.n_arms
        self.alpha = alpha
        self.norms_sq = base.column_norms_sq
        self.counts = np.zeros(self.n_arms, dtype=np.int64)
        self.reward_sums = np.zeros(self.n_arms)
        # t_j = 0 for every arm: A_j = I, theta = 0, width = ‖x_j‖
        self._scores = alpha * np.sqrt(self.norms_sq)

    def design_matrix(self, j: int) -> np.ndarray:
        x = self.X[:, j]
        return np.eye(len(x)) + self.counts[j] * np.outer(x, x)

    def score(self, j: int) -> float:
        x = self.X[:, j]
        A_inv = np.linalg.inv(self.design_matrix(j))
        theta = A_inv @ (self.reward_sums[j] * x)
        return float(theta @ x + self.alpha * np.sqrt(x @ A_inv @ x))

    def select(self, revealed, t):
        return argmax_lowest(self._scores, revealed)

    def update(self, arm, reward):
        reward = _check_reward(reward)
        self.counts[arm] += 1
        self.reward_sums[arm] += reward
        self._scores[arm] = self.score(arm)


class ClosedFormLinUcbPolicy(LinUcbPolicy):
    """LinUCB on the same growing designs, each re-score O(1) by the rank-one inverse identity
    (Sherman–Morrison; Li, Chu, Langford & Schapire, WWW 2010): with s_j = ‖x_j‖², the width
    term x_jᵀA_j⁻¹x_j is q = s_j/(1 + t_j·s_j), and score_j = S_j·q + α·√q."""

    def score(self, j: int) -> float:
        s = self.norms_sq[j]
        q = s / (1.0 + self.counts[j] * s)
        return self.reward_sums[j] * q + self.alpha * math.sqrt(q)


class ALinUcbPolicy(Policy):
    """Adapted LinUCB with the design matrix frozen at A_j = I + x_jx_jᵀ.

    Freezing makes the confidence width constant over the whole run and the
    inverse closed-form, so per-arm state collapses to the reward sum S_j:

        score_j = S_j·‖x_j‖²/(1+‖x_j‖²) + α·√(‖x_j‖²/(1+‖x_j‖²))
    """

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

    It reads each user's run of ratings in the evaluation set, O(ratings)
    memory in all.
    """

    def __init__(self, evaluation: RatingDataset):
        evaluation.check_normalized("evaluation")
        self.n_arms = evaluation.n_items
        self._evaluation = evaluation
        self._user = None

    def observe_user(self, user):
        self._user = user

    def select(self, revealed, t):
        if self._user is None:
            raise RuntimeError("oracle needs observe_user before select")
        _check_open(self.n_arms, revealed)
        ds = self._evaluation
        lo, hi = ds.starts.item(self._user), ds.starts.item(self._user + 1)
        items, ratings = ds.items[lo:hi], ds.ratings[lo:hi]
        # revealed ratings drop below every open arm's; items ascend, so
        # argmax keeps the lowest of tied arms
        hidden = np.where(np.isin(items, revealed), -1.0, ratings)
        if len(hidden) and hidden.max() > 0.0:
            return int(items[hidden.argmax()])
        # every open arm is unrated or rated 0: the lowest one ties for best
        return nth_open_arm(revealed, 0)


POLICIES: dict[str, type[Policy]] = {
    "random": RandomPolicy,
    "aver": AveragePolicy,
    "egreedy": EpsilonGreedyPolicy,
    "ucb": UcbPolicy,
    "exp3": Exp3Policy,
    "thompson": ThompsonPolicy,
    "linucb": LinUcbPolicy,
    "linucb-cf": ClosedFormLinUcbPolicy,
    "alinucb": ALinUcbPolicy,
}

POLICY_IDS = tuple(POLICIES)


def policy_params(policy_id: str) -> tuple[str, ...]:
    """The hyper-parameters a registered policy's constructor takes, in signature order."""
    return tuple(name for name in inspect.signature(POLICIES[policy_id]).parameters if name in HYPER_RULES)


def make_policy(policy_id: str, X: BaseMatrix | np.ndarray, seed=None, **hyper) -> Policy:
    """Instantiate a policy by its CLI id over the base matrix X (a
    BaseMatrix or an array), as :class:`Policy` describes; a non-contextual
    policy takes only its arm count, ``X.n_arms``.

    `hyper` holds hyper-parameters by name (alpha, c, d, gamma, v); each
    policy takes the ones its constructor names and ignores the rest, and
    those it is not given keep their defaults.
    """
    if policy_id not in POLICIES:
        raise ValueError(f"unknown policy {policy_id!r}; choose from {POLICY_IDS}")
    unknown = set(hyper) - set(HYPER_RULES)
    if unknown:
        raise TypeError(f"unknown hyper-parameters {sorted(unknown)}; choose from {sorted(HYPER_RULES)}")
    cls = POLICIES[policy_id]
    first, *names = inspect.signature(cls).parameters
    X = _context_matrix(X)
    kwargs = {name: hyper[name] for name in names if name in hyper}
    if "seed" in names:
        kwargs["seed"] = seed
    return cls(X if first == "X" else X.n_arms, **kwargs)

"""Slow references for the index policies ``alinucb``, ``egreedy``, ``aver``
and ``ucb``, and for ``random``.

Each index policy scores every arm on every select and takes one argmax
over the open arms, and updates its numpy arrays element by element: the
policies' select and update before their scalar updates and ``ucb``'s
never-played-arm shortcut.  The seeded ones draw from a plain
``np.random.default_rng(seed)``, one numpy call per draw, and index the
available array with the draw.  The fast policies must pick the same arm at
every step.
"""

import math

import numpy as np

from coldrec.impute import BaseMatrix
from coldrec.policies import DEFAULT_ALPHA, DEFAULT_C, DEFAULT_D, Policy, egreedy_epsilon


def open_arms(n_arms, revealed):
    """The available arms, ascending."""
    is_open = np.ones(n_arms, dtype=bool)
    is_open[np.asarray(revealed, dtype=np.int64)] = False
    available = np.flatnonzero(is_open)
    if len(available) == 0:
        raise ValueError("available arm set is empty")
    return available


def argmax_open(scores, revealed):
    """The open arm with the highest score, lowest index on ties."""
    available = open_arms(len(scores), revealed)
    return int(available[np.argmax(scores[available])])


class AvailableRandom(Policy):
    def __init__(self, n_arms, seed=None):
        self.n_arms = n_arms
        self.rng = np.random.default_rng(seed)

    def select(self, revealed, t):
        available = open_arms(self.n_arms, revealed)
        return int(available[self.rng.integers(len(available))])


class ArgmaxCounts(Policy):
    def __init__(self, n_arms):
        self.n_arms = n_arms
        self.sums = np.zeros(n_arms)
        self.counts = np.zeros(n_arms, dtype=np.int64)
        self.means = np.zeros(n_arms)
        self.played = np.zeros(n_arms, dtype=bool)

    def update(self, arm, reward):
        self.sums[arm] += reward
        self.counts[arm] += 1
        self.means[arm] = self.sums[arm] / self.counts[arm]
        self.played[arm] = True


class ArgmaxAverage(ArgmaxCounts):
    def __init__(self, n_arms):
        super().__init__(n_arms)
        self.total_sum = 0.0
        self.total_count = 0

    def select(self, revealed, t):
        global_mean = self.total_sum / self.total_count if self.total_count else 0.0
        return argmax_open(np.where(self.played, self.means, global_mean), revealed)

    def update(self, arm, reward):
        super().update(arm, reward)
        self.total_sum += float(reward)
        self.total_count += 1


class ArgmaxEgreedy(ArgmaxCounts):
    def __init__(self, n_arms, c=DEFAULT_C, d=DEFAULT_D, seed=None):
        super().__init__(n_arms)
        self.c, self.d = c, d
        self.rng = np.random.default_rng(seed)

    def select(self, revealed, t):
        available = open_arms(self.n_arms, revealed)
        if self.rng.random() < egreedy_epsilon(self.c, self.d, self.n_arms, t):
            return int(available[self.rng.integers(len(available))])
        return argmax_open(self.means, revealed)


class ArgmaxUcb(ArgmaxCounts):
    def select(self, revealed, t):
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(self.played, self.means + np.sqrt(2.0 * math.log(t) / self.counts), np.inf)
        return argmax_open(scores, revealed)


class ArgmaxALinUcb(Policy):
    def __init__(self, X, alpha=DEFAULT_ALPHA):
        base = X if isinstance(X, BaseMatrix) else BaseMatrix(np.asarray(X))
        self.n_arms = base.n_arms
        self.alpha = alpha
        self.q = base.column_norms_sq / (1.0 + base.column_norms_sq)
        self.widths = np.sqrt(self.q)
        self.reward_sums = np.zeros(self.n_arms)
        self.scores = self.reward_sums * self.q + alpha * self.widths

    def select(self, revealed, t):
        return argmax_open(self.scores, revealed)

    def update(self, arm, reward):
        self.reward_sums[arm] += reward
        self.scores[arm] = self.reward_sums[arm] * self.q[arm] + self.alpha * self.widths[arm]

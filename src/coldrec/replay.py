"""Offline replay of the sequential recommendation protocol.

Each step draws an evaluation user uniformly among those who still have
un-revealed arms, asks the policy for one of that user's un-revealed arms,
reveals the held-out rating (zero when the user never rated the arm), and
charges regret against the user's best still-hidden known rating.  A
(user, arm) pair is revealed at most once over the whole run.

User draws and policy randomness come from separate generators, so swapping
the policy never perturbs the user sequence for a given replay seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .data import RatingDataset, atomic_write
from .policies import Policy

__all__ = [
    "RegretTrace",
    "RevealLog",
    "best_surrogate",
    "run_replay",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_HEADER",
]

TRACE_HEADER = "t,user,arm,revealed,best,increment,cumulative"


def best_surrogate(ratings_by_arm, already_revealed) -> float:
    """Highest known rating among arms not yet revealed to this user; 0 if
    nothing known remains.

    Stand-in for the unobservable per-step optimum: the best the recommender
    could still have scored with this user's held-out ratings.
    """
    best = 0.0
    for arm, rating in ratings_by_arm.items():
        if arm not in already_revealed and rating > best:
            best = float(rating)
    return best


class RevealLog:
    """Reveal bookkeeping for one replay run.

    Holds the held-out ratings as dense lookups and guarantees each
    (user, arm) pair is revealed at most once.
    """

    def __init__(self, evaluation: RatingDataset):
        m, n = evaluation.n_users, evaluation.n_items
        self.n_arms = n
        self.ratings = np.zeros((m, n))
        self.known = np.zeros((m, n), dtype=bool)
        self.ratings[evaluation.users, evaluation.items] = evaluation.ratings
        self.known[evaluation.users, evaluation.items] = True
        self.revealed = np.zeros((m, n), dtype=bool)
        self.arms_left = np.full(m, n, dtype=np.int64)

    def available(self, user: int) -> np.ndarray:
        """Arms not yet revealed to this user, ascending."""
        return np.flatnonzero(~self.revealed[user])

    def best_hidden_known(self, user: int) -> float:
        """The best-surrogate value: max known rating still unrevealed."""
        hidden = self.known[user] & ~self.revealed[user]
        return float(self.ratings[user][hidden].max()) if hidden.any() else 0.0

    def reveal(self, user: int, arm: int) -> float:
        """Consume one (user, arm) pair: the held-out rating, or the zero
        fill when the user never rated the arm.  Repeats are rejected."""
        if not 0 <= arm < self.n_arms or self.revealed[user, arm]:
            raise RuntimeError(f"arm {arm} is not available for user {user}")
        self.revealed[user, arm] = True
        self.arms_left[user] -= 1
        return float(self.ratings[user, arm]) if self.known[user, arm] else 0.0


@dataclass
class RegretTrace:
    """Per-step log of one replay run plus the timing of its decision loop."""

    t: np.ndarray
    user: np.ndarray
    arm: np.ndarray
    revealed: np.ndarray
    best: np.ndarray
    increment: np.ndarray
    cumulative: np.ndarray
    wall_time_seconds: float
    exhausted: bool = False

    @property
    def steps(self) -> int:
        return len(self.t)

    @property
    def final_regret(self) -> float:
        return float(self.cumulative[-1]) if self.steps else 0.0


def run_replay(policy: Policy, evaluation: RatingDataset, T: int, seed=None) -> RegretTrace:
    """Run the replay protocol for T steps (or until every user is spent).

    The wall clock covers the decision loop only; building the dense lookup
    tables happens outside the timed region.
    """
    if T < 1:
        raise ValueError(f"horizon T must be >= 1, got {T}")
    if evaluation.n_ratings == 0:
        raise ValueError("evaluation dataset is empty")
    n_arms = policy.n_arms
    if evaluation.n_items != n_arms:
        raise ValueError(
            f"policy scores {n_arms} arms but evaluation has {evaluation.n_items} items"
        )
    if evaluation.ratings.min() < 0.0 or evaluation.ratings.max() > 1.0:
        raise ValueError("evaluation ratings must be normalized to [0, 1]")

    log = RevealLog(evaluation)
    pool = np.arange(evaluation.n_users)
    pool_size = evaluation.n_users

    user_rng = np.random.default_rng(seed)

    t_log = np.empty(T, dtype=np.int64)
    user_log = np.empty(T, dtype=np.int64)
    arm_log = np.empty(T, dtype=np.int64)
    revealed_log = np.empty(T)
    best_log = np.empty(T)
    increment_log = np.empty(T)
    cumulative_log = np.empty(T)

    steps = 0
    total = 0.0
    exhausted = False
    start = time.perf_counter()
    for t in range(1, T + 1):
        if pool_size == 0:
            exhausted = True
            break
        idx = user_rng.integers(pool_size)
        user = int(pool[idx])

        policy.observe_user(user)
        available = log.available(user)
        best = log.best_hidden_known(user)

        arm = int(policy.select(available, t))
        try:
            reward = log.reveal(user, arm)
        except RuntimeError as exc:
            raise RuntimeError(f"policy violated the protocol at step {t}: {exc}") from None
        if log.arms_left[user] == 0:
            pool_size -= 1
            pool[idx] = pool[pool_size]

        policy.update(arm, reward)

        total += best - reward
        t_log[steps] = t
        user_log[steps] = user
        arm_log[steps] = arm
        revealed_log[steps] = reward
        best_log[steps] = best
        increment_log[steps] = best - reward
        cumulative_log[steps] = total
        steps += 1
    wall = time.perf_counter() - start

    return RegretTrace(
        t=t_log[:steps],
        user=user_log[:steps],
        arm=arm_log[:steps],
        revealed=revealed_log[:steps],
        best=best_log[:steps],
        increment=increment_log[:steps],
        cumulative=cumulative_log[:steps],
        wall_time_seconds=wall,
        exhausted=exhausted,
    )


def write_trace_csv(trace: RegretTrace, path) -> None:
    """One row per step, written atomically; floats use shortest-repr
    formatting so identical runs produce identical bytes."""
    ints = [np.asarray(col).tolist() for col in (trace.t, trace.user, trace.arm)]
    floats = [
        np.asarray(col, dtype=np.float64).tolist()
        for col in (trace.revealed, trace.best, trace.increment, trace.cumulative)
    ]
    rows = "".join(f"{t},{u},{a},{r!r},{b!r},{i!r},{c!r}\n" for t, u, a, r, b, i, c in zip(*ints, *floats))
    atomic_write(path, [TRACE_HEADER + "\n", rows])


def read_trace_csv(path) -> RegretTrace:
    """Read a trace written by :func:`write_trace_csv` (timing not stored)."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[0] and rows.shape[1] != 7:
        raise ValueError(f"{path}: expected 7 columns ({TRACE_HEADER})")
    return RegretTrace(
        t=rows[:, 0].astype(np.int64),
        user=rows[:, 1].astype(np.int64),
        arm=rows[:, 2].astype(np.int64),
        revealed=rows[:, 3],
        best=rows[:, 4],
        increment=rows[:, 5],
        cumulative=rows[:, 6],
        wall_time_seconds=float("nan"),
    )

"""Offline replay of the sequential recommendation protocol.

Each step draws an evaluation user uniformly among those who still have
un-revealed arms, asks the policy for one of that user's un-revealed arms,
reveals the held-out rating (zero when the user never rated the arm), and
charges regret against the user's best still-hidden known rating.  A
(user, arm) pair is revealed at most once over the whole run, and the
bookkeeping for it takes memory in proportion to the ratings, never to
users × items.

User draws and policy randomness come from separate generators, so swapping
the policy never perturbs the user sequence for a given replay seed.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

import numpy as np

from .data import RatingDataset, atomic_write
from .policies import Policy

__all__ = [
    "RegretTrace",
    "RevealLog",
    "run_replay",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_HEADER",
]

TRACE_HEADER = "t,user,arm,revealed,best,increment,cumulative"


class _UserState:
    """One user's held-out ratings and what has been revealed to them."""

    __slots__ = ("items", "ratings", "desc", "cursor", "seen", "ascending", "array")

    def __init__(self, items, ratings):
        self.items = items  # ascending, for the reveal lookup
        self.ratings = ratings
        self.desc = None  # indices by rating, descending; built after the first reveal
        self.cursor = 0  # every entry of desc before it is revealed
        self.seen = set()  # the revealed arms
        self.ascending = []  # the same arms, sorted
        self.array = None  # ascending as an array, built when asked for


class RevealLog:
    """Reveal bookkeeping for one replay run, in O(ratings) memory.

    The held-out ratings are grouped by user up front; a user's state is
    built the first time the user is drawn, and the user's ratings are
    sorted by value only once something has been revealed to them.  Every
    (user, arm) pair is revealed at most once.
    """

    def __init__(self, evaluation: RatingDataset):
        self.n_arms = evaluation.n_items
        self.arms_left = np.full(evaluation.n_users, self.n_arms, dtype=np.int64)
        self._rows = evaluation.user_rows
        self._users: dict[int, _UserState] = {}

    def _state(self, user: int) -> _UserState:
        state = self._users.get(user)
        if state is None:
            state = self._users[user] = _UserState(*self._rows.row(user))
        return state

    def revealed(self, user: int) -> np.ndarray:
        """Arms already revealed to this user, ascending."""
        state = self._state(user)
        if state.array is None:
            state.array = np.array(state.ascending, dtype=np.int64)
        return state.array

    def best_hidden_known(self, user: int) -> float:
        """The best-surrogate value: the highest known rating of this user
        not yet revealed, 0 if none is left.  Amortised O(1): the cursor
        only ever moves past revealed entries."""
        state = self._state(user)
        if state.desc is None:
            if not state.seen:
                return state.ratings.max().item() if len(state.ratings) else 0.0
            state.desc = np.argsort(-state.ratings, kind="stable")
        c, desc, items, seen = state.cursor, state.desc, state.items, state.seen
        while c < len(desc) and items.item(desc.item(c)) in seen:
            c += 1
        state.cursor = c
        return state.ratings.item(desc.item(c)) if c < len(desc) else 0.0

    def reveal(self, user: int, arm: int) -> float:
        """Consume one (user, arm) pair: the held-out rating, or the zero
        fill when the user never rated the arm.  Repeats are rejected."""
        state = self._state(user)
        if not 0 <= arm < self.n_arms or arm in state.seen:
            raise RuntimeError(f"arm {arm} is not available for user {user}")
        state.seen.add(arm)
        bisect.insort(state.ascending, arm)
        state.array = None
        self.arms_left[user] -= 1
        i = state.items.searchsorted(arm)
        return state.ratings.item(i) if i < len(state.items) and state.items.item(i) == arm else 0.0


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

    The wall clock covers the decision loop, including building the rows
    of the users it draws; grouping the ratings by user happens before it.
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
    evaluation.check_normalized("evaluation")

    log = RevealLog(evaluation)
    arms_left = log.arms_left
    pool = np.arange(evaluation.n_users)
    pool_size = evaluation.n_users
    user_rng = np.random.default_rng(seed)

    users, arms, rewards, bests = [], [], [], []
    t = 0
    exhausted = False
    start = time.perf_counter()
    while t < T:
        if pool_size == 0:
            exhausted = True
            break
        # No user in the pool can run out before the block's last step, so
        # the pool stays as it is and one batched draw equals `block` draws.
        block = min(T - t, int(arms_left[pool[:pool_size]].min()))
        for idx in user_rng.integers(pool_size, size=block).tolist():
            t += 1
            user = pool.item(idx)
            policy.observe_user(user)
            best = log.best_hidden_known(user)
            arm = int(policy.select(log.revealed(user), t))
            try:
                reward = log.reveal(user, arm)
            except RuntimeError as exc:
                raise RuntimeError(f"policy violated the protocol at step {t}: {exc}") from None
            if arms_left[user] == 0:
                pool_size -= 1
                pool[idx] = pool[pool_size]
            policy.update(arm, reward)
            users.append(user)
            arms.append(arm)
            rewards.append(reward)
            bests.append(best)
    wall = time.perf_counter() - start

    best = np.array(bests, dtype=np.float64)
    revealed = np.array(rewards, dtype=np.float64)
    increment = best - revealed
    return RegretTrace(
        t=np.arange(1, len(users) + 1, dtype=np.int64),
        user=np.array(users, dtype=np.int64),
        arm=np.array(arms, dtype=np.int64),
        revealed=revealed,
        best=best,
        increment=increment,
        cumulative=np.cumsum(increment),  # sequential, as the step-by-step running sum
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

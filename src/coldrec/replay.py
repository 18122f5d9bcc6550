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
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import RatingDataset, write_csv
from .policies import Policy, _is_revealed

__all__ = [
    "RegretTrace",
    "RevealLog",
    "run_replay",
    "write_trace_csv",
    "read_trace_csv",
    "TRACE_COLUMNS",
    "TRACE_HEADER",
]

# A trace file's columns, as named in RegretTrace, and the type each is written and read as.
_TRACE_DTYPE = np.dtype([("t", np.int64), ("user", np.int64), ("arm", np.int64), ("revealed", np.float64),
                         ("best", np.float64), ("increment", np.float64), ("cumulative", np.float64)])
TRACE_COLUMNS = _TRACE_DTYPE.names
TRACE_HEADER = ",".join(TRACE_COLUMNS)


class _UserState:
    """One user's held-out ratings, as views into the grouped ratings, and
    the arms revealed to them."""

    __slots__ = ("items", "ratings", "best", "desc", "cursor", "revealed")

    def __init__(self, items, ratings, best):
        self.items = items  # ascending, for the reveal lookup
        self.ratings = ratings
        self.best = best  # the highest known rating not yet revealed, 0 if none
        self.desc = None  # indices by rating, descending; built when the best is revealed
        self.cursor = 0  # every entry of desc before it is revealed
        self.revealed = []  # the revealed arms, ascending

    def reveal(self, arm: int, n_arms: int) -> float:
        """Reveal an arm in [0, n_arms) that is not yet revealed: its rating,
        0 if the user never rated it.  Any other arm is rejected."""
        if not 0 <= arm < n_arms or _is_revealed(self.revealed, arm):
            raise RuntimeError(f"arm {arm} is not available")
        bisect.insort(self.revealed, arm)
        items = self.items
        i = bisect.bisect_left(items, arm)
        if i == len(items) or items[i] != arm:
            return 0.0
        rating = self.ratings[i]
        if rating == self.best:  # a smaller rating leaves the best where it is
            self._next_best()
        return rating

    def _next_best(self):
        """Move the best past the revealed ratings.  Amortised O(1) after
        the one sort: the cursor only ever moves past revealed entries."""
        if self.desc is None:
            self.desc = memoryview(np.argsort(np.negative(self.ratings), kind="stable"))
        c, desc, items, revealed = self.cursor, self.desc, self.items, self.revealed
        while c < len(desc) and _is_revealed(revealed, items[desc[c]]):
            c += 1
        self.cursor = c
        self.best = self.ratings[desc[c]] if c < len(desc) else 0.0


class RevealLog:
    """Reveal bookkeeping for one replay run, in O(ratings) memory.

    The held-out ratings are grouped by user, and every user's best known
    rating is taken in one pass, up front.  A user's state is built the
    first time the user is drawn and holds views of the user's ratings;
    they are sorted by value only once the best of them is revealed.
    """

    def __init__(self, evaluation: RatingDataset):
        rows = evaluation.user_rows
        best = np.zeros(evaluation.n_users)
        rated = np.flatnonzero(np.diff(rows.starts))
        if rated.size:  # reduceat over the non-empty rows only: an empty one would take its next element
            best[rated] = np.maximum.reduceat(rows.ratings, rows.starts[rated])
        # memoryviews index to Python scalars without numpy's per-call cost
        self._starts = memoryview(rows.starts)
        self._items = memoryview(rows.items)
        self._ratings = memoryview(rows.ratings)
        self._best = memoryview(best)
        self._users: dict[int, _UserState] = {}

    def user(self, user: int) -> _UserState:
        """The user's state, built on the first call."""
        state = self._users.get(user)
        if state is None:
            lo, hi = self._starts[user], self._starts[user + 1]
            state = self._users[user] = _UserState(self._items[lo:hi], self._ratings[lo:hi], self._best[user])
        return state


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

    A step looks the drawn user's state up once in the :class:`RevealLog`:
    the best hidden rating is read, not searched for, and a reveal costs a
    bisect in the user's revealed arms and one in their ratings; the user's
    ratings are sorted only when their best is revealed.  ``select`` is
    handed the user's own sorted list of revealed arms, not a copy: it may
    read the list during the call and must not change it.  The wall clock
    covers the decision loop, including building the state of the users it
    draws; grouping the ratings by user and taking every user's best rating
    happen before it.
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
    arms_left = np.full(evaluation.n_users, n_arms, dtype=np.int64)
    left = memoryview(arms_left)
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
            state = log.user(user)
            best = state.best
            arm = int(policy.select(state.revealed, t))
            try:
                reward = state.reveal(arm, n_arms)
            except RuntimeError as exc:
                raise RuntimeError(f"policy violated the protocol at step {t}: {exc} for user {user}") from None
            left[user] = n_left = n_arms - len(state.revealed)
            if n_left == 0:
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
    """One row per step under :data:`TRACE_HEADER`, through :func:`write_csv`,
    each column cast to its declared type: ids that are not integers raise."""
    write_csv(path, TRACE_HEADER, [np.asarray(getattr(trace, name)).astype(_TRACE_DTYPE[name], casting="same_kind")
                                   for name in TRACE_COLUMNS])


def read_trace_csv(path) -> RegretTrace:
    """Read a trace written by :func:`write_trace_csv` (timing not stored);
    the header-only file of a 0-step trace reads back as that trace.  A file
    in any other format raises a ValueError that starts with the path."""
    header, *lines = Path(path).read_text(encoding="utf-8").splitlines() or [""]  # an empty file has no header
    if header != TRACE_HEADER:
        raise ValueError(f"{path}: expected {len(TRACE_COLUMNS)} columns ({TRACE_HEADER}), got the header {header!r}")
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=_TRACE_DTYPE, ndmin=1) if lines else np.empty(0, _TRACE_DTYPE)
    except ValueError:  # numpy's row numbers skip blank lines and change base: name the first bad line instead
        for lineno, line in enumerate(lines, start=2):
            try:
                if line:
                    np.loadtxt([line], delimiter=",", dtype=_TRACE_DTYPE)
            except ValueError as exc:
                raise ValueError(f"{path}, line {lineno}: {re.sub(r' at row [0-9]+', '', str(exc))}") from None
        raise
    return RegretTrace(**{name: rows[name] for name in TRACE_COLUMNS}, wall_time_seconds=float("nan"))

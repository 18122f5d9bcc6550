"""Offline replay of the sequential recommendation protocol.

Each step takes the next user of a schedule drawn up front, asks the
policy for one of that user's un-revealed arms, reveals the held-out rating
(zero when the user never rated the arm), and charges regret against the
user's best still-hidden known rating.  A (user, arm) pair is revealed at
most once over the whole run, and the bookkeeping for it takes memory in
proportion to the ratings, never to users × items.

The schedule draws each step's user uniformly among those with an arm left,
from its own generator: it depends on the evaluation's shape, T and the
replay seed alone, so swapping the policy never changes the users.
"""

from __future__ import annotations

import bisect
import operator
import re
import time
from dataclasses import dataclass

import numpy as np

from .data import RatingDataset, _numpy_rows, write_csv
from .policies import Policy, _is_revealed

__all__ = [
    "RegretTrace",
    "RevealLog",
    "run_replay",
    "user_schedule",
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
        revealed = self.revealed
        pos = bisect.bisect_left(revealed, arm)
        if not 0 <= arm < n_arms or (pos < len(revealed) and revealed[pos] == arm):
            raise RuntimeError(f"arm {arm} is not available")
        revealed.insert(pos, arm)
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


class RevealLog(dict):
    """Reveal bookkeeping for one replay run, in O(ratings) memory: a map from user to state.

    The held-out ratings are grouped by user, and every user's best known
    rating is taken in one pass, up front.  ``log[user]`` builds the user's
    state on the first lookup, from views of the user's ratings; they are
    sorted by value only once the best of them is revealed.
    """

    def __init__(self, evaluation: RatingDataset):
        starts = evaluation.starts
        best = np.zeros(evaluation.n_users)
        rated = np.flatnonzero(np.diff(starts))  # reduceat's rows: an empty one would take its next element
        best[rated] = np.maximum.reduceat(evaluation.ratings, starts[rated])
        # memoryviews index to Python scalars without numpy's per-call cost
        self._starts = memoryview(starts)
        self._items = memoryview(evaluation.items)
        self._ratings = memoryview(evaluation.ratings)
        self._best = memoryview(best)

    def __missing__(self, user: int) -> _UserState:
        lo, hi = self._starts[user], self._starts[user + 1]
        state = self[user] = _UserState(self._items[lo:hi], self._ratings[lo:hi], self._best[user])
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


def user_schedule(evaluation: RatingDataset, T: int, seed=None) -> np.ndarray:
    """The replay's users in step order: T of them, fewer once every user is spent.

    Each step draws uniformly among the users with an arm left and reveals
    one arm, so the schedule depends on the evaluation's shape, T and the
    seed alone, never on the arms played.  A block of draws is no longer
    than the fewest arms any pooled user has left, so at most its last draw
    can spend a user, and one batched draw equals that many scalar draws.
    """
    if T < 1:
        raise ValueError(f"horizon T must be >= 1, got {T}")
    if evaluation.n_ratings == 0:
        raise ValueError("evaluation dataset is empty")
    arms_left = np.full(evaluation.n_users, evaluation.n_items, dtype=np.int64)
    pool, size = np.arange(evaluation.n_users), evaluation.n_users
    rng = np.random.default_rng(seed)
    blocks, t = [], 0
    while t < T and size:
        idx = rng.integers(size, size=min(T - t, int(arms_left[pool[:size]].min())))
        users = pool[idx]
        np.subtract.at(arms_left, users, 1)
        if arms_left[users[-1]] == 0:
            size -= 1
            pool[idx[-1]] = pool[size]
        blocks.append(users)
        t += len(users)
    return np.concatenate(blocks)


def run_replay(policy: Policy, evaluation: RatingDataset, T: int, seed=None) -> RegretTrace:
    """Run the replay protocol over the users of :func:`user_schedule`.

    A step looks the user's state up with one subscript of the
    :class:`RevealLog`: the best hidden rating is read, not searched for,
    and a reveal costs a bisect in the user's revealed arms and one in their
    ratings; the user's ratings are sorted only when their best is revealed.
    ``select`` is handed the user's own sorted list of revealed arms, not a
    copy: it may read the list during the call and must not change it, and
    it returns an integer arm.  The wall clock covers drawing the schedule
    and the decision loop, including building the state of the users it
    meets; grouping the ratings by user and taking every user's best rating
    happen before it.
    """
    n_arms = policy.n_arms
    if evaluation.n_items != n_arms:
        raise ValueError(f"policy scores {n_arms} arms but evaluation has {evaluation.n_items} items")
    evaluation.check_normalized("evaluation")

    log = RevealLog(evaluation)
    start = time.perf_counter()
    schedule = user_schedule(evaluation, T, seed)
    arm, revealed, best = np.empty(len(schedule), np.int64), np.empty(len(schedule)), np.empty(len(schedule))
    arms, rewards, bests = memoryview(arm), memoryview(revealed), memoryview(best)  # no numpy call per item
    for i, user in enumerate(memoryview(schedule)):
        policy.observe_user(user)
        state = log[user]
        bests[i] = state.best
        choice = policy.select(state.revealed, i + 1)
        try:
            choice = operator.index(choice)
            reward = state.reveal(choice, n_arms)
        except (TypeError, RuntimeError) as exc:
            raise RuntimeError(f"policy violated the protocol at step {i + 1}: {exc} for user {user}") from None
        policy.update(choice, reward)
        arms[i], rewards[i] = choice, reward
    wall = time.perf_counter() - start

    increment = best - revealed
    return RegretTrace(t=np.arange(1, len(schedule) + 1, dtype=np.int64), user=schedule, arm=arm, revealed=revealed,
                       best=best, increment=increment,
                       cumulative=np.cumsum(increment),  # sequential, as the step-by-step running sum
                       wall_time_seconds=wall, exhausted=len(schedule) < T)


def write_trace_csv(trace: RegretTrace, path) -> None:
    """One row per step under :data:`TRACE_HEADER`, through :func:`write_csv`,
    each column cast to its declared type: ids that are not integers raise."""
    columns = [np.asarray(getattr(trace, name)).astype(_TRACE_DTYPE[name], casting="same_kind", copy=False)
               for name in TRACE_COLUMNS]  # a column already of its type is not copied
    write_csv(path, TRACE_HEADER, columns)


def read_trace_csv(path) -> RegretTrace:
    """Read a trace written by :func:`write_trace_csv` (timing not stored): the loaders' numpy call reads the rows
    from disk, and `t` and `cumulative` must be what :func:`run_replay` derives, bit for bit.  A header followed
    by nothing or by empty lines is a 0-step trace; any other file raises a ValueError that starts with the path."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("utf-8", "replace").rstrip("\r\n")
        if header != TRACE_HEADER:
            raise ValueError(f"{path}: expected {len(TRACE_COLUMNS)} columns ({TRACE_HEADER}), "
                             f"got the header {header!r}")
        rows = _numpy_rows(path, _TRACE_DTYPE, ",", 1)
        if rows is None:  # numpy's row numbers skip blank lines and change base: name the first bad line instead
            for lineno, line in enumerate(fh, start=2):
                try:
                    if line := line.decode("utf-8").rstrip("\r\n"):
                        np.loadtxt([line], _TRACE_DTYPE, comments=None, delimiter=",")
                except ValueError as exc:  # a UnicodeDecodeError too
                    raise ValueError(f"{path}, line {lineno}: {re.sub(r' at row [0-9]+', '', str(exc))}") from None
            rows = np.empty(0, _TRACE_DTYPE)  # numpy found no row, and no line but empty ones
    if not np.array_equal(rows["t"], np.arange(1, len(rows) + 1)):
        raise ValueError(f"{path}: column t must be the steps 1..n")
    if not np.array_equal(rows["cumulative"].view(np.int64), np.cumsum(rows["increment"]).view(np.int64)):
        raise ValueError(f"{path}: column cumulative must be the running sum of increment")
    return RegretTrace(**{name: rows[name] for name in TRACE_COLUMNS}, wall_time_seconds=float("nan"))

"""The benchmark's three workloads and the seeded inputs they are built from.

Each workload makes its inputs from the run's seed in :meth:`generate`
(untimed, benchmark-side) and then hands the library only those inputs:

* ``ml-matrix``   – a MovieLens-1M-shaped ``::`` file, loaded with
  ``load_movielens``; six non-Thompson policies × four imputations on a
  2000 × 1000 subsample with a square base, T = 5000.
* ``replay-wide`` – an in-memory 10k users × 4k arms set at 2 % density,
  a 32-row zero-filled base, ``alinucb`` and ``random`` at T = 40 000.
* ``dense-context`` – ``linear_environment(500, 500, 500)``: dense
  evaluation, so every reveal is a known rating; ``thompson``, ``alinucb``,
  ``exp3`` and ``random`` at T = 2000.

The shapes are dataclass fields so the tests can run the same drivers tiny.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from coldrec import (
    OraclePolicy,
    ProblemKind,
    RatingDataset,
    linear_environment,
    load_movielens,
    normalize,
    orient,
    run_replay,
    split_base_eval,
    subsample,
)
from coldrec.cli import cell_seed_sequence

from harness import CellRecord, check_trace

# Shares of 1..5 stars in MovieLens-1M.
ML_STAR_SHARES = (0.056, 0.108, 0.261, 0.349, 0.226)


def rating_triples(rng, counts: np.ndarray, n_items: int, popularity_sigma: float):
    """(users, items, stars): user u draws counts[u] items by a log-normal
    (long-tailed) popularity, duplicates dropped, and rates them 1..5 from a
    rank-8 taste model cut at the MovieLens star shares."""
    n_users = len(counts)
    popularity = rng.lognormal(0.0, popularity_sigma, n_items)
    users = np.repeat(np.arange(n_users), counts)
    items = rng.choice(n_items, size=users.size, p=popularity / popularity.sum())
    users, items = np.divmod(np.unique(users * n_items + items), n_items)

    rank = 8
    user_taste = rng.standard_normal((n_users, rank))
    item_taste = rng.standard_normal((n_items, rank)) / np.sqrt(rank)
    score = np.einsum("ij,ij->i", user_taste[users], item_taste[items])
    score += 0.5 * rng.standard_normal(n_items)[items] + 0.3 * rng.standard_normal(n_users)[users]
    score += 0.5 * rng.standard_normal(score.size)
    cuts = np.quantile(score, np.cumsum(ML_STAR_SHARES)[:-1])
    return users, items, 1 + np.searchsorted(cuts, score)


class Workload:
    """Defaults for a workload whose corpus is rated on a 1..5 scale and
    that has no checks beyond the per-cell ones."""

    def normalize(self, ds):
        return normalize(ds)

    def extra_checks(self, seed, records) -> list[CellRecord]:
        return []


@dataclass
class MlMatrix(Workload):
    """MovieLens-1M-shaped corpus through the file loader; the full fill grid."""

    name = "ml-matrix"
    n_users: int = 6040
    n_items: int = 3706
    n_ratings: int = 1_000_209
    max_users: int = 2000
    max_items: int = 1000
    horizon: int = 5000
    policies: tuple = ("alinucb", "random", "egreedy", "ucb", "aver", "exp3")
    imputes: tuple = ("zero", "average", "svd", "alswr")

    def generate(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 1])
        # Every user has at least 20 ratings, as in ML-1M; the rest of the
        # activity is log-normal.  1.12 over-draws for the duplicates dropped.
        activity = rng.lognormal(0.0, 1.0, self.n_users)
        extra = activity / activity.sum() * (self.n_ratings - 20 * self.n_users) * 1.12
        counts = np.minimum(20 + extra.astype(np.int64), self.n_items)
        users, items, stars = rating_triples(rng, counts, self.n_items, popularity_sigma=1.4)
        stamps = 956_703_932 + rng.integers(0, 34_000_000, users.size)
        self.path = os.path.join(workdir, "ratings.dat")
        with open(self.path, "w", encoding="utf-8") as fh:
            for lo in range(0, users.size, 200_000):
                rows = zip((users[lo:lo + 200_000] + 1).tolist(), (items[lo:lo + 200_000] + 1).tolist(),
                           stars[lo:lo + 200_000].tolist(), stamps[lo:lo + 200_000].tolist())
                fh.write("".join(f"{u}::{i}::{r}::{s}\n" for u, i, r, s in rows))

    def cells(self):
        return [(p, m) for p in self.policies for m in self.imputes]

    def load(self):
        return load_movielens(self.path)

    def prep(self, ds, sub_ss, split_ss):
        work = subsample(ds, self.max_users, self.max_items, seed=sub_ss)
        work = orient(work, ProblemKind.NEW_USER)
        split = split_base_eval(work, min(work.n_items, work.n_users - 1), seed=split_ss)
        return split.base, split.evaluation


@dataclass
class ReplayWide(Workload):
    """Wide sparse evaluation set handed over in memory; a tiny base."""

    name = "replay-wide"
    n_eval_users: int = 10_000
    n_arms: int = 4000
    density: float = 0.02
    base_k: int = 32
    horizon: int = 40_000
    policies: tuple = ("alinucb", "random")

    def generate(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng([seed, 2])
        n_users = self.n_eval_users + self.base_k
        counts = np.clip(rng.poisson(self.density * self.n_arms, n_users), 1, self.n_arms)
        self.triples = rating_triples(rng, counts, self.n_arms, popularity_sigma=1.0)

    def cells(self):
        return [(p, "zero") for p in self.policies]

    def load(self):
        users, items, stars = self.triples
        return RatingDataset(users, items, stars.astype(np.float64), self.n_eval_users + self.base_k,
                             self.n_arms, scale_max=5.0)

    def prep(self, ds, sub_ss, split_ss):
        split = split_base_eval(orient(ds, ProblemKind.NEW_USER), self.base_k, seed=split_ss)
        return split.base, split.evaluation


@dataclass
class DenseContext(Workload):
    """The criterion-7 linear environment: dense context, dense evaluation."""

    name = "dense-context"
    n_base: int = 500
    n_arms: int = 500
    n_eval: int = 500
    horizon: int = 2000
    policies: tuple = ("thompson", "alinucb", "exp3", "random")

    def generate(self, seed: int, workdir: str) -> None:
        self.env_seed = (seed, 3)

    def cells(self):
        return [(p, "zero") for p in self.policies]

    def load(self):
        return linear_environment(self.n_base, self.n_arms, self.n_eval, seed=list(self.env_seed))

    def normalize(self, source):
        return source  # generated on [0, 1]

    def prep(self, source, sub_ss, split_ss):
        base, evaluation = source
        return orient(base, ProblemKind.NEW_USER), orient(evaluation, ProblemKind.NEW_USER)

    def extra_checks(self, seed, records) -> list[CellRecord]:
        """Untimed: an oracle cell ends at exactly 0 regret, and alinucb ends
        below random (acceptance criterion 4's ordering)."""
        _, evaluation = self.load()
        user_ss = cell_seed_sequence(seed, "oracle", "zero").spawn(5)[3]
        trace = run_replay(OraclePolicy(evaluation), evaluation, self.horizon, seed=user_ss)
        oracle = CellRecord("oracle", "zero", seed, trace.steps, trace.exhausted, trace.final_regret)
        oracle.problems, oracle.hit_rate = check_trace(trace, trace, evaluation, self.horizon)
        if trace.final_regret != 0.0:
            oracle.problems.append(f"oracle regret {trace.final_regret!r}, expected exactly 0")

        finals = {r.policy: r.final_regret for r in records if r.ok}
        alinucb, random = finals.get("alinucb"), finals.get("random")
        order = CellRecord("alinucb<random", "zero", seed, final_regret=alinucb)
        if alinucb is None or random is None or not alinucb < random:
            order.problems.append(f"alinucb regret {alinucb} not below random {random}")
        return [oracle, order]


WORKLOADS = {w.name: w for w in (MlMatrix, ReplayWide, DenseContext)}

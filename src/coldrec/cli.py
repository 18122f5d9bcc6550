"""Experiment-matrix runner: config parsing, seeded cell execution, and
CSV emission (per-cell traces plus a cross-policy summary table).

A run is a grid of (policy × imputation) rows crossed with a list of seeds;
each (row, seed) cell re-derives its subsample/split/imputation from its own
seed streams, runs the replay protocol, and writes one trace CSV.  The
summary aggregates final regrets over seeds per row.  Everything a cell
consumes is derived from the resolved config, so a rerun reproduces the
trace files byte-for-byte (wall-clock columns excepted, by nature).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import glob
import hashlib
import logging
import os
import sys
import time
import traceback
from dataclasses import dataclass, fields

import numpy as np

from .data import (
    ProblemKind,
    RatingDataset,
    filter_min_ratings,
    load_csv_triples,
    load_movielens,
    normalize,
    orient,
    split_base_eval,
    subsample,
)
from .impute import fill, method_from_name, method_label, write_base_csv
from .policies import (
    DEFAULT_ALPHA,
    DEFAULT_C,
    DEFAULT_D,
    DEFAULT_GAMMA,
    DEFAULT_V,
    POLICY_IDS,
    make_policy,
)
from .replay import run_replay, write_trace_csv

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run_matrix", "main", "SUMMARY_HEADER"]

logger = logging.getLogger(__name__)

SUMMARY_HEADER = "policy,params,mean_regret,std_regret,mean_seconds,cells"

_FORMATS = ("movielens", "csv")
_IMPUTE_IDS = ("zero", "average", "svd", "alswr")


class ConfigError(ValueError):
    """Bad or missing configuration; the message names the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description (defaults < config file < flags)."""

    dataset: str
    format: str = "movielens"
    scale_max: float = 5.0
    problem: str = "new-user"
    base_k: int | None = None
    impute: tuple[str, ...] = ("zero",)
    rank: int = 16
    als_lam: float = 0.05
    als_iters: int = 15
    policy: tuple[str, ...] = ("alinucb",)
    alpha: float = DEFAULT_ALPHA
    c: float = DEFAULT_C
    d: float = DEFAULT_D
    gamma: float = DEFAULT_GAMMA
    v: float = DEFAULT_V
    t: int | None = None
    seeds: tuple[int, ...] = (0,)
    max_users: int | None = None
    max_items: int | None = None
    min_ratings: int = 1
    workers: int = 0  # 0 = one worker per available CPU
    out: str = "coldrec_runs"
    dump_base: bool = False

    def validate(self) -> None:
        if not self.dataset:
            raise ConfigError("missing required key: dataset")
        if self.format not in _FORMATS:
            raise ConfigError(f"format: unknown value {self.format!r}, choose from {_FORMATS}")
        if self.scale_max <= 0:
            raise ConfigError(f"scale-max: must be positive, got {self.scale_max}")
        try:
            ProblemKind(self.problem)
        except ValueError:
            raise ConfigError(
                f"problem: unknown value {self.problem!r}, choose new-user or new-item"
            ) from None
        if not self.policy:
            raise ConfigError("policy: at least one policy id required")
        for p in self.policy:
            if p not in POLICY_IDS:
                raise ConfigError(f"policy: unknown id {p!r}, choose from {POLICY_IDS}")
        if not self.impute:
            raise ConfigError("impute: at least one imputation id required")
        for m in self.impute:
            if m not in _IMPUTE_IDS:
                raise ConfigError(f"impute: unknown id {m!r}, choose from {_IMPUTE_IDS}")
        if self.alpha < 0:
            raise ConfigError(f"alpha: must be nonnegative, got {self.alpha}")
        if self.c <= 0 or self.d <= 0:
            raise ConfigError(f"c/d: must be positive, got c={self.c} d={self.d}")
        if not 0 < self.gamma <= 1:
            raise ConfigError(f"gamma: must lie in (0, 1], got {self.gamma}")
        if self.v < 0:
            raise ConfigError(f"v: must be nonnegative, got {self.v}")
        if self.t is not None and self.t < 1:
            raise ConfigError(f"t: must be positive, got {self.t}")
        if self.base_k is not None and self.base_k < 1:
            raise ConfigError(f"base-k: must be positive, got {self.base_k}")
        if self.rank < 1:
            raise ConfigError(f"rank: must be positive, got {self.rank}")
        if self.als_lam <= 0:
            raise ConfigError(f"als-lambda: must be positive, got {self.als_lam}")
        if self.als_iters < 1:
            raise ConfigError(f"als-iters: must be positive, got {self.als_iters}")
        if not self.seeds:
            raise ConfigError("seeds: at least one seed required")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds: must be nonnegative integers")
        for key, val in (("max-users", self.max_users), ("max-items", self.max_items)):
            if val is not None and val < 1:
                raise ConfigError(f"{key}: must be positive, got {val}")
        if self.min_ratings < 1:
            raise ConfigError(f"min-ratings: must be >= 1, got {self.min_ratings}")
        if self.workers < 0:
            raise ConfigError(f"workers: must be >= 0 (0 = auto), got {self.workers}")


def _csv_strings(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _csv_ints(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _csv_strings(value))


def _bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


# Converters shared by the flag parser and the key=value config-file parser.
_CONVERTERS = {
    "dataset": str,
    "format": str,
    "scale_max": float,
    "problem": str,
    "base_k": int,
    "impute": _csv_strings,
    "rank": int,
    "als_lam": float,
    "als_iters": int,
    "policy": _csv_strings,
    "alpha": float,
    "c": float,
    "d": float,
    "gamma": float,
    "v": float,
    "t": int,
    "seeds": _csv_ints,
    "max_users": int,
    "max_items": int,
    "min_ratings": int,
    "workers": int,
    "out": str,
    "dump_base": _bool,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldrec",
        description="Replay-based cumulative-regret benchmark for cold-start recommendation policies.",
    )
    parser.add_argument("--config", help="key=value config file; flags override its values")
    parser.add_argument("--dataset", help="path to the ratings file (required)")
    parser.add_argument("--format", help=f"dataset format, one of {'|'.join(_FORMATS)}")
    parser.add_argument("--scale-max", dest="scale_max", type=float, help="rating ceiling before normalization")
    parser.add_argument("--problem", help="new-user | new-item")
    parser.add_argument("--base-k", dest="base_k", type=int, help="base rows k (default: square base, k = n)")
    parser.add_argument("--impute", type=_csv_strings, help=f"comma list from {'|'.join(_IMPUTE_IDS)}")
    parser.add_argument("--rank", type=int, help="rank for svd/alswr imputation")
    parser.add_argument("--als-lambda", dest="als_lam", type=float, help="ALS-WR regularization")
    parser.add_argument("--als-iters", dest="als_iters", type=int, help="ALS-WR sweeps")
    parser.add_argument("--policy", type=_csv_strings, help=f"comma list from {'|'.join(POLICY_IDS)}")
    parser.add_argument("--alpha", type=float, help="(a-)linucb exploration weight")
    parser.add_argument("--c", type=float, help="egreedy schedule constant c")
    parser.add_argument("--d", type=float, help="egreedy schedule constant d")
    parser.add_argument("--gamma", type=float, help="exp3 mixture weight")
    parser.add_argument("--v", type=float, help="thompson posterior noise scale")
    parser.add_argument("--t", type=int, help="replay horizon (default: eval ratings / 10)")
    parser.add_argument("--seeds", type=_csv_ints, help="comma list of integer seeds")
    parser.add_argument("--max-users", dest="max_users", type=int, help="subsample cap on users")
    parser.add_argument("--max-items", dest="max_items", type=int, help="subsample cap on items")
    parser.add_argument("--min-ratings", dest="min_ratings", type=int, help="drop users below this rating count")
    parser.add_argument("--workers", type=int, help="parallel cells (0 = one per available CPU, 1 = inline)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--dump-base", dest="dump_base", action="store_true", default=None,
                        help="also dump each cell's filled base matrix as CSV")
    return parser


def _read_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}, line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            dest = key.strip().replace("-", "_")
            if dest not in _CONVERTERS:
                raise ConfigError(f"{path}, line {lineno}: unknown key {key.strip()!r}")
            try:
                values[dest] = _CONVERTERS[dest](raw.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}, line {lineno}: bad value for {key.strip()!r}: {exc}") from None
    return values


def parse_config(argv) -> ExperimentConfig:
    """Resolve flags plus an optional config file into an ExperimentConfig.

    Precedence: built-in defaults < config file < explicit flags.  Unknown
    config-file keys and invalid values raise :class:`ConfigError` naming
    the key.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    merged = {}
    if ns.config:
        merged.update(_read_config_file(ns.config))
    for field in fields(ExperimentConfig):
        flag_value = getattr(ns, field.name, None)
        if flag_value is not None:
            merged[field.name] = flag_value
    if "dataset" not in merged:
        raise ConfigError("missing required key: dataset (set --dataset or put dataset= in --config)")
    merged["dataset"] = os.path.abspath(merged["dataset"])
    cfg = ExperimentConfig(**merged)
    cfg.validate()
    return cfg


def _config_lines(cfg: ExperimentConfig) -> list[str]:
    lines = []
    for field in fields(ExperimentConfig):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        key = field.name.replace("_", "-")
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    return lines


def _stable_digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def cell_seed_sequence(seed: int, policy_id: str, impute_id: str) -> np.random.SeedSequence:
    """Independent, reproducible entropy for one (policy, imputation, seed)
    cell; subsample/split/imputation/user-draw/policy streams are spawned
    from it."""
    return np.random.SeedSequence([seed, _stable_digest(policy_id), _stable_digest(impute_id)])


def _params_digest(cfg: ExperimentConfig, policy_id: str, impute_id: str) -> str:
    parts = []
    if policy_id in ("linucb", "alinucb"):
        parts.append(f"alpha={cfg.alpha}")
    elif policy_id == "egreedy":
        parts.append(f"c={cfg.c}")
        parts.append(f"d={cfg.d}")
    elif policy_id == "exp3":
        parts.append(f"gamma={cfg.gamma}")
    elif policy_id == "thompson":
        parts.append(f"v={cfg.v}")
    label = method_label(method_from_name(impute_id, rank=cfg.rank, lam=cfg.als_lam, iters=cfg.als_iters))
    parts.append(f"impute={label}")
    return ";".join(parts)


@dataclass
class CellResult:
    policy: str
    impute: str
    seed: int
    final_regret: float
    steps: int
    wall_seconds: float
    trace_file: str


def run_cell(
    ds: RatingDataset,
    cfg: ExperimentConfig,
    policy_id: str,
    impute_id: str,
    seed: int,
    out_dir: str | None = None,
) -> CellResult:
    """Execute one fully-seeded cell: subsample → orient → split → fill →
    replay; optionally write its trace (and base-matrix dump) to out_dir."""
    streams = cell_seed_sequence(seed, policy_id, impute_id).spawn(5)
    sub_ss, split_ss, fill_ss, user_ss, policy_ss = streams

    prep_start = time.perf_counter()
    work = ds
    if cfg.max_users is not None or cfg.max_items is not None:
        work = subsample(work, cfg.max_users, cfg.max_items, seed=sub_ss)
    if cfg.min_ratings > 1:
        work = filter_min_ratings(work, cfg.min_ratings)
    work = orient(work, ProblemKind(cfg.problem))

    k = cfg.base_k if cfg.base_k is not None else min(work.n_items, work.n_users - 1)
    split = split_base_eval(work, k, seed=split_ss)

    method = method_from_name(impute_id, rank=cfg.rank, lam=cfg.als_lam, iters=cfg.als_iters)
    X = fill(split.base, method, seed=fill_ss)
    logger.info(
        "cell policy=%s impute=%s seed=%d: prepared %dx%d base in %.3fs (excluded from run timing)",
        policy_id, impute_id, seed, X.k, X.n_arms, time.perf_counter() - prep_start,
    )

    policy = make_policy(
        policy_id, X=X, alpha=cfg.alpha, c=cfg.c, d=cfg.d, gamma=cfg.gamma, v=cfg.v, seed=policy_ss
    )
    horizon = cfg.t if cfg.t is not None else max(1, split.evaluation.n_ratings // 10)
    trace = run_replay(policy, split.evaluation, horizon, seed=user_ss)

    trace_file = f"trace__{policy_id}__{impute_id}__seed{seed}.csv"
    if out_dir is not None:
        write_trace_csv(trace, os.path.join(out_dir, trace_file))
        if cfg.dump_base:
            write_base_csv(X, os.path.join(out_dir, f"base__{policy_id}__{impute_id}__seed{seed}.csv"))

    return CellResult(
        policy=policy_id,
        impute=impute_id,
        seed=seed,
        final_regret=trace.final_regret,
        steps=trace.steps,
        wall_seconds=trace.wall_time_seconds,
        trace_file=trace_file,
    )


_WORKER_DATASET: RatingDataset | None = None


def _init_worker(ds: RatingDataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = ds


def _cell_task(args):
    """Run one cell; returns (result, None), or (None, traceback text) when
    it fails, so a pool worker's error reaches the manifest exactly once."""
    cfg, policy_id, impute_id, seed, out_dir = args
    try:
        return run_cell(_WORKER_DATASET, cfg, policy_id, impute_id, seed, out_dir), None
    except Exception:
        return None, traceback.format_exc()


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (containers and taskset narrow it), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _remove_stale_outputs(out_dir: str) -> None:
    """Delete the per-cell files (see run_cell) and the failure manifest that
    an earlier run into the same directory left; they describe that run."""
    for pattern in ("trace__*.csv", "base__*.csv", "failures.txt"):
        for path in glob.glob(os.path.join(glob.escape(out_dir), pattern)):
            os.remove(path)


def _load_dataset(cfg: ExperimentConfig) -> RatingDataset:
    if cfg.format == "movielens":
        ds = load_movielens(cfg.dataset, scale_max=cfg.scale_max)
    else:
        ds = load_csv_triples(cfg.dataset, scale_max=cfg.scale_max)
    return normalize(ds)


def run_matrix(cfg: ExperimentConfig) -> int:
    """Run the whole (policy × imputation) × seeds grid.

    Writes one trace CSV per cell, summary.csv, the resolved config, and a
    failure manifest (failures.txt) when cells fail.  Trace and base-dump
    files and a manifest left by an earlier run into the same directory are
    removed first, so the directory describes this run only.  Returns the
    process exit code: 0 iff every cell completed.
    """
    cfg.validate()
    os.makedirs(cfg.out, exist_ok=True)
    _remove_stale_outputs(cfg.out)
    failures_path = os.path.join(cfg.out, "failures.txt")
    with open(os.path.join(cfg.out, "resolved_config.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(_config_lines(cfg)) + "\n")

    logger.info("loading %s (%s)", cfg.dataset, cfg.format)
    ds = _load_dataset(cfg)
    logger.info("dataset: %d users, %d items, %d ratings", ds.n_users, ds.n_items, ds.n_ratings)

    grid = [(p, m) for p in cfg.policy for m in cfg.impute]
    tasks = [(cfg, p, m, s, cfg.out) for (p, m) in grid for s in cfg.seeds]

    results: dict[tuple[str, str, int], CellResult] = {}
    failures: list[str] = []
    workers = cfg.workers if cfg.workers != 0 else _available_cpus()

    def record(task, outcome) -> None:
        res, error = outcome
        if res is None:
            failures.append(f"policy={task[1]};impute={task[2]};seed={task[3]}:\n{error}")
            return
        results[(res.policy, res.impute, res.seed)] = res
        logger.info(
            "cell policy=%s params=%s seed=%d: final regret %.4f over %d steps, %.3fs",
            res.policy,
            _params_digest(cfg, res.policy, res.impute),
            res.seed,
            res.final_regret,
            res.steps,
            res.wall_seconds,
        )

    if workers == 1:
        _init_worker(ds)
        for task in tasks:
            record(task, _cell_task(task))
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(ds,)
        ) as pool:
            futures = {pool.submit(_cell_task, task): task for task in tasks}
            for fut in concurrent.futures.as_completed(futures):
                try:
                    outcome = fut.result()
                except Exception:  # the pool itself failed, e.g. a worker died
                    outcome = None, traceback.format_exc()
                record(futures[fut], outcome)

    rows = []
    for policy_id, impute_id in grid:
        cells = [results[(policy_id, impute_id, s)] for s in cfg.seeds if (policy_id, impute_id, s) in results]
        if not cells:
            continue
        regrets = np.array([c.final_regret for c in cells])
        seconds = np.array([c.wall_seconds for c in cells])
        rows.append(
            (
                policy_id,
                _params_digest(cfg, policy_id, impute_id),
                float(regrets.mean()),
                float(regrets.std()),
                float(seconds.mean()),
                len(cells),
            )
        )

    summary_path = os.path.join(cfg.out, "summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for policy_id, params, mean_r, std_r, mean_s, n_cells in rows:
            fh.write(f"{policy_id},{params},{mean_r!r},{std_r!r},{mean_s!r},{n_cells}\n")

    if failures:
        with open(failures_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(failures) + "\n")
        logger.error("%d of %d cells failed; see failures.txt", len(failures), len(tasks))

    for policy_id, params, mean_r, std_r, mean_s, n_cells in rows:
        print(f"{policy_id:<10} {params:<40} regret {mean_r:12.4f} ± {std_r:10.4f}  {mean_s:9.3f}s  cells={n_cells}")
    print(f"summary written to {summary_path}")
    return 0 if not failures else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_matrix(cfg)


if __name__ == "__main__":
    sys.exit(main())

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
import math
import os
import sys
import time
import traceback
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .data import (
    ProblemKind,
    RatingDataset,
    atomic_write,
    filter_min_ratings,
    load_csv_triples,
    load_movielens,
    normalize,
    orient,
    split_base_eval,
    subsample,
    write_csv,
)
from .impute import DEFAULT_ALS_ITERS, DEFAULT_ALS_LAM, DEFAULT_RANK, METHODS
from .impute import fill, method_from_name, method_label
from .policies import DEFAULT_ALPHA, DEFAULT_C, DEFAULT_D, DEFAULT_GAMMA, DEFAULT_V, POLICIES, POLICY_IDS, make_policy
from .replay import run_replay, write_trace_csv

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run_matrix", "main", "SUMMARY_HEADER"]

logger = logging.getLogger(__name__)

SUMMARY_HEADER = "policy,params,mean_regret,std_regret,mean_seconds,cells"

_LOADERS = {"movielens": load_movielens, "csv": load_csv_triples}
_FORMATS = tuple(_LOADERS)
_PROBLEMS = tuple(kind.value for kind in ProblemKind)
_IMPUTATIONS = tuple(METHODS)


class ConfigError(ValueError):
    """Bad or missing configuration; the message names the offending key."""


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


# Value checks: (predicate, what the predicate requires).
_POSITIVE = (lambda value: value > 0, "positive")
_NONNEGATIVE = (lambda value: value >= 0, "nonnegative")


def _one_of(choices):
    return (lambda value: value in choices, f"one of {choices}")


def _distinct(values) -> bool:
    return bool(values) and len(set(values)) == len(values)


def _ids_from(choices):
    return (lambda ids: _distinct(ids) and set(ids) <= set(choices), f"a non-empty list of distinct ids from {choices}")


def _key(name: str) -> str:
    """Field name → flag, config-file and resolved-config key."""
    return name.replace("_", "-")


def _option(default, convert, help: str, check=None):
    """One config key: its default, the converter its flag and its config-file
    line share, its --help text, and its value check (None: any value).  A
    `_bool` key is a store_true flag."""
    return field(default=default, metadata={"convert": convert, "help": help, "check": check})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description (defaults < config file < flags).

    Every field is one key, spelled ``--key`` as a flag and ``key=`` in a
    config file and in resolved_config.txt (the field name with '-' for '_').
    Building one, from flags or in code, checks every value (ConfigError).
    """

    dataset: str = _option(MISSING, str, "path to the ratings file (required)", (bool, "non-empty"))
    format: str = _option("movielens", str, f"dataset format, one of {'|'.join(_FORMATS)}", _one_of(_FORMATS))
    scale_max: float = _option(5.0, float, "rating ceiling before normalization", _POSITIVE)
    problem: str = _option("new-user", str, " | ".join(_PROBLEMS), _one_of(_PROBLEMS))
    base_k: int | None = _option(None, int, "base rows k (default: square base, k = n)", _POSITIVE)
    impute: tuple[str, ...] = _option(
        ("zero",), _csv_strings, f"comma list from {'|'.join(_IMPUTATIONS)}", _ids_from(_IMPUTATIONS)
    )
    rank: int = _option(DEFAULT_RANK, int, "rank for svd/alswr imputation", _POSITIVE)
    als_lambda: float = _option(DEFAULT_ALS_LAM, float, "ALS-WR regularization", _POSITIVE)
    als_iters: int = _option(DEFAULT_ALS_ITERS, int, "ALS-WR sweeps", _POSITIVE)
    policy: tuple[str, ...] = _option(
        ("alinucb",), _csv_strings, f"comma list from {'|'.join(POLICY_IDS)}", _ids_from(POLICY_IDS)
    )
    alpha: float = _option(DEFAULT_ALPHA, float, "(a-)linucb exploration weight", _NONNEGATIVE)
    c: float = _option(DEFAULT_C, float, "egreedy schedule constant c", _POSITIVE)
    d: float = _option(DEFAULT_D, float, "egreedy schedule constant d", _POSITIVE)
    gamma: float = _option(DEFAULT_GAMMA, float, "exp3 mixture weight", (lambda g: 0 < g <= 1, "in (0, 1]"))
    v: float = _option(DEFAULT_V, float, "thompson posterior noise scale", _NONNEGATIVE)
    t: int | None = _option(None, int, "replay horizon (default: eval ratings / 10)", _POSITIVE)
    seeds: tuple[int, ...] = _option(
        (0,), _csv_ints, "comma list of integer seeds",
        (lambda seeds: _distinct(seeds) and min(seeds) >= 0, "a non-empty list of distinct nonnegative integers"),
    )
    max_users: int | None = _option(None, int, "subsample cap on users", _POSITIVE)
    max_items: int | None = _option(None, int, "subsample cap on items", _POSITIVE)
    min_ratings: int = _option(1, int, "drop users below this rating count", _POSITIVE)
    workers: int = _option(0, int, "parallel cells (0 = one per available CPU, 1 = inline)", _NONNEGATIVE)
    out: str = _option("coldrec_runs", str, "output directory")
    dump_base: bool = _option(False, _bool, "also dump each cell's filled base matrix as CSV")

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{_key(f.name)}: must be finite")
            check = f.metadata["check"]
            unset_optional = value is None and f.default is None
            if check is not None and not unset_optional and not check[0](value):
                raise ConfigError(f"{_key(f.name)}: must be {check[1]}, got {value!r}")


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldrec",
        description="Replay-based cumulative-regret benchmark for cold-start recommendation policies.",
    )
    parser.add_argument("--config", help="key=value config file; flags override its values")
    for name, f in _FIELDS.items():
        convert = f.metadata["convert"]
        kind = {"action": "store_true", "default": None} if convert is _bool else {"type": convert}
        parser.add_argument("--" + _key(name), dest=name, help=f.metadata["help"], **kind)
    return parser


def _read_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        dest = key.strip().replace("-", "_")
        if dest not in _FIELDS:
            raise ConfigError(f"{path}, line {lineno}: unknown key {key.strip()!r}")
        try:
            values[dest] = _FIELDS[dest].metadata["convert"](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: bad value for {key.strip()!r}: {exc}") from None
    return values


def parse_config(argv) -> ExperimentConfig:
    """Resolve flags plus an optional config file into an ExperimentConfig.

    Precedence: built-in defaults < config file < explicit flags.  Unknown
    config-file keys and invalid values raise :class:`ConfigError` naming
    the key.
    """
    ns = _build_parser().parse_args(argv)
    merged = _read_config_file(ns.config) if ns.config else {}
    for name in _FIELDS:
        flag_value = getattr(ns, name)
        if flag_value is not None:
            merged[name] = flag_value
    if "dataset" not in merged:
        raise ConfigError("missing required key: dataset (set --dataset or put dataset= in --config)")
    if merged["dataset"]:  # an empty path must reach the dataset check, not become the working directory
        merged["dataset"] = os.path.abspath(merged["dataset"])
    return ExperimentConfig(**merged)


def _config_lines(cfg: ExperimentConfig) -> list[str]:
    lines = []
    for name in _FIELDS:
        value = getattr(cfg, name)
        if value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{_key(name)}={value}")
    return lines


def _stable_digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def cell_seed_sequence(seed: int, policy_id: str, impute_id: str) -> np.random.SeedSequence:
    """Independent, reproducible entropy for one (policy, imputation, seed)
    cell; subsample/split/imputation/user-draw/policy streams are spawned
    from it."""
    return np.random.SeedSequence([seed, _stable_digest(policy_id), _stable_digest(impute_id)])


def _imputation(cfg: ExperimentConfig, impute_id: str):
    return method_from_name(impute_id, rank=cfg.rank, lam=cfg.als_lambda, iters=cfg.als_iters)


def _params_digest(cfg: ExperimentConfig, policy_id: str, impute_id: str) -> str:
    parts = [f"{name}={getattr(cfg, name)}" for name in POLICIES[policy_id].params]
    parts.append(f"impute={method_label(_imputation(cfg, impute_id))}")
    return ";".join(parts)


@dataclass
class CellResult:
    final_regret: float
    steps: int
    wall_seconds: float


def run_cell(ds: RatingDataset, cfg: ExperimentConfig, policy_id: str, impute_id: str, seed: int) -> CellResult:
    """Execute one fully-seeded cell: subsample → orient → split → fill →
    replay; write its trace (and base-matrix dump) into cfg.out."""
    sub_ss, split_ss, fill_ss, user_ss, policy_ss = cell_seed_sequence(seed, policy_id, impute_id).spawn(5)

    prep_start = time.perf_counter()
    work = ds
    if cfg.max_users is not None or cfg.max_items is not None:
        work = subsample(work, cfg.max_users, cfg.max_items, seed=sub_ss)
    if cfg.min_ratings > 1:
        work = filter_min_ratings(work, cfg.min_ratings)
    work = orient(work, ProblemKind(cfg.problem))

    k = cfg.base_k if cfg.base_k is not None else min(work.n_items, work.n_users - 1)
    split = split_base_eval(work, k, seed=split_ss)

    X = fill(split.base, _imputation(cfg, impute_id), seed=fill_ss)
    hyper = {name: getattr(cfg, name) for name in POLICIES[policy_id].params}
    policy = make_policy(policy_id, X=X, seed=policy_ss, **hyper)  # a contextual policy builds X here
    logger.info(
        "cell policy=%s impute=%s seed=%d: prepared %dx%d base in %.3fs (excluded from run timing)",
        policy_id, impute_id, seed, X.k, X.n_arms, time.perf_counter() - prep_start,
    )

    horizon = cfg.t if cfg.t is not None else max(1, split.evaluation.n_ratings // 10)
    trace = run_replay(policy, split.evaluation, horizon, seed=user_ss)

    write_trace_csv(trace, os.path.join(cfg.out, f"trace__{policy_id}__{impute_id}__seed{seed}.csv"))
    if cfg.dump_base:
        write_csv(os.path.join(cfg.out, f"base__{policy_id}__{impute_id}__seed{seed}.csv"), None, X.X.T)
    return CellResult(trace.final_regret, trace.steps, trace.wall_time_seconds)


_WORKER_DATASET: RatingDataset | None = None


def _init_worker(ds: RatingDataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = ds


def _pool(ds: RatingDataset, workers: int) -> concurrent.futures.ProcessPoolExecutor:
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ds,))


def _cell_task(task, ds: RatingDataset | None = None):
    """Run one cell on `ds` (in a pool worker, the dataset _init_worker
    stored); returns (result, None), or (None, traceback text) when it
    fails, so a pool worker's error reaches the manifest exactly once."""
    try:
        return run_cell(ds if ds is not None else _WORKER_DATASET, *task), None
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


def run_matrix(cfg: ExperimentConfig) -> int:
    """Run the whole (policy × imputation) × seeds grid.

    Loads the dataset first (an unreadable one raises :class:`ConfigError`
    before anything in cfg.out changes).  Writes one trace CSV per cell,
    summary.csv, the resolved config, and a failure manifest (failures.txt)
    when cells fail.  Trace and base-dump files and a manifest left by an
    earlier run into the same directory are removed first, so the directory
    describes this run only.  Returns the process exit code: 0 iff every cell
    completed.
    """
    logger.info("loading %s (%s)", cfg.dataset, cfg.format)
    try:
        ds = normalize(_LOADERS[cfg.format](cfg.dataset, scale_max=cfg.scale_max))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    logger.info("dataset: %d users, %d items, %d ratings", ds.n_users, ds.n_items, ds.n_ratings)

    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: {exc}") from exc
    _remove_stale_outputs(cfg.out)
    atomic_write(os.path.join(cfg.out, "resolved_config.txt"), ["\n".join(_config_lines(cfg)) + "\n"])

    grid = [(p, m) for p in cfg.policy for m in cfg.impute]
    tasks = [(cfg, p, m, s) for (p, m) in grid for s in cfg.seeds]

    results: dict[tuple[str, str, int], CellResult] = {}
    failures: list[str] = []
    workers = min(cfg.workers or _available_cpus(), len(tasks))  # a pool forks all its workers at once

    def record(task, outcome) -> None:
        _, policy_id, impute_id, seed = task
        res, error = outcome
        if res is None:
            failures.append(f"policy={policy_id};impute={impute_id};seed={seed}:\n{error}")
            return
        results[(policy_id, impute_id, seed)] = res
        logger.info(
            "cell policy=%s params=%s seed=%d: final regret %.4f over %d steps, %.3fs",
            policy_id, _params_digest(cfg, policy_id, impute_id), seed, res.final_regret, res.steps, res.wall_seconds,
        )

    if workers == 1:
        for task in tasks:
            record(task, _cell_task(task, ds))
    else:
        with _pool(ds, workers) as pool:
            futures = {pool.submit(_cell_task, task): task for task in tasks}
            broken = []
            for fut in concurrent.futures.as_completed(futures):
                try:
                    outcome = fut.result()
                except concurrent.futures.BrokenExecutor:  # BrokenProcessPool: a worker died, in this cell or another
                    broken.append(futures[fut])
                    continue
                except Exception:  # the pool itself failed, e.g. a result that cannot be pickled
                    outcome = None, traceback.format_exc()
                record(futures[fut], outcome)
        # Each cell a dead worker took down runs again alone, in a fresh process:
        # only a cell that kills its own worker fails, and it cannot end this run.
        for task in broken:
            with _pool(ds, 1) as pool:
                try:
                    outcome = pool.submit(_cell_task, task).result()
                except concurrent.futures.BrokenExecutor:  # this cell kills its worker
                    outcome = None, traceback.format_exc()
            record(task, outcome)

    rows = []
    for policy_id, impute_id in grid:
        cells = [results[(policy_id, impute_id, s)] for s in cfg.seeds if (policy_id, impute_id, s) in results]
        if not cells:
            continue
        regrets = np.array([c.final_regret for c in cells])
        seconds = np.array([c.wall_seconds for c in cells])
        params = _params_digest(cfg, policy_id, impute_id)
        rows.append((policy_id, params, float(regrets.mean()), float(regrets.std()), float(seconds.mean()), len(cells)))

    summary_path = os.path.join(cfg.out, "summary.csv")
    write_csv(summary_path, SUMMARY_HEADER, list(zip(*rows)))

    if failures:
        atomic_write(os.path.join(cfg.out, "failures.txt"), ["\n".join(failures) + "\n"])
        logger.error("%d of %d cells failed; see failures.txt", len(failures), len(tasks))

    for policy_id, params, mean_r, std_r, mean_s, n_cells in rows:
        print(f"{policy_id:<10} {params:<40} regret {mean_r:12.4f} ± {std_r:10.4f}  {mean_s:9.3f}s  cells={n_cells}")
    print(f"summary written to {summary_path}")
    return 0 if not failures else 1


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return run_matrix(parse_config(argv if argv is not None else sys.argv[1:]))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

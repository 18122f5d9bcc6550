"""Experiment-matrix runner: config parsing, seeded cell execution, and
CSV emission (per-cell traces plus a cross-policy summary table).

A run is a grid of (policy × imputation) rows crossed with a list of seeds.
Each (seed, imputation) group subsamples, splits and fills once, from the
seed and from (seed, imputation); every policy then replays on that base,
seeded by (seed, policy), and meets the users the seed draws; one trace CSV
per cell.  The summary aggregates final regrets over seeds per row.  A rerun
of the resolved config reproduces the trace files byte-for-byte.
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
import traceback
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .data import (
    LOADERS,
    ProblemKind,
    RatingDataset,
    atomic_write,
    filter_min_ratings,
    normalize,
    orient,
    split_base_eval,
    subsample,
    write_csv,
)
from .impute import DEFAULT_ALS_ITERS, DEFAULT_ALS_LAM, DEFAULT_RANK, METHODS
from .impute import fill, method_from_name, method_label
from .policies import DEFAULT_ALPHA, DEFAULT_C, DEFAULT_D, DEFAULT_GAMMA, DEFAULT_V, HYPER_RULES, POLICY_IDS
from .policies import make_policy, policy_params
from .replay import RegretTrace, run_replay, write_trace_csv

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run_matrix", "main", "SUMMARY_HEADER"]

logger = logging.getLogger(__name__)

SUMMARY_HEADER = "policy,params,mean_regret,std_regret,mean_seconds,cells"

_FORMATS = tuple(LOADERS)
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
    Building one, from flags or in code, checks every value (ConfigError),
    and that its resolved_config.txt line reads back as that value.
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
    alpha: float = _option(DEFAULT_ALPHA, float, "(a-)linucb exploration weight", HYPER_RULES["alpha"])
    c: float = _option(DEFAULT_C, float, "egreedy schedule constant c", HYPER_RULES["c"])
    d: float = _option(DEFAULT_D, float, "egreedy schedule constant d", HYPER_RULES["d"])
    gamma: float = _option(DEFAULT_GAMMA, float, "exp3 mixture weight", HYPER_RULES["gamma"])
    v: float = _option(DEFAULT_V, float, "thompson posterior noise scale", HYPER_RULES["v"])
    t: int | None = _option(None, int, "replay horizon (default: eval ratings / 10)", _POSITIVE)
    seeds: tuple[int, ...] = _option(
        (0,), _csv_ints, "comma list of integer seeds",
        (lambda seeds: _distinct(seeds) and min(seeds) >= 0, "a non-empty list of distinct nonnegative integers"),
    )
    max_users: int | None = _option(None, int, "subsample cap on users", _POSITIVE)
    max_items: int | None = _option(None, int, "subsample cap on items", _POSITIVE)
    min_ratings: int = _option(1, int, "drop users below this rating count", _POSITIVE)
    workers: int = _option(0, int, "parallel (seed, impute) groups: 0 = one per usable CPU, 1 = inline", _NONNEGATIVE)
    out: str = _option("coldrec_runs", str, "output directory")
    dump_base: bool = _option(False, _bool, "also dump each (seed, impute) group's context matrix as CSV")

    def __post_init__(self) -> None:
        for f in fields(self):
            key, value = _key(f.name), getattr(self, f.name)
            if value is None and f.default is None:  # an optional key left unset
                continue
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key}: must be finite")
            check, text = f.metadata["check"], _config_text(value)
            try:  # as the config-file reader reads its line: one line, stripped, converted
                reads_back = "\n" not in text and "\r" not in text and f.metadata["convert"](text.strip()) == value
            except ValueError:
                reads_back = False
            if not reads_back:
                raise ConfigError(f"{key}: {value!r} does not read back from its config line {f'{key}={text}'!r}")
            if check is not None and not check[0](value):  # a value that reads back has the key's type
                raise ConfigError(f"{key}: must be {check[1]}, got {value!r}")


def _config_text(value) -> str:
    """A value as its resolved_config.txt line writes it after `key=`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldrec",
        allow_abbrev=False,  # one spelling per key: no flag prefixes
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
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: {exc}") from exc
    values, set_on = {}, {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}, line {lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in _FIELDS or _key(dest) != key:  # config keys are spelled with '-', as flags are
            raise ConfigError(f"{path}, line {lineno}: unknown key {key!r}")
        if (first := set_on.setdefault(dest, lineno)) != lineno:
            raise ConfigError(f"{path}, line {lineno}: {key!r} is already set on line {first}")
        try:
            values[dest] = _FIELDS[dest].metadata["convert"](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: bad value for {key!r}: {exc}") from None
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
    return [f"{_key(name)}={_config_text(getattr(cfg, name))}" for name in _FIELDS if getattr(cfg, name) is not None]


def _stable_digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def cell_seed_sequence(seed: int, policy_id: str, impute_id: str) -> np.random.SeedSequence:
    """The benchmark's per-cell recipe, kept until ROADMAP 1b: perfbench
    spawns each cell's subsample, split, fill, user and policy streams from
    this one entropy per (seed, policy, imputation)."""
    return np.random.SeedSequence([seed, _stable_digest(policy_id), _stable_digest(impute_id)])


def _role_seed(seed: int, role: str) -> np.random.SeedSequence:
    """`seed`'s stream for one role ("split", "fill:<id>", "policy:<id>", …), each with its own entropy."""
    return np.random.SeedSequence([seed, _stable_digest(role)])


def _imputation(cfg: ExperimentConfig, impute_id: str):
    return method_from_name(impute_id, rank=cfg.rank, lam=cfg.als_lambda, iters=cfg.als_iters)


def _params_digest(cfg: ExperimentConfig, policy_id: str, impute_id: str) -> str:
    parts = [f"{name}={getattr(cfg, name)}" for name in policy_params(policy_id)]
    parts.append(f"impute={method_label(_imputation(cfg, impute_id))}")
    return ";".join(parts)


def prepare_base(ds: RatingDataset, cfg: ExperimentConfig, seed: int, impute_id: str):
    """The (X, evaluation set) every policy of a (seed, imputation) group
    shares: subsample → filter → orient → split, seeded by `seed` alone, and
    X the deferred fill handle, seeded by (seed, imputation).  With
    cfg.dump_base, X is built here and written to cfg.out once per group."""
    work = ds
    if cfg.max_users is not None or cfg.max_items is not None:
        work = subsample(work, cfg.max_users, cfg.max_items, seed=_role_seed(seed, "subsample"))
    if cfg.min_ratings > 1:
        work = filter_min_ratings(work, cfg.min_ratings)
    work = orient(work, cfg.problem)
    k = cfg.base_k if cfg.base_k is not None else min(work.n_items, work.n_users - 1)
    split = split_base_eval(work, k, seed=_role_seed(seed, "split"))
    X = fill(split.base, _imputation(cfg, impute_id), seed=_role_seed(seed, f"fill:{impute_id}"))
    if cfg.dump_base:
        write_csv(os.path.join(cfg.out, f"base__{impute_id}__seed{seed}.csv"), None, X.X.T)
    return X, split.evaluation


def run_policy(prepared, cfg: ExperimentConfig, policy_id: str, impute_id: str, seed: int) -> RegretTrace:
    """One cell: the policy, seeded by (seed, policy), replays on its group's
    prepare_base output and meets the users `seed` draws; its trace goes
    into cfg.out."""
    X, evaluation = prepared
    hyper = {name: getattr(cfg, name) for name in policy_params(policy_id)}
    # X is built once per group: by its dump, or else here by its first contextual policy
    policy = make_policy(policy_id, X=X, seed=_role_seed(seed, f"policy:{policy_id}"), **hyper)
    horizon = cfg.t or max(1, evaluation.n_ratings // 10)
    trace = run_replay(policy, evaluation, horizon, seed=_role_seed(seed, "users"))
    write_trace_csv(trace, os.path.join(cfg.out, f"trace__{policy_id}__{impute_id}__seed{seed}.csv"))
    return trace


_WORKER_DATASET: RatingDataset | None = None


def _init_worker(ds: RatingDataset) -> None:
    global _WORKER_DATASET
    _WORKER_DATASET = ds


def _pool(ds: RatingDataset, workers: int) -> concurrent.futures.ProcessPoolExecutor:
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(ds,))


def _attempt(fn, *args):
    """(fn(*args), None), or (None, traceback text) when it raises."""
    try:
        return fn(*args), None
    except Exception:
        return None, traceback.format_exc()


def _group_task(task, ds: RatingDataset | None = None) -> list:
    """Each cell's outcome in one (cfg, impute_id, seed, policy_ids) group,
    run on `ds` (in a pool worker, the dataset _init_worker stored): one
    preparation, whose error is each cell's, then each policy on it."""
    cfg, impute_id, seed, policy_ids = task
    prepared, error = _attempt(prepare_base, ds if ds is not None else _WORKER_DATASET, cfg, seed, impute_id)
    return [(None, error) if error else _attempt(run_policy, prepared, cfg, p, impute_id, seed) for p in policy_ids]


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (containers and taskset narrow it), else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _remove_stale_outputs(out_dir: str) -> None:
    """Delete the traces, base dumps and failure manifest that an earlier
    run into the same directory left; they describe that run."""
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
        ds = normalize(LOADERS[cfg.format](cfg.dataset, scale_max=cfg.scale_max))
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
    cells = [(p, m, s) for (p, m) in grid for s in cfg.seeds]
    groups = [(cfg, m, s, cfg.policy) for m in cfg.impute for s in cfg.seeds]

    # each cell's outcome: (RegretTrace, None), or (None, traceback text) when the cell failed
    outcomes: dict[tuple[str, str, int], tuple[RegretTrace | None, str | None]] = {}
    workers = min(cfg.workers or _available_cpus(), len(groups))  # a pool forks all its workers at once

    def record(group, group_outcomes) -> None:
        _, impute_id, seed, policy_ids = group
        for policy_id, outcome in zip(policy_ids, group_outcomes):
            outcomes[policy_id, impute_id, seed] = outcome
            if (res := outcome[0]) is not None:
                logger.info("cell policy=%s params=%s seed=%d: final regret %.4f over %d steps, %.3fs", policy_id,
                            _params_digest(cfg, policy_id, impute_id), seed, res.final_regret, res.steps,
                            res.wall_time_seconds)

    if workers == 1:
        for group in groups:
            record(group, _group_task(group, ds))
    else:
        with _pool(ds, workers) as pool:
            futures = {pool.submit(_group_task, group): group for group in groups}
            for fut in concurrent.futures.as_completed(futures):
                if fut.exception() is None:  # else a worker died (BrokenProcessPool), or a result could not be pickled
                    record(futures[fut], fut.result())
        # Each cell of a group that returned no outcomes runs again alone, in a fresh process: only a cell
        # that kills its own worker, or whose result cannot come back, fails, and it cannot end this run.
        for policy_id, impute_id, seed in [cell for cell in cells if cell not in outcomes]:
            group = (cfg, impute_id, seed, (policy_id,))
            with _pool(ds, 1) as pool:
                group_outcomes, error = _attempt(pool.submit(_group_task, group).result)
            record(group, group_outcomes or [(None, error)])

    failures = [f"policy={p};impute={m};seed={s}:\n{error}"
                for p, m, s in cells if (error := outcomes[p, m, s][1]) is not None]
    rows = []
    for policy_id, impute_id in grid:
        results = [res for s in cfg.seeds if (res := outcomes[policy_id, impute_id, s][0]) is not None]
        if not results:
            continue
        regrets = np.array([c.final_regret for c in results])
        seconds = np.array([c.wall_time_seconds for c in results])
        params = _params_digest(cfg, policy_id, impute_id)
        rows.append((policy_id, params, float(regrets.mean()), float(regrets.std()), float(seconds.mean()),
                     len(results)))

    summary_path = os.path.join(cfg.out, "summary.csv")
    write_csv(summary_path, SUMMARY_HEADER, list(zip(*rows)))

    if failures:
        atomic_write(os.path.join(cfg.out, "failures.txt"), ["\n".join(failures) + "\n"])
        logger.error("%d of %d cells failed; see failures.txt", len(failures), len(cells))

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

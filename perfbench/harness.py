"""Spans, the timing proxy, output checks and the pass loop shared by every
workload of the replay benchmark.

A *pass* runs one workload's cells once, in the order ``cli.run_cell``
calls the library: load → normalize → (subsample → orient → split) → fill
→ make_policy → run_replay → write_trace_csv, plus ``read_trace_csv`` for
the round-trip check.  Every library call sits inside a span; the output
checks sit inside ``bench.check`` spans, which the end-to-end times exclude.

Three tracing levels share that one code path:

* plain: only the coarse layer spans the end-to-end metrics need;
* ``detail``: a :class:`TimedPolicy` proxy times every ``select``/``update``
  and the linalg kernels get spans of their own;
* ``alloc``: tracemalloc peaks around the load, fill and replay calls.

``detail`` and ``alloc`` run as separate passes so that the allocation
tracer does not inflate the per-call timings.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
import tracemalloc
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field

import numpy as np

import coldrec.linalg
from coldrec import Policy, fill, make_policy, method_from_name, read_trace_csv, run_replay, write_trace_csv
from coldrec.cli import cell_seed_sequence

MB = float(2**20)

SETUP_SPANS = ("data.load", "data.prep", "impute.fill", "policies.init")
LAYER_SPANS = SETUP_SPANS + ("replay.run", "replay.trace_write", "replay.trace_read")
IMPUTE_IDS = ("zero", "average", "svd", "alswr")
POLICY_IDS = ("alinucb", "random", "egreedy", "ucb", "aver", "exp3", "thompson")
LINALG_KERNELS = {"truncated_svd": "linalg.truncated_svd_s", "als_wr_factorize": "linalg.als_wr_s"}


@dataclass
class Span:
    name: str
    parent: int
    start_ns: int = 0
    end_ns: int = 0
    child_ns: int = 0
    peak_alloc: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def self_seconds(self) -> float:
        return (self.end_ns - self.start_ns - self.child_ns) / 1e9


class Tracer:
    """Spans of one pass, kept in memory.

    Self time is a span's duration minus the time covered by its children:
    nested spans, plus the per-call policy timings that :meth:`call` charges
    to the innermost open span (those are kept as duration samples rather
    than one span record per step).
    """

    def __init__(self, detail: bool = False, alloc: bool = False):
        self.detail = detail
        self.alloc = alloc
        self.spans: list[Span] = []
        self.calls: dict[str, list[int]] = defaultdict(list)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, track_alloc: bool = False, **attrs):
        track = track_alloc and self.alloc
        parent = self._open[-1] if self._open else -1
        span = Span(name, parent, attrs=attrs)
        self._open.append(len(self.spans))
        self.spans.append(span)
        if track:
            tracemalloc.start()
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            if track:
                span.peak_alloc = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_ns += span.end_ns - span.start_ns

    def call(self, key: str, ns: int) -> None:
        self.calls[key].append(ns)
        self.spans[self._open[-1]].child_ns += ns

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.named(name))


class TimedPolicy(Policy):
    """Delegating proxy that times every select/update of the wrapped policy."""

    def __init__(self, inner: Policy, policy_id: str, tracer: Tracer):
        self.inner = inner
        self.n_arms = inner.n_arms
        self._tracer = tracer
        self._select_key = f"policies.{policy_id}.select"
        self._update_key = f"policies.{policy_id}.update"

    def observe_user(self, user):
        self.inner.observe_user(user)

    def select(self, available, t):
        start = time.perf_counter_ns()
        arm = self.inner.select(available, t)
        self._tracer.call(self._select_key, time.perf_counter_ns() - start)
        return arm

    def update(self, arm, reward):
        start = time.perf_counter_ns()
        self.inner.update(arm, reward)
        self._tracer.call(self._update_key, time.perf_counter_ns() - start)


@contextmanager
def traced_linalg(tracer: Tracer):
    """Give coldrec.linalg's two factorizations spans of their own while
    the block runs (``fill`` reaches them through the module attribute)."""
    originals = {name: getattr(coldrec.linalg, name) for name in LINALG_KERNELS}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(f"linalg.{name}"):
                return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(coldrec.linalg, name, timed(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(coldrec.linalg, name, fn)


# ---------------------------------------------------------------- checks


def check_trace(trace, back, evaluation, horizon: int) -> tuple[list[str], float]:
    """Output checks of one replay cell; returns (problems, hit rate).

    `back` is the trace as read_trace_csv returned it from the written file.
    """
    problems = []
    steps = trace.steps
    if steps != horizon and not trace.exhausted:
        problems.append(f"{steps} steps of {horizon} without exhausting the users")
    if not np.array_equal(trace.increment, trace.best - trace.revealed):
        problems.append("increment != best - revealed")
    if (trace.increment < 0).any():
        problems.append("negative regret increment")
    if not np.allclose(trace.cumulative, np.cumsum(trace.increment), rtol=1e-12, atol=1e-9):
        problems.append("cumulative is not the running sum of increments")
    if ((trace.revealed < 0) | (trace.revealed > 1)).any():
        problems.append("revealed rating outside [0, 1]")

    n = evaluation.n_items
    keys = trace.user * n + trace.arm
    if np.unique(keys).size != steps:
        problems.append("a (user, arm) pair was revealed twice")
    eval_keys = evaluation.users * n + evaluation.items
    order = np.argsort(eval_keys)
    eval_keys, eval_ratings = eval_keys[order], evaluation.ratings[order]
    pos = np.minimum(np.searchsorted(eval_keys, keys), len(eval_keys) - 1)
    known = eval_keys[pos] == keys
    if not np.array_equal(trace.revealed, np.where(known, eval_ratings[pos], 0.0)):
        problems.append("revealed value differs from the held-out rating (0 if unrated)")

    for column in ("t", "user", "arm", "revealed", "best", "increment", "cumulative"):
        if not np.array_equal(getattr(trace, column), getattr(back, column)):
            problems.append(f"trace file does not read back equal (column {column})")
            break
    return problems, float(known.mean()) if steps else 0.0


@dataclass
class CellRecord:
    """Structured result of one cell; `problems` empty means it passed."""

    policy: str
    impute: str
    seed: int
    steps: int = 0
    exhausted: bool = False
    final_regret: float | None = None
    hit_rate: float | None = None
    trace_sha256: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> str:
        return json.dumps({"cell": asdict(self)}, sort_keys=True)


# ---------------------------------------------------------------- passes


def set_up_cell(workload, source, policy_id, impute_id, seed, tracer):
    """The cell's set-up, seeded as cli.run_cell seeds it: prep → fill →
    make_policy.  Returns (policy, evaluation set, user-draw stream)."""
    sub_ss, split_ss, fill_ss, user_ss, policy_ss = cell_seed_sequence(seed, policy_id, impute_id).spawn(5)
    with tracer.span("data.prep"):
        base, evaluation = workload.prep(source, sub_ss, split_ss)
    with tracer.span("impute.fill", track_alloc=True, method=impute_id):
        X = fill(base, method_from_name(impute_id), seed=fill_ss)
    with tracer.span("policies.init", policy=policy_id):
        policy = make_policy(policy_id, X=X, seed=policy_ss)
    if tracer.detail:
        policy = TimedPolicy(policy, policy_id, tracer)
    return policy, evaluation, user_ss


def run_cell(workload, source, policy_id, impute_id, seed, tracer, workdir) -> CellRecord:
    """One cell, as cli.run_cell runs it, with its output checked.

    Any exception, from the library or a check, fails the cell instead of
    the run.
    """
    record = CellRecord(policy_id, impute_id, seed)
    path = os.path.join(workdir, f"trace__{policy_id}__{impute_id}__seed{seed}.csv")
    try:
        policy, evaluation, user_ss = set_up_cell(workload, source, policy_id, impute_id, seed, tracer)
        with tracer.span("replay.run", track_alloc=True, policy=policy_id) as span:
            trace = run_replay(policy, evaluation, workload.horizon, seed=user_ss)
            span.attrs["steps"] = trace.steps
        with tracer.span("replay.trace_write"):
            write_trace_csv(trace, path)
        with tracer.span("replay.trace_read"):
            back = read_trace_csv(path)
        with tracer.span("bench.check") as check:
            record.steps, record.exhausted = trace.steps, trace.exhausted
            record.final_regret = trace.final_regret
            record.problems, record.hit_rate = check_trace(trace, back, evaluation, workload.horizon)
            with open(path, "rb") as fh:
                data = fh.read()
            record.trace_sha256 = hashlib.sha256(data).hexdigest()
            check.attrs["trace_bytes"] = len(data)
    except Exception as exc:  # a failing cell is counted, the run goes on
        record.problems.append(f"{type(exc).__name__}: {exc}")
        record.problems.append(traceback.format_exc(limit=-3))
    finally:
        if os.path.exists(path):
            os.remove(path)
    return record


def run_pass(workload, seed: int, tracer: Tracer, workdir: str, setup_only: bool = False,
             cells=None) -> list[CellRecord]:
    """The workload's cells (or the given subset) once, from the dataset
    hand-off onwards.

    With `setup_only` each cell stops after its policy is built and no
    records are returned.
    """
    records = []
    with tracer.span("pass"), (traced_linalg(tracer) if tracer.detail else nullcontext()):
        with tracer.span("data.load", track_alloc=True):
            source = workload.load()
        with tracer.span("data.prep"):
            source = workload.normalize(source)
        for policy_id, impute_id in cells or workload.cells():
            if setup_only:
                set_up_cell(workload, source, policy_id, impute_id, seed, tracer)
            else:
                records.append(run_cell(workload, source, policy_id, impute_id, seed, tracer, workdir))
    return records


# ---------------------------------------------------------------- metrics


def run_seconds(tracer: Tracer) -> float:
    """Wall time of the pass minus the benchmark's own checks."""
    return tracer.total("pass") - tracer.total("bench.check")


def setup_seconds(tracer: Tracer) -> float:
    return sum(tracer.total(name) for name in SETUP_SPANS)


def end_to_end(tracer: Tracer) -> dict[str, float]:
    steps = sum(s.attrs.get("steps", 0) for s in tracer.named("replay.run"))
    replay = tracer.total("replay.run")
    return {
        "run_s": run_seconds(tracer),
        "setup_s": setup_seconds(tracer),
        "replay_steps_per_s": steps / replay if replay > 0 else 0.0,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(plain: Tracer, detail: Tracer, alloc: Tracer, records: list[CellRecord]) -> dict[str, float]:
    """Per-layer metrics of one workload from its three kinds of pass.

    Metrics of a layer the workload does not exercise read 0.
    """
    m: dict[str, float] = {}
    m["data.load_s"] = detail.total("data.load")
    m["data.load_peak_alloc_mb"] = max((s.peak_alloc or 0) for s in alloc.named("data.load")) / MB
    m["data.prep_s"] = detail.total("data.prep")
    fills = detail.named("impute.fill")
    for method in IMPUTE_IDS:
        m[f"impute.fill_s.{method}"] = _median([s.seconds for s in fills if s.attrs["method"] == method])
    for kernel, metric in LINALG_KERNELS.items():
        m[metric] = _median([s.seconds for s in detail.named(f"linalg.{kernel}")])
    m["impute.fill_peak_alloc_mb"] = max((s.peak_alloc or 0) for s in alloc.named("impute.fill")) / MB
    m["policies.init_s"] = detail.total("policies.init")

    for policy_id in POLICY_IDS:
        for side in ("select", "update"):
            samples = np.asarray(detail.calls.get(f"policies.{policy_id}.{side}", []), dtype=np.float64) / 1e3
            key = f"policies.{policy_id}.{side}_us"
            m[key] = float(np.median(samples)) if samples.size else 0.0
            m[key + ".p99"] = float(np.percentile(samples, 99)) if samples.size >= 1000 else 0.0

    runs = detail.named("replay.run")
    replay_s = sum(s.seconds for s in runs)
    steps = sum(s.attrs["steps"] for s in runs)
    policy_s = sum(sum(v) for v in detail.calls.values()) / 1e9
    m["policies.step_share"] = policy_s / replay_s if replay_s > 0 else 0.0
    m["replay.evaluator_us_per_step"] = sum(s.self_seconds for s in runs) / steps * 1e6 if steps else 0.0
    m["replay.reveallog_peak_alloc_mb"] = max((s.peak_alloc or 0) for s in alloc.named("replay.run")) / MB
    write_s = detail.total("replay.trace_write")
    m["replay.trace_write_s"] = write_s
    m["replay.trace_rows_per_s"] = steps / write_s if write_s > 0 else 0.0
    m["replay.trace_bytes"] = float(sum(s.attrs.get("trace_bytes", 0) for s in detail.named("bench.check")))
    m["replay.trace_read_s"] = detail.total("replay.trace_read")
    m["replay.steps"] = float(sum(r.steps for r in records))
    known = sum(r.hit_rate * r.steps for r in records if r.steps)
    m["replay.hit_rate"] = known / m["replay.steps"] if m["replay.steps"] else 0.0

    traced_run = run_seconds(detail)
    top = [s for s in detail.spans if s.name in LAYER_SPANS and detail.spans[s.parent].name == "pass"]
    m["unaccounted_s"] = traced_run - sum(s.seconds for s in top)
    m["trace_overhead_s"] = traced_run - run_seconds(plain)
    return m


def dump_spans(tracers: dict[str, Tracer], path: str) -> None:
    """Write every recorded span, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, tracer in tracers.items():
            for idx, s in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "pass": label, "id": idx, "name": s.name, "parent": s.parent,
                    "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": s.end_ns - s.start_ns - s.child_ns,
                    "peak_alloc": s.peak_alloc, **s.attrs,
                }) + "\n")

"""Tests of the replay benchmark: tiny-shape smoke runs of every workload
driver, and failing cells counted rather than fatal.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_library()

import harness  # noqa: E402
import workloads  # noqa: E402
from coldrec import Policy, Zero, fill, linear_environment, make_policy, run_replay  # noqa: E402

TINY = {
    "ml-matrix": lambda: workloads.MlMatrix(
        n_users=300, n_items=200, n_ratings=12_000, max_users=120, max_items=60, horizon=300
    ),
    "replay-wide": lambda: workloads.ReplayWide(n_eval_users=200, n_arms=100, density=0.05, base_k=8, horizon=500),
    # acceptance criterion 4's shape, where alinucb reliably beats random
    "dense-context": lambda: workloads.DenseContext(n_base=20, n_arms=100, n_eval=500, horizon=2000),
}


def declared(section):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_benchmark_json_names_known_workloads():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_smoke(name, tmp_path):
    wl = TINY[name]()
    result, records, passes = run.run_workload(wl, seed=5, seconds=0, trace=False, workdir=str(tmp_path))
    assert result["failed"] == 0, [r.problems for r in records if not r.ok]
    assert result["correct"] and len(passes) == run.MIN_PASSES
    assert result["attempted"] == run.MIN_PASSES * len(wl.cells()) + (2 if name == "dense-context" else 0)
    assert set(result["metrics"]) == declared("end_to_end")
    assert all(v > 0 for v in result["metrics"].values())
    assert all(len(r.trace_sha256) == 64 for r in records[: len(wl.cells())])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_smoke(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    result, records, _ = run.run_workload(TINY[name](), seed=5, seconds=0, trace=True,
                                          workdir=str(tmp_path), spans_path=spans)
    assert result["correct"], [r.problems for r in records if not r.ok]
    metrics = result["metrics"]
    assert set(metrics) == declared("per_layer")
    assert metrics["replay.steps"] == sum(r.steps for r in records if r.trace_sha256)
    assert 0 < metrics["replay.hit_rate"] <= 1
    assert metrics["data.load_s"] > 0 and metrics["replay.evaluator_us_per_step"] > 0
    assert metrics["policies.alinucb.select_us"] > 0 and metrics["policies.random.update_us"] > 0
    assert (metrics["impute.fill_s.alswr"] > 0) == (name == "ml-matrix")
    assert (metrics["policies.thompson.select_us"] > 0) == (name == "dense-context")
    names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
    assert {"pass", "data.load", "impute.fill", "replay.run", "bench.check"} <= names


def test_untraced_and_traced_runs_agree_on_protocol(tmp_path):
    wl = TINY["replay-wide"]
    _, plain, _ = run.run_workload(wl(), seed=9, seconds=0, trace=False, workdir=str(tmp_path))
    _, traced, _ = run.run_workload(wl(), seed=9, seconds=0, trace=True, workdir=str(tmp_path))
    assert [(r.steps, r.hit_rate, r.trace_sha256) for r in plain] == [
        (r.steps, r.hit_rate, r.trace_sha256) for r in traced
    ]


class RepeatFirstArm(Policy):
    """Violates the protocol: plays arm 0 every step, revealed or not."""

    def __init__(self, n_arms):
        self.n_arms = n_arms

    def select(self, available, t):
        return 0

    def update(self, arm, reward):
        pass


def test_protocol_violating_policy_is_a_failed_cell(tmp_path, monkeypatch):
    real = harness.make_policy

    def make(policy_id, **kwargs):
        policy = real(policy_id, **kwargs)
        return RepeatFirstArm(policy.n_arms) if policy_id == "random" else policy

    monkeypatch.setattr(harness, "make_policy", make)
    result, records, _ = run.run_workload(TINY["replay-wide"](), seed=1, seconds=0, trace=False,
                                          workdir=str(tmp_path))
    passes = run.MIN_PASSES
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2 * passes, passes)
    bad = next(r for r in records if not r.ok)
    assert bad.policy == "random" and "violated the protocol" in bad.problems[0]


def test_corrupted_trace_is_a_failed_cell(tmp_path, monkeypatch):
    real = harness.write_trace_csv

    def write_then_corrupt(trace, path):
        real(trace, path)
        lines = Path(path).read_text().splitlines(keepends=True)
        fields = lines[-1].split(",")
        fields[3] = repr(float(fields[3]) + 0.5)  # the revealed rating of the last step
        lines[-1] = ",".join(fields)
        Path(path).write_text("".join(lines))

    monkeypatch.setattr(harness, "write_trace_csv", write_then_corrupt)
    result, records, _ = run.run_workload(TINY["dense-context"](), seed=1, seconds=0, trace=False,
                                          workdir=str(tmp_path))
    # every replay cell, and the alinucb<random check that needs two of
    # them; the oracle cell writes no trace
    replays = 4 * run.MIN_PASSES
    assert (result["attempted"], result["failed"]) == (replays + 2, replays + 1)
    assert all("read back equal" in r.problems[0] for r in records[:4])


def test_check_trace_catches_protocol_breaks():
    base, evaluation = linear_environment(5, 20, 30, seed=0)
    trace = run_replay(make_policy("random", X=fill(base, Zero()), seed=0), evaluation, 200, seed=0)
    assert harness.check_trace(trace, trace, evaluation, 200)[0] == []
    trace.arm[1], trace.user[1] = trace.arm[0], trace.user[0]
    trace.revealed[5] = 1.0 - trace.revealed[5]
    problems, _ = harness.check_trace(trace, trace, evaluation, 200)
    assert any("twice" in p for p in problems) and any("held-out" in p for p in problems)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "dense-context", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

"""Replay benchmark for coldrec: one workload per process.

    python3 perfbench/run.py --workload ml-matrix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory and from nowhere else.  Inputs are generated from
``--seed``.  With ``--trace 0`` the workload's cells run as repeated passes,
at least three and more while they fit in ``--seconds``, and the end-to-end
metrics cover all of them.
With ``--trace 1`` the run makes one plain pass, one pass with per-call
timing spans and one with allocation tracing, and reports the per-layer
metrics.  Every cell's output is checked; a failing cell is
counted, not fatal.

Standard output carries the environment, one JSON record per cell of the
first pass, the metrics in readable form, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.  Traced runs
also write their spans to ``.perfbench/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

BLAS_THREADS = "1"
MIN_PASSES = 3
MIN_SETUPS = 5


def import_library():
    """Import coldrec from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coldrec
    except ImportError as exc:
        raise SystemExit(f"error: cannot import coldrec from {src}: {exc}")
    if not Path(coldrec.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: coldrec was imported from {coldrec.__file__}, not from {src}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_passes(workload, seed: int, seconds: float, workdir: str):
    """Untraced passes; returns (end-to-end metrics, records, per-pass figures)."""
    from harness import Tracer, end_to_end, run_pass, setup_seconds

    # MIN_PASSES passes always run; more follow while another one of the
    # last one's length still fits in `seconds`.
    records, per_pass, start = [], [], time.perf_counter()
    while True:
        tracer = Tracer()
        pass_start = time.perf_counter()
        records.extend(run_pass(workload, seed, tracer, workdir))
        per_pass.append(end_to_end(tracer))
        now = time.perf_counter()
        if len(per_pass) >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    # Whole-run figures: the mean pass, and all replay steps over all replay
    # time (the harmonic mean, as every pass runs the same steps).  On a
    # shared machine these spread less between runs than the median or the
    # best pass did (perfbench/README.md).
    metrics = {
        "run_s": statistics.fmean(p["run_s"] for p in per_pass),
        "replay_steps_per_s": statistics.harmonic_mean([p["replay_steps_per_s"] for p in per_pass]),
    }
    # Set-up alone is cheap on some workloads: repeat it for a steadier
    # median, within a quarter of `seconds` on top.
    setups = [p["setup_s"] for p in per_pass]
    deadline = time.perf_counter() + seconds / 4
    while all(r.ok for r in records) and len(setups) < MIN_SETUPS and time.perf_counter() + setups[-1] < deadline:
        tracer = Tracer()
        run_pass(workload, seed, tracer, workdir, setup_only=True)
        setups.append(setup_seconds(tracer))
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, records, per_pass


def traced_passes(workload, seed: int, workdir: str, spans_path=None):
    """A plain, a timing-traced and an allocation-traced pass over the same
    inputs; returns (per-layer metrics, records)."""
    from harness import Tracer, dump_spans, per_layer, run_pass

    tracers = {"plain": Tracer(), "detail": Tracer(detail=True), "alloc": Tracer(alloc=True)}
    # Peaks depend on the fill method and the shapes only, so the slow
    # allocation-traced pass runs one cell per imputation.
    one_per_impute = {}
    for policy_id, impute_id in workload.cells():
        one_per_impute.setdefault(impute_id, (policy_id, impute_id))
    runs = {
        label: run_pass(workload, seed, tracer, workdir, cells=list(one_per_impute.values()) if tracer.alloc else None)
        for label, tracer in tracers.items()
    }
    plain = runs["plain"]
    # The protocol counts and the traces must not depend on tracing.
    fingerprint = {(r.policy, r.impute): (r.steps, r.hit_rate, r.trace_sha256) for r in plain}
    for label, rs in runs.items():
        if any(fingerprint[r.policy, r.impute] != (r.steps, r.hit_rate, r.trace_sha256) for r in rs):
            plain[0].problems.append(f"{label} pass differs from the plain pass in steps, hit rate or trace")
    if spans_path is not None:
        dump_spans(tracers, spans_path)
    metrics = per_layer(tracers["plain"], tracers["detail"], tracers["alloc"], plain)
    return metrics, plain + runs["detail"] + runs["alloc"]


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: str, spans_path=None):
    """Run one workload.

    Returns (result dict, cell records of its first pass plus the extra
    checks, per-pass end-to-end figures of an untraced run).
    """
    workload.generate(seed, workdir)
    if trace:
        metrics, records = traced_passes(workload, seed, workdir, spans_path)
        per_pass = []
    else:
        metrics, records, per_pass = timed_passes(workload, seed, seconds, workdir)
    first = records[: len(workload.cells())]
    extra = workload.extra_checks(seed, first)
    records += extra
    failed = sum(not r.ok for r in records)
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, first + extra, per_pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # One BLAS thread, so that the kernels' speed does not depend on how
    # busy the other cores are.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    units = declared_metrics(bool(args.trace))

    print(json.dumps({"env": environment()}), flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        result, records, passes = run_workload(
            WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), workdir, spans_path
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for record in records:
        print(record.to_json())
    metrics = result["metrics"]
    print(f"# {args.workload} seed={args.seed}: cells_failed {result['failed']} of {result['attempted']} attempted")
    for i, figures in enumerate(passes):
        print(f"# pass {i}: " + " ".join(f"{k}={v:.6g}" for k, v in figures.items()))
    if set(metrics) != set(units):
        raise SystemExit(f"error: measured metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name in units:
        print(f"# {name:<40} {metrics[name]:18.6f} {units[name]}")
    result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

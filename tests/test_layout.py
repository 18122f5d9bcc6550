"""Layout guards for the package: every exported name exists, the package
exports exactly its library modules' public names, and source lines stay
within the width the code is written to."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import coldrec

SRC = Path(__file__).resolve().parents[1] / "src" / "coldrec"
LIBRARY = ("data", "impute", "linalg", "policies", "replay", "synthetic")
SUBMODULES = ("cli", *LIBRARY)
MODULES = ("coldrec", *(f"coldrec.{name}" for name in SUBMODULES))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert module.__all__ and not missing, missing


# The names coldrec exported when its list was kept by hand: callers may
# import any of them, so each must stay exported.
EXPORTED_BEFORE = (
    "ALinUcbPolicy AlsWr AveragePolicy BaseMatrix CorpusSplit EpsilonGreedyPolicy Exp3Policy ImputedSvd ItemAverage "
    "LinUcbPolicy OraclePolicy Policy ProblemKind RandomPolicy RatingDataset RegretTrace ThompsonPolicy UcbPolicy "
    "Zero als_wr_factorize dataset_from_dense fill filter_min_ratings linear_environment load_csv_triples "
    "load_movielens make_policy method_from_name normalize orient read_trace_csv run_replay save_csv_triples "
    "split_base_eval subsample truncated_svd write_trace_csv"
).split()


def test_package_exports_every_library_name():
    declared = set()
    for name in LIBRARY:
        declared |= set(importlib.import_module(f"coldrec.{name}").__all__)
    assert len(EXPORTED_BEFORE) == 37
    assert set(coldrec.__all__) == declared
    assert len(coldrec.__all__) == len(declared)  # no name listed twice
    assert set(EXPORTED_BEFORE) <= declared


def test_package_import_leaves_the_cli_unloaded():
    code = "import coldrec, sys; print(sorted(m for m in sys.modules if m.startswith('coldrec')))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert "coldrec.cli" not in loaded
    assert "coldrec.replay" in loaded  # the subprocess really imported the package


def test_source_lines_fit_in_120_columns():
    long = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 120
    ]
    assert not long, long

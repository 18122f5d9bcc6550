"""Layout guards for the package: every exported name exists, and source
lines stay within the width the code is written to."""

import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coldrec"
SUBMODULES = ("cli", "data", "impute", "linalg", "policies", "replay", "synthetic")
MODULES = ("coldrec", *(f"coldrec.{name}" for name in SUBMODULES))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert module.__all__ and not missing, missing


def test_source_lines_fit_in_120_columns():
    long = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 120
    ]
    assert not long, long

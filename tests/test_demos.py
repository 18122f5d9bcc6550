"""Every script under demos/ runs to completion.

Each runs as its own process in a scratch working directory (demo 04
writes its trace CSV into the current directory, demo 05 its corpus and
outputs under the temporary directory), with the package imported from
this checkout's src/.  They run in Python's development mode (-X dev), so
a file a demo leaves unclosed shows as a ResourceWarning, which fails it.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-X", "dev", str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "ResourceWarning" not in done.stderr, done.stderr[-2000:]

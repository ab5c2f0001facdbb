"""Smoke test: every script under ``demos/`` runs to completion."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import fairmix

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "FAIRMIX_OUT_DIR"}
    # Run from a fresh directory with the imported fairmix first on the
    # path, so the demo exercises the code under test.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fairmix.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, check=False
    )
    assert proc.returncode == 0, proc.stderr.decode()

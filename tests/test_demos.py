"""Smoke test: every script under ``demos/`` runs to completion."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

from conftest import subprocess_env

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # Run from a fresh directory so the demo exercises the code under test,
    # with a private temp dir that must be left empty.
    work, temp = tmp_path / "work", tmp_path / "temp"
    work.mkdir()
    temp.mkdir()
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=work,
        env={**subprocess_env(), "TMPDIR": str(temp)},
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert list(temp.iterdir()) == []

"""Golden outputs: sweep CSVs and oracle-check reports, byte for byte.

The pinned files come from ``tools/gen_golden.py``.  They follow numpy's
generator streams, so the test skips under a numpy other than the one
recorded in ``tests/golden/numpy.txt``.  ``tests/golden/scipy.txt`` records the
scipy they were made with, which CI installs.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("gen_golden", ROOT / "tools" / "gen_golden.py")
gen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden)


@pytest.mark.parametrize("name", sorted(gen_golden.CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    pinned = (GOLDEN / "numpy.txt").read_text(encoding="utf-8").strip()
    if pinned != np.__version__:
        pytest.skip(f"golden outputs were made with numpy {pinned}, running numpy {np.__version__}")
    got = gen_golden.run_case(name, tmp_path).read_bytes()
    assert got == (GOLDEN / name).read_bytes(), f"{name} differs from its golden copy"


def test_every_golden_file_has_a_case():
    files = {p.name for p in GOLDEN.iterdir()} - {"numpy.txt", "scipy.txt"}
    assert files == set(gen_golden.CASES)

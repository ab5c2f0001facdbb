"""Regenerate the golden outputs that ``tests/test_golden.py`` pins byte for byte.

Each case is one ``fairmix`` CLI invocation: a one-round sweep over the
default alpha grid for every scenario and algorithm, a longer bids and
synthetic epsilon-mix sweep, and the
``oracle-check`` report of every preset for both algorithms.  The bytes
follow numpy's generator streams, so ``numpy.txt`` records the numpy
version they were made with; the epsilon-mix oracle reports also go
through ``scipy.special.bdtr``, so ``scipy.txt`` records the scipy version.
Run from the repository root after a change that is meant to alter
outputs, and list the changed files in CHANGES.md:

    PYTHONPATH=src python tools/gen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import pathlib

import numpy as np
import scipy

from fairmix import cli

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

_EPSILON = {"simple_mix": [], "epsilon_mix": ["--epsilon", "0.1"]}

#: Output file name -> CLI arguments (``--output`` is added per run).
CASES: dict[str, list[str]] = {
    **{
        f"sweep_{scenario}_{algorithm}.csv": [
            "sweep", "--scenario", scenario, "--algorithm", algorithm, *flags,
            "--rounds", "1", "--batches", "1", "--seed", "0",
        ]
        for scenario in ("synthetic", "bids", "sortition")
        for algorithm, flags in _EPSILON.items()
    },
    # More rounds on the one general round-robin prior, whose values tie often.
    "sweep_bids_epsilon_mix_rounds.csv": [
        "sweep", "--scenario", "bids", "--algorithm", "epsilon_mix", "--epsilon", "0.1",
        "--alpha-grid", "0.25,0.5,0.75", "--rounds", "10", "--batches", "2", "--seed", "1",
    ],
    # More rounds on the unit round-robin prior (serial dictatorship), so more tails.
    "sweep_synthetic_epsilon_mix_rounds.csv": [
        "sweep", "--scenario", "synthetic", "--algorithm", "epsilon_mix", "--epsilon", "0.1",
        "--alpha-grid", "0.25,0.5,0.75", "--rounds", "10", "--batches", "2", "--seed", "1",
    ],
    **{
        f"oracle_check_{preset}_{algorithm}.txt": [
            "oracle-check", "--preset", preset, "--algorithm", algorithm, *flags,
        ]
        for preset in ("tightness", "zero-prior", "random")
        for algorithm, flags in _EPSILON.items()
    },
}


def run_case(name: str, out_dir: pathlib.Path) -> pathlib.Path:
    """Run case ``name`` with its output in ``out_dir``; returns the file written."""
    path = out_dir / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*CASES[name], "--output", str(path)])
    if code != 0:
        raise RuntimeError(f"{name}: fairmix exited with {code}")
    return path


def main() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        print(run_case(name, GOLDEN_DIR))
    for lib in (np, scipy):
        (GOLDEN_DIR / f"{lib.__name__}.txt").write_text(lib.__version__ + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Import hygiene: fairmix runs without networkx, defers scipy.optimize and
never loads scipy.stats."""

from __future__ import annotations

import subprocess
import sys

from conftest import subprocess_env

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
import fairmix.cli
import fairmix.experiments
assert "scipy.optimize" not in sys.modules, "importing fairmix loaded scipy.optimize"
import numpy as np
from fairmix.core import Distribution, FairPrior, InterpolationInstance, ValueFunction
from fairmix.core import WelfareMechanism
from fairmix.mix import epsilon_mix_many
instance = InterpolationInstance(
    value=ValueFunction.from_array([1.0, 2.0, 2.0]),
    prior=FairPrior.from_distribution(Distribution.from_array([0.2, 0.3, 0.5])),
    mechanism=WelfareMechanism.constant(1),
    alpha=0.5,
)
assert len(epsilon_mix_many(instance, 0.1, 50, np.random.default_rng(0))) == 50
assert "scipy.stats" not in sys.modules, "the explicit-prior epsilon_mix loaded scipy.stats"
from fairmix.assignment import BipartiteInstance, max_matching
print(sorted(max_matching(BipartiteInstance(np.array([[0.0, 1.0], [1.0, 0.0]]))).edges))
"""


def test_cli_imports_without_networkx_or_scipy_optimize(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=subprocess_env(),
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "[(0, 1), (1, 0)]"

"""Import hygiene: fairmix runs without networkx, defers scipy.optimize,
scipy.special and scipy.spatial, never loads scipy.stats, and imports no
name it does not use."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import pytest

import fairmix
from conftest import subprocess_env

MODULES = sorted(pathlib.Path(fairmix.__file__).parent.glob("*.py"))

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of networkx now fails
import fairmix.cli
import fairmix.experiments
for name in ("scipy.optimize", "scipy.special", "scipy.spatial"):
    assert name not in sys.modules, f"importing fairmix loaded {name}"
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


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (names in ``__all__`` count as read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_catches_one():
    source = "from typing import Iterable, Mapping\nimport numpy as np\nx: Mapping = np.zeros\n"
    assert unused_imports(source) == ["Iterable (line 1)"]

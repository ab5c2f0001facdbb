"""Experiment harness: scenario wiring, seeded alpha sweeps, CSV output.

A sweep evaluates one mixing algorithm on one scenario across a grid of
fairness budgets ``alpha``.  For each ``alpha`` it runs ``n_batches``
batches of ``n_rounds`` independent algorithm invocations, records the
value of each output solution, and reports the grand mean together with
the standard deviation of the batch means.

Randomness is split hierarchically from the master seed: every
``(alpha index, batch index, round index)`` cell owns an independent
substream, so runs are reproducible bit-for-bit, batches can be executed
in any order (or in parallel) without changing results, and editing the
grid does not perturb unrelated cells.
"""

from __future__ import annotations

import dataclasses
import math
from importlib import resources
from typing import Any, Callable

import numpy as np

from .assignment import (
    AssignmentSolution,
    BipartiteInstance,
    RoundRobinSampler,
    greedy_matching,
    max_matching,
    synthetic_instance,
    utilitarian_value,
)
from .core import (
    ALGORITHMS,
    Distribution,
    FairPrior,
    InterpolationInstance,
    ParameterError,
    ValueFunction,
    WelfareMechanism,
)
from .ingest import ADULT_FEATURES, bids_to_instance, parse_bids, parse_demographics
from .mix import epsilon_mix, sample_size, simple_mix
from .oracle import GuaranteeReport, check_guarantees
from .sortition import sortition_fwi_instance

SCENARIOS = ("synthetic", "bids", "sortition")
ORACLE_PRESETS = ("tightness", "zero-prior", "random")

#: The default fairness-budget grid: 1/20, 2/20, ..., 19/20.
DEFAULT_ALPHA_GRID = tuple(i / 20 for i in range(1, 20))

#: Default (rounds, batches) per scenario and algorithm.
DEFAULT_SCHEDULE = {
    ("synthetic", "simple_mix"): (100, 10),
    ("synthetic", "epsilon_mix"): (50, 5),
    ("bids", "simple_mix"): (100, 10),
    ("bids", "epsilon_mix"): (50, 5),
    ("sortition", "simple_mix"): (20, 5),
    ("sortition", "epsilon_mix"): (10, 5),
}


def bundled_data_path(name: str) -> str:
    """Path of a data file shipped with the package."""
    return str(resources.files("fairmix").joinpath("data", name))


@dataclasses.dataclass
class ExperimentConfig:
    """Sweep parameters.  Unset rounds/batches fall back to the per-scenario
    defaults in :data:`DEFAULT_SCHEDULE`."""

    scenario: str = "synthetic"
    algorithm: str = "simple_mix"
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    epsilon: float | None = None
    n_rounds: int | None = None
    n_batches: int | None = None
    n_eps_override: int | None = None
    seed: int = 0
    input_path: str | None = None
    output_path: str | None = None
    # scenario shape knobs (defaults mirror the bundled experiment setups)
    n_left: int = 100
    n_right: int = 5
    panel_size: int = 10

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ParameterError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.algorithm not in ALGORITHMS:
            raise ParameterError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if not self.alpha_grid:
            raise ParameterError("alpha_grid must be non-empty")
        for a in self.alpha_grid:
            if not 0.0 < a <= 1.0:
                raise ParameterError(f"alpha grid values must lie in (0, 1], got {a!r}")
        if (self.epsilon is None) == (self.algorithm == "epsilon_mix"):
            raise ParameterError("epsilon is required for epsilon_mix and meaningless otherwise")
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        for field, low in (("n_rounds", 1), ("n_batches", 1), ("n_eps_override", 1)):
            v = getattr(self, field)
            if v is not None and v < low:
                raise ParameterError(f"{field} must be >= {low}, got {v!r}")

    def resolved_schedule(self) -> tuple[int, int]:
        rounds, batches = DEFAULT_SCHEDULE[(self.scenario, self.algorithm)]
        return (
            self.n_rounds if self.n_rounds is not None else rounds,
            self.n_batches if self.n_batches is not None else batches,
        )

    def eps_samples_for(self, alpha: float) -> int | None:
        """Per-call prior-sample count for the sample-trim algorithm.

        Defaults to ``ceil(sample_size(0, epsilon) / (1 - alpha))`` — the
        numerator is fixed per epsilon and only the ``1/(1 - alpha)``
        factor varies across the grid.  ``n_eps_override`` pins a constant
        count instead (a practical low-cost setting; the welfare guarantee
        is only claimed at the formula count).
        """
        if self.algorithm != "epsilon_mix":
            return None
        if self.n_eps_override is not None:
            return self.n_eps_override
        if alpha >= 1.0:
            return None  # the coin never comes up tails; count unused
        return math.ceil(sample_size(0.0, self.epsilon) / (1.0 - alpha))


@dataclasses.dataclass(frozen=True)
class SweepRow:
    alpha: float
    mean_score: float
    std_of_batch_means: float
    batch_means: tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


@dataclasses.dataclass(frozen=True)
class ScenarioBundle:
    """A scenario instantiated once, parameterized only by ``alpha``."""

    name: str
    make_instance: Callable[[float], InterpolationInstance]
    info: dict[str, Any]


def _scenario_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))


def _round_rng(seed: int, ai: int, bi: int, ri: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ai, bi, ri)))
    )


def build_scenario(config: ExperimentConfig) -> ScenarioBundle:
    """Build the scenario's instance once (deterministic given seed); its
    factory derives each alpha's instance from it."""
    rng = _scenario_rng(config.seed)
    if config.scenario == "synthetic":
        inst = synthetic_instance(config.n_left, config.n_right, rng)
        instance = _round_robin_instance(inst, max_matching(inst), lam=1.0)
        info = {"n_left": inst.n_left, "n_right": inst.n_right, "mechanism": "max_matching"}
    elif config.scenario == "bids":
        path = config.input_path or bundled_data_path("mini_bids.csv")
        corpus = parse_bids(path)
        inst = bids_to_instance(corpus, demand=3)
        # Greedy selection on a two-sided constraint system keeps at least
        # half the optimal weight, hence the declared factor 1/2.
        instance = _round_robin_instance(inst, greedy_matching(inst), lam=0.5)
        info = {
            "n_left": inst.n_left,
            "n_right": inst.n_right,
            "demand": inst.demand,
            "load_cap": inst.load_cap,
            "mechanism": "greedy_matching",
        }
    else:
        path = config.input_path or bundled_data_path("demo_demographics.csv")
        # Standardized coordinates keep the numeric columns commensurate with
        # the one-hot block, so panel costs (and hence values) stay in a
        # readable range on small clouds.
        points = parse_demographics(path, dataclasses.replace(ADULT_FEATURES, scale=True))
        instance = sortition_fwi_instance(points, config.panel_size, 0.0, rng)
        info = {
            "n_points": int(points.shape[0]),
            "dim": int(points.shape[1]),
            "panel_size": config.panel_size,
            "mechanism": "kmeanspp_select",
        }

    def make(alpha: float) -> InterpolationInstance:
        return dataclasses.replace(instance, alpha=alpha)

    return ScenarioBundle(name=config.scenario, make_instance=make, info=info)


def _round_robin_instance(
    inst: BipartiteInstance, best: AssignmentSolution, lam: float
) -> InterpolationInstance:
    """Round-robin prior, edge-sum value, a mechanism that returns ``best``."""
    return InterpolationInstance(
        value=utilitarian_value(inst),
        prior=FairPrior(RoundRobinSampler(inst).sample_many),
        mechanism=WelfareMechanism.constant(best, lam=lam),
        alpha=0.0,
    )


def run_sweep_on(bundle: ScenarioBundle, config: ExperimentConfig) -> SweepResult:
    """Sweep an already-built scenario (see :func:`run_sweep`)."""
    n_rounds, n_batches = config.resolved_schedule()
    rows = []
    for ai, alpha in enumerate(config.alpha_grid):
        instance = bundle.make_instance(alpha)
        n_samples = config.eps_samples_for(alpha)
        batch_means = []
        for bi in range(n_batches):
            scores = np.empty(n_rounds, dtype=float)
            for ri in range(n_rounds):
                rng = _round_rng(config.seed, ai, bi, ri)
                if config.algorithm == "epsilon_mix":
                    out = epsilon_mix(instance, config.epsilon, rng, n_samples=n_samples)
                else:
                    out = simple_mix(instance, rng)
                scores[ri] = instance.value(out)
            batch_means.append(float(scores.mean()))
        bm = np.array(batch_means)
        std = float(bm.std(ddof=1)) if n_batches > 1 else 0.0
        rows.append(
            SweepRow(
                alpha=float(alpha),
                mean_score=float(bm.mean()),
                std_of_batch_means=std,
                batch_means=tuple(batch_means),
            )
        )
    return SweepResult(rows=tuple(rows))


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run a full sweep; deterministic given ``config.seed``."""
    config.validate()
    return run_sweep_on(build_scenario(config), config)


def emit_csv(result: SweepResult, path: str) -> None:
    """Write sweep rows as ``alpha,means,variance`` CSV.

    The ``variance`` column carries the standard deviation of the batch
    means (the column name matches the plotting convention downstream
    tooling expects).  Values keep 10 significant digits, so a parse
    round-trip recovers them well within 1e-6.
    """
    if not result.rows:
        raise ParameterError("cannot emit an empty sweep result")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("alpha,means,variance\n")
        for row in result.rows:
            fh.write(f"{row.alpha:.10g},{row.mean_score:.10g},{row.std_of_batch_means:.10g}\n")


# ---------------------------------------------------------------------------
# oracle-check presets


def oracle_preset_instance(
    preset: str, alpha: float, lam: float | None = None, seed: int = 0
) -> InterpolationInstance:
    """Small enumerable instances with known behavior for oracle checks.

    ``tightness``: two solutions valued (1, 0), prior mass ``1 - alpha``
    on the good one, exact mechanism; the single-draw algorithm's welfare
    ratio is exactly ``alpha + (1 - alpha)**2``.

    ``zero-prior``: the prior lives entirely on zero-valued solutions and
    the mechanism returns a solution worth ``lam`` times the optimum; the
    single-draw welfare ratio is exactly ``lam``.

    ``random``: a seeded 6-solution instance with exact mechanism.
    """
    if preset == "tightness":
        if lam not in (None, 1.0):
            raise ParameterError("the tightness preset is defined for lam = 1")
        if not 0.0 < alpha < 1.0:
            raise ParameterError("the tightness preset needs alpha in (0, 1)")
        value = ValueFunction.from_array([1.0, 0.0])
        prior = FairPrior.from_distribution(Distribution({0: 1.0 - alpha, 1: alpha}))
        mechanism = WelfareMechanism.constant(0, lam=1.0)
    elif preset == "zero-prior":
        lam = 0.6 if lam is None else lam
        value = ValueFunction.from_array([1.0, lam, 0.0, 0.0])
        prior = FairPrior.from_distribution(Distribution({2: 0.5, 3: 0.5}))
        mechanism = WelfareMechanism.constant(1, lam=lam)
    elif preset == "random":
        if lam not in (None, 1.0):
            raise ParameterError("the random preset uses an exact mechanism (lam = 1)")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(4,))))
        values = rng.uniform(0.5, 10.0, size=6)
        raw = rng.uniform(0.05, 1.0, size=6)
        prior_dist = Distribution.from_array(raw / raw.sum())
        value = ValueFunction.from_array(values)
        prior = FairPrior.from_distribution(prior_dist)
        mechanism = WelfareMechanism.constant(value.argmax(), lam=1.0)
    else:
        raise ParameterError(f"unknown preset {preset!r}; expected one of {ORACLE_PRESETS}")
    return InterpolationInstance(value=value, prior=prior, mechanism=mechanism, alpha=alpha)


def run_oracle_check(
    preset: str = "random",
    alpha: float = 0.5,
    lam: float | None = None,
    epsilon: float | None = None,
    n_runs: int = 20_000,
    seed: int = 0,
    output_path: str | None = None,
) -> GuaranteeReport:
    """Build a preset instance, check its guarantees, optionally write the report."""
    instance = oracle_preset_instance(preset, alpha, lam=lam, seed=seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(5,))))
    report = check_guarantees(instance, n_runs, rng, epsilon=epsilon)
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(report.render())
    return report

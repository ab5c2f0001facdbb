"""The four benchmark workloads, built only from fairmix's public API.

Three sweep workloads run ``experiments.run_sweep_on`` with ``epsilon_mix``
over the alpha grid {0.25, 0.5, 0.75} at epsilon 0.1; each stresses another
prior sampler and value function:

* ``goods-eps``: synthetic 100x5 goods, unit round-robin prior, constant
  ``max_matching`` mechanism.  Prior sampling dominates; values never tie.
* ``bids-eps``: bundled ``mini_bids.csv`` (12x9, demand 3), general
  round-robin prior, greedy mechanism.  The only workload with large value
  ties, so the only one where the canonical-key tie sort runs.
* ``panels-eps``: bundled ``demo_demographics.csv`` (standardised), panel
  size 10, random-replace prior, k-means++ mechanism.  Value evaluation
  (one ``cdist`` per panel) dominates and heads run a costly mechanism.

``oracle-exact`` runs the explicit-prior verification path instead: the
multinomial count path, the oracle builders and the exact assignment
solver, none of which the sweeps touch.

The seed regenerates every random input: the synthetic goods instance, the
sortition reference panel, the oracle instances and the RNG streams of each
job.  Figures are therefore comparable only at equal seeds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
from scipy.optimize import linear_sum_assignment

import fairmix.assignment as assignment
import fairmix.core as core
import fairmix.experiments as experiments
import fairmix.mix as mix
import fairmix.oracle as oracle

HERE = os.path.dirname(os.path.abspath(__file__))

GRID = (0.25, 0.5, 0.75)
EPSILON = 0.1

#: Sweep workloads: scenario and the (rounds, batches) of one job, sized so
#: that one job takes about a second on a 2-core x86 box.
SWEEPS = {
    "goods-eps": ("synthetic", 4, 2),
    "bids-eps": ("bids", 1, 2),
    "panels-eps": ("sortition", 1, 2),
}

#: oracle-exact sizes, chosen so that one job takes about 1.3 s and a run
#: takes the median of each step over about ten jobs.  The count path holds
#: tails x support matrices, so ORACLE_RUNS x ORACLE_SUPPORT sets its memory.
#: Every job solves a fresh MATCHING_SIZE goods instance, so the solver's
#: instance-to-instance spread averages out within a run, not across seeds.
ORACLE_ALPHA = 0.5
ORACLE_SUPPORT = 1_000
ORACLE_RUNS = 6_000
P_OPT_SUPPORT = 100_000
MATCHING_SIZE = 70

#: Half-width of the sweep correctness bands, in standard deviations of the
#: checked statistic (see ``Sweep.verify``).
K_SIGMA = 5.0
#: Prior draws behind the tail check, and the fewest tail outputs it is run
#: on (fewer would make the normal approximation too rough).
TAIL_LAW_DRAWS = 4_000
TAIL_CHECK_MIN = 8

WORKLOADS = (*SWEEPS, "oracle-exact")


def job_seed(seed: int, k: int) -> int:
    """Seed of job ``k`` in a run with workload seed ``seed``."""
    return seed * 10_000 + k


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


@dataclasses.dataclass
class JobResult:
    wall_s: float
    samples: int  # prior samples drawn, valued and trimmed (or counted)
    mix_s: float  # wall time the samples were processed in
    attempted: int
    failed: int
    heads: dict[float, int]
    tails: dict[float, int]
    notes: list[str] = dataclasses.field(default_factory=list)
    nominal_samples: float | None = None  # sweeps: samples at the expected tail counts
    retries: int = 0
    parts: dict[str, float] = dataclasses.field(default_factory=dict)  # oracle: seconds per step
    row_means: dict[float, float] = dataclasses.field(default_factory=dict)  # sweeps: per alpha
    head_outputs: dict[float, list] = dataclasses.field(default_factory=dict)  # sweeps: per alpha


class CountingMechanism:
    """Counts mechanism runs (the alpha coin's heads) per alpha and keeps
    their outputs."""

    def __init__(self) -> None:
        self.heads: Counter[float] = Counter()
        self.outputs: defaultdict[float, list] = defaultdict(list)

    def clear(self) -> None:
        self.heads.clear()
        self.outputs.clear()

    def wrap(self, instance: core.InterpolationInstance) -> core.InterpolationInstance:
        inner = instance.mechanism
        heads, outputs, alpha = self.heads, self.outputs, instance.alpha

        def run(rng):
            heads[alpha] += 1
            out = inner.run(rng)
            outputs[alpha].append(out)
            return out

        return dataclasses.replace(instance, mechanism=core.WelfareMechanism(run, lam=inner.lam))


class Sweep:
    """One ``epsilon_mix`` sweep workload; a job is one ``run_sweep_on``."""

    def __init__(self, name: str, seed: int, reference: dict | None = None):
        scenario, rounds, batches = SWEEPS[name]
        self.seed = seed
        self.config = experiments.ExperimentConfig(
            scenario=scenario, algorithm="epsilon_mix", alpha_grid=GRID, epsilon=EPSILON,
            n_rounds=rounds, n_batches=batches, seed=seed)
        self.calls_per_alpha = rounds * batches
        self.ops_per_job = len(GRID)
        self.counter = CountingMechanism()
        self.reference = reference

    def setup(self) -> None:
        bundle = experiments.build_scenario(self.config)
        bundle.make_instance(GRID[0])  # sortition: reference panel and neighbour lists
        counter = self.counter

        def make_instance(alpha):
            return counter.wrap(bundle.make_instance(alpha))

        self.bundle = dataclasses.replace(bundle, make_instance=make_instance)

    def prepare(self) -> None:
        pass

    def job(self, k: int) -> JobResult:
        config = dataclasses.replace(self.config, seed=job_seed(self.seed, k))
        self.counter.clear()
        t0 = perf_counter()
        result = experiments.run_sweep_on(self.bundle, config)
        wall = perf_counter() - t0
        heads = {a: self.counter.heads[a] for a in GRID}
        tails = {a: self.calls_per_alpha - heads[a] for a in GRID}
        samples = sum(tails[a] * config.eps_samples_for(a) for a in GRID)
        nominal = sum(self.calls_per_alpha * (1 - a) * config.eps_samples_for(a) for a in GRID)
        row_means = {row.alpha: row.mean_score for row in result.rows if row.alpha in GRID}
        failed = self.ops_per_job - len(row_means)
        notes = [f"job {k}: {failed} of {self.ops_per_job} sweep rows missing"] if failed else []
        return JobResult(wall, samples, wall, self.ops_per_job, failed, heads, tails, notes,
                         nominal_samples=nominal, row_means=row_means,
                         head_outputs={a: list(self.counter.outputs[a]) for a in GRID})

    def verify(self, jobs: list[JobResult]) -> tuple[int, list[str]]:
        """Check the mixing outputs of ``jobs``; returns the failed rows and
        a note per failed check.  Both checks use a band of ``K_SIGMA``
        standard deviations.

        * Per alpha, the row mean pooled over the jobs against the reference
          law (``reference.json``).  The jobs share one instance, so the
          pooled mean spreads by the reference's between-instance spread
          plus its within-instance spread over ``sqrt(n)``, plus the
          reference mean's own error.  A miss fails the rows at that alpha.
        * The tail outputs (row outputs minus the mechanism's outputs) of
          every alpha together: their value sum against the sum of the mean
          value of the top ``1 - alpha`` of the prior's mass, which is what
          trimming keeps, estimated on this instance from fresh prior
          draws.  It needs no reference file.  A miss fails every row.
        """
        failed, notes = 0, []
        rows = {a: [j for j in jobs if a in j.row_means] for a in GRID}
        if self.reference is not None:
            for a, done in rows.items():
                if not done:
                    continue
                ref = self.reference[str(a)]
                sd = math.sqrt(ref["between_sd"] ** 2 + ref["within_sd"] ** 2 / len(done)
                               + ref["mean_se"] ** 2)
                pooled = statistics.fmean(j.row_means[a] for j in done)
                if not abs(pooled - ref["mean"]) <= K_SIGMA * sd:
                    failed += len(done)
                    notes.append(f"alpha {a}: row mean {pooled!r} over {len(done)} jobs outside "
                                 f"{ref['mean']:.6g} +- {K_SIGMA * sd:.4g}")

        instance = self.bundle.make_instance(GRID[0])  # prior and value do not depend on alpha
        law = self._tail_law(instance)
        n_tails, got, want, var, err = 0, 0.0, 0.0, 0.0, 0.0
        for a, done in rows.items():
            heads = [x for j in done for x in j.head_outputs[a]]
            tails = self.calls_per_alpha * len(done) - len(heads)
            mean, sd, se = law[a]
            got += self.calls_per_alpha * sum(j.row_means[a] for j in done)
            got -= sum(instance.value(x) for x in heads)
            want += tails * mean
            var += tails * sd ** 2
            err += tails * se  # the estimates share one prior sample: add errors linearly
            n_tails += tails
        sd = math.sqrt(var + err ** 2)
        if n_tails >= TAIL_CHECK_MIN and not abs(got - want) <= K_SIGMA * sd:
            failed = sum(len(done) for done in rows.values())
            notes.append(f"tail mean {got / n_tails!r} over {n_tails} tails outside "
                         f"{want / n_tails:.6g} +- {K_SIGMA * sd / n_tails:.4g}")
        return failed, notes

    def _tail_law(self, instance) -> dict[float, tuple[float, float, float]]:
        """Per alpha: mean and standard deviation of the prior's value over
        its top ``1 - alpha`` mass, and the standard error of that mean."""
        rng = _rng(self.seed, 4)
        values = np.sort([instance.value(instance.prior.sample(rng))
                          for _ in range(TAIL_LAW_DRAWS)])[::-1]
        law = {}
        for a in GRID:
            kept = (1 - a) * values.size
            w = np.zeros(values.size)
            w[:int(kept)] = 1.0
            if int(kept) < values.size:
                w[int(kept)] = kept - int(kept)
            mean = float(w @ values) / kept
            var = float(w @ (values - mean) ** 2) / kept
            # Asymptotic variance of the upper trimmed mean: spread above the
            # cut plus the cut's own uncertainty.
            cut = values[min(int(kept), values.size - 1)]
            se = math.sqrt(((1 - a) * var + a * (1 - a) * (mean - cut) ** 2)
                           / (values.size * (1 - a) ** 2))
            law[a] = (mean, math.sqrt(var), se)
        return law


class OracleExact:
    """Explicit-prior verification; a job runs every check once."""

    ops_per_job = 7

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = CountingMechanism()

    def setup(self) -> None:
        rng = _rng(self.seed, 1)
        values = rng.uniform(0.5, 10.0, ORACLE_SUPPORT)
        raw = rng.uniform(0.05, 1.0, ORACLE_SUPPORT)
        value = core.ValueFunction.from_array(values)
        self.instance = self.counter.wrap(core.InterpolationInstance(
            value=value,
            prior=core.FairPrior.from_distribution(core.Distribution.from_array(raw / raw.sum())),
            mechanism=core.WelfareMechanism.constant(value.argmax()),
            alpha=ORACLE_ALPHA))
        values = rng.uniform(0.0, 10.0, P_OPT_SUPPORT)
        raw = rng.uniform(0.05, 1.0, P_OPT_SUPPORT)
        self.big_probs = raw / raw.sum()
        self.big_prior = core.Distribution.from_array(self.big_probs)
        self.big_value = core.ValueFunction.from_array(values)

    def prepare(self) -> None:
        """Independent reference for ``v_p_opt``, computed outside fairmix."""
        vals, probs = self.big_value.values, self.big_probs
        order = np.lexsort((np.arange(vals.size), vals))
        p = probs[order]
        removed = np.clip(ORACLE_ALPHA - (np.cumsum(p) - p), 0.0, p)
        self.ref_v_opt = float(ORACLE_ALPHA * vals.max() + ((p - removed) * vals[order]).sum())

    def verify(self, jobs: list[JobResult]) -> tuple[int, list[str]]:
        return 0, []  # every job checks itself

    def job(self, k: int) -> JobResult:
        rng = _rng(self.seed, 2, k)
        goods = assignment.synthetic_instance(MATCHING_SIZE, MATCHING_SIZE, _rng(self.seed, 5, k))
        rows, cols = linear_sum_assignment(goods.weights, maximize=True)
        ref_matching = float(goods.weights[rows, cols].sum())  # computed outside fairmix
        self.counter.clear()
        t0 = perf_counter()
        simple = oracle.check_guarantees(self.instance, ORACLE_RUNS, rng)
        heads_simple = self.counter.heads[ORACLE_ALPHA]
        t1 = perf_counter()
        eps = oracle.check_guarantees(self.instance, ORACLE_RUNS, rng, epsilon=EPSILON)
        t2 = perf_counter()
        v_opt = oracle.v_p_opt(oracle.build_p_opt(self.big_prior, self.big_value, ORACLE_ALPHA),
                               self.big_value)
        t3 = perf_counter()
        matching = assignment.max_matching(goods)
        t4 = perf_counter()
        presets = [experiments.run_oracle_check(p, ORACLE_ALPHA, seed=job_seed(self.seed, k))
                   for p in experiments.ORACLE_PRESETS]
        t5 = perf_counter()
        wall = t5 - t0

        notes = []
        for report in (simple, eps, *presets):
            if not report.passed:
                notes.append(f"job {k}: {report.algorithm} check failed: {report.render()!r}")
        # Tolerances are the library's own precision: build_p_opt settles mass
        # to NORM_TOL, and max_matching rounds each edge weight to 1e-9.
        if not math.isclose(v_opt, self.ref_v_opt, rel_tol=1e-9,
                            abs_tol=2 * core.NORM_TOL * self.big_value.values.max()):
            notes.append(f"job {k}: v_p_opt {v_opt!r} != reference {self.ref_v_opt!r}")
        got = float(sum(goods.weights[a, j] for a, j in matching.edges))
        if not math.isclose(got, ref_matching, rel_tol=0.0, abs_tol=1e-9 * MATCHING_SIZE):
            notes.append(f"job {k}: max_matching value {got!r} != optimum {ref_matching!r}")

        runs_simple = simple.n_runs + (ORACLE_RUNS if simple.retried else 0)
        runs_eps = eps.n_runs + (ORACLE_RUNS if eps.retried else 0)
        heads_eps = self.counter.heads[ORACLE_ALPHA] - heads_simple
        tails_eps = runs_eps - heads_eps
        a = ORACLE_ALPHA
        return JobResult(
            wall, tails_eps * mix.sample_size(a, EPSILON), t2 - t1, self.ops_per_job, len(notes),
            heads={a: heads_simple + heads_eps},
            tails={a: runs_simple + runs_eps - heads_simple - heads_eps}, notes=notes,
            retries=sum(r.retried for r in (simple, eps, *presets)),
            parts={"check_simple": t1 - t0, "check_epsilon": t2 - t1, "p_opt": t3 - t2,
                   "max_matching": t4 - t3, "presets": t5 - t4})


def make(name: str, seed: int):
    if name in SWEEPS:
        return Sweep(name, seed, load_reference()["sweeps"][name])
    if name == "oracle-exact":
        return OracleExact(seed)
    raise ValueError(f"unknown workload {name!r}")


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)

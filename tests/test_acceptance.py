"""Acceptance suite: twelve pinned end-to-end contracts.

Each test checks one contract with fixed tolerances and prints a single
``ACCEPTANCE nn <title>: PASS|FAIL`` line (shown with ``-s`` or on failure).
Timed contracts also enforce a wall-clock budget.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import fairmix
from fairmix.assignment import (
    BipartiteInstance,
    InfeasibleError,
    greedy_matching,
    max_matching,
    solution_value,
)
from fairmix.core import Distribution, ValueFunction, expected_value, tv_distance
from fairmix.experiments import (
    ExperimentConfig,
    bundled_data_path,
    emit_csv,
    oracle_preset_instance,
    run_sweep,
)
from fairmix.ingest import ADULT_FEATURES, parse_demographics
from fairmix.mix import (
    epsilon_mix_many,
    sample_size,
    simple_mix_distribution,
)
from fairmix.oracle import (
    build_p_opt,
    check_individual_fairness,
    smix_lower_bound,
    v_p_opt,
)
from fairmix.sortition import (
    RandomReplaceSampler,
    default_replace_count,
    kmeanspp_select,
    panel_cost,
)

from conftest import dyadic_probs, grid_search_value, make_instance, random_instance
from test_assignment import brute_force_max


class acceptance:
    """Context manager printing the criterion's PASS/FAIL line."""

    def __init__(self, num: int, title: str):
        self.num = num
        self.title = title
        self.t0 = 0.0

    def __enter__(self) -> "acceptance":
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb) -> bool:
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.num:02d} {self.title}: {status} [{self.elapsed:.1f}s]")
        return False


def test_01_simple_mix_exact_fairness():
    with acceptance(1, "single-draw mixing fairness is exact") as ctx:
        rng = np.random.default_rng(101)
        alphas = [i / 10 for i in range(1, 10)]
        for _ in range(500):
            n = int(rng.integers(2, 51))
            prior = Distribution.from_array(dyadic_probs(rng, n))
            a = int(rng.integers(n))
            for alpha in alphas:
                law = simple_mix_distribution(prior, a, alpha)
                want = alpha * (1.0 - prior[a])
                got = tv_distance(law, prior)
                assert abs(got - want) <= 1e-12
                assert got <= alpha + 1e-12
        assert ctx.elapsed < 5.0, f"took {ctx.elapsed:.1f}s, budget 5s"


def test_02_epsilon_mix_statistical_fairness():
    with acceptance(2, "sampled mixing stays within the fairness budget") as ctx:
        values = [5.0, 4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5, 0.0]
        probs = [0.05, 0.1, 0.1, 0.1, 0.15, 0.1, 0.1, 0.1, 0.1, 0.1]
        n_runs = 10**6
        slack = 3.0 * math.sqrt(10 / n_runs)
        for i, alpha in enumerate((0.25, 0.5)):
            inst = make_instance(values, probs, alpha)
            outs = epsilon_mix_many(inst, 0.1, n_runs, np.random.default_rng(102 + i))
            counts = np.bincount(np.asarray(outs), minlength=10)
            law = Distribution.from_array(counts / n_runs)
            tv = tv_distance(law, inst.prior.explicit)
            assert tv <= alpha + slack, f"alpha={alpha}: tv={tv:.4f}"
        assert ctx.elapsed < 120.0, f"took {ctx.elapsed:.1f}s, budget 2min"


def test_03_epsilon_mix_welfare_bound():
    with acceptance(3, "sampled mixing keeps near-optimal welfare") as ctx:
        rng = np.random.default_rng(103)
        n_runs = 10**5
        for k in range(20):
            inst = random_instance(rng, n_max=10, exact_mechanism=True)
            dec = build_p_opt(inst.prior.explicit, inst.value, inst.alpha)
            v = v_p_opt(dec, inst.value)
            for epsilon in (0.1, 0.05):
                outs = epsilon_mix_many(
                    inst, epsilon, n_runs, np.random.default_rng(1000 * k + int(100 * epsilon))
                )
                vals = inst.value.values[np.asarray(outs)]
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(n_runs))
                floor = (1.0 - epsilon) * v - 3.0 * se
                assert mean >= floor, f"run {k} eps={epsilon}: {mean:.5f} < {floor:.5f}"
        assert ctx.elapsed < 300.0, f"took {ctx.elapsed:.1f}s, budget 5min"


def test_04_simple_mix_welfare_bound_exact():
    with acceptance(4, "single-draw welfare bound holds exactly") as ctx:
        rng = np.random.default_rng(104)
        for _ in range(500):
            inst = random_instance(rng, n_max=12, exact_mechanism=False)
            prior = inst.prior.explicit
            a = inst.mechanism.run(rng)
            lam = inst.mechanism.lam
            law = simple_mix_distribution(prior, a, inst.alpha)
            ev = expected_value(law, inst.value)
            dec = build_p_opt(prior, inst.value, inst.alpha)
            bound = smix_lower_bound(lam, inst.alpha) * v_p_opt(dec, inst.value)
            # 1e-12 guards float association only; no statistical slack.
            assert ev >= bound - 1e-12 * max(1.0, bound)
        assert ctx.elapsed < 10.0, f"took {ctx.elapsed:.1f}s, budget 10s"


def test_05_tightness_reproduction():
    with acceptance(5, "welfare bound is tight on the known worst cases"):
        # (a) prior on worthless solutions: ratio is exactly the mechanism's
        # guarantee factor.
        for lam in (0.3, 0.6):
            for alpha in (0.1, 1.0 - lam):
                inst = oracle_preset_instance("zero-prior", alpha=alpha, lam=lam)
                prior = inst.prior.explicit
                law = simple_mix_distribution(prior, 1, alpha)
                ratio = expected_value(law, inst.value) / v_p_opt(
                    build_p_opt(prior, inst.value, alpha), inst.value
                )
                assert abs(ratio - lam) <= 1e-12
        # (b) two solutions with prior mass 1-alpha on the good one: ratio
        # is exactly alpha + (1-alpha)^2 (3/4 at alpha = 1/2).
        for alpha in (0.25, 0.5, 0.75):
            inst = oracle_preset_instance("tightness", alpha=alpha)
            prior = inst.prior.explicit
            law = simple_mix_distribution(prior, 0, alpha)
            ratio = expected_value(law, inst.value) / v_p_opt(
                build_p_opt(prior, inst.value, alpha), inst.value
            )
            want = alpha + (1.0 - alpha) ** 2
            assert abs(ratio - want) <= 1e-12
            if alpha == 0.5:
                assert abs(ratio - 0.75) <= 1e-12


def test_06_individual_fairness():
    with acceptance(6, "every agent keeps its prior share"):
        rng = np.random.default_rng(106)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, 6))
            prior = Distribution.from_array(dyadic_probs(rng, n))
            utilities = rng.random((m, n))
            a = int(rng.integers(n))
            alpha = float(rng.uniform(0.0, 1.0))
            law = simple_mix_distribution(prior, a, alpha)
            keep = 1.0 - alpha
            for i in range(n):
                if i == a:
                    assert law[i] >= keep * prior[i] - 1e-12
                else:
                    assert abs(law[i] - keep * prior[i]) <= 1e-12
            for row in utilities:
                u_prior = sum(prior[i] * row[i] for i in range(n))
                u_law = sum(law[i] * row[i] for i in range(n))
                assert u_law >= keep * u_prior - 1e-12
            assert check_individual_fairness(prior, a, alpha, utilities=utilities)


def test_07_sample_size_table():
    with acceptance(7, "sample-count formula reproduces the pinned table"):
        assert sample_size(0.0, 0.1) == 2397
        assert sample_size(0.0, 0.05) == 11805
        assert abs(sample_size(0.0, 0.01) - 423865) <= 1


def test_08_p_opt_beats_grid_search():
    with acceptance(8, "constructed optimal lottery beats grid search") as ctx:
        rng = np.random.default_rng(108)
        resolution = 0.02
        for _ in range(100):
            n = int(rng.integers(2, 9))
            counts = rng.multinomial(50, np.full(n, 1.0 / n))
            prior = Distribution.from_array(counts / 50.0)
            value = ValueFunction.from_array(rng.random(n) * 5.0)
            alpha = float(rng.uniform(0.02, 0.98))
            best_grid = grid_search_value(prior, value, alpha, resolution=resolution)
            v = v_p_opt(build_p_opt(prior, value, alpha), value)
            assert best_grid <= v + resolution * value.max_value() + 1e-9
        assert ctx.elapsed < 60.0, f"took {ctx.elapsed:.1f}s, budget 1min"


def test_09_matching_oracle():
    with acceptance(9, "flow matching is exact and dominates greedy"):
        rng = np.random.default_rng(109)
        done = 0
        while done < 200:
            n_left = int(rng.integers(2, 6))
            n_right = int(rng.integers(1, 7))
            demand = int(rng.integers(1, 3))
            cap = int(rng.integers(1, 4))
            if demand > n_left or demand * n_right > cap * n_left:
                continue
            if math.comb(n_left, demand) ** n_right > 50_000:
                continue  # keep exhaustive enumeration fast
            inst = BipartiteInstance(rng.random((n_left, n_right)), demand, cap)
            best = solution_value(inst, max_matching(inst))
            assert best == pytest.approx(brute_force_max(inst), abs=1e-9)
            try:
                greedy = solution_value(inst, greedy_matching(inst))
            except InfeasibleError:
                greedy = None  # greedy may strand where the flow succeeds
            if greedy is not None:
                assert best >= greedy - 1e-9
            done += 1


def test_10_experiment_harness_smoke(tmp_path):
    with acceptance(10, "default sweep completes and sampling wins") as ctx:
        smix = run_sweep(ExperimentConfig(scenario="synthetic", algorithm="simple_mix", seed=0))
        eps = run_sweep(
            ExperimentConfig(
                scenario="synthetic", algorithm="epsilon_mix", epsilon=0.1, seed=0
            )
        )
        for result, name in ((smix, "smix.csv"), (eps, "eps.csv")):
            assert len(result.rows) == 19
            path = tmp_path / name
            emit_csv(result, str(path))
            lines = path.read_text().strip().split("\n")
            assert lines[0] == "alpha,means,variance"
            assert len(lines) == 20
            for line in lines[1:]:
                a, m, v = (float(x) for x in line.split(","))
                assert 0.0 < a < 1.0 and m > 0.0 and v >= 0.0
        for row_s, row_e in zip(smix.rows, eps.rows):
            bs = np.array(row_s.batch_means)
            be = np.array(row_e.batch_means)
            pooled_se = math.sqrt(bs.var(ddof=1) / bs.size + be.var(ddof=1) / be.size)
            assert be.mean() >= bs.mean() - 3.0 * pooled_se, (
                f"alpha={row_s.alpha}: eps mean {be.mean():.4f} "
                f"below smix mean {bs.mean():.4f} - 3se"
            )
        assert ctx.elapsed < 600.0, f"took {ctx.elapsed:.1f}s, budget 10min"


def test_11_sortition_properties():
    with acceptance(11, "panel costs, neighbor swaps, and seeding trend") as ctx:
        cfg = dataclasses.replace(ADULT_FEATURES, scale=True)
        points = parse_demographics(bundled_data_path("demo_demographics.csv"), cfg)
        n = points.shape[0]
        assert n == 200
        # Cost vanishes when everyone is on the panel.
        assert panel_cost(tuple(range(n)), points) == 0.0
        # Neighbor constraint on every draw.
        rng = np.random.default_rng(111)
        initial = kmeanspp_select(points, 10, rng)
        q = default_replace_count(10)
        from scipy.spatial.distance import cdist

        d = cdist(points, points, "sqeuclidean")
        np.fill_diagonal(d, np.inf)
        allowed = set()
        for c in initial:
            allowed |= set(np.argsort(d[c], kind="stable")[:q].tolist())
        sampler = RandomReplaceSampler(points, initial)
        for _ in range(1000):
            panel = sampler.sample(rng)
            assert len(set(panel)) == 10
            assert set(panel) - set(initial) <= allowed
        # Mean seeding cost shrinks as the panel grows.
        trend_rng = np.random.default_rng(112)
        means = []
        for k in range(1, 21):
            costs = [
                panel_cost(kmeanspp_select(points, k, trend_rng), points)
                for _ in range(100)
            ]
            means.append(float(np.mean(costs)))
        diffs = np.diff(means)
        assert np.all(diffs <= 0.01 * np.array(means[:-1]) + 1e-9), means
        assert ctx.elapsed < 120.0, f"took {ctx.elapsed:.1f}s, budget 2min"


def _run_cli(args: list[str], cwd: str) -> tuple[int, bytes]:
    env = {k: v for k, v in os.environ.items() if k != "FAIRMIX_OUT_DIR"}
    # The child runs in ``cwd``, where a relative PYTHONPATH entry no longer
    # resolves; put the directory holding the imported fairmix first so the
    # child runs the same code as this process.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(fairmix.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from fairmix.cli import entry_point; entry_point()", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.returncode, proc.stdout


def test_12_cli_determinism(tmp_path):
    with acceptance(12, "identical flags and seed give identical bytes"):
        invocations = [
            (
                "sweep.csv",
                [
                    "sweep",
                    "--scenario",
                    "sortition",
                    "--algorithm",
                    "simple_mix",
                    "--alpha-grid",
                    "0.2,0.8",
                    "--rounds",
                    "3",
                    "--batches",
                    "2",
                    "--seed",
                    "9",
                ],
            ),
            (
                # Seed 0's one round is a tail, so the batched general round
                # robin draws its 4,794 samples.
                "bids.csv",
                [
                    "sweep",
                    "--scenario",
                    "bids",
                    "--algorithm",
                    "epsilon_mix",
                    "--epsilon",
                    "0.1",
                    "--alpha-grid",
                    "0.5",
                    "--rounds",
                    "1",
                    "--batches",
                    "1",
                    "--seed",
                    "0",
                ],
            ),
            (
                # Seed 0's one round is a tail, so the batched random-replace
                # prior draws and values its 4,794 panels.
                "panels.csv",
                [
                    "sweep",
                    "--scenario",
                    "sortition",
                    "--algorithm",
                    "epsilon_mix",
                    "--epsilon",
                    "0.1",
                    "--alpha-grid",
                    "0.5",
                    "--rounds",
                    "1",
                    "--batches",
                    "1",
                    "--seed",
                    "0",
                ],
            ),
            (
                "report.txt",
                [
                    "oracle-check",
                    "--preset",
                    "random",
                    "--alpha",
                    "0.4",
                    "--rounds",
                    "2000",
                    "--seed",
                    "3",
                ],
            ),
            (
                # The explicit-prior epsilon_mix draws every tail from its
                # exact law with one rng.choice.
                "eps_report.txt",
                [
                    "oracle-check",
                    "--preset",
                    "random",
                    "--algorithm",
                    "epsilon_mix",
                    "--epsilon",
                    "0.1",
                    "--rounds",
                    "2000",
                    "--seed",
                    "3",
                ],
            ),
            (
                "summary.txt",
                [
                    "ingest-check",
                    "--scenario",
                    "bids",
                    "--input",
                    bundled_data_path("mini_bids.csv"),
                ],
            ),
        ]
        for fname, args in invocations:
            outputs = []
            for attempt in ("a", "b"):
                run_dir = tmp_path / f"{fname}.{attempt}"
                run_dir.mkdir()
                target = run_dir / fname
                code, stdout = _run_cli(args + ["--output", str(target)], str(run_dir))
                # Normalize the one path echoed on stdout.
                norm = stdout.replace(str(target).encode(), b"OUT")
                outputs.append((code, norm, target.read_bytes()))
            assert outputs[0] == outputs[1], f"verb {args[0]} not deterministic"

"""Sweep harness: configs, schedules, determinism, CSV output, presets."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fairmix.core import ParameterError
from fairmix.experiments import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_SCHEDULE,
    ExperimentConfig,
    _scenario_rng,
    build_scenario,
    bundled_data_path,
    emit_csv,
    oracle_preset_instance,
    run_oracle_check,
    run_sweep,
)
from fairmix.ingest import ADULT_FEATURES, parse_demographics
from fairmix.mix import sample_size, simple_mix_many
from fairmix.oracle import build_p_opt, v_p_opt
from fairmix.sortition import sortition_fwi_instance


SMALL_GRID = (0.2, 0.5, 0.8)


def small_config(**kw) -> ExperimentConfig:
    base = dict(
        scenario="synthetic",
        algorithm="simple_mix",
        alpha_grid=SMALL_GRID,
        n_rounds=6,
        n_batches=2,
        seed=11,
        n_left=12,
        n_right=3,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_default_grid_is_nineteen_points(self):
        assert len(DEFAULT_ALPHA_GRID) == 19
        assert DEFAULT_ALPHA_GRID[0] == pytest.approx(0.05)
        assert DEFAULT_ALPHA_GRID[-1] == pytest.approx(0.95)

    def test_schedule_defaults(self):
        assert DEFAULT_SCHEDULE[("synthetic", "simple_mix")] == (100, 10)
        assert DEFAULT_SCHEDULE[("synthetic", "epsilon_mix")] == (50, 5)
        assert DEFAULT_SCHEDULE[("sortition", "simple_mix")] == (20, 5)
        assert DEFAULT_SCHEDULE[("sortition", "epsilon_mix")] == (10, 5)
        cfg = ExperimentConfig(scenario="bids", algorithm="simple_mix")
        assert cfg.resolved_schedule() == (100, 10)
        assert small_config().resolved_schedule() == (6, 2)

    def test_epsilon_required_iff_epsilon_mix(self):
        with pytest.raises(ParameterError):
            small_config(algorithm="epsilon_mix").validate()
        with pytest.raises(ParameterError):
            small_config(epsilon=0.1).validate()
        small_config(algorithm="epsilon_mix", epsilon=0.1).validate()

    def test_samples_only_with_epsilon_mix(self):
        with pytest.raises(ParameterError, match="samples"):
            small_config(n_eps_override=5).validate()
        small_config(algorithm="epsilon_mix", epsilon=0.1, n_eps_override=5).validate()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(scenario="nope"),
            dict(algorithm="nope"),
            dict(alpha_grid=()),
            dict(alpha_grid=(1.5,)),
            dict(n_rounds=0),
            dict(n_batches=-1),
            dict(seed=-1),
            dict(input_path="any.csv"),
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(ParameterError):
            small_config(**kw).validate()

    def test_eps_sample_counts(self):
        cfg = small_config(algorithm="epsilon_mix", epsilon=0.1)
        assert cfg.eps_samples_for(0.5) == math.ceil(sample_size(0.0, 0.1) / 0.5)
        assert cfg.eps_samples_for(0.0) == sample_size(0.0, 0.1)
        assert cfg.eps_samples_for(1.0) is None
        pinned = small_config(algorithm="epsilon_mix", epsilon=0.1, n_eps_override=50)
        assert pinned.eps_samples_for(0.5) == 50


class TestSweep:
    def test_row_shape(self):
        res = run_sweep(small_config())
        assert len(res.rows) == len(SMALL_GRID)
        for row, alpha in zip(res.rows, SMALL_GRID):
            assert row.alpha == alpha
            assert len(row.batch_means) == 2
            assert row.std_of_batch_means >= 0.0

    def test_same_seed_identical(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        assert a == b

    def test_different_seed_differs(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config(seed=12))
        assert a != b

    def test_grid_edit_does_not_perturb_other_cells(self):
        # Dropping an alpha value must not change the remaining rows.
        full = run_sweep(small_config(alpha_grid=(0.2, 0.5, 0.8)))
        part = run_sweep(small_config(alpha_grid=(0.2, 0.8)))
        assert part.rows[0] == full.rows[0]
        # The 0.8 row keeps its own alpha-index substream, so it is only
        # equal when the index is preserved; re-indexing changes it.
        assert part.rows[1].alpha == 0.8

    def test_single_batch_has_zero_std(self):
        res = run_sweep(small_config(n_batches=1))
        assert all(row.std_of_batch_means == 0.0 for row in res.rows)

    def test_sortition_scenario_runs(self):
        cfg = small_config(scenario="sortition", n_rounds=4, n_batches=2, panel_size=6)
        res = run_sweep(cfg)
        assert len(res.rows) == 3
        assert all(0.0 < row.mean_score <= 1.0 for row in res.rows)

    def test_sortition_instance_built_once(self):
        # One reference panel and neighbour table serve every alpha, and it
        # is the one a fresh per-alpha build from the scenario seed gives.
        cfg = small_config(scenario="sortition", panel_size=6)
        bundle = build_scenario(cfg)
        low, high = bundle.make_instance(0.2), bundle.make_instance(0.8)
        assert low.prior is high.prior and (low.alpha, high.alpha) == (0.2, 0.8)
        points = parse_demographics(
            bundled_data_path("demo_demographics.csv"),
            dataclasses.replace(ADULT_FEATURES, scale=True),
        )
        fresh = sortition_fwi_instance(points, 6, 0.8, _scenario_rng(cfg.seed))
        for inst in (low, high):
            got, want = (i.prior.sample_many(np.random.default_rng(5), 50) for i in (inst, fresh))
            assert np.array_equal(got.members, want.members)

    def test_bids_scenario_runs(self):
        cfg = small_config(scenario="bids", n_rounds=4, n_batches=2)
        res = run_sweep(cfg)
        assert all(row.mean_score > 0 for row in res.rows)


class TestEmitCsv:
    def test_format(self, tmp_path):
        res = run_sweep(small_config())
        out = tmp_path / "sweep.csv"
        emit_csv(res, str(out))
        text = out.read_text()
        lines = text.strip("\n").split("\n")
        assert lines[0] == "alpha,means,variance"
        assert len(lines) == 1 + len(SMALL_GRID)
        assert text.endswith("\n")
        for line, row in zip(lines[1:], res.rows):
            a, m, v = line.split(",")
            assert float(a) == row.alpha
            assert float(m) == pytest.approx(row.mean_score, rel=1e-9)
            assert float(v) == pytest.approx(row.std_of_batch_means, rel=1e-9)


class TestScenarioDeterminism:
    def test_build_scenario_reproducible(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        b1 = build_scenario(cfg)
        b2 = build_scenario(cfg)
        i1 = b1.make_instance(0.5)
        i2 = b2.make_instance(0.5)
        assert i1.value(i1.mechanism.run(rng)) == i2.value(i2.mechanism.run(rng))

    def test_scenario_info(self):
        assert build_scenario(small_config()).info["mechanism"] == "max_matching"
        assert (
            build_scenario(small_config(scenario="bids")).info["mechanism"]
            == "greedy_matching"
        )
        info = build_scenario(small_config(scenario="sortition")).info
        assert info["n_points"] == 200


class TestOraclePresets:
    def test_tightness_ratio(self):
        inst = oracle_preset_instance("tightness", alpha=0.5)
        outs = simple_mix_many(inst, 40000, np.random.default_rng(70))
        mean = float(np.mean([inst.value(o) for o in outs]))
        dec = build_p_opt(inst.prior.explicit, inst.value, 0.5)
        ratio = mean / v_p_opt(dec, inst.value)
        assert ratio == pytest.approx(0.75, abs=0.02)

    def test_zero_prior_ratio_is_lam(self):
        inst = oracle_preset_instance("zero-prior", alpha=0.4, lam=0.6)
        outs = simple_mix_many(inst, 40000, np.random.default_rng(71))
        mean = float(np.mean([inst.value(o) for o in outs]))
        dec = build_p_opt(inst.prior.explicit, inst.value, 0.4)
        assert mean / v_p_opt(dec, inst.value) == pytest.approx(0.6, abs=0.02)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            oracle_preset_instance("nope", alpha=0.5)

    def test_run_oracle_check_rejects_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            run_oracle_check(preset="tightness", alpha=0.5, n_runs=10, seed=-1)

    def test_run_oracle_check_passes(self, tmp_path):
        out = tmp_path / "report.txt"
        report = run_oracle_check(
            preset="random", alpha=0.5, n_runs=4000, seed=3, output_path=str(out)
        )
        assert report.passed
        assert out.read_text() == report.render()

    def test_run_oracle_check_epsilon(self):
        report = run_oracle_check(
            preset="random", alpha=0.3, epsilon=0.2, n_runs=4000, seed=4
        )
        assert report.algorithm == "epsilon_mix"
        assert report.passed

    def test_alpha_zero_tv_vanishes(self):
        report = run_oracle_check(preset="random", alpha=0.0, n_runs=4000, seed=5)
        assert report.tv_emp < 0.05
        assert report.passed


class TestZeroPriorMonotoneSmoke:
    def test_mean_score_non_decreasing_in_alpha(self):
        # On the zero-valued-prior instance the single-draw mean is
        # alpha * lam exactly; empirical means must be ordered up to noise.
        grid = (0.1, 0.3, 0.5, 0.7, 0.9)
        means = []
        ses = []
        for i, alpha in enumerate(grid):
            inst = oracle_preset_instance("zero-prior", alpha=alpha, lam=0.6)
            outs = simple_mix_many(inst, 4000, np.random.default_rng(80 + i))
            vals = np.array([inst.value(o) for o in outs])
            means.append(vals.mean())
            ses.append(vals.std() / np.sqrt(vals.size))
        for i in range(len(grid) - 1):
            slack = 3.0 * math.hypot(ses[i], ses[i + 1])
            assert means[i + 1] >= means[i] - slack

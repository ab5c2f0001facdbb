"""Command-line interface: verbs, flags, config files, exit codes."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import fairmix.cli as cli
from fairmix.oracle import GuaranteeReport

from conftest import subprocess_env


SWEEP_ARGS = [
    "sweep",
    "--scenario",
    "synthetic",
    "--algorithm",
    "simple_mix",
    "--alpha-grid",
    "0.2,0.8",
    "--rounds",
    "4",
    "--batches",
    "2",
    "--seed",
    "5",
]


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(args, config, tmp_path, capsys, monkeypatch, names):
    """Run ``args`` (plus ``config`` lines as a config file, if any) and check
    for exit 1, one ``usage error:`` line naming ``names``, and no output."""
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "outdir"))
    if config:
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    code, stdout, err = run_cli(args, capsys)
    assert code == 1
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert names in err
    assert stdout == ""
    assert not (tmp_path / "outdir").exists()


class TestSweepVerb:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(SWEEP_ARGS + ["--output", str(out)], capsys)
        assert code == 0
        assert "rows=2" in stdout
        assert str(out) in stdout
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "alpha,means,variance"
        assert len(lines) == 3

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "outdir"))
        code, stdout, _ = run_cli(SWEEP_ARGS, capsys)
        assert code == 0
        files = os.listdir(tmp_path / "outdir")
        assert len(files) == 1 and files[0].endswith(".csv")

    def test_config_file_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(
            "# comment\nscenario = synthetic\nalgorithm = simple_mix\n"
            "alpha-grid = 0.5\nrounds = 2\nbatches = 1\nseed = 9\n"
        )
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(
            ["sweep", "--config", str(cfg), "--rounds", "3", "--output", str(out)],
            capsys,
        )
        assert code == 0
        assert "rows=1" in stdout

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("rounds = abc\n")
        code, _, err = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "'rounds'" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_alpha_grid_is_usage_error(self, source, tmp_path, capsys, monkeypatch):
        # Only an absent grid falls back to the default; an empty one is refused.
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "outdir"))
        args = ["sweep", "--rounds", "1", "--batches", "1"]
        if source == "flag":
            args += ["--alpha-grid", ","]
        else:
            cfg = tmp_path / "cfg.ini"
            cfg.write_text("alpha_grid = ,\n")
            args += ["--config", str(cfg)]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert "alpha_grid must be non-empty" in err
        assert not (tmp_path / "outdir").exists()

    def test_epsilon_mismatch_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--algorithm", "epsilon_mix", "--rounds", "1", "--batches", "1"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_samples_without_epsilon_mix_is_usage_error(self, source, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "outdir"))
        args = ["sweep", "--algorithm", "simple_mix", "--rounds", "1", "--batches", "1"]
        if source == "flag":
            args += ["--samples", "5"]
        else:
            cfg = tmp_path / "cfg.ini"
            cfg.write_text("samples = 5\n")
            args += ["--config", str(cfg)]
        code, _, err = run_cli(args, capsys)
        assert code == 1
        assert err.startswith("usage error:") and "samples" in err
        assert not (tmp_path / "outdir").exists()

    @pytest.mark.parametrize(
        "flags,config",
        [(["--seed", "-1"], ""), ([], "seed = -1\n")],
        ids=["flag", "config"],
    )
    def test_negative_seed_is_usage_error(self, flags, config, tmp_path, capsys,
                                          monkeypatch):
        args = ["sweep", "--rounds", "1", "--batches", "1"] + flags
        assert_usage_error(args, config, tmp_path, capsys, monkeypatch, "seed must be >= 0")

    @pytest.mark.parametrize(
        "flags,config",
        [(["--input", "any.csv"], ""), ([], "input = any.csv\n")],
        ids=["flag", "config"],
    )
    def test_input_with_synthetic_is_usage_error(self, flags, config, tmp_path, capsys,
                                                 monkeypatch):
        args = ["sweep", "--scenario", "synthetic", "--rounds", "1", "--batches", "1"] + flags
        assert_usage_error(args, config, tmp_path, capsys, monkeypatch, "input")

    def test_zero_samples_names_the_option(self, tmp_path, capsys, monkeypatch):
        args = ["sweep", "--algorithm", "epsilon_mix", "--epsilon", "0.1", "--samples", "0",
                "--rounds", "1", "--batches", "1"]
        assert_usage_error(args, "", tmp_path, capsys, monkeypatch, "samples must be >= 1")

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "sweep",
                "--scenario",
                "bids",
                "--input",
                str(tmp_path / "absent.csv"),
                "--rounds",
                "1",
                "--batches",
                "1",
                "--output",
                str(tmp_path / "o.csv"),
            ],
            capsys,
        )
        assert code == 2

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("r1,p1,yes\nr1,p1,no\n")
        code, _, _ = run_cli(
            [
                "sweep",
                "--scenario",
                "bids",
                "--input",
                str(bad),
                "--rounds",
                "1",
                "--batches",
                "1",
                "--output",
                str(tmp_path / "o.csv"),
            ],
            capsys,
        )
        assert code == 2


class TestOracleCheckVerb:
    def test_passing_preset(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code, stdout, _ = run_cli(
            [
                "oracle-check",
                "--preset",
                "random",
                "--alpha",
                "0.4",
                "--rounds",
                "3000",
                "--seed",
                "2",
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "fairness_ok=True" in stdout
        report_text = out.read_text()
        assert report_text.startswith("algorithm=")
        assert report_text in stdout
        assert f"wrote={out}" in stdout

    def test_failing_check_exits_three(self, tmp_path, capsys, monkeypatch):
        failing = GuaranteeReport(
            algorithm="simple_mix",
            alpha=0.5,
            lam=1.0,
            epsilon=None,
            n_runs=10,
            n_solutions=2,
            tv_emp=0.9,
            tv_slack=0.0,
            welfare_emp=0.0,
            welfare_slack=0.0,
            v_p_opt=1.0,
            bound_factor=0.75,
            welfare_bound=0.75,
            fairness_ok=False,
            welfare_ok=False,
            retried=True,
        )
        monkeypatch.setattr(cli, "run_oracle_check", lambda **kw: failing)
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path))
        code, stdout, _ = run_cli(
            ["oracle-check", "--preset", "random", "--alpha", "0.5"], capsys
        )
        assert code == 3
        assert "fairness_ok=False" in stdout
        assert (tmp_path / "oracle_check_random.txt").read_text() == failing.render()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        args = ["oracle-check", "--preset", "tightness", "--seed", "-1"]
        assert_usage_error(args, "", tmp_path, capsys, monkeypatch, "seed must be >= 0")

    def test_epsilon_only_with_epsilon_mix(self, capsys):
        code, _, _ = run_cli(
            [
                "oracle-check",
                "--preset",
                "random",
                "--alpha",
                "0.4",
                "--epsilon",
                "0.1",
            ],
            capsys,
        )
        assert code == 1


class TestIngestCheckVerb:
    def test_bids_summary(self, capsys):
        from fairmix.experiments import bundled_data_path

        code, stdout, _ = run_cli(
            [
                "ingest-check",
                "--scenario",
                "bids",
                "--input",
                bundled_data_path("mini_bids.csv"),
            ],
            capsys,
        )
        assert code == 0
        assert "reviewers=12" in stdout
        assert "papers=9" in stdout
        assert "ok=True" in stdout

    def test_sortition_summary(self, capsys):
        from fairmix.experiments import bundled_data_path

        code, stdout, _ = run_cli(
            [
                "ingest-check",
                "--scenario",
                "sortition",
                "--input",
                bundled_data_path("demo_demographics.csv"),
            ],
            capsys,
        )
        assert code == 0
        assert "n_points=200" in stdout

    def test_input_required(self, capsys):
        code, _, _ = run_cli(["ingest-check", "--scenario", "bids"], capsys)
        assert code == 1

    def test_summary_to_file(self, tmp_path, capsys):
        from fairmix.experiments import bundled_data_path

        out = tmp_path / "summary.txt"
        code, stdout, _ = run_cli(
            [
                "ingest-check",
                "--scenario",
                "bids",
                "--input",
                bundled_data_path("mini_bids.csv"),
                "--output",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert out.exists()


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_unknown_verb_is_usage(self, capsys):
        assert run_cli(["frobnicate"], capsys)[0] == 1

    def test_unknown_flag_is_usage(self, capsys):
        assert run_cli(["sweep", "--bogus"], capsys)[0] == 1

    def test_bad_alpha_grid_is_usage(self, capsys):
        assert run_cli(["sweep", "--alpha-grid", "x,y"], capsys)[0] == 1


@pytest.mark.parametrize("module", ["fairmix", "fairmix.cli"])
def test_runs_as_module(module, tmp_path):
    # ``python -m`` must behave like the ``fairmix`` entry point: a bad
    # scenario is a usage error with exit code 1.
    proc = subprocess.run(
        [sys.executable, "-m", module, "sweep", "--scenario", "nope"],
        cwd=tmp_path,
        env=subprocess_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "invalid choice: 'nope'" in proc.stderr

"""Command-line front-end.

Verbs:

* ``sweep`` — run a seeded alpha sweep on a scenario and write CSV.
* ``oracle-check`` — build a small preset instance, verify the fairness
  budget and welfare bound empirically, and write a key=value report.
* ``ingest-check`` — parse an input file and report a summary.

Exit codes: 0 success, 1 usage/parameter error, 2 unreadable or invalid
input data, 3 a guarantee check failed.  Output files default into the
directory named by the ``FAIRMIX_OUT_DIR`` environment variable (else the
working directory) unless ``--output`` is given.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from .assignment import InfeasibleError
from .core import ALGORITHMS, ParameterError, ScaleError
from .experiments import (
    DEFAULT_ALPHA_GRID,
    ORACLE_PRESETS,
    SCENARIOS,
    ExperimentConfig,
    emit_csv,
    run_oracle_check,
    run_sweep,
)
from .ingest import ParseError, bids_to_instance, parse_bids, read_demographic_table

ENV_OUT_DIR = "FAIRMIX_OUT_DIR"


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParameterError(f"bad alpha grid {text!r}; expected comma-separated reals") from None


def _read_config_file(path: str) -> dict[str, str]:
    """Read a ``key=value`` config file ('#' starts a comment)."""
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}: line {lineno}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    return out


_FILE_KEYS: dict[str, Callable[[str], object]] = {
    "scenario": str,
    "algorithm": str,
    "alpha_grid": _parse_alpha_grid,
    "epsilon": float,
    "rounds": int,
    "batches": int,
    "samples": int,
    "seed": int,
    "input": str,
    "output": str,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmix",
        description="Interpolate between a fair lottery and a welfare-maximizing mechanism.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a seeded alpha sweep and write CSV")
    sweep.add_argument("--scenario", choices=SCENARIOS)
    sweep.add_argument("--algorithm", choices=ALGORITHMS)
    sweep.add_argument("--alpha-grid", type=_parse_alpha_grid, metavar="A1,A2,...")
    sweep.add_argument("--epsilon", type=float)
    sweep.add_argument("--rounds", type=int, help="rounds per batch")
    sweep.add_argument("--batches", type=int)
    sweep.add_argument("--samples", type=int, help="fixed per-call prior sample count")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--input", help="scenario input file (defaults to bundled data)")
    sweep.add_argument("--output", help="CSV path")
    sweep.add_argument("--config", help="key=value config file; flags win")

    oracle = sub.add_parser("oracle-check", help="verify guarantees on a preset instance")
    oracle.add_argument("--preset", choices=ORACLE_PRESETS, default="random")
    oracle.add_argument("--algorithm", choices=ALGORITHMS, default="simple_mix")
    oracle.add_argument("--alpha", type=float, default=0.5)
    oracle.add_argument("--lam", type=float)
    oracle.add_argument("--epsilon", type=float)
    oracle.add_argument("--rounds", type=int, default=20_000, help="Monte Carlo runs")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--output", help="report path")

    ingest = sub.add_parser("ingest-check", help="parse an input file and report a summary")
    ingest.add_argument("--scenario", choices=("bids", "sortition"), required=True)
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--output", help="summary path (default: stdout only)")

    return parser


def _resolve_output(explicit: str | None, default_name: str) -> str:
    if explicit:
        return explicit
    base = os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, default_name)


def _cmd_sweep(args: argparse.Namespace) -> int:
    file_vals = _read_config_file(args.config) if args.config else {}
    for key in file_vals:
        if key not in _FILE_KEYS:
            raise ParameterError(f"unknown config key {key!r}")

    def pick(flag_value, key: str, default=None):
        if flag_value is not None:
            return flag_value
        if key in file_vals:
            try:
                return _FILE_KEYS[key](file_vals[key])
            except ValueError as exc:
                raise ParameterError(f"config key {key!r}: {exc}") from None
        return default

    config = ExperimentConfig(
        scenario=pick(args.scenario, "scenario", "synthetic"),
        algorithm=pick(args.algorithm, "algorithm", "simple_mix"),
        alpha_grid=pick(args.alpha_grid, "alpha_grid", DEFAULT_ALPHA_GRID),
        epsilon=pick(args.epsilon, "epsilon"),
        n_rounds=pick(args.rounds, "rounds"),
        n_batches=pick(args.batches, "batches"),
        n_eps_override=pick(args.samples, "samples"),
        seed=pick(args.seed, "seed", 0),
        input_path=pick(args.input, "input"),
        output_path=pick(args.output, "output"),
    )
    config.validate()
    result = run_sweep(config)
    path = _resolve_output(
        config.output_path, f"sweep_{config.scenario}_{config.algorithm}.csv"
    )
    emit_csv(result, path)
    print(f"rows={len(result.rows)}")
    print(f"wrote={path}")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    if (args.epsilon is None) == (args.algorithm == "epsilon_mix"):
        raise ParameterError("--epsilon is required for epsilon_mix and meaningless otherwise")
    path = _resolve_output(args.output, f"oracle_check_{args.preset}.txt")
    report = run_oracle_check(
        preset=args.preset,
        alpha=args.alpha,
        lam=args.lam,
        epsilon=args.epsilon,
        n_runs=args.rounds,
        seed=args.seed,
        output_path=path,
    )
    sys.stdout.write(report.render())
    print(f"wrote={path}")
    return 0 if report.passed else 3


def _ingest_summary(args: argparse.Namespace) -> list[str]:
    if args.scenario == "bids":
        corpus = parse_bids(args.input)
        counts = {label: 0 for label in ("yes", "maybe", "no", "no_response")}
        for label in corpus.labels.values():
            counts[label] += 1
        lines = [
            "format=bids",
            f"reviewers={len(corpus.reviewers)}",
            f"papers={len(corpus.papers)}",
            f"labeled_pairs={len(corpus.labels)}",
        ]
        lines += [f"label_{label}={n}" for label, n in counts.items()]
        try:
            instance = bids_to_instance(corpus)
            lines.append(f"load_cap={instance.load_cap}")
            lines.append("feasible_demand3=True")
        except (InfeasibleError, ParameterError):
            lines.append("feasible_demand3=False")
    else:
        table = read_demographic_table(args.input)
        points = table.points()
        lines = [
            "format=demographics",
            f"rows_kept={len(table.rows)}",
            f"rows_dropped={table.n_dropped}",
            f"n_points={points.shape[0]}",
            f"dim={points.shape[1]}",
        ]
    lines.append("ok=True")
    return lines


def _cmd_ingest_check(args: argparse.Namespace) -> int:
    lines = _ingest_summary(args)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "sweep": _cmd_sweep,
        "oracle-check": _cmd_oracle_check,
        "ingest-check": _cmd_ingest_check,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, InfeasibleError, ScaleError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()

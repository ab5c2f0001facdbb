"""A seeded fairness-budget sweep over the synthetic goods scenario.

Runs the experiment harness on a small grid, prints the per-budget batch
statistics, and writes the standard three-column CSV.
"""

import tempfile
from pathlib import Path

from fairmix.experiments import ExperimentConfig, emit_csv, run_sweep


def main() -> None:
    config = ExperimentConfig(
        scenario="synthetic",
        algorithm="simple_mix",
        alpha_grid=(0.1, 0.3, 0.5, 0.7, 0.9),
        n_rounds=40,
        n_batches=5,
        seed=6,
        n_left=20,
        n_right=4,
    )
    result = run_sweep(config)

    print("alpha  mean value  std of batch means")
    for row in result.rows:
        print(f"{row.alpha:5.2f}  {row.mean_score:10.3f}  {row.std_of_batch_means:10.3f}")
    print("\nhigher budgets spend more probability on the max-weight matching")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        emit_csv(result, str(out))
        print(f"\nCSV written to {out}:")
        print(out.read_text(), end="")

    rerun = run_sweep(config)
    same = all(a.batch_means == b.batch_means for a, b in zip(result.rows, rerun.rows))
    print(f"\nsame config, same seed, rerun identical: {same}")


if __name__ == "__main__":
    main()

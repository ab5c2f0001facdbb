"""Paired benchmark runs of two checkouts of this repository: a parent and a change.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --run panels-eps@424242:10 --run panels-eps@7:4 --out BENCH_28.json

Each ``--run WORKLOAD@SEED:PAIRS`` runs ``PAIRS`` pairs.  A pair is one

    python3 fairbench/run.py --workload WORKLOAD --seed SEED --seconds RUN_SECONDS --trace 0

in each directory, parent first in odd pairs and change first in even ones;
the run length is ``run_seconds`` from ``BENCHMARK.json``.
A run's record is its exit code plus ``correct``, ``attempted``, ``failed``
and the end-to-end metrics from the JSON object on its last stdout line.
``--out`` is written afresh from this invocation's runs, with a summary per
workload@seed: for each metric and side the median and quartiles, the
change/parent ratio of the medians, and the pairs the change won, in the
direction ``BENCHMARK.json`` gives as ``better``.  A run with no readable
result counts as incorrect; incorrect runs are left out of the medians and
the win counts.
``--attach NAME=FILE`` stores the JSON object in ``FILE`` under ``NAME``.

The script reads ``BENCHMARK.json`` and runs ``fairbench/run.py`` in each
directory; it writes only ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_run(exit_code: int, stdout: str) -> dict:
    """One run's record from its exit code and stdout."""
    lines = stdout.strip().splitlines()
    record = {"exit": exit_code, "correct": False, "attempted": 0, "failed": 0}
    try:
        result = json.loads(lines[-1])
        record.update(correct=bool(result["correct"]), attempted=int(result["attempted"]),
                      failed=int(result["failed"]))
        record.update({k: float(m["value"]) for k, m in result["metrics"].items()})
    except (IndexError, KeyError, TypeError, ValueError):
        record["correct"] = False
        record["error"] = (lines[-1] if lines else "no output")[:200]
    record["correct"] = record["correct"] and exit_code == 0
    return record


def run_side(directory: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "fairbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout)


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Summary of one workload@seed: ``pairs`` holds ``{"parent": record,
    "change": record}``; ``better`` maps each metric to "lower" or "higher"."""
    sides = ("parent", "change")
    out = {"pairs": len(pairs),
           "all_correct": all(p[s]["correct"] for p in pairs for s in sides)}
    for key in ("exit", "correct"):
        out[f"{key}_by_run"] = {s: [p[s][key] for p in pairs] for s in sides}
    for key in ("attempted", "failed"):
        out[key] = {s: sum(p[s][key] for p in pairs) for s in sides}
    for name, direction in better.items():
        values = {s: [p[s][name] for p in pairs if p[s]["correct"] and name in p[s]]
                  for s in sides}
        if not values["parent"] or not values["change"]:
            continue
        stats = {s: _spread(values[s]) for s in sides}
        parent, change = stats["parent"], stats["change"]
        sign = 1 if direction == "higher" else -1
        both = [p for p in pairs if all(p[s]["correct"] and name in p[s] for s in sides)]
        out[name] = {
            **stats,
            "change_over_parent": round(change["median"] / parent["median"], 3)
            if parent["median"] else None,
            "change_wins": sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in both),
            "compared_pairs": len(both),
            "medians_differ_beyond_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return out


def _run_spec(text: str) -> tuple[str, int, int]:
    try:
        workload, rest = text.split("@")
        seed, pairs = rest.split(":")
        return workload, int(seed), int(pairs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD@SEED:PAIRS, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--run", type=_run_spec, action="append", default=[],
                        metavar="WORKLOAD@SEED:PAIRS")
    parser.add_argument("--attach", action="append", default=[], metavar="NAME=FILE")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    bench = {
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__},
        "command": ("python3 fairbench/run.py --workload <w> --seed <s> "
                    f"--seconds {seconds:g} --trace 0, in each directory, "
                    "parent first in odd pairs and change first in even ones"),
        "runs": {},
    }
    runs = bench["runs"]
    dirs = {"parent": args.parent, "change": args.change}
    for workload, seed, n_pairs in args.run:
        key = f"{workload}@{seed}"
        for _ in range(n_pairs):
            pair = {"pair": len(runs.get(key, [])) + 1}
            order = ("parent", "change") if pair["pair"] % 2 else ("change", "parent")
            pair["order"] = ", ".join(order)
            for side in order:
                pair[side] = run_side(dirs[side], workload, seed, seconds)
            runs.setdefault(key, []).append(pair)
            print(f"{key} pair {pair['pair']}: " + ", ".join(
                f"{s} {pair[s].get('samples_per_s', 'no result')}" for s in order), flush=True)
    for item in args.attach:
        name, path = item.split("=", 1)
        with open(path, encoding="utf-8") as fh:
            bench[name] = json.load(fh)
    bench["summary"] = {key: summarize(pairs, better) for key, pairs in runs.items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

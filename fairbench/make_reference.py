"""Regenerate ``reference.json``: the law of the pooled sweep row means.

A benchmark run pools each alpha's row means over all of its jobs, which
share one instance (built from the workload seed) and differ in their RNG
streams.  For every sweep workload this builds ``INSTANCES`` instances at
reference seeds, runs ``JOBS`` benchmark jobs on each exactly as a run does,
and stores per alpha:

* ``mean``: the grand mean of the single-job row means;
* ``within_sd``: the spread of single-job row means on one instance;
* ``between_sd``: the spread of the per-instance expected row mean
  (the seed regenerates the goods instance and the sortition reference
  panel; the bids instance does not depend on the seed);
* ``mean_se``: the standard error of ``mean``.

``Sweep.verify`` turns these into the band for a run of ``n`` jobs.  The
band is sized from the reference's own spread, so a correct change to how
the RNG is consumed still passes.  Run from the repository root at a
trusted commit:

    PYTHONPATH=src python3 fairbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import statistics

import workloads

INSTANCES = 40
JOBS = 5
FIRST_SEED = 1_000_000  # disjoint from the seeds the benchmark is run at


def reference_for(name: str) -> dict:
    per_instance = {a: [] for a in workloads.GRID}  # one list of job row means per instance
    for i in range(INSTANCES):
        sweep = workloads.Sweep(name, FIRST_SEED + i)
        sweep.setup()
        jobs = [sweep.job(k) for k in range(JOBS)]
        for a in workloads.GRID:
            per_instance[a].append([j.row_means[a] for j in jobs])
    out = {}
    for a, groups in per_instance.items():
        instance_means = [statistics.fmean(g) for g in groups]
        within_var = statistics.fmean(statistics.variance(g) for g in groups)
        var_of_means = statistics.variance(instance_means)
        out[str(a)] = {
            "mean": statistics.fmean(instance_means),
            "within_sd": within_var ** 0.5,
            "between_sd": max(0.0, var_of_means - within_var / JOBS) ** 0.5,
            "mean_se": (var_of_means / INSTANCES) ** 0.5,
            "min": min(min(g) for g in groups), "max": max(max(g) for g in groups)}
    return out


def main() -> None:
    sweeps = {}
    for name in workloads.SWEEPS:
        sweeps[name] = reference_for(name)
        print(name, json.dumps(sweeps[name]), flush=True)
    doc = {
        "about": f"Sweep row means of {JOBS} benchmark jobs on each of {INSTANCES} instances "
                 f"(seeds {FIRST_SEED}..{FIRST_SEED + INSTANCES - 1}), from make_reference.py. "
                 "Job shape: " + json.dumps({k: {"scenario": s, "rounds": r, "batches": b}
                                             for k, (s, r, b) in workloads.SWEEPS.items()})
                 + f", alpha grid {list(workloads.GRID)}, epsilon {workloads.EPSILON}.",
        "sweeps": sweeps,
    }
    with open(os.path.join(workloads.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

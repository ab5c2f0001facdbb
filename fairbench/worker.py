"""One benchmark process: import fairmix, set up one workload, measure it.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
Prints one JSON object on its last stdout line.  Exit code 3 means fairmix
could not be imported, so there is nothing to measure.

``--probe`` stops after set-up and reports only the set-up time.
``--trace 1`` first runs jobs untraced for half the time, then repeats the
same jobs with spans recorded, and reports the per-layer split.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

_t_import = perf_counter()
try:
    import fairmix.experiments  # noqa: F401  (everything the CLI loads)
except ImportError as exc:
    print(f"fairbench: cannot import fairmix: {exc}", file=sys.stderr)
    sys.exit(3)
IMPORT_S = perf_counter() - _t_import

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import GRID  # noqa: E402

OUT_DIR = os.path.join(workloads.HERE, ".out")


def measure(workload, seconds: float, n_jobs: int | None = None, tracer=None):
    """Run jobs ``0, 1, ...`` for about ``seconds``, or exactly ``n_jobs`` jobs.

    At least one job runs; no job starts once less than half the median job
    time is left.  An exception fails the job and ends the loop.
    """
    results, errors = [], []
    deadline = perf_counter() + seconds
    k = 0
    while True:
        span = tracer.open("bench.job") if tracer else None
        try:
            results.append(workload.job(k))
        except Exception:
            errors.append(traceback.format_exc())
            break
        finally:
            if tracer:
                tracer.close(span)
        k += 1
        if n_jobs is not None:
            if k == n_jobs:
                break
        elif deadline - perf_counter() < statistics.median(j.wall_s for j in results) / 2:
            break
    return results, errors


def environment() -> dict:
    import platform

    import networkx
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "networkx": networkx.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def timed_setup(name: str, seed: int):
    workload = workloads.make(name, seed)
    t0 = perf_counter()
    workload.setup()
    return workload, IMPORT_S + perf_counter() - t0


def end_to_end(jobs, setup_s: float) -> dict:
    """``samples_per_s`` is the median over jobs of samples per second of
    mixing time.  Sweep ``job_s`` is a job's expected sample count at that
    rate; oracle ``job_s`` sums each step's median time over the jobs."""
    rate = statistics.median(j.samples / j.mix_s for j in jobs)
    if jobs[0].nominal_samples:
        job_s = jobs[0].nominal_samples / rate
    else:
        job_s = sum(statistics.median(j.parts[p] for j in jobs) for p in jobs[0].parts)
    return {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (rate, "1/s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# traced run


class BatchStats:
    """Tie and distinctness counts of each structured epsilon_mix batch."""

    def __init__(self) -> None:
        self.active = False
        self.values: list[float] = []
        self.samples = None
        self.n = self.tied = self.distinct = self.max_run = 0

    def start(self, *args) -> None:
        self.active, self.samples = True, None
        self.values.clear()

    def on_value(self, args, value) -> None:
        if self.active:
            self.values.append(value)

    def on_samples(self, args, samples) -> None:
        if self.active:
            self.samples = samples

    def finish(self, args, result) -> None:
        self.active = False
        samples = self.samples
        if samples is None or len(samples) != len(self.values):
            return
        values = np.sort(np.asarray(self.values))
        edges = np.flatnonzero(np.diff(values) != 0) + 1
        runs = np.diff(np.concatenate(([0], edges, [values.size])))
        self.n += values.size
        self.tied += int(runs[runs > 1].sum())
        self.max_run = max(self.max_run, int(runs.max()))
        self.distinct += len(set(samples))


def count_path_bytes(workload) -> int:
    """Peak bytes allocated by one count-path call of an oracle job's size.

    Runs ``fairmix.mix.epsilon_mix_many`` once more, outside the timed jobs,
    under ``tracemalloc`` (numpy reports its buffers to it).  0 on sweeps,
    which never take the count path, and when the name no longer exists.
    """
    import tracemalloc

    from fairmix import mix

    epsilon_mix_many = getattr(mix, "epsilon_mix_many", None)
    instance = getattr(workload, "instance", None)
    if epsilon_mix_many is None or instance is None or instance.prior.explicit is None:
        return 0
    rng = np.random.default_rng([workload.seed, 3])
    tracemalloc.start()
    try:
        epsilon_mix_many(instance, workloads.EPSILON, workloads.ORACLE_RUNS, rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def install_hooks(tracer, stats: BatchStats) -> None:
    from fairmix import assignment, core, experiments, oracle, sortition

    hooks = [
        (experiments, "build_scenario", "experiments.build_scenario"),
        (experiments, "parse_bids", "ingest.parse_bids"),
        (experiments, "parse_demographics", "ingest.parse_demographics"),
        (experiments, "max_matching", "assignment.max_matching"),
        (assignment, "max_matching", "assignment.max_matching"),
        (experiments, "greedy_matching", "assignment.greedy_matching"),
        (experiments, "run_sweep_on", "experiments.run_sweep_on"),
        (core.FairPrior, "sample", "core.prior.sample"),
        (assignment.RoundRobinSampler, "sample", "assignment.round_robin"),
        (sortition.RandomReplaceSampler, "sample", "sortition.random_replace"),
        (assignment, "solution_value", "assignment.solution_value"),
        (sortition, "panel_cost", "sortition.panel_cost"),
        (core.WelfareMechanism, "run", "core.mechanism"),
        (sortition, "kmeanspp_select", "sortition.kmeanspp_select"),
        (oracle, "build_p_opt", "oracle.build_p_opt"),
        (oracle, "v_p_opt", "oracle.v_p_opt"),
        (oracle, "estimate_output_law", "oracle.estimate_output_law"),
        (oracle, "check_guarantees", "oracle.check_guarantees"),
        (experiments, "check_guarantees", "oracle.check_guarantees"),
        (experiments, "run_oracle_check", "experiments.run_oracle_check"),
        (oracle, "simple_mix_many", "mix.simple_mix_many"),
        (oracle, "tv_distance", "core.tv_distance"),
        (oracle, "expected_value", "core.expected_value"),
    ]
    for owner, attr, name in hooks:
        tracer.hook(owner, attr, name)
    tracer.hook(experiments, "epsilon_mix", "mix.epsilon_mix", before=stats.start,
                after=stats.finish)
    tracer.hook(core.FairPrior, "sample_many", "core.prior.sample_many", after=stats.on_samples)
    tracer.hook(core.ValueFunction, "__call__", "core.value", after=stats.on_value, book=False)
    tracer.hook(oracle, "epsilon_mix_many", "mix.epsilon_mix_many")


#: Per-layer metrics and units, in report order.
PER_LAYER = {
    "core.prior.draws": "count", "core.prior.busy_s": "s", "core.prior.us_per_draw": "us",
    "assignment.round_robin.us_per_draw": "us", "sortition.random_replace.us_per_draw": "us",
    "core.value.calls": "count", "core.value.busy_s": "s", "core.value.us_per_call": "us",
    "assignment.solution_value.us_per_call": "us", "sortition.panel_cost.us_per_call": "us",
    "mix.epsilon_self_s": "s", "mix.tie_share": "ratio", "mix.max_tie_run": "count",
    "mix.distinct_share": "ratio", "mix.calls": "count", "mix.heads": "count",
    "mix.tails": "count", "mix.tails_at_0.25": "count", "mix.tails_at_0.5": "count",
    "mix.tails_at_0.75": "count", "core.mechanism.calls": "count",
    "core.mechanism.busy_s": "s", "sortition.kmeanspp_select_s": "s",
    "experiments.sweep_self_s": "s", "import.fairmix_s": "s", "ingest.parse_s": "s",
    "experiments.build_scenario_s": "s", "assignment.greedy_matching_s": "s",
    "assignment.max_matching_s": "s", "oracle.build_p_opt_s": "s", "oracle.estimate_law_s": "s",
    "oracle.check_guarantees_s": "s", "oracle.retries": "count",
    "mix.epsilon_mix_many_s": "s", "mix.simple_mix_many_s": "s", "core.tv_distance_s": "s",
    "core.expected_value_s": "s", "mix.count_path_bytes": "bytes",
    **{f"layer.{m}.self_s": "s" for m in ("core", "mix", "oracle", "assignment", "sortition",
                                          "ingest", "experiments", "bench")},
    "trace.jobs": "count", "trace.untraced_job_s": "s", "trace.traced_job_s": "s",
    "trace.overhead_s": "s", "trace.layer_cover": "ratio", "trace.spans": "count",
    "trace.missing_hooks": "count",
}


def per_layer(tracer, since, stats, count_path_peak, untraced, traced) -> dict:
    """Per-layer metrics from the traced jobs (spans from index ``since``),
    as means per job; set-up metrics are totals of one traced set-up."""
    setup_summary = tracer.summary(0, since)
    rows = tracer.summary(since)
    jobs = len(traced)

    def get(name, key):
        return rows.get(name, {}).get(key, 0.0)

    def per_job(name, key="busy_s"):
        return get(name, key) / jobs

    def mean_us(name):
        calls = get(name, "calls")
        return 1e6 * get(name, "busy_s") / calls if calls else 0.0

    def setup(name):
        return setup_summary.get(name, {}).get("busy_s", 0.0)

    draws = sum(get(n, "calls") for n in (
        "assignment.round_robin", "sortition.random_replace", "core.prior.sample"))
    prior_busy = get("core.prior.sample_many", "busy_s") + get("core.prior.sample", "busy_s")
    heads = sum(sum(j.heads.values()) for j in traced)
    tails = {a: sum(j.tails.get(a, 0) for j in traced) for a in GRID}
    everything = tracer.summary()
    matching = everything.get("assignment.max_matching", {"calls": 0, "busy_s": 0.0})
    layers = tracer.layer_self(since)
    untraced_wall = sum(j.wall_s for j in untraced[:jobs])
    values = {
        "core.prior.draws": draws / jobs,
        "core.prior.busy_s": prior_busy / jobs,
        "core.prior.us_per_draw": 1e6 * prior_busy / draws if draws else 0.0,
        "assignment.round_robin.us_per_draw": mean_us("assignment.round_robin"),
        "sortition.random_replace.us_per_draw": mean_us("sortition.random_replace"),
        "core.value.calls": per_job("core.value", "calls"),
        "core.value.busy_s": per_job("core.value"),
        "core.value.us_per_call": mean_us("core.value"),
        "assignment.solution_value.us_per_call": mean_us("assignment.solution_value"),
        "sortition.panel_cost.us_per_call": mean_us("sortition.panel_cost"),
        "mix.epsilon_self_s": per_job("mix.epsilon_mix", "self_s"),
        "mix.tie_share": stats.tied / stats.n if stats.n else 0.0,
        "mix.max_tie_run": stats.max_run,
        "mix.distinct_share": stats.distinct / stats.n if stats.n else 0.0,
        "mix.calls": (heads + sum(tails.values())) / jobs,
        "mix.heads": heads / jobs,
        "mix.tails": sum(tails.values()) / jobs,
        **{f"mix.tails_at_{a}": tails[a] / jobs for a in GRID},
        "core.mechanism.calls": per_job("core.mechanism", "calls"),
        "core.mechanism.busy_s": per_job("core.mechanism"),
        "sortition.kmeanspp_select_s": per_job("sortition.kmeanspp_select"),
        "experiments.sweep_self_s": per_job("experiments.run_sweep_on", "self_s"),
        "import.fairmix_s": IMPORT_S,
        "ingest.parse_s": setup("ingest.parse_bids") + setup("ingest.parse_demographics"),
        "experiments.build_scenario_s": setup("experiments.build_scenario"),
        "assignment.greedy_matching_s": setup("assignment.greedy_matching"),
        "assignment.max_matching_s": matching["busy_s"] / matching["calls"]
        if matching["calls"] else 0.0,
        "oracle.build_p_opt_s": per_job("oracle.build_p_opt"),
        "oracle.estimate_law_s": per_job("oracle.estimate_output_law"),
        "oracle.check_guarantees_s": per_job("oracle.check_guarantees"),
        "oracle.retries": sum(j.retries for j in traced) / jobs,
        "mix.epsilon_mix_many_s": per_job("mix.epsilon_mix_many"),
        "mix.simple_mix_many_s": per_job("mix.simple_mix_many"),
        "core.tv_distance_s": per_job("core.tv_distance"),
        "core.expected_value_s": per_job("core.expected_value"),
        "mix.count_path_bytes": count_path_peak,
        **{f"layer.{m}.self_s": layers.get(m, 0.0) / jobs
           for m in ("core", "mix", "oracle", "assignment", "sortition", "ingest",
                     "experiments", "bench")},
        "trace.jobs": jobs,
        "trace.untraced_job_s": statistics.median(j.wall_s for j in untraced),
        "trace.traced_job_s": statistics.median(j.wall_s for j in traced),
        "trace.overhead_s": statistics.median(t.wall_s - u.wall_s
                                              for u, t in zip(untraced, traced)),
        "trace.layer_cover": sum(v for k, v in layers.items() if k != "trace") / untraced_wall,
        "trace.spans": len(tracer.starts),
        "trace.missing_hooks": len(tracer.missing),
    }
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    errors: list[str] = []
    try:
        workload, setup_s = timed_setup(args.workload, args.seed)
    except Exception:
        workload, setup_s = None, None
        errors.append(traceback.format_exc())
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "errors": errors}))
        return 0

    out = {"setup_s": setup_s, "errors": errors, "metrics": {}, "env": environment()}
    untraced, traced = [], []
    if workload is not None:
        try:
            workload.prepare()
        except Exception:
            errors.append(traceback.format_exc())
    if workload is not None and not errors:
        span = args.seconds / 2 if args.trace else args.seconds
        untraced, errs = measure(workload, span)
        errors += errs
        if args.trace and not errors:
            from spans import Tracer

            tracer = Tracer()
            stats = BatchStats()
            twin = workloads.make(args.workload, args.seed)
            install_hooks(tracer, stats)
            try:
                root = tracer.open("bench.setup")
                try:
                    twin.setup()
                finally:
                    tracer.close(root)
                since = len(tracer.starts)
                twin.prepare()
                traced, errs = measure(twin, 0, n_jobs=len(untraced), tracer=tracer)
                errors += errs
            finally:
                tracer.unhook()
            if traced:
                os.makedirs(OUT_DIR, exist_ok=True)
                tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}.npz"))  # latest run
                peak = count_path_bytes(twin)
                out["metrics"] = per_layer(tracer, since, stats, peak, untraced, traced)
                out["missing"] = tracer.missing
        elif untraced and not args.trace:
            out["metrics"] = end_to_end(untraced, setup_s)

    ops = workload.ops_per_job if workload is not None else 1
    jobs = traced or untraced
    out["attempted"] = sum(j.attempted for j in untraced + traced) + ops * bool(errors)
    out["failed"] = sum(j.failed for j in untraced + traced) + ops * bool(errors)
    out["notes"] = [n for j in untraced + traced for n in j.notes]
    for run in (untraced, traced):  # the traced jobs repeat the untraced ones
        if not run:
            continue
        try:
            failed, notes = workload.verify(run)
        except Exception:
            failed, notes = sum(j.attempted - j.failed for j in run), []
            errors.append(traceback.format_exc())
        out["failed"] += failed
        out["notes"] += notes
    out["jobs"] = [{"wall_s": j.wall_s, "samples": j.samples, "mix_s": j.mix_s, "parts": j.parts,
                    "tails": {str(a): t for a, t in j.tails.items()}} for j in jobs]
    out["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fairmix benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 fairbench/run.py --workload goods-eps --seed 0 --seconds 15 --trace 0
    python3 fairbench/run.py --workload all --seed 0 --seconds 15

Each run starts fresh interpreters with ``src`` on ``PYTHONPATH`` and the
BLAS/OpenMP pools capped at the CPU count: eight set-up probes (``--trace 0``
only) and one worker (see ``worker.py``).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer split.  ``--workload all`` runs every workload in
both modes and prints everything.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero, with no result printed, when the benchmark cannot run at all
(for instance when ``src/fairmix`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Same names as workloads.WORKLOADS; this process never imports fairmix.
WORKLOADS = ("goods-eps", "bids-eps", "panels-eps", "oracle-exact")
SETUP_PROBES = 8


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def _worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the worker's result with the final
    ``correct``/``attempted``/``failed``/``metrics`` fields filled in."""
    if not os.path.isdir(os.path.join(SRC, "fairmix")):
        raise BenchError(f"no fairmix package under {SRC}")
    common = ["--workload", workload, "--seed", str(seed)]
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _worker([*common, "--seconds", "0", "--probe"], timeout=60)
            if probe["setup_s"] is not None:
                probes.append(probe["setup_s"])
    out = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)],
                  timeout=60 + 3 * seconds)
    if out["metrics"] and not trace:
        setups = probes + [out["setup_s"]]
        out["metrics"]["setup_s"]["value"] = statistics.median(setups)
        out["setup_runs"] = setups
    out["correct"] = out["failed"] == 0 and not out["errors"] and bool(out["metrics"])
    return out


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e12:
        return f"{int(value)}"
    return f"{value:.6g}"


def report(workload: str, seed: int, seconds: float, trace: int, out: dict) -> None:
    env = out.get("env", {})
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}  "
          + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in out["metrics"].items():
        print(f"  {name:<40} {_fmt(m['value']):>14} {m['unit']}")
    if out.get("setup_runs"):
        print(f"  setup_s is the median of {len(out['setup_runs'])} fresh processes: "
              + ", ".join(f"{v:.4f}" for v in out["setup_runs"]))
    jobs = out.get("jobs", [])
    if jobs:
        tails = {}
        for job in jobs:
            for a, t in job["tails"].items():
                tails[a] = tails.get(a, 0) + t
        print(f"  {len(jobs)} jobs; mix.tails per alpha (all jobs): "
              + ", ".join(f"{a}: {t}" for a, t in tails.items())
              + f"; samples per job: {', '.join(str(j['samples']) for j in jobs)}")
        if jobs[0]["parts"]:
            steps = jobs[0]["parts"]
            print("  median seconds per job step: " + ", ".join(
                f"{p} {statistics.median(j['parts'][p] for j in jobs):.4g}" for p in steps))
    if trace and out["metrics"]:
        m = {k: v["value"] for k, v in out["metrics"].items()}
        # max_matching runs inside oracle jobs; on goods-eps it is set-up.
        matching = m["assignment.max_matching_s"] if workload == "oracle-exact" else 0
        parts = {"prior": m["core.prior.busy_s"], "value": m["core.value.busy_s"],
                 "sort/trim/pick": m["mix.epsilon_self_s"],
                 "mechanism": m["core.mechanism.busy_s"],
                 "sweep loop": m["experiments.sweep_self_s"],
                 "count path": m["mix.epsilon_mix_many_s"], "max_matching": matching}
        total = sum(v for k, v in m.items() if k.startswith("layer."))  # mean traced job
        shares = sorted(parts.items(), key=lambda kv: -kv[1])
        print("  share of a traced job: " + ", ".join(
            f"{k} {v / total:.1%}" for k, v in shares if v > 0))
        print(f"  layer self times cover {m['trace.layer_cover']:.3f} x the untraced job time; "
              f"tracing overhead {m['trace.overhead_s']:.4g} s per job")
        if out.get("missing"):
            print("  missing hooks (layer not measured): " + ", ".join(out["missing"]))
    for note in out["notes"]:
        print(f"  FAIL {note}")
    for err in out["errors"]:
        print("  ERROR " + err.strip().replace("\n", "\n  "))
    ratio = out["failed"] / out["attempted"] if out["attempted"] else float("nan")
    print(f"  correct={out['correct']}  fail_ratio={out['failed']}/{out['attempted']} = {ratio:g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload != "all":
        try:
            out = run_one(args.workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"fairbench: {exc}", file=sys.stderr)
            return 2
        report(args.workload, args.seed, args.seconds, args.trace, out)
        print(json.dumps({k: out[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            try:
                out = run_one(workload, args.seed, args.seconds, trace)
            except BenchError as exc:
                print(f"== {workload} trace={trace}: {exc}")
                total["correct"] = False
                continue
            report(workload, args.seed, args.seconds, trace, out)
            total["correct"] &= out["correct"]
            total["attempted"] += out["attempted"]
            total["failed"] += out["failed"]
            for name, m in out["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    if total["attempted"] == 0:
        print("fairbench: no workload ran", file=sys.stderr)
        return 2
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

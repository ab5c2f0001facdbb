"""The summary step of ``tools/bench_pairs.py`` on canned benchmark output."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"setup_s": "lower", "samples_per_s": "higher", "job_s": "lower"}


def stdout(rate: float, *, failed: int = 0, attempted: int = 100) -> str:
    """A run's report lines and its final JSON result line."""
    metrics = {"setup_s": {"value": 0.2, "unit": "s"},
               "samples_per_s": {"value": rate, "unit": "1/s"},
               "job_s": {"value": 1000.0 / rate, "unit": "s"}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return "== panels-eps  seed=7\n  correct=True\n" + json.dumps(result) + "\n"


MALFORMED = "== panels-eps  seed=7\nTraceback (most recent call last):\nValueError: boom\n"


@pytest.fixture
def pairs() -> list[dict]:
    parse = bench_pairs.parse_run
    return [
        {"parent": parse(0, stdout(100.0)), "change": parse(0, stdout(120.0))},
        {"parent": parse(0, stdout(110.0)), "change": parse(0, stdout(105.0))},
        {"parent": parse(0, stdout(90.0)), "change": parse(0, stdout(500.0, failed=2))},
        {"parent": parse(1, MALFORMED), "change": parse(0, stdout(130.0))},
    ]


def test_parse_run_reads_last_line():
    record = bench_pairs.parse_run(0, stdout(100.0))
    assert record == {"exit": 0, "correct": True, "attempted": 100, "failed": 0,
                      "setup_s": 0.2, "samples_per_s": 100.0, "job_s": 10.0}


def test_parse_run_malformed_last_line_is_incorrect():
    record = bench_pairs.parse_run(1, MALFORMED)
    assert record["exit"] == 1 and not record["correct"]
    assert record["error"] == "ValueError: boom"
    assert "samples_per_s" not in record
    assert not bench_pairs.parse_run(0, "")["correct"]
    # A readable result still counts as incorrect when the run exited non-zero.
    assert not bench_pairs.parse_run(2, stdout(100.0))["correct"]


def test_summary_counts_failures_and_skips_them_in_medians(pairs):
    out = bench_pairs.summarize(pairs, BETTER)
    assert out["pairs"] == 4 and not out["all_correct"]
    assert out["exit_by_run"] == {"parent": [0, 0, 0, 1], "change": [0, 0, 0, 0]}
    assert out["correct_by_run"] == {"parent": [True, True, True, False],
                                     "change": [True, True, False, True]}
    assert out["attempted"] == {"parent": 300, "change": 400}
    assert out["failed"] == {"parent": 0, "change": 2}
    rate = out["samples_per_s"]
    assert rate["parent"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert rate["change"] == {"median": 120.0, "q1": 112.5, "q3": 125.0}
    assert rate["change_over_parent"] == 1.2
    # Only pairs 1 and 2 have a correct run on both sides; the change wins pair 1.
    assert rate["compared_pairs"] == 2 and rate["change_wins"] == 1
    assert rate["medians_differ_beyond_parent_iqr"]
    # Lower is better for job_s: the same pair is a win in that direction too.
    assert out["job_s"]["change_wins"] == 1
    assert out["setup_s"]["change_wins"] == 0
    assert not out["setup_s"]["medians_differ_beyond_parent_iqr"]


def test_main_writes_fresh_out_from_its_own_runs(pairs, tmp_path, monkeypatch):
    """``main`` runs the pairs in alternating order at the benchmark's run length
    and replaces an existing ``--out`` rather than adding to it."""
    canned = iter([pairs[0]["parent"], pairs[0]["change"],   # pair 1: parent first
                   pairs[1]["change"], pairs[1]["parent"]])  # pair 2: change first
    calls = []

    def run_side(directory, workload, seed, seconds):
        calls.append((directory, workload, seed, seconds))
        return next(canned)

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    parent, change = tmp_path / "parent", tmp_path / "change"
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": {"panels-eps@7": pairs}, "stale": True}))
    extra = tmp_path / "split.json"
    extra.write_text(json.dumps({"draw_ms": 1.0}))
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--run", "panels-eps@7:2", "--out", str(out),
                             "--attach", f"split={extra}"]) == 0
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert calls == [(str(d), "panels-eps", 7, seconds)
                     for d in (parent, change, change, parent)]
    bench = json.loads(out.read_text())
    assert "stale" not in bench and bench["split"] == {"draw_ms": 1.0}
    assert [p["order"] for p in bench["runs"]["panels-eps@7"]] == ["parent, change",
                                                                  "change, parent"]
    summary = bench["summary"]["panels-eps@7"]
    assert summary["pairs"] == 2 and summary["samples_per_s"]["change_wins"] == 1

"""Tests of the benchmark harness itself: ``python3 -m pytest bench``.

Not part of the tier-1 suite (pyproject's ``testpaths`` is ``tests``):
the workload tests launch child processes on shrunk inputs.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

DECLARED = run.load_declared()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declared_names_units_and_bounds():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics] + [
        w["name"] for w in DECLARED["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert all(set(m) == {"name", "unit", "better"}
               for m in DECLARED["per_layer"])
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert set(run.WORKLOADS) == {w["name"] for w in DECLARED["workloads"]}


def test_percentiles_need_ten_samples_beyond():
    hundred = list(range(1, 101))
    assert stats.percentiles(hundred, [50, 90, 99]) == {50: 50, 90: 90}
    assert stats.tail(hundred) == ("p90", 90)
    assert stats.tail(list(range(1000)))[0] == "p99"
    assert stats.tail(list(range(10_000)))[0] == "p99.9"
    assert stats.tail([3.0, 1.0, 2.0]) == ("p50", 2.0)
    assert stats.percentiles([1.0] * 19, [50]) == {}


PARENT = [100.0, 101.0, 99.0, 100.5]


@pytest.mark.parametrize("change, higher, expected", [
    ([120.0, 121.0, 119.0, 120.5], False, "worse"),
    ([104.0, 105.0, 103.0, 104.5], False, "same"),
    ([80.0, 81.0, 79.0, 80.5], False, "better"),
    ([80.0, 81.0, 79.0, 80.5], True, "worse"),
], ids=["regression", "within-bound", "gain", "higher-is-better"])
def test_compare_verdicts(change, higher, expected):
    assert compare.verdict(PARENT, change, 0.1, higher) == expected


def test_compare_unresolved_unless_every_run_wins():
    noisy = [80.0, 120.0, 95.0, 130.0]
    assert compare.verdict(noisy, [100.0, 150.0, 90.0, 110.0], 0.1,
                           False) == "unresolved"
    assert compare.verdict(noisy, [70.0, 71.0, 72.0, 73.0], 0.1,
                           False) == "better"


def _result_file(path: Path, values: dict) -> str:
    path.write_text(json.dumps({"workloads": {"w": {"metrics": {
        name: {"value": v, "unit": "ms", "n": 1}
        for name, v in values.items()}}}}))
    return str(path)


def test_compare_reads_result_files(tmp_path):
    parent = [_result_file(tmp_path / f"p{i}.json",
                           {"op_p50_ms": v, "core.cbs_s": 1.0})
              for i, v in enumerate(PARENT)]
    change = [_result_file(tmp_path / f"c{i}.json",
                           {"op_p50_ms": v * 1.5, "core.cbs_s": 0.5})
              for i, v in enumerate(PARENT)]
    rows, summary = compare.compare(parent, change, DECLARED)
    assert summary == {"w": {"worse": 1}}
    by_metric = {r[1]: r for r in rows}
    assert by_metric["op_p50_ms"][4:] == (0, 4, "worse")
    assert by_metric["core.cbs_s"][4:] == (4, 4, "-")
    assert compare.main(parent + ["--"] + change) == 1


def test_self_time_merges_overlapping_children():
    from repro.obs.tracer import Span

    def span(name, start, end, *children):
        s = Span(name, {}, 0)
        s.start, s.end, s.children = start, end, list(children)
        return s

    root = span("sweep", 0.0, 10.0,
                span("sweep.point", 1.0, 5.0, span("flow", 1.5, 4.5)),
                span("sweep.point", 2.0, 6.0))
    totals = layers.self_times([root])
    assert totals["sweep"] == pytest.approx(5.0)
    assert totals["sweep.point"] == pytest.approx(1.0 + 4.0)
    assert totals["flow"] == pytest.approx(3.0)


@pytest.fixture
def shrunk(monkeypatch):
    """Every workload on inputs small enough for a test."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "FLOW_INPUTS", {
        "flow_clustered_10k": {"design": "s38584", "scale": 0.05},
        "flow_uniform_14k": {"uniform": 200, "seed": 0},
    })
    monkeypatch.setattr(run, "SWEEP", dict(
        run.SWEEP, designs=["s38584"], scale=0.05, eps=[0.3], seed=[0, 1],
        library=["default"]))
    monkeypatch.setattr(run, "SERVE_PREWARM", dict(
        run.SERVE_PREWARM, designs=["s38584"], eps=[0.3], seed=[0, 1]))
    monkeypatch.setattr(run, "SERVE_MISS", {"design": "s38584",
                                            "scale": 0.05})
    monkeypatch.setattr(run, "SERVE_MIN_REQUESTS", 100)


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_emits_declared_metrics(shrunk, tmp_path, workload,
                                         traced):
    out = run.run_workload(workload, run.Run(1, 0.0, tmp_path), traced,
                           DECLARED)
    assert out.correct, out.failures
    assert out.attempted >= 1 and out.failed == 0
    kind = "per_layer" if traced else "end_to_end"
    assert sorted(out.metrics) == sorted(m["name"] for m in DECLARED[kind])
    assert all(math.isfinite(v) and n >= 1
               for v, n in out.metrics.values())
    if not traced:
        assert all(v != 0 for v, _ in out.metrics.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

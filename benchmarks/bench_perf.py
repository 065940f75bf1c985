"""Extension bench: the hot-path performance trajectory.

Runs the full hierarchical flow on the fixed-seed uniform designs at
200/500/1000/2000 sinks (``REPRO_PERF_SIZES`` overrides, comma
separated), pulls per-stage wall times from the run's FlowDiagnostics,
and writes the machine-readable trajectory to the shared
``benchmarks/results/`` path.  A run at the canonical default sizes
also refreshes ``BENCH_perf.json`` at the repo root — the file future
hot-path changes regress against; override runs never touch it.

The quality columns (wirelength / skew / buffers) are part of the
trajectory on purpose: a "speedup" that changes them is a different
algorithm, not an optimisation.
"""

import os
from pathlib import Path

from repro.perf import (
    DEFAULT_JOBS,
    DEFAULT_SIZES,
    format_perf_table,
    merge_bench_records,
    run_perf,
    write_bench_json,
)

from conftest import emit

ROOT_TRAJECTORY = Path(__file__).resolve().parents[1] / "BENCH_perf.json"

QUALITY_FIELDS = ("wirelength_um", "latency_ps", "skew_ps", "num_buffers")


def _sizes() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_PERF_SIZES", "")
    if not raw:
        return DEFAULT_SIZES
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def _jobs() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_PERF_JOBS", "")
    if not raw:
        return DEFAULT_JOBS
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def test_perf_trajectory(once):
    sizes = _sizes()
    jobs = _jobs()
    payload = once(run_perf, sizes, 0, 100, jobs)
    emit("perf", format_perf_table(payload), data=payload)
    if sizes == DEFAULT_SIZES and jobs == DEFAULT_JOBS:
        # only a canonical run may replace the committed trajectory;
        # REPRO_PERF_SIZES/REPRO_PERF_JOBS smoke runs stay in
        # benchmarks/results/.  At-scale records (10k/100k) the
        # canonical sizes do not re-measure are carried over, so a
        # trajectory refresh cannot silently drop the points the CI
        # perf-smoke pins against.
        write_bench_json(merge_bench_records(payload, ROOT_TRAJECTORY),
                         ROOT_TRAJECTORY)

    records = payload["records"]
    assert [(r["sinks"], r["jobs"]) for r in records] == [
        (n, j) for n in sizes for j in jobs
    ]
    # serial/parallel equivalence: quality columns of every parallel
    # point must be byte-identical to the serial point of its size
    serial = {r["sinks"]: r for r in records if r["jobs"] == 1}
    for rec in records:
        ref = serial.get(rec["sinks"])
        if ref is None:
            continue
        for quality in QUALITY_FIELDS:
            assert rec[quality] == ref[quality], (
                rec["sinks"], rec["jobs"], quality)
    for rec in records:
        # the hierarchical stages must all be visible in the breakdown
        assert {"partition", "route", "buffer"} <= set(rec["stage_time_s"])
        assert rec["runtime_s"] > 0
        assert rec["num_buffers"] > 0
        # schema v2: per-kind event breakdown and the obs metrics snapshot
        assert rec["flow_events"]["total"] >= 0
        assert rec["metrics"]["counters"]["salt.grid.queries"] > 0
    # near-linear growth: 10x sinks must cost far less than 100x time
    # (measured on the serial points so pool overhead cannot distort it)
    serial_records = [r for r in records if r["jobs"] == 1] or records
    first, last = serial_records[0], serial_records[-1]
    growth = last["runtime_s"] / max(first["runtime_s"], 1e-9)
    size_growth = last["sinks"] / first["sinks"]
    assert growth < size_growth ** 2

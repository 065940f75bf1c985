"""One measured operation of the benchmark, run in a fresh interpreter.

    python3 bench/child.py '<job JSON>'

bench/run.py launches every operation through this file, so each one
pays the interpreter start, imports and input generation that
``repro flow``, ``repro sweep`` and ``repro serve`` pay.  The job names
its ``kind`` and inputs, and the result is written as JSON to
``job["out"]``.  Set-up time runs from ``job["launched"]``, the
parent's ``time.perf_counter()`` just before it spawned this process:
on Linux that clock is system-wide monotonic, so both processes read
the same time line.

With ``job["trace"]`` set, the operation runs with the timing wrappers
of :mod:`layers` installed and the program's tracer on, and the result
carries the per-layer values.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


def _since_launch(job: dict) -> float:
    return time.perf_counter() - job["launched"]


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


@contextmanager
def _measured(job: dict, result: dict):
    """Run the block plainly, or traced when the job asks for it."""
    if not job.get("trace"):
        yield
        return
    import layers
    from repro.obs.metrics import METRICS
    from repro.obs.tracer import TRACER, capture

    layers.install()
    METRICS.begin_event_log()
    METRICS.reset()
    with capture(TRACER):
        yield
    result["layers"] = layers.layer_values(
        METRICS.raw_snapshot(), layers.self_times(TRACER.roots))


def _placement(spec: dict):
    if "design" in spec:
        from repro.designs import load_design

        design = load_design(spec["design"], scale=spec["scale"])
        return design.sinks, design.source
    from repro.geometry import Point
    from repro.perf import make_uniform_sinks

    sinks, side = make_uniform_sinks(spec["uniform"], spec["seed"])
    return sinks, Point(side / 2.0, side / 2.0)


def run_flow(job: dict) -> dict:
    """One ``HierarchicalCTS.run`` on a fixed placement, then its checks."""
    from repro.cts import FlowConfig, HierarchicalCTS
    from repro.cts.evaluation import audit_solution, evaluate_result
    from repro.tech import Technology

    sinks, source = _placement(job["placement"])
    result = {"setup_s": _since_launch(job)}
    if job.get("setup_only"):
        return result
    tech = Technology()
    engine = HierarchicalCTS(tech=tech, config=FlowConfig())
    with _measured(job, result):
        start = time.perf_counter()
        cts = engine.run(sinks, source)
        result["flow_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = _peak_rss_mb()

    failures = []
    try:
        cts.tree.validate()
    except ValueError as exc:
        failures.append(f"final tree is invalid: {exc}")
    routed = sorted(s.name for s in cts.tree.sinks())
    if routed != sorted(s.name for s in sinks):
        failures.append(f"tree sinks differ from the input: {len(routed)} "
                        f"routed ({len(set(routed))} distinct) for "
                        f"{len(sinks)} input sinks")
    report = evaluate_result(cts, tech)
    result["qor"] = {
        "latency_ps": report.latency_ps,
        "skew_ps": report.skew_ps,
        "wirelength_um": report.clock_wl_um,
        "buffers": report.num_buffers,
        "drc_violations": len(audit_solution(cts.tree, tech)),
    }
    if not all(math.isfinite(v) for v in result["qor"].values()):
        failures.append(f"non-finite QoR {result['qor']}")
    result["failures"] = failures
    return result


def run_sweep_job(job: dict) -> dict:
    """One cold ``run_sweep`` into a fresh store, then its checks."""
    from repro.sweep import SweepStore, run_sweep
    from repro.sweep.spec import spec_from_dict

    spec = spec_from_dict(job["spec"], name="bench")
    points = spec.expand()
    store = SweepStore(job["store"])
    result = {"setup_s": _since_launch(job)}
    if job.get("setup_only"):
        return result
    with _measured(job, result):
        report = run_sweep(spec, store, jobs=job["jobs"])
    result["peak_rss_mb"] = (_peak_rss_mb()
                             + _peak_rss_mb(resource.RUSAGE_CHILDREN))

    n = len(points)
    ok = [r for r in report.records if r.get("status") == "ok"]
    stored = len(set(store.keys()))
    with open(report.jsonl_path) as fh:
        lines = sum(1 for line in fh if line.strip())
    failures = [f"{what}: {got} of {n}" for what, got in (
        ("distinct keys in the store", stored),
        ("lines in the sweep JSONL", lines),
    ) if got != n]
    point_s = [report.runtime_by_index[p.index] for p in points]
    result.update(
        points=n,
        failed_points=n - len(ok),
        failures=failures,
        wall_s=report.runtime_s,
        point_s=point_s,
        worker_util=sum(point_s) / (job["jobs"] * report.runtime_s),
        qor=[r["quality"] for r in ok],
    )
    return result


def run_prewarm(job: dict) -> dict:
    """Fill a store with the serve workload's hit set and fit a model."""
    from repro.predict import TARGET_FIELDS, extract_dataset, fit
    from repro.sweep import SweepStore, load_records, run_sweep
    from repro.sweep.spec import spec_from_dict

    spec = spec_from_dict(job["spec"], name="prewarm")
    report = run_sweep(spec, SweepStore(job["store"]), jobs=job["jobs"])
    bad = sum(1 for r in report.records if r.get("status") != "ok")
    model = fit(extract_dataset(load_records(job["store"])))
    return {
        "model": str(model.save(job["models"])),
        "targets": list(TARGET_FIELDS),
        "failures": [f"{bad} pre-warm point(s) failed"] if bad else [],
    }


def run_server(job: dict) -> int:
    """``repro serve`` with the per-layer wrappers and the tracer on.

    Serves until SIGINT, then writes the server's per-layer values.
    """
    import layers
    from repro.cli import main
    from repro.obs.metrics import METRICS
    from repro.obs.tracer import TRACER

    layers.install()
    METRICS.begin_event_log()
    METRICS.reset()
    TRACER.reset()
    TRACER.enable()
    code = main(["serve", *job["argv"]])
    Path(job["out"]).write_text(json.dumps({"layers": layers.layer_values(
        METRICS.raw_snapshot(), layers.self_times(TRACER.roots))}))
    return code


KINDS = {"flow": run_flow, "sweep": run_sweep_job, "prewarm": run_prewarm}


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    if job["kind"] == "server":
        return run_server(job)
    result = KINDS[job["kind"]](job)
    Path(job["out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Quality pins: the full flow at 200, 500 and 10,000 uniform sinks.

``BENCH_perf.json`` at the repo root pins the paper's four quality
columns (latency, skew, wirelength and buffers; Tables 6-7) for the
fixed-seed placements of :func:`repro.perf.make_uniform_sinks`.  Each
pin runs serially and on a 2-worker pool, and both runs must reproduce
it exactly: a change that moves a column is an algorithm change, and
parallelism is not one.

Byte equality alone would also freeze a broken result, so every run is
held to invariants as well:

* global skew within the Table 5 bound;
* at most 0.05 buffers per sink (a partition collapse into hundreds of
  tiny clusters reads about 0.26);
* at most the pin's ``audit_violations`` from :func:`audit_solution`,
  an upper bound that may only fall;
* level 0 within 1.1x of ceil(n / ``max_fanout``) clusters;
* a generous wall-time ceiling, so a hot path gone quadratic fails
  here instead of hanging CI.

After a deliberate QoR change a failing pin prints the values it
measured; paste them over the pin in ``BENCH_perf.json``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cts import TABLE5, FlowConfig, HierarchicalCTS
from repro.cts.evaluation import audit_solution, evaluate_result
from repro.geometry import Point
from repro.obs.clock import now
from repro.perf import make_uniform_sinks
from repro.tech import Technology

PIN_FILE = Path(__file__).resolve().parents[1] / "BENCH_perf.json"
PINS = json.loads(PIN_FILE.read_text())
QUALITY = ("latency_ps", "skew_ps", "wirelength_um", "num_buffers")
MAX_BUFFERS_PER_SINK = 0.05
MAX_LEVEL0_RATIO = 1.1
WALL_CEILING_S = {200: 30.0, 500: 30.0, 10000: 120.0}


def test_pin_file_holds_the_three_sizes():
    assert PINS["seed"] == 0 and PINS["sa_iterations"] == 100
    assert [pin["sinks"] for pin in PINS["pins"]] == [200, 500, 10000]
    for pin in PINS["pins"]:
        assert set(pin) == {"sinks", "audit_violations", *QUALITY}


@pytest.mark.parametrize("jobs", [1, 2], ids=lambda j: f"jobs{j}")
@pytest.mark.parametrize("pin", PINS["pins"], ids=lambda p: str(p["sinks"]))
def test_flow_matches_pin(pin, jobs):
    n = pin["sinks"]
    tech = Technology()
    sinks, side = make_uniform_sinks(n, PINS["seed"])
    engine = HierarchicalCTS(tech=tech, config=FlowConfig(
        sa_iterations=PINS["sa_iterations"], jobs=jobs))
    start = now()
    result = engine.run(sinks, Point(side / 2, side / 2))
    wall_s = now() - start
    report = evaluate_result(result, tech)
    violations = audit_solution(result.tree, tech)
    measured = {
        "sinks": n,
        "latency_ps": report.latency_ps,
        "skew_ps": report.skew_ps,
        "wirelength_um": report.clock_wl_um,
        "num_buffers": report.num_buffers,
        "audit_violations": len(violations),
    }
    where = f"{n} sinks at jobs={jobs}"

    assert wall_s < WALL_CEILING_S[n], (
        f"{where}: {wall_s:.1f} s, over the {WALL_CEILING_S[n]} s ceiling")
    assert report.skew_ps <= TABLE5.skew_bound, (
        f"{where}: skew {report.skew_ps!r} ps over the "
        f"{TABLE5.skew_bound} ps bound")
    per_sink = report.num_buffers / n
    assert per_sink <= MAX_BUFFERS_PER_SINK, (
        f"{where}: {per_sink:.3f} buffers per sink, over "
        f"{MAX_BUFFERS_PER_SINK}")
    assert len(violations) <= pin["audit_violations"], (
        f"{where}: {len(violations)} audit violations, over the pinned "
        f"{pin['audit_violations']}; the bound may only fall: "
        + "; ".join(f"{v.kind} at {v.where}" for v in violations[:5]))
    level0 = result.levels[0].num_clusters
    level0_max = MAX_LEVEL0_RATIO * math.ceil(n / TABLE5.max_fanout)
    assert level0 <= level0_max, (
        f"{where}: {level0} level-0 clusters, over {level0_max:g}")
    assert {f: measured[f] for f in QUALITY} == {f: pin[f] for f in QUALITY}, (
        f"{where} moved off its pin.  After a deliberate QoR change, "
        f"paste this over the pin in BENCH_perf.json:\n"
        + json.dumps(measured, indent=2))

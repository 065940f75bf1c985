"""Repository benchmark: CTS quality and turnaround on two full-chip
flows, cold-sweep throughput and mixed-serve latency.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1 | --traced] [--out FILE]

Every operation runs in a fresh child process (bench/child.py), so each
measurement pays what ``repro flow``, ``repro sweep`` or ``repro serve``
pays.  A run repeats its workload's operation while less than
``--seconds`` have passed, and always completes the workload's minimum.
It checks every output, prints each metric as
``<workload> <metric> <value> <unit> n=<samples>``, writes a result file
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when any check failed.

``--trace 1`` (or ``--traced``) makes the separate traced run: each
workload runs once plainly and once with the timing wrappers of
bench/layers.py installed, and the run reports the per-layer metrics
only.  End-to-end metrics always come from untraced runs.

Metric names, units and bounds are declared in BENCHMARK.json at the
repository root; bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import http.client
import json
import math
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import stats

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-up-only children launched before and again after a workload's
#: operations, so set-up time is a median over the whole run even when
#: the run holds a single operation.
SETUP_PROBES = 2

#: A child that has not finished by then has hung.
CHILD_TIMEOUT_S = 170.0

#: Fixed placements of the flow workloads and the least number of flows
#: per run.  The flow is sensitive to the presentation of its input:
#: mirroring ethernet moves its latency from 206.0 to 194.4 ps, and
#: uniform placements of other seeds take twice as long, so ``--seed``
#: does not change these inputs.
FLOW_INPUTS = {
    "flow_clustered_10k": {"design": "ethernet", "scale": 1.0},
    "flow_uniform_14k": {"uniform": 14000, "seed": 0},
}
FLOW_MIN_OPS = {"flow_clustered_10k": 3, "flow_uniform_14k": 1}

#: The cold sweep: designs x eps x seed x library at one scale, run with
#: SWEEP_JOBS workers.  ``--seed`` shuffles the listed order of every
#: axis, which changes the order points run in but not the points.
SWEEP = {
    "designs": ["s38584", "s38417", "s35932", "salsa20"],
    "scale": 0.1,
    "eps": [0.1, 0.2, 0.3, 0.4, 0.5],
    "seed": [0, 1, 2],
    "library": ["default", "lean"],
}
SWEEP_JOBS = 2

#: The serve workload's pre-warmed hit set, fitted into the model the
#: server loads; the client's threads, the requests each thread sends at
#: least, and its request mix per block of 100 (drawn exactly, so every
#: run computes the same share of misses); the design misses are
#: computed on, each with a fresh FlowConfig seed.
SERVE_PREWARM = {
    "designs": ["s38584", "s38417"],
    "scale": 0.05,
    "eps": [0.1, 0.2, 0.3, 0.4, 0.5],
    "seed": [0, 1, 2, 3],
}
SERVE_THREADS = 2
SERVE_MIN_REQUESTS = 700
SERVE_MIX = (("hit", 82), ("predict", 15), ("miss", 3))
SERVE_MISS = {"design": "s38584", "scale": 0.1}

QOR_METRICS = ("latency_ps", "skew_ps", "wirelength_um", "buffers")


def load_declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class ChildFailed(Exception):
    """A child process exited non-zero or wrote no result."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: metric -> (value, samples)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(why)

    @property
    def correct(self) -> bool:
        return not self.failures


@dataclass
class Run:
    """Settings and scratch space of one benchmark invocation."""

    seed: int
    seconds: float
    work: Path

    def __post_init__(self) -> None:
        # a reused directory would hand the run another run's stores
        (self.work / "tmp").mkdir(parents=True, exist_ok=False)
        path = [str(ROOT / "src")] + [
            p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        TMPDIR=str(self.work / "tmp"), PYTHONUNBUFFERED="1")
        self._tags = 0

    def tag(self, name: str) -> str:
        self._tags += 1
        return f"{self._tags:03d}-{name}"

    def spawn(self, job: dict, name: str) -> dict:
        """Run ``job`` in a fresh child; returns the child's result."""
        tag = self.tag(name)
        out = self.work / f"{tag}.json"
        with open(self.work / f"{tag}.log", "w") as log:
            job = dict(job, out=str(out), launched=time.perf_counter())
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                    cwd=ROOT, env=self.env, stdout=log, stderr=log,
                    timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                raise ChildFailed(f"{tag}: no result within "
                                  f"{CHILD_TIMEOUT_S:g}s") from None
        if proc.returncode != 0 or not out.exists():
            tail = (self.work / f"{tag}.log").read_text()[-400:].strip()
            raise ChildFailed(f"{tag}: exit {proc.returncode}: {tail}")
        return json.loads(out.read_text())

    def repeat(self, minimum: int):
        """Yield once per operation: at least ``minimum`` times, and again
        while less than ``seconds`` have passed."""
        start = time.perf_counter()
        done = 0
        while done < minimum or time.perf_counter() - start < self.seconds:
            yield
            done += 1


def _median_layers(per_op: list[dict]) -> dict[str, float]:
    return {name: statistics.median(op[name] for op in per_op)
            for name in per_op[0]}


def _timing_metrics(setups, op_ms, ops, wall_s) -> dict:
    n = len(op_ms)
    return {
        "setup_s": (stats.median(setups), len(setups)),
        "op_p50_ms": (stats.median(op_ms), n),
        "op_tail_ms": (stats.tail(op_ms)[1], n),
        "ops_per_s": (ops / wall_s, ops),
    }


def _mean_qor(qors: list[dict]) -> dict:
    """Mean of each QoR column over sweep/serve records."""
    column = {"buffers": "num_buffers"}
    return {m: (statistics.fmean(q[column.get(m, m)] for q in qors),
                len(qors))
            for m in QOR_METRICS}


# ----------------------------------------------------------------------
# Flow workloads
# ----------------------------------------------------------------------
def flow_workload(name: str, run: Run, traced: bool) -> Outcome:
    out = Outcome()
    job = {"kind": "flow", "placement": FLOW_INPUTS[name], "trace": traced}

    def probe() -> float:
        return run.spawn(dict(job, setup_only=True), f"{name}-probe")["setup_s"]

    setups = [probe() for _ in range(SETUP_PROBES)]
    flows, walls = [], []
    for _ in run.repeat(FLOW_MIN_OPS[name]):
        out.attempted += 1
        start = time.perf_counter()
        try:
            flow = run.spawn(job, f"{name}-flow")
        except ChildFailed as exc:
            out.fail(str(exc))
            continue
        walls.append(time.perf_counter() - start)
        setups.append(flow["setup_s"])
        if flow["failures"]:
            out.fail("; ".join(flow["failures"]))
        flows.append(flow)
    setups += [probe() for _ in range(SETUP_PROBES)]
    if not flows:
        return out
    qor = flows[0]["qor"]
    if any(f["qor"] != qor for f in flows[1:]):
        out.fail(f"QoR differs between the run's flows: "
                 f"{[f['qor'] for f in flows]}")
    n = len(flows)
    out.metrics = _timing_metrics(
        setups, [f["flow_s"] * 1e3 for f in flows], n, sum(walls))
    out.metrics["peak_rss_mb"] = (
        stats.median(f["peak_rss_mb"] for f in flows), n)
    out.metrics.update({m: (qor[m], n) for m in QOR_METRICS})
    if traced:
        out.layers = _median_layers([f["layers"] for f in flows])
        out.layers["cts.drc_violations"] = qor["drc_violations"]
    return out


# ----------------------------------------------------------------------
# Cold sweep
# ----------------------------------------------------------------------
def sweep_spec(seed: int) -> dict:
    rng = random.Random(seed)

    def shuffled(values):
        return rng.sample(values, len(values))

    return {
        "designs": shuffled(SWEEP["designs"]),
        "scales": [SWEEP["scale"]],
        "grid": {axis: shuffled(SWEEP[axis])
                 for axis in ("eps", "seed", "library")},
    }


def sweep_workload(run: Run, traced: bool) -> Outcome:
    out = Outcome()
    job = {"kind": "sweep", "spec": sweep_spec(run.seed), "jobs": SWEEP_JOBS,
           "trace": traced}

    def probe() -> float:
        return run.spawn(dict(job, setup_only=True,
                              store=str(run.work / run.tag("store"))),
                         "sweep-probe")["setup_s"]

    setups = [probe() for _ in range(SETUP_PROBES)]
    sweeps = []
    for _ in run.repeat(1):
        try:
            sweep = run.spawn(dict(job, store=str(run.work / run.tag("store"))),
                              "sweep")
        except ChildFailed as exc:
            out.attempted += 1
            out.fail(str(exc))
            continue
        out.attempted += sweep["points"]
        setups.append(sweep["setup_s"])
        if sweep["failed_points"]:
            out.fail(f"{sweep['failed_points']} sweep point(s) failed",
                     sweep["failed_points"])
        if sweep["failures"]:
            out.fail("; ".join(sweep["failures"]), 0)
        sweeps.append(sweep)
    setups += [probe() for _ in range(SETUP_PROBES)]
    if not sweeps:
        return out
    if any(s["qor"] != sweeps[0]["qor"] for s in sweeps[1:]):
        out.fail("QoR differs between the run's sweeps", 0)
    points = sum(s["points"] for s in sweeps)
    point_ms = [t * 1e3 for s in sweeps for t in s["point_s"]]
    out.metrics = _timing_metrics(
        setups, point_ms, points, sum(s["wall_s"] for s in sweeps))
    out.metrics["peak_rss_mb"] = (
        stats.median(s["peak_rss_mb"] for s in sweeps), len(sweeps))
    out.metrics.update(_mean_qor(sweeps[0]["qor"]))
    if traced:
        out.layers = _median_layers([s["layers"] for s in sweeps])
        out.layers["parallel.worker_util"] = stats.median(
            s["worker_util"] for s in sweeps)
        out.layers["sweep.point_p50_ms"] = stats.median(point_ms)
    return out


# ----------------------------------------------------------------------
# Mixed serve load
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    _LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")

    def __init__(self, run: Run, argv: list[str], traced: bool):
        tag = run.tag("server")
        self.layers_out = run.work / f"{tag}.json"
        if traced:
            job = {"kind": "server", "argv": argv, "out": str(self.layers_out)}
            cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(job)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", *argv]
        self._log = open(run.work / f"{tag}.log", "w")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=run.env,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        try:
            deadline = launched + 60.0
            self.port = self._read_port(deadline)
            while self._healthz() != 200:
                if time.perf_counter() > deadline:
                    raise ChildFailed(f"{tag}: /healthz never answered 200")
                time.sleep(0.01)
            self.setup_s = time.perf_counter() - launched
        except BaseException:
            self.stop()
            raise

    def _read_port(self, deadline: float) -> int:
        stream = self.proc.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.1)
            if not ready:
                continue
            line = stream.readline()
            if not line:
                raise ChildFailed("server exited before listening")
            found = self._LISTENING.search(line)
            if found:
                return int(found.group(1))
        raise ChildFailed("server did not report its port")

    def _healthz(self) -> int | None:
        try:
            return request(self.port, "GET", "/healthz", timeout=1.0)[0]
        except OSError:
            return None

    def stop(self, grace_s: float = 30.0) -> float:
        """SIGINT, reap within ``grace_s`` (kill after); returns the
        server's peak RSS in MB."""
        self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + grace_s
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        while not pid:
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.05)
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self._log.close()
        return usage.ru_maxrss / 1024.0


def request(port: int, method: str, path: str, payload: dict | None = None,
            timeout: float = CHILD_TIMEOUT_S):
    """One HTTP exchange on its own connection; returns (status, JSON)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None
    finally:
        conn.close()


def _prewarm_payloads() -> list[dict]:
    p = SERVE_PREWARM
    return [{"design": d, "scale": p["scale"],
             "config": {"eps": e, "seed": s}}
            for d in p["designs"] for e in p["eps"] for s in p["seed"]]


@dataclass
class _Expect:
    """What a response must satisfy: hits must return the pre-warmed
    record, predictions a finite value per target."""

    keys: list[str]          # key of each pre-warm payload
    records: dict[str, dict]  # pre-warmed records as read from disk
    targets: list[str]

    def problem(self, kind: str, status, body, hit: int | None) -> str | None:
        if status != 200:
            return f"{kind}: HTTP {status}: {str(body)[:200]}"
        if kind == "predict":
            predicted = body.get("predicted") or {}
            if not all(isinstance(predicted.get(t), (int, float))
                       and math.isfinite(predicted[t]) for t in self.targets):
                return f"predict: not finite for every target: {predicted}"
        elif kind == "hit":
            key = self.keys[hit]
            if key not in self.records:
                return f"hit: payload {hit} never resolved in the warm-up"
            if body.get("source") != "cache" or body.get("key") != key:
                return f"hit: source {body.get('source')!r}, key mismatch"
            if body.get("record") != self.records[key]:
                return f"hit: record {key[:12]} differs from the store"
        elif (body.get("source") != "computed"
              or body.get("record", {}).get("status") != "ok"):
            return (f"miss: source {body.get('source')!r}, status "
                    f"{body.get('record', {}).get('status')!r}")
        return None


def _script(seed: int, thread: int, payloads: list[dict]):
    """A thread's endless seeded request stream: (kind, path, payload, hit)."""
    rng = random.Random(seed * 1000 + thread)
    block = [kind for kind, count in SERVE_MIX for _ in range(count)]
    misses = 0
    while True:
        rng.shuffle(block)
        for kind in block:
            if kind == "miss":
                misses += 1
                # unique per thread and request; other seeds miss elsewhere
                miss_seed = 10_000 * (seed + 1) + SERVE_THREADS * misses + thread
                yield kind, "/v1/cts", dict(SERVE_MISS,
                                            config={"seed": miss_seed}), None
            else:
                hit = rng.randrange(len(payloads))
                path = "/v1/cts" if kind == "hit" else "/v1/predict"
                yield kind, path, payloads[hit], hit


def _client(port, script, deadline, expect, samples, problems) -> None:
    """Closed loop: send the next request once the last one answered,
    until the deadline has passed and SERVE_MIN_REQUESTS were sent."""
    try:
        for sent, (kind, path, payload, hit) in enumerate(script):
            if sent >= SERVE_MIN_REQUESTS and time.perf_counter() >= deadline:
                return
            start = time.perf_counter()
            try:
                status, body = request(port, "POST", path, payload)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, body = None, repr(exc)
            samples.append((kind, (time.perf_counter() - start) * 1e3))
            why = expect.problem(kind, status, body, hit)
            if why:
                problems.append(why)
    except Exception as exc:  # noqa: BLE001 — a dead client must fail the run
        problems.append(f"client thread died: {exc!r}")


def serve_workload(run: Run, traced: bool) -> Outcome:
    out = Outcome()
    store, models = run.work / run.tag("store"), run.work / run.tag("models")
    p = SERVE_PREWARM
    prep = run.spawn({
        "kind": "prewarm", "store": str(store), "models": str(models),
        "jobs": SWEEP_JOBS,
        "spec": {"designs": p["designs"], "scales": [p["scale"]],
                 "grid": {"eps": p["eps"], "seed": p["seed"]}},
    }, "serve-prewarm")
    for why in prep["failures"]:
        out.fail(why)
    records = {f.stem: json.loads(f.read_text())
               for f in (store / "records").glob("*.json")}
    argv = ["--host", "127.0.0.1", "--port", "0", "--store", str(store),
            "--model", prep["model"]]

    def probe() -> float:
        server = Server(run, argv, traced=False)
        server.stop()
        return server.setup_s

    setups = [probe() for _ in range(SETUP_PROBES)]
    server = Server(run, argv, traced)
    try:
        setups.append(server.setup_s)
        payloads = _prewarm_payloads()
        order = random.Random(run.seed).sample(range(len(payloads)),
                                               len(payloads))
        keys: list[str] = [""] * len(payloads)
        served = []
        for i in order:       # warm-up: every hit key once, in seeded order
            out.attempted += 1
            status, body = request(server.port, "POST", "/v1/cts", payloads[i])
            if status != 200 or body.get("source") != "cache" \
                    or body.get("record") != records.get(body.get("key")):
                out.fail(f"warm-up hit {payloads[i]}: HTTP {status}")
                continue
            keys[i] = body["key"]
            served.append(body["record"]["quality"])
        expect = _Expect(keys, records, prep["targets"])
        # one prediction per design fills the model's per-design memo
        for payload in [dict(payloads[0], design=d) for d in p["designs"]] \
                + [dict(SERVE_MISS)]:
            out.attempted += 1
            status, body = request(server.port, "POST", "/v1/predict",
                                   payload)
            why = expect.problem("predict", status, body, None)
            if why:
                out.fail(why)

        samples: list[tuple[str, float]] = []
        problems: list[str] = []
        start = time.perf_counter()
        threads = [threading.Thread(
            target=_client,
            args=(server.port, _script(run.seed, t, payloads),
                  start + run.seconds, expect, samples, problems),
        ) for t in range(SERVE_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(CHILD_TIMEOUT_S)
        window = time.perf_counter() - start
        _, metrics = request(server.port, "GET", "/metrics")
    finally:
        rss = server.stop()
    setups += [probe() for _ in range(SETUP_PROBES)]

    out.attempted += len(samples)
    if problems:
        out.fail(f"{len(problems)} bad response(s), first: {problems[0]}",
                 len(problems))
    by_kind = {k: [ms for kind, ms in samples if kind == k]
               for k, _ in SERVE_MIX}
    if not by_kind["hit"] or not served:
        out.fail("no cache hit completed")
        return out
    out.metrics = _timing_metrics(setups, by_kind["hit"], len(samples), window)
    out.metrics["peak_rss_mb"] = (rss, 1)
    out.metrics.update(_mean_qor(served))
    if traced:
        out.layers = json.loads(server.layers_out.read_text())["layers"]
        counters = metrics["counters"]
        hits, misses = (counters.get(f"serve.cache.{k}", 0)
                        for k in ("hit", "miss"))
        out.layers.update({
            "serve.miss_p50_ms": _p50(by_kind["miss"]),
            "serve.miss_p90_ms": _p90(by_kind["miss"]),
            "serve.predict_p50_ms": _p50(by_kind["predict"]),
            "serve.hit_ratio": hits / (hits + misses),
            "serve.flow_executed": counters.get("serve.flow.executed", 0),
            "serve.flight_coalesced": counters.get("serve.flight.coalesced", 0),
            "serve.admit_rejected": counters.get("serve.admit.rejected", 0),
            "serve.request_error": counters.get("serve.request.error", 0),
            "predict.request": counters.get("predict.request", 0),
        })
    return out


def _p50(ms: list[float]) -> float:
    return stats.median(ms) if ms else 0.0


def _p90(ms: list[float]) -> float:
    """p90 when ten samples lie beyond it, else the median."""
    return stats.percentiles(ms, [90.0]).get(90.0, _p50(ms))


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
WORKLOADS = {
    **{name: functools.partial(flow_workload, name) for name in FLOW_INPUTS},
    "sweep_cold": sweep_workload,
    "serve_mixed": serve_workload,
}


def run_workload(name: str, run: Run, traced: bool,
                 declared: dict) -> Outcome:
    """Run one workload; a traced run adds an untraced pass first, whose
    operation time is the base of ``trace.overhead``."""
    try:
        out = WORKLOADS[name](run, False)
        if traced:
            base, out = out, WORKLOADS[name](run, True)
    except ChildFailed as exc:
        out = Outcome(attempted=1)
        out.fail(str(exc))
        return out
    if not traced:
        names = {m["name"] for m in declared["end_to_end"]}
        if out.metrics and set(out.metrics) != names:
            out.fail(f"metrics {sorted(set(out.metrics) ^ names)} do not "
                     f"match BENCHMARK.json")
        return out
    out.attempted += base.attempted
    out.failed += base.failed
    out.failures += base.failures
    if "op_p50_ms" in out.metrics and "op_p50_ms" in base.metrics:
        out.layers["trace.overhead"] = (out.metrics["op_p50_ms"][0]
                                        / base.metrics["op_p50_ms"][0] - 1.0)
    samples = out.metrics.get("op_p50_ms", (0.0, 0))[1]
    unknown = set(out.layers) - {m["name"] for m in declared["per_layer"]}
    if unknown:
        out.fail(f"undeclared per-layer metric(s) {sorted(unknown)}")
    # layers a workload does not exercise did no work: they read 0
    out.metrics = {m["name"]: (out.layers.get(m["name"], 0.0), samples)
                   for m in declared["per_layer"]}
    return out


def _commit() -> str:
    # the ceiling keeps git from taking a repository above ROOT for ours
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv: list[str] | None = None) -> int:
    declared = load_declared()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="time budget per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path, help="result file to write")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2

    traced = args.traced or args.trace == 1
    kind = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    stamp = datetime.now(timezone.utc)
    work = ROOT / ".bench_run" / f"{stamp:%Y%m%dT%H%M%S}-{os.getpid()}"
    selected = args.workload or names
    results = {}
    try:
        for name in selected:
            run = Run(args.seed, args.seconds, work / name)
            start = time.perf_counter()
            out = run_workload(name, run, traced, declared)
            print(f"{name}: ran in {time.perf_counter() - start:.1f}s",
                  file=sys.stderr)
            for metric, (value, n) in out.metrics.items():
                print(f"{name} {metric} {value:.6g} {units.get(metric, '?')} "
                      f"n={n}")
            for why in out.failures:
                print(f"{name} FAILED {why}", file=sys.stderr)
            results[name] = out
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "meta": {
            "commit": _commit(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "seed": args.seed,
            "seconds": args.seconds, "traced": traced,
            "workloads": selected, "utc": stamp.isoformat(),
        },
        "workloads": {name: {
            "correct": out.correct, "attempted": out.attempted,
            "failed": out.failed, "failures": out.failures,
            "metrics": {m: {"value": v, "unit": units.get(m, "?"), "n": n}
                        for m, (v, n) in out.metrics.items()},
        } for name, out in results.items()},
    }
    path = args.out or (ROOT / ".bench_run" / "results" / (
        f"{stamp:%Y%m%dT%H%M%S}-s{args.seed}{'-traced' if traced else ''}-"
        f"{'+'.join(selected)}.json"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"result written to {path}", file=sys.stderr)

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(o.correct for o in results.values()),
        "attempted": sum(o.attempted for o in results.values()),
        "failed": sum(o.failed for o in results.values()),
        "metrics": {
            (f"{name}/{m}" if prefix else m): {"value": v,
                                               "unit": units.get(m, "?")}
            for name, out in results.items()
            for m, (v, _n) in out.metrics.items()
        },
    }))
    return 0 if all(o.correct for o in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

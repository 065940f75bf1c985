"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``route``   — route one clock net (from a net file) with a chosen
  algorithm; print SLLT metrics and Elmore timing; optionally write the
  tree (JSON) and a picture (SVG);
* ``flow``    — run a full-chip flow on a catalog design and print the
  Table 6 style row; degradations are reported (``--strict`` makes them
  fatal);
* ``check``   — run the flow-guard constraint checker (skew / cap /
  fanout / span DRC) on a saved tree file;
* ``trace``   — summarize a Chrome trace file written by ``--trace``;
* ``designs`` — list the benchmark catalog;
* ``gallery`` — render every topology algorithm on one net into SVGs
  (the Fig. 1 gallery);
* ``sweep``   — run a declarative scenario sweep (JSON spec) through
  the content-addressed result store, optionally in parallel; cached
  points are never recomputed;
* ``pareto``  — extract the Pareto front (with dominance provenance)
  from a sweep store or JSONL, as a table, ``--json``, or an SVG
  scatter;
* ``fit``     — fit the cross-design metric predictor on a store (or
  JSONL) and write the content-addressed model artifact;
* ``predict`` — answer "what would this config do?" from a fitted
  model in microseconds, optionally few-shot-calibrated, without
  running the flow;
* ``suggest`` — successive-halving over a sweep spec's grid ranked by
  predicted Pareto contribution; emits the next round's spec JSON;
* ``store``   — store maintenance: ``stats`` (records per design /
  schema / last use) and ``gc`` (dry-run by default).

``designs`` and ``check`` take ``--json`` for machine-readable output.

``flow`` accepts ``--trace out.json`` to record the run as
hierarchical spans plus the metrics registry snapshot in Chrome
trace-event JSON (open in Perfetto / ``chrome://tracing``, or summarize
with ``repro trace``); ``-v`` / ``--log-level`` turn on the per-package
structured logs (see docs/OBSERVABILITY.md).

``main`` catches expected failures (missing files, malformed input,
unknown names) and exits with code 2 and a one-line message instead of a
traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines import commercial_like_cts, openroad_like_cts
from repro.core import cbs, evaluate_tree
from repro.core.cbs import DEFAULT_EPS
from repro.cts import Constraints, HierarchicalCTS, TABLE5
from repro.cts.evaluation import audit_solution, evaluate_result
from repro.designs import design_names, load_design
from repro.dme import ElmoreDelay, bst_dme, zst_dme
from repro.htree import fishbone, ghtree, htree
from repro.io import format_diagnostics, format_table, read_net
from repro.io.treefile import read_tree, write_tree
from repro.obs import METRICS, TRACER, capture, write_trace
from repro.obs.logcfg import configure_logging, verbosity_to_level
from repro.rsmt import rsmt
from repro.salt import salt
from repro.tech import Technology, default_library
from repro.timing import ElmoreAnalyzer

ALGORITHMS = ("cbs", "bst", "zst", "salt", "rsmt", "htree", "ghtree",
              "fishbone")
FLOWS = ("ours", "commercial", "openroad")


def _route_tree(net, algorithm, skew_bound, eps, model, tech):
    if algorithm == "cbs":
        return cbs(net, skew_bound, eps=eps, model=model)
    if algorithm == "bst":
        return bst_dme(net, skew_bound, model=model)
    if algorithm == "zst":
        return zst_dme(net, model=model)
    if algorithm == "salt":
        return salt(net, eps=eps)
    if algorithm == "rsmt":
        return rsmt(net)
    if algorithm == "htree":
        return htree(net)
    if algorithm == "ghtree":
        return ghtree(net)
    if algorithm == "fishbone":
        return fishbone(net)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def cmd_route(args) -> int:
    tech = Technology()
    net = read_net(args.netfile)
    model = ElmoreDelay(tech) if args.model == "elmore" else None
    tree = _route_tree(net, args.algorithm, args.skew_bound, args.eps,
                       model, tech)
    m = evaluate_tree(tree, net)
    report = ElmoreAnalyzer(tech).analyze(tree)
    print(format_table(
        ["metric", "value"],
        [
            ["algorithm", args.algorithm],
            ["sinks", net.fanout],
            ["wirelength (um)", m.total_wl],
            ["max PL (um)", m.max_pl],
            ["PL skew (um)", m.pl_skew],
            ["alpha (shallowness)", m.alpha],
            ["beta (lightness)", m.beta],
            ["gamma (skewness)", m.gamma],
            ["Elmore latency (ps)", report.latency],
            ["Elmore skew (ps)", report.skew],
            ["clock cap (fF)", report.total_cap],
        ],
        title=f"net {net.name!r}",
    ))
    if args.save_tree:
        write_tree(tree, args.save_tree)
        print(f"tree written to {args.save_tree}")
    if args.svg:
        from repro.viz import save_svg

        save_svg(tree, args.svg, title=f"{net.name}: {args.algorithm}")
        print(f"picture written to {args.svg}")
    if args.spef:
        from repro.io.spef import write_spef

        write_spef(tree, tech, args.spef, design=net.name)
        print(f"parasitics written to {args.spef}")
    return 0


def _run_flow(args, tech, design):
    if args.flow == "ours":
        from repro.cts import FlowConfig

        config = FlowConfig(
            jobs=getattr(args, "jobs", 0),
            task_timeout=getattr(args, "task_timeout", 0.0),
            task_retries=getattr(args, "task_retries", 1),
            pool_rebuilds=getattr(args, "pool_rebuilds", 2),
        )
        engine = HierarchicalCTS(tech=tech, config=config,
                                 fabric_chaos=_fabric_chaos(args))
        return engine.run(design.sinks, design.source)
    if args.flow == "commercial":
        return commercial_like_cts(design.sinks, design.source, tech)
    return openroad_like_cts(design.sinks, design.source, tech)


def cmd_flow(args) -> int:
    tech = Technology()
    design = load_design(args.design, scale=args.scale)
    print(f"{args.design}: {len(design.sinks)} FFs, "
          f"die {design.die_side:.0f} um")
    if args.trace:
        METRICS.reset()
        with capture(TRACER):
            result = _run_flow(args, tech, design)
        path = write_trace(args.trace)
        print(f"trace written to {path}")
    else:
        result = _run_flow(args, tech, design)
    rep = evaluate_result(result, tech)
    print(format_table(
        ["latency(ps)", "skew(ps)", "#buf", "area(um2)", "cap(fF)",
         "WL(um)", "runtime(s)"],
        [rep.row()],
        title=f"flow {args.flow!r}",
    ))
    from repro.cts.stats import tree_statistics

    stats = tree_statistics(result.tree, tech)
    print(
        f"structure: depth {stats.max_depth}, "
        f"{stats.max_buffer_levels} buffer levels, "
        f"max stage load {stats.max_stage_load:.1f} fF, "
        f"detour wire {stats.detour_fraction * 100:.1f}%"
    )
    if result.health is not None and not result.health.healthy:
        print(result.health.summary())
    diag = result.diagnostics
    if diag is not None:
        print(format_diagnostics(diag))
        if args.strict and diag.degraded:
            print("strict mode: flow degraded, failing", file=sys.stderr)
            return 1
    return 0


def cmd_check(args) -> int:
    tech = Technology()
    constraints = Constraints(
        skew_bound=args.skew_bound,
        max_fanout=args.max_fanout,
        max_cap=args.max_cap,
        max_length=args.max_length,
    )
    tree = read_tree(args.treefile, library=default_library())
    violations = audit_solution(tree, tech, constraints)
    if args.json:
        import json

        print(json.dumps({
            "treefile": args.treefile,
            "clean": not violations,
            "sinks": len(tree.sinks()),
            "buffers": len(tree.buffer_node_ids()),
            "constraints": {
                "skew_bound_ps": constraints.skew_bound,
                "max_cap_ff": constraints.max_cap,
                "max_fanout": constraints.max_fanout,
                "max_length_um": constraints.max_length,
            },
            "violations": [
                {"kind": v.kind, "where": v.where,
                 "value": v.value, "limit": v.limit}
                for v in violations
            ],
        }, indent=2))
        return 0 if not violations else 1
    if not violations:
        print(
            f"{args.treefile}: clean — {len(tree.sinks())} sinks, "
            f"{len(tree.buffer_node_ids())} buffers within "
            f"skew<={constraints.skew_bound}ps "
            f"cap<={constraints.max_cap}fF "
            f"fanout<={constraints.max_fanout} "
            f"span<={constraints.max_length}um"
        )
        return 0
    print(format_table(
        ["kind", "where", "value", "limit"],
        [[v.kind, v.where, v.value, v.limit] for v in violations],
        title=f"{args.treefile}: {len(violations)} violation(s)",
    ))
    return 1


def cmd_trace(args) -> int:
    from repro.obs import load_trace, summarize_trace

    payload = load_trace(args.tracefile)
    print(summarize_trace(payload, max_depth=args.depth))
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"value must be positive, got {value}"
        )
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"value must be >= 0, got {value}"
        )
    return value


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"value must be >= 0, got {value}"
        )
    return value


def _rate(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"rate must be in [0, 1], got {value}"
        )
    return value


def _fabric_chaos(args):
    """The run's FabricChaos (or None) from --fabric-fault-* flags."""
    rate = getattr(args, "fabric_fault_rate", 0.0)
    if rate <= 0:
        return None
    from repro.resilience import FabricChaos

    return FabricChaos(rate, seed=args.fabric_fault_seed)


def _add_fabric_args(parser) -> None:
    """Resilience/chaos flags shared by ``flow`` and ``sweep``."""
    parser.add_argument(
        "--task-timeout", type=_nonneg_float, default=0.0,
        metavar="SECONDS",
        help="per-task wall-clock budget; on expiry the workers are "
             "killed and the task runs in-process (0 = no deadline, "
             "the default)",
    )
    parser.add_argument(
        "--task-retries", type=_nonneg_int, default=1, metavar="N",
        help="re-submissions per task for transient worker failures "
             "before running it in-process (default: 1)",
    )
    parser.add_argument(
        "--pool-rebuilds", type=_nonneg_int, default=2, metavar="N",
        help="times a broken worker pool is rebuilt per run before "
             "falling back to in-process execution (default: 2)",
    )
    parser.add_argument(
        "--fabric-fault-rate", type=_rate, default=0.0, metavar="P",
        help="seeded chaos injection probability per task submission "
             "(worker kills, delays, corrupted payloads; results stay "
             "byte-identical; default: 0)",
    )
    parser.add_argument("--fabric-fault-seed", type=int, default=0)


def cmd_designs(args) -> int:
    from repro.designs import TABLE4_SPECS

    if args.json:
        import json

        print(json.dumps([
            {"design": s.name, "num_insts": s.num_insts,
             "num_ffs": s.num_ffs, "utilization": s.utilization,
             "die_um": round(s.die_side(), 1)}
            for s in TABLE4_SPECS.values()
        ], indent=2))
        return 0
    rows = [
        [s.name, s.num_insts, s.num_ffs, s.utilization,
         round(s.die_side(), 1)]
        for s in TABLE4_SPECS.values()
    ]
    print(format_table(
        ["design", "#insts", "#FFs", "util", "die(um)"],
        rows,
        title="benchmark catalog (paper Table 4)",
    ))
    return 0


def cmd_gallery(args) -> int:
    from pathlib import Path

    from repro.viz import save_svg

    net = read_net(args.netfile)
    tech = Technology()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for algorithm in ALGORITHMS:
        tree = _route_tree(net, algorithm, args.skew_bound, args.eps,
                           None, tech)
        path = out / f"{net.name}_{algorithm}.svg"
        save_svg(tree, path, title=f"{net.name}: {algorithm}")
        print(f"wrote {path}")
    return 0


def _knob_summary(record: dict) -> str:
    """Compact knob string for sweep/pareto tables."""
    config = record.get("config") or {}
    flow = config.get("flow") or {}
    parts = [f"eps={flow.get('eps')}", f"seed={flow.get('seed')}",
             f"skew<={config.get('skew_bound')}",
             f"lib={config.get('library')}"]
    return " ".join(parts)


def cmd_sweep(args) -> int:
    import json

    from repro.sweep import SweepStore, load_spec, run_sweep

    spec = load_spec(args.specfile)
    store = SweepStore(args.store)
    report = run_sweep(
        spec, store, jobs=args.jobs,
        fault_rate=args.fault_rate, fault_seed=args.fault_seed,
        task_timeout=args.task_timeout,
        task_retries=args.task_retries,
        pool_rebuilds=args.pool_rebuilds,
        fabric_fault_rate=args.fabric_fault_rate,
        fabric_fault_seed=args.fabric_fault_seed,
    )
    if args.json:
        print(json.dumps({
            "spec": spec.name,
            "digest": spec.digest(),
            "points": len(report.points),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "failed": report.failed,
            "runtime_s": report.runtime_s,
            "jsonl": str(report.jsonl_path),
            "health": report.health.to_dict(),
            "records": report.records,
        }, indent=2))
    else:
        rows = []
        for record in report.records:
            quality = record.get("quality") or {}
            index = record["index"]
            rows.append([
                index,
                record.get("design"),
                record.get("scale"),
                _knob_summary(record),
                record.get("status"),
                round(quality.get("skew_ps", 0.0), 1),
                round(quality.get("latency_ps", 0.0), 1),
                round(quality.get("wirelength_um", 0.0), 0),
                quality.get("num_buffers", 0),
                "hit" if index in report.cached_indices else "run",
            ])
        print(format_table(
            ["#", "design", "scale", "knobs", "status", "skew(ps)",
             "lat(ps)", "WL(um)", "#buf", "cache"],
            rows,
            title=f"sweep {spec.name!r}",
        ))
        print(report.summary())
        print(f"records written to {report.jsonl_path}")
    if args.strict and report.failed:
        print(f"strict mode: {report.failed} point(s) failed",
              file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.resilience import FabricPolicy
    from repro.serve import CTSServer, CTSService
    from repro.sweep import SweepStore

    policy = FabricPolicy(
        task_timeout=args.task_timeout,
        task_retries=args.task_retries,
        pool_rebuilds=args.pool_rebuilds,
    )
    predictor = None
    if args.model:
        from repro.predict import load_model

        predictor = load_model(args.model)
    service = CTSService(
        SweepStore(args.store),
        jobs=args.jobs,
        queue_depth=args.queue_depth,
        default_deadline_s=args.default_deadline,
        policy=policy,
        chaos=_fabric_chaos(args),
        predictor=predictor,
    )
    server = CTSServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        try:
            # SIGTERM (plain `kill`, service managers) stops like SIGINT,
            # through aclose(), which reaps the pool workers; dying
            # without it would orphan them, idle but alive
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel)
        except (NotImplementedError, RuntimeError):
            pass    # no loop signals here: Windows, or not the main thread
        print(f"repro serve: listening on "
              f"http://{server.host}:{server.port} "
              f"(store: {args.store}, jobs: {service.jobs}, "
              f"queue: {args.queue_depth}, model: "
              f"{predictor.key()[:12] if predictor else 'none'})",
              flush=True)   # callers on a pipe read the port from it
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("repro serve: shutting down")
    return 0


def _validate_objectives(objectives, records, path) -> None:
    """Typed errors for bad ``--objectives`` (exit 2, not a KeyError).

    A requested objective must be a known metric name *and* actually
    present in these records' quality columns — records written by an
    older schema simply do not carry newer metrics, and the error
    should say so instead of surfacing a lookup failure downstream.
    """
    from repro.sweep import OBJECTIVE_FIELDS

    columns: set[str] = set()
    for record in records:
        if record.get("status") == "ok":
            columns.update((record.get("quality") or {}).keys())
    for objective in objectives:
        if objective not in OBJECTIVE_FIELDS:
            raise ValueError(
                f"unknown objective {objective!r}; choices: "
                f"{list(OBJECTIVE_FIELDS)}"
            )
        if objective not in columns:
            available = [o for o in OBJECTIVE_FIELDS if o in columns]
            raise ValueError(
                f"objective {objective!r} is not a metric column of "
                f"the records in {path} (available: {available})"
            )


def cmd_pareto(args) -> int:
    import json

    from repro.sweep import DEFAULT_OBJECTIVES, load_records, pareto_front

    objectives = tuple(args.objectives) if args.objectives \
        else DEFAULT_OBJECTIVES
    records = load_records(args.path)
    _validate_objectives(objectives, records, args.path)
    result = pareto_front(records, objectives=objectives)
    if not result.entries:
        raise ValueError(
            f"{args.path}: no scoreable records "
            f"({result.skipped} skipped)"
        )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        rows = []
        for entry in sorted(
            result.entries,
            key=lambda e: (not e.on_front,
                           tuple(e.objectives[o] for o in objectives)),
        ):
            rows.append([
                "front" if entry.on_front else "",
                entry.key[:12],
                entry.record.get("design"),
                _knob_summary(entry.record),
                *[round(entry.objectives[o], 1) for o in objectives],
                entry.dominated_by[:12] if entry.dominated_by else "-",
            ])
        print(format_table(
            ["", "key", "design", "knobs", *objectives, "dominated by"],
            rows,
            title=f"Pareto over {', '.join(objectives)}",
        ))
        print(f"front: {len(result.front)} of {len(result.entries)} "
              f"point(s) ({result.skipped} skipped)")
    if args.svg:
        from repro.viz import save_scatter_svg

        x_obj = args.x or objectives[0]
        y_obj = args.y or (objectives[1] if len(objectives) > 1
                           else objectives[0])
        for axis in (x_obj, y_obj):
            if axis not in objectives:
                raise ValueError(
                    f"axis {axis!r} is not a sweep objective; "
                    f"choices: {list(objectives)}"
                )
        points = [
            (
                entry.objectives[x_obj],
                entry.objectives[y_obj],
                entry.on_front,
                f"#{entry.record.get('index', '?')} "
                f"{entry.record.get('design', '?')}: " + ", ".join(
                    f"{o}={entry.objectives[o]:g}" for o in objectives
                ),
            )
            for entry in result.entries
        ]
        save_scatter_svg(
            points, args.svg, x_label=x_obj, y_label=y_obj,
            title=f"Pareto: {x_obj} vs {y_obj}",
        )
        print(f"scatter written to {args.svg}")
    return 0


def cmd_fit(args) -> int:
    import json

    from repro.predict import extract_dataset, fit, in_sample_mae
    from repro.sweep import load_records

    records = load_records(args.path)
    dataset = extract_dataset(records, jobs=args.jobs)
    model = fit(dataset, l2=args.l2)
    path = model.save(args.out)
    mae = in_sample_mae(model, dataset)
    if args.json:
        print(json.dumps({
            "artifact": str(path),
            "key": model.key(),
            "rows": dataset.rows,
            "skipped": dataset.skipped,
            "designs": list(model.training_designs),
            "feature_digest": model.feature_digest,
            "training_digest": model.training_digest,
            "l2": model.l2,
            "in_sample_mae": mae,
        }, indent=2))
        return 0
    print(format_table(
        ["target", "in-sample MAE"],
        [[t, round(e, 3)] for t, e in mae.items()],
        title=f"fit on {dataset.rows} record(s) from "
              f"{len(model.training_designs)} design(s)",
    ))
    if dataset.skipped:
        print(f"skipped {dataset.skipped} unscoreable record(s)")
    print(f"model {model.key()[:16]} written to {path}")
    return 0


def _knob_pair(text: str) -> tuple[str, str]:
    key, sep, raw = text.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {text!r}"
        )
    return key.strip(), raw.strip()


def cmd_predict(args) -> int:
    import json

    from repro.predict import (
        calibrated_predict,
        few_shot_calibrate,
        load_model,
    )
    from repro.sweep import load_records
    from repro.sweep.spec import resolve_point, sweepable_keys

    model = load_model(args.model)
    combo = {}
    for key, raw in args.set or []:
        if key not in sweepable_keys():
            raise ValueError(
                f"unknown knob {key!r}; choices: {list(sweepable_keys())}"
            )
        try:
            combo[key] = json.loads(raw)
        except json.JSONDecodeError:
            combo[key] = raw          # bare strings, e.g. library=lean
    point = resolve_point(0, args.design, args.scale, combo)
    calibration = None
    if args.calibrate:
        records = load_records(args.calibrate)
        calibration = few_shot_calibrate(
            model, records, args.design, float(args.scale), k=args.k)
    predicted = calibrated_predict(
        model, calibration, args.design, float(args.scale),
        point.canonical_config())
    if args.json:
        print(json.dumps({
            "design": args.design,
            "scale": args.scale,
            "config": point.canonical_config(),
            "calibrated": calibration is not None
            and calibration.points > 0,
            "calibration_points": calibration.points
            if calibration else 0,
            "predicted": predicted,
        }, indent=2))
        return 0
    label = "calibrated" if calibration and calibration.points \
        else "uncalibrated"
    print(format_table(
        ["metric", "predicted"],
        [[t, round(v, 2)] for t, v in predicted.items()],
        title=f"{args.design}@{args.scale:g} ({label} model "
              f"{model.key()[:12]})",
    ))
    return 0


def cmd_suggest(args) -> int:
    import json
    from pathlib import Path

    from repro.predict import (
        few_shot_calibrate,
        load_model,
        suggest_next_round,
    )
    from repro.sweep import SweepStore, load_spec
    from repro.sweep.store import canonical_json

    model = load_model(args.model)
    spec = load_spec(args.specfile)
    stored = frozenset()
    store = None
    if args.store:
        if not Path(args.store).is_dir():
            raise ValueError(f"{args.store}: not a sweep store root")
        store = SweepStore(args.store)
        stored = frozenset(store.keys())
    calibration = None
    if args.calibrate:
        if store is None:
            raise ValueError("--calibrate needs --store (the k cheap "
                             "points come from stored records)")
        design = args.design or spec.designs[0]
        scale = args.scale if args.scale is not None \
            else float(spec.scales[0])
        calibration = few_shot_calibrate(
            model, store.records(), design, scale, k=args.calibrate)
    report = suggest_next_round(
        model, spec, stored, design=args.design, scale=args.scale,
        rounds=args.rounds, calibration=calibration)
    if args.out and report.next_spec is not None:
        out = Path(args.out)
        out.write_text(canonical_json(report.next_spec.to_dict()) + "\n")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    elif report.next_spec is None:
        print(f"nothing to suggest: every grid point of {spec.name!r} "
              f"for {report.design}@{report.scale:g} is already in "
              f"the store")
    else:
        rows = [
            [c.point.index,
             " ".join(f"{k}={v}" for k, v in sorted(c.point.knobs()
                                                    .items())),
             *[round(c.predicted[o], 1) for o in report.objectives]]
            for c in report.survivors
        ]
        print(format_table(
            ["#", "knobs", *report.objectives],
            rows,
            title=f"suggested next round for {report.design}"
                  f"@{report.scale:g} ({report.candidates} candidates, "
                  f"{report.measured} already measured)",
        ))
    if args.out and report.next_spec is not None:
        print(f"next-round spec written to {args.out}",
              file=sys.stderr if args.json else sys.stdout)
    return 0


def cmd_store_stats(args) -> int:
    import json
    from pathlib import Path

    from repro.sweep import SweepStore

    if not Path(args.root).is_dir():
        raise ValueError(f"{args.root}: not a sweep store root")
    stats = SweepStore(args.root).stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    rows = [
        [design, entry["records"], entry["last_used"]]
        for design, entry in stats["designs"].items()
    ]
    print(format_table(
        ["design", "records", "last used"],
        rows,
        title=f"store {args.root}",
    ))
    schemas = ", ".join(f"v{v}: {n}" for v, n in stats["schemas"].items())
    print(f"{stats['records']} record(s), {stats['corrupt']} corrupt, "
          f"{stats['bytes']} bytes; schemas: {schemas or 'none'}; "
          f"{len(stats['sweeps'])} sweep file(s)")
    return 0


def cmd_store_gc(args) -> int:
    import json
    from pathlib import Path

    from repro.sweep import SweepStore

    if not Path(args.root).is_dir():
        raise ValueError(f"{args.root}: not a sweep store root")
    report = SweepStore(args.root).gc(
        schema_version=args.schema_version, dry_run=not args.apply)
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    verb = "removed" if args.apply else "would remove"
    print(f"store gc ({'apply' if args.apply else 'dry run'}): "
          f"{verb} {report['candidates']} file(s) — "
          f"{len(report['stale_schema'])} stale-schema record(s), "
          f"{len(report['corrupt'])} corrupt, "
          f"{len(report['orphans'])} orphaned temp file(s)")
    if not args.apply and report["candidates"]:
        print("re-run with --apply to delete")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SLLT clock tree synthesis (DAC'24 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="increase log verbosity (-v: info, -vv: debug)",
    )
    parser.add_argument(
        "--log-level",
        help="explicit log level name (overrides -v): DEBUG, INFO, ...",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_route = sub.add_parser("route", help="route one clock net")
    p_route.add_argument("netfile")
    p_route.add_argument("--algorithm", choices=ALGORITHMS, default="cbs")
    p_route.add_argument("--skew-bound", type=float, default=20.0,
                         help="um (linear model) or ps (--model elmore)")
    p_route.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_route.add_argument("--model", choices=("linear", "elmore"),
                         default="linear")
    p_route.add_argument("--save-tree", help="write the tree as JSON")
    p_route.add_argument("--svg", help="write a picture")
    p_route.add_argument("--spef", help="write SPEF parasitics")
    p_route.set_defaults(func=cmd_route)

    p_flow = sub.add_parser("flow", help="full-chip CTS on a catalog design")
    p_flow.add_argument("--design", choices=design_names(),
                        default="s38584")
    p_flow.add_argument("--scale", type=float, default=1.0)
    p_flow.add_argument("--flow", choices=FLOWS, default="ours")
    p_flow.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any degradation or residual violation "
             "(default: degrade and report)",
    )
    p_flow.add_argument(
        "--trace", metavar="PATH",
        help="record the run as Chrome trace-event JSON (Perfetto)",
    )
    p_flow.add_argument(
        "--jobs", type=int, default=0,
        help="worker processes for per-cluster routing: 0 = auto "
             "(default: one per usable CPU, pooling only the levels "
             "where it pays), 1 = serial, N > 1 = pool of N on every "
             "level ('ours' flow only)",
    )
    _add_fabric_args(p_flow)
    p_flow.set_defaults(func=cmd_flow)

    p_check = sub.add_parser(
        "check", help="constraint-check (DRC) a saved tree file"
    )
    p_check.add_argument("treefile")
    p_check.add_argument("--skew-bound", type=float,
                         default=TABLE5.skew_bound, help="ps")
    p_check.add_argument("--max-fanout", type=int,
                         default=TABLE5.max_fanout)
    p_check.add_argument("--max-cap", type=float,
                         default=TABLE5.max_cap, help="fF")
    p_check.add_argument("--max-length", type=float,
                         default=TABLE5.max_length, help="um")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_check.set_defaults(func=cmd_check)

    p_trace = sub.add_parser(
        "trace", help="summarize a trace file written by --trace"
    )
    p_trace.add_argument("tracefile")
    p_trace.add_argument(
        "--depth", type=int, default=6,
        help="maximum span-tree depth to print (default: 6)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_designs = sub.add_parser("designs", help="list the benchmark catalog")
    p_designs.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_designs.set_defaults(func=cmd_designs)

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario sweep through the result store"
    )
    p_sweep.add_argument("specfile", help="sweep spec (JSON)")
    p_sweep.add_argument(
        "--store", default="sweep-store",
        help="content-addressed store root (default: sweep-store)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for point fan-out: 1 = serial "
             "(default), N > 1 = pool of N, 0 = one per CPU",
    )
    p_sweep.add_argument(
        "--fault-rate", type=_rate, default=0.0,
        help="deterministic per-point fault injection probability "
             "(robustness testing; default: 0)",
    )
    p_sweep.add_argument("--fault-seed", type=int, default=0)
    _add_fabric_args(p_sweep)
    p_sweep.add_argument(
        "--strict", action="store_true",
        help="exit non-zero if any point failed (default: report only)",
    )
    p_sweep.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_sweep.set_defaults(func=cmd_sweep)

    p_serve = sub.add_parser(
        "serve", help="serve CTS requests over the result store (HTTP)"
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=_nonneg_int, default=8765,
        help="TCP port; 0 picks an ephemeral port (default: 8765)",
    )
    p_serve.add_argument(
        "--store", default="sweep-store",
        help="content-addressed store root (default: sweep-store)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=0,
        help="dispatcher slots: 0 = auto (default): one per usable "
             "CPU, pooled as below when that is two or more; 1 = "
             "in-process execution with live span streaming; N > 1 = "
             "N one-worker pools, so misses run in worker processes",
    )
    p_serve.add_argument(
        "--queue-depth", type=_positive_int, default=64,
        help="max queued requests before admission rejects with 429 "
             "(default: 64)",
    )
    p_serve.add_argument(
        "--default-deadline", type=_nonneg_float, default=0.0,
        metavar="SECONDS",
        help="deadline for requests that set none (0 = unbounded, "
             "the default)",
    )
    p_serve.add_argument(
        "--model", metavar="PATH",
        help="model artifact (from 'repro fit'): enables /v1/predict "
             "and the 'predicted' hint on /v1/cts admissions",
    )
    _add_fabric_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_pareto = sub.add_parser(
        "pareto", help="Pareto front of a sweep store or JSONL"
    )
    p_pareto.add_argument(
        "path", help="store root directory or one sweep's JSONL file"
    )
    p_pareto.add_argument(
        "--objectives", nargs="+", metavar="OBJ",
        help="objectives to minimise (default: skew latency "
             "wirelength buffers)",
    )
    p_pareto.add_argument("--svg", help="write an SVG scatter")
    p_pareto.add_argument("--x", help="scatter x objective "
                                      "(default: first objective)")
    p_pareto.add_argument("--y", help="scatter y objective "
                                      "(default: second objective)")
    p_pareto.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_pareto.set_defaults(func=cmd_pareto)

    p_fit = sub.add_parser(
        "fit", help="fit the cross-design metric predictor on a store"
    )
    p_fit.add_argument(
        "path", help="store root directory or one sweep's JSONL file"
    )
    p_fit.add_argument(
        "--out", default="models",
        help="directory for the content-addressed model artifact "
             "(default: models)",
    )
    p_fit.add_argument(
        "--l2", type=_nonneg_float, default=1e-2,
        help="ridge strength on the standardized system "
             "(default: 0.01)",
    )
    p_fit.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for design-feature extraction: 1 = "
             "serial (default), N > 1 = pool of N, 0 = one per CPU",
    )
    p_fit.add_argument("--json", action="store_true",
                       help="machine-readable output")
    p_fit.set_defaults(func=cmd_fit)

    p_predict = sub.add_parser(
        "predict",
        help="predict metrics for a config from a fitted model",
    )
    p_predict.add_argument("--model", required=True,
                           help="model artifact (from 'repro fit')")
    p_predict.add_argument("--design", choices=design_names(),
                           default="s38584")
    p_predict.add_argument("--scale", type=float, default=1.0)
    p_predict.add_argument(
        "--set", type=_knob_pair, action="append", metavar="KEY=VALUE",
        help="sweep knob (repeatable), e.g. --set eps=0.1 "
             "--set library=lean",
    )
    p_predict.add_argument(
        "--calibrate", metavar="PATH",
        help="few-shot calibrate from this store/JSONL's records of "
             "the same (design, scale) before predicting",
    )
    p_predict.add_argument(
        "-k", type=_nonneg_int, default=8,
        help="calibration points to use, at most 8 (default: 8)",
    )
    p_predict.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_predict.set_defaults(func=cmd_predict)

    p_suggest = sub.add_parser(
        "suggest",
        help="model-guided next sweep round (successive halving)",
    )
    p_suggest.add_argument("specfile", help="sweep spec (JSON)")
    p_suggest.add_argument("--model", required=True,
                           help="model artifact (from 'repro fit')")
    p_suggest.add_argument(
        "--store", metavar="ROOT",
        help="existing store root: measured points are excluded from "
             "the suggestion",
    )
    p_suggest.add_argument(
        "--design", choices=design_names(),
        help="design to suggest for (default: the spec's first)",
    )
    p_suggest.add_argument(
        "--scale", type=float,
        help="scale to suggest for (default: the spec's first)",
    )
    p_suggest.add_argument(
        "--rounds", type=_nonneg_int, default=3,
        help="successive-halving rounds (default: 3)",
    )
    p_suggest.add_argument(
        "--calibrate", type=_nonneg_int, default=0, metavar="K",
        help="few-shot calibrate on K stored points of the chosen "
             "design before ranking (needs --store; default: off)",
    )
    p_suggest.add_argument(
        "--out", metavar="PATH",
        help="write the next-round spec JSON here (canonical bytes)",
    )
    p_suggest.add_argument("--json", action="store_true",
                           help="machine-readable output")
    p_suggest.set_defaults(func=cmd_suggest)

    p_store = sub.add_parser(
        "store", help="sweep store maintenance (stats, gc)"
    )
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_stats = store_sub.add_parser(
        "stats", help="records per design / schema version / last use"
    )
    p_stats.add_argument("root", help="store root directory")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable output")
    p_stats.set_defaults(func=cmd_store_stats)
    p_gc = store_sub.add_parser(
        "gc", help="collect stale-schema / corrupt / orphaned files"
    )
    p_gc.add_argument("root", help="store root directory")
    p_gc.add_argument(
        "--schema-version", type=int,
        help="collect only records of this (non-current) schema "
             "version (default: every non-current version)",
    )
    p_gc.add_argument(
        "--apply", action="store_true",
        help="actually delete (default: dry run, report only)",
    )
    p_gc.add_argument("--json", action="store_true",
                      help="machine-readable output")
    p_gc.set_defaults(func=cmd_store_gc)

    p_gallery = sub.add_parser("gallery",
                               help="render all topologies as SVGs")
    p_gallery.add_argument("netfile")
    p_gallery.add_argument("--out", default="gallery")
    p_gallery.add_argument("--skew-bound", type=float, default=20.0)
    p_gallery.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_gallery.set_defaults(func=cmd_gallery)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging(
            args.log_level if args.log_level
            else verbosity_to_level(args.verbose)
        )
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args \
            else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

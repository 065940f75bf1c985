"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.geometry import Point
from repro.io import write_net
from repro.netlist import ClockNet, Sink


@pytest.fixture
def netfile(tmp_path):
    net = ClockNet("demo", Point(0, 0), [
        Sink("a", Point(10, 4)), Sink("b", Point(3, 12)),
        Sink("c", Point(15, 15)), Sink("d", Point(7, 2)),
    ])
    path = tmp_path / "demo.net"
    write_net(net, path)
    return path


def test_route_default(netfile, capsys):
    assert main(["route", str(netfile)]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "gamma" in out
    assert "demo" in out


@pytest.mark.parametrize("algorithm", ["zst", "rsmt", "salt", "htree"])
def test_route_algorithms(netfile, algorithm, capsys):
    assert main(["route", str(netfile), "--algorithm", algorithm]) == 0
    assert algorithm in capsys.readouterr().out


def test_route_elmore_model(netfile, capsys):
    assert main([
        "route", str(netfile), "--algorithm", "bst",
        "--model", "elmore", "--skew-bound", "5",
    ]) == 0
    assert "Elmore" in capsys.readouterr().out


def test_route_save_outputs(netfile, tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    svg_path = tmp_path / "t.svg"
    assert main([
        "route", str(netfile),
        "--save-tree", str(tree_path), "--svg", str(svg_path),
    ]) == 0
    data = json.loads(tree_path.read_text())
    assert data["format"] == 1
    assert svg_path.read_text().startswith("<svg")


def test_serve_rejects_bad_queue_depth(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--queue-depth", "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error" in err and "positive" in err


@pytest.mark.parametrize("argv,needle", [
    (["flow", "--task-timeout", "-1"], ">= 0"),
    (["flow", "--task-retries", "-1"], ">= 0"),
    (["flow", "--pool-rebuilds", "-2"], ">= 0"),
    (["flow", "--fabric-fault-rate", "1.5"], "in [0, 1]"),
    (["flow", "--fabric-fault-rate", "nope"], "invalid float"),
    (["sweep", "spec.json", "--task-timeout", "-0.5"], ">= 0"),
    (["sweep", "spec.json", "--fabric-fault-rate", "-0.1"], "in [0, 1]"),
])
def test_fabric_flags_reject_bad_values(capsys, argv, needle):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error" in err and needle in err


def test_chaotic_flow_reports_health(capsys):
    # seeded chaos on a tiny flow: exit 0 and a fabric-health line
    assert main([
        "flow", "--design", "s38584", "--scale", "0.05", "--jobs", "2",
        "--fabric-fault-rate", "0.5", "--fabric-fault-seed", "7",
        "--pool-rebuilds", "4",
    ]) == 0
    out = capsys.readouterr().out
    assert "fabric incidents" in out


def test_flow_trace_roundtrip(tmp_path, capsys):
    trace_path = tmp_path / "flow.trace.json"
    assert main(["flow", "--design", "s38584", "--scale", "0.05",
                 "--trace", str(trace_path)]) == 0
    assert "trace written" in capsys.readouterr().out
    payload = json.loads(trace_path.read_text())
    assert payload["traceEvents"]
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "flow" in out and "metrics" in out


def test_trace_bad_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.trace.json"
    path.write_text("{oops")
    assert main(["trace", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_verbose_flag_accepted(capsys):
    assert main(["-v", "flow", "--design", "s38584", "--scale",
                 "0.05"]) == 0


def test_bad_log_level_exits_2(capsys):
    assert main(["--log-level", "NOPE", "designs"]) == 2
    assert "error:" in capsys.readouterr().err


def test_designs_lists_catalog(capsys):
    assert main(["designs"]) == 0
    out = capsys.readouterr().out
    assert "s38584" in out and "ysyx_3" in out


def test_flow_small(capsys):
    assert main(["flow", "--design", "s38584", "--scale", "0.05",
                 "--flow", "openroad"]) == 0
    out = capsys.readouterr().out
    assert "latency" in out


def test_gallery(netfile, tmp_path, capsys):
    out_dir = tmp_path / "gal"
    assert main(["gallery", str(netfile), "--out", str(out_dir)]) == 0
    svgs = list(out_dir.glob("*.svg"))
    assert len(svgs) == 8  # one per algorithm


def test_unknown_command_fails():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_route_spef_output(netfile, tmp_path, capsys):
    spef_path = tmp_path / "out.spef"
    assert main(["route", str(netfile), "--spef", str(spef_path)]) == 0
    assert "*D_NET" in spef_path.read_text()


# ----------------------------------------------------------------------
# Typed failures exit 2 with a one-line message, not a traceback
# ----------------------------------------------------------------------
def test_missing_netfile_exits_2(tmp_path, capsys):
    assert main(["route", str(tmp_path / "absent.net")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "absent.net" in err


def test_malformed_netfile_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text("net n\nsource 0 0\nsink s oops 2 0.5\n")
    assert main(["route", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad.net:3:" in err


def test_unknown_buffer_in_treefile_exits_2(tmp_path, capsys):
    path = tmp_path / "t.tree"
    path.write_text(json.dumps({
        "format": 1,
        "nodes": [
            {"id": 0, "x": 0, "y": 0, "parent": None, "buffer": "BUF_X999"},
        ],
    }))
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# flow diagnostics + --strict
# ----------------------------------------------------------------------
def test_flow_ours_prints_diagnostics(capsys):
    assert main(["flow", "--design", "s38584", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "flow diagnostics" in out or "flow clean" in out


def test_flow_strict_clean_run_passes(capsys):
    assert main(["flow", "--design", "s38584", "--scale", "0.05",
                 "--strict"]) == 0


def test_flow_strict_fails_on_degradation(monkeypatch, capsys):
    import repro.cli as cli_mod
    from repro.cts import FlowConfig, HierarchicalCTS
    from repro.flowguard import FaultInjector
    from repro.core.cbs import cbs as cbs_router

    real_init = HierarchicalCTS.__init__

    def sabotaged_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        injector = FaultInjector(rate=1.0, seed=0, name="router")
        self._config = FlowConfig(
            sa_iterations=10, router=injector.wrap(cbs_router)
        )

    monkeypatch.setattr(cli_mod.HierarchicalCTS, "__init__", sabotaged_init)
    assert main(["flow", "--design", "s38584", "--scale", "0.05",
                 "--strict"]) == 1
    captured = capsys.readouterr()
    assert "strict mode" in captured.err
    assert "retry" in captured.out or "downgrade" in captured.out
    # without --strict the very same degraded flow succeeds
    assert main(["flow", "--design", "s38584", "--scale", "0.05"]) == 0


# ----------------------------------------------------------------------
# check subcommand
# ----------------------------------------------------------------------
def test_check_clean_tree_exits_0(netfile, tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    assert main(["route", str(netfile), "--save-tree", str(tree_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(tree_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_check_violating_tree_exits_1(netfile, tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    assert main(["route", str(netfile), "--save-tree", str(tree_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(tree_path), "--max-length", "0.5",
                 "--max-fanout", "1"]) == 1
    out = capsys.readouterr().out
    assert "violation" in out
    assert "span" in out and "fanout" in out


def test_check_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.tree"
    path.write_text("{oops")
    assert main(["check", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --json output (designs / check)
# ----------------------------------------------------------------------
def test_designs_json(capsys):
    assert main(["designs", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {r["design"] for r in rows}
    assert "s38584" in names and "ysyx_3" in names
    assert all("num_ffs" in r and "die_um" in r for r in rows)


def test_check_json_clean(netfile, tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    assert main(["route", str(netfile), "--save-tree", str(tree_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(tree_path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["clean"] is True
    assert data["violations"] == []
    assert data["sinks"] == 4


def test_check_json_violations(netfile, tmp_path, capsys):
    tree_path = tmp_path / "t.json"
    assert main(["route", str(netfile), "--save-tree", str(tree_path)]) == 0
    capsys.readouterr()
    assert main(["check", str(tree_path), "--json",
                 "--max-fanout", "1"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["clean"] is False
    assert any(v["kind"] == "fanout" for v in data["violations"])


# ----------------------------------------------------------------------
# sweep / pareto subcommands
# ----------------------------------------------------------------------
@pytest.fixture
def specfile(tmp_path):
    path = tmp_path / "unit-sweep.json"
    path.write_text(json.dumps({
        "name": "cli-unit",
        "designs": ["s38584"],
        "scales": [0.02],
        "grid": {"eps": [0.1, 1.0], "library": ["default", "lean"]},
    }))
    return path


def test_sweep_and_pareto_end_to_end(specfile, tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["sweep", str(specfile), "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert "4 points" in out and "4 executed" in out

    # rerun: everything cached
    assert main(["sweep", str(specfile), "--store", str(store),
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cache_hits"] == 4
    assert data["cache_misses"] == 0
    assert len(data["records"]) == 4

    svg_path = tmp_path / "front.svg"
    assert main(["pareto", str(store), "--svg", str(svg_path)]) == 0
    out = capsys.readouterr().out
    assert "front:" in out
    assert svg_path.read_text().startswith("<svg")

    assert main(["pareto", str(store), "--json",
                 "--objectives", "skew_ps", "wirelength_um"]) == 0
    front = json.loads(capsys.readouterr().out)
    assert front["front_size"] >= 1
    assert front["objectives"] == ["skew_ps", "wirelength_um"]


def test_sweep_bad_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"designs": ["nope"]}))
    assert main(["sweep", str(path)]) == 2
    assert "unknown design" in capsys.readouterr().err


def test_sweep_missing_specfile_exits_2(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_strict_fails_on_injected_fault(specfile, tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["sweep", str(specfile), "--store", str(store),
                 "--fault-rate", "1.0", "--strict"]) == 1
    captured = capsys.readouterr()
    assert "strict mode" in captured.err
    assert "4 failed" in captured.out


def test_pareto_empty_store_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["pareto", str(empty)]) == 2
    assert "no sweep records" in capsys.readouterr().err


def test_pareto_bad_axis_exits_2(specfile, tmp_path, capsys):
    store = tmp_path / "store"
    assert main(["sweep", str(specfile), "--store", str(store)]) == 0
    capsys.readouterr()
    assert main(["pareto", str(store), "--svg", str(tmp_path / "o.svg"),
                 "--x", "bogus"]) == 2
    assert "not a sweep objective" in capsys.readouterr().err

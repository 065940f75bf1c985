"""Library logging stays silent until a handler is configured.

Each case runs a flow in a fresh interpreter, so no handler installed
by the test session (pytest's, or an earlier ``configure_logging``)
can hide a record that would reach stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

# a 500-sink flow whose top net keeps one cap violation: the engine
# logs a WARNING summary for it
FLOW = """
import sys
from repro.cts import FlowConfig, HierarchicalCTS
from repro.geometry import Point
from repro.obs.logcfg import configure_logging
from repro.perf import make_uniform_sinks
from repro.tech import Technology

if sys.argv[1] == "configured":
    configure_logging()
sinks, side = make_uniform_sinks(500, 0)
result = HierarchicalCTS(tech=Technology(),
                         config=FlowConfig(sa_iterations=100)).run(
    sinks, Point(side / 2, side / 2))
print(result.diagnostics.violations)
"""


def _run(mode: str) -> subprocess.CompletedProcess:
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", FLOW, mode], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)


@pytest.mark.parametrize("mode", ["plain", "configured"])
def test_flow_warnings_reach_stderr_only_once_configured(mode):
    proc = _run(mode)
    assert int(proc.stdout) > 0, "the flow logged nothing to hide"
    if mode == "plain":
        assert proc.stderr == ""
    else:
        assert "WARNING repro.cts: top net: 1 violation" in proc.stderr

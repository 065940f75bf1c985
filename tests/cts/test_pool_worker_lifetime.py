"""Pool workers obey signals and die with their parent.

Each case starts a real parent process, so the worker inherits exactly
what a ``repro`` command would hand it: under ``repro serve`` that is
asyncio's signal handlers and the event loop's wakeup fd.  Workers are
found and watched through /proc.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from tests.serve.test_server import _children

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="watches the pool workers through /proc")

# a server-like parent: loop signal handlers that only report, and a
# one-worker pool forked from an ``asyncio.to_thread`` thread
ASYNC_PARENT = """
import asyncio, signal
from repro.parallel import WorkPool

def square(x):
    return x * x

async def main():
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, print, f"parent got {sig.name}")
    pool = WorkPool(1)
    assert await asyncio.to_thread(pool.map, square, [3]) == [9]
    print("ready")
    await asyncio.sleep(60)

asyncio.run(main())
"""

# a plain 2-worker pool: the flow's carries its engine as the context,
# ``repro fit``'s none
PLAIN_PARENT = """
import time
from repro.parallel import WorkPool

def square(x):
    return x * x

pool = WorkPool(2{context})
assert pool.map(square, [1, 2]) == [1, 4]
print("ready")
time.sleep(60)
"""


def _start(script: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    if not ready or proc.stdout.readline() != "ready\n":
        proc.kill()
        proc.communicate()
        pytest.fail("parent failed to start its pool")
    return proc


def _state(pid: int) -> str | None:
    """The process state letter of ``pid``; None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rpartition(")")[2].split()[0]


def _alive(pids: list[int]) -> list[int]:
    return [pid for pid in pids if _state(pid) not in (None, "Z")]


def _wait_ended(pids: list[int], within: float) -> list[int]:
    """Pids still running after ``within`` seconds."""
    deadline = time.monotonic() + within
    while _alive(pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return _alive(pids)


def _stop(proc: subprocess.Popen, workers: list[int]) -> str:
    """Kill the parent and any surviving worker; returns its stdout.

    Survivors go first: they hold the parent's stdout open.
    """
    proc.kill()
    for pid in _alive(workers):
        os.kill(pid, signal.SIGKILL)
    out, _ = proc.communicate()
    return out


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                         ids=lambda s: s.name)
def test_worker_under_asyncio_handlers_dies_by_signal(signum):
    proc = _start(ASYNC_PARENT)
    workers = _children(proc.pid)
    try:
        assert len(workers) == 1
        os.kill(workers[0], signum)
        survivors = _wait_ended(workers, within=5.0)
        time.sleep(0.3)     # room for a stray wakeup to reach the parent
    finally:
        out = _stop(proc, workers)
    assert not survivors, f"worker ignored {signum.name}"
    # the signal must not reach the parent's loop through a wakeup fd
    # the worker inherited
    assert "parent got" not in out


def _workers_outlive_a_killed_parent(script: str) -> list[int]:
    """Start ``script``, SIGKILL it, and return its workers still
    running 5 s later."""
    proc = _start(script)
    workers = _children(proc.pid)
    try:
        assert workers
        proc.kill()
        proc.wait()
        survivors = _wait_ended(workers, within=5.0)
    finally:
        _stop(proc, workers)
    return survivors


def test_workers_exit_when_their_parent_is_killed():
    script = PLAIN_PARENT.format(context=", context={'engine': 1}")
    assert not _workers_outlive_a_killed_parent(script), \
        "workers outlived their SIGKILLed parent"


def test_context_free_pool_workers_exit_when_their_parent_is_killed():
    # ``repro fit --jobs N`` builds its pool with no context
    script = PLAIN_PARENT.format(context="")
    assert not _workers_outlive_a_killed_parent(script), \
        "workers outlived their SIGKILLed parent"

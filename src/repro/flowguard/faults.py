"""Deterministic fault injection for flow-degradation testing.

A :class:`FaultInjector` makes any callable fail on a configurable,
seedable fraction of its calls, so the fallback chains and repair loops
of the guarded flow are exercised by ordinary unit tests instead of only
by production incidents.  The sequence of failures is a pure function of
``(rate, seed)``: two injectors built alike fail on exactly the same
calls.

Typical use::

    inj = FaultInjector(rate=0.2, seed=7, name="router")
    cfg = FlowConfig(router=inj.wrap(my_router))
    result = HierarchicalCTS(config=cfg).run(sinks, source)
    assert result.diagnostics.count("fault") == 0  # absorbed, not fatal
    assert inj.fired == result.diagnostics.retries  # every fault recorded
"""

from __future__ import annotations

import functools
import random
from typing import Callable


class FaultInjected(RuntimeError):
    """Raised by wrapped callables on an injected failure."""


class FaultInjector:
    """Seedable Bernoulli fault source shared by any number of wrappers."""

    def __init__(self, rate: float, seed: int = 0, name: str = "fault"):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.seed = seed
        self.name = name
        self.calls = 0
        self.fired = 0
        self._rng = random.Random(seed)

    def trip(self) -> bool:
        """Advance one call; True when this call must fail."""
        self.calls += 1
        if self._rng.random() < self.rate:
            self.fired += 1
            return True
        return False

    def trip_at(self, index: int) -> bool:
        """Positional draw: a pure function of ``(rate, seed, index)``.

        Unlike :meth:`trip`, the outcome does not depend on how many
        draws came before it, so callers that skip already-done work
        (e.g. sweep cache hits) see the same failure pattern as a cold
        run — the fault schedule is keyed to *what* runs, not to the
        order it happens to run in.
        """
        self.calls += 1
        if random.Random(f"{self.seed}:{index}").random() < self.rate:
            self.fired += 1
            return True
        return False

    def check(self, what: str | None = None) -> None:
        """Raise :class:`FaultInjected` when this call trips."""
        if self.trip():
            raise FaultInjected(
                f"injected fault #{self.fired} in {what or self.name} "
                f"(call {self.calls})"
            )

    def wrap(self, fn: Callable, name: str | None = None) -> Callable:
        """Return ``fn`` guarded by this injector's failure schedule."""
        label = name or getattr(fn, "__name__", self.name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.check(label)
            return fn(*args, **kwargs)

        return wrapper

    def reset(self) -> None:
        """Restart the deterministic schedule from the seed."""
        self.calls = 0
        self.fired = 0
        self._rng = random.Random(self.seed)

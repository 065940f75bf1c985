"""Setup/hold analysis and useful-skew scheduling.

The point of controlling — rather than merely minimising — skew is that
data paths care about *relative* clock arrivals: a late capture clock
relaxes setup on a long path (useful skew).  This module closes that loop:

* :func:`analyze_paths` — setup/hold slacks of register-to-register paths
  given the clock arrivals a tree realises;
* :func:`schedule_useful_skew` — find target clock arrivals maximising
  the worst slack margin.  The constraints

      setup:  arr_l - arr_c <= T - t_setup - delay_max
      hold:   arr_c - arr_l <= delay_min - t_hold

  form a system of difference constraints, solved by Bellman-Ford on the
  constraint graph; binary search on a uniform margin yields the
  max-margin schedule.  The returned per-sink windows
  ``[target - margin/2, target + margin/2]`` are *jointly* feasible (any
  realisation inside them satisfies every constraint), which is exactly
  the input :func:`repro.dme.ust.ust_dme` expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class DataPath:
    """One register-to-register data path."""

    launch: str          # launching sink (FF clock pin) name
    capture: str         # capturing sink name
    delay_max: float     # ps, worst-case combinational delay
    delay_min: float | None = None  # ps, best case (defaults to delay_max)

    def __post_init__(self) -> None:
        d_min = self.delay_max if self.delay_min is None else self.delay_min
        if d_min > self.delay_max:
            raise ValueError(
                f"path {self.launch}->{self.capture}: delay_min "
                f"{self.delay_min} exceeds delay_max {self.delay_max}"
            )

    @property
    def dmin(self) -> float:
        return self.delay_max if self.delay_min is None else self.delay_min


@dataclass(frozen=True, slots=True)
class STAReport:
    """Slack summary over a path set."""

    setup_slacks: dict[tuple[str, str], float]
    hold_slacks: dict[tuple[str, str], float]

    @property
    def wns_setup(self) -> float:
        return min(self.setup_slacks.values()) if self.setup_slacks else _INF

    @property
    def wns_hold(self) -> float:
        return min(self.hold_slacks.values()) if self.hold_slacks else _INF

    @property
    def ok(self) -> bool:
        return self.wns_setup >= 0.0 and self.wns_hold >= 0.0


def analyze_paths(
    arrivals: Mapping[str, float],
    paths: list[DataPath],
    period: float,
    t_setup: float = 0.0,
    t_hold: float = 0.0,
) -> STAReport:
    """Setup/hold slacks for ``paths`` under the given clock arrivals."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    setup: dict[tuple[str, str], float] = {}
    hold: dict[tuple[str, str], float] = {}
    for path in paths:
        if path.launch not in arrivals or path.capture not in arrivals:
            raise KeyError(
                f"path {path.launch}->{path.capture} references unknown sinks"
            )
        al = arrivals[path.launch]
        ac = arrivals[path.capture]
        key = (path.launch, path.capture)
        setup[key] = (period + ac) - (al + path.delay_max + t_setup)
        hold[key] = (al + path.dmin) - (ac + t_hold)
    return STAReport(setup_slacks=setup, hold_slacks=hold)


def schedule_useful_skew(
    paths: list[DataPath],
    period: float,
    sinks: list[str],
    t_setup: float = 0.0,
    t_hold: float = 0.0,
    iters: int = 40,
) -> tuple[dict[str, float], float] | None:
    """Max-margin clock schedule, or None when no schedule exists.

    Returns ``(targets, margin)``: target arrivals per sink (normalised so
    the earliest is 0) such that every constraint holds with at least
    ``margin`` of slack.  Windows ``[t - margin/2, t + margin/2]`` are
    jointly feasible for :func:`repro.dme.ust.ust_dme`.
    """
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    names = list(dict.fromkeys(sinks))
    index = {name: i for i, name in enumerate(names)}
    for path in paths:
        if path.launch not in index or path.capture not in index:
            raise KeyError(
                f"path {path.launch}->{path.capture} references unknown sinks"
            )

    def feasible(margin: float) -> dict[str, float] | None:
        # difference constraints x_u - x_v <= w  =>  edge v -> u weight w
        edges: list[tuple[int, int, float]] = []
        for path in paths:
            l, c = index[path.launch], index[path.capture]
            w_setup = period - t_setup - path.delay_max - margin
            edges.append((c, l, w_setup))      # x_l - x_c <= w_setup
            w_hold = path.dmin - t_hold - margin
            edges.append((l, c, w_hold))       # x_c - x_l <= w_hold
        dist = [0.0] * len(names)  # virtual source connected to all
        for _ in range(len(names)):
            changed = False
            for v, u, w in edges:
                if dist[v] + w < dist[u] - 1e-12:
                    dist[u] = dist[v] + w
                    changed = True
            if not changed:
                break
        else:
            # still changing after n passes: negative cycle -> infeasible
            for v, u, w in edges:
                if dist[v] + w < dist[u] - 1e-12:
                    return None
        base = min(dist)
        return {name: dist[index[name]] - base for name in names}

    if feasible(0.0) is None:
        return None
    lo, hi = 0.0, period
    best = feasible(0.0)
    assert best is not None
    best_margin = 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        candidate = feasible(mid)
        if candidate is not None:
            best, best_margin = candidate, mid
            lo = mid
        else:
            hi = mid
    return best, best_margin


def windows_from_schedule(
    targets: Mapping[str, float], margin: float
) -> dict[str, tuple[float, float]]:
    """UST permissible windows realising a max-margin schedule."""
    half = max(margin, 0.0) / 2.0
    return {name: (t - half, t + half) for name, t in targets.items()}

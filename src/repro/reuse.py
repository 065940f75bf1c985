"""Flow stages the points of one sweep share.

Points of a sweep that differ only in knobs a stage never reads compute
that stage's result again and again: a level's partition reads none of
``eps``, the buffer library, the skew bound or the topology, CBS Steps
1–2 (BST-DME, then the refined skeleton) read neither ``eps`` nor the
library, and Steps 3–5 add ``eps`` but still not the library.  A
:class:`StageReuse` remembers all three results, keyed by everything
the stage reads, so a point pays only for what its own knobs change
(docs/SWEEP.md, "Reuse across points").

Keys are exact.  A float enters by its bit pattern, never by ``==``:
``Point(-0.0, 0.0) == Point(0.0, 0.0)``, but the kernels' tie rules read
the sign of zero, so a key that compared equal there would serve a
result computed from different input bits.  An input with no exact
form (an int coordinate, a non-string sink name) gives no key, and the
stage computes as it would without reuse.

This module imports nothing from the flow: the partition and CBS code
build their keys with :func:`exact_key` (and :func:`extend_key`) and
read and fill the maps
through :meth:`StageReuse.get` and :meth:`StageReuse.put`.
"""

from __future__ import annotations

import os
import struct
from collections import OrderedDict

from repro.obs.metrics import METRICS

#: The three kinds of kept result.
PARTITION = "partition"
SKELETON = "skeleton"
ROUTED = "routed"

#: Level partitions kept per process, least recently used evicted
#: first.  A kept partition costs about 120 bytes per sink of its level
#: (its key holds each sink's name and four floats, its value the sink
#: indices by cluster): 20 KB at ``sweep_cold``'s 125-238 sinks, about
#: 1.2 MB at ethernet's 10,015, so a full map holds at most about 19 MB
#: at that size.
PARTITION_ENTRIES = 16

#: CBS skeletons kept per process, least recently used evicted first.
#: A kept skeleton of a 32-sink net costs about 32 KB with its key and
#: sinks (29 KB on average over ``sweep_cold``'s level-0 nets), so a
#: full map holds at most about 16 MB.
SKELETON_ENTRIES = 512

#: Routed CBS nets (Steps 1–5) kept per process, least recently used
#: evicted first.  A kept 32-sink net costs about 31 KB with its key and
#: sinks (28 KB on average over ``sweep_cold``'s level-0 nets), so a
#: full map holds at most about 16 MB.
ROUTED_ENTRIES = 512

_KINDS = (PARTITION, SKELETON, ROUTED)
_HIT = {kind: f"cts.reuse.{kind}_hit" for kind in _KINDS}
_MISS = {kind: f"cts.reuse.{kind}_miss" for kind in _KINDS}

#: Key parts kept by value, tagged with their type so ``True`` is not 1.
_PLAIN = (int, bool, str)


def _exact(value):
    """``value`` as a key part: a float by its bit pattern, an int, bool
    or str with its type; ``TypeError`` for anything else."""
    kind = type(value)
    if kind is float:
        return value.hex()
    if kind in _PLAIN:
        return kind, value
    raise TypeError(f"no exact key for a {kind.__name__}")


def exact_key(sinks, *scalars) -> tuple | None:
    """An exact key over ``sinks`` in order, each by its name, x, y, cap
    and subtree delay, and over ``scalars``; None where one of them has
    no exact form.

    The floats of the sinks are packed as IEEE doubles, so the key is
    compact and tells apart every bit its inputs differ in.
    """
    names = tuple(s.name for s in sinks)
    values = [v for s in sinks for v in (s.location.x, s.location.y,
                                         s.cap, s.subtree_delay)]
    if set(map(type, names)) != {str} or set(map(type, values)) != {float}:
        return None
    try:
        parts = tuple(map(_exact, scalars))
    except TypeError:
        return None
    return names, struct.pack(f"<{len(values)}d", *values), parts


def extend_key(key: tuple | None, *scalars) -> tuple | None:
    """``key`` with ``scalars`` appended as exact parts; None where
    ``key`` is None or one of them has no exact form."""
    if key is None:
        return None
    try:
        return key + tuple(map(_exact, scalars))
    except TypeError:
        return None


class StageReuse:
    """Level partitions, CBS skeletons and routed CBS nets computed so
    far in this process, each map LRU-bounded by its module constant.

    An object serves only the process that filled it: a forked copy
    empties itself on first use, and a pickled one arrives empty, so a
    pool worker never reads (and a spawn start never ships) the
    parent's entries.  Lookups count ``cts.reuse.<kind>_hit`` and
    ``cts.reuse.<kind>_miss`` in ``METRICS``, which pooled runs merge
    home with each task.  Stored values are shared, never copied:
    callers must not mutate what :meth:`get` returns.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._entries: dict[str, OrderedDict] = {
            kind: OrderedDict() for kind in _KINDS}

    def __reduce__(self):
        return StageReuse, ()

    def _own(self) -> dict[str, OrderedDict]:
        if self._pid != os.getpid():    # a forked copy starts empty
            self.__init__()
        return self._entries

    def get(self, kind: str, key: tuple):
        """The value kept under ``key``, or None; counts a hit or miss."""
        entries = self._own()[kind]
        value = entries.get(key)
        if value is None:
            METRICS.inc(_MISS[kind])
            return None
        entries.move_to_end(key)
        METRICS.inc(_HIT[kind])
        return value

    def put(self, kind: str, key: tuple, value) -> None:
        """Keep ``value`` under ``key``, evicting the least recently
        used entries beyond the kind's bound."""
        entries = self._own()[kind]
        entries[key] = value
        entries.move_to_end(key)
        bound = {PARTITION: PARTITION_ENTRIES, SKELETON: SKELETON_ENTRIES,
                 ROUTED: ROUTED_ENTRIES}[kind]
        while len(entries) > bound:
            entries.popitem(last=False)

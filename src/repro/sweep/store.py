"""The on-disk, content-addressed sweep result store.

Layout (everything under one root directory)::

    <root>/
      records/<key>.json            one canonical record per point
      sweeps/<name>-<digest12>.jsonl  ordered records of a sweep run

A record's ``key`` is the hex sha256 of the canonical JSON of

    {"store_schema": RESULT_SCHEMA_VERSION,
     "design": <design fingerprint>,
     "config": <canonical knob dict>}

— the (design fingerprint, canonical config hash, code/schema version)
triple.  Identical content always lands at the same path, so a re-run
of any spec that covers a stored point is a cache hit, and a sweep
interrupted halfway resumes for free: the completed points are already
in ``records/``.

Records are **canonical bytes**: serialised with sorted keys and
compact separators, carrying no wall-clock times, hostnames or
timestamps — the same point computed on any machine, serially or under
any ``--jobs``, produces byte-identical files (the determinism contract
``tests/sweep/test_determinism.py`` pins).  Writes are atomic
(temp file + rename), so a killed sweep never leaves a torn record; a
process killed *between* the temp write and the rename leaves only a
``*.tmp.<pid>`` orphan, which the next store open collects (never a
live writer's file — see :meth:`SweepStore._tmp_is_stale`).

Only successful records are content-addressed; failed points ride in
the sweep's JSONL for reporting but are retried on the next run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.obs.logcfg import get_logger

_LOG = get_logger("sweep")

#: Bumped whenever the record layout or the flow semantics behind it
#: change; part of every cache key, so stale records are never reused.
#: v2: execution-fabric knobs (``jobs``, deadlines, retry budgets) left
#: the canonical config, so records no longer vary with them.
#: v3: the flow partitions large levels in exact spatial blocks and
#: adds a level while the top net's estimated cap is over bound, so
#: records of designs past either threshold changed.
#: v4: records are scored at the point's own ``source_slew``; v3 scored
#: every point at 10 ps, so records at any other slew were wrong.
RESULT_SCHEMA_VERSION = 4


def canonical_json(obj) -> str:
    """The one JSON encoding records and keys use (stable bytes)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def record_key(design_fingerprint: str, canonical_config: dict) -> str:
    """Cache key of one sweep point (hex sha256)."""
    payload = canonical_json({
        "store_schema": RESULT_SCHEMA_VERSION,
        "design": design_fingerprint,
        "config": canonical_config,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: A ``*.tmp.<pid>`` file whose owner is dead is collected once it is
#: this old — young enough to matter, old enough that a recycled pid or
#: clock skew cannot race a write in flight (writes take milliseconds).
_TMP_DEAD_GRACE_S = 60.0
#: ...and collected regardless of apparent ownership once this old: a
#: live process never keeps a temp file around (write + rename is
#: immediate), so an hour-old one is a leak behind a reused pid.
_TMP_MAX_AGE_S = 3600.0


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0); unsure counts as alive."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:        # EPERM etc.: exists but not ours
        return True
    return True


class SweepStore:
    """Filesystem store of sweep records (see module docstring)."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._records = self.root / "records"
        self._sweeps = self.root / "sweeps"
        # fail at open, not at first write: an unusable root (file in
        # the way, no permission) raises OSError here, which the CLI
        # maps to a typed exit-2 before a server or sweep starts
        self._records.mkdir(parents=True, exist_ok=True)
        self._sweeps.mkdir(parents=True, exist_ok=True)
        # a process killed between tmp-write and os.replace leaves its
        # temp file behind forever; opening the store collects such
        # orphans (never a live writer's file — see _tmp_is_stale)
        self._collect_orphan_tmp()

    # ------------------------------------------------------------------
    # Orphaned temp files
    # ------------------------------------------------------------------
    def _collect_orphan_tmp(self) -> int:
        """Remove stale ``*.tmp.<pid>`` leftovers; returns the count."""
        removed = 0
        for directory in (self._records, self._sweeps):
            if not directory.is_dir():
                continue
            for path in directory.glob("*.tmp.*"):
                if not self._tmp_is_stale(path):
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue   # raced another opener, or perms: skip
                removed += 1
                _LOG.warning("collected orphaned temp file %s", path)
        return removed

    def _tmp_is_stale(self, path: Path) -> bool:
        """True when a temp file is a safe-to-delete orphan.

        Ownership-safe: this process's own files and any fresh file
        whose owner pid is alive are left alone (an atomic write may be
        in flight).  A dead owner's file is stale after a short grace;
        any temp file older than :data:`_TMP_MAX_AGE_S` is stale no
        matter what a recycled pid claims.
        """
        try:
            age = max(0.0, time.time() - path.stat().st_mtime)
        except OSError:
            return False       # gone already (concurrent os.replace)
        try:
            pid = int(path.suffix[1:])
        except ValueError:
            pid = None         # unparseable owner: age decides
        if pid == os.getpid():
            return False
        if age >= _TMP_MAX_AGE_S:
            return True
        if pid is not None and _pid_alive(pid):
            return False
        return age >= _TMP_DEAD_GRACE_S

    # ------------------------------------------------------------------
    # Point records
    # ------------------------------------------------------------------
    def record_path(self, key: str) -> Path:
        return self._records / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None (miss).

        A corrupt record file is treated as a miss (and logged): the
        point recomputes and the atomic rewrite replaces the damage —
        the store self-heals instead of wedging the sweep.
        """
        path = self.record_path(key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            _LOG.warning("corrupt record %s (%s); treating as a miss",
                         path.name, exc)
            return None
        if not isinstance(record, dict) or record.get("key") != key:
            _LOG.warning("record %s does not match its key; "
                         "treating as a miss", path.name)
            return None
        return record

    def put(self, key: str, record: dict) -> Path:
        """Atomically persist ``record`` under ``key``."""
        self._records.mkdir(parents=True, exist_ok=True)
        path = self.record_path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(canonical_json(record) + "\n")
        os.replace(tmp, path)
        return path

    def keys(self) -> list[str]:
        """Every stored record key, sorted."""
        if not self._records.is_dir():
            return []
        return sorted(
            p.stem for p in self._records.glob("*.json")
        )

    def records(self) -> list[dict]:
        """Every stored record, in sorted-key order."""
        out = []
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                out.append(record)
        return out

    # ------------------------------------------------------------------
    # Maintenance: stats and garbage collection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate view of the store for ``repro store stats``.

        Counts records per ``design@scale`` and per schema version,
        with each design's last-use time (the newest record file's
        mtime — records themselves carry no wall-clock on purpose, so
        the filesystem is the only witness of *when*).  Corrupt record
        files are counted, not raised: stats is a diagnostic surface.
        """
        per_design: dict[str, dict] = {}
        per_schema: dict[str, int] = {}
        per_status: dict[str, int] = {}
        corrupt = 0
        records = 0
        total_bytes = 0
        for path in sorted(self._records.glob("*.json")):
            try:
                st = path.stat()
            except OSError:
                continue           # raced a concurrent gc
            total_bytes += st.st_size
            record = self.get(path.stem)
            if record is None:
                corrupt += 1
                continue
            records += 1
            schema = str(record.get("schema", "?"))
            per_schema[schema] = per_schema.get(schema, 0) + 1
            status = str(record.get("status", "?"))
            per_status[status] = per_status.get(status, 0) + 1
            design = f"{record.get('design', '?')}" \
                     f"@{record.get('scale', '?')}"
            entry = per_design.setdefault(
                design, {"records": 0, "last_used": 0.0})
            entry["records"] += 1
            entry["last_used"] = max(entry["last_used"], st.st_mtime)
        for entry in per_design.values():
            entry["last_used"] = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ",
                time.gmtime(entry["last_used"]))
        sweeps = sorted(self._sweeps.glob("*.jsonl"))
        return {
            "root": str(self.root),
            "store_schema": RESULT_SCHEMA_VERSION,
            "records": records,
            "corrupt": corrupt,
            "bytes": total_bytes,
            "designs": dict(sorted(per_design.items())),
            "schemas": dict(sorted(per_schema.items())),
            "statuses": dict(sorted(per_status.items())),
            "sweeps": [p.name for p in sweeps],
        }

    def gc(self, schema_version: int | None = None,
           dry_run: bool = True) -> dict:
        """Collect dead weight; dry-run (report only) by default.

        Three classes of garbage, each harmless to delete:

        - records whose schema is not the current
          :data:`RESULT_SCHEMA_VERSION` — their keys embed the old
          schema, so they can never be cache hits again
          (``schema_version`` narrows collection to exactly that
          version; collecting the *current* version is refused — that
          would be deleting a valid cache, which is ``rm -r``'s job,
          not gc's);
        - corrupt record files (unparseable, or content not matching
          the filename key) — already treated as misses by :meth:`get`;
        - orphaned ``*.tmp.<pid>`` files, under the same ownership and
          grace rules the store applies at open
          (:meth:`_tmp_is_stale`).
        """
        if schema_version == RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"refusing to gc schema version {schema_version}: that "
                f"is the current store schema (its records are the "
                f"live cache)"
            )
        stale: list[str] = []
        corrupt: list[str] = []
        for path in sorted(self._records.glob("*.json")):
            key = path.stem
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                corrupt.append(path.name)
                continue
            if not isinstance(record, dict) or record.get("key") != key:
                corrupt.append(path.name)
                continue
            schema = record.get("schema")
            if schema_version is not None:
                if schema == schema_version:
                    stale.append(key)
            elif schema != RESULT_SCHEMA_VERSION:
                stale.append(key)
        orphans = [
            path
            for directory in (self._records, self._sweeps)
            for path in sorted(directory.glob("*.tmp.*"))
            if self._tmp_is_stale(path)
        ]
        removed = 0
        if not dry_run:
            doomed = [self.record_path(k) for k in stale]
            doomed += [self._records / name for name in corrupt]
            doomed += orphans
            for path in doomed:
                try:
                    path.unlink()
                except OSError:
                    continue   # raced another collector: already gone
                removed += 1
            _LOG.info("store gc removed %d file(s) under %s",
                      removed, self.root)
        return {
            "root": str(self.root),
            "dry_run": dry_run,
            "schema_version": schema_version,
            "stale_schema": stale,
            "corrupt": corrupt,
            "orphans": [p.name for p in orphans],
            "candidates": len(stale) + len(corrupt) + len(orphans),
            "removed": removed,
        }

    # ------------------------------------------------------------------
    # Sweep run files (ordered JSONL)
    # ------------------------------------------------------------------
    def sweep_path(self, name: str, digest: str) -> Path:
        return self._sweeps / f"{name}-{digest[:12]}.jsonl"

    def write_sweep(
        self, name: str, digest: str, records: list[dict]
    ) -> Path:
        """Write a sweep run's ordered records as canonical JSONL."""
        self._sweeps.mkdir(parents=True, exist_ok=True)
        path = self.sweep_path(name, digest)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            "".join(canonical_json(r) + "\n" for r in records)
        )
        os.replace(tmp, path)
        return path

    def health_path(self, name: str, digest: str) -> Path:
        return self._sweeps / f"{name}-{digest[:12]}.health.json"

    def write_health(self, name: str, digest: str, health: dict) -> Path:
        """Write a run's fabric-health sidecar next to its JSONL.

        A separate file on purpose: the JSONL carries only the
        deterministic records (pinned byte-for-byte in CI), while the
        sidecar describes how bumpy *this particular run* was —
        timeouts, retries, resurrections, quarantines.
        """
        self._sweeps.mkdir(parents=True, exist_ok=True)
        path = self.health_path(name, digest)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(canonical_json(health) + "\n")
        os.replace(tmp, path)
        return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Read a sweep JSONL file; typed ValueError on malformed input."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read sweep records ({exc})") \
            from exc
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{lineno}: not valid JSON ({exc})"
            ) from exc
        if not isinstance(record, dict):
            raise ValueError(
                f"{path}:{lineno}: record must be a JSON object"
            )
        records.append(record)
    return records


def load_records(path: str | Path) -> list[dict]:
    """Records from either a store root or a single JSONL file.

    A directory is treated as a store root (all content-addressed
    records, sorted by key); a file as one sweep's JSONL.
    """
    path = Path(path)
    if path.is_dir():
        records = SweepStore(path).records()
        if not records:
            raise ValueError(f"{path}: no sweep records found "
                             f"(empty or not a sweep store)")
        return records
    return read_jsonl(path)

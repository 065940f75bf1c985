"""Request schema and validation for the CTS service.

A request is one JSON object naming a catalog design and a knob
combo — exactly the vocabulary of a sweep spec's explicit point::

    {
      "design": "s38584",
      "scale": 0.05,
      "config": {"eps": 0.3, "skew_bound": 60, "library": "lean"},
      "priority": 5,
      "deadline_s": 30.0,
      "stream": true
    }

Validation is strict and happens before anything runs: unknown fields,
unknown designs, unknown knobs, out-of-range scales all raise a typed
:class:`RequestError` (HTTP 400).  A valid request resolves — through
:func:`repro.sweep.spec.resolve_point`, the *same* normalisation path
sweeps use — to a :class:`~repro.sweep.spec.SweepPoint` and its
content-addressed cache key, so a served request and a swept point
with the same knobs hit the same store entry byte-for-byte.  The
canonical config is built once per request and carried on it: the
cache key and the model's hint read the same dict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.designs import design_fingerprint, design_names
from repro.sweep.spec import SweepPoint, resolve_point, sweepable_keys
from repro.sweep.store import record_key


class RequestError(ValueError):
    """A malformed or unknown request payload (HTTP 400)."""


#: Top-level request fields (everything else is rejected).
REQUEST_FIELDS = (
    "design", "scale", "config", "priority", "deadline_s", "stream",
)

_FIELDS = frozenset(REQUEST_FIELDS)
_SWEEPABLE = frozenset(sweepable_keys())
#: The catalog, read once: a request checks its design against this set.
_DESIGNS = frozenset(design_names())


@dataclass(frozen=True, slots=True)
class ServeRequest:
    """One validated CTS request, resolved to its cache key."""

    point: SweepPoint          # normalised knobs (index is always 0)
    fingerprint: str           # design content hash (cache-key half)
    key: str                   # full content-addressed record key
    # the point's canonical config: what ``key`` hashes and the model reads
    config: dict = field(compare=False, repr=False)
    priority: int = 0          # higher runs sooner (FIFO within a tier)
    deadline_s: float = 0.0    # per-request budget; 0 = server default
    stream: bool = False       # NDJSON progress stream vs one response

    def label(self) -> str:
        return f"serve {self.key[:12]}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(number) -> bool:
    """Whether a number converts to a finite float (an int beyond the
    float range does not)."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def parse_request(data) -> ServeRequest:
    """Validate one request payload; :class:`RequestError` on any flaw.

    Each error message is built only when its check fails, so a valid
    request formats none of them.
    """
    if not isinstance(data, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(data).__name__}")
    if not _FIELDS.issuperset(data):
        raise RequestError(
            f"unknown request field(s) {sorted(set(data) - _FIELDS)}; "
            f"known: {sorted(REQUEST_FIELDS)}")

    design = data.get("design")
    if not (isinstance(design, str) and design):
        raise RequestError("request needs a 'design' (string)")
    if design not in _DESIGNS:
        raise RequestError(
            f"unknown design {design!r}; catalog has {sorted(_DESIGNS)}")

    scale = data.get("scale", 1.0)
    if not _is_number(scale):
        raise RequestError(f"'scale' must be a number, got {scale!r}")
    if not 0 < scale <= 1:
        raise RequestError(f"'scale' must be in (0, 1], got {scale}")

    config = data.get("config", {})
    if not isinstance(config, dict):
        raise RequestError(
            f"'config' must be an object of knobs, got "
            f"{type(config).__name__}")
    if not _SWEEPABLE.issuperset(config):
        raise RequestError(
            f"unknown knob(s) {sorted(set(config) - _SWEEPABLE)}; "
            f"sweepable: {sorted(_SWEEPABLE)}")

    priority = data.get("priority", 0)
    if not (isinstance(priority, int) and not isinstance(priority, bool)):
        raise RequestError(
            f"'priority' must be an integer, got {priority!r}")

    deadline = data.get("deadline_s", 0.0)
    if not (_is_number(deadline) and _finite(deadline) and deadline >= 0):
        raise RequestError(
            f"'deadline_s' must be a finite number >= 0, got {deadline!r}")

    stream = data.get("stream", False)
    if not isinstance(stream, bool):
        raise RequestError(f"'stream' must be a boolean, got {stream!r}")

    try:
        point = resolve_point(0, design, float(scale), dict(config))
    except ValueError as exc:
        raise RequestError(str(exc)) from exc
    fingerprint = design_fingerprint(design, point.scale)
    canonical = point.canonical_config()
    return ServeRequest(
        point=point,
        fingerprint=fingerprint,
        key=record_key(fingerprint, canonical),
        config=canonical,
        priority=int(priority),
        deadline_s=float(deadline),
        stream=stream,
    )


def parse_request_bytes(body: bytes) -> ServeRequest:
    """Parse a raw JSON body; typed :class:`RequestError` throughout.

    Besides malformed JSON (a ``ValueError``, as is a body that is not
    UTF-8), ``json.loads`` rejects an integer literal past Python's
    digit limit with a plain ``ValueError`` and deep nesting with a
    ``RecursionError``; all of them are the client's fault.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise RequestError(f"request body is not valid JSON ({exc})") \
            from exc
    return parse_request(data)

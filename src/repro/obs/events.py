"""The structured event ledger: an append-only JSONL flight recorder.

The metrics registry (:mod:`.metrics`) answers "how much / how long";
the ledger answers "what happened, in what order, and why".  Every
pipeline layer emits typed events — stage boundaries, trace merges,
frame-variable construction steps, corroboration findings, store
hits, scheduler dispatch, validation verdicts — and the ledger records them
durably enough that a later run (or the ``repro explain``
provenance query) can reconstruct *why* a recovered fact looks the way
it does.

Design:

* **append-only JSONL** — one event per line, schema-versioned
  (:data:`LEDGER_SCHEMA_VERSION`); a reader skips lines whose ``v`` it
  does not understand instead of failing, so old ledgers stay readable
  across schema bumps (compatibility rules in DESIGN.md);
* **typed kinds** — :data:`EVENT_KINDS` is the registry; ``emit``
  rejects unknown kinds so producers and consumers cannot drift apart
  silently;
* **process-safe** — file-backed ledgers write each line with a single
  ``os.write`` on an ``O_APPEND`` descriptor, which POSIX keeps atomic
  for writes below ``PIPE_BUF``: forked workers (evaluation sweep,
  scheduler workers) inherit the descriptor and append
  concurrently without interleaving lines.  A per-process ``pid`` field
  plus a per-process ``seq`` counter give every event a stable identity
  and a total order per writer (file order gives the global
  interleaving);
* **in-memory mode** — ``enable_ledger()`` without a path keeps events
  in a list (the ``repro explain`` path: run the pipeline, then query).
  Worker processes cannot share that list, so their in-memory events
  ride home on the existing obs worker payloads
  (:func:`repro.obs.export_payload` / :func:`~repro.obs.merge_payload`)
  and workers call :func:`fork_begin` to drop the parent events they
  inherited over ``fork``;
* **zero overhead when disabled** — :func:`event` is one module-global
  read when no ledger is active, mirroring the recorder's no-op path.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

__all__ = [
    "EVENT_KINDS",
    "LEDGER_SCHEMA_VERSION",
    "EventLedger",
    "disable_ledger",
    "enable_ledger",
    "event",
    "fork_begin",
    "ledger",
    "read_events",
]

LEDGER_SCHEMA_VERSION = 1

#: The typed event registry.  Emitting an unknown kind raises — the
#: ledger is an interface between pipeline layers and later readers,
#: and silent drift would corrupt provenance queries.
EVENT_KINDS = frozenset({
    # run / stage lifecycle (stage.* emitted by the recorder span hook)
    "run.start", "run.finish",
    "stage.start", "stage.finish",
    # lifting
    "lift.function",
    # replay / tracing
    "trace.merged",
    "validate.verdict",
    # frame-layout construction (core/layout.py)
    "frame.var.seed",
    "frame.var.merge",
    "frame.var.attach",
    "frame.var.widened",
    # static corroboration / sanitizer
    "corroborate.finding",
    "sanitize.finding",
    # interprocedural summaries / escape analysis / extern recovery
    "sanalysis.summary",
    "sanalysis.escape",
    "sanalysis.extern",
    # artifact store (repro.store)
    "store.hit",
    "store.miss",
    "store.put",
    "store.evicted",
    # serve jobs (repro.serve)
    "job.submitted",
    "job.started",
    "job.finished",
    "job.timeout",
    # job scheduler (repro.sched)
    "sched.dispatch",
    "sched.steal",
    "sched.reject",
})


def _jsonable(value):
    """Best-effort conversion to JSON-serializable structure."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


class EventLedger:
    """One process-tree's event stream, file-backed or in-memory."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        #: In-memory events (only populated when ``path`` is None).
        self.events: list[dict] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._fd: int | None = None
        if self.path is not None:
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def emit(self, kind: str, **fields) -> dict:
        """Append one event; returns the event dict as recorded."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        with self._lock:
            self._seq += 1
            doc = {"v": LEDGER_SCHEMA_VERSION, "seq": self._seq,
                   "pid": os.getpid(), "kind": kind}
            for key, value in fields.items():
                doc[key] = _jsonable(value)
            if self._fd is not None:
                line = json.dumps(doc, separators=(",", ":")) + "\n"
                os.write(self._fd, line.encode())
            else:
                self.events.append(doc)
        return doc

    def absorb(self, events: list[dict]) -> None:
        """Fold a worker's shipped events in, preserving their fields
        (``pid``/``seq`` identify the original writer)."""
        with self._lock:
            if self._fd is not None:
                for doc in events:
                    line = json.dumps(doc, separators=(",", ":")) + "\n"
                    os.write(self._fd, line.encode())
            else:
                self.events.extend(events)

    def drain(self) -> list[dict]:
        """Remove and return the in-memory events (worker hand-off)."""
        with self._lock:
            out, self.events = self.events, []
        return out

    def close(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            try:
                os.close(fd)
            except OSError:
                pass

    def __del__(self):  # best-effort; owners should close() explicitly
        try:
            self.close()
        except Exception:
            pass


_LEDGER: EventLedger | None = None


def ledger() -> EventLedger | None:
    """The active ledger, or None when event recording is disabled."""
    return _LEDGER


def enable_ledger(path: str | Path | None = None) -> EventLedger:
    """Activate the event ledger (file-backed when ``path`` is given,
    in-memory otherwise), replacing any active one."""
    global _LEDGER
    if _LEDGER is not None:
        _LEDGER.close()
    _LEDGER = EventLedger(path)
    return _LEDGER


def disable_ledger() -> None:
    global _LEDGER
    if _LEDGER is not None:
        _LEDGER.close()
    _LEDGER = None


def event(kind: str, **fields) -> None:
    """Emit one ledger event; a single global read when disabled."""
    led = _LEDGER
    if led is not None:
        led.emit(kind, **fields)


def fork_begin() -> None:
    """Called by pool workers at task start: drop in-memory events
    inherited from the parent over ``fork`` so they are not shipped
    back (and double-counted) in this worker's payload.  File-backed
    ledgers keep the inherited descriptor — appends are atomic."""
    led = _LEDGER
    if led is not None and led.path is None:
        led.drain()


def export_events() -> list[dict] | None:
    """The in-memory events to ship in a worker payload, or None when
    nothing needs shipping (disabled, or file-backed — those events
    already landed in the shared file)."""
    led = _LEDGER
    if led is None or led.path is not None or not led.events:
        return None
    return led.drain()


def merge_events(events: list[dict] | None) -> None:
    """Fold a worker payload's events into the active ledger."""
    led = _LEDGER
    if led is not None and events:
        led.absorb(events)


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSONL ledger file.  Blank lines are skipped; events from
    a newer schema than this reader understands are skipped rather than
    fatal (forward compatibility); a torn final line (a crashed writer)
    raises ``ValueError`` like any other corrupt line."""
    events = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        doc = json.loads(line)
        if doc.get("v", 0) > LEDGER_SCHEMA_VERSION:
            continue
        events.append(doc)
    return events


if os.environ.get("REPRO_LEDGER"):
    enable_ledger(os.environ["REPRO_LEDGER"])

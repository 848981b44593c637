"""repro.sched — the serve daemon's multi-process job scheduler.

Every daemon job executes in a pool of **long-lived worker processes**
(one by default).  Pipeline state is process-global — the obs recorder
and ledger, the emulator's shared block caches, the optimizer's
CFG-analysis cache — so two jobs cannot safely overlap in one process,
and the pipeline is pure Python, so threads would serialize on the GIL
anyway; the pool gives each job a process of its own.  Each worker is forked
once at scheduler start and then runs many jobs, keeping its warm
in-process caches between jobs.  Reuse of
results and per-input traces lands via the shared content-addressed
:class:`~repro.store.ArtifactStore` on disk (its atomic
tmp+``os.replace`` writes make concurrent puts safe; last writer wins
and wrote the same bytes anyway).

Scheduling model:

* **Bounded FIFO queue with backpressure** — submissions past
  ``max_depth`` are rejected immediately with a retry hint
  (:class:`~repro.errors.SchedRejected` carries ``retry_after``
  estimated from the queue depth and a moving average of job
  durations) instead of queueing unboundedly.
* **Image-affinity dispatch** — a job's ``image_key`` hashes to a
  preferred worker (:func:`affinity_worker`), so repeat requests for
  one image land on the same worker.
* **Work stealing** — when the affine worker is busy and another is
  idle, the job is dispatched to the idle worker rather than waiting
  (correctness is unaffected: the artifact store serves the reuse
  either way).
* **Per-job wall-clock limit** — ``job_timeout`` kills the worker
  mid-job, fails the job with kind ``JobTimeout``, emits a
  ``job.timeout`` ledger event, and respawns the worker so the slot is
  freed.  Worker crashes are handled the same way (kind
  ``WorkerDied``).

Observability: counters ``sched.dispatch`` / ``sched.steal`` /
``sched.reject`` / ``sched.timeout`` with matching ledger events, the
``sched.queue_depth`` gauge, and a ``worker.job`` span per job emitted
*inside* the worker.  Workers ship their recorder/ledger state home
per job over the existing payload protocol
(:func:`repro.obs.export_payload` / :func:`~repro.obs.merge_payload`),
so parent-side reports aggregate the whole pool.

Workers are forked (``fork`` start method), which every POSIX
platform — the only ones with the daemon's ``AF_UNIX`` socket —
provides.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from pathlib import Path

from . import obs
from .binary.image import BinaryImage
from .core.incremental import incremental_recompile
from .errors import SchedError, SchedRejected
from .store import ArtifactStore, decode_runs

__all__ = ["JobScheduler", "affinity_worker", "execute_job"]

#: Default queue bound, per worker: enough to keep the pool busy
#: through bursts without letting latency grow unboundedly.
DEPTH_PER_WORKER = 4

#: Fallback per-job seconds estimate before any job has completed
#: (seed for the retry hint's moving average).
_SECONDS_SEED = 5.0


def affinity_worker(image_key: str, workers: int) -> int:
    """The preferred worker index for an image: a stable hash of the
    image's content key, so every request for one image prefers the
    same worker for the daemon's lifetime."""
    if workers <= 1:
        return 0
    try:
        return int(image_key[:8], 16) % workers
    except ValueError:
        return sum(image_key.encode()) % workers


# -- job execution (runs in the worker process) ---------------------------

def execute_job(spec: dict, store: ArtifactStore) -> dict:
    """Run one job spec and return the response fields it produced.

    ``spec["op"]`` selects the job type: ``"recompile"`` (default) runs
    the store-backed incremental pipeline; ``"probe"`` is a scheduler
    liveness/latency probe that optionally sleeps ``spec["sleep"]``
    seconds — it exercises dispatch, timeout and drain machinery
    without pipeline cost (used by the scheduler tests).
    """
    if spec.get("op") == "probe":
        if spec.get("sleep"):
            time.sleep(float(spec["sleep"]))
        return {"served": "probe", "stats": {}, "image_key":
                spec.get("image_key", ""), "result_key": "",
                "fallback": False, "notes": [], "coverage": {}}
    image = BinaryImage.from_json(spec["image_json"])
    runs = decode_runs(spec.get("inputs", []))
    options = spec.get("options") or {}
    served = incremental_recompile(
        image, runs, store,
        optimize=options.get("optimize", True),
        check=options.get("check"),
        static_widen=options.get("static_widen"),
        hybrid=options.get("hybrid", False),
        collect_accuracy=options.get("collect_accuracy", True))
    out: dict = {
        "served": served.stats.served,
        "stats": served.stats.to_dict(),
        "image_key": served.image_key,
        "result_key": served.result_key,
        "fallback": served.fallback,
        "notes": list(served.notes),
        "coverage": dict(served.coverage),
    }
    if served.accuracy is not None:
        out["accuracy"] = {"precision": served.accuracy.precision,
                           "recall": served.accuracy.recall}
    if spec.get("output"):
        Path(spec["output"]).write_text(served.recovered.to_json())
        out["output"] = spec["output"]
    if spec.get("return_artifact"):
        out["artifact"] = served.recovered.to_json()
    return out


def _arm_worker_obs(spec: dict) -> bool:
    """Bring this worker's observability state in line with the
    parent's for one job; returns whether a payload must ship home."""
    armed = bool(spec.get("obs"))
    if armed:
        # Reset per job: the worker is reused, and its recorder may
        # hold pre-fork parent data or a previous job's counts — both
        # would double-count when the parent merges this payload.
        obs.enable(reset=True)
    ledger_path = spec.get("ledger_path")
    led = obs.ledger()
    if ledger_path:
        # File-backed: append directly (atomic O_APPEND writes), no
        # shipping needed.  Reopen only when the path changed.
        if led is None or led.path is None or str(led.path) != str(
                ledger_path):
            obs.enable_ledger(ledger_path)
    elif spec.get("ledger_mem"):
        # Parent records in memory: collect fresh events here and ship
        # them in the payload.
        obs.enable_ledger()
        armed = True
    elif led is not None and led.path is None:
        obs.disable_ledger()
    return armed


def _worker_main(conn, worker_id: int, store_root: str) -> None:
    """Worker process entry: serve job specs from ``conn`` until EOF or
    a ``None`` sentinel."""
    obs.fork_begin()   # drop any in-memory events inherited over fork
    store = ArtifactStore(store_root)
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            break
        if spec is None:
            break
        shipping = _arm_worker_obs(spec)
        try:
            with obs.span("worker.job", worker=worker_id,
                          job=spec.get("job", 0),
                          image=spec.get("image_key", "")):
                result = execute_job(spec, store)
            result["ok"] = True
        except Exception as exc:   # ship the failure, stay alive
            result = {"ok": False, "error": str(exc),
                      "kind": type(exc).__name__}
        result["worker"] = worker_id
        if shipping:
            result["obs"] = obs.export_payload()
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            break


class _Job:
    """One queued submission and its completion rendezvous."""

    __slots__ = ("seq", "spec", "affine", "done", "result", "worker",
                 "enqueued", "deadline")

    def __init__(self, seq: int, spec: dict, affine: int):
        self.seq = seq
        self.spec = spec
        self.affine = affine
        self.done = threading.Event()
        self.result: dict | None = None
        self.worker: int | None = None
        self.enqueued = time.monotonic()
        self.deadline: float | None = None


class _Worker:
    """Parent-side handle for one worker slot (survives respawns)."""

    __slots__ = ("idx", "proc", "conn", "job", "jobs_done", "failures",
                 "last_image")

    def __init__(self, idx: int):
        self.idx = idx
        self.proc = None
        self.conn = None
        self.job: _Job | None = None
        self.jobs_done = 0
        self.failures = 0
        self.last_image = ""


class JobScheduler:
    """A bounded-queue, affinity-dispatching pool of worker processes.

    One instance per daemon.  Handler threads call :meth:`submit`,
    which blocks until the job's result is available (or raises
    :class:`~repro.errors.SchedRejected` when the queue is full).
    """

    def __init__(self, workers: int, store_root,
                 max_depth: int | None = None,
                 job_timeout: float | None = None):
        self.workers = max(1, int(workers))
        self.store_root = str(store_root)
        self.max_depth = (int(max_depth) if max_depth is not None
                          else DEPTH_PER_WORKER * self.workers)
        self.job_timeout = job_timeout
        self.stats = {"submitted": 0, "completed": 0, "failed": 0,
                      "dispatched": 0, "affine": 0, "stolen": 0,
                      "rejected": 0, "timeouts": 0, "respawns": 0}
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: deque[_Job] = deque()
        self._slots = [_Worker(i) for i in range(self.workers)]
        self._seq = 0
        self._ewma_seconds = _SECONDS_SEED
        self._started = False
        self._closing = False
        self._stopping = False
        self._mp = multiprocessing.get_context("fork")
        self._threads: list[threading.Thread] = []

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Fork the worker pool and start the dispatch machinery.
        Call before the owning daemon spawns handler threads — workers
        fork cleanest from a single-threaded parent."""
        with self._cond:
            if self._started:
                return
            self._started = True
            for slot in self._slots:
                self._spawn_locked(slot)
        self._threads = [threading.Thread(
            target=self._dispatch_loop, name="sched-dispatch",
            daemon=True)]
        self._threads += [threading.Thread(
            target=self._recv_loop, args=(slot,),
            name=f"sched-recv-{slot.idx}", daemon=True)
            for slot in self._slots]
        for thread in self._threads:
            thread.start()

    def _spawn_locked(self, slot: _Worker) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        proc = self._mp.Process(
            target=_worker_main,
            args=(child_conn, slot.idx, self.store_root),
            name=f"repro-sched-worker-{slot.idx}", daemon=True)
        proc.start()
        child_conn.close()
        slot.proc, slot.conn = proc, parent_conn

    def _respawn_locked(self, slot: _Worker) -> None:
        if self._stopping:
            slot.proc, slot.conn = None, None
            return
        try:
            if slot.proc is not None and slot.proc.is_alive():
                slot.proc.kill()
            if slot.conn is not None:
                slot.conn.close()
        except OSError:
            pass
        self.stats["respawns"] += 1
        self._spawn_locked(slot)

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the scheduler.  ``drain=True`` lets queued and running
        jobs finish first (new submits are rejected immediately);
        ``drain=False`` fails queued jobs and kills running ones."""
        with self._cond:
            if not self._started or self._stopping:
                self._closing = True
                return
            self._closing = True
            if not drain:
                while self._queue:
                    job = self._queue.popleft()
                    job.result = {"ok": False, "kind": "SchedError",
                                  "error": "scheduler shut down before "
                                           "the job ran"}
                    job.done.set()
            self._cond.notify_all()
        if drain:
            deadline = time.monotonic() + timeout
            with self._cond:
                self._cond.wait_for(
                    lambda: not self._queue and all(
                        s.job is None for s in self._slots),
                    timeout=max(0.0, deadline - time.monotonic()))
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
            slots = list(self._slots)
        for slot in slots:
            conn, proc, job = slot.conn, slot.proc, slot.job
            if job is not None:      # undrained (or drain timed out)
                job.result = {"ok": False, "kind": "SchedError",
                              "error": "scheduler shut down mid-job"}
                job.done.set()
                slot.job = None
            if conn is not None:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            if proc is not None:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            slot.conn = slot.proc = None

    # -- submission ------------------------------------------------------

    def submit(self, spec: dict) -> dict:
        """Enqueue one job spec and block until its result.

        Returns the worker's result dict (``ok`` False carries
        ``error``/``kind`` of the failure).  Raises
        :class:`SchedRejected` past the depth bound and
        :class:`SchedError` once the scheduler is shutting down.
        """
        if not self._started:
            raise SchedError("scheduler is not started")
        # Snapshot the parent's observability state for the worker.
        led = obs.ledger()
        spec.setdefault("obs", obs.enabled())
        spec.setdefault("ledger_path",
                        str(led.path) if led is not None
                        and led.path is not None else None)
        spec.setdefault("ledger_mem",
                        led is not None and led.path is None)
        with self._cond:
            if self._closing:
                raise SchedError("scheduler is shutting down")
            depth = len(self._queue)
            if depth >= self.max_depth:
                self.stats["rejected"] += 1
                hint = max(1.0, (depth + 1) * self._ewma_seconds
                           / self.workers)
                obs.count("sched.reject")
                obs.event("sched.reject", depth=depth,
                          image=spec.get("image_key", ""),
                          retry_after=round(hint, 1))
                raise SchedRejected(
                    f"job queue full ({depth} jobs deep, "
                    f"{self.workers} workers); retry in ~{hint:.0f}s",
                    retry_after=hint)
            self._seq += 1
            job = _Job(self._seq, spec,
                       affinity_worker(spec.get("image_key", ""),
                                       self.workers))
            self._queue.append(job)
            self.stats["submitted"] += 1
            obs.gauge("sched.queue_depth", len(self._queue))
            self._cond.notify_all()
        job.done.wait()
        result = dict(job.result or {})
        obs.merge_payload(result.pop("obs", None))
        return result

    # -- dispatch --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopping and not self._assign_locked():
                    self._cond.wait()
                if self._stopping:
                    return

    def _assign_locked(self) -> bool:
        """Assign queued jobs to idle workers; affine placements first,
        then FIFO work-stealing onto whatever idle workers remain.
        Returns True when at least one job was dispatched."""
        if not self._queue:
            return False
        if all(s.job is not None or s.conn is None
               for s in self._slots):
            return False
        assigned = False
        deferred: deque[_Job] = deque()
        while self._queue:
            job = self._queue.popleft()
            slot = self._slots[job.affine]
            if slot.job is None and slot.conn is not None:
                assigned |= self._start_job_locked(slot, job,
                                                   stolen=False)
            else:
                deferred.append(job)
        idle = deque(s for s in self._slots
                     if s.job is None and s.conn is not None)
        while deferred and idle:
            job = deferred.popleft()
            assigned |= self._start_job_locked(idle.popleft(), job,
                                               stolen=True)
        self._queue.extendleft(reversed(deferred))
        obs.gauge("sched.queue_depth", len(self._queue))
        return assigned

    def _start_job_locked(self, slot: _Worker, job: _Job,
                          stolen: bool) -> bool:
        try:
            slot.conn.send(job.spec)
        except (BrokenPipeError, OSError):
            # The worker died while idle: revive it and requeue the
            # job; the fresh worker picks it up on the next pass.
            self._respawn_locked(slot)
            self._queue.appendleft(job)
            return False
        slot.job = job
        slot.last_image = job.spec.get("image_key", "")
        job.worker = slot.idx
        # Wake this slot's recv loop — it may have re-checked (and gone
        # back to waiting) between the submit notify and this dispatch.
        self._cond.notify_all()
        if self.job_timeout is not None:
            job.deadline = time.monotonic() + self.job_timeout
        self.stats["dispatched"] += 1
        waited = time.monotonic() - job.enqueued
        if stolen:
            self.stats["stolen"] += 1
            obs.count("sched.steal")
            obs.event("sched.steal", job=job.seq, worker=slot.idx,
                      affine=job.affine,
                      image=job.spec.get("image_key", ""),
                      waited=round(waited, 4))
        else:
            self.stats["affine"] += 1
            obs.count("sched.dispatch")
            obs.event("sched.dispatch", job=job.seq, worker=slot.idx,
                      image=job.spec.get("image_key", ""),
                      waited=round(waited, 4))
        return True

    # -- completion ------------------------------------------------------

    def _recv_loop(self, slot: _Worker) -> None:
        while True:
            with self._cond:
                while slot.job is None and not self._stopping:
                    self._cond.wait()
                if self._stopping:
                    return
                job, conn = slot.job, slot.conn
            result, died = None, False
            while True:
                try:
                    if conn.poll(0.1):
                        result = conn.recv()
                        break
                except (EOFError, OSError):
                    died = True
                    break
                if job.deadline is not None \
                        and time.monotonic() > job.deadline:
                    break
                with self._lock:
                    if self._stopping:
                        return
            self._complete(slot, job, result, died)

    def _complete(self, slot: _Worker, job: _Job, result, died: bool) \
            -> None:
        elapsed = time.monotonic() - job.enqueued
        timed_out = False
        with self._cond:
            if result is None:
                if died:
                    code = (slot.proc.exitcode
                            if slot.proc is not None else None)
                    result = {"ok": False, "kind": "WorkerDied",
                              "error": f"worker {slot.idx} died "
                                       f"mid-job (exit {code})"}
                else:   # deadline passed with the worker still running
                    self.stats["timeouts"] += 1
                    timed_out = True
                    result = {"ok": False, "kind": "JobTimeout",
                              "error": f"job exceeded the "
                                       f"{self.job_timeout:g}s "
                                       f"wall-clock limit"}
                self._respawn_locked(slot)
                slot.failures += 1
            else:
                slot.jobs_done += 1
                # Completed-job moving average feeds the retry hint.
                self._ewma_seconds = (0.7 * self._ewma_seconds
                                      + 0.3 * elapsed)
            if result.get("ok"):
                self.stats["completed"] += 1
            else:
                self.stats["failed"] += 1
            slot.job = None
            self._cond.notify_all()
        if timed_out:
            obs.count("sched.timeout")
            obs.event("job.timeout", job=job.seq, worker=slot.idx,
                      seconds=self.job_timeout,
                      image=job.spec.get("image_key", ""))
        job.result = result
        job.done.set()

    # -- introspection ---------------------------------------------------

    def depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def snapshot(self) -> dict:
        """Status-op view: pool shape, counters, per-worker state."""
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": len(self._queue),
                "max_depth": self.max_depth,
                "job_timeout": self.job_timeout,
                "stats": dict(self.stats),
                "per_worker": [
                    {"worker": s.idx,
                     "busy": s.job is not None,
                     "jobs": s.jobs_done,
                     "failures": s.failures,
                     "last_image": s.last_image,
                     # No optimizer or lowering state outlives a job;
                     # the empty mapping keeps the status schema that
                     # readers (the warm-campaign benchmark) expect.
                     "warm": {}}
                    for s in self._slots],
            }

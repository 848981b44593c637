"""repro.serve — recompilation as a service.

A long-lived daemon (``python -m repro serve``) that accepts
recompilation jobs over a local Unix socket, runs them through the
store-backed incremental pipeline
(:func:`repro.core.incremental.incremental_recompile`), and accumulates
per-image input sets as named **campaigns** (the BinRec model: every
submission grows the campaign's traced input set, so coverage only ever
improves).

Why a daemon beats N one-shot processes:

* the content-addressed :class:`~repro.store.ArtifactStore` persists
  traces and results across requests (and across daemon restarts);
* jobs execute on a pool of long-lived worker processes
  (:mod:`repro.sched`; ``--workers N``, default 1), each keeping its
  warm in-process caches between jobs, and an input addition
  re-traces only the new input;
* distinct images recompile concurrently, repeat requests for one
  image are routed to the same worker (image-affinity dispatch with
  work-stealing fallback), and a bounded queue applies backpressure.
  Any worker count produces byte-identical artifacts because every
  reuse layer is content-pinned.

Protocol: line-delimited JSON — one request object per line, one
response object per line, over ``AF_UNIX``.  Requests carry an ``op``:

``ping``      liveness probe -> ``{"ok": true, "pid": ...}``
``submit``    run a job: ``image`` (path) or ``image_json`` (inline),
              ``inputs`` (list of runs; items are ints or
              ``{"b": "latin-1 bytes"}``), optional ``campaign``,
              ``options`` (``optimize``/``check``/``static_widen``/
              ``hybrid``), ``output`` (path for the recovered image)
              and ``return_artifact`` (inline the recovered JSON).
``status``    daemon counters + store stats + campaign list +
              scheduler snapshot under ``sched``
``campaign``  one campaign's summary (``name``)
``shutdown``  stop the daemon (responds first, drains in-flight jobs,
              then exits; new submits are rejected during the drain)

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": msg,
"kind": ExceptionName}`` — a backpressure rejection additionally
carries ``retry_after`` seconds.  The full schema is documented in
DESIGN.md.

Observability: ledger events ``job.submitted`` / ``job.started`` /
``job.finished`` (plus ``job.timeout`` and the ``sched.*`` dispatch
stream), a ``job.execute`` span per job, and the store's
``store.hit`` / ``store.miss`` / ``store.put`` stream — ``repro obs
diff`` over two reports shows exactly what a warm run reused.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import socketserver
import threading
from pathlib import Path

from . import obs
from .binary.image import BinaryImage
from .errors import RemoteJobError, ServeError
from .sched import JobScheduler
from .store import ArtifactStore, decode_runs, encode_runs, image_key

__all__ = ["RecompileServer", "ServeClient", "serve_forever"]

#: Protocol revision, echoed by ``ping`` so clients can detect drift.
PROTOCOL_VERSION = 1

#: Largest accepted request line (a 4 MB image JSON fits comfortably).
MAX_REQUEST_BYTES = 64 * 1024 * 1024


def _limit_text(limit: int) -> str:
    if limit % (1024 * 1024) == 0:
        return f"{limit // (1024 * 1024)} MB"
    return f"{limit} byte"


class RecompileServer:
    """The daemon: a threading Unix-socket server plus a job scheduler.

    One instance per socket path.  Connections are handled on threads;
    every job is dispatched to the :class:`~repro.sched.JobScheduler`
    worker pool.  Campaigns serialize per-name only.
    """

    def __init__(self, socket_path: str | Path,
                 store: ArtifactStore | str | Path | None = None,
                 workers: int = 1,
                 queue_depth: int | None = None,
                 job_timeout: float | None = None):
        self.socket_path = Path(socket_path)
        if isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store)
        self.workers = max(1, int(workers))
        self.max_request_bytes = MAX_REQUEST_BYTES
        self.sched = JobScheduler(
            self.workers, store_root=self.store.root,
            max_depth=queue_depth, job_timeout=job_timeout)
        self._state_lock = threading.Lock()
        self._campaign_locks: dict[str, threading.Lock] = {}
        self._job_seq = 0
        self.stats = {"jobs": 0, "served_store": 0,
                      "served_incremental": 0, "served_cold": 0,
                      "errors": 0}
        self._server: socketserver.BaseServer | None = None
        self._shutdown = threading.Event()

    # -- lifecycle -------------------------------------------------------

    def serve_forever(self) -> None:
        """Bind the socket and serve until :meth:`shutdown`."""
        if self.socket_path.exists():
            # A stale socket from a crashed daemon: refuse to steal a
            # live one, silently replace a dead one.
            if self._socket_alive():
                raise ServeError(
                    f"another daemon is serving {self.socket_path}")
            self.socket_path.unlink()
        # Fork the worker pool before any handler threads exist.
        self.sched.start()
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                outer._handle_connection(self)

        class Server(socketserver.ThreadingMixIn,
                     socketserver.UnixStreamServer):
            daemon_threads = True
            allow_reuse_address = True

        self._server = Server(str(self.socket_path), Handler)
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def _socket_alive(self) -> bool:
        try:
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.5)
            probe.connect(str(self.socket_path))
            probe.close()
            return True
        except OSError:
            return False

    def shutdown(self) -> None:
        """Stop accepting jobs, drain the scheduler, stop the accept
        loop (callable from handler threads).  Submissions that arrive
        during the drain are rejected with a clean error; jobs already
        queued or running complete and their responses are written."""
        self._shutdown.set()

        def _stop():
            try:
                self.sched.close(drain=True)
            except Exception:
                pass
            server = self._server
            if server is not None:
                server.shutdown()

        threading.Thread(target=_stop, daemon=True).start()

    def close(self) -> None:
        self.sched.close(drain=False)
        try:
            self.socket_path.unlink()
        except OSError:
            pass

    # -- connection handling ---------------------------------------------

    def _handle_connection(self, handler) -> None:
        while True:
            limit = self.max_request_bytes
            line = handler.rfile.readline(limit + 1)
            if not line:
                return
            if len(line) > limit:
                # ``readline`` stopped mid-line: the request exceeds
                # the cap and everything still in the stream is the
                # tail of the same line, so there is no way to resync —
                # report clearly and drop the connection.  (Without
                # this check the truncated prefix would surface as a
                # baffling JSONDecodeError.)
                with self._state_lock:
                    self.stats["errors"] += 1
                self._respond(handler, {
                    "ok": False, "kind": "ServeError",
                    "error": f"request exceeds the "
                             f"{_limit_text(limit)} limit"})
                return
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ServeError("request must be a JSON object")
                response = self.dispatch(request)
            except Exception as exc:  # the daemon must not die
                with self._state_lock:
                    self.stats["errors"] += 1
                response = {
                    "ok": False, "error": str(exc),
                    "kind": getattr(exc, "remote_kind",
                                    type(exc).__name__)}
                retry = getattr(exc, "retry_after", None)
                if retry is not None:
                    response["retry_after"] = round(retry, 1)
            self._respond(handler, response)
            if response.get("op") == "shutdown" and response.get("ok"):
                self.shutdown()
                return

    @staticmethod
    def _respond(handler, response: dict) -> None:
        handler.wfile.write(
            (json.dumps(response, default=repr) + "\n").encode())
        handler.wfile.flush()

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION,
                    "workers": self.workers}
        if op == "status":
            with self._state_lock:
                stats = dict(self.stats)
            return {"ok": True, "op": "status",
                    "workers": self.workers,
                    "stats": stats, "store": dict(self.store.stats),
                    "store_root": str(self.store.root),
                    "campaigns": self.store.list_campaigns(),
                    "sched": self.sched.snapshot()}
        if op == "campaign":
            name = request.get("name")
            campaign = self.store.load_campaign(name) if name else None
            if campaign is None:
                raise ServeError(f"unknown campaign {name!r}")
            return {"ok": True, "op": "campaign",
                    "campaign": campaign.to_dict()}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        if op == "submit":
            return self._submit(request)
        raise ServeError(f"unknown op {op!r}")

    # -- jobs ------------------------------------------------------------

    def _load_image(self, request: dict,
                    campaign) -> tuple[BinaryImage, str]:
        if request.get("image_json"):
            image = BinaryImage.from_json(request["image_json"])
        elif request.get("image"):
            image = BinaryImage.from_json(
                Path(request["image"]).read_text())
        elif campaign is not None:
            src = self.store.get("source", campaign.image_key)
            if src is None:
                raise ServeError(
                    f"campaign {campaign.name!r} has no stored image; "
                    f"resubmit with 'image'")
            return BinaryImage.from_json(src), campaign.image_key
        else:
            raise ServeError("submit needs 'image' or 'image_json'")
        key = image_key(image)
        # Persist the source so campaign resubmissions can omit it.
        if not self.store.contains("source", key):
            self.store.put("source", key, image.to_json())
        return image, key

    def _campaign_mutex(self, name: str) -> threading.Lock:
        with self._state_lock:
            lock = self._campaign_locks.get(name)
            if lock is None:
                lock = self._campaign_locks[name] = threading.Lock()
            return lock

    def _submit(self, request: dict) -> dict:
        if self._shutdown.is_set():
            raise ServeError("daemon is shutting down; job rejected")
        with self._state_lock:
            self._job_seq += 1
            job_id = self._job_seq
        runs = decode_runs(request.get("inputs", []))
        campaign_name = request.get("campaign")
        options = request.get("options") or {}
        obs.event("job.submitted", job=job_id,
                  campaign=campaign_name, inputs=len(runs))
        obs.count("serve.jobs.submitted")
        # Only same-campaign submissions serialize (the
        # accumulate-then-run contract needs it); distinct images run
        # fully concurrently.
        guard = (self._campaign_mutex(campaign_name) if campaign_name
                 else contextlib.nullcontext())
        with guard:
            campaign = (self.store.load_campaign(campaign_name)
                        if campaign_name else None)
            if campaign_name and campaign is None and not runs \
                    and not (request.get("image")
                             or request.get("image_json")):
                raise ServeError(
                    f"new campaign {campaign_name!r} needs an image "
                    f"and at least one input")
            image, img_key = self._load_image(request, campaign)
            if campaign_name:
                if campaign is None:
                    from .store import Campaign
                    campaign = Campaign(name=campaign_name,
                                        image_key=img_key)
                elif campaign.image_key != img_key:
                    raise ServeError(
                        f"campaign {campaign_name!r} is bound to image "
                        f"{campaign.image_key}, got {img_key}")
                campaign.add_inputs(runs)
                # Jobs run over the accumulated set: coverage grows
                # monotonically across submissions.
                runs = [list(items) for items in campaign.inputs]
                if not runs:
                    raise ServeError(
                        f"campaign {campaign_name!r} has no inputs")
            if not runs:
                raise ServeError("submit needs at least one input run")
            spec = {
                "op": "recompile", "job": job_id,
                "image_key": img_key,
                "inputs": encode_runs(runs),
                "options": options,
                "output": request.get("output"),
                "return_artifact": bool(request.get("return_artifact")),
                "image_json": image.to_json(),
            }
            obs.event("job.started", job=job_id, image=img_key,
                      campaign=campaign_name, inputs=len(runs))
            with obs.span("job.execute", job=job_id,
                          campaign=campaign_name or "",
                          inputs=len(runs)) as sp:
                result = self.sched.submit(spec)
                if not result.get("ok"):
                    raise RemoteJobError(
                        result.get("error", "job failed"),
                        remote_kind=result.get("kind", "RemoteJobError"))
                if obs.enabled():
                    sp.set(worker=result["worker"], **result["stats"])
            job_stats = result["stats"]
            self.store.absorb(hit=job_stats["store_hits"],
                              miss=job_stats["store_misses"],
                              put=job_stats["store_puts"])
            with self._state_lock:
                self.stats["jobs"] += 1
                self.stats[f"served_{result['served']}"] += 1
            if campaign_name:
                campaign.jobs += 1
                campaign.coverage = dict(result["coverage"])
                self.store.save_campaign(campaign)
            obs.count(f"serve.jobs.{result['served']}")
        obs.event("job.finished", job=job_id, **job_stats)
        response: dict = {
            "ok": True, "op": "submit", "job": job_id,
            "served": result["served"],
            "stats": job_stats,
            "image_key": result["image_key"],
            "result_key": result["result_key"],
            "fallback": result["fallback"],
            "notes": result["notes"],
            "coverage": result["coverage"],
            "worker": result["worker"],
        }
        if campaign_name:
            response["campaign"] = campaign.to_dict()
        if result.get("accuracy") is not None:
            response["accuracy"] = result["accuracy"]
        if result.get("output"):
            response["output"] = result["output"]
        if result.get("artifact") is not None:
            response["artifact"] = result["artifact"]
        return response


class ServeClient:
    """Line-delimited-JSON client for a :class:`RecompileServer`.

    One connection per request keeps the client trivially robust; the
    daemon holds no per-connection state.  ``timeout`` bounds the whole
    exchange (connect, send, and the wait for the response), so a
    wedged daemon produces a clean :class:`ServeError` instead of a
    hang.
    """

    def __init__(self, socket_path: str | Path, timeout: float = 600.0):
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def request(self, op: str, **fields) -> dict:
        doc = {"op": op, **fields}
        try:
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(self.timeout)
            conn.connect(self.socket_path)
            conn.sendall((json.dumps(doc) + "\n").encode())
            chunks = []
            while True:
                chunk = conn.recv(1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
            conn.close()
        except socket.timeout as exc:
            raise ServeError(
                f"daemon at {self.socket_path} did not respond within "
                f"{self.timeout:g}s — it may be wedged, or the job is "
                f"still running (raise --timeout for long jobs)") \
                from exc
        except OSError as exc:
            raise ServeError(
                f"cannot reach daemon at {self.socket_path}: {exc}") \
                from exc
        if not chunks:
            raise ServeError("daemon closed the connection mid-request")
        response = json.loads(b"".join(chunks))
        if not response.get("ok"):
            hint = ""
            if response.get("retry_after") is not None:
                hint = f" (retry in ~{response['retry_after']:g}s)"
            raise ServeError(
                f"{response.get('kind', 'error')}: "
                f"{response.get('error', 'request failed')}{hint}")
        return response

    def ping(self) -> dict:
        return self.request("ping")

    def status(self) -> dict:
        return self.request("status")

    def campaign(self, name: str) -> dict:
        return self.request("campaign", name=name)

    def shutdown(self) -> dict:
        return self.request("shutdown")

    def submit(self, image: str | Path | None = None,
               image_json: str | None = None,
               inputs: list[list] | None = None,
               campaign: str | None = None,
               options: dict | None = None,
               output: str | None = None,
               return_artifact: bool = False) -> dict:
        fields: dict = {"inputs": encode_runs(inputs or [])}
        if image is not None:
            fields["image"] = str(image)
        if image_json is not None:
            fields["image_json"] = image_json
        if campaign is not None:
            fields["campaign"] = campaign
        if options:
            fields["options"] = options
        if output is not None:
            fields["output"] = output
        if return_artifact:
            fields["return_artifact"] = True
        return self.request("submit", **fields)


def serve_forever(socket_path: str | Path,
                  store: str | Path | None = None,
                  workers: int = 1,
                  queue_depth: int | None = None,
                  job_timeout: float | None = None) -> RecompileServer:
    """Convenience entry: build a server and block serving requests."""
    server = RecompileServer(socket_path, store=store,
                             workers=workers,
                             queue_depth=queue_depth,
                             job_timeout=job_timeout)
    server.serve_forever()
    return server

"""The recompilation daemon: protocol, scheduling, campaigns."""

import json
import os
import shutil
import socket
import tempfile
import threading
import time

import pytest

from repro import compile_source, obs, run_binary
from repro.binary import BinaryImage
from repro.errors import ServeError
from repro.serve import PROTOCOL_VERSION, RecompileServer, ServeClient
from repro.store import ArtifactStore

SOURCE = r"""
int score(int kind, int value) {
    if (kind == 0) return value * 2;
    if (kind == 1) return value + 100;
    return -value;
}

int main() {
    int kind = read_int();
    int value = read_int();
    printf("score=%d\n", score(kind, value));
    return 0;
}
"""


@pytest.fixture(scope="module")
def image():
    return compile_source(SOURCE, "gcc12", "3", "servetest")


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs.disable_ledger()
    obs.disable()


def _wait_for_socket(path: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.02)
    raise RuntimeError(f"daemon socket {path} never appeared")


def _wait_for_daemon(path: str, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return ServeClient(path, timeout=timeout).ping()
        except ServeError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.02)


@pytest.fixture
def served(tmp_path):
    # AF_UNIX paths are length-limited (~104 bytes); pytest tmp paths
    # can exceed that, so the socket lives in a short mkdtemp dir.
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock, store=ArtifactStore(tmp_path / "store"))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _wait_for_socket(sock)
    client = ServeClient(sock, timeout=300)
    try:
        yield server, client
    finally:
        if not server._shutdown.is_set():
            try:
                client.shutdown()
            except ServeError:
                pass
        thread.join(timeout=10)
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_ping_reports_protocol(served):
    server, client = served
    response = client.ping()
    assert response["pid"] == os.getpid()
    assert response["protocol"] == PROTOCOL_VERSION


def test_resubmission_is_served_from_store_byte_identical(served, image):
    server, client = served
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          return_artifact=True)
    assert first["served"] == "cold"
    assert first["stats"]["traces_recorded"] == 1

    second = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                           return_artifact=True)
    assert second["served"] == "store"
    assert second["stats"]["traces_recorded"] == 0
    assert second["artifact"] == first["artifact"]
    assert second["result_key"] == first["result_key"]

    recovered = BinaryImage.from_json(first["artifact"])
    assert run_binary(recovered, [0, 7]).stdout == b"score=14\n"


def test_campaign_accumulates_inputs_and_stores_source(served, image):
    server, client = served
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          campaign="demo")
    assert first["campaign"]["inputs"] == [[0, 7]]

    # The source is persisted, so follow-ups can omit the image; the
    # job runs over the accumulated input set.
    second = client.submit(inputs=[[2, 5]], campaign="demo",
                           return_artifact=True)
    assert second["served"] == "incremental"
    assert second["stats"]["traces_reused"] == 1
    assert second["stats"]["traces_recorded"] == 1
    assert second["campaign"]["inputs"] == [[0, 7], [2, 5]]
    assert second["campaign"]["jobs"] == 2
    assert second["coverage"]["inputs"] == 2

    summary = client.campaign("demo")["campaign"]
    assert summary["inputs"] == [[0, 7], [2, 5]]
    assert summary["coverage"] == second["coverage"]

    recovered = BinaryImage.from_json(second["artifact"])
    assert run_binary(recovered, [2, 5]).stdout == b"score=-5\n"
    assert run_binary(recovered, [0, 7]).stdout == b"score=14\n"


def test_status_reports_stats_and_warm_caches(served, image):
    server, client = served
    client.submit(image_json=image.to_json(), inputs=[[1, 7]])
    status = client.status()
    assert status["stats"]["jobs"] == 1
    assert status["stats"]["served_cold"] == 1
    assert status["store"]["put"] >= 2
    assert status["campaigns"] == []


def test_errors_do_not_kill_the_daemon(served, image):
    server, client = served
    with pytest.raises(ServeError, match="unknown op"):
        client.request("frobnicate")
    with pytest.raises(ServeError, match="needs 'image'"):
        client.submit(inputs=[[1]])
    with pytest.raises(ServeError, match="unknown campaign"):
        client.campaign("absent")
    with pytest.raises(ServeError, match="at least one input"):
        client.submit(image_json=image.to_json())
    assert client.ping()["ok"]
    assert client.status()["stats"]["errors"] == 4
    assert client.status()["stats"]["jobs"] == 0


def test_campaign_rejects_image_rebinding(served, image):
    server, client = served
    other = compile_source(SOURCE.replace("* 2", "* 3"),
                           "gcc12", "3", "servetest2")
    client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                  campaign="demo")
    with pytest.raises(ServeError, match="bound to image"):
        client.submit(image_json=other.to_json(), inputs=[[1, 1]],
                      campaign="demo")


def test_malformed_request_line_gets_error_response(served):
    server, client = served
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(client.socket_path)
    conn.sendall(b"this is not json\n")
    raw = conn.makefile("rb").readline()
    conn.close()
    response = json.loads(raw)
    assert response["ok"] is False
    assert response["kind"] == "JSONDecodeError"


def test_job_events_reach_the_ledger(served, image):
    server, client = served
    led = obs.enable_ledger()
    client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                  campaign="demo")
    kinds = [e["kind"] for e in led.events]
    for kind in ("job.submitted", "job.started", "job.finished",
                 "store.miss", "store.put"):
        assert kind in kinds, kind
    finished = [e for e in led.events if e["kind"] == "job.finished"]
    assert finished[0]["served"] == "cold"
    assert finished[0]["job"] == 1


def test_stale_socket_is_replaced_live_socket_refused(served):
    server, client = served
    # A second daemon must refuse to steal the live socket.
    rival = RecompileServer(server.socket_path, store=server.store)
    with pytest.raises(ServeError, match="another daemon"):
        rival.serve_forever()
    assert client.ping()["ok"]  # the refusal left the live daemon alone
    # But a dead leftover socket file is silently replaced.
    sockdir = tempfile.mkdtemp(prefix="repro-stale-")
    stale = os.path.join(sockdir, "d.sock")
    try:
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(stale)
        dead.close()  # file remains, nobody listening
        fresh = RecompileServer(stale, store=server.store)
        thread = threading.Thread(target=fresh.serve_forever,
                                  daemon=True)
        thread.start()
        assert _wait_for_daemon(stale)["ok"]
        ServeClient(stale).shutdown()
        thread.join(timeout=10)
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)


def test_shutdown_stops_the_daemon_and_removes_socket(served):
    server, client = served
    assert client.shutdown()["ok"]
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and os.path.exists(
            client.socket_path):
        time.sleep(0.02)
    assert not os.path.exists(client.socket_path)
    with pytest.raises(ServeError, match="cannot reach"):
        client.ping()


# -- request-size limit ---------------------------------------------------

def test_oversized_request_gets_a_clear_error(served):
    server, client = served
    server.max_request_bytes = 4096
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10)
    conn.connect(client.socket_path)
    conn.sendall(b'{"op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
    raw = conn.makefile("rb").readline()
    conn.close()
    response = json.loads(raw)
    assert response["ok"] is False
    assert response["kind"] == "ServeError"
    assert "exceeds the 4096 byte limit" in response["error"]
    # An in-limit request on a fresh connection still works.
    assert client.ping()["ok"]
    assert client.status()["stats"]["errors"] == 1


# -- client timeout -------------------------------------------------------

def test_client_timeout_is_a_clean_error():
    sockdir = tempfile.mkdtemp(prefix="repro-wedge-")
    sock = os.path.join(sockdir, "d.sock")
    try:
        # A listener that accepts but never responds: a wedged daemon.
        wedged = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        wedged.bind(sock)
        wedged.listen(1)
        client = ServeClient(sock, timeout=0.3)
        with pytest.raises(ServeError,
                           match="did not respond within 0.3s"):
            client.ping()
        wedged.close()
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)


# -- worker-pool mode -----------------------------------------------------

@pytest.fixture
def pooled(tmp_path):
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock,
                             store=ArtifactStore(tmp_path / "store"),
                             workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _wait_for_socket(sock)
    client = ServeClient(sock, timeout=300)
    try:
        yield server, client
    finally:
        if not server._shutdown.is_set():
            try:
                client.shutdown()
            except ServeError:
                pass
        thread.join(timeout=15)
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_pool_serves_jobs_and_reports_sched_status(pooled, image):
    server, client = pooled
    assert client.ping()["workers"] == 2
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          return_artifact=True)
    assert first["served"] == "cold"
    assert first["worker"] in (0, 1)
    second = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                           return_artifact=True)
    assert second["served"] == "store"
    assert second["worker"] == first["worker"]  # image affinity
    assert second["artifact"] == first["artifact"]
    status = client.status()
    sched = status["sched"]
    assert sched["workers"] == 2
    assert sched["stats"]["completed"] == 2
    assert sched["stats"]["affine"] == 2
    worker = sched["per_worker"][first["worker"]]
    assert worker["jobs"] == 2
    assert worker["last_image"] == first["image_key"]
    # The warm-campaign benchmark reads each worker's ``warm`` mapping.
    assert all(isinstance(w["warm"], dict) for w in sched["per_worker"])


def test_pool_campaigns_accumulate_across_workers(pooled, image):
    server, client = pooled
    first = client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                          campaign="demo")
    assert first["campaign"]["inputs"] == [[0, 7]]
    second = client.submit(inputs=[[2, 5]], campaign="demo")
    assert second["served"] == "incremental"
    assert second["stats"]["traces_reused"] == 1
    assert second["campaign"]["inputs"] == [[0, 7], [2, 5]]


def test_pool_job_events_and_sched_events_reach_the_ledger(pooled,
                                                           image):
    server, client = pooled
    led = obs.enable_ledger()
    obs.enable(reset=True)
    client.submit(image_json=image.to_json(), inputs=[[0, 7]])
    kinds = [e["kind"] for e in led.events]
    # Parent-side scheduling events and the worker's shipped pipeline
    # events both land in the parent's in-memory ledger.
    for kind in ("job.submitted", "job.started", "sched.dispatch",
                 "store.put", "job.finished"):
        assert kind in kinds, kind
    assert obs.recorder().registry.counters["sched.dispatch"] == 1


def test_pool_worker_errors_keep_their_kind(pooled, image):
    server, client = pooled
    # The job fails inside the worker process (the output path's
    # directory does not exist); the original exception class name must
    # survive the process hop instead of flattening to RemoteJobError.
    with pytest.raises(ServeError, match="FileNotFoundError"):
        client.submit(image_json=image.to_json(), inputs=[[0, 7]],
                      output="/nonexistent-repro-dir/out.json")
    assert client.ping()["ok"]
    status = client.status()
    assert status["sched"]["stats"]["failed"] == 1
    assert status["sched"]["stats"]["respawns"] == 0  # worker survived


SLOW_SOURCE = r"""
int main() {
    int n = read_int();
    int s = 0;
    int i = 0;
    while (i < n) { s = s + i; i = i + 1; }
    printf("s=%d\n", s);
    return 0;
}
"""


def test_pool_job_timeout_fails_job_and_daemon_survives(tmp_path):
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    server = RecompileServer(sock,
                             store=ArtifactStore(tmp_path / "store"),
                             workers=1, job_timeout=0.4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _wait_for_socket(sock)
        client = ServeClient(sock, timeout=300)
        # Tracing a 10k-iteration loop takes seconds — far past the
        # 0.4s limit — so the deadline fires mid-job deterministically.
        slow = compile_source(SLOW_SOURCE, "gcc12", "3", "slowjob")
        with pytest.raises(ServeError,
                           match="JobTimeout.*wall-clock limit"):
            client.submit(image_json=slow.to_json(), inputs=[[10000]])
        # The worker slot was recycled; the daemon still serves.
        assert client.ping()["ok"]
        status = client.status()
        assert status["sched"]["stats"]["timeouts"] == 1
        assert status["sched"]["stats"]["respawns"] == 1
        client.shutdown()
        thread.join(timeout=15)
    finally:
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_job_timeout_requires_workers(tmp_path):
    with pytest.raises(ServeError, match="needs the worker pool"):
        RecompileServer(tmp_path / "d.sock",
                        store=ArtifactStore(tmp_path / "store"),
                        job_timeout=5.0)


def test_pool_backpressure_reports_retry_hint(tmp_path, image):
    sockdir = tempfile.mkdtemp(prefix="repro-serve-")
    sock = os.path.join(sockdir, "d.sock")
    # A zero-depth queue rejects every submission — degenerate on
    # purpose, to exercise the protocol's retry_after plumbing without
    # timing-sensitive queue saturation.
    server = RecompileServer(sock,
                             store=ArtifactStore(tmp_path / "store"),
                             workers=1, queue_depth=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _wait_for_socket(sock)
        client = ServeClient(sock, timeout=60)
        with pytest.raises(ServeError,
                           match=r"queue full.*retry in ~\d"):
            client.submit(image_json=image.to_json(), inputs=[[0, 7]])
        assert client.status()["sched"]["stats"]["rejected"] == 1
        client.shutdown()
        thread.join(timeout=15)
    finally:
        server.close()
        shutil.rmtree(sockdir, ignore_errors=True)


def test_shutdown_drains_inflight_jobs_and_rejects_new_ones(pooled,
                                                            image):
    server, client = pooled
    distinct = [image] + [
        compile_source(SOURCE.replace("value * 2", f"value * {k}"),
                       "gcc12", "3", f"drain{k}") for k in (7, 11)]
    boxes = []

    def submit(img):
        box = {}
        try:
            box["response"] = ServeClient(
                client.socket_path, timeout=300).submit(
                    image_json=img.to_json(), inputs=[[0, 3]])
        except ServeError as exc:
            box["error"] = exc
        boxes.append(box)

    threads = [threading.Thread(target=submit, args=(img,), daemon=True)
               for img in distinct]
    for thread in threads:
        thread.start()
    time.sleep(0.3)   # let some jobs reach the scheduler
    client.shutdown()
    for thread in threads:
        thread.join(timeout=60)
    assert len(boxes) == 3
    for box in boxes:
        # Every concurrent submission either completed (drained) or was
        # cleanly rejected — never a hang, never a torn response.
        if "response" in box:
            assert box["response"]["ok"]
        else:
            assert isinstance(box["error"], ServeError)
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline and os.path.exists(
            client.socket_path):
        time.sleep(0.02)
    assert not os.path.exists(client.socket_path)


def test_stale_socket_is_replaced_under_worker_pool(tmp_path):
    sockdir = tempfile.mkdtemp(prefix="repro-stale-")
    stale = os.path.join(sockdir, "d.sock")
    try:
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        dead.bind(stale)
        dead.close()   # leftover file, nobody listening
        fresh = RecompileServer(stale,
                                store=ArtifactStore(tmp_path / "store"),
                                workers=2)
        thread = threading.Thread(target=fresh.serve_forever,
                                  daemon=True)
        thread.start()
        assert _wait_for_daemon(stale)["workers"] == 2
        ServeClient(stale).shutdown()
        thread.join(timeout=15)
        fresh.close()
    finally:
        shutil.rmtree(sockdir, ignore_errors=True)

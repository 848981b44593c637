"""The structured event ledger: typing, schema, process/thread safety."""

import json
import threading

import pytest

from repro import obs
from repro.evaluation.harness import sweep
from repro.obs import events as ev
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload

TINY = Workload(
    name="tinyledger",
    source=r'''
int twice(int x) { return x + x; }
int main() {
    int total = 0;
    int i;
    for (i = 0; i < 20; i++) total += twice(i) & 0x3F;
    printf("%d\n", total);
    return 0;
}
''',
    ref_inputs=((),),
    description="event-ledger sweep kernel",
)


@pytest.fixture(autouse=True)
def _ledger_off():
    yield
    obs.disable_ledger()
    obs.disable()


def test_emit_rejects_unknown_kind():
    led = obs.enable_ledger()
    with pytest.raises(ValueError, match="unknown event kind"):
        led.emit("no.such.kind")


def test_in_memory_events_carry_schema_and_sequence():
    led = obs.enable_ledger()
    obs.event("store.hit", artifact="trace", key="f")
    obs.event("store.miss", artifact="trace", key="g")
    assert [e["kind"] for e in led.events] == ["store.hit", "store.miss"]
    assert [e["seq"] for e in led.events] == [1, 2]
    assert all(e["v"] == obs.LEDGER_SCHEMA_VERSION for e in led.events)
    assert all(e["pid"] > 0 for e in led.events)


def test_event_is_noop_when_disabled():
    obs.disable_ledger()
    assert obs.ledger() is None
    obs.event("store.hit")  # must not raise, must not record anywhere


def test_fields_are_converted_to_json_values():
    led = obs.enable_ledger()
    doc = led.emit("trace.merged", refs={3, 1, 2}, pair=(4, 5),
                   nested={"k": (1,)}, obj=object())
    assert doc["refs"] == [1, 2, 3]
    assert doc["pair"] == [4, 5]
    assert doc["nested"] == {"k": [1]}
    assert isinstance(doc["obj"], str)
    json.dumps(doc)  # everything serializable


def test_file_backed_roundtrip_and_forward_compat(tmp_path):
    path = tmp_path / "events.jsonl"
    led = obs.enable_ledger(path)
    obs.event("run.start", pipeline="wytiwyg")
    obs.event("run.finish", fallback=False)
    led.close()
    # A line from a future schema must be skipped, not fatal.
    with path.open("a") as fh:
        fh.write(json.dumps({"v": obs.LEDGER_SCHEMA_VERSION + 1,
                             "kind": "from.the.future"}) + "\n")
    docs = obs.read_events(path)
    assert [d["kind"] for d in docs] == ["run.start", "run.finish"]


def test_fork_begin_drops_inherited_in_memory_events():
    led = obs.enable_ledger()
    obs.event("run.start", pipeline="p")
    obs.fork_begin()
    assert led.events == []
    obs.event("run.finish", pipeline="p")
    assert [e["kind"] for e in led.events] == ["run.finish"]


def test_worker_payload_ships_in_memory_events():
    led = obs.enable_ledger()
    obs.event("validate.verdict", stage="varargs")
    payload = obs.export_payload()
    assert payload is not None
    assert [e["kind"] for e in payload["events"]] == ["validate.verdict"]
    assert led.events == []  # drained into the payload
    obs.merge_payload(payload)
    assert [e["kind"] for e in led.events] == ["validate.verdict"]


def test_concurrent_emission_produces_clean_jsonl(tmp_path):
    """Threaded spans + counters + events against one file-backed
    ledger: every line parses, none interleave, per-writer sequence
    numbers stay strictly increasing."""
    path = tmp_path / "events.jsonl"
    obs.enable(reset=True)
    obs.enable_ledger(path)
    n_threads, n_each = 8, 50

    def worker(tid):
        for i in range(n_each):
            with obs.span(f"stage.t{tid}", i=i):
                obs.count("thread.ticks")
            obs.event("store.hit", artifact="trace",
                      key=f"t{tid}_{i}",
                      payload="x" * 64)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    obs.disable_ledger()

    docs = obs.read_events(path)
    # span hooks add stage.start/stage.finish around each store.hit
    hits = [d for d in docs if d["kind"] == "store.hit"]
    assert len(hits) == n_threads * n_each
    assert {d["kind"] for d in docs} == {"stage.start", "stage.finish",
                                         "store.hit"}
    seqs = [d["seq"] for d in docs]
    assert sorted(seqs) == list(range(1, len(docs) + 1))
    assert obs.recorder().registry.counters["thread.ticks"] == \
        n_threads * n_each


def test_parallel_sweep_appends_worker_events(tmp_path, monkeypatch):
    """sweep(jobs=2) workers inherit the file-backed ledger descriptor
    over fork and append their events without corrupting the JSONL."""
    monkeypatch.setenv("REPRO_EVAL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    path = tmp_path / "events.jsonl"
    obs.enable(reset=True)
    obs.enable_ledger(path)
    try:
        out = sweep((TINY.name,),
                    configs=(("gcc12", "3"), ("gcc12", "0")),
                    include_secondwrite=False, jobs=2)
    finally:
        obs.disable_ledger()
        obs.disable()
    assert len(out) == 2

    docs = obs.read_events(path)  # raises on any torn/corrupt line
    assert all(d["v"] == obs.LEDGER_SCHEMA_VERSION for d in docs)
    kinds = {d["kind"] for d in docs}
    assert {"run.start", "run.finish", "stage.start", "stage.finish",
            "frame.var.seed", "validate.verdict"} <= kinds
    # Forked workers (not the parent) ran the pipelines, and each
    # writer's sequence is strictly increasing in file order.
    import os as _os
    by_pid: dict[int, list[int]] = {}
    for d in docs:
        by_pid.setdefault(d["pid"], []).append(d["seq"])
    worker_pids = {d["pid"] for d in docs if d["kind"] == "run.start"}
    assert worker_pids and _os.getpid() not in worker_pids
    for seqs in by_pid.values():
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


def test_in_memory_sweep_events_ride_worker_payloads(tmp_path,
                                                     monkeypatch):
    """With an in-memory ledger the workers cannot share the parent's
    list; their events come home on the obs payloads instead."""
    monkeypatch.setenv("REPRO_EVAL_CACHE", str(tmp_path / "cache"))
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    obs.enable(reset=True)
    led = obs.enable_ledger()
    try:
        out = sweep((TINY.name,), configs=(("gcc12", "3"),),
                    include_secondwrite=False, jobs=2)
        docs = list(led.events)
    finally:
        obs.disable_ledger()
        obs.disable()
    assert len(out) == 1
    kinds = {d["kind"] for d in docs}
    assert {"run.start", "run.finish", "frame.var.seed"} <= kinds
    # No parent-side duplicates: exactly one pipeline ran.
    assert sum(1 for d in docs if d["kind"] == "run.start") == 1


def test_env_var_activates_ledger(tmp_path):
    # The import-time hook mirrors REPRO_OBS; exercise the same code
    # path directly (the module is already imported in-process).
    path = tmp_path / "env.jsonl"
    led = ev.enable_ledger(str(path))
    assert obs.ledger() is led and led.path is not None

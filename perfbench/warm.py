"""The warm-campaign workload: two closed-loop clients of one daemon.

Set-up starts ``repro serve --workers 2`` as a subprocess on a private
store and socket, and seeds one campaign per client with the ``gcc``
program's ref inputs (client 0 on the gcc12 -O3 image, client 1 on the
gcc44 -O3 image).  It is repeated :data:`SETUP_REPEATS` times, each on a
fresh daemon and store; the last daemon is the one measured.

Each client, on its own thread, runs :func:`rounds_for` rounds.  A
round opens a fresh campaign with the ref inputs (a result store hit),
makes one write submission adding a seeded input run (an incremental
job: trace the new run, reuse the stored ref trace, replay both), then
:data:`READS_PER_ROUND` read resubmissions with no new inputs (result
store hits).  The clients start each round together, so every round
overlaps the same way: both jobs run at once, and the client whose job
ends first reads beside the other's job.

After timing and shutdown: every campaign's artifact runs against the
native image on each of its inputs; every answer's result key is checked
against the one its campaign must have; and each campaign's artifact is
compared byte for byte with a cold one-shot ``wytiwyg_recompile`` of the
same accumulated input set, run in fresh ``coldpass.py`` processes
(these also give ``recompile_s`` and, in traced runs, the per-layer
numbers of the pipeline layers).

Times are in reference-speed seconds (``speed.py``).  The work runs in
the daemon's processes, so a :class:`speed.Monitor` probes the machine
from set-up to the end of the measuring window, and each timing is
corrected by the probes taken around it.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import exprgen
from cold import check_artifact, scaled_layers, setup as compile_cells
from common import (ROOT, child_env, finish_coldpass, geomean, median, p90,
                    start_coldpass)
from speed import Monitor

CLIENT_CELLS = (("gcc", "gcc12", "3"), ("gcc", "gcc44", "3"))
WORKERS = 2
READS_PER_ROUND = 48
SETUP_REPEATS = 3
#: Seconds one round takes on the machine the benchmark was tuned on.
NOMINAL_ROUND_S = 4.0
#: Seconds a client waits for any one answer.
REQUEST_TIMEOUT = 120.0


# -- the daemon process -------------------------------------------------------

def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _vmhwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


class Daemon:
    """A ``repro serve`` subprocess with a private store and socket."""

    def __init__(self, work: Path, tag: str):
        from repro.serve import ServeClient
        self.dir = work / tag
        self.dir.mkdir()
        self.store = self.dir / "store"
        # Relative to the checkout root (the cwd of both ends), which
        # keeps the socket path within the AF_UNIX length limit.
        socket_path = os.path.relpath(self.dir / "d.sock", ROOT)
        self.log = open(self.dir / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--workers", str(WORKERS), "--socket", socket_path,
             "--store", str(self.store)],
            cwd=ROOT, env=child_env(work), stdout=self.log,
            stderr=subprocess.STDOUT)
        self.socket_path = socket_path
        self.client = ServeClient(socket_path, timeout=REQUEST_TIMEOUT)
        self.workers: list[int] = []

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.errors import ServeError
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up:\n"
                                   + self.log_tail())
            try:
                self.client.ping()
                return
            except ServeError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not answer:\n"
                                       + self.log_tail()) from None
                time.sleep(0.02)

    def log_tail(self) -> str:
        self.log.flush()
        return (self.dir / "daemon.log").read_text()[-2000:]

    def peak_rss_mb(self) -> float:
        """Summed peak resident set of the daemon and its workers."""
        self.workers = _children(self.proc.pid)
        return sum(_vmhwm_mb(pid)
                   for pid in [self.proc.pid, *self.workers])

    def close(self) -> None:
        """Shut the daemon down and make sure it and its workers ended."""
        from repro.errors import ServeError
        if not self.workers and self.proc.poll() is None:
            self.workers = _children(self.proc.pid)
        try:
            if self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=60)
        except (ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()
        deadline = time.monotonic() + 10
        for pid in self.workers:
            while _alive(pid):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# -- set-up ---------------------------------------------------------------

def _seed(daemon: Daemon, cells, keys: list) -> None:
    """Open one campaign per client on the ref inputs, concurrently."""
    def seed(ci: int) -> None:
        cell = cells[ci]
        keys[ci] = daemon.client.submit(
            image=str(cell.path), inputs=cell.inputs,
            campaign=f"seed-{ci}")["result_key"]

    threads = [threading.Thread(target=seed, args=(ci,))
               for ci in range(len(cells))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(REQUEST_TIMEOUT)
    if any(t.is_alive() for t in threads) or None in keys:
        raise RuntimeError("seeding the daemon failed:\n"
                           + daemon.log_tail())


def setup(work: Path, n: int):
    cells = compile_cells(work, CLIENT_CELLS)
    daemon = Daemon(work, f"daemon{n}")
    try:
        daemon.wait_ready()
        keys = [None] * len(cells)
        _seed(daemon, cells, keys)
    except BaseException:
        daemon.close()
        raise
    return cells, daemon, keys


# -- measurement ------------------------------------------------------------

def _submit(client, kind: str, campaign: dict, **fields) -> None:
    from repro.errors import ServeError
    op = {"kind": kind, "start": time.perf_counter()}
    try:
        response = client.submit(campaign=campaign["name"], **fields)
        op.update(served=response["served"], stats=response["stats"],
                  result_key=response["result_key"],
                  fallback=response["fallback"],
                  accuracy=response.get("accuracy"))
    except ServeError as exc:
        op["error"] = str(exc)
    op["done"] = time.perf_counter()
    campaign["ops"].append(op)


def rounds_for(seconds: float, trace: bool) -> int:
    """Rounds per client for a run measuring about ``seconds``.

    The count is fixed by ``seconds``, not by the clock: a daemon
    worker's incremental jobs get slower with every job it has run, so
    a loop that stopped on time would make the job-latency median
    depend on how fast the machine happened to be."""
    return max(2 if trace else 1, math.ceil(seconds / NOMINAL_ROUND_S))


def _client_loop(daemon: Daemon, ci: int, cell, seed: int, rounds: int,
                 start_round: threading.Barrier, out: list) -> None:
    from repro.serve import ServeClient
    client = ServeClient(daemon.socket_path, timeout=REQUEST_TIMEOUT)
    try:
        for r in range(rounds):
            start_round.wait(4 * REQUEST_TIMEOUT)
            campaign = {"name": f"c{ci}-r{r}", "client": ci, "round": r,
                        "new": exprgen.campaign_input(seed, ci, r),
                        "ops": []}
            out.append(campaign)
            _submit(client, "open", campaign, image=str(cell.path),
                    inputs=cell.inputs)
            _submit(client, "write", campaign, inputs=[campaign["new"]])
            for _ in range(READS_PER_ROUND):
                _submit(client, "read", campaign)
    except BaseException:
        start_round.abort()     # do not leave the other client waiting
        raise


def run(workload: str, work: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    monitor = Monitor(work / "speed.txt")
    try:
        measured = _measure(work, seed, seconds, trace)
    finally:
        monitor.close()
    return _evaluate(work, monitor, trace, *measured)


def _measure(work: Path, seed: int, seconds: float, trace: bool) -> tuple:
    setups = []         # (start, end) of each set-up
    daemon = None
    for n in range(SETUP_REPEATS):
        if daemon is not None:
            daemon.close()
            shutil.rmtree(daemon.dir, ignore_errors=True)
        start = time.perf_counter()
        cells, daemon, seed_keys = setup(work, n)
        setups.append((start, time.perf_counter()))

    campaigns: list[list[dict]] = [[] for _ in cells]
    try:
        before = daemon.client.status()
        rounds = rounds_for(seconds, trace)
        start_round = threading.Barrier(len(cells))
        threads = [threading.Thread(
            target=_client_loop,
            args=(daemon, ci, cells[ci], seed, rounds, start_round,
                  campaigns[ci]))
            for ci in range(len(cells))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(rounds * 4 * REQUEST_TIMEOUT)
        if any(t.is_alive() for t in threads) or any(
                sum(len(c["ops"]) for c in per) != rounds
                * (2 + READS_PER_ROUND) for per in campaigns):
            raise RuntimeError("a client did not finish")
        after = daemon.client.status()
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.close()
    return (daemon, cells, seed_keys, campaigns, setups, before, after,
            peak_rss_mb)


# -- checks and metrics -----------------------------------------------------

def _evaluate(work, monitor, trace, daemon, cells, seed_keys, campaigns,
              setups, before, after, peak_rss_mb) -> dict:
    from repro.emu.machine import run_binary
    from repro.store import ArtifactStore, encode_runs
    store = ArtifactStore(daemon.store)
    notes: list[str] = []
    artifacts: dict[str, dict] = {}    # result key -> oracle verdict

    def verdict(key: str, inputs, native) -> dict:
        if key not in artifacts:
            record = store.get("result", key)
            if record is None:
                artifacts[key] = {"ok": False}
            else:
                text = record["image_json"]
                ok, cycles = check_artifact(text, inputs, native)
                artifacts[key] = {
                    "ok": ok, "cycles": cycles,
                    "native": sum(r.cycles for r in native),
                    "text_bytes": _text_bytes(text),
                    "digest": hashlib.sha256(text.encode()).hexdigest()}
        return artifacts[key]

    attempted = failed = 0
    refs: list[list[dict]] = []
    for ci, cell in enumerate(cells):
        tasks = []
        for camp in campaigns[ci]:
            runs = [*cell.inputs, camp["new"]]
            native = [*cell.native, run_binary(cell.image, camp["new"])]
            expect = {"open": seed_keys[ci]}
            write = camp["ops"][1]
            if "error" not in write:
                expect["write"] = expect["read"] = write["result_key"]
            for op in camp["ops"]:
                attempted += 1
                if "error" in op:
                    failed += 1
                    notes.append(f"{camp['name']} {op['kind']}: "
                                 f"{op['error']}")
                    continue
                key = op["result_key"]
                if op["kind"] == "open":
                    good = key == expect["open"] and verdict(
                        key, cell.inputs, cell.native)["ok"]
                else:
                    good = key == expect.get(op["kind"]) and verdict(
                        key, runs, native)["ok"]
                if not good:
                    failed += 1
                    notes.append(f"{camp['name']} {op['kind']}: wrong or "
                                 f"mismatching answer {key}")
            if "error" not in write and artifacts[write["result_key"]]["ok"]:
                camp["key"] = write["result_key"]
                tasks.append({
                    "image": str(cell.path), "inputs": encode_runs(runs),
                    "trace": trace and camp["round"] % 2 == 0,
                    "artifact": str(work / f"ref-{camp['name']}.art.json")})
        refs.append(tasks)

    # Cold one-shot references: one coldpass.py per client (each
    # reference in its own forked process), the two in parallel.
    procs = [start_coldpass(work, f"ref{ci}", tasks)
             for ci, tasks in enumerate(refs)]
    reports = [finish_coldpass(work, f"ref{ci}", proc)
               for ci, proc in enumerate(procs)]
    ref_rows = []
    ref_s: list[list[float]] = [[] for _ in cells]  # untraced, per client
    for ci, report in enumerate(reports):
        done = [c for c in campaigns[ci] if "key" in c]
        for camp, task, res in zip(done, refs[ci], report["results"],
                                   strict=True):
            attempted += 1
            same = "error" not in res and \
                res["digest"] == artifacts[camp["key"]].get("digest")
            if not same:
                failed += 1
                notes.append(f"{camp['name']}: differs from a cold "
                             f"one-shot recompile "
                             f"({res.get('error', 'bytes differ')})")
            elif not task["trace"]:
                ref_s[ci].append(res["seconds"])
            ref_rows.append({**res, "traced": task["trace"], "client": ci})

    for per in campaigns:
        for camp in per:
            for op in camp["ops"]:
                op["latency"] = monitor.seconds(op["start"], op["done"])
    ops = [op for per in campaigns for camp in per for op in camp["ops"]
           if "error" not in op]
    hits = [op["latency"] for op in ops if op["served"] == "store"]
    jobs = sorted((op for op in ops if op["served"] == "incremental"),
                  key=lambda op: op["done"])
    job_s = [op["latency"] for op in jobs]
    ref_ok = [r for r in ref_rows if "error" not in r]
    # The two images differ in cost, and one client reads beside the
    # other's job while the other reads alone, so per-client figures
    # are taken first and then combined: a quantile of the pooled,
    # two-humped sample would jump between the humps from run to run.
    precision, recall, text, client_jobs = [], [], [], []
    client_hits = []
    for ci in range(len(cells)):
        client_hits.append([op["latency"] for c in campaigns[ci]
                            for op in c["ops"]
                            if op.get("served") == "store"])
        done = [c for c in campaigns[ci] if "key" in c]
        writes = [c["ops"][1] for c in done]
        precision.append(sum(_accuracy(w)[0] for w in writes)
                         / len(writes))
        recall.append(sum(_accuracy(w)[1] for w in writes) / len(writes))
        text.append(median(artifacts[c["key"]]["text_bytes"]
                           for c in done))
        client_jobs.append(median(op["latency"] for c in done
                                  for op in c["ops"]
                                  if op.get("served") == "incremental"))
    keyed = [artifacts[c["key"]] for per in campaigns for c in per
             if "key" in c]
    e2e = {
        "setup_s": median(monitor.seconds(*span) for span in setups),
        # As on the cold workloads: per image the median cold run.
        "recompile_s": sum(median(s) for s in ref_s),
        "runtime_ratio": geomean(a["cycles"] / a["native"] for a in keyed),
        "text_bytes": sum(text),
        "layout_precision": sum(precision) / len(precision),
        "layout_recall": sum(recall) / len(recall),
        "peak_rss_mb": peak_rss_mb,
        "job_p50_s": sum(client_jobs) / len(client_jobs),
        "hit_p50_ms": 1000 * statistics.fmean(
            median(h) for h in client_hits),
        "hit_p90_ms": 1000 * statistics.fmean(p90(h) for h in client_hits),
        # Completed submissions over the measuring window.
        "jobs_per_s": len(ops) / monitor.seconds(
            min(op["start"] for op in ops), max(op["done"] for op in ops)),
    }

    layers = {}
    if trace:
        # Like recompile_s: per client the median over its traced
        # references, summed over clients (one pass over both images).
        traced_s = 0.0
        for ci in range(len(cells)):
            mine = [r for r in ref_ok if r["traced"] and r["client"] == ci]
            per_ref = []
            for r in mine:
                m = scaled_layers(r)
                m["symbolize.stack_vars"] = r["stack_vars"]
                per_ref.append(m)
            for key in per_ref[0]:
                layers[key] = layers.get(key, 0) \
                    + median(m[key] for m in per_ref)
            traced_s += median(r["seconds"] for r in mine)
        layers["bench.trace_overhead_frac"] = \
            traced_s / e2e["recompile_s"] - 1
        half = len(job_s) // 2
        sched_before = before["sched"]["stats"]
        sched_after = after["sched"]["stats"]
        workers = after["sched"]["per_worker"]
        reused = sum(op["stats"]["traces_reused"] for op in jobs)
        recorded = sum(op["stats"]["traces_recorded"] for op in jobs)
        layers.update({
            "store.hits": sum(op["stats"]["store_hits"] for op in ops),
            "store.misses": sum(op["stats"]["store_misses"] for op in ops),
            "store.puts": sum(op["stats"]["store_puts"] for op in ops),
            "incremental.trace_reuse_frac": reused / (reused + recorded),
            "serve.store_share": len(hits) / len(ops),
            "serve.job_drift":
                median(job_s[-half:]) / median(job_s[:half]),
            "warm.opt_memo_entries": sum(
                w["warm"].get("opt", {}).get("memo_entries", 0)
                for w in workers),
            "warm.lower_entries": sum(
                w["warm"].get("lower", {}).get("entries", 0)
                for w in workers),
        })
        for name in ("affine", "stolen", "rejected", "respawns", "failed"):
            layers[f"sched.{name}"] = \
                sched_after.get(name, 0) - sched_before.get(name, 0)

    rows = [{"campaign": c["name"], "key": c.get("key"),
             "ops": [{k: op.get(k) for k in
                      ("kind", "served", "start", "done", "latency")}
                     for op in c["ops"]]}
            for per in campaigns for c in per]
    spans = {f"ref{i}": r["spans"] for i, r in enumerate(ref_rows)
             if r.get("spans")}
    return {"attempted": attempted, "failed": failed,
            "deterministic": True, "notes": notes, "e2e": e2e,
            "layers": layers, "rows": rows, "spans": spans,
            "references": [{k: r.get(k) for k in
                            ("seconds", "wall_s", "speed", "traced",
                             "digest", "error")}
                           for r in ref_rows],
            "speed_probes": monitor.samples}


def _accuracy(write: dict) -> tuple[float, float]:
    """Layout precision and recall of one answer; a fallback recovered
    no layout and scores zero recall."""
    acc = write.get("accuracy") or {}
    recall = 0.0 if write.get("fallback") else acc.get("recall", 0.0)
    return acc.get("precision", 0.0), recall


def _text_bytes(image_json: str) -> int:
    from repro.binary.image import BinaryImage
    return len(BinaryImage.from_json(image_json).text.data)


"""Cold one-shot recompiles: ``python3 coldpass.py TASK OUT``.

``TASK`` is a JSON file: ``{"tasks": [{"image": PATH, "inputs": RUNS,
"trace": BOOL, "artifact": PATH}, ...]}`` with runs encoded as
:func:`repro.store.encode_runs` does.  Each task is one
``wytiwyg_recompile`` with the CLI defaults (``jobs=1``) in its own
process, forked from this one after the program is imported but before
it has run, so every task starts as a fresh ``repro recompile`` process
would: nothing cached, nothing left over from an earlier recompile (a
second recompile in one process runs measurably slower than the first).
The optimizer memo and the lowering cache are cleared anyway.  Loading
the image is not timed.  A task with ``trace`` set runs with the span
tracer installed; the others run the program unmodified.

Each recompile runs under a :class:`speed.Sampler`, which probes the
machine's speed as it goes; its time is reported in reference-speed
seconds (see ``speed.py``), beside the raw wall time and the speed.

``OUT`` receives one JSON object holding, per task, its times, the
recompiled artifact's digest and ``.text`` size, layout-accuracy counts,
stack variable count, spans (traced tasks) and the task process's peak
resident set, or the error it raised.  The artifact itself is written
to the task's ``artifact`` path for the caller's output oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path

from repro.binary.image import BinaryImage
from repro.core.accuracy import evaluate_accuracy
from repro.core.driver import wytiwyg_recompile
from repro.opt.manager import clear_memo
from repro.recompile.lower import clear_lower_cache
from repro.store import decode_runs
from spans import SpanTracer
from speed import Sampler


def _run_task(task: dict) -> dict:
    image = BinaryImage.from_json(Path(task["image"]).read_text())
    runs = decode_runs(task["inputs"])
    clear_memo()
    clear_lower_cache()
    tracer = SpanTracer() if task.get("trace") else None
    sampler = Sampler()
    try:
        with sampler:
            if tracer is None:
                result = wytiwyg_recompile(image, runs)
            else:
                with tracer:
                    result = wytiwyg_recompile(image, runs)
    except Exception as exc:  # reported and counted as a failed job
        return {"error": f"{type(exc).__name__}: {exc}"}
    artifact = result.recovered.to_json()
    Path(task["artifact"]).write_text(artifact)
    # A fallback recovered no layout: score it against empty layouts.
    accuracy = (evaluate_accuracy(image, {}) if result.fallback
                else result.accuracy)
    return {
        "seconds": sampler.seconds,
        "wall_s": sampler.wall,
        "speed": sampler.speed,
        "digest": hashlib.sha256(artifact.encode()).hexdigest(),
        "text_bytes": len(result.recovered.text.data),
        "fallback": result.fallback,
        "accuracy": {"counts": dict(accuracy.counts),
                     "recovered": accuracy.total_recovered},
        "stack_vars": sum(len(lo.variables)
                          for lo in result.layouts.values()),
        "spans": tracer.spans if tracer is not None else None,
    }


def _in_fresh_process(task: dict) -> dict:
    """Run ``task`` in a forked child and wait for it."""
    out = Path(task["artifact"] + ".result.json")
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = _run_task(task)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["peak_rss_mb"] = peak_kb / 1024
            out.write_text(json.dumps(result))
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return {"error": f"task process ended with status {status}"}
    return json.loads(out.read_text())


def main(task_path: str, out_path: str) -> None:
    doc = json.loads(Path(task_path).read_text())
    results = [_in_fresh_process(task) for task in doc["tasks"]]
    Path(out_path).write_text(json.dumps({"results": results}))


if __name__ == "__main__":
    main(*sys.argv[1:3])

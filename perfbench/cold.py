"""The cold workloads: one-shot ``wytiwyg_recompile`` passes.

A pass recompiles every image of the workload once, each in a fresh
process (see ``coldpass.py``).  A run makes :func:`passes_for` passes.
Set-up compiles the
images from MiniC source and runs them natively on their ref inputs;
it is repeated :data:`SETUP_REPEATS` times and timed each time.  The
workload seed fixes the order of the images within each pass.  Every
time is in reference-speed seconds (``speed.py``).

After timing, every distinct recompiled artifact runs on the emulator
against the native image on each of its inputs (stdout and exit code
must match); its cycle counts give ``runtime_ratio``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from common import geomean, median, p90, run_coldpass
from spans import layer_metrics
from speed import Sampler

#: (workload, compiler, opt level) per cold workload.
CELLS = {
    "cold-replay": (("mcf", "gcc12", "3"), ("hmmer", "gcc12", "3"),
                    ("libquantum", "gcc12", "3")),
    "cold-legacy": (("gcc", "gcc44", "3"), ("gcc", "gcc12", "0"),
                    ("xalancbmk", "gcc44", "3"),
                    ("xalancbmk", "gcc12", "0")),
}

SETUP_REPEATS = 5

#: Seconds one pass takes on the machine the benchmark was tuned on.
NOMINAL_PASS_S = {"cold-replay": 11.0, "cold-legacy": 6.0}

#: Per-layer counts that must repeat exactly between traced passes.
EXACT_COUNTS = (
    "emu.instructions", "lifting.ir_instrs", "opt.ir_instrs_out",
    "varargs.sites", "regsave.functions", "replay.validate_calls",
    "replay.validate_skipped", "interp.runs.varargs",
    "interp.runs.regsave", "interp.runs.validate", "interp.runs.bounds",
    "symbolize.stack_vars",
)


@dataclass
class Cell:
    label: str
    image: object       # the compiled BinaryImage
    path: Path          # ... written out for the program's processes
    inputs: list
    native: list        # RunResult per input


def setup(work: Path, cells) -> list[Cell]:
    """Compile every image from source, write it for the pass processes
    and record its native behaviour on the ref inputs."""
    from repro.cc import compile_source
    from repro.emu.machine import run_binary
    from repro.workloads import WORKLOADS
    out = []
    for name, compiler, opt in cells:
        workload = WORKLOADS[name]
        image = compile_source(workload.source, compiler, opt, name)
        label = f"{name}-{compiler}-O{opt}"
        path = work / f"{label}.img.json"
        path.write_text(image.to_json())
        inputs = workload.inputs()
        native = [run_binary(image, items) for items in inputs]
        out.append(Cell(label, image, path, inputs, native))
    return out


def check_artifact(artifact_json: str, inputs, native) -> tuple[bool, int]:
    """Run a recompiled artifact on ``inputs``; returns whether every
    run matched the native one, and its total cycles."""
    from repro.binary.image import BinaryImage
    from repro.emu.machine import run_binary
    image = BinaryImage.from_json(artifact_json)
    ok, cycles = True, 0
    for items, ref in zip(inputs, native, strict=True):
        got = run_binary(image, items)
        ok = ok and got.matches(ref)
        cycles += got.cycles
    return ok, cycles


def passes_for(workload: str, seconds: float, trace: bool) -> int:
    """Passes for a run measuring about ``seconds``.

    Traced runs alternate traced and untraced passes (the untraced ones
    give the tracing overhead) and make at least two traced passes, so
    the exact counts can be compared.  The count is fixed by
    ``seconds``, not by the clock, so that a run on a machine slowed by
    other tenants takes the same statistics over the same samples."""
    return max(3 if trace else 1,
               math.ceil(seconds / NOMINAL_PASS_S[workload]))


def run(workload: str, work: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    from repro.store import encode_runs
    setup_s = []
    for _ in range(SETUP_REPEATS):
        with Sampler() as sampler:
            cells = setup(work, CELLS[workload])
        setup_s.append(sampler.seconds)

    # -- measure ------------------------------------------------------------
    passes = []
    for k in range(passes_for(workload, seconds, trace)):
        traced = trace and k % 2 == 0
        order = list(range(len(cells)))
        random.Random(f"perfbench/{seed}/{k}").shuffle(order)
        tasks = [{"image": str(cells[i].path),
                  "inputs": encode_runs(cells[i].inputs),
                  "trace": traced,
                  "artifact": str(work / f"pass{k}-{i}.art.json")}
                 for i in order]
        report = run_coldpass(work, f"pass{k}", tasks)
        results = [None] * len(cells)
        for i, res in zip(order, report["results"], strict=True):
            results[i] = res
        passes.append({"traced": traced, "order": order,
                       "results": results})

    # -- check: output oracle over every distinct artifact ----------------
    attempted = failed = 0
    verdicts: dict[str, tuple[bool, int]] = {}
    notes = []
    for k, p in enumerate(passes):
        for i, res in enumerate(p["results"]):
            attempted += 1
            if "error" in res:
                failed += 1
                notes.append(f"pass {k} {cells[i].label}: {res['error']}")
                continue
            if res["digest"] not in verdicts:
                text = (work / f"pass{k}-{i}.art.json").read_text()
                verdicts[res["digest"]] = check_artifact(
                    text, cells[i].inputs, cells[i].native)
            if not verdicts[res["digest"]][0]:
                failed += 1
                notes.append(f"pass {k} {cells[i].label}: output differs "
                             f"from the native image")

    ok_passes = [p for p in passes
                 if all("error" not in r for r in p["results"])]
    if not ok_passes:
        return {"attempted": attempted, "failed": failed,
                "deterministic": False, "notes": notes}

    # -- determinism: one artifact per image across passes ----------------
    deterministic = True
    for i, cell in enumerate(cells):
        digests = {p["results"][i]["digest"] for p in ok_passes}
        if len(digests) > 1:
            deterministic = False
            notes.append(f"{cell.label}: {len(digests)} distinct artifacts "
                         f"over {len(ok_passes)} passes")

    # -- end-to-end metrics -------------------------------------------------
    first = ok_passes[0]["results"]
    native_cycles = [sum(r.cycles for r in c.native) for c in cells]
    ratios = [verdicts[res["digest"]][1] / native_cycles[i]
              for i, res in enumerate(first)]
    matched = sum(r["accuracy"]["counts"]["matched"] for r in first)
    objects = sum(sum(r["accuracy"]["counts"].values()) for r in first)
    recovered = sum(r["accuracy"]["recovered"] for r in first)
    untraced = [p for p in ok_passes if not p["traced"]]
    timed = untraced or ok_passes
    pass_s = [sum(r["seconds"] for r in p["results"]) for p in timed]
    # The one-shot path caches nothing: a repeated request (a "hit" on
    # the warm path) costs a full one-image recompile, like a new one.
    latencies = [r["seconds"] for p in timed for r in p["results"]]
    in_order = [p["results"][i]["seconds"] for p in timed
                for i in p["order"]]
    half = len(in_order) // 2
    e2e = {
        "setup_s": median(setup_s),
        # Per image the median over the passes, summed: one cold pass.
        "recompile_s": sum(median(p["results"][i]["seconds"] for p in timed)
                           for i in range(len(cells))),
        "runtime_ratio": geomean(ratios),
        "text_bytes": sum(r["text_bytes"] for r in first),
        "layout_precision": matched / recovered,
        "layout_recall": matched / objects,
        "peak_rss_mb": median(max(r["peak_rss_mb"] for r in p["results"])
                              for p in timed),
        "job_p50_s": median(latencies),
        "hit_p50_ms": 1000 * median(latencies),
        "hit_p90_ms": 1000 * p90(latencies),
        "jobs_per_s": len(latencies) / sum(pass_s),
    }

    # -- per-layer metrics from the traced passes ---------------------------
    layers = {}
    if trace:
        traced = [p for p in ok_passes if p["traced"]]
        per_pass = []
        for p in traced:
            totals: dict[str, float] = {}
            for res in p["results"]:
                for key, value in scaled_layers(res).items():
                    totals[key] = totals.get(key, 0) + value
            totals["symbolize.stack_vars"] = sum(
                r["stack_vars"] for r in p["results"])
            per_pass.append(totals)
        for key in per_pass[0]:
            values = [m[key] for m in per_pass]
            if key in EXACT_COUNTS:
                if len(set(values)) > 1:
                    deterministic = False
                    notes.append(f"{key} differs between traced passes: "
                                 f"{values}")
                layers[key] = values[0]
            else:
                layers[key] = median(values)
        traced_s = [sum(r["seconds"] for r in p["results"])
                    for p in traced]
        layers["bench.trace_overhead_frac"] = \
            median(traced_s) / median(pass_s) - 1
        layers["serve.job_drift"] = \
            median(in_order[-half:]) / median(in_order[:half]) \
            if half else 1.0
        layers.update(idle_service_layers())
    rows = [{"image": cell.label,
             "seconds": [p["results"][i]["seconds"] for p in passes
                         if "seconds" in p["results"][i]],
             "runtime_ratio": ratios[i],
             "text_bytes": first[i]["text_bytes"],
             "fallback": first[i]["fallback"],
             "stack_vars": first[i]["stack_vars"]}
            for i, cell in enumerate(cells)]
    spans = {f"pass{k}/{cells[i].label}": res["spans"]
             for k, p in enumerate(passes) if p["traced"]
             for i, res in enumerate(p["results"]) if res.get("spans")}
    return {"attempted": attempted, "failed": failed,
            "deterministic": deterministic, "notes": notes, "e2e": e2e,
            "layers": layers, "rows": rows, "spans": spans,
            "passes": [{"traced": p["traced"],
                        "seconds": sum(r.get("seconds", 0)
                                       for r in p["results"])}
                       for p in passes]}


def scaled_layers(res: dict) -> dict:
    """The per-layer metrics of one traced recompile, its layer times
    turned into reference-speed seconds like its total."""
    return {key: value * res["speed"] if key.endswith("_s") else value
            for key, value in layer_metrics(res["spans"]).items()}


def idle_service_layers() -> dict:
    """The service-layer counts of a workload that never touches the
    store, the daemon or the scheduler."""
    return {"store.hits": 0, "store.misses": 0, "store.puts": 0,
            "incremental.trace_reuse_frac": 0.0,
            "serve.store_share": 0.0, "sched.affine": 0,
            "sched.stolen": 0, "sched.rejected": 0, "sched.respawns": 0,
            "sched.failed": 0, "warm.opt_memo_entries": 0,
            "warm.lower_entries": 0}

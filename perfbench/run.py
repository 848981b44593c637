"""End-to-end, layer-by-layer benchmark of the WYTIWYG recompiler.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-replay --seed 1 \\
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists, and
``perfbench/DESIGN.md`` for the metric definitions):

* ``cold-replay``   one-shot recompiles of mcf, hmmer, libquantum
                    (gcc12 -O3) on their ref inputs;
* ``cold-legacy``   one-shot recompiles of gcc and xalancbmk at
                    gcc44 -O3 and gcc12 -O0;
* ``warm-campaign`` a ``repro serve --workers 2`` daemon driven by two
                    closed-loop campaign clients.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (spans recorded by wrapping the program's layer entry points
from outside).  Either way every output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table
and the run's environment.  A full record (metrics, per-image rows,
spans) is written to ``.perfbench/<workload>-seed<N>-trace<T>.json``.

Exits non-zero, printing no result, when the program's source is not
in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from common import OUT, ROOT, SRC, environment, make_hermetic

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s", "recompile_s": "s", "runtime_ratio": "ratio",
    "text_bytes": "bytes", "layout_precision": "ratio",
    "layout_recall": "ratio", "peak_rss_mb": "MB", "job_p50_s": "s",
    "hit_p50_ms": "ms", "hit_p90_ms": "ms", "jobs_per_s": "1/s",
}

#: Per-layer metrics: name -> unit.
PER_LAYER = {
    "emu.trace_s": "s", "emu.instructions": "count",
    "lifting.lift_s": "s", "lifting.ir_instrs": "count",
    "varargs.self_s": "s", "varargs.sites": "count",
    "regsave.self_s": "s", "regsave.functions": "count",
    "replay.validate_s": "s", "replay.validate_calls": "count",
    "replay.validate_skipped": "count", "replay.bounds_s": "s",
    "interp.runs.varargs": "count", "interp.runs.regsave": "count",
    "interp.runs.validate": "count", "interp.runs.bounds": "count",
    "interp.run_s": "s",
    "opt.canonicalize_s": "s", "opt.optimize_s": "s",
    "opt.ir_instrs_out": "count",
    "sanalysis.analyze_s": "s", "sanalysis.corroborate_s": "s",
    "sanalysis.interproc_s": "s", "sanalysis.sanitize_s": "s",
    "symbolize.self_s": "s", "symbolize.stack_vars": "count",
    "recompile.lower_s": "s",
    "store.hits": "count", "store.misses": "count", "store.puts": "count",
    "incremental.trace_reuse_frac": "ratio",
    "serve.store_share": "ratio", "serve.job_drift": "ratio",
    "sched.affine": "count", "sched.stolen": "count",
    "sched.rejected": "count", "sched.respawns": "count",
    "sched.failed": "count", "warm.opt_memo_entries": "count",
    "warm.lower_entries": "count",
    "bench.trace_overhead_frac": "ratio",
}

WORKLOADS = ("cold-replay", "cold-legacy", "warm-campaign")


def _program_present() -> bool:
    """The program must come from this checkout's ``src/``."""
    try:
        import repro
    except ImportError:
        return False
    return Path(repro.__file__).resolve().is_relative_to(SRC.resolve())


def _run_workload(name: str, work: Path, seed: int, seconds: float,
                  trace: bool) -> dict:
    if name == "warm-campaign":
        import warm
        return warm.run(name, work, seed, seconds, trace)
    import cold
    return cold.run(name, work, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Turn a termination request into an exit, so that the cleanup in
    # ``finally`` blocks (daemon shutdown, work directory) still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    make_hermetic()
    if not _program_present():
        print(f"perfbench: the program's source is missing from {SRC}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        outcome = _run_workload(args.workload, work, args.seed,
                                args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = outcome["failed"]
    wanted = PER_LAYER if args.trace else END_TO_END
    values = outcome.get("layers" if args.trace else "e2e") or {}
    missing = sorted(set(wanted) - set(values))
    if missing:
        # Only a run whose every operation failed leaves metrics out.
        print(f"perfbench: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    failed_frac = failed / outcome["attempted"]
    env = environment()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "failed_frac": failed_frac,
              **outcome}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    for note in outcome["notes"]:
        print(f"note: {note}")
    print(f"environment: nproc={env['nproc']} python={env['python']} "
          f"commit={env['commit']}")
    print(f"{'failed_frac':32} {failed_frac:14.6g} ratio")
    for name, unit in wanted.items():
        print(f"{name:32} {values[name]:14.6g} {unit}")
    result = {
        "correct": failed == 0 and outcome["deterministic"],
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

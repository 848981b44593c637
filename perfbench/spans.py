"""Span tracing from outside the program, and the per-layer numbers.

:class:`SpanTracer` replaces the public functions the pipeline driver
calls through its own namespace (``repro.core.driver.<name>``) and four
methods (``ReplayEngine.validate``, ``ReplayEngine.run_instrumented``,
``Interpreter.run``, ``Machine.run``) with timing wrappers.  Each call
becomes one span ``[name, start, end, parent, info]`` kept in memory;
``info`` holds the few counts read off the call's result.  The untraced
run never constructs a tracer, so it runs the program unmodified.

:func:`layer_metrics` turns the spans of one recompile into the
per-layer metrics.  A layer's self time is its span's duration minus
the time its child spans cover (children of one span never overlap:
the pipeline is single-threaded).
"""

from __future__ import annotations

import time

#: Wrapped through ``repro.core.driver``'s namespace.
DRIVER_FUNCTIONS = (
    "trace_binary", "lift_traces", "recover_vararg_calls",
    "classify_registers", "canonicalize_module", "fold_module_stack_refs",
    "instrument_module", "build_layouts", "analyze_function",
    "corroborate_layouts", "interproc_corroborate", "build_signatures",
    "replace_base_pointers", "sanitize_function", "optimize_module",
    "recompile_ir",
)

#: The core layers whose self time makes up ``symbolize.self_s``.
SYMBOLIZE = ("fold_module_stack_refs", "instrument_module",
             "build_layouts", "build_signatures", "replace_base_pointers")

#: Which replay purpose an ``Interpreter.run`` serves, by its caller.
RUN_PURPOSE = {"recover_vararg_calls": "varargs",
               "classify_registers": "regsave",
               "ReplayEngine.validate": "validate",
               "ReplayEngine.run_instrumented": "bounds"}


def _ir_instrs(module) -> int:
    return sum(len(b.instrs) for f in module.functions.values()
               for b in f.blocks)


def _info(name: str, args: tuple, result):
    """The counts a span records from its call's arguments and result."""
    if name == "Machine.run":
        return result.instructions
    if name == "lift_traces":
        return _ir_instrs(result)
    if name == "optimize_module":
        return _ir_instrs(args[0])
    if name == "recover_vararg_calls":
        return result
    if name == "classify_registers":
        return len(result.args)
    if name == "ReplayEngine.validate":
        return result
    return None


class SpanTracer:
    """Records spans around the program's layer entry points while
    installed (``with tracer: ...``); restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            record[4] = _info(name, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self) -> "SpanTracer":
        from repro.core import driver
        from repro.emu.machine import Machine
        from repro.ir.interp import Interpreter
        from repro.replay.engine import ReplayEngine
        for fn in DRIVER_FUNCTIONS:
            self._wrap(driver, fn, fn)
        self._wrap(ReplayEngine, "validate", "ReplayEngine.validate")
        self._wrap(ReplayEngine, "run_instrumented",
                   "ReplayEngine.run_instrumented")
        self._wrap(Interpreter, "run", "Interpreter.run")
        self._wrap(Machine, "run", "Machine.run")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start afresh."""
        spans, self.spans = self.spans, []
        return spans


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer times (seconds) and counts for the spans of one or more
    recompiles.  Every key is present even when its layer never ran."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, int] = {}
    runs = {purpose: 0 for purpose in RUN_PURPOSE.values()}
    skipped = 0
    own = _self_times(spans)
    for index, (name, start, end, parent, data) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + own[index]
        calls[name] = calls.get(name, 0) + 1
        if name == "ReplayEngine.validate":
            skipped += data == "skipped"
        elif isinstance(data, int):
            info[name] = info.get(name, 0) + data
        if name == "Interpreter.run" and parent is not None:
            purpose = RUN_PURPOSE.get(spans[parent][0])
            if purpose is not None:
                runs[purpose] += 1

    def t(name: str) -> float:
        return total.get(name, 0.0)

    out = {
        "emu.trace_s": t("trace_binary"),
        "emu.instructions": info.get("Machine.run", 0),
        "lifting.lift_s": t("lift_traces"),
        "lifting.ir_instrs": info.get("lift_traces", 0),
        "varargs.self_s": self_s.get("recover_vararg_calls", 0.0),
        "varargs.sites": info.get("recover_vararg_calls", 0),
        "regsave.self_s": self_s.get("classify_registers", 0.0),
        "regsave.functions": info.get("classify_registers", 0),
        "replay.validate_s": t("ReplayEngine.validate"),
        "replay.validate_calls": calls.get("ReplayEngine.validate", 0),
        "replay.validate_skipped": skipped,
        "replay.bounds_s": t("ReplayEngine.run_instrumented"),
        "interp.run_s": t("Interpreter.run"),
        "opt.canonicalize_s": t("canonicalize_module"),
        "opt.optimize_s": t("optimize_module"),
        "opt.ir_instrs_out": info.get("optimize_module", 0),
        "sanalysis.analyze_s": t("analyze_function"),
        "sanalysis.corroborate_s": t("corroborate_layouts"),
        "sanalysis.interproc_s": t("interproc_corroborate"),
        "sanalysis.sanitize_s": t("sanitize_function"),
        "symbolize.self_s": sum(self_s.get(n, 0.0) for n in SYMBOLIZE),
        "recompile.lower_s": t("recompile_ir"),
    }
    for purpose, n in runs.items():
        out[f"interp.runs.{purpose}"] = n
    return out

"""The replay engine: all dynamic re-execution of lifted IR.

The refinement pipeline (paper Figure 4) executes the lifted module on
every traced input at every stage — variadic recovery, register
classification, the instrumented §4.2 bounds runs, and a functional
validation sweep after each refinement.  That replay loop dominates
``wytiwyg_recompile``'s cost, and most of it is redundant:

* **input dedup** — identical entries in ``traces.inputs`` exercise
  identical paths (execution is deterministic), so each distinct input
  replays once and the result fans out to its duplicates;
* **fingerprint-gated validation** — a stage that did not change the
  module (by content hash, :func:`~repro.replay.fingerprint.
  module_fingerprint`) cannot have broken functionality, so its
  validation sweep is skipped entirely;
* **early-exit validation** — traced runs are replayed cheapest first
  and the sweep stops at the first mismatch, naming the diverging input
  in the raised :class:`~repro.errors.SymbolizeError`.

Every sweep runs serially in this process.  The instrumented bounds
runs share one :class:`~repro.core.runtime.TracingRuntime`, re-bound
per distinct input in traced-input order, so variables are discovered
in the order the traces list their inputs.

Observability: counters ``replay.runs`` / ``replay.deduped`` /
``replay.validations_skipped`` / ``validate.interpreter_errors``, and a
``replay.<stage>_seconds`` timer per replay stage.
"""

from __future__ import annotations

import os

from .. import obs
from ..core.runtime import TracingRuntime
from ..emu.tracer import TraceSet
from ..errors import SymbolizeError
from ..ir.interp import Interpreter
from ..ir.module import Module
from .fingerprint import module_fingerprint


def _baseline() -> bool:
    """``REPRO_REPLAY_BASELINE=1`` disables dedup and fingerprint
    skipping, restoring the pre-replay-engine sweep behaviour (every
    input, every stage).  Benchmarks use it to measure the win."""
    return os.environ.get("REPRO_REPLAY_BASELINE", "") not in ("", "0")


def _validate_one(module: Module, items, expected):
    """Replay one traced input.

    Returns ``None`` when it reproduces ``expected``, else
    ``(reason, interp_error)`` — ``interp_error`` marks a swallowed
    interpreter exception (counted and noted by the caller) as opposed
    to an output mismatch.
    """
    try:
        result = Interpreter(module, items).run()
    except Exception as exc:  # diagnosable, not silent (see validate())
        return f"{type(exc).__name__}: {exc}", True
    if result.stdout != expected.stdout:
        return "stdout diverged", False
    if result.exit_code != expected.exit_code:
        return (f"exit code {result.exit_code} != {expected.exit_code}",
                False)
    return None


class ReplayEngine:
    """Owns every dynamic re-execution of one refinement pipeline run.

    One engine per :func:`~repro.core.driver.wytiwyg_lift` invocation;
    it deduplicates the traced inputs once and tracks the fingerprint of
    the last module state known to reproduce the traces.
    """

    def __init__(self, traces: TraceSet):
        self.traces = traces
        self.baseline = _baseline()
        seen: set[str] = set()
        #: Indices into ``traces.inputs``, first occurrence of each
        #: distinct input, in traced order (the bounds runs' variable
        #: discovery order follows it).
        self.unique: list[int] = []
        for i, items in enumerate(traces.inputs):
            key = repr(items)
            if self.baseline or key not in seen:
                seen.add(key)
                self.unique.append(i)
        self.deduped = len(traces.inputs) - len(self.unique)
        if self.deduped:
            obs.count("replay.deduped", self.deduped)
        self._valid_fp: str | None = None
        #: Diagnostics accumulated across sweeps (merged into pipeline
        #: notes by the driver).
        self.notes: list[str] = []

    @property
    def unique_inputs(self) -> list[list]:
        return [self.traces.inputs[i] for i in self.unique]

    def replay_inputs(self, stage: str) -> list[list]:
        """Deduplicated inputs for a serial replay stage (counted)."""
        uniq = self.unique_inputs
        obs.count("replay.runs", len(uniq))
        return uniq

    # -- fingerprint tracking -----------------------------------------------

    def mark_valid(self, module: Module) -> None:
        """Record ``module``'s current content as trace-reproducing.

        Called after lifting (the lifted module reproduces the traces by
        construction — that is the paper's core guarantee) and after
        every successful validation sweep.
        """
        if not self.baseline:
            self._valid_fp = module_fingerprint(module)

    # -- validation ----------------------------------------------------------

    def validate(self, module: Module, stage: str) -> str:
        """Functional check: the module reproduces every traced run.

        Returns ``"skipped"`` when the module content is unchanged since
        it was last known good, else ``"ok"``.  Raises
        :class:`SymbolizeError` naming the diverging input (and the
        interpreter error, if one was swallowed) on failure.
        """
        with obs.timed("replay.validate_seconds"):
            fp = None if self.baseline else module_fingerprint(module)
            if fp is not None and fp == self._valid_fp:
                obs.count("replay.validations_skipped")
                obs.event("validate.verdict", stage=stage,
                          verdict="skipped")
                self.notes.append(
                    f"validate[{stage}]: skipped (module unchanged)")
                return "skipped"
            # Cheapest traced run first: a broken refinement usually
            # breaks every input, so fail on the cheapest one.
            inputs, results = self.traces.inputs, self.traces.results
            order = sorted(self.unique,
                           key=lambda i: (results[i].cycles, i))
            for i in order:
                obs.count("replay.runs")
                verdict = _validate_one(module, inputs[i], results[i])
                if verdict is None:
                    continue
                reason, interp_error = verdict
                if interp_error:
                    obs.count("validate.interpreter_errors")
                    self.notes.append(
                        f"validate[{stage}]: interpreter error on "
                        f"input #{i}: {reason}")
                obs.event("validate.verdict", stage=stage,
                          verdict="failed", input=i, reason=reason,
                          interpreter_error=interp_error)
                raise SymbolizeError(
                    f"{stage} broke functionality: traced input "
                    f"#{i} {inputs[i]!r} diverged ({reason})")
            self._valid_fp = fp
            obs.event("validate.verdict", stage=stage, verdict="ok",
                      runs=len(order))
            return "ok"

    # -- instrumented bounds runs (§4.2) -------------------------------------

    def run_instrumented(self, module: Module) -> TracingRuntime:
        """Execute the probe-instrumented module on every distinct input,
        in traced order, against one shared tracing runtime."""
        with obs.timed("replay.bounds_seconds"):
            runtime = TracingRuntime()
            inputs = self.traces.inputs
            for i in self.unique:
                obs.count("replay.runs")
                interp = Interpreter(module, inputs[i],
                                     intrinsic_handler=runtime.handle)
                runtime.bind(interp)
                interp.run()
                if obs.ledger() is not None:
                    obs.event("trace.merged", input=i,
                              stack_vars=len(runtime.stack_vars),
                              arg_accesses=len(runtime.arg_accesses),
                              links=len(runtime.links))
            return runtime

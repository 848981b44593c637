"""The replay engine: all dynamic re-execution of lifted IR.

The refinement pipeline (paper Figure 4) executes the lifted module on
every traced input at every stage — variadic recovery, register
classification and the instrumented §4.2 bounds runs — and every
refinement must leave a module that still reproduces the traces.  That
replay loop dominates ``wytiwyg_recompile``'s cost; the engine keeps it
small:

* **input dedup** — identical entries in ``traces.inputs`` exercise
  identical paths (execution is deterministic), so each distinct input
  replays once and the result fans out to its duplicates;
* **folded validation** — a refinement's functional check rides on the
  next stage's run of the module it produced: the regsave runs validate
  the varargs rewrite and the bounds runs validate the register
  refinement, each comparing its exit code and stdout with the trace.
  Shadow plugins only observe and probes never produce program-visible
  values (:mod:`repro.core.instrument`), so those runs behave exactly
  like plain replays.  Only the symbolized module gets a sweep of its
  own, so each distinct input executes the lifted IR four times
  (varargs, regsave, bounds, validate) — three when the program has no
  variadic call sites;
* **early-exit validation** — the standalone sweep replays traced runs
  cheapest first, folded checks follow traced order; either stops at
  the first mismatch, naming the diverging input in the raised
  :class:`~repro.errors.SymbolizeError`.

Every run is serial in this process.  The instrumented bounds runs
share one :class:`~repro.core.runtime.TracingRuntime`, re-bound per
distinct input in traced-input order, so variables are discovered in
the order the traces list their inputs.

Observability: counters ``replay.runs`` / ``replay.deduped`` /
``replay.validations_folded`` / ``validate.interpreter_errors``, a
``validate.verdict`` ledger event per checked stage (``carrier`` names
the run a folded check rode on), and a ``replay.<stage>_seconds`` timer
per replay stage.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .. import obs
from ..core.runtime import TracingRuntime
from ..emu.tracer import TraceSet
from ..errors import SymbolizeError
from ..ir.interp import InterpResult, Interpreter
from ..ir.module import Module


def _baseline() -> bool:
    """``REPRO_REPLAY_BASELINE=1`` disables dedup and validation
    folding, restoring the pre-replay-engine sweep behaviour (every
    input, a standalone validation sweep after every refinement).
    Benchmarks use it as the byte-identity reference and to measure
    the win."""
    return os.environ.get("REPRO_REPLAY_BASELINE", "") not in ("", "0")


def _compare(result: InterpResult, expected) -> str | None:
    """Why ``result`` does not reproduce the traced run, or ``None``."""
    if result.stdout != expected.stdout:
        return "stdout diverged"
    if result.exit_code != expected.exit_code:
        return f"exit code {result.exit_code} != {expected.exit_code}"
    return None


class ReplayEngine:
    """Owns every dynamic re-execution of one refinement pipeline run.

    One engine per :func:`~repro.core.driver.wytiwyg_lift` invocation;
    it deduplicates the traced inputs once and carries each deferred
    validation into the next replay run.
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
        #: The stage whose validation the next replay run carries.
        self._pending: str | None = None
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

    # -- validation ----------------------------------------------------------

    def _check(self, stage: str, i: int, interp: Interpreter,
               carrier: str | None = None) -> None:
        """Run ``interp`` (a replay of traced input #i) and compare its
        exit code and stdout with the trace; raise
        :class:`SymbolizeError` naming ``stage`` and the input (and the
        interpreter error, if one was swallowed) on divergence."""
        try:
            result = interp.run()
        except Exception as exc:  # counted and noted below, not silent
            reason, interp_error = f"{type(exc).__name__}: {exc}", True
        else:
            reason = _compare(result, self.traces.results[i])
            if reason is None:
                return
            interp_error = False
        if interp_error:
            obs.count("validate.interpreter_errors")
            self.notes.append(f"validate[{stage}]: interpreter error on "
                              f"input #{i}: {reason}")
        obs.event("validate.verdict", stage=stage, verdict="failed",
                  input=i, reason=reason, interpreter_error=interp_error,
                  carrier=carrier)
        raise SymbolizeError(
            f"{stage} broke functionality: traced input "
            f"#{i} {self.traces.inputs[i]!r} diverged ({reason})")

    def validate(self, module: Module, stage: str) -> str:
        """Functional check: a standalone sweep over every distinct
        input.  Returns ``"ok"``; raises :class:`SymbolizeError` naming
        the diverging input on failure."""
        with obs.timed("replay.validate_seconds"):
            # Cheapest traced run first: a broken refinement usually
            # breaks every input, so fail on the cheapest one.
            results = self.traces.results
            order = sorted(self.unique,
                           key=lambda i: (results[i].cycles, i))
            for i in order:
                obs.count("replay.runs")
                self._check(stage, i,
                            Interpreter(module, self.traces.inputs[i]))
            obs.event("validate.verdict", stage=stage, verdict="ok",
                      runs=len(order))
            return "ok"

    def defer(self, module: Module, stage: str) -> str:
        """Validate ``stage`` in the next replay run (:meth:`carrier`)
        instead of a sweep of its own; returns the span verdict
        ``"folded"``.  In baseline mode the sweep runs now."""
        if self.baseline:
            return self.validate(module, stage)
        self._pending = stage
        return "folded"

    @contextmanager
    def carrier(self, name: str):
        """One replay run over the distinct inputs, named ``name``.

        Yields ``run(k, interp)``, which executes the interpreter
        replaying ``unique_inputs[k]``.  While a validation is deferred,
        ``run`` also checks the output against the trace, failing at the
        first divergence in traced order; a completed run records the
        deferred stage as validated."""
        stage, self._pending = self._pending, None
        if stage is None:
            yield lambda k, interp: interp.run()
            return
        unique = self.unique
        yield lambda k, interp: self._check(stage, unique[k], interp,
                                            carrier=name)
        obs.count("replay.validations_folded")
        obs.event("validate.verdict", stage=stage, verdict="ok",
                  runs=len(unique), carrier=name)

    # -- instrumented bounds runs (§4.2) -------------------------------------

    def run_instrumented(self, module: Module) -> TracingRuntime:
        """Execute the probe-instrumented module on every distinct input,
        in traced order, against one shared tracing runtime; the run
        carries any deferred validation."""
        with obs.timed("replay.bounds_seconds"), \
                self.carrier("bounds") as run:
            runtime = TracingRuntime()
            inputs = self.traces.inputs
            for k, i in enumerate(self.unique):
                obs.count("replay.runs")
                interp = Interpreter(module, inputs[i],
                                     intrinsic_handler=runtime.handle)
                runtime.bind(interp)
                run(k, interp)
                if obs.ledger() is not None:
                    obs.event("trace.merged", input=i,
                              stack_vars=len(runtime.stack_vars),
                              arg_accesses=len(runtime.arg_accesses),
                              links=len(runtime.links))
            return runtime

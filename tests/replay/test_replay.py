"""The replay engine: dedup, validation folded into the next stage's
run, and the instrumented bounds runs over one shared tracing
runtime."""

from pathlib import Path

import pytest

from repro import obs
from repro.core import driver
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.core.regsave import classify_registers
from repro.core.runtime import ArgAccess, StackVar, TracingRuntime
from repro.emu import trace_binary
from repro.emu.memory import Memory
from repro.errors import SymbolizeError
from repro.ir.values import BinOp, CallExt, Const
from repro.lifting import lift_traces
from repro.replay import ReplayEngine, module_fingerprint
from tests.conftest import cached_image

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: Exit-code workload (no printf): the varargs stage has no call sites
#: to observe, so it replays nothing.
EXIT_SOURCE = r"""
int mix(int a, int b) {
    int acc = a;
    for (int i = 0; i < b; i++) acc = acc * 31 + i;
    return acc;
}
int main() {
    int n = read_int();
    int seed = read_int();
    return mix(seed, n * 10) % 97;
}
"""

INPUTS = [[5, 1], [6, 2], [7, 3], [8, 4], [5, 1], [6, 2]]


def _traced(source=EXIT_SOURCE, inputs=INPUTS):
    image = cached_image(source)
    traces = trace_binary(image.stripped(), inputs)
    return image, traces


# -- one tracing runtime across the bounds runs -----------------------------

#: Fills the first n elements of a local array: each input touches a
#: different prefix, so the recovered extent depends on every input.
PREFIX_SOURCE = r"""
int main() {
    int buf[12];
    int i;
    int n;
    n = read_int();
    for (i = 0; i < n; i++) buf[i] = i * 5;
    int s = 0;
    for (i = 0; i < n; i++) s += buf[i];
    printf("s=%d\n", s);
    return 0;
}
"""


def _extents(inputs):
    image = cached_image(PREFIX_SOURCE)
    _module, layouts, _notes, _report = wytiwyg_lift(
        trace_binary(image.stripped(), inputs))
    return {name: [(v.start, v.end) for v in layout.variables]
            for name, layout in layouts.items()}


def test_bounds_runs_widen_across_inputs():
    """Bounds observed on different inputs widen one shared variable,
    whatever order the inputs were traced in."""
    short, long = _extents([[2]]), _extents([[9]])
    assert short != long
    assert _extents([[2], [9]]) == _extents([[9], [2]]) == long


def test_arg_access_span_does_not_fabricate_walked():
    # A span wider than one word must NOT set `walked` -- that flag
    # records *how* the area was accessed, not its extent.
    access = ArgAccess(callsite_id=7)
    access.touch(0, 4)
    access.touch(4, 4)
    assert (access.low, access.high) == (0, 8)
    assert not access.walked
    access.touch(9, 1)
    assert access.walked


def test_bind_resets_per_execution_state():
    runtime = TracingRuntime()
    runtime.stack_vars[1] = StackVar(ref_id=1, func_name="f",
                                     sp0_offset=-8, low=0, high=4)
    runtime._addr_map[0x1000] = None
    runtime._pending_args.append((3, []))
    runtime._pending_rets.append([])
    runtime._copy_stage = [(5, None)]
    runtime.bind(object())
    assert (runtime._addr_map, runtime._pending_args,
            runtime._pending_rets, runtime._copy_stage) == ({}, [], [], [])
    # Cross-run observations survive the re-bind.
    assert runtime.stack_vars[1].high == 4


# -- fingerprint --------------------------------------------------------------


def test_fingerprint_stable_and_mutation_sensitive():
    _image, traces = _traced()
    module = lift_traces(traces)
    fp1 = module_fingerprint(module)
    assert fp1 == module_fingerprint(module)

    func = next(iter(module.functions.values()))
    term = func.entry.instrs.pop()
    func.entry.append(term)  # version bumped, content identical
    assert module_fingerprint(module) == fp1

    func.entry.insert(0, BinOp("add", Const(1), Const(2)))
    assert module_fingerprint(module) != fp1


# -- dedup --------------------------------------------------------------------


def test_engine_dedups_traced_inputs():
    _image, traces = _traced()
    engine = ReplayEngine(traces)
    assert len(engine.unique) == 4
    assert engine.deduped == 2
    # Traced order, first occurrences.
    assert engine.unique == [0, 1, 2, 3]
    assert engine.unique_inputs == INPUTS[:4]


# -- validation ----------------------------------------------------------------


def _rewrite_exit(module, operand) -> None:
    """Make every exit call consume ``operand`` instead of its traced
    argument."""
    mutated = False
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == "exit":
                instr.ops = [operand]
                instr.stack_args = False
                mutated = True
        func.invalidate()
    assert mutated


def _break_exit(module) -> None:
    # Force exit(123): no traced run of the test programs exits with it.
    _rewrite_exit(module, Const(123))


def _crash_exit(module) -> None:
    # Dangling operand: the exit call consumes an instruction that never
    # executes, so every replay dies with an interpreter error.
    _rewrite_exit(module, BinOp("add", Const(1), Const(2)))


def _verdicts(ledger, verdict):
    return [(e["stage"], e.get("carrier"))
            for e in ledger.events
            if e["kind"] == "validate.verdict" and e["verdict"] == verdict]


def test_validation_failure_names_diverging_input():
    _image, traces = _traced()
    module = lift_traces(traces)
    engine = ReplayEngine(traces)
    _break_exit(module)
    with pytest.raises(SymbolizeError) as err:
        engine.validate(module, "broken stage")
    assert "broken stage" in str(err.value)
    assert "traced input #" in str(err.value)


def test_interpreter_error_is_counted_and_noted():
    _image, traces = _traced()
    module = lift_traces(traces)
    engine = ReplayEngine(traces)
    _crash_exit(module)
    rec = obs.enable(reset=True)
    try:
        with pytest.raises(SymbolizeError) as err:
            engine.validate(module, "crashing stage")
        assert rec.registry.counters.get(
            "validate.interpreter_errors") == 1
        assert any("interpreter error" in n for n in engine.notes)
        assert "diverged" in str(err.value)
    finally:
        obs.disable()


# -- validation folded into the next stage's run ------------------------------


def _broken_varargs(monkeypatch):
    """Make the varargs rewrite print a constant instead of the value."""
    real = driver.recover_vararg_calls

    def broken(module, inputs):
        nsites = real(module, inputs)
        for func in module.functions.values():
            for instr in func.instructions():
                if isinstance(instr, CallExt) and \
                        instr.ext_name == "printf" and not instr.stack_args:
                    instr.ops = instr.ops[:1] + \
                        [Const(7777)] * (len(instr.ops) - 1)
            func.invalidate()
        return nsites
    monkeypatch.setattr(driver, "recover_vararg_calls", broken)


def test_regsave_run_catches_broken_varargs_rewrite(monkeypatch):
    image = cached_image(PREFIX_SOURCE)
    traces = trace_binary(image.stripped(), [[4], [7]])
    _broken_varargs(monkeypatch)
    ledger = obs.enable_ledger()
    try:
        with pytest.raises(SymbolizeError) as err:
            wytiwyg_lift(traces)
    finally:
        obs.disable_ledger()
    assert "varargs refinement" in str(err.value)
    # Folded checks stop at the first divergence in traced order.
    assert "traced input #0 [4]" in str(err.value)
    assert _verdicts(ledger, "failed") == [("varargs refinement",
                                            "regsave")]


def test_bounds_run_catches_broken_register_classification(monkeypatch):
    _image, traces = _traced()
    real = driver.apply_register_classification

    def broken(module, classification):
        real(module, classification)
        _break_exit(module)
    monkeypatch.setattr(driver, "apply_register_classification", broken)
    ledger = obs.enable_ledger()
    try:
        with pytest.raises(SymbolizeError) as err:
            wytiwyg_lift(traces)
    finally:
        obs.disable_ledger()
    assert "register refinement" in str(err.value)
    assert "traced input #0" in str(err.value)
    assert _verdicts(ledger, "ok") == [("varargs refinement", "regsave")]
    assert _verdicts(ledger, "failed") == [("register refinement",
                                            "bounds")]


def _regsave_run(engine, module):
    with engine.carrier("regsave") as run:
        classify_registers(module, engine.replay_inputs("regsave"),
                           run=run)


def _bounds_run(engine, module):
    engine.run_instrumented(module)


@pytest.mark.parametrize("carry", [_regsave_run, _bounds_run])
def test_folded_run_interpreter_error_is_symbolize_error(carry):
    _image, traces = _traced()
    module = lift_traces(traces)
    _crash_exit(module)
    engine = ReplayEngine(traces)
    rec = obs.enable(reset=True)
    try:
        assert engine.defer(module, "crashing stage") == "folded"
        with pytest.raises(SymbolizeError) as err:
            carry(engine, module)
        counters = rec.registry.counters
        assert counters.get("validate.interpreter_errors") == 1
        assert counters.get("replay.validations_folded") is None
    finally:
        obs.disable()
    assert "crashing stage" in str(err.value)
    assert "traced input #0" in str(err.value)
    assert len(engine.notes) == 1
    assert engine.notes[0].startswith(
        "validate[crashing stage]: interpreter error on input #0: ")


def test_carrier_without_deferred_stage_only_runs():
    _image, traces = _traced()
    module = lift_traces(traces)
    _break_exit(module)
    engine = ReplayEngine(traces)
    # Nothing deferred: the run observes, it does not judge.
    _bounds_run(engine, module)
    # A deferred check is consumed by exactly one carrier run.
    engine.defer(module, "broken stage")
    with pytest.raises(SymbolizeError):
        _bounds_run(engine, module)
    _bounds_run(engine, module)


def test_recompile_falls_back_on_folded_failure(monkeypatch):
    image = cached_image(PREFIX_SOURCE)
    traces = trace_binary(image.stripped(), [[4]])
    _broken_varargs(monkeypatch)
    result = wytiwyg_recompile(image, [[4]], traces=traces)
    assert result.fallback
    assert result.layouts == {}
    assert result.notes[0].startswith(
        "fallback to unsymbolized pipeline: varargs refinement broke "
        "functionality: traced input #0")


@pytest.mark.parametrize("source, runs", [
    # printf: varargs, regsave, bounds, validate.
    ((EXAMPLES / "quickstart.c").read_text(), 4),
    # No variadic call sites: the varargs stage replays nothing.
    (EXIT_SOURCE, 3),
], ids=["printf", "no-printf"])
def test_lifted_ir_runs_per_distinct_input(source, runs):
    inputs = [[5, 1], [9, 2], [5, 1]]
    image = cached_image(source)
    traces = trace_binary(image.stripped(), inputs)
    rec = obs.enable(reset=True)
    try:
        result = wytiwyg_recompile(image, inputs, traces=traces,
                                   allow_fallback=False)
        counters = dict(rec.registry.counters)
    finally:
        obs.disable()
    assert not result.fallback
    assert counters["ir.runs"] == runs * 2
    assert counters["replay.deduped"] == 1
    assert counters["replay.validations_folded"] == 2


def test_baseline_keeps_standalone_sweeps(monkeypatch):
    monkeypatch.setenv("REPRO_REPLAY_BASELINE", "1")
    _image, traces = _traced(inputs=[[5, 1], [6, 2]])
    rec = obs.enable(reset=True)
    ledger = obs.enable_ledger()
    try:
        wytiwyg_lift(traces)
        counters = dict(rec.registry.counters)
    finally:
        obs.disable_ledger()
        obs.disable()
    assert counters.get("replay.validations_folded") is None
    assert _verdicts(ledger, "ok") == [
        ("varargs refinement", None), ("register refinement", None),
        ("stack symbolization", None)]


# -- probes are invisible to the program --------------------------------------


@pytest.mark.parametrize("example, inputs", [
    ("quickstart", [[5], [9]]),
    ("escape", [[3], [8]]),
    ("undertrace", [[3], [9]]),
])
def test_bounds_probes_write_no_memory_and_set_no_value(
        monkeypatch, example, inputs):
    """The bounds runs validate the register refinement only because
    probes cannot change what the program computes: the tracing runtime
    never writes memory and an intrinsic never defines a value."""
    image = cached_image((EXAMPLES / f"{example}.c").read_text())
    traces = trace_binary(image.stripped(), inputs)
    inside = []
    handled = []
    writes = []
    real_handle = TracingRuntime.handle

    def handle(self, frame, instr, args):
        inside.append(instr)
        try:
            real_handle(self, frame, instr, args)
        finally:
            inside.pop()
        handled.append(instr)
        assert instr not in frame.values, instr

    def spy(name):
        real = getattr(Memory, name)

        def wrapped(self, *args):
            if inside:
                writes.append((name, inside[-1], args))
            return real(self, *args)
        monkeypatch.setattr(Memory, name, wrapped)

    spy("write")
    spy("write_bytes")
    monkeypatch.setattr(TracingRuntime, "handle", handle)
    wytiwyg_lift(traces)
    assert handled, "no probe executed"
    assert writes == []


# -- byte-identity -----------------------------------------------------------


def _recompile(image, inputs, traces, **kw):
    result = wytiwyg_recompile(image, inputs, traces=traces,
                               allow_fallback=False, **kw)
    layouts = {
        name: [(v.name, v.start, v.end, v.align)
               for v in layout.variables]
        for name, layout in result.layouts.items()
    }
    return result, layouts


def test_analysis_cache_off_is_byte_identical(monkeypatch):
    from repro.opt import analysis

    image, traces = _traced()
    cached, cached_layouts = _recompile(image, INPUTS, traces)
    monkeypatch.setattr(analysis, "_CACHE_ENABLED", False)
    plain, plain_layouts = _recompile(image, INPUTS, traces)
    assert plain.recovered.to_json() == cached.recovered.to_json()
    assert plain_layouts == cached_layouts


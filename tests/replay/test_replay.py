"""The replay engine: dedup, fingerprint-gated validation, and the
instrumented bounds runs over one shared tracing runtime."""

import pytest

from repro import obs
from repro.core.driver import wytiwyg_lift, wytiwyg_recompile
from repro.core.runtime import ArgAccess, StackVar, TracingRuntime
from repro.emu import trace_binary
from repro.errors import SymbolizeError
from repro.ir.values import BinOp, CallExt, Const
from repro.lifting import lift_traces
from repro.replay import ReplayEngine, module_fingerprint
from tests.conftest import cached_image

#: Exit-code workload (no printf): the varargs stage is a no-op, so its
#: validation sweep must be fingerprint-skipped.
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


# -- dedup + validation skipping ----------------------------------------------


def test_engine_dedups_traced_inputs():
    _image, traces = _traced()
    engine = ReplayEngine(traces)
    assert len(engine.unique) == 4
    assert engine.deduped == 2
    # Traced order, first occurrences.
    assert engine.unique == [0, 1, 2, 3]
    assert engine.unique_inputs == INPUTS[:4]


def test_validation_skipped_until_module_mutates():
    _image, traces = _traced()
    module = lift_traces(traces)
    rec = obs.enable(reset=True)
    try:
        engine = ReplayEngine(traces)
        engine.mark_valid(module)
        assert engine.validate(module, "noop stage") == "skipped"
        counters = rec.registry.counters
        assert counters.get("replay.validations_skipped") == 1
        assert counters.get("replay.runs", 0) == 0

        # A real (harmless) mutation must force a full re-validation.
        func = next(iter(module.functions.values()))
        func.entry.insert(0, BinOp("add", Const(1), Const(2)))
        assert engine.validate(module, "mutated stage") == "ok"
        assert counters.get("replay.runs") == len(engine.unique)
    finally:
        obs.disable()


def test_validation_failure_names_diverging_input():
    _image, traces = _traced()
    module = lift_traces(traces)
    engine = ReplayEngine(traces)
    # Break the program: force exit(123); the traced exit codes are
    # mix(...) % 97 truncations that never equal 123.
    mutated = False
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == "exit":
                instr.ops = [Const(123)]
                instr.stack_args = False
                mutated = True
        func.invalidate()
    assert mutated
    with pytest.raises(SymbolizeError) as err:
        engine.validate(module, "broken stage")
    assert "broken stage" in str(err.value)
    assert "traced input #" in str(err.value)


def test_interpreter_error_is_counted_and_noted():
    _image, traces = _traced()
    module = lift_traces(traces)
    engine = ReplayEngine(traces)
    # Dangling operand: the exit call consumes an instruction that never
    # executes, so every replay dies with an interpreter error.
    dangling = BinOp("add", Const(1), Const(2))
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, CallExt) and instr.ext_name == "exit":
                instr.ops = [dangling]
                instr.stack_args = False
        func.invalidate()
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


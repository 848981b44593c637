"""Module-level lowering and linking (repro.recompile.link).

Covers the paths the per-function lowering tests don't: address-table
resolution for indirect calls, duplicate- and missing-symbol link
errors, global-initializer validation, and recompiled text placement.
"""

import pytest

from repro.emu import run_binary
from repro.errors import AsmError, LowerError
from repro.ir import Builder, Function, GlobalRef, GlobalVar, Module
from repro.ir.values import Const
from repro.recompile import LowerOptions, compile_ir
from repro.recompile.link import RECOMP_TEXT_BASE, lower_module, recompile_ir
from repro.recompile.lower import RESOLVER_NAME


def _indirect_module():
    m = Module()
    target = Function("target", [])
    b = Builder(target)
    b.position(target.add_block("entry"))
    b.ret([Const(5)])
    target.orig_entry = 0x1234
    m.add_function(target)
    m.address_table[0x1234] = "target"

    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    call = b.call_indirect(Const(0x1234), [])
    b.ret([call])
    m.add_function(main)
    m.entry_name = "main"
    return m


def _returning(value) -> Module:
    m = Module()
    f = Function("main", [])
    m.add_function(f)
    m.entry_name = "main"
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([value])
    return m


# -- address-table resolution -------------------------------------------------


def test_indirect_call_resolves_through_address_table():
    module = _indirect_module()
    program = lower_module(module)
    assert any(f.name == RESOLVER_NAME for f in program.functions)
    assert run_binary(compile_ir(module)).exit_code == 5


def test_resolver_traps_on_address_outside_table():
    module = _indirect_module()
    func = module.functions["main"]
    call = next(i for i in func.instructions()
                if type(i).__name__ == "CallInd")
    call.ops[0] = Const(0xDEAD)
    func.invalidate()
    result = run_binary(compile_ir(module))
    # build_resolver's dispatcher halts with trap_code - 1 so an
    # untable'd target is distinguishable from an untraced-path trap.
    assert result.exit_code == LowerOptions().trap_code - 1


def test_no_resolver_emitted_without_indirect_calls():
    module = _returning(Const(0))
    module.address_table[0x1000] = "main"
    program = lower_module(module)
    assert not any(f.name == RESOLVER_NAME for f in program.functions)


# -- symbol errors ------------------------------------------------------------


def test_duplicate_symbol_between_global_and_function():
    module = _returning(Const(0))
    module.add_global(GlobalVar("main", 4))
    with pytest.raises(AsmError, match="duplicate"):
        compile_ir(module)


def test_missing_symbol_in_code_is_a_link_error():
    module = _returning(Const(0))
    b = Builder(module.functions["main"])
    b.position(module.functions["main"].entry)
    module.functions["main"].entry.instrs.pop()  # drop the ret
    b.ret([b.load(GlobalRef("nowhere"))])
    module.functions["main"].invalidate()
    with pytest.raises(AsmError, match="undefined label 'nowhere'"):
        compile_ir(module)


def test_missing_symbol_in_data_is_a_link_error():
    module = _returning(Const(0))
    module.add_global(GlobalVar("table", 4, [GlobalRef("nowhere")]))
    with pytest.raises(AsmError, match="undefined label 'nowhere'"):
        compile_ir(module)


# -- global initializers ------------------------------------------------------


def test_initializer_overflow_is_a_lower_error():
    module = _returning(Const(0))
    module.add_global(GlobalVar("g", 4, [1, 2]))
    with pytest.raises(LowerError, match="overflows"):
        compile_ir(module)


def test_bad_initializer_cell_is_a_lower_error():
    module = _returning(Const(0))
    module.add_global(GlobalVar("g", 8, ["not-a-word"]))
    with pytest.raises(LowerError, match="bad initializer cell"):
        compile_ir(module)


def test_word_initializer_pads_to_size():
    module = _returning(Const(0))
    module.add_global(GlobalVar("g", 16, [7]))
    item = next(d for d in lower_module(module).data if d.name == "g")
    assert item.payload == [7, 0, 0, 0]


# -- recompiled placement -----------------------------------------------------


def test_recompile_ir_places_text_clear_of_original():
    module = _returning(Const(3))
    image = recompile_ir(module)
    assert image.text.base == RECOMP_TEXT_BASE
    assert run_binary(image).exit_code == 3

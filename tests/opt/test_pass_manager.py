"""Module-level drivers of the fixed pass schedule (repro.opt.manager):
the transitive unused-function sweep that closes ``optimize_module``."""

from repro.ir import (
    Builder,
    Const,
    Function,
    Module,
    run_module,
    verify_module,
)
from repro.opt import (
    OptOptions,
    drop_unused_private_functions,
    optimize_module,
)


def _dead_cycle_module():
    """main plus two mutually-recursive functions nothing references."""
    m = Module()
    for name, other in (("dead_a", "dead_b"), ("dead_b", "dead_a")):
        f = Function(name, ["n"])
        b = Builder(f)
        b.position(f.add_block("entry"))
        b.ret([b.call(other, [f.params[0]])])
        m.add_function(f)
    main = Function("main", [])
    b = Builder(main)
    b.position(main.add_block("entry"))
    b.ret([Const(7)])
    m.add_function(main)
    m.entry_name = "main"
    return m


def test_drop_unused_removes_dead_cycle():
    """Mutually-recursive dead functions keep each other alive under a
    flat reference scan; the transitive sweep drops the whole cycle."""
    m = _dead_cycle_module()
    drop_unused_private_functions(m)
    assert set(m.functions) == {"main"}
    verify_module(m)
    assert run_module(m).exit_code == 7


def test_optimize_module_drops_dead_cycle():
    m = _dead_cycle_module()
    optimize_module(m, OptOptions.o2())
    assert set(m.functions) == {"main"}

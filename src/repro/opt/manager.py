"""Module-level drivers around the fixed pass schedule.

:func:`canonicalize_module` is the recompiler's canonicalization stage,
:func:`drop_unused_private_functions` the post-inlining sweep that closes
:func:`repro.opt.pipeline.optimize_module`, and :func:`clear_memo` drops
the only optimizer state that outlives a call (the CFG-analysis cache of
:mod:`repro.opt.analysis`).
"""

from __future__ import annotations

from ..ir.module import Module
from . import constfold, dce, flagfuse, gvn, mem2reg, simplifycfg
from .analysis import _CACHE


def clear_memo() -> None:
    """Drop the cached CFG analyses (cold-path benches and tests)."""
    _CACHE.clear()


def canonicalize_module(module: Module) -> None:
    """The driver's canonicalization stage: SSA-ify vcpu registers and
    fold address arithmetic with one fixed round per function."""
    for func in module.functions.values():
        simplifycfg.simplify_cfg(func)
        mem2reg.promote_allocas(func)
        constfold.fold_constants(func)
        flagfuse.fuse_flags(func)
        constfold.fold_constants(func)
        gvn.global_value_numbering(func)
        dce.eliminate_dead_code(func)
        simplifycfg.simplify_cfg(func)


def drop_unused_private_functions(module: Module) -> None:
    """Remove functions unreachable from the module's roots
    (post-inlining).

    Roots are the entry function, every address-table target, and every
    function named by a global initializer; reachability is *transitive*
    over call/operand references from live functions only, so
    mutually-recursive dead functions — which keep each other alive
    under a flat all-references scan — are dropped together.
    """
    roots: set[str] = set()
    if module.entry_name in module.functions:
        roots.add(module.entry_name)
    roots.update(name for name in module.address_table.values()
                 if name in module.functions)
    for g in module.globals.values():
        if isinstance(g.init, list):
            for word in g.init:
                name = getattr(word, "name", None)
                if isinstance(name, str) and name in module.functions:
                    roots.add(name)
    live: set[str] = set()
    work = list(roots)
    while work:
        name = work.pop()
        if name in live:
            continue
        live.add(name)
        for instr in module.functions[name].instructions():
            for op in instr.operands():
                ref = getattr(op, "name", None)
                if isinstance(ref, str) and ref not in live \
                        and ref in module.functions:
                    work.append(ref)
    module.functions = {name: f for name, f in module.functions.items()
                        if name in live}

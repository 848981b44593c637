"""Dead code elimination: root-based mark and sweep.

Roots are instructions with side effects (stores, calls, probes) and
terminators; everything else is pure and survives only if reachable from
a root through operand edges.  This formulation removes dead phi webs —
loop-carried value cycles no root ever consumes — which use-count DCE
cannot see because the phis keep each other alive.
"""

from __future__ import annotations

from ..ir.module import Function
from ..ir.values import (
    Alloca,
    BinOp,
    ICmp,
    Instr,
    Load,
    Phi,
    Result,
    Unary,
)

#: Pure instruction classes (loads are pure in this IR: no volatile).
_PURE = (BinOp, ICmp, Unary, Phi, Result, Load, Alloca)


def _is_removable(instr: Instr) -> bool:
    return isinstance(instr, _PURE)


def eliminate_dead_code(func: Function) -> bool:
    live: set[Instr] = set()
    work: list[Instr] = []
    for instr in func.instructions():
        if not _is_removable(instr):
            work.append(instr)
    while work:
        instr = work.pop()
        for op in instr.operands():
            if isinstance(op, Instr) and op not in live:
                live.add(op)
                work.append(op)
    dead = [instr for instr in func.instructions()
            if _is_removable(instr) and instr not in live]
    if not dead:
        return False
    dead_set = set(dead)
    for block in func.blocks:
        block.instrs = [i for i in block.instrs if i not in dead_set]
    func.invalidate()
    return True

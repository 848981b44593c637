"""Control-flow graph simplification.

Removes unreachable blocks, folds constant branches, merges straight-line
block chains and forwards empty blocks — the canonicalizations that keep
the rest of the pipeline (and the lowerer) working on small CFGs.
"""

from __future__ import annotations

from ..ir.module import Function
from ..ir.values import Br, CondBr, Const, Switch
from .analysis import predecessors, reachable


def remove_unreachable(func: Function) -> bool:
    live = set(reachable(func))
    dead = [b for b in func.blocks if b not in live]
    if not dead:
        return False
    for block in live:
        for phi in block.phis():
            for d in dead:
                if d in phi.blocks:
                    phi.remove_incoming(d)
    func.blocks = [b for b in func.blocks if b in live]
    func.invalidate()
    return True


def fold_constant_branches(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondBr) and isinstance(term.cond, Const):
            taken = term.if_true if term.cond.value else term.if_false
            dropped = term.if_false if term.cond.value else term.if_true
            block.instrs[-1] = Br(taken)
            block.instrs[-1].block = block
            if dropped is not taken:
                for phi in dropped.phis():
                    if block in phi.blocks:
                        phi.remove_incoming(block)
            changed = True
        elif isinstance(term, CondBr) and term.if_true is term.if_false:
            block.instrs[-1] = Br(term.if_true)
            block.instrs[-1].block = block
            changed = True
        elif isinstance(term, Switch) and isinstance(term.value, Const):
            target = term.default
            for case, dest in term.cases:
                if (case & 0xFFFFFFFF) == term.value.value:
                    target = dest
                    break
            for succ in term.successors():
                if succ is not target:
                    for phi in succ.phis():
                        if block in phi.blocks:
                            phi.remove_incoming(block)
            block.instrs[-1] = Br(target)
            block.instrs[-1].block = block
            changed = True
    if changed:
        func.invalidate()
    return changed


def merge_block_chains(func: Function) -> bool:
    """Merge B into A when A ends ``br B`` and B has A as sole pred."""
    changed = False
    while True:
        preds = predecessors(func)
        merged = False
        for block in func.blocks:
            if not block.is_terminated:
                continue
            term = block.terminator
            if not isinstance(term, Br):
                continue
            succ = term.target
            if succ is block or succ is func.entry:
                continue
            if len(preds[succ]) != 1:
                continue
            if succ.phis():
                for phi in succ.phis():
                    value = phi.value_for(block)
                    _replace_value_everywhere(func, phi, value)
                succ.instrs = succ.instrs[len(succ.phis()):]
            block.instrs.pop()  # drop the br
            for instr in succ.instrs:
                instr.block = block
                block.instrs.append(instr)
            # Successor phis naming `succ` as incoming now come from `block`.
            for nxt in block.successors():
                for phi in nxt.phis():
                    phi.blocks = [block if b is succ else b
                                  for b in phi.blocks]
            func.blocks.remove(succ)
            func.invalidate()
            merged = True
            changed = True
            break
        if not merged:
            return changed


def forward_empty_blocks(func: Function) -> bool:
    """Retarget branches through blocks that only contain ``br X``."""
    changed = False
    for block in list(func.blocks):
        if block is func.entry or len(block.instrs) != 1:
            continue
        term = block.instrs[0]
        if not isinstance(term, Br):
            continue
        target = term.target
        if target is block or target.phis():
            # Forwarding into a phi-block would need incoming rewrites that
            # can conflict; leave those to merge_block_chains.
            continue
        preds = predecessors(func)[block]
        if not preds:
            continue
        for pred in preds:
            pterm = pred.terminator
            if isinstance(pterm, Br) and pterm.target is block:
                pterm.target = target
            elif isinstance(pterm, CondBr):
                if pterm.if_true is block:
                    pterm.if_true = target
                if pterm.if_false is block:
                    pterm.if_false = target
            elif isinstance(pterm, Switch):
                pterm.cases = [(v, target if b is block else b)
                               for v, b in pterm.cases]
                if pterm.default is block:
                    pterm.default = target
            changed = True
        # Terminators were retargeted in place (same instruction count);
        # the cached predecessor map read above is now stale.
        func.invalidate()
    if changed:
        remove_unreachable(func)
    return changed


def simplify_single_incoming_phis(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        for phi in list(block.phis()):
            distinct = {v for v in phi.ops if v is not phi}
            if len(distinct) == 1:
                _replace_value_everywhere(func, phi, distinct.pop())
                block.instrs.remove(phi)
                changed = True
    if changed:
        func.invalidate()
    return changed


def _replace_value_everywhere(func: Function, old, new) -> None:
    for instr in func.instructions():
        instr.replace_operand(old, new)


def simplify_cfg(func: Function) -> bool:
    """Run all CFG simplifications to a fixed point."""
    changed = False
    while True:
        round_changed = False
        round_changed |= remove_unreachable(func)
        round_changed |= fold_constant_branches(func)
        round_changed |= remove_unreachable(func)
        round_changed |= merge_block_chains(func)
        round_changed |= forward_empty_blocks(func)
        round_changed |= simplify_single_incoming_phis(func)
        if not round_changed:
            return changed
        changed = True

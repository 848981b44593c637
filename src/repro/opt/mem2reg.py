"""Promotion of allocas to SSA registers (mem2reg).

This is the pass that gives stack symbolization its payoff: once WYTIWYG
has replaced emulated-stack traffic with distinct allocas, mem2reg turns
scalar locals into SSA values and the rest of the pipeline can finally
reason about them.  Against the opaque emulated-stack byte array the pass
can do nothing — exactly the contrast the paper evaluates.
"""

from __future__ import annotations

from ..ir.module import Block, Function
from ..ir.values import Alloca, Const, Instr, Load, Phi, Store, Unary, Value
from .analysis import dominators
from .simplifycfg import remove_unreachable


def promotable_allocas(func: Function) -> list[Alloca]:
    """Allocas in the entry block whose address never escapes.

    Every use must be a load from, or a store of an unrelated value to,
    the alloca's exact address, and access sizes must allow a single SSA
    value to carry the content (all loads no wider than every store).
    """
    candidates: dict[Alloca, dict] = {}
    for instr in func.entry.instrs:
        if isinstance(instr, Alloca):
            candidates[instr] = {"loads": [], "stores": [], "ok": True}
    if not candidates:
        return []
    for instr in func.instructions():
        for op in instr.operands():
            if isinstance(op, Alloca) and op in candidates:
                info = candidates[op]
                if isinstance(instr, Load) and instr.addr is op:
                    info["loads"].append(instr)
                elif isinstance(instr, Store) and instr.addr is op \
                        and instr.value is not op:
                    info["stores"].append(instr)
                else:
                    info["ok"] = False
    out = []
    for alloca, info in candidates.items():
        if not info["ok"]:
            continue
        max_load = max((ld.size for ld in info["loads"]), default=0)
        min_store = min((st.size for st in info["stores"]), default=4)
        if max_load <= min_store:
            out.append(alloca)
    return out


_EXT_FOR_SIZE = {1: "zext8", 2: "zext16"}


def promote_allocas(func: Function) -> bool:
    """Run mem2reg on all promotable allocas. Returns True if changed."""
    changed = remove_unreachable(func)
    allocas = promotable_allocas(func)
    if not allocas:
        return changed
    alloca_set = set(allocas)
    doms = dominators(func)

    # Phi placement at iterated dominance frontiers of defining blocks.
    phi_for: dict[tuple[Block, Alloca], Phi] = {}
    for alloca in allocas:
        def_blocks = {instr.block for instr in func.instructions()
                      if isinstance(instr, Store) and instr.addr is alloca}
        work = list(def_blocks)
        placed: set[Block] = set()
        while work:
            block = work.pop()
            for frontier in doms.frontiers.get(block, ()):
                if frontier in placed:
                    continue
                placed.add(frontier)
                phi = Phi([])
                phi.block = frontier
                frontier.instrs.insert(0, phi)
                phi_for[(frontier, alloca)] = phi
                work.append(frontier)

    replacements: dict[Instr, Value] = {}
    alloca_of_phi = {phi: a for (_b, a), phi in phi_for.items()}

    def rename(block: Block, state: dict[Alloca, Value]) -> None:
        for instr in list(block.instrs):
            if isinstance(instr, Phi):
                alloca = alloca_of_phi.get(instr)
                if alloca is not None:
                    state[alloca] = instr
                continue
            if isinstance(instr, Load) and instr.addr in alloca_set:
                alloca = instr.addr
                current = state.get(alloca, Const(0))
                if instr.size < 4:
                    ext = Unary(_EXT_FOR_SIZE[instr.size], current)
                    ext.block = block
                    pos = block.instrs.index(instr)
                    block.instrs[pos] = ext
                    replacements[instr] = ext
                else:
                    replacements[instr] = current
            elif isinstance(instr, Store) and instr.addr in alloca_set:
                state[instr.addr] = instr.value

        # Feed successor phis (each executed predecessor contributes one
        # incoming; duplicate edges contribute duplicates consistently).
        for succ in block.successors():
            for alloca in allocas:
                phi = phi_for.get((succ, alloca))
                if phi is not None:
                    phi.add_incoming(block,
                                     state.get(alloca, Const(0)))

    # Iterative dominator-tree preorder walk (lifted -O0 functions can
    # have very deep dominator trees; recursion would overflow).
    work: list[tuple[Block, dict[Alloca, Value]]] = [(func.entry, {})]
    while work:
        block, state = work.pop()
        rename(block, state)
        for child in doms.tree_children(block):
            work.append((child, dict(state)))

    # Drop dead loads/stores/allocas and resolve replacement chains.
    def resolve(v: Value) -> Value:
        while isinstance(v, Instr) and v in replacements:
            v = replacements[v]
        return v

    for block in func.blocks:
        new_instrs = []
        for instr in block.instrs:
            if instr in replacements and not isinstance(instr, Unary):
                continue  # plain load, folded away
            if isinstance(instr, Store) and instr.addr in alloca_set:
                continue
            if isinstance(instr, Alloca) and instr in alloca_set:
                continue
            instr.ops = [resolve(op) for op in instr.ops]
            new_instrs.append(instr)
        block.instrs = new_instrs
    func.invalidate()
    return True

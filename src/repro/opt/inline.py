"""Function inlining.

Inlines small or single-call-site callees.  Handles the IR's multi-result
calls (lifted signatures) by joining every returned value through a phi in
the continuation block.
"""

from __future__ import annotations

from ..ir.module import Block, Function, Module
from ..ir.values import (
    Alloca,
    BinOp,
    Br,
    Call,
    CallExt,
    CallInd,
    CondBr,
    ICmp,
    Instr,
    Intrinsic,
    Load,
    Phi,
    Result,
    Ret,
    Store,
    Switch,
    Unary,
    Unreachable,
    Value,
)


def _clone_instr(instr: Instr) -> Instr:
    """Shallow structural clone; operands/blocks fixed up by the caller."""
    if isinstance(instr, BinOp):
        return BinOp(instr.opcode, instr.lhs, instr.rhs)
    if isinstance(instr, ICmp):
        return ICmp(instr.pred, instr.lhs, instr.rhs)
    if isinstance(instr, Unary):
        return Unary(instr.opcode, instr.src)
    if isinstance(instr, Load):
        return Load(instr.addr, instr.size)
    if isinstance(instr, Store):
        return Store(instr.addr, instr.value, instr.size)
    if isinstance(instr, Alloca):
        return Alloca(instr.size, instr.align, instr.var_name)
    if isinstance(instr, Call):
        return Call(instr.callee, instr.args, instr.nresults)
    if isinstance(instr, CallInd):
        return CallInd(instr.target, instr.args, instr.nresults)
    if isinstance(instr, CallExt):
        return CallExt(instr.ext_name, instr.args, instr.sp)
    if isinstance(instr, Result):
        return Result(instr.call, instr.index)
    if isinstance(instr, Intrinsic):
        return Intrinsic(instr.intrinsic, list(instr.ops),
                         dict(instr.meta))
    if isinstance(instr, Phi):
        return Phi(list(zip(instr.blocks, instr.ops, strict=True)))
    if isinstance(instr, Br):
        return Br(instr.target)
    if isinstance(instr, CondBr):
        return CondBr(instr.cond, instr.if_true, instr.if_false)
    if isinstance(instr, Switch):
        return Switch(instr.value, list(instr.cases), instr.default)
    if isinstance(instr, Ret):
        return Ret(list(instr.ops))
    if isinstance(instr, Unreachable):
        return Unreachable(instr.note)
    raise TypeError(f"cannot clone {instr!r}")


def inline_call(caller: Function, call: Call, callee: Function) -> None:
    """Inline ``call`` (a call to ``callee``) into ``caller``."""
    call_block = call.block
    assert call_block is not None
    call_index = call_block.instrs.index(call)

    # Split the caller block: everything after the call (minus its Result
    # extractions, handled below) moves to a continuation block.
    continuation = Block(f"{call_block.name}.cont")
    continuation.function = caller
    tail = call_block.instrs[call_index + 1:]
    call_block.instrs = call_block.instrs[:call_index]
    caller.blocks.insert(caller.blocks.index(call_block) + 1, continuation)

    # Successor phis that routed through call_block now come from the
    # continuation block.
    for instr in tail:
        instr.block = continuation
    continuation.instrs = tail
    if continuation.is_terminated:
        for succ in continuation.successors():
            for phi in succ.phis():
                phi.blocks = [continuation if b is call_block else b
                              for b in phi.blocks]

    # Clone the callee body (unique prefix: the same callee may be
    # inlined several times into one caller).
    serial = caller.meta.get("inline_serial", 0)
    caller.meta["inline_serial"] = serial + 1
    value_map: dict[Value, Value] = dict(zip(callee.params, call.args,
                                             strict=True))
    block_map: dict[Block, Block] = {}
    for cb in callee.blocks:
        nb = Block(f"inl{serial}.{callee.name}.{cb.name}")
        nb.function = caller
        block_map[cb] = nb
    ret_sites: list[tuple[Block, list[Value]]] = []
    for cb in callee.blocks:
        nb = block_map[cb]
        for instr in cb.instrs:
            clone = _clone_instr(instr)
            value_map[instr] = clone
            if isinstance(instr, Ret):
                # Replace returns with branches to the continuation.
                ret_sites.append((nb, list(instr.ops)))
                br = Br(continuation)
                br.block = nb
                nb.instrs.append(br)
            else:
                clone.block = nb
                nb.instrs.append(clone)

    # Fix up operands and block references inside the cloned body.
    for cb in callee.blocks:
        nb = block_map[cb]
        for instr in nb.instrs:
            instr.ops = [value_map.get(op, op) for op in instr.ops]
            if isinstance(instr, Phi):
                instr.blocks = [block_map[b] for b in instr.blocks]
            elif isinstance(instr, Br) and instr.target in block_map:
                instr.target = block_map[instr.target]
            elif isinstance(instr, CondBr):
                instr.if_true = block_map[instr.if_true]
                instr.if_false = block_map[instr.if_false]
            elif isinstance(instr, Switch):
                instr.cases = [(v, block_map[b]) for v, b in instr.cases]
                instr.default = block_map[instr.default]

    # Resolve returned values in ret_sites through the value map.
    resolved_rets = [
        (nb, [value_map.get(v, v) for v in values])
        for nb, values in ret_sites
    ]

    # Join return values: one phi per result index in the continuation.
    result_values: list[Value] = []
    for i in range(callee.nresults):
        if len(resolved_rets) == 1:
            result_values.append(resolved_rets[0][1][i])
        else:
            phi = Phi([(nb, values[i]) for nb, values in resolved_rets])
            phi.block = continuation
            continuation.instrs.insert(i, phi)
            result_values.append(phi)

    # Rewire the call's results throughout the caller.
    replacements: dict[Instr, Value] = {}
    if call.nresults == 1:
        replacements[call] = result_values[0]
    for block in caller.blocks:
        for instr in list(block.instrs):
            if isinstance(instr, Result) and instr.call is call:
                replacements[instr] = result_values[instr.index]
    for block in caller.blocks:
        block.instrs = [i for i in block.instrs if i not in replacements]
        for instr in block.instrs:
            instr.ops = [replacements.get(op, op) for op in instr.ops]

    # Splice the cloned blocks after the call block and branch into them.
    entry_clone = block_map[callee.entry]
    br = Br(entry_clone)
    br.block = call_block
    call_block.instrs.append(br)
    insert_at = caller.blocks.index(call_block) + 1
    for cb in callee.blocks:
        caller.blocks.insert(insert_at, block_map[cb])
        insert_at += 1

    # Hoist cloned static allocas into the caller's entry block so that a
    # call site inside a loop does not grow the frame per iteration (the
    # moral equivalent of LLVM's static-alloca placement).
    entry = caller.entry
    for cb in callee.blocks:
        nb = block_map[cb]
        hoisted = [i for i in nb.instrs if isinstance(i, Alloca)]
        if hoisted:
            nb.instrs = [i for i in nb.instrs
                         if not isinstance(i, Alloca)]
            for alloca in reversed(hoisted):
                alloca.block = entry
                entry.instrs.insert(0, alloca)

    # If there were no returns (callee always exits), the continuation is
    # unreachable; leave it with an unreachable terminator.
    if not resolved_rets and not continuation.is_terminated:
        continuation.instrs.append(Unreachable("no-return inline"))
    if not continuation.is_terminated and not continuation.instrs:
        continuation.instrs.append(Unreachable("empty continuation"))
    caller.invalidate()


def _size_of(func: Function) -> int:
    return sum(len(b.instrs) for b in func.blocks)


def _has_unreachable(func: Function) -> bool:
    return any(isinstance(i, Unreachable) for i in func.instructions())


def inline_functions(module: Module, max_callee_size: int = 40,
                     always_single_use: bool = True,
                     growth_budget: int = 4000) -> bool:
    """Module-level inlining driver. Returns True if anything changed."""
    call_counts = _call_counts(module)
    # Functions whose address is taken cannot be dropped and their call
    # count is unreliable; still inlinable at direct sites.
    changed = False
    for func in list(module.functions.values()):
        budget = growth_budget
        again = True
        while again and budget > 0:
            again = False
            for block in list(func.blocks):
                for instr in list(block.instrs):
                    if not isinstance(instr, Call):
                        continue
                    callee = module.functions.get(instr.callee.name)
                    if _inlinable(func, callee, call_counts,
                                  max_callee_size, always_single_use,
                                  growth_budget):
                        inline_call(func, instr, callee)
                        changed = True
                        budget -= _size_of(callee)
                        call_counts[callee.name] = \
                            call_counts.get(callee.name, 1) - 1
                        for inner in callee.instructions():
                            if isinstance(inner, Call):
                                call_counts[inner.callee.name] = \
                                    call_counts.get(inner.callee.name,
                                                    0) + 1
                        again = True
                        break
                if again:
                    break
    return changed


def _call_counts(module: Module) -> dict[str, int]:
    counts: dict[str, int] = {}
    for func in module.functions.values():
        for instr in func.instructions():
            if isinstance(instr, Call):
                counts[instr.callee.name] = \
                    counts.get(instr.callee.name, 0) + 1
    return counts


def _inlinable(func: Function, callee: Function | None,
               call_counts: dict[str, int], max_callee_size: int,
               always_single_use: bool, growth_budget: int) -> bool:
    if callee is None or callee is func or _calls_self(callee):
        return False
    size = _size_of(callee)
    single = call_counts.get(callee.name, 0) == 1
    return size <= max_callee_size or \
        (always_single_use and single and size <= growth_budget)


def _calls_self(func: Function) -> bool:
    for instr in func.instructions():
        if isinstance(instr, Call) and instr.callee.name == func.name:
            return True
    return False

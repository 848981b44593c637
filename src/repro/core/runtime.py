"""The WYTIWYG tracing runtime (paper §4.2.1-§4.2.5, Figure 5).

This is the library that instrumented lifted programs "link against": the
:class:`TracingRuntime` receives every ``wyt.*`` probe from the IR
interpreter and maintains

* one :class:`StackVar` per static base pointer (direct stack reference),
  recording the interval of offsets actually dereferenced through
  pointers derived from it — with bounds deferred until the first
  dereference (out-of-bounds base pointers, §4.2.4) and never updated by
  derivation alone (false derives, §4.2.3);
* per-activation :class:`PointerInfo` metadata for IR values (allocated
  per frame, because one static value points to different objects in
  recursive activations);
* an address map from memory addresses to the PointerInfo stored there;
* linked-variable pairs from pointer subtraction/comparison;
* per-call-site argument-area intervals and callee sets (§4.2.5);
* external-call constraint application (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..emu.libc import parse_format
from ..ir.interp import Frame, Interpreter
from ..ir.values import Intrinsic
from .extfuncs import EXTERNAL_DB, RET


def _signed(v: int) -> int:
    v &= 0xFFFFFFFF
    return v - 0x100000000 if v >= 0x80000000 else v


@dataclass
class StackVar:
    """Observed extent of one base pointer's object.

    ``low``/``high`` are offsets relative to the base pointer; they stay
    ``None`` until a derived pointer is dereferenced.
    """

    ref_id: int
    func_name: str
    sp0_offset: int
    low: int | None = None
    high: int | None = None
    align: int = 4

    @property
    def defined(self) -> bool:
        return self.low is not None

    def touch(self, offset: int, size: int) -> None:
        if self.low is None:
            self.low, self.high = offset, offset + size
        else:
            self.low = min(self.low, offset)
            self.high = max(self.high, offset + size)


@dataclass
class ArgAccess:
    """Observed argument-area use at one call site (paper §4.2.5)."""

    callsite_id: int
    low: int | None = None   # byte offsets relative to the first arg slot
    high: int | None = None
    callees: set[str] = field(default_factory=set)
    #: True when the area was traversed via derived pointers or accessed
    #: at sub-word granularity -- it must then stay one contiguous
    #: object (indirect varargs access, paper §4.2.6).
    walked: bool = False

    def touch(self, offset: int, size: int) -> None:
        if size != 4 or offset % 4:
            self.walked = True
        if self.low is None:
            self.low, self.high = offset, offset + size
        else:
            self.low = min(self.low, offset)
            self.high = max(self.high, offset + size)


@dataclass(frozen=True)
class PointerInfo:
    """A value's association with a stack variable (or arg area)."""

    var: object          # StackVar | ArgAccess
    offset: int          # relative to the var's base pointer


@dataclass
class _FrameRec:
    func_name: str
    sp0: int
    callsite_id: int | None
    infos: dict[int, PointerInfo | None] = field(default_factory=dict)


class TracingRuntime:
    """State shared across all traced executions of one module."""

    def __init__(self) -> None:
        self.stack_vars: dict[int, StackVar] = {}
        self.arg_accesses: dict[int, ArgAccess] = {}
        self.links: set[frozenset[int]] = set()
        self._frames: dict[int, _FrameRec] = {}
        self._addr_map: dict[int, PointerInfo] = {}
        self._pending_args: list[tuple[int, list]] = []
        self._pending_rets: list[list] = []
        self._copy_stage: list = []
        self._interp: Interpreter | None = None

    def bind(self, interp: Interpreter) -> None:
        """Attach to one interpreter run (memory access for constraints).

        Frames, the address map, staged call arguments/results and
        staged phi copies are per-execution and reset here; variables,
        argument areas and links accumulate across runs."""
        self._interp = interp
        self._frames.clear()
        self._addr_map.clear()
        self._pending_args.clear()
        self._pending_rets.clear()
        self._copy_stage = []

    # -- probe dispatch -------------------------------------------------------

    def handle(self, frame: Frame, instr: Intrinsic,
               args: list[int]) -> None:
        handler = getattr(self, "_op_" + instr.intrinsic[4:])
        handler(frame, instr.meta, args)

    def _rec(self, frame: Frame) -> _FrameRec:
        rec = self._frames.get(frame.frame_id)
        if rec is None:  # frame entered without fnenter (entry wrapper)
            rec = _FrameRec(frame.function.name, 0, None)
            self._frames[frame.frame_id] = rec
        return rec

    # -- frames and calls ------------------------------------------------------

    def _op_fnenter(self, frame: Frame, meta: dict,
                    args: list[int]) -> None:
        sp0 = args[0] if args else 0
        callsite_id = None
        infos: dict[int, PointerInfo | None] = {}
        if self._pending_args:
            callsite_id, staged = self._pending_args.pop()
            for vid, info in zip(meta["param_vids"], staged,
                                 strict=False):
                infos[vid] = info
            access = self.arg_accesses.get(callsite_id)
            if access is not None:
                access.callees.add(frame.function.name)
        self._frames[frame.frame_id] = _FrameRec(
            frame.function.name, sp0, callsite_id, infos)

    def _op_fnexit(self, frame: Frame, meta: dict,
                   args: list[int]) -> None:
        rec = self._rec(frame)
        staged = [rec.infos.get(vid) for vid in meta["ret_vids"]]
        self._pending_rets.append(staged)
        self._frames.pop(frame.frame_id, None)

    def _op_callargs(self, frame: Frame, meta: dict,
                     args: list[int]) -> None:
        rec = self._rec(frame)
        callsite_id = meta["callsite_id"]
        staged = [rec.infos.get(vid) for vid in meta["arg_vids"]]
        self._pending_args.append((callsite_id, staged))
        self.arg_accesses.setdefault(callsite_id,
                                     ArgAccess(callsite_id))

    def _op_callres(self, frame: Frame, meta: dict,
                    args: list[int]) -> None:
        rec = self._rec(frame)
        staged = self._pending_rets.pop() if self._pending_rets else []
        for vid, info in zip(meta["result_vids"], staged, strict=False):
            rec.infos[vid] = info

    # -- pointer tracking -------------------------------------------------------

    def _op_stackref(self, frame: Frame, meta: dict,
                     args: list[int]) -> None:
        rec = self._rec(frame)
        offset = meta["offset"]
        if 0 <= offset < 4 and meta.get("is_sp0"):
            rec.infos[meta["vid"]] = None
            return
        if offset >= 4:
            # Access above sp0: the caller's argument area; recorded per
            # call site (paper §4.2.5).
            if rec.callsite_id is None:
                rec.infos[meta["vid"]] = None
                return
            access = self.arg_accesses.setdefault(
                rec.callsite_id, ArgAccess(rec.callsite_id))
            rec.infos[meta["vid"]] = PointerInfo(access, offset - 4)
            return
        var = self.stack_vars.get(meta["ref_id"])
        if var is None:
            var = StackVar(meta["ref_id"], frame.function.name, offset)
            self.stack_vars[meta["ref_id"]] = var
        rec.infos[meta["vid"]] = PointerInfo(var, 0)

    def _op_derive(self, frame: Frame, meta: dict,
                   args: list[int]) -> None:
        rec = self._rec(frame)
        base = rec.infos.get(meta["base_vid"])
        if base is None:
            rec.infos[meta["result_vid"]] = None
            return
        op = meta["op"]
        const = meta["const"]
        if isinstance(base.var, ArgAccess):
            base.var.walked = True
        if op == "add":
            info = PointerInfo(base.var, base.offset + _signed(const))
        elif op == "sub":
            info = PointerInfo(base.var, base.offset - _signed(const))
        elif op == "or":
            # Low-bit merge (sub-register writes): the result *appears*
            # derived (paper §4.2.3); bounds stay deferred until a real
            # dereference, so a false derive is harmless.
            info = base
        else:  # and: alignment operation (offset approximated unchanged)
            if isinstance(base.var, StackVar):
                mask = (~const) & 0xFFFFFFFF
                base.var.align = max(base.var.align,
                                     min(mask + 1, 4096))
            info = base
        rec.infos[meta["result_vid"]] = info

    def _op_derive2(self, frame: Frame, meta: dict,
                    args: list[int]) -> None:
        rec = self._rec(frame)
        lhs = rec.infos.get(meta["lhs_vid"])
        rhs = rec.infos.get(meta["rhs_vid"])
        lhs_val, rhs_val = args[1], args[2]
        op = meta["op"]
        for side in (lhs, rhs):
            if side is not None and isinstance(side.var, ArgAccess):
                side.var.walked = True
        result: PointerInfo | None = None
        if op == "add":
            if lhs is not None and rhs is None:
                result = PointerInfo(lhs.var, lhs.offset +
                                     _signed(rhs_val))
            elif rhs is not None and lhs is None:
                result = PointerInfo(rhs.var, rhs.offset +
                                     _signed(lhs_val))
        elif op == "sub":
            if lhs is not None and rhs is not None:
                self._link(lhs.var, rhs.var)
            elif lhs is not None:
                result = PointerInfo(lhs.var, lhs.offset -
                                     _signed(rhs_val))
        elif op in ("or", "and"):
            # False-derive shape: keep the (possibly stale) association,
            # offset unchanged; only a dereference will confirm it.
            if lhs is not None and rhs is None:
                result = lhs
            elif rhs is not None and lhs is None:
                result = rhs
        rec.infos[meta["result_vid"]] = result

    def _op_link(self, frame: Frame, meta: dict,
                 args: list[int]) -> None:
        rec = self._rec(frame)
        lhs = rec.infos.get(meta["lhs_vid"])
        rhs = rec.infos.get(meta["rhs_vid"])
        if lhs is not None and rhs is not None:
            self._link(lhs.var, rhs.var)

    def _link(self, a: object, b: object) -> None:
        if a is b:
            return
        if isinstance(a, StackVar) and isinstance(b, StackVar):
            self.links.add(frozenset((a.ref_id, b.ref_id)))

    def _op_copy(self, frame: Frame, meta: dict,
                 args: list[int]) -> None:
        rec = self._rec(frame)
        group = meta.get("group_size")
        if group is None:
            rec.infos[meta["dst_vid"]] = rec.infos.get(meta["src_vid"])
            return
        # Parallel phi-edge copies: read all sources before any write
        # (swap patterns would otherwise observe half-updated state).
        if meta["group_index"] == 0:
            self._copy_stage = []
        self._copy_stage.append((meta["dst_vid"],
                                 rec.infos.get(meta["src_vid"])))
        if meta["group_index"] == group - 1:
            for dst, info in self._copy_stage:
                rec.infos[dst] = info
            self._copy_stage = []

    def _op_load(self, frame: Frame, meta: dict,
                 args: list[int]) -> None:
        rec = self._rec(frame)
        addr_value = args[0]
        info = rec.infos.get(meta["addr_vid"])
        if info is not None:
            info.var.touch(info.offset, meta["size"])
        if meta["size"] == 4:
            rec.infos[meta["result_vid"]] = self._addr_map.get(addr_value)
        else:
            rec.infos[meta["result_vid"]] = None

    def _op_store(self, frame: Frame, meta: dict,
                  args: list[int]) -> None:
        rec = self._rec(frame)
        addr_value, value = args[0], args[1]
        info = rec.infos.get(meta["addr_vid"])
        if info is not None:
            info.var.touch(info.offset, meta["size"])
        value_info = rec.infos.get(meta["value_vid"]) \
            if meta["size"] == 4 else None
        if value_info is not None:
            self._addr_map[addr_value] = value_info
        else:
            self._addr_map.pop(addr_value, None)

    # -- external calls (constraint application, §5.3) ---------------------------

    def _op_extcall(self, frame: Frame, meta: dict,
                    args: list[int]) -> None:
        rec = self._rec(frame)
        name = meta["name"]
        sig = EXTERNAL_DB.get(name)
        if sig is None:
            return
        arg_vids = meta["arg_vids"]
        arg_values = args[:len(arg_vids)]
        result_value = args[len(arg_vids)] if len(args) > len(arg_vids) \
            else 0

        def arg_info(index: int) -> PointerInfo | None:
            if index == RET:
                return None
            if index < len(arg_vids):
                return rec.infos.get(arg_vids[index])
            return None

        def arg_value(index: int) -> int:
            if index == RET:
                return result_value
            return arg_values[index] if index < len(arg_values) else 0

        for c in sig.constraints:
            if c.kind == "ObjectSize":
                info = arg_info(c.args[0])
                nbytes = arg_value(c.args[1])
                if len(c.args) > 2:
                    nbytes *= arg_value(c.args[2])
                if info is not None and nbytes:
                    info.var.touch(info.offset, nbytes)
            elif c.kind == "ZeroTerminated":
                self._zero_terminated(arg_info(c.args[0]),
                                      arg_value(c.args[0]))
            elif c.kind == "Derive":
                dst_i, src_i = c.args
                src = arg_info(src_i)
                if src is not None and dst_i == RET:
                    delta = _signed(result_value - arg_value(src_i))
                    rec.infos[meta["result_vid"]] = PointerInfo(
                        src.var, src.offset + delta)
            elif c.kind == "Clear":
                ptr = arg_value(c.args[0])
                if len(c.args) > 1:
                    size = arg_value(c.args[1])
                else:
                    size = self._cstring_len(ptr) + 1
                for addr in range(ptr, ptr + size):
                    self._addr_map.pop(addr, None)
            elif c.kind == "Copy":
                dst, src = arg_value(c.args[0]), arg_value(c.args[1])
                size = arg_value(c.args[2]) if len(c.args) > 2 else 0
                for k in range(0, size, 4):
                    info = self._addr_map.get(src + k)
                    if info is not None:
                        self._addr_map[dst + k] = info
                    else:
                        self._addr_map.pop(dst + k, None)
            elif c.kind == "FormatStr":
                self._format_str(rec, sig, c.args[0], arg_vids,
                                 arg_values)

    def _zero_terminated(self, info: PointerInfo | None,
                         ptr: int) -> None:
        if info is None:
            return
        info.var.touch(info.offset, self._cstring_len(ptr) + 1)

    def _cstring_len(self, ptr: int) -> int:
        if self._interp is None or ptr == 0:
            return 0
        return len(self._interp.mem.read_cstring(ptr))

    def _format_str(self, rec: _FrameRec, sig, fmt_index: int,
                    arg_vids: list[int], arg_values: list[int]) -> None:
        if self._interp is None:
            return
        fmt = self._interp.mem.read_cstring(arg_values[fmt_index])
        kinds = parse_format(fmt)
        for i, kind in enumerate(kinds):
            arg_i = sig.nargs + i
            if kind == "str" and arg_i < len(arg_values):
                self._zero_terminated(
                    rec.infos.get(arg_vids[arg_i])
                    if arg_i < len(arg_vids) else None,
                    arg_values[arg_i])

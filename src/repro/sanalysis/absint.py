"""VSA-lite abstract interpretation of lifted functions.

Runs over the lifted, canonicalized, *pre-symbolization* IR (the same
module state :mod:`repro.core.sp0fold` annotates).  This module holds
the package's one abstract domain and interpreter; two analyses read
its facts:

* :func:`analyze_function` here — the set of statically provable frame
  accesses of each lifted function: every load/store whose address is
  ``sp0 + d`` for an abstract offset ``d``;
* :mod:`.interproc` — per-function summaries of the accesses through
  every *other* pointer region (parameters and incoming stack-argument
  slots), propagated over the call graph.

The abstract domain is a region-tagged interval lattice (Macaw-style
value-set analysis, with one region per pointer source):

* ``BOT`` — unreached;
* ``NUM [lo, hi]`` — a plain number in the interval (``None`` bounds
  mean +/- infinity);
* ``PTR region [lo, hi]`` — ``base + d`` with ``d`` in the interval,
  where ``base`` is ``sp0`` (:data:`SP_REGION`, the threaded stack
  pointer ``params[0]``), register parameter ``i`` (``("reg", i)``), or
  the word loaded from pristine incoming stack-argument slot ``j``
  (``("sarg", j)``, a 4-byte load from ``sp0 + 4 + 4j``);
* ``TOP`` — unknown provenance (could be any pointer or a number).

Join is interval union within one kind and region; any other mix gives
``TOP``.  At loop headers (cached :func:`repro.opt.analysis.
loop_headers`) phi joins are *widened*: any bound that grew between
iterates jumps to infinity, so the fixed point terminates in a constant
number of rounds regardless of loop shape.

Frame accesses whose sp0 offset is a single constant are **exact**;
bounded intervals give a **region**; stack-derived addresses with an
unbounded interval (array walks whose index flows through memory) are
**derived** — they keep the constant *anchor* of the base pointer they
were built from, and the corroboration pass clamps their extent against
the neighbouring statically-known frame slots.

Per-function results are memoized in the versioned CFG-analysis cache
(:func:`repro.opt.analysis.cached_analysis`), so repeated consumers
(corroboration, the ``check`` CLI, evaluation sweeps) pay for one
interpretation per mutation epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.module import Function
from ..ir.values import (
    BinOp,
    Const,
    ICmp,
    Instr,
    Load,
    Phi,
    Store,
    Unary,
    Value,
)
from ..opt.analysis import cached_analysis, loop_headers


def _sp0fold():
    """Deferred import: :mod:`repro.core` imports this package from its
    driver, so importing it back at module scope would be a cycle."""
    from ..core import sp0fold
    return sp0fold


# -- the abstract domain ----------------------------------------------------

#: Region of the threaded stack pointer (``params[0]``): offsets are
#: sp0-relative.
SP_REGION = "sp"

BOT = "bot"
NUM = "num"
PTR = "ptr"
TOP = "top"


@dataclass(frozen=True)
class AbsVal:
    """One abstract value: a kind, a region tag and an interval.

    ``lo``/``hi`` are inclusive signed bounds; ``None`` means the bound
    is infinite on that side.  ``BOT``/``TOP`` carry no interval.
    ``region`` is only meaningful for ``kind == PTR``: it is
    :data:`SP_REGION`, ``("reg", i)`` for register parameter ``i``, or
    ``("sarg", j)`` for the value loaded from incoming stack-argument
    slot ``j``.
    """

    kind: str
    region: object = None
    lo: int | None = None
    hi: int | None = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def num(lo: int | None, hi: int | None) -> "AbsVal":
        return AbsVal(NUM, None, lo, hi)

    @staticmethod
    def const(value: int) -> "AbsVal":
        return AbsVal(NUM, None, value, value)

    @staticmethod
    def ptr(region, lo: int | None, hi: int | None) -> "AbsVal":
        return AbsVal(PTR, region, lo, hi)

    # -- predicates ---------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def __repr__(self) -> str:
        if self.kind in (BOT, TOP):
            return self.kind
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        base = f"{self.region}+" if self.kind == PTR else ""
        return f"{base}[{lo}, {hi}]"


BOT_V = AbsVal(BOT)
TOP_V = AbsVal(TOP)
NUM_TOP = AbsVal(NUM, None, None, None)


def _min(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return min(a, b)


def _max(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return max(a, b)


def _add(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    return a + b


def join(a: AbsVal, b: AbsVal) -> AbsVal:
    """Interval hull within one kind and region; anything mixed is
    ``TOP``."""
    if a.kind == BOT:
        return b
    if b.kind == BOT:
        return a
    if a.kind == TOP or b.kind == TOP:
        return TOP_V
    if a.kind != b.kind or a.region != b.region:
        return TOP_V
    return AbsVal(a.kind, a.region, _min(a.lo, b.lo), _max(a.hi, b.hi))


def widen(old: AbsVal, new: AbsVal) -> AbsVal:
    """Jump any growing bound to infinity (classic interval widening)."""
    if old.kind in (BOT, TOP) or new.kind in (BOT, TOP) \
            or old.kind != new.kind or old.region != new.region:
        return join(old, new)
    lo = old.lo
    if new.lo is None or (lo is not None and new.lo < lo):
        lo = None
    hi = old.hi
    if new.hi is None or (hi is not None and new.hi > hi):
        hi = None
    return AbsVal(new.kind, new.region, lo, hi)


# -- transfer functions -----------------------------------------------------

_UNARY_RANGES = {
    "sext8": (-128, 127), "sext16": (-32768, 32767),
    "zext8": (0, 255), "zext16": (0, 65535),
    "trunc8": (0, 255), "trunc16": (0, 65535),
}


def _transfer_binop(instr: BinOp, val) -> AbsVal:
    a, b = val(instr.lhs), val(instr.rhs)
    if a.kind == BOT or b.kind == BOT:
        return BOT_V
    op = instr.opcode
    if op == "add":
        if a.kind == PTR and b.kind == NUM:
            return AbsVal(PTR, a.region, _add(a.lo, b.lo), _add(a.hi, b.hi))
        if a.kind == NUM and b.kind == PTR:
            return AbsVal(PTR, b.region, _add(b.lo, a.lo), _add(b.hi, a.hi))
        if a.kind == NUM and b.kind == NUM:
            return AbsVal(NUM, None, _add(a.lo, b.lo), _add(a.hi, b.hi))
        return TOP_V
    if op == "sub":
        if a.kind == PTR and b.kind == NUM:
            neg_hi = None if b.lo is None else -b.lo
            neg_lo = None if b.hi is None else -b.hi
            return AbsVal(PTR, a.region, _add(a.lo, neg_lo),
                          _add(a.hi, neg_hi))
        if a.kind == PTR and b.kind == PTR:
            # Same-region pointer difference is a plain number; mixed
            # regions are meaningless arithmetic.
            return NUM_TOP if a.region == b.region else TOP_V
        if a.kind == NUM and b.kind == NUM:
            neg_hi = None if b.lo is None else -b.lo
            neg_lo = None if b.hi is None else -b.hi
            return AbsVal(NUM, None, _add(a.lo, neg_lo), _add(a.hi, neg_hi))
        return TOP_V
    if op == "mul":
        if a.kind == NUM and b.kind == NUM:
            if a.bounded and b.bounded:
                prods = [a.lo * b.lo, a.lo * b.hi,
                         a.hi * b.lo, a.hi * b.hi]
                return AbsVal(NUM, None, min(prods), max(prods))
            return NUM_TOP
        # A scaled "pointer" was really an integer we mis-tagged at a
        # pristine argument-slot load (indices arrive the same way
        # addresses do); degrade to a number so `base + 4*i` keeps the
        # base's region instead of collapsing to TOP.
        return NUM_TOP
    # and/or/xor/shifts/div/rem on a pointer lose the offset but not
    # the region (alignment masks stay frame-relative); on numbers they
    # stay numbers.
    if a.kind == PTR:
        return AbsVal(PTR, a.region, None, None)
    if b.kind == PTR:
        return AbsVal(PTR, b.region, None, None)
    return NUM_TOP


class _Interpreter:
    """Region-tagged interval interpretation of one lifted function.

    Seeds every parameter as the root of its own pointer region and
    materializes a fresh region for each load of a pristine incoming
    stack-argument slot.  One pass assigns in program order; further
    rounds only matter for back edges (phi at loop heads), where
    widening bounds the iterate count.
    """

    def __init__(self, func: Function):
        self.func = func
        self.values: dict[Value, AbsVal] = {}
        self.headers = loop_headers(func)
        #: Incoming arg slots this function itself overwrites lose
        #: their pristine-argument meaning (scratch reuse).
        self.clobbered_slots: set[int] = set()

    def val(self, v: Value) -> AbsVal:
        if isinstance(v, Const):
            return AbsVal.const(v.signed)
        if self.func.params:
            if v is self.func.params[0]:
                return AbsVal.ptr(SP_REGION, 0, 0)
            for i, p in enumerate(self.func.params[1:], start=1):
                if v is p:
                    return AbsVal.ptr(("reg", i), 0, 0)
        return self.values.get(v, BOT_V)

    def _slot_of(self, fact: AbsVal) -> int | None:
        """Incoming stack-argument slot index of an exact sp0 address
        (``sp0 + 4 + 4j``; slot 0 sits just above the return address)."""
        if fact.kind != PTR or fact.region != SP_REGION \
                or not fact.is_exact:
            return None
        e = fact.lo
        if e is None or e < 4 or (e - 4) % 4:
            return None
        return (e - 4) // 4

    def _transfer(self, instr: Instr) -> AbsVal:
        if isinstance(instr, BinOp):
            return _transfer_binop(instr, self.val)
        if isinstance(instr, Phi):
            out = BOT_V
            for op in instr.ops:
                if op is instr:
                    continue
                out = join(out, self.val(op))
            return out
        if isinstance(instr, Unary):
            if instr.opcode == "neg":
                src = self.val(instr.src)
                if src.kind == NUM:
                    neg_hi = None if src.lo is None else -src.lo
                    neg_lo = None if src.hi is None else -src.hi
                    return AbsVal(NUM, None, neg_lo, neg_hi)
                return TOP_V if src.kind in (PTR, TOP) else BOT_V
            rng = _UNARY_RANGES.get(instr.opcode)
            if rng is not None:
                return AbsVal(NUM, None, rng[0], rng[1])
            return NUM_TOP
        if isinstance(instr, ICmp):
            return AbsVal(NUM, None, 0, 1)
        if isinstance(instr, Load):
            slot = self._slot_of(self.val(instr.addr))
            if slot is not None and slot not in self.clobbered_slots \
                    and instr.size == 4:
                return AbsVal.ptr(("sarg", slot), 0, 0)
            # Other loaded words are plain numbers; adding one to a
            # stack pointer keeps the region with an unknown offset,
            # which is exactly the derived-access shape.
            return NUM_TOP
        if instr.has_result:
            return NUM_TOP
        return BOT_V

    def run(self) -> dict[Value, AbsVal]:
        for _round in range(16):
            changed = False
            for block in self.func.blocks:
                at_header = block in self.headers
                for instr in block.instrs:
                    if isinstance(instr, Store):
                        slot = self._slot_of(self.val(instr.addr))
                        if slot is not None \
                                and slot not in self.clobbered_slots:
                            self.clobbered_slots.add(slot)
                            changed = True
                        continue
                    new = self._transfer(instr)
                    old = self.values.get(instr, BOT_V)
                    if at_header and isinstance(instr, Phi):
                        new = widen(old, new)
                    else:
                        new = join(old, new)
                    if new != old:
                        self.values[instr] = new
                        changed = True
            if not changed:
                return self.values
        # Anything still unstable degrades to TOP.
        for block in self.func.blocks:
            for instr in block.instrs:
                if instr.has_result:
                    new = self._transfer(instr)
                    old = self.values.get(instr, BOT_V)
                    if join(old, new) != old:
                        self.values[instr] = TOP_V
        return self.values


# -- frame accesses ---------------------------------------------------------


@dataclass(frozen=True)
class StaticAccess:
    """One statically-provable frame access, sp0-relative.

    ``[lo, hi)`` is the byte region the access may touch; ``hi`` is
    ``None`` for derived accesses, whose extent is unknown until the
    corroboration pass clamps it against neighbouring frame slots.
    """

    lo: int
    hi: int | None
    width: int
    kind: str                 # "load" | "store"
    exact: bool = False       # single constant offset
    derived: bool = False     # anchored base, unknown extent
    provenance: str = "traced"   # "traced" | "static-extension"

    def region(self) -> tuple[int, int | None]:
        return (self.lo, self.hi)


@dataclass
class FrameAccessSet:
    """All statically-provable frame accesses of one function."""

    func_name: str
    accesses: list[StaticAccess] = field(default_factory=list)
    #: Exact constant sp0 offsets with static evidence (access offsets
    #: and derived-access anchors); the corroboration clamp rule.
    known_offsets: set[int] = field(default_factory=set)
    #: Lowest sp0 offset any access may touch (the static frame floor).
    frame_low: int | None = None

    def add(self, access: StaticAccess) -> None:
        self.accesses.append(access)
        self.known_offsets.add(access.lo)
        if self.frame_low is None or access.lo < self.frame_low:
            self.frame_low = access.lo


def _find_anchor(addr: Value, offsets: dict[Value, int]) -> int | None:
    """The constant sp0 offset of the nearest chain ancestor of
    ``addr`` — the base pointer a derived access was built from."""
    seen: set[int] = set()
    work: list[Value] = [addr]
    for _ in range(256):
        if not work:
            return None
        v = work.pop(0)
        if id(v) in seen:
            continue
        seen.add(id(v))
        if v in offsets:
            return offsets[v]
        if isinstance(v, Instr):
            work.extend(op for op in v.operands()
                        if isinstance(op, Instr) or op in offsets)
    return None


def analyze_function(func: Function) -> FrameAccessSet:
    """Static frame accesses of one lifted function, memoized per
    mutation epoch in the versioned CFG-analysis cache."""
    return cached_analysis(func, "sanalysis.accesses", _analyze)


def _analyze(func: Function) -> FrameAccessSet:
    out = FrameAccessSet(func.name)
    if not _sp0fold().is_lifted_function(func):
        return out
    interp = _Interpreter(func)
    interp.run()
    offsets = func.meta.get("sp0_offsets")
    if offsets is None:
        offsets = _sp0fold().compute_sp0_offsets(func)
    static_blocks: set[str] = set(func.meta.get("static_blocks", ()))

    for block in func.blocks:
        provenance = "static-extension" if block.name in static_blocks \
            else "traced"
        for instr in block.instrs:
            if isinstance(instr, Load):
                addr, width, kind = instr.addr, instr.size, "load"
            elif isinstance(instr, Store):
                addr, width, kind = instr.addr, instr.size, "store"
            else:
                continue
            fact = interp.val(addr)
            if fact.kind != PTR or fact.region != SP_REGION:
                continue
            if fact.is_exact:
                out.add(StaticAccess(fact.lo, fact.lo + width, width,
                                     kind, exact=True,
                                     provenance=provenance))
            elif fact.bounded:
                out.add(StaticAccess(fact.lo, fact.hi + width, width,
                                     kind, provenance=provenance))
            else:
                anchor = _find_anchor(addr, offsets)
                if anchor is None:
                    continue
                out.add(StaticAccess(anchor, None, width, kind,
                                     derived=True,
                                     provenance=provenance))
    out.accesses.sort(key=lambda a: (a.lo, a.width, a.kind))
    return out


def analyze_module(module) -> dict[str, FrameAccessSet]:
    """Frame-access sets for every lifted function in the module."""
    lifted = _sp0fold().is_lifted_function
    return {func.name: analyze_function(func)
            for func in module.functions.values()
            if lifted(func)}

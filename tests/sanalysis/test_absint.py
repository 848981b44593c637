"""Unit tests for the VSA-lite abstract domain and interpreter."""

from repro.ir import Builder, Const, Function
from repro.sanalysis import AbsVal, analyze_function
from repro.sanalysis.absint import (
    BOT_V,
    NUM_TOP,
    SP_REGION,
    TOP_V,
    _Interpreter,
    join,
    widen,
)

#: One region of each pointer-source shape: the lattice laws below hold
#: for every one of them.
REGIONS = (SP_REGION, ("reg", 1), ("sarg", 0))


def lifted_function(name="fn_1000"):
    """A skeleton the analyzer recognizes as lifted (sp first param,
    original entry recorded)."""
    f = Function(name, ["sp", "eax"])
    f.orig_entry = 0x1000
    return f


def sp(lo, hi):
    return AbsVal.ptr(SP_REGION, lo, hi)


# -- domain algebra ----------------------------------------------------------


def test_join_bot_is_identity():
    for region in REGIONS:
        v = AbsVal.ptr(region, -8, -8)
        assert join(BOT_V, v) == v
        assert join(v, BOT_V) == v


def test_join_top_dominates():
    assert join(TOP_V, AbsVal.const(3)) == TOP_V
    for region in REGIONS:
        assert join(TOP_V, AbsVal.ptr(region, 0, 0)) == TOP_V


def test_join_mixed_regions_is_top():
    for region in REGIONS:
        v = AbsVal.ptr(region, 0, 0)
        assert join(AbsVal.const(4), v) == TOP_V
        for other in REGIONS:
            if other != region:
                assert join(v, AbsVal.ptr(other, 0, 0)) == TOP_V


def test_join_same_region_takes_hull():
    for region in REGIONS:
        assert join(AbsVal.ptr(region, -16, -12),
                    AbsVal.ptr(region, -8, -4)) \
            == AbsVal.ptr(region, -16, -4)


def test_join_infinite_bounds_absorb():
    assert join(AbsVal.num(None, 4), AbsVal.num(0, 8)) \
        == AbsVal.num(None, 8)


def test_widen_growing_bound_to_infinity():
    for region in REGIONS:
        old = AbsVal.ptr(region, -16, -16)
        grown = AbsVal.ptr(region, -16, -12)
        assert widen(old, grown) == AbsVal.ptr(region, -16, None)
        shrunk_lo = AbsVal.ptr(region, -20, -16)
        assert widen(old, shrunk_lo) == AbsVal.ptr(region, None, -16)


def test_widen_stable_value_is_fixed_point():
    for region in REGIONS:
        v = AbsVal.ptr(region, -8, -4)
        assert widen(v, v) == v


# -- transfer functions ------------------------------------------------------


def test_sp_plus_const_is_exact():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    addr = b.add(f.params[0], Const(-8))
    b.ret([Const(0), ])
    f.nresults = 1
    values = _Interpreter(f).run()
    assert values[addr] == sp(-8, -8)
    assert values[addr].is_exact


def test_sp_minus_const_and_nested_chain():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    base = b.sub(f.params[0], Const(16))
    addr = b.add(base, Const(4))
    b.ret([Const(0)])
    f.nresults = 1
    values = _Interpreter(f).run()
    assert values[base] == sp(-16, -16)
    assert values[addr] == sp(-12, -12)


def test_loaded_index_degrades_to_derived_shape():
    # sp + (load ...) keeps the sp region but loses the offset — the
    # derived-access shape the corroboration clamp handles.
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    slot = b.add(f.params[0], Const(-4))
    idx = b.load(slot, 4)
    addr = b.add(f.params[0], idx)
    b.ret([Const(0)])
    f.nresults = 1
    values = _Interpreter(f).run()
    assert values[idx] == NUM_TOP
    assert values[addr].region == SP_REGION
    assert not values[addr].bounded


def test_loop_phi_widens_and_terminates():
    # for (p = sp-64; ...; p += 4) — the phi hull grows every round;
    # widening at the loop header must reach a fixed point.
    f = lifted_function()
    b = Builder(f)
    entry = f.add_block("entry")
    head = f.add_block("head")
    body = f.add_block("body")
    exit_ = f.add_block("exit")
    b.position(entry)
    start = b.sub(f.params[0], Const(64))
    b.br(head)
    b.position(body)
    b.position(head)
    phi = b.phi([(entry, start)])
    cond = b.icmp("slt", Const(0), Const(1))
    b.condbr(cond, body, exit_)
    b.position(body)
    nxt = b.add(phi, Const(4))
    phi.add_incoming(body, nxt)
    b.br(head)
    b.position(exit_)
    b.ret([Const(0)])
    f.nresults = 1
    values = _Interpreter(f).run()
    assert values[phi].region == SP_REGION
    assert values[phi].lo == -64 and values[phi].hi is None


# -- frame-access extraction -------------------------------------------------


def test_analyze_function_collects_exact_accesses():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    lo_addr = b.add(f.params[0], Const(-8))
    b.store(lo_addr, Const(7), 4)
    loaded = b.load(lo_addr, 4)
    b.ret([loaded])
    f.nresults = 1
    aset = analyze_function(f)
    assert {(-8, "store"), (-8, "load")} \
        == {(a.lo, a.kind) for a in aset.accesses}
    assert all(a.exact and a.hi == -4 for a in aset.accesses)
    assert aset.frame_low == -8
    assert -8 in aset.known_offsets


def test_analyze_function_anchors_derived_accesses():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    base = b.sub(f.params[0], Const(32))
    idx_slot = b.add(f.params[0], Const(-4))
    idx = b.load(idx_slot, 4)
    elem = b.add(base, idx)
    b.store(elem, Const(1), 4)
    b.ret([Const(0)])
    f.nresults = 1
    aset = analyze_function(f)
    derived = [a for a in aset.accesses if a.derived]
    assert len(derived) == 1
    assert derived[0].lo == -32 and derived[0].hi is None


def test_analyze_function_memoized_per_epoch():
    f = lifted_function()
    b = Builder(f)
    b.position(f.add_block("entry"))
    addr = b.add(f.params[0], Const(-8))
    b.store(addr, Const(7), 4)
    b.ret([Const(0)])
    f.nresults = 1
    first = analyze_function(f)
    assert analyze_function(f) is first
    f.invalidate()  # new mutation epoch
    assert analyze_function(f) is not first


def test_non_lifted_function_yields_empty_set():
    f = Function("plain", ["x"])
    b = Builder(f)
    b.position(f.add_block("entry"))
    b.ret([f.params[0]])
    f.nresults = 1
    aset = analyze_function(f)
    assert aset.accesses == []

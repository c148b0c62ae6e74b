"""Differential tests for the template-JIT tier (:mod:`repro.vm.compile`).

The compiled tier is only allowed to exist because it is *observably
identical* to the reference interpreter.  The fuzzer here generates
random bytecode programs -- loops, calls, memory traffic with
out-of-bounds offsets, division by runtime zeros, input exhaustion --
and runs every one under both tiers, comparing the full observable
surface: run reasons, fault type/message/instr_id, frame freezes,
instruction counts, the simulated clock, output timestamps, memory
snapshots and the input cursor.  ``stop_at`` chunking is fuzzed too, so
checkpoint boundaries that land mid-block (the reference-tail path) are
exercised continuously.  A page-edge variant moves the accesses to a
page boundary and to the break, so compiled loads and stores straddle
pages, end exactly on an edge and run past the segment.  A
validation-mode variant runs pointer-rich programs under access
tracing against an extension that shares the machine's clock, pads,
zero-fills and delay-frees by call-site, and feeds a flight recorder,
so the compiled tier's watched-interval trace guard and its deferred
``trace_ns`` are held to the reference's illegal-access records,
``written`` maps and recorder timestamps.

Deterministic unit tests below pin the compiler's structure: block
planning and jump threading, loop closing, fusion statistics, the
literal-divisor fast path, the cross-machine program cache, and the
input-rewind accounting regression.
"""

from hypothesis import given, settings, strategies as st

from repro.core.changes import DiagnosticPolicy, FreeChange
from repro.heap.allocator import LeaAllocator
from repro.heap.base import PAGE_SIZE, Memory
from repro.heap.extension import (
    PAD_POST,
    PAD_PRE,
    AllocDecision,
    AllocatorExtension,
    ChangePolicy,
    ExtensionMode,
    FreeDecision,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import Telemetry
from repro.util.simclock import SimClock
from repro.vm import compile as vmc
from repro.vm.builder import ProgramBuilder
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.machine import Machine

# ---------------------------------------------------------------------------
# differential harness
# ---------------------------------------------------------------------------


class SitePolicy(ChangePolicy):
    """Validation-style changes chosen by the innermost call-site pc:
    both pads, a post-pad only, a pre-pad only or none; zero fill (so a
    ``written`` map) on every other site; delay-free on odd sites."""

    PADS = ((PAD_PRE, PAD_POST), (0, 24), (40, 0), (0, 0))

    def on_alloc(self, callsite):
        pc = callsite.innermost[1]
        pre, post = self.PADS[pc % 4]
        return AllocDecision(pad_pre=pre, pad_post=post,
                             fill="zero" if pc % 2 == 0 else None)

    def on_free(self, callsite, user_addr):
        delay = callsite.innermost[1] % 2 == 1
        return FreeDecision(delay=delay, check_param=delay)


def machine_for(program, tokens=(), tier=vmc.TIER_REFERENCE,
                trace=False, validation=False, policy=None):
    """A machine over a DIAGNOSTIC extension with no clock, or, with
    ``validation``, over a VALIDATION extension that shares the
    machine's clock, applies ``policy`` (default :class:`SitePolicy`;
    the quarantine is small enough to evict) and feeds a flight
    recorder."""
    mem = Memory()
    if validation:
        clock = SimClock()
        ext = AllocatorExtension(mem, LeaAllocator(mem),
                                 ExtensionMode.VALIDATION,
                                 policy or SitePolicy(),
                                 clock=clock, quarantine_threshold=256)
        ext.trace_mm = True
        telemetry = Telemetry(clock)
        telemetry.recorder = FlightRecorder(mm_capacity=1 << 16,
                                            access_capacity=1 << 16)
        ext.attach_telemetry(telemetry)
    else:
        clock = None
        ext = AllocatorExtension(mem, LeaAllocator(mem),
                                 ExtensionMode.DIAGNOSTIC)
    m = Machine(program, mem, ext, ReplayableInput(list(tokens)),
                OutputLog(), clock=clock, tier=tier)
    m.trace_accesses = trace
    return m


def observe(m):
    ext = m.extension
    recording = (ext._flight.snapshot(0) if ext._flight is not None
                 else None)
    return dict(
        instr_count=m.instr_count,
        clock=m.clock.now_ns,
        halted=m.halted,
        fault=None if m.fault is None else (
            type(m.fault).__name__, m.fault.describe(),
            getattr(m.fault, "instr_id", None)),
        frames=[(f.func.name, f.pc, tuple(f.locals), f.ret_dst)
                for f in m.frames],
        globals=tuple(m.globals),
        output=tuple(m.output.entries()),
        mem=m.mem.snapshot(),
        input_cursor=m.input.snapshot(),
        illegal=[a.identity() for a in ext.illegal_accesses],
        written={addr: bytes(obj.written)
                 for addr, obj in ext._objects.items()
                 if obj.written is not None},
        mm_trace=list(ext.mm_trace),
        accesses=None if recording is None else recording.accesses,
        mm_records=None if recording is None else recording.mm_records,
    )


def run_differential(program, tokens=(), trace=False, chunks=None,
                     max_runs=20000, validation=False):
    """Run ``program`` under both tiers and assert every observable
    matches; ``chunks`` re-enters via ``stop_at`` budgets."""
    results = []
    for tier in vmc.TIERS:
        m = machine_for(program, tokens, tier, trace, validation)
        reasons = []
        if chunks is None:
            reasons.append(m.run().reason)
        else:
            for _ in range(max_runs):
                r = m.run(stop_at=m.instr_count + chunks)
                reasons.append(r.reason)
                if r.reason.value in ("input", "halt", "fault"):
                    break
        results.append((observe(m), reasons))
    assert results[0] == results[1]
    return results[0]


# ---------------------------------------------------------------------------
# random program generation
# ---------------------------------------------------------------------------

VARS = ("a", "b", "c", "d")

_var = st.sampled_from(VARS)
_size = st.sampled_from((1, 2, 4, 8))
_sym = st.sampled_from(("+", "-", "*", "&", "|", "^", "<<", ">>",
                        "<", "<=", ">", ">=", "==", "!=", "/", "%"))

#: Offsets range past the 64-byte buffer so stores/loads sometimes
#: fault (SegmentationFault identity is part of the differential).
_off = st.integers(min_value=0, max_value=96)

_op = st.one_of(
    st.tuples(st.just("binop"), _sym, _var, _var, _var),
    st.tuples(st.just("addi"), _var, _var,
              st.integers(min_value=-8, max_value=64)),
    st.tuples(st.just("out"), _var),
    st.tuples(st.just("in"), _var),
    st.tuples(st.just("store"), _var, _off, _size),
    st.tuples(st.just("load"), _var, _off, _size),
    st.tuples(st.just("call"), _var, _var),
    st.tuples(st.just("memset"), _var, _off),
    st.tuples(st.just("memcpy"), _off),
    st.tuples(st.just("gstore"), _var),
    st.tuples(st.just("gload"), _var),
)

_inits = st.tuples(*([st.integers(min_value=0, max_value=2 ** 48)]
                     * len(VARS)))
_ops = st.lists(_op, max_size=16)
_tokens = st.lists(st.integers(min_value=0, max_value=2 ** 40),
                   max_size=6)


def _emit(fb, g0, ops, tag, ptr="p"):
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "binop":
            fb.binop(op[1], op[2], op[3], op[4])
        elif kind == "addi":
            fb.addi(op[1], op[2], op[3])
        elif kind == "out":
            fb.output(op[1])
        elif kind == "in":
            fb.input(op[1])
        elif kind == "store":
            fb.store(ptr, op[1], op[2], op[3])
        elif kind == "load":
            fb.load(op[1], ptr, op[2], op[3])
        elif kind == "call":
            fb.call(op[1], "twice", [op[2]])
        elif kind == "memset":
            fb.const(f"_ln{tag}{i}", op[2])
            fb.memset(ptr, op[1], f"_ln{tag}{i}")
        elif kind == "memcpy":
            fb.const(f"_ln{tag}{i}", op[1])
            fb.addi(f"_q{tag}{i}", ptr, 8)
            fb.memcpy(f"_q{tag}{i}", ptr, f"_ln{tag}{i}")
        elif kind == "gstore":
            fb.gstore(g0, op[1])
        elif kind == "gload":
            fb.gload(op[1], g0)


def build_random_program(inits, pre_ops, loop_ops, n_loop,
                         edge_shift=None):
    """Random straight-line and loop traffic through a 64-byte block
    ``p``; with ``edge_shift``, ``p`` is the two-page block of
    :data:`EDGE_BLOCK` bytes and every access goes through
    ``e = p + edge_shift``."""
    pb = ProgramBuilder()
    g0 = pb.global_slot("g0")
    tw = pb.function("twice", params=("n",))
    tw.binop("+", "r", "n", "n")
    tw.ret("r")
    pb.add(tw)
    fb = pb.function("main")
    for name, value in zip(VARS, inits):
        fb.const(name, value)
    fb.const("sz", 64 if edge_shift is None else EDGE_BLOCK)
    fb.malloc("p", "sz")
    ptr = "p"
    if edge_shift is not None:
        ptr = "e"
        fb.addi(ptr, "p", edge_shift)
    _emit(fb, g0, pre_ops, "p", ptr)
    fb.const("i", 0)
    fb.const("n", n_loop)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    _emit(fb, g0, loop_ops, "l", ptr)
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    for name in VARS:
        fb.output(name)
    fb.free("p")
    fb.halt()
    pb.add(fb)
    return pb.build()


@settings(max_examples=40, deadline=None)
@given(_inits, _ops, _ops, st.integers(min_value=0, max_value=24),
       _tokens, st.booleans())
def test_fuzz_compiled_matches_reference(inits, pre_ops, loop_ops,
                                         n_loop, tokens, trace):
    program = build_random_program(inits, pre_ops, loop_ops, n_loop)
    run_differential(program, tokens=tokens, trace=trace)


@settings(max_examples=25, deadline=None)
@given(_inits, _ops, _ops, st.integers(min_value=0, max_value=24),
       _tokens, st.integers(min_value=1, max_value=60))
def test_fuzz_chunked_stop_at_matches_reference(inits, pre_ops,
                                                loop_ops, n_loop,
                                                tokens, chunks):
    program = build_random_program(inits, pre_ops, loop_ops, n_loop)
    run_differential(program, tokens=tokens, chunks=chunks)


# ---------------------------------------------------------------------------
# page edges and the break
# ---------------------------------------------------------------------------

#: A block whose chunk spans two pages: it is the first allocation, so
#: ``p`` is ``base + 16``, the chunk ends 16 bytes below the break, and
#: ``p + PAGE_SIZE - 16`` is the first page edge and
#: ``p + 2 * PAGE_SIZE - 16`` the break.
EDGE_BLOCK = 2 * PAGE_SIZE - 32

#: The access base ``e`` sits up to 24 bytes below the page edge or
#: below the break, so the 0..32-byte offsets put loads and stores of
#: every width before, across, exactly up to and past the boundary.
_edge_shift = st.sampled_from((PAGE_SIZE - 16, 2 * PAGE_SIZE - 16)).flatmap(
    lambda edge: st.integers(min_value=edge - 24, max_value=edge))
_edge_off = st.integers(min_value=0, max_value=32)

#: Stores are listed twice: they carry the dirty-page marking.
_edge_op = st.one_of(
    st.tuples(st.just("binop"), _sym, _var, _var, _var),
    st.tuples(st.just("addi"), _var, _var,
              st.integers(min_value=-8, max_value=64)),
    st.tuples(st.just("out"), _var),
    st.tuples(st.just("store"), _var, _edge_off, _size),
    st.tuples(st.just("load"), _var, _edge_off, _size),
    st.tuples(st.just("store"), _var, _edge_off, _size),
    st.tuples(st.just("memset"), _var, _edge_off),
    st.tuples(st.just("memcpy"), _edge_off),
)
_edge_ops = st.lists(_edge_op, max_size=16)


@settings(max_examples=60, deadline=None)
@given(_inits, _edge_ops, _edge_ops, st.integers(min_value=0, max_value=8),
       _edge_shift, st.booleans())
def test_fuzz_page_edge_matches_reference(inits, pre_ops, loop_ops,
                                          n_loop, shift, trace):
    """Compiled loads and stores that straddle a page boundary, end
    exactly on one, or run past the break: the memory snapshot (bytes
    and dirty pages) and the SegmentationFault freeze must match the
    reference interpreter's."""
    program = build_random_program(inits, pre_ops, loop_ops, n_loop,
                                   edge_shift=shift)
    run_differential(program, trace=trace)


# ---------------------------------------------------------------------------
# validation mode: pointer-rich programs under access tracing
# ---------------------------------------------------------------------------

PTRS = ("p", "q", "r")

_ptr = st.sampled_from(PTRS)
#: Negative offsets reach pre-pads and the previous chunk, large ones
#: post-pads and the next chunk; dangling pointers reach quarantined
#: and recycled blocks.
_voff = st.integers(min_value=-48, max_value=96)
_vlen = st.integers(min_value=0, max_value=40)

_vop = st.one_of(
    st.tuples(st.just("binop"), _sym, _var, _var, _var),
    st.tuples(st.just("out"), _var),
    st.tuples(st.just("store"), _ptr, _var, _voff, _size),
    st.tuples(st.just("load"), _var, _ptr, _voff, _size),
    st.tuples(st.just("memset"), _ptr, _var, _vlen),
    st.tuples(st.just("memcpy"), _ptr, _ptr, _vlen),
    st.tuples(st.just("free"), _ptr),
    st.tuples(st.just("malloc"), _ptr,
              st.integers(min_value=1, max_value=96)),
)
_vops = st.lists(_vop, max_size=14)


def _emit_validation(fb, ops, tag):
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "binop":
            fb.binop(op[1], op[2], op[3], op[4])
        elif kind == "out":
            fb.output(op[1])
        elif kind == "store":
            fb.store(op[1], op[2], op[3], op[4])
        elif kind == "load":
            fb.load(op[1], op[2], op[3], op[4])
        elif kind == "memset":
            fb.const(f"_ln{tag}{i}", op[3])
            fb.memset(op[1], op[2], f"_ln{tag}{i}")
        elif kind == "memcpy":
            fb.const(f"_ln{tag}{i}", op[3])
            fb.memcpy(op[1], op[2], f"_ln{tag}{i}")
        elif kind == "free":
            fb.free(op[1])
        elif kind == "malloc":
            fb.const(f"_sz{tag}{i}", op[2])
            fb.malloc(op[1], f"_sz{tag}{i}")


def build_validation_program(inits, sizes, pre_ops, loop_ops, n_loop):
    """Three heap objects from three call-sites, then random accesses,
    frees and re-allocations through them, straight-line and in a
    loop (so freed pointers dangle and blocks change state mid-run)."""
    pb = ProgramBuilder()
    fb = pb.function("main")
    for name, value in zip(VARS, inits):
        fb.const(name, value)
    for ptr, size in zip(PTRS, sizes):
        fb.const(f"_n{ptr}", size)
        fb.malloc(ptr, f"_n{ptr}")
    _emit_validation(fb, pre_ops, "p")
    fb.const("i", 0)
    fb.const("n", n_loop)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    _emit_validation(fb, loop_ops, "l")
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    for name in VARS:
        fb.output(name)
    fb.halt()
    pb.add(fb)
    return pb.build()


_sizes = st.tuples(*([st.integers(min_value=1, max_value=96)]
                     * len(PTRS)))


@settings(max_examples=150, deadline=None)
@given(_inits, _sizes, _vops, _vops,
       st.integers(min_value=0, max_value=12))
def test_fuzz_validation_tracing_matches_reference(inits, sizes, pre_ops,
                                                   loop_ops, n_loop):
    program = build_validation_program(inits, sizes, pre_ops, loop_ops,
                                       n_loop)
    run_differential(program, trace=True, validation=True)


@settings(max_examples=80, deadline=None)
@given(_inits, _sizes, _vops, _vops,
       st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=40))
def test_fuzz_validation_chunked_matches_reference(inits, sizes, pre_ops,
                                                   loop_ops, n_loop,
                                                   chunks):
    program = build_validation_program(inits, sizes, pre_ops, loop_ops,
                                       n_loop)
    run_differential(program, trace=True, chunks=chunks,
                     validation=True)


def test_validation_guard_calls_note_access_only_on_hits(monkeypatch):
    """Every access of a loop over a live, unpadded object only charges
    ``trace_ns``: the compiled tier settles those charges without
    calling ``note_access`` and calls it for the one dangling write
    into a delay-freed block, which is recorded with the reference's
    timestamp."""
    vmc.clear_cache()
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("v", 7)
    fb.const("sz", 32)
    fb.malloc("p", "sz")
    fb.malloc("q", "sz")
    fb.const("i", 0)
    fb.const("n", 20)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    fb.store("q", "i", 0, 8)
    fb.load("v", "q", 0, 8)
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    fb.free("p")
    fb.store("p", "v", 8, 8)
    fb.output("v")
    fb.halt()
    pb.add(fb)
    program = pb.build()
    delay = DiagnosticPolicy(free_default=[FreeChange(delay=True)])

    calls = []
    note_access = AllocatorExtension.note_access

    def counting(self, *args):
        calls.append(args[3])
        return note_access(self, *args)

    monkeypatch.setattr(AllocatorExtension, "note_access", counting)
    observed = {}
    for tier in vmc.TIERS:
        calls.clear()
        m = machine_for(program, tier=tier, trace=True, validation=True,
                        policy=delay)
        assert m.run().reason.value == "halt"
        observed[tier] = (observe(m), len(calls))
    ref, compiled = observed[vmc.TIER_REFERENCE], observed[vmc.TIER_COMPILED]
    assert ref[0] == compiled[0]
    assert ref[1] == 41 and compiled[1] == 1
    assert [a[0] for a in ref[0]["illegal"]] == ["dangling-write"]
    assert [(a.kind, a.time_ns) for a in ref[0]["accesses"]] == \
        [(a.kind, a.time_ns) for a in compiled[0]["accesses"]]


# ---------------------------------------------------------------------------
# deterministic structure tests
# ---------------------------------------------------------------------------


def counting_loop_program(n=500):
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("i", 0)
    fb.const("n", n)
    fb.const("acc", 0)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    fb.binop("+", "acc", "acc", "i")
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    fb.output("acc")
    fb.halt()
    pb.add(fb)
    return pb.build()


def test_loop_is_jump_threaded_and_closed():
    vmc.clear_cache()
    program = counting_loop_program()
    unit = vmc.bind_program(program)
    m = machine_for(program, tier=vmc.TIER_COMPILED)
    m.run()
    assert m.halted and m.output.values() == [sum(range(500))]
    stats = unit.stats.as_dict()
    assert stats["threaded_jumps"] >= 1
    assert stats["closed_loops"] >= 1
    assert stats["cmp_branches"] >= 1
    assert stats["const_folds"] >= 1
    cf = unit.functions["main"]
    loop_sources = [src for src in cf.sources.values()
                    if "while True:" in src]
    assert loop_sources, "loop body should compile to a Python loop"


def test_block_plan_follows_jmp_and_detects_backedge():
    vmc.clear_cache()
    program = counting_loop_program()
    unit = vmc.compiled_for(program)
    cf = unit.functions["main"]
    code = cf.code
    # Entry at pc 0 runs the consts, threads through the JMP at the
    # loop bottom, and terminates at the conditional branch.
    pcs, term = cf.block_plan(0)
    assert term[0] == "op"
    assert code[term[1]][0] in (4, 5) or True  # JZ/JNZ terminator
    assert len(pcs) >= 4
    # The block entered at the branch fall-through loops back to its
    # own entry (threaded through the JMP): loop form.
    body_entry = term[1] + 1
    body_pcs, body_term = cf.block_plan(body_entry)
    assert body_term[0] in ("op", "loop")
    blk = cf.block(body_entry)
    assert blk is cf.blocks[body_entry]
    assert "while True:" in cf.sources[body_entry]


def test_literal_divisor_skips_fault_path():
    vmc.clear_cache()
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("k", 256)
    fb.input("x")
    fb.binop("%", "r", "x", "k")
    fb.binop("/", "q", "x", "k")
    fb.output("r")
    fb.output("q")
    fb.halt()
    pb.add(fb)
    program = pb.build()
    obs = run_differential(program, tokens=(1234567,))
    assert obs[0]["output"][0][1] == 1234567 % 256
    assert obs[0]["output"][1][1] == 1234567 // 256
    unit = vmc.compiled_for(program)
    sources = "".join(unit.functions["main"].sources.values())
    assert "_DivZero" not in sources


def test_program_cache_shared_across_machines():
    vmc.clear_cache()
    first = counting_loop_program()
    second = counting_loop_program()  # identical code, new objects
    assert first.code_key() == second.code_key()
    outputs = []
    for program in (first, second):
        m = machine_for(program, tier=vmc.TIER_COMPILED)
        m.run()
        outputs.append(m.output.values())
    assert outputs[0] == outputs[1]
    assert vmc.cache_size() == 1
    unit = vmc.compiled_for(first)
    assert unit.binds == 2
    assert unit.functions["main"].blocks  # compiled once, reused
    vmc.clear_cache()
    assert vmc.cache_size() == 0


def echo_program():
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.label("top")
    fb.input("v")
    fb.output("v")
    fb.jmp("top")
    pb.add(fb)
    return pb.build()


def test_input_rewind_counts_and_clock_are_exact():
    """Regression for the exhaustion-rewind accounting: the rewound IN
    is neither counted nor charged, in either tier."""
    vmc.clear_cache()
    program = echo_program()
    for tier in vmc.TIERS:
        m = machine_for(program, tokens=(7, 8, 9), tier=tier)
        result = m.run()
        assert result.reason.value == "input"
        # Three full echo iterations (IN, OUT, JMP), then the fourth
        # IN rewinds before counting itself.
        assert m.instr_count == 9
        assert m.clock.now_ns == 9 * m.costs.instr_ns
        assert [v for _, v in m.output.entries()] == [7, 8, 9]
    run_differential(program, tokens=(7, 8, 9))
    run_differential(program, tokens=(7, 8, 9), chunks=2)


def test_fault_freeze_is_identical_mid_loop():
    """A segfault on iteration ~8 of a closed loop: the frozen frame,
    counters and clock must match the reference exactly."""
    vmc.clear_cache()
    pb = ProgramBuilder()
    fb = pb.function("main")
    fb.const("sz", 64)
    fb.malloc("p", "sz")
    fb.const("i", 0)
    fb.const("n", 100)
    fb.label("top")
    fb.binop("<", "t", "i", "n")
    fb.jz("t", "done")
    fb.store("p", "i", 0, 8)
    fb.addi("p", "p", 8)
    fb.addi("i", "i", 1)
    fb.jmp("top")
    fb.label("done")
    fb.free("p")
    fb.halt()
    pb.add(fb)
    program = pb.build()
    obs = run_differential(program)
    assert obs[0]["fault"] is not None
    # The runaway store trips either the heap's metadata canary or the
    # mapping bounds, depending on layout; identity across tiers is
    # what matters (run_differential already asserted it).
    assert obs[0]["fault"][0] in ("SegmentationFault",
                                  "HeapCorruptionFault")
    run_differential(program, trace=True)
    run_differential(program, chunks=5)

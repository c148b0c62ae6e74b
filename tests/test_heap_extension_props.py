"""Property tests for the allocator extension under random operation
sequences and policies."""

import bisect
import copy
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.changes import AllocChange, FreeChange, DiagnosticPolicy
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.extension import (
    AllocDecision,
    AllocatorExtension,
    ChangePolicy,
    ExtensionMode,
    FreeDecision,
    ObjectState,
)
from repro.util.callsite import CallSite
from repro.util.simclock import SimClock

SITE = CallSite([("fn", 1), ("main", 2)])

ops = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=300),   # malloc of size n
        st.just(-1),                               # free oldest live
        st.just(-2),                               # free newest live
    ),
    min_size=1, max_size=80)


def run_ops(ext: AllocatorExtension, script: List[int]):
    live: List[int] = []
    for op in script:
        if op > 0:
            live.append(ext.malloc(op, SITE))
        elif live:
            addr = live.pop(0 if op == -1 else -1)
            ext.free(addr, SITE)
    return live


def delay_policy(canary=False):
    return DiagnosticPolicy(
        free_default=[FreeChange(delay=True, canary_fill=canary,
                                 check_param=True)])


@settings(max_examples=60, deadline=None)
@given(ops)
def test_quarantined_chunks_never_handed_out(script):
    mem = Memory()
    alloc = LeaAllocator(mem)
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC,
                             delay_policy())
    live = run_ops(ext, script)
    quarantined = {obj.user_addr: obj for obj in ext.quarantine}
    # no live object overlaps a quarantined one
    for addr in live:
        obj = ext.object_at(addr)
        for q in quarantined.values():
            assert (obj.block_addr + obj.block_size <= q.user_addr
                    or q.user_addr + q.user_size <= obj.block_addr), \
                "live object overlaps quarantined memory"
    # quarantined objects are still tracked as QUARANTINED
    for q in quarantined.values():
        assert ext.object_at(q.user_addr).state is \
            ObjectState.QUARANTINED


@settings(max_examples=60, deadline=None)
@given(ops)
def test_no_false_manifestations_without_stray_writes(script):
    """In-bounds program behaviour must never produce overflow or
    dangling-write evidence, whatever the change combination."""
    mem = Memory()
    alloc = LeaAllocator(mem)
    policy = DiagnosticPolicy(
        alloc_default=[AllocChange(pad=True, canary_pad=True,
                                   fill="zero")],
        free_default=[FreeChange(delay=True, canary_fill=True,
                                 check_param=True)])
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC,
                             policy)
    live = run_ops(ext, script)
    # in-bounds writes to every live object
    for addr in live:
        obj = ext.object_at(addr)
        mem.fill(addr, 0x5A, obj.user_size)
    man = ext.scan_manifestations()
    assert not man.overflow_hits
    assert not man.dangling_write_hits
    assert not man.double_free_events


@settings(max_examples=60, deadline=None)
@given(ops)
def test_metadata_accounting_matches_live_objects(script):
    from repro.heap.extension import METADATA_BYTES
    mem = Memory()
    alloc = LeaAllocator(mem)
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC)
    live = run_ops(ext, script)
    assert ext.metadata_bytes == len(live) * METADATA_BYTES
    assert ext.peak_metadata_bytes >= ext.metadata_bytes


@settings(max_examples=40, deadline=None)
@given(ops, st.integers(min_value=0, max_value=79))
def test_snapshot_restore_identity(script, cut):
    """Restoring a snapshot mid-script and re-running the tail gives
    identical allocator decisions."""
    cut = min(cut, len(script))
    mem = Memory()
    alloc = LeaAllocator(mem)
    ext = AllocatorExtension(mem, alloc, ExtensionMode.DIAGNOSTIC,
                             delay_policy(canary=True))
    run_ops(ext, script[:cut])
    snaps = (ext.snapshot(), alloc.snapshot(), mem.snapshot())
    first_live = run_ops(ext, script[cut:])
    ext.restore(snaps[0])
    alloc.restore(snaps[1])
    mem.restore(snaps[2])
    second_live = run_ops(ext, script[cut:])
    assert first_live == second_live


# ---------------------------------------------------------------------
# snapshots share object records copy-on-write
# ---------------------------------------------------------------------

DELAY_SITE = CallSite([("fn_delay", 7), ("main", 2)])

# Ops: ("m", size) malloc; ("f", i, delayed) free the i-th live object
# (mod count) through a delaying or a plain call-site; ("w"|"r", i, off)
# a traced write or read of the i-th live object at offset ``off``.
replay_op = st.one_of(
    st.tuples(st.just("m"), st.integers(min_value=1, max_value=200)),
    st.tuples(st.just("f"), st.integers(min_value=0, max_value=15),
              st.booleans()),
    st.tuples(st.sampled_from(["w", "r"]),
              st.integers(min_value=0, max_value=15),
              st.integers(min_value=0, max_value=199)),
)
replay_script = st.lists(replay_op, max_size=40)


def validation_extension() -> AllocatorExtension:
    """A validation-mode extension with zero-fill init tracking on every
    object, delay-free (with canary fill) at ``DELAY_SITE`` and a
    quarantine small enough that evictions really free objects."""
    mem = Memory()
    policy = DiagnosticPolicy(
        alloc_default=[AllocChange(fill="zero")],
        free_overrides={DELAY_SITE: [FreeChange(delay=True,
                                                canary_fill=True)]})
    return AllocatorExtension(mem, LeaAllocator(mem),
                              ExtensionMode.VALIDATION, policy,
                              quarantine_threshold=256)


def run_replay(ext: AllocatorExtension, script) -> list:
    """Run ``script``; returns every malloc result in order."""
    results = []
    for op in script:
        live = [o.user_addr for o in ext.live_objects()]
        if op[0] == "m":
            results.append(ext.malloc(op[1], SITE))
        elif not live:
            continue
        elif op[0] == "f":
            ext.free(live[op[1] % len(live)],
                     DELAY_SITE if op[2] else SITE)
        else:
            obj = ext.object_at(live[op[1] % len(live)])
            off = op[2] % obj.user_size
            if op[0] == "w":
                ext.mem.fill(obj.user_addr + off, 0x5A, 1)
            ext.note_access(obj.user_addr + off, 8, op[0] == "w",
                            ("fn", op[2]))
    return results


def capture(ext: AllocatorExtension) -> tuple:
    return (ext.snapshot(), ext.allocator.snapshot(), ext.mem.snapshot())


def restore_into(snaps: tuple) -> AllocatorExtension:
    ext = validation_extension()
    ext.mem.restore(snaps[2])
    ext.allocator.restore(snaps[1])
    ext.restore(snaps[0])
    return ext


def observed(ext: AllocatorExtension) -> tuple:
    """Everything a replay can observe of an extension's state."""
    return (ext.snapshot(), ext.allocator.snapshot(),
            ext.mem.snapshot()[0])


@settings(max_examples=60, deadline=None)
@given(st.lists(replay_script, min_size=1, max_size=3),
       replay_script, replay_script, replay_script)
def test_snapshot_restored_twice_replays_like_a_deep_copy(
        prefixes, script_a, script_b, tail):
    """One checkpoint restored into two extensions (as serial replay
    tasks do), each running its own script, must leave the checkpoint
    exactly as captured: a third restore replays identically to a deep
    copy taken at capture time."""
    source = validation_extension()
    for prefix in prefixes:          # earlier checkpoints, as in a run
        run_replay(source, prefix)
        snaps = capture(source)
    pristine = copy.deepcopy(snaps)

    task_a = restore_into(snaps)
    task_b = restore_into(snaps)
    run_replay(task_a, script_a)
    run_replay(task_b, script_b)
    run_replay(source, script_b)     # the live process moves on too
    run_replay(task_a, script_b)

    third = restore_into(snaps)
    reference = restore_into(pristine)
    assert observed(third) == observed(reference)
    assert run_replay(third, tail) == run_replay(reference, tail)
    assert observed(third) == observed(reference)


# ---------------------------------------------------------------------
# the watched-interval index against a brute-force classification
# ---------------------------------------------------------------------

class SmallPadPolicy(ChangePolicy):
    """Pads, zero fill and delay-free chosen per call-site (small pads
    keep the heap to a few pages, so every address can be checked)."""

    #: (pad_pre, pad_post, zero fill, delay-free) by innermost pc.
    SITES = (
        (48, 32, True, False),
        (0, 24, False, True),
        (40, 0, False, False),
        (0, 0, True, True),
        (32, 0, False, True),
        (0, 0, False, False),
    )

    def on_alloc(self, callsite):
        pre, post, zero, _ = self.SITES[callsite.innermost[1]]
        return AllocDecision(pad_pre=pre, pad_post=post,
                             fill="zero" if zero else None)

    def on_free(self, callsite, user_addr):
        delay = self.SITES[callsite.innermost[1]][3]
        return FreeDecision(delay=delay, canary_fill=delay,
                            check_param=delay)


WATCH_SITES = [CallSite([("fn", k), ("main", 2)])
               for k in range(len(SmallPadPolicy.SITES))]

# Ops: ("m", size, site) malloc; ("f", i, site) free the i-th live
# object (mod count); ("s",) snapshot; ("r",) restore the latest
# snapshot; ("t",) restore the latest snapshot into a second extension
# and carry on in that one.
_watch_malloc = st.tuples(st.just("m"),
                          st.integers(min_value=1, max_value=120),
                          st.integers(min_value=0, max_value=5))
_watch_free = st.tuples(st.just("f"),
                        st.integers(min_value=0, max_value=15),
                        st.integers(min_value=0, max_value=5))
watch_op = st.one_of(_watch_malloc, _watch_malloc, _watch_free,
                     _watch_free, st.sampled_from([("s",), ("r",), ("t",)]))


def watched_extension() -> AllocatorExtension:
    mem = Memory()
    return AllocatorExtension(mem, LeaAllocator(mem),
                              ExtensionMode.VALIDATION, SmallPadPolicy(),
                              clock=SimClock(), quarantine_threshold=200)


def brute_watched(ext: AllocatorExtension, addr: int) -> bool:
    """Where ``note_access`` can do more than charge, per its rules."""
    obj = ext.find_object(addr)
    if obj is None:
        return False
    if obj.state is ObjectState.QUARANTINED:
        return True
    if obj.state is not ObjectState.LIVE:
        return False
    return (obj.in_pre_pad(addr) or obj.in_post_pad(addr)
            or obj.written is not None)


def assert_index_matches(ext: AllocatorExtension) -> tuple:
    starts, ends, _, _ = ext.watch_index(ext.clock)
    assert len(starts) == len(ends)
    for i in range(1, len(starts)):   # sorted, disjoint, non-empty
        assert ends[i - 1] <= starts[i] < ends[i]
    for addr in range(ext.mem.base, ext.mem.brk):
        hit = addr < ends[bisect.bisect_right(starts, addr) - 1]
        assert hit == brute_watched(ext, addr), hex(addr)
    return starts, ends


@settings(max_examples=60, deadline=None)
@given(st.lists(watch_op, min_size=4, max_size=40))
def test_watched_index_matches_brute_force(script):
    ext = watched_extension()
    snaps = None
    held = assert_index_matches(ext)
    for op in script:
        restored = False
        if op[0] == "m":
            ext.malloc(op[1], WATCH_SITES[op[2]])
        elif op[0] == "f":
            live = [o.user_addr for o in ext.live_objects()]
            if live:
                ext.free(live[op[1] % len(live)], WATCH_SITES[op[2]])
        elif op[0] == "s":
            snaps = capture(ext)
        elif snaps is not None:
            if op[0] == "t":
                ext = watched_extension()
            ext.mem.restore(snaps[2])
            ext.allocator.restore(snaps[1])
            ext.restore(snaps[0])
            restored = True
        starts, ends = assert_index_matches(ext)
        if not restored:
            # Kept up to date in place: a run holds these lists.
            assert starts is held[0] and ends is held[1]
        held = (starts, ends)


def _overlapping_heap():
    """Objects a, b, c, d, g with b's chunk header rewritten (an
    unprevented overflow) to claim b's, c's and d's chunks, and b freed:
    the allocator now bins a chunk that overlaps live c and d.  Returns
    the extension, b and c."""
    ext = watched_extension()
    plain = WATCH_SITES[5]
    ext.malloc(16, plain)
    b = ext.malloc(16, plain)
    c = ext.malloc(16, WATCH_SITES[1])            # post-pad, delay-free
    d = ext.malloc(16, plain)
    ext.malloc(16, plain)                         # keeps d off the top
    assert_index_matches(ext)
    ext.mem.write_uint(b - 16, 8, (d + 16 - b) | 1)
    ext.free(b, plain)
    assert_index_matches(ext)
    return ext, b, c


def test_watched_index_follows_find_object_on_overlapping_chunks():
    """A chunk handed out over live neighbours: each block is watched
    only up to the next block start, as ``find_object`` resolves it."""
    ext, b, c = _overlapping_heap()
    starts, _ = assert_index_matches(ext)
    e = ext.malloc(16, WATCH_SITES[2])            # pre-pad 40
    assert ext.object_at(e).block_addr == b
    assert b + ext.object_at(e).block_size > c    # overlaps c
    assert assert_index_matches(ext)[0] is starts
    ext.free(c, WATCH_SITES[1])                   # quarantined
    assert_index_matches(ext)
    ext.free(e, WATCH_SITES[5])
    assert assert_index_matches(ext)[0] is starts


def test_watched_index_rebuilt_when_a_record_is_displaced():
    """A pre-pad that ends on a live object's user address displaces
    that object's record, which changes another bucket's answer."""
    ext, b, c = _overlapping_heap()
    starts, _ = assert_index_matches(ext)
    e = ext.malloc(16, WATCH_SITES[4])            # pre-pad 32
    assert e == c and ext.object_at(c).block_addr == b
    assert assert_index_matches(ext)[0] is starts

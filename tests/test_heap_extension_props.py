"""Property tests for the allocator extension under random operation
sequences and policies."""

import copy
from typing import List

from hypothesis import given, settings, strategies as st

from repro.core.changes import AllocChange, FreeChange, DiagnosticPolicy
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.extension import (
    AllocatorExtension,
    ExtensionMode,
    ObjectState,
)
from repro.util.callsite import CallSite

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

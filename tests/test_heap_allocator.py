"""Unit tests for the Lea-style allocator."""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    HeapCorruptionFault,
    OutOfMemoryFault,
    SegmentationFault,
)
from repro.heap.allocator import SMALL_MAX, LeaAllocator
from repro.heap.base import Memory, PAGE_SIZE
from repro.heap.chunk import ALIGN, HEADER_SIZE, MIN_CHUNK, ChunkView
from repro.heap.random_alloc import RandomizedLeaAllocator


@pytest.fixture
def alloc():
    return LeaAllocator(Memory())


def test_malloc_returns_aligned_user_addresses(alloc):
    for size in (1, 7, 16, 100, 1000):
        addr = alloc.malloc(size)
        assert addr % ALIGN == 0
        assert alloc.usable_size(addr) >= size


def test_distinct_live_allocations_do_not_overlap(alloc):
    spans = []
    for size in (10, 50, 200, 8, 64):
        addr = alloc.malloc(size)
        spans.append((addr, addr + size))
    spans.sort()
    for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
        assert a_end <= b_start


def test_lifo_reuse_keeps_stale_contents(alloc):
    a = alloc.malloc(100)
    alloc.mem.write_bytes(a, b"x" * 100)
    alloc.free(a)
    b = alloc.malloc(100)
    assert b == a                      # immediate LIFO reuse
    assert alloc.mem.read_bytes(b, 4) == b"xxxx"  # never cleared


def test_free_coalesces_into_top(alloc):
    a = alloc.malloc(64)
    used = alloc.heap_used
    alloc.free(a)
    assert alloc.heap_used < used
    assert list(alloc.iter_free_chunks()) == []


def test_forward_and_backward_coalescing(alloc):
    a = alloc.malloc(64)
    b = alloc.malloc(64)
    _guard = alloc.malloc(64)          # keeps b away from top
    alloc.free(a)
    alloc.free(b)                      # backward-coalesces with a
    chunks = list(alloc.iter_free_chunks())
    assert len(chunks) == 1
    assert chunks[0].size == 2 * (64 + HEADER_SIZE)


def test_split_of_larger_chunk(alloc):
    big = alloc.malloc(512)
    _guard = alloc.malloc(16)
    alloc.free(big)
    small = alloc.malloc(32)
    assert small == big                # carved from the freed chunk
    remainders = list(alloc.iter_free_chunks())
    assert len(remainders) == 1
    assert remainders[0].size == (512 + HEADER_SIZE) - \
        (32 + HEADER_SIZE)


def test_double_free_aborts(alloc):
    a = alloc.malloc(64)
    alloc.free(a)
    with pytest.raises(HeapCorruptionFault):
        alloc.free(a)


def test_wild_free_aborts(alloc):
    alloc.malloc(64)
    with pytest.raises(HeapCorruptionFault):
        alloc.free(alloc.mem.base + 8)


def test_free_detects_smashed_header(alloc):
    a = alloc.malloc(64)
    b = alloc.malloc(64)
    _guard = alloc.malloc(16)
    # overflow a into b's header
    alloc.mem.fill(a + 64, 0x41, HEADER_SIZE)
    with pytest.raises(HeapCorruptionFault):
        alloc.free(b)


def test_binned_chunk_with_smashed_header_detected_on_reuse(alloc):
    a = alloc.malloc(64)
    b = alloc.malloc(64)
    _guard = alloc.malloc(16)
    alloc.free(b)                      # b sits in a bin
    alloc.mem.fill(a + 64, 0x41, HEADER_SIZE)  # overflow smashes it
    with pytest.raises(HeapCorruptionFault):
        alloc.malloc(64)               # pop validates and aborts


def test_oom_raises(mem_limit=4 * PAGE_SIZE):
    alloc = LeaAllocator(Memory(limit=mem_limit))
    alloc.malloc(2 * PAGE_SIZE)
    with pytest.raises(OutOfMemoryFault):
        alloc.malloc(4 * PAGE_SIZE)


def test_negative_malloc_rejected(alloc):
    with pytest.raises(HeapCorruptionFault):
        alloc.malloc(-1)


def test_statistics(alloc):
    a = alloc.malloc(100)
    b = alloc.malloc(50)
    assert alloc.n_mallocs == 2
    assert alloc.live_user_bytes == alloc.usable_size(a) + \
        alloc.usable_size(b)
    alloc.free(a)
    assert alloc.n_frees == 1
    assert alloc.live_user_bytes == alloc.usable_size(b)
    assert alloc.peak_heap_bytes >= alloc.heap_used


def test_large_allocations_use_sorted_list(alloc):
    big1 = alloc.malloc(SMALL_MAX * 4)
    _guard = alloc.malloc(16)
    alloc.free(big1)
    # best-fit: a smaller large request carves from it
    big2 = alloc.malloc(SMALL_MAX * 2)
    assert big2 == big1


def test_snapshot_restore_roundtrip(alloc):
    a = alloc.malloc(64)
    b = alloc.malloc(128)
    alloc.free(a)
    snap = alloc.snapshot()
    mem_snap = alloc.mem.snapshot()
    c = alloc.malloc(64)
    assert c == a
    alloc.free(b)
    alloc.restore(snap)
    alloc.mem.restore(mem_snap)
    # state is back: the freed chunk for `a` is available again
    assert alloc.malloc(64) == a
    assert alloc.usable_size(b) >= 128


def test_min_chunk_enforced(alloc):
    addr = alloc.malloc(1)
    chunk = ChunkView(alloc.mem, addr - HEADER_SIZE)
    assert chunk.size >= MIN_CHUNK


# ---------------------------------------------------------------------
# chunk headers: the struct fast path and its generic fallback
# ---------------------------------------------------------------------

def _fault_message(fn):
    with pytest.raises(SegmentationFault) as info:
        fn()
    return str(info.value)


@pytest.mark.parametrize("offset", [-16, -12, -8, -4, 0, 8])
def test_header_access_past_segment_end_faults_like_memory(offset):
    """A header word at or across ``brk`` raises exactly the fault a
    generic 8-byte access at that address raises."""
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    chunk = ChunkView(mem, mem.brk + offset)
    if offset + 16 <= 0:
        # Both words mapped: no fault, and the values agree.
        chunk.set(48, in_use=True, prev_size=32)
        assert chunk.size_flags == mem.read_uint(chunk.addr, 8) == 49
        assert chunk.prev_size == mem.read_uint(chunk.addr + 8, 8) == 32
        return
    word = chunk.addr if offset + 8 > 0 else chunk.addr + 8
    expected = _fault_message(lambda: mem.read_uint(word, 8))
    assert expected == _fault_message(
        lambda: mem.write_uint(word, 8, 1))
    if word == chunk.addr:
        assert _fault_message(lambda: chunk.size_flags) == expected
        assert _fault_message(lambda: chunk.size) == expected

        def write():
            chunk.size_flags = 1
    else:
        assert _fault_message(lambda: chunk.prev_size) == expected

        def write():
            chunk.prev_size = 1
    assert _fault_message(write) == expected


def test_header_access_below_segment_base_faults_like_memory():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    chunk = ChunkView(mem, mem.base - 16)
    assert (_fault_message(lambda: chunk.size_flags)
            == _fault_message(lambda: mem.read_uint(mem.base - 16, 8)))
    with pytest.raises(SegmentationFault):
        chunk.set(32, in_use=False, prev_size=0)


def test_header_write_marks_its_page_dirty():
    mem = Memory()
    mem.sbrk(2 * PAGE_SIZE)
    mem.clear_dirty()
    ChunkView(mem, mem.base + PAGE_SIZE - 16).set(32, False, 16)
    assert mem.dirty_pages == {0}
    mem.clear_dirty()
    ChunkView(mem, mem.base + PAGE_SIZE).prev_size = 32
    assert mem.dirty_pages == {1}
    mem.clear_dirty()
    ChunkView(mem, mem.base + PAGE_SIZE - 8).prev_size = 32
    assert mem.dirty_pages == {1}


def test_unaligned_header_write_matches_memory_write():
    """A word that straddles a page (only a wild pointer yields one)
    dirties both pages and stores the same bytes as write_uint."""
    mem, ref = Memory(), Memory()
    for m in (mem, ref):
        m.sbrk(2 * PAGE_SIZE)
        m.clear_dirty()
    addr = mem.base + PAGE_SIZE - 4
    ChunkView(mem, addr).size_flags = 0x1122334455667788
    ref.write_uint(addr, 8, 0x1122334455667788)
    assert mem.dirty_pages == ref.dirty_pages == {0, 1}
    assert mem.snapshot() == ref.snapshot()
    assert ChunkView(mem, addr).size_flags == 0x1122334455667788


# ---------------------------------------------------------------------
# small-bin lookup: the sorted index against a linear probe
# ---------------------------------------------------------------------

class _LinearProbe:
    """Reference ``_take_from_bins``: probe every small-bin size from
    ``need`` up to SMALL_MAX, then best-fit the large list."""

    def _take_from_bins(self, need):
        if need <= SMALL_MAX:
            for size in range(need, SMALL_MAX + 1, ALIGN):
                if self._small_bins.get(size):
                    addr = self._pop_exact(size)
                    self._validate_reused(addr, size)
                    if size != need:
                        self._split(addr, size, need)
                    return addr
        i = bisect.bisect_left(self._large, (need, 0))
        if i < len(self._large):
            size, addr = self._large.pop(i)
            self._validate_reused(addr, size)
            self._split(addr, size, need)
            return addr
        return None


class _LinearLea(_LinearProbe, LeaAllocator):
    pass


class _LinearRandomizedLea(_LinearProbe, RandomizedLeaAllocator):
    pass


bin_script = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=700),          # malloc size
        st.integers(min_value=-40, max_value=-1),         # free i-th live
    ),
    min_size=1, max_size=150)


def _run_bins(alloc, script):
    live, out = [], []
    for op in script:
        if op > 0:
            addr = alloc.malloc(op)
            live.append(addr)
            out.append(addr)
        elif live:
            alloc.free(live.pop(-op % len(live)))
    return out


@settings(max_examples=150, deadline=None)
@given(script=bin_script, randomized=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32))
def test_indexed_bin_lookup_matches_linear_probe(script, randomized, seed):
    if randomized:
        fast = RandomizedLeaAllocator(Memory(), seed)
        slow = _LinearRandomizedLea(Memory(), seed)
    else:
        fast, slow = LeaAllocator(Memory()), _LinearLea(Memory())
    assert _run_bins(fast, script) == _run_bins(slow, script)
    # Same bins, top and counters -- and, randomized, the same RNG state.
    assert fast.snapshot() == slow.snapshot()
    assert fast.mem.snapshot() == slow.mem.snapshot()
    assert fast._small_sizes == sorted(fast._small_bins)
    assert all(fast._small_bins.values())


def test_bin_index_rebuilt_on_restore(alloc):
    addrs = [alloc.malloc(n) for n in (40, 100, 200, 16)]
    alloc.free(addrs[0])
    alloc.free(addrs[2])
    snap = alloc.snapshot()
    alloc.malloc(8)
    alloc.malloc(8)
    alloc.restore(snap)
    assert alloc._small_sizes == sorted(alloc._small_bins)
    assert alloc.malloc(100) == addrs[2]

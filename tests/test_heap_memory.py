"""Unit tests for the simulated memory segment."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SegmentationFault
from repro.heap.base import HEAP_BASE, MEM_CODECS, PAGE_SIZE, Memory
from repro.vm.isa import VALID_MEM_SIZES


def test_initially_unmapped():
    mem = Memory()
    assert mem.brk == mem.base
    with pytest.raises(SegmentationFault):
        mem.read_bytes(mem.base, 1)


def test_sbrk_grows_in_pages():
    mem = Memory()
    old = mem.sbrk(1)
    assert old == mem.base
    assert mem.brk == mem.base + PAGE_SIZE
    mem.sbrk(PAGE_SIZE + 1)
    assert mem.brk == mem.base + 3 * PAGE_SIZE


def test_sbrk_respects_limit():
    mem = Memory(limit=2 * PAGE_SIZE)
    assert mem.sbrk(PAGE_SIZE) >= 0
    assert mem.sbrk(PAGE_SIZE) >= 0
    assert mem.sbrk(1) == -1  # over the limit


def test_fresh_pages_are_zero():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    assert mem.read_bytes(mem.base, 16) == b"\x00" * 16


def test_read_write_roundtrip():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_bytes(mem.base + 10, b"hello")
    assert mem.read_bytes(mem.base + 10, 5) == b"hello"


def test_uint_little_endian():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_uint(mem.base, 8, 0x1122334455667788)
    assert mem.read_bytes(mem.base, 2) == b"\x88\x77"
    assert mem.read_uint(mem.base, 8) == 0x1122334455667788
    assert mem.read_uint(mem.base, 4) == 0x55667788


def test_uint_wraps_at_size():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_uint(mem.base, 1, 0x1FF)
    assert mem.read_uint(mem.base, 1) == 0xFF


def test_null_and_low_addresses_fault():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    for addr in (0, 1, 4096, HEAP_BASE - 1):
        with pytest.raises(SegmentationFault):
            mem.read_uint(addr, 8)


def test_access_straddling_brk_faults():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    with pytest.raises(SegmentationFault):
        mem.read_bytes(mem.brk - 4, 8)
    # but exactly up to brk is fine
    assert mem.read_bytes(mem.brk - 8, 8) == b"\x00" * 8


def test_fault_carries_address():
    mem = Memory()
    try:
        mem.read_uint(0xDEAD, 8)
    except SegmentationFault as fault:
        assert fault.address == 0xDEAD
    else:
        pytest.fail("expected SegmentationFault")


def test_fill_and_copy_within():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.fill(mem.base, 0xAB, 32)
    assert mem.read_bytes(mem.base, 32) == b"\xab" * 32
    mem.copy_within(mem.base + 100, mem.base, 32)
    assert mem.read_bytes(mem.base + 100, 32) == b"\xab" * 32


def test_dirty_page_tracking():
    mem = Memory()
    mem.sbrk(4 * PAGE_SIZE)
    mem.clear_dirty()
    assert mem.dirty_page_count == 0
    mem.write_uint(mem.base, 8, 1)
    assert mem.dirty_pages == frozenset({0})
    # a write straddling two pages dirties both
    mem.write_bytes(mem.base + PAGE_SIZE - 2, b"abcd")
    assert mem.dirty_pages == frozenset({0, 1})
    mem.clear_dirty()
    assert mem.dirty_page_count == 0


def test_reads_do_not_dirty():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.clear_dirty()
    mem.read_bytes(mem.base, 64)
    assert mem.dirty_page_count == 0


def test_snapshot_restore_roundtrip():
    mem = Memory()
    mem.sbrk(PAGE_SIZE)
    mem.write_bytes(mem.base, b"state-one")
    snap = mem.snapshot()
    mem.write_bytes(mem.base, b"state-two")
    mem.sbrk(PAGE_SIZE)
    mem.restore(snap)
    assert mem.read_bytes(mem.base, 9) == b"state-one"
    assert mem.brk == mem.base + PAGE_SIZE


def test_unaligned_base_rejected():
    with pytest.raises(ValueError):
        Memory(base=1000)


# ---------------------------------------------------------------------------
# width codecs against the slice-and-int implementation they replaced
# ---------------------------------------------------------------------------


class SliceCodecMemory(Memory):
    """The oracle: ``int.from_bytes``/``to_bytes`` over buffer slices
    and a ``range`` of dirty pages for every write, as before the
    per-width codec table."""

    __slots__ = ()

    def read_uint(self, addr, size):
        off = self._check(addr, size)
        return int.from_bytes(self._buf[off:off + size], "little")

    def write_uint(self, addr, size, value):
        off = self._check(addr, size)
        self._buf[off:off + size] = (value & ((1 << (8 * size)) - 1)
                                     ).to_bytes(size, "little")
        self._mark_dirty(off, size)

    def fill(self, addr, byte, size):
        off = self._check(addr, size)
        self._buf[off:off + size] = bytes([byte & 0xFF]) * size
        self._mark_dirty(off, size)

    def copy_within(self, dst, src, size):
        self.write_bytes(dst, self.read_bytes(src, size))

    def _mark_dirty(self, off, size):
        first = off // PAGE_SIZE
        last = (off + max(size, 1) - 1) // PAGE_SIZE
        self._dirty_pages.update(range(first, last + 1))


_PAGES = 3
_METHODS = {"read": "read_uint", "write": "write_uint", "fill": "fill",
            "copy": "copy_within"}


def _outcome(call):
    try:
        return ("ok", call())
    except SegmentationFault as fault:
        return ("fault", str(fault), fault.address)


#: Addresses within 12 bytes of every page edge of a three-page
#: segment: below the base, across each interior edge, up to and past
#: the break.
_edge_addr = st.builds(
    lambda page, delta: HEAP_BASE + page * PAGE_SIZE + delta,
    st.integers(min_value=0, max_value=_PAGES),
    st.integers(min_value=-12, max_value=12))
_width = st.sampled_from(VALID_MEM_SIZES)
_access = st.one_of(
    st.tuples(st.just("read"), _edge_addr, _width),
    st.tuples(st.just("write"), _edge_addr, _width,
              st.integers(min_value=0, max_value=2 ** 64 + 5)),
    st.tuples(st.just("fill"), _edge_addr, st.integers(0, 300),
              st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("copy"), _edge_addr, _edge_addr,
              st.integers(min_value=0, max_value=20)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_access, min_size=1, max_size=24))
def test_width_codecs_match_slice_oracle(accesses):
    """``read_uint``/``write_uint`` (and ``fill``/``copy_within``, which
    share the dirty-page fast path) return the oracle's values, leave
    its bytes and dirty pages, and raise its SegmentationFault text at
    and past the segment end."""
    mem, oracle = Memory(), SliceCodecMemory()
    for m in (mem, oracle):
        m.sbrk(_PAGES * PAGE_SIZE)
        m.clear_dirty()
    for kind, *args in accesses:
        method = _METHODS[kind]
        got, want = (_outcome(lambda m=m: getattr(m, method)(*args))
                     for m in (mem, oracle))
        assert got == want
        assert mem.snapshot() == oracle.snapshot()


def test_codec_table_covers_the_isa_widths():
    assert VALID_MEM_SIZES == tuple(MEM_CODECS) == (1, 2, 4, 8)
    for size, (unpack, pack, mask) in MEM_CODECS.items():
        buf = bytearray(size)
        pack(buf, 0, mask)
        assert bytes(buf) == b"\xff" * size
        assert unpack(buf, 0) == (mask,)


def test_page_end_word_dirties_one_page():
    """A word ending exactly on a page edge dirties only its own page;
    one byte later it straddles into the next."""
    mem = Memory()
    mem.sbrk(2 * PAGE_SIZE)
    for size in (2, 4, 8):
        mem.clear_dirty()
        mem.write_uint(mem.base + PAGE_SIZE - size, size, 1)
        assert mem.dirty_pages == frozenset({0})
        mem.write_uint(mem.base + PAGE_SIZE - size + 1, size, 1)
        assert mem.dirty_pages == frozenset({0, 1})

"""Flat byte-addressable simulated memory.

One :class:`Memory` instance is the heap segment of a simulated process.
It starts at :data:`HEAP_BASE` and grows upward through :meth:`sbrk`,
like a classic Unix data segment.  Any access outside ``[base, brk)`` --
including the low "NULL page" region -- raises
:class:`~repro.errors.SegmentationFault`.  Accesses *inside* the break
never fault even if they hit free chunks or allocator metadata; that is
precisely how dangling pointers and overflows corrupt state silently in
a real process.

The memory records which pages have been written since the last
:meth:`clear_dirty` call.  The checkpoint manager uses this as the
copy-on-write page set: the paper's Flashback checkpointing only copies
pages dirtied in each interval, and Tables 6-7 measure exactly that.
"""

from __future__ import annotations

import struct
from typing import Dict, FrozenSet, Iterable, Mapping, Set

from repro.errors import SegmentationFault

PAGE_SIZE = 4096
#: ``off >> PAGE_SHIFT`` is ``off // PAGE_SIZE`` for the non-negative
#: offsets every access has after its bounds check.
PAGE_SHIFT = PAGE_SIZE.bit_length() - 1

#: Base virtual address of the simulated heap.  Chosen high enough that
#: small integers, canary-derived garbage values, and NULL all fault.
HEAP_BASE = 0x0010_0000

#: Default ceiling for heap growth (64 MiB of simulated heap).
DEFAULT_LIMIT = 64 * 1024 * 1024

#: One little-endian codec per access width: width -> (unpack_from,
#: pack_into, mask).  Its keys are the ISA's ``VALID_MEM_SIZES``; the
#: compiled tier binds the same functions into its blocks (and indexes
#: the buffer directly for width 1), so both tiers encode every load
#: and store identically.  ``pack_into`` raises on an out-of-range
#: value, so a store packs ``value & mask``: the low ``size`` bytes,
#: as a C store of the truncated value writes them.
MEM_CODECS = {
    size: (codec.unpack_from, codec.pack_into, (1 << (8 * size)) - 1)
    for size, codec in ((1, struct.Struct("<B")),
                        (2, struct.Struct("<H")),
                        (4, struct.Struct("<I")),
                        (8, struct.Struct("<Q")))
}


class Memory:
    """The simulated heap segment.

    Addresses are plain ints in a 64-bit space.  Only ``[base, brk)`` is
    mapped.  Reads of freshly grown pages return zeros (as from the OS);
    reused bytes keep their previous contents (as from a real allocator).
    """

    __slots__ = ("base", "limit", "_buf", "_dirty_pages", "version")

    def __init__(self, base: int = HEAP_BASE, limit: int = DEFAULT_LIMIT):
        if base % PAGE_SIZE:
            raise ValueError("heap base must be page aligned")
        self.base = base
        self.limit = limit
        self._buf = bytearray()
        self._dirty_pages: Set[int] = set()
        #: Bumped on every wholesale restore/overlay.  The checkpoint
        #: manager uses this to detect that the segment was rewritten
        #: behind its back (e.g. by a direct Process.restore), in which
        #: case its dirty-page bookkeeping no longer describes the
        #: delta against the last checkpoint.
        self.version = 0

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------

    @property
    def brk(self) -> int:
        """Current program break (first unmapped address)."""
        return self.base + len(self._buf)

    @property
    def mapped_bytes(self) -> int:
        return len(self._buf)

    def sbrk(self, delta: int) -> int:
        """Grow the segment by ``delta`` bytes (rounded up to pages).

        Returns the old break, like the Unix call.  Shrinking is not
        supported (the Lea allocator here never trims).
        """
        if delta < 0:
            raise ValueError("sbrk shrink not supported")
        old_brk = self.brk
        grow = -(-delta // PAGE_SIZE) * PAGE_SIZE
        if len(self._buf) + grow > self.limit:
            return -1  # allocator turns this into OutOfMemoryFault
        self._buf.extend(b"\x00" * grow)
        return old_brk

    def is_mapped(self, addr: int, size: int = 1) -> bool:
        return self.base <= addr and addr + size <= self.brk and size >= 0

    def _check(self, addr: int, size: int) -> int:
        """Translate ``addr`` to a buffer offset or fault."""
        off = addr - self.base
        if off < 0 or size < 0 or off + size > len(self._buf):
            raise SegmentationFault(
                f"access of {size} byte(s) outside [0x{self.base:x}, "
                f"0x{self.brk:x})", address=addr)
        return off

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------

    def read_bytes(self, addr: int, size: int) -> bytes:
        off = self._check(addr, size)
        return bytes(self._buf[off:off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        off = self._check(addr, len(data))
        self._buf[off:off + len(data)] = data
        self._mark_dirty(off, len(data))

    def read_uint(self, addr: int, size: int) -> int:
        """Little-endian load of ``size`` (a ``MEM_CODECS`` width)
        bytes."""
        unpack = MEM_CODECS[size][0]
        return unpack(self._buf, self._check(addr, size))[0]

    def write_uint(self, addr: int, size: int, value: int) -> None:
        """Little-endian store of ``value`` truncated to ``size`` (a
        ``MEM_CODECS`` width) bytes."""
        _, pack, mask = MEM_CODECS[size]
        off = self._check(addr, size)
        pack(self._buf, off, value & mask)
        self._dirty_pages.add(off >> PAGE_SHIFT)
        if (off & (PAGE_SIZE - 1)) > PAGE_SIZE - size:
            self._dirty_pages.add((off >> PAGE_SHIFT) + 1)

    def fill(self, addr: int, byte: int, size: int) -> None:
        off = self._check(addr, size)
        self._buf[off:off + size] = bytes([byte & 0xFF]) * size
        self._mark_dirty(off, size)

    def copy_within(self, dst: int, src: int, size: int) -> None:
        # Source checked first, as a read-then-write would.  The slice
        # is a copy, so overlapping ranges behave like memmove.
        soff = self._check(src, size)
        doff = self._check(dst, size)
        buf = self._buf
        buf[doff:doff + size] = buf[soff:soff + size]
        self._mark_dirty(doff, size)

    # ------------------------------------------------------------------
    # dirty-page (COW) accounting
    # ------------------------------------------------------------------

    def _mark_dirty(self, off: int, size: int) -> None:
        """Dirty the pages ``[off, off + size)`` touches (the page of
        ``off`` for ``size == 0``): one ``set.add`` unless the range
        straddles a page boundary."""
        first = off >> PAGE_SHIFT
        last = (off + max(size, 1) - 1) >> PAGE_SHIFT
        if first == last:
            self._dirty_pages.add(first)
        else:
            self._dirty_pages.update(range(first, last + 1))

    @property
    def dirty_pages(self) -> FrozenSet[int]:
        return frozenset(self._dirty_pages)

    @property
    def dirty_page_count(self) -> int:
        return len(self._dirty_pages)

    def clear_dirty(self) -> None:
        self._dirty_pages.clear()

    # ------------------------------------------------------------------
    # snapshot / restore (used by checkpointing)
    # ------------------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of mapped pages (``sbrk`` keeps the break
        page-aligned, so the segment is always a whole page multiple)."""
        return len(self._buf) // PAGE_SIZE

    def snapshot(self) -> tuple:
        """An opaque, immutable snapshot of the segment contents."""
        return (bytes(self._buf), frozenset(self._dirty_pages))

    def restore(self, snap: tuple) -> None:
        buf, dirty = snap
        self._buf = bytearray(buf)
        self._dirty_pages = set(dirty)
        self.version += 1

    # ------------------------------------------------------------------
    # page-granular snapshot / overlay (incremental checkpointing)
    # ------------------------------------------------------------------

    def copy_pages(self, indices: Iterable[int]) -> Dict[int, bytes]:
        """Immutable copies of the given pages, keyed by page index.

        This is the capture half of an incremental checkpoint: the
        caller passes the dirty-page set and pays O(dirty) instead of
        O(heap).  Slices go through one :class:`memoryview` so each
        page costs a single copy.
        """
        view = memoryview(self._buf)
        try:
            return {idx: bytes(view[idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE])
                    for idx in indices}
        finally:
            view.release()

    def load_pages(self, mapped_bytes: int, pages: Mapping[int, bytes],
                   dirty: Iterable[int] = ()) -> None:
        """Resize the segment to ``mapped_bytes`` and overlay ``pages``.

        The restore half of an incremental rollback: only the pages
        known to differ from the target state need to be supplied;
        everything else keeps its current contents.  Growth fills with
        zeros (matching :meth:`sbrk`); shrinking truncates (rollback to
        an older, smaller break).
        """
        if mapped_bytes % PAGE_SIZE:
            raise ValueError("mapped size must be page aligned")
        buf = self._buf
        if len(buf) > mapped_bytes:
            del buf[mapped_bytes:]
        elif len(buf) < mapped_bytes:
            buf.extend(bytes(mapped_bytes - len(buf)))
        for idx, payload in pages.items():
            off = idx * PAGE_SIZE
            buf[off:off + len(payload)] = payload
        self._dirty_pages = set(dirty)
        self.version += 1

"""Boundary-tag chunk layout, stored in simulated memory.

Layout (all little-endian, 16-byte aligned chunks)::

    chunk_addr + 0   u64  size_flags   chunk size incl. header; bit0 = IN_USE
    chunk_addr + 8   u64  prev_size    size of the physically previous chunk
    chunk_addr + 16  ...  user data    (user pointer = chunk_addr + 16)

Because the header lives in the same byte array the program writes
through, a buffer overflow that runs off the end of one object smashes
the next chunk's ``size_flags`` -- and the allocator later trips over it
exactly the way dlmalloc does.  That in-memory corruption path is what
several of the paper's bug manifestations depend on, so it cannot be
replaced by Python-side bookkeeping.

Header words are read and written with one ``struct`` call straight on
the segment's buffer.  Anything the fast path does not cover (a word
outside ``[base, brk)`` or not 8-byte aligned) goes through
:meth:`Memory.read_uint`/:meth:`Memory.write_uint`, so faults and
dirty-page accounting are exactly the generic ones.
"""

from __future__ import annotations

import struct

from repro.errors import HeapCorruptionFault
from repro.heap.base import MEM_CODECS, PAGE_SHIFT, Memory

HEADER_SIZE = 16
ALIGN = 16
MIN_CHUNK = 32  # header + minimal 16-byte payload

FLAG_IN_USE = 0x1
#: Low bits of ``size_flags`` that hold flags, not size.
FLAG_MASK = 0xF

_unpack_u64, _pack_u64, _U64_MASK = MEM_CODECS[8]
_pack_header = struct.Struct("<QQ").pack_into


def round_chunk_size(payload: int) -> int:
    """Chunk size needed for ``payload`` user bytes."""
    need = max(payload, 1) + HEADER_SIZE
    size = (need + ALIGN - 1) // ALIGN * ALIGN
    return max(size, MIN_CHUNK)


def _header_word(offset: int, doc: str) -> property:
    """The u64 header field at ``chunk addr + offset``, read and written
    with one ``struct`` call on the segment buffer.  The fast path
    inlines Memory's bounds check; the rest (a word outside the segment,
    or an unaligned one from a wild pointer) takes the generic path."""

    def get(self) -> int:
        mem = self.mem
        buf = mem._buf
        off = self.addr + offset - mem.base
        if 0 <= off <= len(buf) - 8:
            return _unpack_u64(buf, off)[0]
        return mem.read_uint(self.addr + offset, 8)

    def set(self, value: int) -> None:
        mem = self.mem
        buf = mem._buf
        off = self.addr + offset - mem.base
        if 0 <= off <= len(buf) - 8 and not off & 7:
            _pack_u64(buf, off, value & _U64_MASK)
            # An aligned word never crosses a page boundary.
            mem._dirty_pages.add(off >> PAGE_SHIFT)
        else:
            mem.write_uint(self.addr + offset, 8, value)

    return property(get, set, doc=doc)


class ChunkView:
    """Read/write access to one chunk header in memory.

    A lightweight cursor, not an owner: it validates on demand and
    raises :class:`HeapCorruptionFault` when the header is insane, which
    is the simulated analogue of glibc's abort-on-corruption.
    """

    __slots__ = ("mem", "addr")

    def __init__(self, mem: Memory, addr: int):
        self.mem = mem
        self.addr = addr

    # -- raw fields ----------------------------------------------------

    size_flags = _header_word(0, "Chunk size incl. header | flag bits.")
    prev_size = _header_word(8, "Size of the physically previous chunk.")

    # -- derived -------------------------------------------------------

    @property
    def size(self) -> int:
        return self.size_flags & ~FLAG_MASK

    @property
    def in_use(self) -> bool:
        return bool(self.size_flags & FLAG_IN_USE)

    @property
    def user_addr(self) -> int:
        return self.addr + HEADER_SIZE

    @property
    def user_size(self) -> int:
        return self.size - HEADER_SIZE

    @property
    def next_addr(self) -> int:
        return self.addr + self.size

    def set(self, size: int, in_use: bool, prev_size: int) -> None:
        self.write(size | (FLAG_IN_USE if in_use else 0), prev_size)

    def write(self, size_flags: int, prev_size: int) -> None:
        """Both header words with one ``struct`` call: the same bytes
        and dirty page as setting ``size_flags`` then ``prev_size``.
        A 16-aligned header inside the segment never crosses a page;
        anything else takes the per-word path."""
        mem = self.mem
        buf = mem._buf
        off = self.addr - mem.base
        if 0 <= off <= len(buf) - HEADER_SIZE and not off & 15:
            _pack_header(buf, off, size_flags & _U64_MASK,
                         prev_size & _U64_MASK)
            mem._dirty_pages.add(off >> PAGE_SHIFT)
        else:
            self.size_flags = size_flags
            self.prev_size = prev_size

    def mark_in_use(self) -> int:
        """Set the in-use bit; returns the chunk size."""
        size_flags = self.size_flags | FLAG_IN_USE
        self.size_flags = size_flags
        return size_flags & ~FLAG_MASK

    def validate(self, heap_base: int, heap_top: int) -> int:
        """Sanity-check the header, faulting on corruption; returns the
        ``size_flags`` word it checked, so the caller need not read it
        again.

        Called by the allocator before trusting a header it is about to
        operate on (free, coalesce, bin reuse)."""
        size_flags = self.size_flags
        size = size_flags & ~FLAG_MASK
        if size < MIN_CHUNK or size % ALIGN:
            raise HeapCorruptionFault(
                f"invalid chunk size {size} at 0x{self.addr:x}",
                address=self.addr)
        if self.addr < heap_base or self.addr + size > heap_top:
            raise HeapCorruptionFault(
                f"chunk at 0x{self.addr:x} size {size} escapes heap",
                address=self.addr)
        return size_flags

    def __repr__(self) -> str:
        return (f"Chunk(0x{self.addr:x}, size={self.size}, "
                f"in_use={self.in_use})")

"""A Lea-style (dlmalloc-like) allocator over simulated memory.

This is the "underlying memory allocator" the paper's extension relies
on (Section 3).  It reproduces the behaviours the diagnosis physics
depends on:

* boundary-tag headers stored in heap memory (overflows smash them);
* segregated exact-fit bins for small chunks plus a sorted large list,
  with LIFO reuse -- a freed chunk is handed back quickly, which is what
  makes dangling pointers dangerous;
* splitting and coalescing of free chunks;
* a wilderness ("top") area grown with ``sbrk``; fresh pages are zeroed
  by the OS but *reused chunks are never cleared*, so uninitialized
  reads see stale garbage;
* free() validates headers minimally and aborts (raises
  :class:`HeapCorruptionFault`) on blatant corruption or double free,
  like a production glibc.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import HeapCorruptionFault, OutOfMemoryFault
from repro.heap.base import Memory
from repro.heap.chunk import (
    FLAG_IN_USE,
    FLAG_MASK,
    HEADER_SIZE,
    MIN_CHUNK,
    ChunkView,
    round_chunk_size,
)

#: Chunks up to this size (inclusive) live in exact-fit bins.
SMALL_MAX = 512


class LeaAllocator:
    """The simulated Lea allocator.

    All sizes below are *chunk* sizes (header included) unless the name
    says ``user``.
    """

    def __init__(self, mem: Memory):
        self.mem = mem
        # Exact-fit bins: chunk size -> LIFO list of chunk addresses.
        # Only non-empty bins have a key.
        self._small_bins: Dict[int, List[int]] = {}
        # Sorted keys of _small_bins: a miss finds the next larger
        # non-empty bin with one bisect.
        self._small_sizes: List[int] = []
        # Large free chunks as a sorted list of (size, addr).
        self._large: List[Tuple[int, int]] = []
        # Wilderness start.  Everything in [top, brk) is unused.
        self.top = mem.base
        # Size of the chunk physically preceding top (0 if none).
        self._top_prev_size = 0
        # Statistics.
        self.n_mallocs = 0
        self.n_frees = 0
        self.live_user_bytes = 0
        self.peak_heap_bytes = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def malloc(self, user_size: int) -> int:
        """Allocate ``user_size`` bytes; returns the user address.

        Raises :class:`OutOfMemoryFault` when the segment limit is hit.
        Contents of reused chunks are left as-is (stale garbage).
        """
        if user_size < 0:
            raise HeapCorruptionFault(f"malloc of negative size {user_size}")
        need = round_chunk_size(user_size)
        addr = self._take_from_bins(need)
        if addr is None:
            addr = self._take_from_top(need)
        size = ChunkView(self.mem, addr).mark_in_use()
        self.n_mallocs += 1
        self.live_user_bytes += size - HEADER_SIZE
        self.peak_heap_bytes = max(self.peak_heap_bytes, self.heap_used)
        return addr + HEADER_SIZE

    def free(self, user_addr: int) -> None:
        """Return a chunk to the free structures.

        A free of an already-free chunk or of a pointer with a smashed
        header raises :class:`HeapCorruptionFault` -- the simulated
        process crashes, as glibc would abort.  (First-Aid's extension
        intercepts frees *before* this point when a delay-free patch or
        the double-free parameter check is active.)
        """
        if (user_addr - HEADER_SIZE < self.mem.base
                or user_addr >= self.top):
            raise HeapCorruptionFault(
                f"free of wild pointer 0x{user_addr:x}",
                address=user_addr)
        chunk = ChunkView(self.mem, user_addr - HEADER_SIZE)
        size_flags = chunk.validate(self.mem.base, self.top)
        if not size_flags & FLAG_IN_USE:
            raise HeapCorruptionFault(
                f"double free or corruption at 0x{user_addr:x}",
                address=user_addr)
        size = size_flags & ~FLAG_MASK
        self.n_frees += 1
        self.live_user_bytes -= size - HEADER_SIZE
        chunk.size_flags = size_flags & ~FLAG_IN_USE
        self._coalesce_and_store(chunk.addr, size)

    def usable_size(self, user_addr: int) -> int:
        return ChunkView(self.mem, user_addr - HEADER_SIZE).user_size

    # ------------------------------------------------------------------
    # introspection (used by heap marking, extension, benchmarks)
    # ------------------------------------------------------------------

    @property
    def heap_used(self) -> int:
        """Bytes between the heap base and the wilderness start."""
        return self.top - self.mem.base

    def iter_free_chunks(self) -> Iterator[ChunkView]:
        """All binned free chunks (not the wilderness)."""
        for size in self._small_sizes:
            for addr in self._small_bins[size]:
                yield ChunkView(self.mem, addr)
        for _size, addr in self._large:
            yield ChunkView(self.mem, addr)

    def free_bytes(self) -> int:
        return sum(c.size for c in self.iter_free_chunks())

    def stats(self) -> Dict[str, int]:
        """Point-in-time allocator statistics, as one mapping (consumed
        by the telemetry heap instruments and the bench harness)."""
        return {
            "mallocs": self.n_mallocs,
            "frees": self.n_frees,
            "live_user_bytes": self.live_user_bytes,
            "heap_used": self.heap_used,
            "peak_heap_bytes": self.peak_heap_bytes,
        }

    # ------------------------------------------------------------------
    # bin management
    # ------------------------------------------------------------------

    def _bin_insert(self, addr: int, size: int) -> None:
        """Bin the free chunk at ``addr`` whose header says ``size``."""
        if size <= SMALL_MAX:
            lst = self._small_bins.get(size)
            if lst is None:
                self._small_bins[size] = [addr]
                bisect.insort(self._small_sizes, size)
            else:
                lst.append(addr)
        else:
            bisect.insort(self._large, (size, addr))

    def _drop_bin(self, size: int) -> None:
        """Forget the small bin ``size`` once its last chunk is gone."""
        del self._small_bins[size]
        sizes = self._small_sizes
        del sizes[bisect.bisect_left(sizes, size)]

    def _bin_remove(self, addr: int, size: int) -> bool:
        """Remove a specific free chunk from the bins; False if absent."""
        if size <= SMALL_MAX:
            lst = self._small_bins.get(size)
            if lst and addr in lst:
                lst.remove(addr)
                if not lst:
                    self._drop_bin(size)
                return True
            return False
        try:
            self._large.remove((size, addr))
            return True
        except ValueError:
            return False

    def _pop_exact(self, size: int) -> int:
        """Take one chunk from the non-empty small bin ``size``."""
        lst = self._small_bins[size]
        addr = lst.pop()
        if not lst:
            self._drop_bin(size)
        return addr

    # ------------------------------------------------------------------
    # allocation paths
    # ------------------------------------------------------------------

    def _take_from_bins(self, need: int) -> Optional[int]:
        # Smallest non-empty small bin >= need: an exact hit, or a
        # larger chunk with the remainder split off.
        if need <= SMALL_MAX:
            sizes = self._small_sizes
            i = bisect.bisect_left(sizes, need)
            if i < len(sizes):
                size = sizes[i]
                addr = self._pop_exact(size)
                self._validate_reused(addr, size)
                if size != need:
                    self._split(addr, size, need)
                return addr
        # Best-fit search of the large list.
        i = bisect.bisect_left(self._large, (need, 0))
        if i < len(self._large):
            size, addr = self._large.pop(i)
            self._validate_reused(addr, size)
            self._split(addr, size, need)
            return addr
        return None

    def _validate_reused(self, addr: int, expect_size: int) -> None:
        """Check a binned chunk's in-memory header before reuse.

        If an overflow smashed the header while the chunk sat in a bin,
        this is where the process crashes -- the classic delayed
        manifestation of heap corruption.
        """
        size_flags = ChunkView(self.mem, addr).validate(self.mem.base,
                                                        self.top)
        size = size_flags & ~FLAG_MASK
        if size_flags & FLAG_IN_USE or size != expect_size:
            raise HeapCorruptionFault(
                f"free-list chunk at 0x{addr:x} has corrupted header "
                f"(size={size}, expected {expect_size})",
                address=addr)

    def _split(self, addr: int, size: int, need: int) -> None:
        """Split chunk [addr, addr+size) keeping ``need`` bytes in front."""
        remainder = size - need
        if remainder < MIN_CHUNK:
            return  # keep the whole chunk; slack stays internal
        chunk = ChunkView(self.mem, addr)
        chunk.set(need, in_use=False, prev_size=chunk.prev_size)
        rest = addr + need
        ChunkView(self.mem, rest).set(remainder, in_use=False,
                                      prev_size=need)
        self._fix_next_prev_size(rest, remainder)
        self._bin_insert(rest, remainder)

    def _take_from_top(self, need: int) -> int:
        new_top = self.top + need
        while new_top > self.mem.brk:
            if self.mem.sbrk(new_top - self.mem.brk) < 0:
                raise OutOfMemoryFault(
                    f"heap limit reached allocating {need} bytes")
        addr = self.top
        chunk = ChunkView(self.mem, addr)
        chunk.set(need, in_use=False, prev_size=self._top_prev_size)
        self.top = new_top
        self._top_prev_size = need
        return addr

    # ------------------------------------------------------------------
    # free path
    # ------------------------------------------------------------------

    def _coalesce_and_store(self, addr: int, size: int) -> None:
        """Coalesce the just-freed chunk ``[addr, addr+size)`` with its
        free neighbours and bin the result (or merge it into top)."""
        mem = self.mem
        prev_size = ChunkView(mem, addr).prev_size

        # Backward coalesce.
        if prev_size and addr - prev_size >= mem.base:
            prev = ChunkView(mem, addr - prev_size)
            prev_flags = prev.size_flags
            if (not prev_flags & FLAG_IN_USE
                    and prev_flags & ~FLAG_MASK == prev_size
                    and self._bin_remove(prev.addr, prev_size)):
                addr = prev.addr
                size += prev_size
                prev_size = prev.prev_size

        # Forward coalesce / merge into top.
        next_addr = addr + size
        if next_addr == self.top:
            self.top = addr
            self._top_prev_size = prev_size
            return
        if next_addr < self.top:
            next_flags = ChunkView(mem, next_addr).size_flags
            next_size = next_flags & ~FLAG_MASK
            if (not next_flags & FLAG_IN_USE and next_size >= MIN_CHUNK
                    and self._bin_remove(next_addr, next_size)):
                size += next_size

        ChunkView(mem, addr).set(size, in_use=False, prev_size=prev_size)
        self._fix_next_prev_size(addr, size)
        self._bin_insert(addr, size)

    def _fix_next_prev_size(self, addr: int, size: int) -> None:
        """Record ``size`` as the prev_size of the chunk after the
        chunk at ``addr``."""
        next_addr = addr + size
        if next_addr < self.top:
            ChunkView(self.mem, next_addr).prev_size = size

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        return (
            {k: list(v) for k, v in self._small_bins.items()},
            list(self._large),
            self.top,
            self._top_prev_size,
            self.n_mallocs,
            self.n_frees,
            self.live_user_bytes,
            self.peak_heap_bytes,
        )

    def restore(self, snap: tuple) -> None:
        (bins, large, top, tps, nm, nf, live, peak) = snap
        self._small_bins = {k: list(v) for k, v in bins.items() if v}
        self._small_sizes = sorted(self._small_bins)
        self._large = list(large)
        self.top = top
        self._top_prev_size = tps
        self.n_mallocs = nm
        self.n_frees = nf
        self.live_user_bytes = live
        self.peak_heap_bytes = peak

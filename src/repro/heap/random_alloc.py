"""Randomized allocation for patch validation.

Section 5 of the paper: to distinguish a patch's desired effect from a
lucky side-effect of heap layout, the validation engine re-executes the
buggy region "with a randomized allocation algorithm" and requires the
patch's effect to be *consistent* while object addresses vary.

:class:`RandomizedLeaAllocator` perturbs placement in two seed-dependent
ways without changing the allocator contract:

* exact-fit bin hits pick a random entry instead of the LIFO head;
* carving from the wilderness occasionally inserts a small free "gap"
  chunk first, shifting subsequent addresses.

Different seeds therefore yield different object addresses for the same
allocation sequence, while any given seed remains fully deterministic --
which re-execution requires.
"""

from __future__ import annotations

from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.chunk import ALIGN, MIN_CHUNK
from repro.util.rng import DeterministicRNG


class RandomizedLeaAllocator(LeaAllocator):
    """Lea allocator with seed-controlled placement randomization."""

    #: Probability of inserting a gap chunk before a wilderness carve.
    GAP_PROB = 0.5
    #: Gap chunk sizes are drawn from [MIN_CHUNK, MAX_GAP].
    MAX_GAP = 256

    def __init__(self, mem: Memory, seed: int):
        super().__init__(mem)
        self.rng = DeterministicRNG(seed)

    def _pop_exact(self, size: int) -> int:
        lst = self._small_bins[size]
        idx = self.rng.randint(0, len(lst) - 1)
        addr = lst.pop(idx)
        if not lst:
            self._drop_bin(size)
        return addr

    def _take_from_top(self, need: int, flags: int = 0) -> int:
        if self.rng.random() < self.GAP_PROB:
            gap = self.rng.randint(MIN_CHUNK // ALIGN,
                                   self.MAX_GAP // ALIGN) * ALIGN
            gap_addr = super()._take_from_top(gap)  # stays free
            self._bin_insert(gap_addr, gap)
        return super()._take_from_top(need, flags)

    def snapshot(self) -> tuple:
        return (super().snapshot(), self.rng.getstate())

    def restore(self, snap: tuple) -> None:
        base_snap, rng_state = snap
        super().restore(base_snap)
        self.rng.setstate(rng_state)

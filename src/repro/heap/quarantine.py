"""Delay-free quarantine.

Implements the paper's "delay free" preventive change (Table 1): instead
of returning a deallocated object to the allocator, hold it in a FIFO so
that

* dangling-pointer reads still see the object's last contents (or the
  canary, in diagnostic mode),
* dangling-pointer writes land in memory nobody else owns, and
* a second free of the same pointer is recognisable by parameter check.

The quarantine accumulates until its byte footprint reaches a
customizable threshold (1 MB in the paper's experiments); then the
oldest entries are really freed.  The paper notes that releasing very
old delay-freed objects is usually safe but may in theory undermine the
patch -- we reproduce that policy, including the accounting Table 5
measures.

Two planes now share this single quarantine: preventive-mode /
patch-governed delayed frees (origin ``"patch"``) and sampled guarded
frees (origin ``"sampled"``, GWP-ASan-style always-on detection).  One
FIFO, one byte budget, one eviction pass -- an object enters exactly
once under exactly one origin, so activating both modes can never
double-drain an entry or double-count an eviction.  ``evictions`` stays
the Table 5 total; ``evictions_by_origin`` splits it so the sampling
plane can report its own churn.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.util.callsite import CallSite

DEFAULT_THRESHOLD = 1024 * 1024  # 1 MB, as in the paper's experiments

#: Who put an object into the quarantine.
ORIGIN_PATCH = "patch"      # preventive mode / patch-governed delay free
ORIGIN_SAMPLED = "sampled"  # sampled guarded free (always-on detection)


@dataclass
class QuarantinedObject:
    """One delay-freed object."""

    user_addr: int
    user_size: int
    free_site: Optional[CallSite]
    seq: int              # global free sequence number, for FIFO age
    canary_filled: bool   # exposing variant fills contents with canary
    patch_id: Optional[int] = None  # patch that delayed this free, if any
    origin: str = ORIGIN_PATCH      # which plane delay-freed it


class DelayFreeQuarantine:
    """FIFO of delay-freed objects with a byte-footprint threshold."""

    def __init__(self, release: Callable[[int], None],
                 threshold_bytes: int = DEFAULT_THRESHOLD):
        """``release`` performs the real deallocation on eviction."""
        self._release = release
        self.threshold_bytes = threshold_bytes
        self._objects: "OrderedDict[int, QuarantinedObject]" = OrderedDict()
        self._bytes = 0
        self._seq = 0
        #: Optional telemetry hook, called with (current_bytes,
        #: object_count) after any occupancy change.
        self.observer: Optional[Callable[[int, int], None]] = None
        #: Running total of bytes ever quarantined (Table 5's
        #: "accumulated memory space occupied by delay-freed objects").
        self.accumulated_bytes = 0
        self.evictions = 0
        #: Per-origin split of ``evictions`` (keys: ORIGIN_PATCH,
        #: ORIGIN_SAMPLED).  Invariant: sum == evictions.
        self.evictions_by_origin: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def add(self, user_addr: int, user_size: int,
            free_site: Optional[CallSite], canary_filled: bool,
            patch_id: Optional[int] = None,
            origin: str = ORIGIN_PATCH) -> QuarantinedObject:
        if user_addr in self._objects:
            raise KeyError(f"0x{user_addr:x} already quarantined")
        self._seq += 1
        obj = QuarantinedObject(user_addr, user_size, free_site, self._seq,
                                canary_filled, patch_id, origin)
        self._objects[user_addr] = obj
        self._bytes += user_size
        self.accumulated_bytes += user_size
        self._evict_to_threshold()
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
        return obj

    def contains(self, user_addr: int) -> bool:
        return user_addr in self._objects

    def get(self, user_addr: int) -> Optional[QuarantinedObject]:
        return self._objects.get(user_addr)

    def find_containing(self, addr: int) -> Optional[QuarantinedObject]:
        """The quarantined object whose payload covers ``addr``, if any.

        Linear scan: the quarantine is small by construction (bounded by
        the threshold), and this is only called on classification paths.
        """
        for obj in self._objects.values():
            if obj.user_addr <= addr < obj.user_addr + obj.user_size:
                return obj
        return None

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[QuarantinedObject]:
        return iter(self._objects.values())

    # ------------------------------------------------------------------

    def _count_eviction(self, obj: QuarantinedObject) -> None:
        self.evictions += 1
        self.evictions_by_origin[obj.origin] = \
            self.evictions_by_origin.get(obj.origin, 0) + 1

    def _evict_to_threshold(self) -> None:
        while self._bytes > self.threshold_bytes and self._objects:
            _addr, obj = self._objects.popitem(last=False)  # oldest first
            self._bytes -= obj.user_size
            self._count_eviction(obj)
            self._release(obj.user_addr)

    def pop_oldest(self) -> Optional[QuarantinedObject]:
        """Really free the single oldest entry (memory-pressure
        relief); returns it, or None when empty."""
        if not self._objects:
            return None
        _addr, obj = self._objects.popitem(last=False)
        self._bytes -= obj.user_size
        self._count_eviction(obj)
        self._release(obj.user_addr)
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))
        return obj

    def drain(self) -> List[QuarantinedObject]:
        """Really free everything; returns the drained entries.  Each
        release is an eviction and counts as one -- Table 5's eviction
        accounting must not silently skip bulk drains.  Entries are
        drained from the single shared FIFO exactly once each, whatever
        mix of origins is present."""
        drained = list(self._objects.values())
        for obj in drained:
            self._count_eviction(obj)
            self._release(obj.user_addr)
        self._objects.clear()
        self._bytes = 0
        if self.observer is not None:
            self.observer(0, 0)
        return drained

    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        # Deep-copy at capture time: QuarantinedObject is mutable, so
        # aliasing the live entries would let post-snapshot mutations
        # (e.g. patch_id reassignment) bleed into old checkpoints.  The
        # plain constructor is the cheapest copy of a dataclass.
        return ([QuarantinedObject(o.user_addr, o.user_size, o.free_site,
                                   o.seq, o.canary_filled, o.patch_id,
                                   o.origin)
                 for o in self._objects.values()],
                self._bytes, self._seq,
                self.accumulated_bytes, self.evictions,
                dict(self.evictions_by_origin))

    def restore(self, snap: tuple) -> None:
        # Seed-era snapshots are 5-tuples without the per-origin split.
        if len(snap) == 5:
            objs, nbytes, seq, acc, ev = snap
            by_origin: Dict[str, int] = {}
        else:
            objs, nbytes, seq, acc, ev, by_origin = snap
        self._objects = OrderedDict(
            (o.user_addr, QuarantinedObject(o.user_addr, o.user_size,
                                            o.free_site, o.seq,
                                            o.canary_filled, o.patch_id,
                                            getattr(o, "origin",
                                                    ORIGIN_PATCH)))
            for o in objs)
        self._bytes = nbytes
        self._seq = seq
        self.accumulated_bytes = acc
        self.evictions = ev
        self.evictions_by_origin = dict(by_origin)
        if self.observer is not None:
            self.observer(self._bytes, len(self._objects))

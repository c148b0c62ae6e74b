"""Checkpoint objects: incremental (delta/keyframe) heap snapshots.

The paper's Flashback substrate copies only the pages a process dirtied
in each interval.  A :class:`Checkpoint` mirrors that: it stores the
*delta* -- copies of the pages dirtied since the previous checkpoint,
keyed by page index -- plus the full machine/allocator/extension state
(which is metadata-sized, not heap-sized).  Every ``keyframe_every``-th
checkpoint is a **keyframe** holding every mapped page, which bounds
the length of the chain a restore has to walk.

Two links tie checkpoints together:

* ``parent`` (strong) -- the *content* chain used to resolve page
  bytes: delta -> delta -> ... -> keyframe.  A keyframe has no parent.
* ``prev`` (weak) -- the *temporal* predecessor, crossing keyframe
  boundaries.  :func:`pages_between` walks these to compute which
  pages can possibly differ between two checkpoints, which is what
  makes in-place rollback O(pages changed) instead of O(heap).  The
  reference is weak so dropping old checkpoints actually frees their
  pages; if the link has died the manager falls back to a full restore.

``space_bytes`` is the number of *new* payload bytes this checkpoint
retained after the manager's page-cache deduplication -- real memory
cost, which is what Table 7 now reports (the seed estimated it as
``cow_pages * page_size``).
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Optional, Set

from repro.heap.base import PAGE_SIZE
from repro.process import ProcessSnapshot

_ZERO_PAGE = bytes(PAGE_SIZE)


class Checkpoint:
    """One in-memory checkpoint (delta or keyframe)."""

    __slots__ = ("index", "time_ns", "instr_count", "meta", "pages",
                 "mapped_bytes", "dirty", "parent", "_prev", "is_keyframe",
                 "cow_pages", "payload_bytes", "space_bytes", "__weakref__")

    def __init__(self, index: int, time_ns: int, meta: ProcessSnapshot,
                 pages: Dict[int, bytes], mapped_bytes: int,
                 dirty: FrozenSet[int],
                 parent: Optional["Checkpoint"] = None,
                 prev: Optional["Checkpoint"] = None,
                 is_keyframe: bool = False,
                 new_bytes: Optional[int] = None):
        self.index = index
        self.time_ns = time_ns
        self.instr_count = meta.instr_count
        #: Machine/allocator/extension snapshot with ``memory=None``.
        self.meta = meta
        #: Page payloads: the dirty pages for a delta, every mapped
        #: page for a keyframe.  Payloads may be shared across
        #: checkpoints via the manager's page cache.
        self.pages = pages
        self.mapped_bytes = mapped_bytes
        #: Pages dirtied since the temporal predecessor (== the delta
        #: key set for a delta checkpoint; a keyframe stores more
        #: pages than it dirtied).
        self.dirty = dirty
        self.parent = parent
        self._prev = weakref.ref(prev) if prev is not None else None
        self.is_keyframe = is_keyframe
        self.cow_pages = len(dirty)
        self.payload_bytes = sum(map(len, pages.values()))
        self.space_bytes = (new_bytes if new_bytes is not None
                            else self.payload_bytes)

    # ------------------------------------------------------------------
    # chain access
    # ------------------------------------------------------------------

    @property
    def prev(self) -> Optional["Checkpoint"]:
        """Temporal predecessor, or None if it was dropped."""
        return self._prev() if self._prev is not None else None

    @property
    def chain_length(self) -> int:
        """Content-chain links from here to the nearest keyframe."""
        length, node = 0, self
        while not node.is_keyframe and node.parent is not None:
            length += 1
            node = node.parent
        return length

    def resolve_page(self, idx: int) -> bytes:
        """The contents of page ``idx`` at this checkpoint: the newest
        delta in the content chain that captured it wins; pages grown
        after the keyframe and never written are zero."""
        node: Optional[Checkpoint] = self
        while node is not None:
            payload = node.pages.get(idx)
            if payload is not None:
                return payload
            if node.is_keyframe:
                break
            node = node.parent
        return _ZERO_PAGE

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def materialize(self) -> ProcessSnapshot:
        """Reconstruct the full-state :class:`ProcessSnapshot` this
        checkpoint denotes by overlaying the delta chain onto its
        keyframe.  Costs O(heap) -- use the manager's in-place rollback
        for the common path; this exists for replay tasks (probes on
        workers, validation) that restore into a fresh process."""
        buf = bytearray(self.mapped_bytes)
        needed: Set[int] = set(range(self.mapped_bytes // PAGE_SIZE))
        node: Optional[Checkpoint] = self
        while node is not None and needed:
            hit = needed.intersection(node.pages)
            for idx in hit:
                off = idx * PAGE_SIZE
                payload = node.pages[idx]
                buf[off:off + len(payload)] = payload
            needed -= hit
            if node.is_keyframe:
                break
            node = node.parent
        # pages never captured anywhere were grown after the keyframe
        # and never written -> already zero in ``buf``.
        meta = self.meta
        return ProcessSnapshot(
            machine=meta.machine,
            memory=(bytes(buf), self.dirty),
            allocator=meta.allocator,
            extension=meta.extension,
            randomized=meta.randomized)

    @property
    def state(self) -> ProcessSnapshot:
        """Full-state snapshot (materialized on demand)."""
        return self.materialize()

    def __repr__(self) -> str:
        kind = "keyframe" if self.is_keyframe else "delta"
        return (f"Checkpoint(#{self.index}, {kind}, "
                f"instr={self.instr_count}, "
                f"t={self.time_ns / 1e9:.3f}s, cow_pages={self.cow_pages})")


def pages_between(a: Checkpoint, b: Checkpoint) -> Optional[Set[int]]:
    """The set of pages that can differ between checkpoints ``a`` and
    ``b``, or None when their temporal chains share no live common
    ancestor (caller must fall back to a full restore).

    Walks the weak ``prev`` links to the nearest common ancestor and
    unions the per-interval dirty sets on both sides -- every page not
    in that union is bit-identical in both states, so an in-place
    rollback can leave it untouched.
    """
    ancestors = {}
    node: Optional[Checkpoint] = b
    while node is not None:
        ancestors[id(node)] = node
        node = node.prev
    pages: Set[int] = set()
    node = a
    while node is not None and id(node) not in ancestors:
        pages |= node.dirty
        node = node.prev
    if node is None:
        return None
    common = node
    node = b
    while node is not None and node is not common:
        pages |= node.dirty
        node = node.prev
    if node is None:  # pragma: no cover - common came from b's chain
        return None
    return pages

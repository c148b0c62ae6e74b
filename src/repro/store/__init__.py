"""Crash-safe shared patch store (DESIGN.md §9).

Promotes patch persistence from a per-process JSON dump to a
first-class multi-process subsystem: atomic, file-locked, versioned,
merge-on-write, with retraction tombstones, a generation counter for
cheap refresh, and fault injection for its failure modes.
"""

from repro.store.base import SharedStateChannel
from repro.store.faults import StoreFaultPlan, TornWriteCrash
from repro.store.locking import FileLock
from repro.store.store import SharedPatchStore, StoreState

__all__ = [
    "StoreFaultPlan",
    "TornWriteCrash",
    "FileLock",
    "SharedPatchStore",
    "SharedStateChannel",
    "StoreState",
]

"""Fault injection for the shared patch store.

The store's crash-safety claims (ISSUE: "100 injected store faults lose
zero validated patches") are only claims until something actually tears
writes, abandons locks, and scribbles on payloads.  A
:class:`StoreFaultPlan` is an explicitly *armed* queue of faults the
store consults at its vulnerable points; with nothing armed every check
is a dict lookup that returns False, so production stores pay nothing.

Fault kinds
-----------

``torn_write``
    The next commit behaves like a non-atomic writer dying mid-write:
    a truncated payload lands directly at the store path (bypassing the
    temp-file + rename protocol), the file lock is abandoned (the
    "process" died holding it), and :class:`TornWriteCrash` propagates
    to the caller to simulate the publisher's death.

``stale_lock``
    Before the next lock acquisition, a lock file owned by a dead pid
    with an ancient mtime is planted, as if a previous holder was
    SIGKILLed.

``corrupt``
    Before the next read, the store payload is overwritten with
    garbage bytes (bit rot, a hostile writer, a partial disk).
"""

from __future__ import annotations

import json
import os

from repro.chaos.plan import FaultPlan

KINDS = ("torn_write", "stale_lock", "corrupt")


class TornWriteCrash(Exception):
    """Raised by an injected torn write to simulate the publishing
    process dying mid-commit.  Deliberately *not* a StoreError: real
    code never raises it, and tests/benchmarks catch it explicitly."""


class StoreFaultPlan(FaultPlan):
    """The store's armed-fault queue: the arm/take/fired protocol comes
    from the shared :class:`repro.chaos.plan.FaultPlan` base; the
    store-specific effects live below."""

    KINDS = KINDS

    # ------------------------------------------------------------------
    # fault effects (invoked by the store when a take() succeeds)
    # ------------------------------------------------------------------

    @staticmethod
    def tear_file(path: str, payload: bytes) -> None:
        """Write a torn (truncated, mid-token) payload at ``path``
        directly, the way a crashed non-atomic writer would."""
        cut = max(1, len(payload) // 3)
        with open(path, "wb") as handle:
            handle.write(payload[:cut])

    @staticmethod
    def plant_stale_lock(lock_path: str, age_s: float = 3600.0) -> None:
        """Create a lock file that looks abandoned: dead owner pid,
        mtime pushed ``age_s`` seconds into the past."""
        # Pid 2**22-ish is above every default pid_max; if the host has
        # it alive anyway, the ancient mtime still marks the lock stale.
        payload = {"pid": 4_000_000, "acquired_unix": 0.0}
        with open(lock_path, "w") as handle:
            json.dump(payload, handle)
        old = os.stat(lock_path).st_mtime - age_s
        os.utime(lock_path, (old, old))

    @staticmethod
    def corrupt_file(path: str) -> None:
        """Overwrite ``path`` with bytes that are definitely not the
        store's JSON."""
        with open(path, "wb") as handle:
            handle.write(b'{"format": "first-aid-patch-store", \x00\xff garbage')

"""Generic crash-safe shared-file channel machinery.

The patch store (DESIGN.md §9) grew a careful protocol for sharing one
JSON file between mutually distrusting processes: sidecar file locking
with stale-lock breaking, read-modify-write merges under the lock, a
generation counter for cheap freshness probes, atomic
tmp+fsync+replace commits mirrored to a ``.bak``, and a
primary→backup→empty load ladder that quarantines corruption instead
of raising.  The fleet health plane (DESIGN.md §12) needs the exact
same machinery for a different payload, so the machinery lives here
and each channel supplies only its state type and merge semantics:

* :meth:`SharedStateChannel._empty_state` -- the state when nothing
  was ever committed.
* :meth:`SharedStateChannel._parse` -- payload dict to state; must
  raise ``ValueError`` (or KeyError/TypeError) on anything malformed,
  which the reader turns into quarantine, never a crash.

State objects must expose ``program`` (str), ``generation`` (int,
mutable), and ``to_json()``.  Fault injection rides along: the shared
kinds ``torn_write`` / ``stale_lock`` / ``corrupt``
(:mod:`repro.store.faults`) are consulted at the same points for every
channel, so the chaos harness exercises the health plane with the
identical vocabulary that hardened the patch store.

Two freshness contracts matter fleet-wide:

* **No-op mutations do not commit.**  :meth:`SharedStateChannel._mutate`
  serializes the state before and after the mutator runs; when the
  merged state is byte-identical (e.g. a session-exit sync
  republishing trigger counts the store already holds) the commit --
  and the generation bump -- is skipped entirely, so idle peers'
  checkpoint-boundary refreshes see an unchanged generation and do no
  work.  The only exception: a state loaded from the ``.bak`` fallback
  always commits, because the commit is what repairs the primary.
* **``generation()`` is genuinely cheap.**  The probe caches the last
  loaded generation against the primary file's ``(st_mtime_ns,
  st_size)`` signature; an unchanged file costs one ``stat`` and zero
  JSON parsing.  Any commit (ours via the cache invalidation in
  :meth:`_commit`, a peer's via the atomic-replace changing the
  signature) forces the next probe to re-load.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from repro.store.faults import StoreFaultPlan, TornWriteCrash
from repro.store.locking import DEFAULT_STALE_AFTER, FileLock


class SharedStateChannel:
    """One crash-safe shared JSON file: lock, merge, commit, recover.

    ``program_name`` of None disables the ownership check (a read-only
    consumer, e.g. the fleet CLI, that renders whatever program the
    file belongs to)."""

    def __init__(self, path: str, program_name: Optional[str],
                 lock_timeout: float = 5.0,
                 stale_lock_after: float = DEFAULT_STALE_AFTER,
                 faults: Optional[StoreFaultPlan] = None):
        self.path = path
        self.backup_path = path + ".bak"
        self.program_name = program_name
        self.faults = faults or StoreFaultPlan()
        self.lock = FileLock(path + ".lock", timeout=lock_timeout,
                             stale_after=stale_lock_after)
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        #: Diagnostics for tests, benchmarks, and telemetry.
        self.commits = 0
        self.quarantined = 0
        self.recovered_from_backup = 0
        self.noop_mutations = 0
        self.mismatches = 0
        #: Optional EventLog; ownership mismatches surface here as
        #: ``store.error`` events (the runtime attaches its log).
        self.events = None
        #: generation() cache: primary-file (st_mtime_ns, st_size)
        #: signature -> generation, invalidated by our own commits and
        #: by any peer commit (atomic replace changes the signature).
        self._gen_sig = None
        self._gen_value = 0
        #: Which source the last load() resolved from:
        #: "primary" | "backup" | "empty".
        self._loaded_from = "empty"

    # ------------------------------------------------------------------
    # channel-specific hooks
    # ------------------------------------------------------------------

    def _empty_state(self):
        raise NotImplementedError

    def _parse(self, payload: dict):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _quarantine(self, path: str) -> None:
        """Move an unreadable file aside (never delete: the bytes are
        evidence) and count it.  The slot search is unbounded --
        capping it would silently overwrite the last slot once
        enough corruption accumulated, destroying exactly the
        evidence quarantine exists to keep."""
        n = 0
        while True:
            target = f"{path}.quarantined.{n}"
            if not os.path.exists(target):
                break
            n += 1
        try:
            os.replace(path, target)
            self.quarantined += 1
        except FileNotFoundError:
            pass  # a concurrent reader already quarantined it

    def _read_candidate(self, path: str):
        """Parse one file; None when missing, quarantined when
        corrupt."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None
        try:
            state = self._parse(json.loads(raw.decode("utf-8")))
        except (ValueError, KeyError, TypeError, UnicodeDecodeError):
            self._quarantine(path)
            return None
        if self.program_name is not None \
                and state.program != self.program_name:
            # Ownership mismatch is a corruption flavor, not a crash:
            # the load() contract says corruption is quarantined, never
            # raised, and the recovery path upstream depends on it.
            # The bytes are preserved as evidence and the mismatch is
            # surfaced as a store.error event for the operator.
            self.mismatches += 1
            if self.events is not None:
                self.events.emit(
                    0, "store.error", op="ownership", path=path,
                    error=(f"shared file belongs to {state.program!r},"
                           f" not {self.program_name!r}; quarantined"))
            self._quarantine(path)
            return None
        return state

    def load(self):
        """The current state: primary, else backup, else empty.
        Lock-free (commits are atomic renames, so reads are always
        consistent); corruption -- including a program-ownership
        mismatch -- is quarantined, never raised."""
        if self.faults.take("corrupt"):
            StoreFaultPlan.corrupt_file(self.path)
        state = self._read_candidate(self.path)
        if state is not None:
            self._loaded_from = "primary"
            return state
        state = self._read_candidate(self.backup_path)
        if state is not None:
            self.recovered_from_backup += 1
            self._loaded_from = "backup"
            return state
        self._loaded_from = "empty"
        return self._empty_state()

    def generation(self) -> int:
        """Cheap freshness probe for periodic refresh: one ``stat``
        when the primary file is unchanged since the last probe, a
        full load only when the ``(st_mtime_ns, st_size)`` signature
        moved (or the primary is missing, so backup recovery and
        armed faults stay observable)."""
        try:
            st = os.stat(self.path)
            sig = (st.st_mtime_ns, st.st_size)
        except OSError:
            sig = None
        if sig is not None and sig == self._gen_sig:
            return self._gen_value
        gen = self.load().generation
        # A replace racing between the stat and the load self-heals:
        # the next probe re-stats, sees a newer signature, re-loads.
        if sig is not None and self._loaded_from == "primary":
            self._gen_sig = sig
            self._gen_value = gen
        else:
            self._gen_sig = None
        return gen

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def _write_atomic(self, path: str, payload: bytes) -> None:
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _commit(self, state) -> None:
        payload = json.dumps(state.to_json(), indent=2,
                             sort_keys=True).encode("utf-8")
        if self.faults.take("torn_write"):
            # Simulate a non-atomic writer dying mid-commit: torn bytes
            # at the primary path, the lock abandoned, the caller dead.
            StoreFaultPlan.tear_file(self.path, payload)
            self.lock._abandon = True
            raise TornWriteCrash(f"injected torn write on {self.path}")
        self._write_atomic(self.path, payload)
        # Mirror to the backup only after the primary commit succeeded;
        # the backup therefore lags by at most one committed state.
        self._write_atomic(self.backup_path, payload)
        self.commits += 1
        self._gen_sig = None

    def _locked(self) -> FileLock:
        if self.faults.take("stale_lock"):
            StoreFaultPlan.plant_stale_lock(self.lock.path)
        return self.lock

    def _mutate(self, mutator):
        """Read-modify-write under the lock; returns the (possibly
        already-committed) state.  When the mutator leaves the state
        byte-identical, the commit and the generation bump are skipped:
        no-op syncs must not churn every peer's refresh.  A state that
        was recovered from the backup commits unconditionally -- the
        commit is what repairs the missing/quarantined primary."""
        with self._locked():
            state = self.load()
            recovered = self._loaded_from == "backup"
            before = None
            if not recovered:
                before = json.dumps(state.to_json(), sort_keys=True)
            state = mutator(state)
            if before is not None \
                    and json.dumps(state.to_json(),
                                   sort_keys=True) == before:
                self.noop_mutations += 1
                return state
            state.generation += 1
            self._commit(state)
        return state

"""FleetMember: one store-backed process's share of its fleet.

The paper persists each runtime patch "for other processes/runs of the
same program".  One object owns the planes that do it, because they
depend on each other: the shared patch store and its boundary refresh
(DESIGN.md §9), the health channel beside it (§12), and staged rollout
(§14).  Store, health and rollout failures degrade to ``store.error``,
``health.error`` and ``rollout.error`` events: fleet bookkeeping never
takes down the session.  All rollout bookkeeping is sim-time.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, Set

from repro.errors import StoreError
from repro.obs.health import (
    LATENCY_BOUNDS,
    RECOVERY_BOUNDS,
    HealthBeacon,
    HealthChannel,
    health_path,
    publish_beacon,
)
from repro.obs.metrics import Histogram
from repro.rollout import STAGED, PromotionController, is_canary
from repro.store import SharedPatchStore


class FleetMember:
    """The fleet wiring of one store-backed runtime.  It reads the
    runtime's live pool, policy, process and recoveries at each call,
    so a rung-4 respawn (which swaps the process) needs no re-wiring."""

    def __init__(self, runtime, program_name: str):
        config = runtime.config
        self.runtime = runtime
        self.events = runtime.events
        self.refresh_every = config.store_refresh_boundaries
        self.label = (config.process_label
                      or f"{program_name}#{os.getpid()}")
        self.rollout = config.rollout    # None: everyone adopts all
        self.canary = (self.rollout is not None
                       and is_canary(self.label,
                                     self.rollout.canary_fraction))
        self.adopted_ns: Dict[str, int] = {}   # key -> sim adoption time
        self.post_adopt_failures: Dict[str, int] = Counter()
        self.rolled_back: Set[str] = set()     # never re-adopt
        self.retractions = 0
        self.generation = -1
        self.boundaries = 0
        self.beacon_seq = 0
        self.store = SharedPatchStore(config.store_path, program_name)
        self.store.events = self.events
        self.health = HealthChannel(
            health_path(config.store_path), program_name,
            faults=config.health_faults)
        self.health.events = self.events
        self.controller = None
        if self.rollout is not None and config.rollout_controller:
            self.controller = PromotionController(
                self.store, self.health, self.rollout,
                events=self.events)
        self.sync(initial=True)

    def _now(self) -> int:
        return self.runtime.process.clock.now_ns

    def _store_call(self, op: str, call: Callable):
        """``call()``, or None after a ``store.error`` event: a broken
        shared file must not take down this process."""
        try:
            return call()
        except StoreError as exc:
            self.events.emit(0, "store.error", op=op, error=str(exc))
            return None

    def sync(self, initial: bool = False) -> None:
        """Absorb the store into the local pool (dropping retracted
        patches) and refresh the policy when anything changed.

        With rollout on, adoption is stage-filtered (non-canaries take
        only fleet-wide records) and keys this session saw rolled back
        are permanently refused -- a supervisor restart mid-session
        must not smuggle a condemned patch back in."""
        rt = self.runtime
        rollout = self.rollout is not None
        synced = self._store_call("sync", lambda: self.store.sync_into(
            rt.pool, canary=self.canary if rollout else None,
            blocked=self.rolled_back if rollout else None))
        if synced is None:
            return
        changed, state = synced
        self.generation = state.generation
        if rollout:
            now = 0 if initial else self._now()
            newly = sorted(k for k in state.rolled_back
                           if k not in self.rolled_back)
            for key in newly:
                self.rolled_back.add(key)
                if rt.pool.remove_key(key) is not None:
                    changed = True
            if newly:
                self.events.emit(now, "rollout.blocked", keys=newly)
            for patch in rt.pool.patches():
                self.adopted_ns.setdefault(patch.key, now)
        if changed and not initial:
            rt.policy.refresh()
            self.events.emit(self._now(), "store.refresh",
                             generation=state.generation,
                             patches=len(rt.pool))

    def on_boundary(self) -> None:
        """Checkpoint-boundary hook: every ``refresh_every``-th
        boundary, poll the store generation, merge if a peer published
        or retracted, publish a beacon and tick the controller."""
        self.boundaries += 1
        if self.boundaries < self.refresh_every:
            return
        self.boundaries = 0
        generation = self._store_call("poll", self.store.generation)
        if generation is None:
            return
        if generation != self.generation:
            self.sync()
        self.publish_health("running")
        self._tick_controller()

    def publish(self, patches, restage: bool = False) -> None:
        """Publish ``patches``; under rollout they enter at STAGED
        (``restage``: a fresh diagnosis outranks a rollback record)."""
        if not patches:
            return
        staging = ({"stage": STAGED, "restage": restage}
                   if self.rollout is not None else {})
        state = self._store_call("publish", lambda: self.store.publish(
            patches, **staging))
        if state is None:
            return
        self.generation = state.generation
        self.events.emit(self._now(), "store.published",
                         keys=[p.key for p in patches],
                         generation=state.generation)

    def patches_created(self, patches) -> None:
        """A recovery just minted ``patches``.  Under rollout they
        count as adopted from now on (post-adopt attribution), and a
        fresh diagnosis of a rolled-back key is the one legitimate
        restage path.  Publish on creation: peers start preventing
        this bug while this process is still validating."""
        if self.rollout is not None:
            now = self._now()
            for patch in patches:
                self.adopted_ns.setdefault(patch.key, now)
                if patch.key in self.rolled_back:
                    self.events.emit(now, "rollout.restaged",
                                     key=patch.key)
        self.publish(patches, restage=True)

    def retract(self, patches) -> None:
        """Validation proved ``patches`` inconsistent: retract them
        fleet-wide, so peers drop them on their next refresh."""
        self.retractions += 1
        if not patches:
            return
        state = self._store_call("retract",
                                 lambda: self.store.retract(patches))
        if state is not None:
            self.events.emit(0, "store.retracted",
                             keys=[p.key for p in patches],
                             generation=state.generation)

    def respawned(self) -> None:
        """After a rung-4 restart: the fresh process must reflect the
        fleet's *current* stage view before serving again, so a patch
        rolled back while this process was crashing cannot ride into
        the restart through the stale local pool."""
        if self.rollout is not None:
            self.sync()

    def session_exit(self, reason: str) -> None:
        """Final sync (honoring a peer's retraction), then push this
        process's trigger counts (merge keeps the max); the exit beacon
        goes out even with an empty pool, and the controller decides
        once more with it on the channel."""
        pool = self.runtime.pool
        if len(pool):
            self.sync()
            self.publish(pool.patches())
        self.publish_health(reason)
        self._tick_controller()

    def close(self) -> None:
        """Release both file locks (idempotent; only held if a fault
        interrupted an operation mid-commit)."""
        self.store.lock.release()
        self.health.lock.release()

    def note_failure(self, time_ns: int) -> None:
        """Attribute one failure to every patch that was live when it
        struck (sim-time comparison): the canary evidence the
        promotion controller gates on.  A patch adopted *after* the
        failure is innocent."""
        if self.rollout is None:
            return
        pool = self.runtime.pool
        for key, adopted in self.adopted_ns.items():
            if adopted <= time_ns and pool.find_key(key) is not None:
                self.post_adopt_failures[key] += 1

    def _tick_controller(self) -> None:
        """Run the promotion controller, when this process carries it;
        a failure degrades to a ``rollout.error`` event."""
        if self.controller is None:
            return
        try:
            decisions = self.controller.tick(time_ns=self._now())
        except Exception as exc:  # noqa: BLE001 - degrade, never die
            self.events.emit(0, "rollout.error", error=str(exc))
            return
        if decisions:
            # Reflect our own promotions/rollbacks immediately (e.g. a
            # canary controller dropping a patch it just condemned).
            self.sync()

    def beacon(self, reason: str) -> HealthBeacon:
        """This process's health digest, right now.  Every field is a
        full snapshot (not a delta) derived from sim-time-stamped,
        locally-attributed state -- the same program on the same input
        builds the same beacon sequence regardless of wall clock, pid,
        or peer publish timing (the determinism the fleet report gates
        on)."""
        rt = self.runtime
        recoveries = rt.recoveries
        # Rungs that ran; with the supervisor off (no trail) the
        # resolving rung is all we know.
        rung_counts = dict(Counter(
            str(rung) for record in recoveries
            for rung in ([a.rung for a in record.rung_trail
                          if a.outcome != "skipped"] or [record.rung])))
        diagnosed = Counter(patch.key for record in recoveries
                            if record.diagnosis is not None
                            for patch in record.diagnosis.patches)
        patches = {}
        for patch in rt.pool.patches():
            key = patch.key
            entry = patches[key] = {
                "triggers": rt.policy.local_triggers.get(key, 0),
                "validated": patch.validated,
                "created_time_ns": patch.created_time_ns,
                "diagnosed": diagnosed[key],
            }
            if self.rollout is not None:
                # Canary evidence for the promotion controller; only
                # serialized under rollout so pre-rollout beacons stay
                # byte-identical.
                entry["adopted_ns"] = self.adopted_ns.get(
                    key, patch.created_time_ns)
                entry["post_adopt_failures"] = self.post_adopt_failures[key]
        recovery = Histogram("recovery_ns", RECOVERY_BOUNDS)
        for record in recoveries:
            recovery.observe(record.recovery_time_ns)
        latency = Histogram("latency_ns", LATENCY_BOUNDS)
        prev = 0
        for time_ns, _ in rt.process.output.entries():
            latency.observe(time_ns - prev)
            prev = time_ns
        sampling = {}
        stats = rt.process.extension.sampling_stats
        if rt.config.sampling_rate > 0 and stats is not None:
            # Only serialized when sampling is on, so pre-sampling
            # beacons stay byte-identical.
            sampling = stats.to_dict()
            sampling["rate"] = rt.config.sampling_rate
            sampling["prevented"] = rt.sampled_prevented
        self.beacon_seq += 1
        return HealthBeacon(
            canary=self.canary,
            process_id=self.label,
            app=rt.process.program.name,
            seq=self.beacon_seq,
            time_ns=self._now(),
            reason=reason,
            failures=len(recoveries),
            recovered=sum(1 for r in recoveries if r.succeeded),
            gave_up=sum(1 for r in recoveries if not r.succeeded),
            restarts=sum(1 for r in recoveries if r.restarted),
            retractions=self.retractions,
            rung_counts=rung_counts,
            patches=patches,
            recovery_ns=recovery.to_snapshot(),
            latency_ns=latency.to_snapshot(),
            sampling=sampling,
        )

    def publish_health(self, reason: str) -> None:
        publish_beacon(self.health, self.beacon(reason), self.events)

"""FirstAidRuntime: the public entry point.

Ties together the whole working scenario of Figure 1: run the program
under periodic checkpointing; when an error monitor catches a failure,
diagnose it, generate and apply runtime patches, recover by re-executing
from the identified checkpoint with the patches active, then validate
the patches on replay tasks (off the recovery path) and produce a bug
report.  Patches persist in the pool -- on disk, through the shared
patch store -- so subsequent failures from the same bug never happen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.checkpoint.manager import DEFAULT_INTERVAL, CheckpointManager
from repro.checkpoint.snapshot import Checkpoint
from repro.core.diagnosis import Diagnosis, DiagnosticEngine, Verdict
from repro.core.patches import PatchPolicy, PatchPool
from repro.core.report import BugReport
from repro.core.validation import ValidationEngine, ValidationResult
from repro.fleet import FleetMember
from repro.heap.base import DEFAULT_LIMIT
from repro.heap.extension import ChangePolicy, ExtensionMode
from repro.heap.quarantine import DEFAULT_THRESHOLD
from repro.monitors import ErrorMonitor, FailureEvent, default_monitors
from repro.obs.telemetry import Telemetry
from repro.parallel.executor import make_executor
from repro.parallel.tasks import PASS_REASONS
from repro.process import Process
from repro.rollout import RolloutConfig
from repro.util.events import EventLog
from repro.util.simclock import CostModel
from repro.vm.io import ReplayableInput
from repro.vm.machine import RunReason, RunResult
from repro.vm.program import Program

#: Patched re-executions tried from the diagnosis checkpoint (each with
#: fresh entropy) before recovery gives up; the ladder's plain-rollback
#: rung uses the same budget.
MAX_RECOVERY_ATTEMPTS = 2


@dataclass
class FirstAidConfig:
    """Tunables, with the paper's experimental defaults."""

    checkpoint_interval: int = DEFAULT_INTERVAL      # 200 ms equivalent
    #: Incremental (delta/keyframe) checkpointing: each checkpoint
    #: stores only the pages dirtied since the previous one, with a
    #: periodic full keyframe bounding the restore chain.  Disable to
    #: reproduce the seed's full-copy behaviour for A/B measurements.
    incremental_checkpoints: bool = True
    window_intervals: int = 3          # failure-region length (Sec 4.1)
    validate: bool = True
    quarantine_threshold: int = DEFAULT_THRESHOLD    # 1 MB
    #: Memory-pressure failsafe: total bytes runtime patches may hold
    #: (padding + delay-freed objects) before patching is disabled and
    #: the oldest delay-freed objects are released.  None = unlimited.
    max_patch_memory: Optional[int] = None
    heap_limit: int = DEFAULT_LIMIT
    #: Crash-safe *shared* patch store (repro.store, DESIGN.md §9), the
    #: one on-disk home of runtime patches: merge-on-write, file-locked,
    #: survives concurrent processes of the same program and later
    #: runs, through a :class:`~repro.fleet.FleetMember`.  The startup
    #: sync loads every patch already stored; patches publish on
    #: creation and validation, failed validation retracts them
    #: fleet-wide, and a refresh every ``store_refresh_boundaries``
    #: checkpoint boundaries absorbs peers' patches mid-run and
    #: publishes a health beacon into ``<store>.health`` (§12).
    store_path: Optional[str] = None
    store_refresh_boundaries: int = 2
    #: Stable fleet identity for this process's beacons.  Defaults to
    #: ``<program>#<pid>``, which is fine for ad-hoc runs; harnesses
    #: that need deterministic reports pass role labels ("leader-0",
    #: "follower-1") so serial and forked fleets aggregate identically.
    process_label: Optional[str] = None
    #: Optional :class:`~repro.obs.health.HealthFaultPlan` armed
    #: against the health channel only (the patch store keeps its own
    #: plan); the chaos harness uses it to prove beacon corruption
    #: never touches recovery.
    health_faults: Optional[object] = None
    entropy_seed: int = 1
    #: Worker processes for the parallel recovery engine.  1 (default)
    #: keeps every re-execution in-process on the original serial
    #: paths; >1 fans diagnosis probes and validation runs out across
    #: a fork-based worker pool (see repro.parallel and DESIGN.md §8).
    #: Diagnoses, patches, and verdicts are byte-identical either way;
    #: simulated recovery/validation times are charged max-over-workers.
    workers: int = 1
    #: Enable the telemetry subsystem (metrics registry, span tracing,
    #: flight recorder).  Off by default: production overhead first.
    telemetry: bool = False
    #: Ring-buffer bound on the runtime's event log in normal mode
    #: (None = unbounded, the pre-telemetry behaviour).  Long normal
    #: runs emit one checkpoint event per interval forever; the bound
    #: keeps the log's footprint constant.
    max_events: Optional[int] = 4096
    #: Graceful-degradation ladder (repro.supervisor, DESIGN.md §10).
    #: On: every failure runs through the rung sequence targeted patch
    #: -> prevent-all -> plain rollback -> restart, so a failure the
    #: targeted path cannot handle degrades instead of killing the
    #: session.  The no-escalation path (rung 1 succeeds) is
    #: byte-identical to supervisor=False.
    supervisor: bool = True
    #: Highest ladder rung the supervisor may try (1..4).  Below 4 the
    #: restart floor is disallowed too -- exhausting the allowed rungs
    #: then kills the session exactly like supervisor=False.
    max_rungs: int = 4
    #: Per-failure recovery budget in *simulated* nanoseconds (the same
    #: clock recovery_time_ns is measured on; parallel re-executions
    #: charge max-over-workers, §8).  Rung 1 always runs; rungs 2-3 are
    #: skipped once the budget is spent.  The restart floor is
    #: budget-exempt.  None = unbounded.
    recovery_budget_ns: Optional[int] = None
    #: Restart-floor bound: total rung-4 restarts per session.
    max_restarts: int = 16
    #: Request boundaries (input-cursor positions) for restart resync:
    #: rung 4 drops the in-flight request and resumes the stream at the
    #: first boundary past the crash cursor, mirroring
    #: repro.baselines.restart.  None resumes exactly where the stream
    #: stands.
    restart_boundaries: Optional[List[int]] = None
    #: Optional :class:`~repro.chaos.ChaosPlan`: armed faults injected
    #: at the checkpoint/diagnosis/validation/worker/monitor layers
    #: (repro.chaos).  None (default) compiles every hook to a no-op
    #: check off the per-instruction path.
    chaos: Optional[object] = None
    #: Host-side deadline (seconds) per worker task result; a hung
    #: worker past it is abandoned and the task rescued in-process.
    #: None waits forever (the pre-chaos behaviour).
    worker_timeout_s: Optional[float] = None
    #: VM execution tier ("reference" or "compiled", see
    #: repro.vm.compile).  The compiled template-JIT tier is observably
    #: identical -- snapshots, sim time, fault sites, telemetry -- and
    #: exists purely for wall-clock speed; every re-execution the
    #: runtime performs (diagnosis probes, validation runs, forked
    #: worker tasks) inherits the tier.  "compiled" is the production
    #: default; the reference interpreter stays as the oracle that
    #: tier-comparing tests and benches request explicitly.
    vm_tier: str = "compiled"
    #: Diagnosis search policy (repro.search, DESIGN.md §13).
    #: "fixed" is the legacy schedule; "pruned" adds static bytecode
    #: feasibility masks + call-site arm pruning (fewer probes
    #: consumed); "bandit" additionally shapes the parallel executor's
    #: speculation with a deterministic UCB1 bandit (fewer probes
    #: executed at workers > 1).  The produced Diagnosis is
    #: byte-identical under all three.
    search_policy: str = "fixed"
    #: Health-gated staged rollout (repro.rollout, DESIGN.md §14).
    #: None (default): every store patch is adopted by everyone -- the
    #: pre-rollout behavior, byte-identical digests.  A
    #: :class:`~repro.rollout.machine.RolloutConfig`: patches this
    #: process diagnoses publish at STAGED; only the canary cohort
    #: (hash of ``process_label`` under its ``canary_fraction``)
    #: absorbs pre-fleet-wide patches, a patch the fleet rolled back is
    #: never (re-)adopted for the rest of this session, and an
    #: in-process promotion controller gates on its thresholds.
    rollout: Optional[RolloutConfig] = None
    #: Run the promotion controller inside this process (at store-
    #: refresh boundaries and session exit).  Any process may carry
    #: it -- decisions are a pure function of store + beacons, and
    #: stage writes merge monotonically -- but benches typically
    #: designate one.
    rollout_controller: bool = False
    #: Sampled always-on detection (repro.sampling, DESIGN.md §15).
    #: 0 (default) attaches nothing: every code path is byte-identical
    #: to the pre-sampling behaviour.  N > 0 promotes every ~1/N
    #: production allocations (deterministically, via the process
    #: entropy salt) to a guarded allocation -- redzone canaries on
    #: both sides, delayed free with canary fill -- so a latent memory
    #: bug is caught at the guard *before* it can crash the process.
    #: A guard hit carries bug type and call-site, letting diagnosis
    #: take the fast path (:meth:`DiagnosticEngine.diagnose_sampled`).
    sampling_rate: int = 0


@dataclass
class RecoveryRecord:
    """One failure's handling, start to finish (one Table 3 row)."""

    failure: FailureEvent
    diagnosis: Optional[Diagnosis] = None
    recovery_time_ns: int = 0
    validation: Optional[ValidationResult] = None
    report: Optional[BugReport] = None
    succeeded: bool = False
    notes: List[str] = field(default_factory=list)
    #: real wall-clock seconds handling this failure (host time; the
    #: parallel benchmark compares this across backends).
    wall_s: float = 0.0
    #: Ladder rung that resolved this failure (1 = targeted patch, the
    #: only rung that exists with supervisor=False; see
    #: repro.supervisor.ladder.Rung).
    rung: int = 1
    #: Per-rung attempts, in escalation order
    #: (:class:`~repro.supervisor.ladder.RungAttempt`).  Empty when the
    #: supervisor is disabled.
    rung_trail: List = field(default_factory=list)
    #: Simulated nanoseconds the whole ladder spent on this failure.
    budget_spent_ns: int = 0
    #: True when the restart floor (rung 4) resolved this failure.
    restarted: bool = False


@dataclass
class SessionResult:
    """Outcome of FirstAidRuntime.run()."""

    reason: str                 # "halt" | "input" | "budget" | "died"
    recoveries: List[RecoveryRecord] = field(default_factory=list)

    @property
    def survived_all(self) -> bool:
        return all(r.succeeded for r in self.recoveries)


class FirstAidRuntime:
    """Run one program under First-Aid."""

    def __init__(self, program: Program,
                 input_tokens: Optional[Iterable[int]] = None,
                 input_stream: Optional[ReplayableInput] = None,
                 config: Optional[FirstAidConfig] = None,
                 pool: Optional[PatchPool] = None,
                 monitors: Optional[List[ErrorMonitor]] = None,
                 costs: Optional[CostModel] = None,
                 events: Optional[EventLog] = None,
                 telemetry: Optional[Telemetry] = None):
        self.config = config or FirstAidConfig()
        self.telemetry = (telemetry if telemetry is not None
                          else Telemetry(enabled=self.config.telemetry))
        self.events = events if events is not None \
            else EventLog(max_events=self.config.max_events)
        self.pool = pool or PatchPool(program.name)
        #: Sampled detections that ended in a validated patch: bugs
        #: caught and fixed *before* any crash (the fleet report's
        #: "prevented" column).
        self.sampled_prevented = 0
        #: Store sync, health beacons and rollout state (None without
        #: config.store_path).  It syncs the store before the policy is
        #: built: a patch any peer already published prevents its bug
        #: from this process's very first instruction.
        self.fleet = (FleetMember(self, program.name)
                      if self.config.store_path else None)
        self.policy = PatchPolicy(self.pool)
        self.process = self._spawn_process(
            program, costs, input_tokens=input_tokens,
            input_stream=input_stream)
        #: The session's base cost model, kept for restart respawns (a
        #: chaos fault could interrupt an engine mid cost-model swap).
        self._costs = self.process.costs
        if self.telemetry.enabled:
            self.events.tap = self.telemetry.recorder.record_event
        self.manager = self._make_manager()
        self.monitors = monitors if monitors is not None \
            else default_monitors()
        #: Execution backend shared by diagnosis and validation; None
        #: (workers <= 1) keeps the legacy in-process serial paths.
        self.executor = make_executor(
            self.config.workers, program, self.telemetry,
            task_timeout_s=self.config.worker_timeout_s)
        self.validator = ValidationEngine(
            events=self.events,
            telemetry=self.telemetry, executor=self.executor,
            chaos=self.config.chaos)
        #: Session-owned search state: static facts cached per program,
        #: bandit arm statistics persisting across failures.  Imported
        #: lazily -- repro.search depends on repro.core.bugtypes, and
        #: this module is part of repro.core's package init.
        from repro.search.state import SearchState
        self.search = SearchState(self.config.search_policy,
                                  seed=self.config.entropy_seed)
        self.recoveries: List[RecoveryRecord] = []
        self._recovery_supervisor = None

    def _spawn_process(self, program: Program,
                       costs: Optional[CostModel], **io) -> Process:
        """A normal-mode process running under the session's patch
        policy, patch-memory limit, sampling chaos and telemetry.
        ``io`` carries the input (and, on respawn, the clock and
        output log) the new process continues from."""
        process = Process(
            program,
            mode=ExtensionMode.NORMAL,
            policy=self.policy,
            costs=costs,
            heap_limit=self.config.heap_limit,
            quarantine_threshold=self.config.quarantine_threshold,
            entropy_seed=self.config.entropy_seed,
            vm_tier=self.config.vm_tier,
            sampling_rate=self.config.sampling_rate,
            **io,
        )
        process.extension.patch_memory_limit = self.config.max_patch_memory
        if self.config.chaos is not None:
            process.extension.sampling_chaos = self.config.chaos
        process.attach_telemetry(self.telemetry)
        return process

    def _make_manager(self) -> CheckpointManager:
        manager = CheckpointManager(
            self.process,
            interval=self.config.checkpoint_interval,
            events=self.events,
            incremental=self.config.incremental_checkpoints,
            telemetry=self.telemetry,
            chaos=self.config.chaos,
        )
        if self.fleet is not None:
            manager.on_boundary = self.fleet.on_boundary
        return manager

    def close(self) -> None:
        """Release every external resource: the worker pool (no-op in
        serial mode) and, defensively, the fleet's file locks."""
        if self.executor is not None:
            self.executor.close()
        if self.fleet is not None:
            self.fleet.close()

    def __enter__(self) -> "FirstAidRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> SessionResult:
        """Run until the program finishes (halt or input exhausted),
        the optional step budget runs out, or an unrecoverable failure
        kills it.  Any exception escaping the loop -- including
        chaos-injected ones -- closes the runtime first, so worker
        pools and store locks never leak from a crashed session."""
        try:
            return self._run_loop(max_steps)
        except BaseException:
            self.close()
            raise

    def _run_loop(self, max_steps: Optional[int]) -> SessionResult:
        budget = max_steps
        while True:
            start = self.process.instr_count
            result = self.manager.run(max_steps=budget)
            if budget is not None:
                budget -= self.process.instr_count - start
            if result.reason is RunReason.HALT:
                return self._finish(SessionResult("halt", self.recoveries))
            if result.reason is RunReason.INPUT_EXHAUSTED:
                return self._finish(SessionResult("input", self.recoveries))
            if result.reason is RunReason.STOP:
                return self._finish(SessionResult("budget",
                                                  self.recoveries))
            failure = self._detect_failure(result)
            if failure is None:
                if self.config.supervisor and result.fault is not None:
                    # No monitor claimed the fault (e.g. an injected
                    # monitor miss).  The supervisor still gets a
                    # synthetic failure event: its diagnosis starts
                    # from the fault itself, and the ladder guarantees
                    # the session degrades instead of dying silently.
                    failure = FailureEvent(
                        fault=result.fault,
                        instr_count=self.process.instr_count,
                        time_ns=self.process.clock.now_ns,
                        monitor="unclaimed")
                    self.events.emit(self.process.clock.now_ns,
                                     "failure.unclaimed",
                                     detail=failure.describe())
                else:
                    # A fault no monitor claims: treat as fatal.
                    return self._finish(SessionResult("died",
                                                      self.recoveries))
            if self.fleet is not None:
                self.fleet.note_failure(failure.time_ns)
            record = self._handle_failure(failure)
            self.recoveries.append(record)
            if not record.succeeded:
                return self._finish(SessionResult("died", self.recoveries))

    def _finish(self, session: SessionResult) -> SessionResult:
        if self.fleet is not None:
            self.fleet.session_exit(session.reason)
        return session

    def _detect_failure(self, result: RunResult) -> Optional[FailureEvent]:
        chaos = self.config.chaos
        if chaos is not None and result.fault is not None \
                and chaos.take("monitor_miss"):
            # Injected monitor false negative: the fault happened but
            # no monitor reports it.
            self.events.emit(self.process.clock.now_ns,
                             "chaos.monitor_miss",
                             fault=result.fault.describe())
            return None
        for monitor in self.monitors:
            event = monitor.check(result, self.process)
            if event is not None:
                self.events.emit(self.process.clock.now_ns,
                                 "failure.detected",
                                 detail=event.describe())
                return event
        return None

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _handle_failure(self, failure: FailureEvent) -> RecoveryRecord:
        with self.telemetry.span("recovery",
                                 failure=failure.describe()) as span:
            started = time.perf_counter()
            # Guard *raising* pauses for the whole recovery: rollback
            # replays a window the guards already saw once, and a fresh
            # guard hit mid-replay would fail the rung and walk the
            # ladder.  Selection, promotion, and accounting continue --
            # rollback restores the work counters, so the replay is
            # counted exactly once, and the recovered run stays guarded.
            # (_respawn may swap the process; unpause the current one.)
            self.process.extension.sampling_paused = True
            try:
                if self.config.supervisor:
                    record = self._supervisor().handle(failure)
                else:
                    record = self._handle_failure_traced(failure)
            finally:
                self.process.extension.sampling_paused = False
            record.wall_s = time.perf_counter() - started
            span.set(succeeded=record.succeeded,
                     recovery_time_ns=record.recovery_time_ns)
            if record.rung > 1:
                span.set(rung=record.rung)
            if not record.succeeded:
                # Terminal outcome, previously silent: record *that* we
                # gave up and why, for the operator and the bug report.
                verdict = (record.diagnosis.verdict.value
                           if record.diagnosis is not None else "unknown")
                trail = record.rung_trail
                self.events.emit(
                    self.process.clock.now_ns, "recovery.gave_up",
                    verdict=verdict,
                    rungs=[a.rung for a in trail] or [1],
                    reasons=([a.describe() for a in trail]
                             or list(record.notes)))
            return record

    def _supervisor(self):
        if self._recovery_supervisor is None:
            from repro.supervisor.ladder import RecoverySupervisor
            self._recovery_supervisor = RecoverySupervisor(self)
        return self._recovery_supervisor

    def _respawn(self) -> None:
        """Restart-from-scratch (ladder rung 4): a fresh process on the
        *same* clock, input stream, and output log -- service
        continuity over state continuity, exactly the restart
        baseline's semantics -- plus a fresh checkpoint manager (old
        checkpoints describe a heap that no longer exists)."""
        old = self.process
        self.process = self._spawn_process(
            old.program, self._costs, input_stream=old.input,
            clock=old.clock, output=old.output)
        self.manager = self._make_manager()
        if self.fleet is not None:
            self.fleet.respawned()

    def _handle_failure_traced(self, failure: FailureEvent,
                               fast_path: bool = True) -> RecoveryRecord:
        record = RecoveryRecord(failure=failure)
        t_start = self.process.clock.now_ns
        diag_log = EventLog(max_events=self.config.max_events)
        engine = DiagnosticEngine(
            self.process, self.manager, self.pool, diag_log,
            window_intervals=self.config.window_intervals,
            telemetry=self.telemetry,
            executor=self.executor,
            chaos=self.config.chaos,
            search=self.search)
        detection = failure.detection
        use_fast = (fast_path and detection is not None
                    and getattr(detection, "site", None) is not None)
        if detection is not None and not use_fast:
            # Fallback after a rejected fast path (or a detection with
            # no attribution): the failing run carried a guard the
            # plain replay lacks, so "plain re-execution must reproduce
            # the failure" does not hold -- run phase 1a for real.  A
            # guard false positive then reads NONDETERMINISTIC and the
            # session continues un-degraded.
            engine.force_plain_probe = True
        diagnosis = (engine.diagnose_sampled(failure) if use_fast
                     else engine.diagnose(failure))
        record.diagnosis = diagnosis
        for event in diag_log:
            self.events.emit(event.time_ns, event.kind, **event.data)

        if use_fast and diagnosis.verdict is not Verdict.PATCHED:
            # The fast path could not mint a patch (no checkpoint, no
            # usable attribution); run the full pipeline instead.
            return self._handle_failure_traced(failure, fast_path=False)

        if diagnosis.verdict is Verdict.NONDETERMINISTIC:
            # The plain re-execution already carried the program past
            # the failure region; let it continue normally.
            self._back_to_normal()
            record.recovery_time_ns = self.process.clock.now_ns - t_start
            record.succeeded = True
            record.notes.append("nondeterministic failure; no patch")
            return record

        if diagnosis.verdict is Verdict.NON_PATCHABLE:
            record.recovery_time_ns = self.process.clock.now_ns - t_start
            record.notes.append("diagnosis could not patch this bug")
            return record

        # PATCHED: recover by re-executing from the identified
        # checkpoint with the new patches active.
        self.policy.refresh()
        window_end = (failure.instr_count
                      + self.config.window_intervals
                      * self.manager.interval)
        recovered = self._recover(diagnosis, window_end)
        record.recovery_time_ns = self.process.clock.now_ns - t_start
        record.succeeded = recovered
        if not recovered:
            if use_fast:
                # The detection-seeded patch did not carry the replay
                # past the failure region (the guard caught a different
                # instance than the crash, or the attribution missed).
                # Retract it and run the full two-phase pipeline before
                # letting the ladder escalate.
                for patch in diagnosis.patches:
                    self.pool.remove(patch.patch_id)
                self.policy.refresh()
                self.events.emit(self.process.clock.now_ns,
                                 "sampling.fast_path_rejected",
                                 reasons=["patched re-execution failed"])
                fallback = self._handle_failure_traced(
                    failure, fast_path=False)
                fallback.recovery_time_ns += record.recovery_time_ns
                fallback.notes.insert(
                    0, "sampled fast-path patch did not stop the "
                    "failure region; fell back to the full pipeline")
                return fallback
            record.notes.append("patched re-execution failed again")
            return record
        self.events.emit(self.process.clock.now_ns, "recovery.done",
                         time_s=record.recovery_time_ns / 1e9,
                         patches=len(diagnosis.patches))
        if self.fleet is not None:
            self.fleet.patches_created(diagnosis.patches)

        # Validation + report, off the recovery path (replay tasks).
        if self.config.validate and diagnosis.checkpoint is not None:
            validation = self.validator.validate(
                self.process, diagnosis.checkpoint, self.pool,
                window_end, under_test=diagnosis.patches,
                fast_path=use_fast)
            record.validation = validation
            if not validation.consistent:
                if self.fleet is not None:
                    self.fleet.retract(diagnosis.patches)
                for patch in diagnosis.patches:
                    self.pool.remove(patch.patch_id)
                self.policy.refresh()
                self.events.emit(self.process.clock.now_ns,
                                 "validation.failed",
                                 reasons=validation.reasons)
                record.notes.append(
                    "validation failed; patches removed: "
                    + "; ".join(validation.reasons))
                if use_fast:
                    # Validation rejected the detection-seeded patch:
                    # fall back to the full two-phase pipeline.  A
                    # guard false positive ends NONDETERMINISTIC there
                    # and the session continues un-degraded.
                    self.events.emit(self.process.clock.now_ns,
                                     "sampling.fast_path_rejected",
                                     reasons=validation.reasons)
                    fallback = self._handle_failure_traced(
                        failure, fast_path=False)
                    fallback.recovery_time_ns += record.recovery_time_ns
                    fallback.notes.insert(
                        0, "sampled fast-path patch rejected by "
                        "validation; fell back to the full pipeline")
                    return fallback
            else:
                if use_fast:
                    self.sampled_prevented += 1
                    self.events.emit(self.process.clock.now_ns,
                                     "sampling.prevented",
                                     patches=[p.key for p in
                                              diagnosis.patches])
                for patch in diagnosis.patches:
                    patch.validated = True
                # Publish on validation: the validated flag is sticky
                # in the store's merge, making the patch trustworthy
                # fleet-wide.
                if self.fleet is not None:
                    self.fleet.publish(diagnosis.patches)
        flight = None
        if self.telemetry.enabled:
            flight = self.telemetry.recorder.snapshot(
                self.process.clock.now_ns)
        record.report = BugReport(
            program_name=self.process.program.name,
            diagnosis=diagnosis,
            recovery_time_ns=record.recovery_time_ns,
            validation=record.validation,
            diagnosis_log=diag_log,
            flight=flight)
        return record

    def _recover(self, diagnosis: Diagnosis, window_end: int) -> bool:
        """Re-execute from the diagnosis checkpoint in normal mode with
        patches applied; True when the failure region is passed."""
        for attempt in range(MAX_RECOVERY_ATTEMPTS):
            with self.telemetry.span("recovery.attempt",
                                     attempt=attempt) as att_span:
                result = self._replay(
                    diagnosis.checkpoint, self.policy,
                    self.config.entropy_seed + 7000 + attempt, window_end)
                passed = result.reason in PASS_REASONS
                att_span.set(passed=passed)
            if passed:
                return True
        return False

    def _replay(self, checkpoint: Checkpoint, policy: ChangePolicy,
                salt: int, stop_at: int) -> RunResult:
        """Roll the live process back to ``checkpoint`` (dropping every
        later checkpoint) and re-execute to ``stop_at`` in normal mode
        under ``policy`` with fresh entropy ``salt`` and tracing off.
        Patched recovery and the ladder's rollback rungs all replay
        through here; each caller owns its outer span and retry loop."""
        with self.telemetry.span("rollback", to_index=checkpoint.index):
            self.manager.rollback_to(checkpoint)
        self.manager.drop_after(checkpoint)
        self._back_to_normal()
        self.process.extension.policy = policy
        self.process.reseed_entropy(salt)
        with self.telemetry.span("reexec"):
            return self.process.run(stop_at=stop_at)

    def _back_to_normal(self) -> None:
        self.process.set_mode(ExtensionMode.NORMAL, self.policy)
        self.process.machine.trace_accesses = False
        self.process.extension.trace_mm = False

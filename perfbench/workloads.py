"""The benchmark's workloads, driven through the public runtime API.

Every session is one closed-loop client: it hands a pre-generated token
stream to a fresh :class:`FirstAidRuntime` and waits for the program to
finish.  A cycle runs one session per app configuration, in registry
order, so every cycle has the same mix of apps and per-session
distributions do not depend on where a time-bounded run stops.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.registry import all_apps
from repro.core.runtime import FirstAidConfig, FirstAidRuntime

#: Deterministic per-session counts; the traced pass must reproduce
#: them exactly, and later changes must keep them byte-identical.
ANCHOR_FIELDS = ("sim_ns", "vm_instrs", "probes_executed",
                 "probes_consumed", "checkpoint_retained_bytes",
                 "patch_triggers")

#: Cycle number reserved for the untimed set-up sessions, so their
#: inputs never coincide with a timed session's.
SETUP_CYCLE = 999

#: Steady sessions carry about this many hint-weighted instructions
#: (requests x ``REQUEST_COST_HINT``), so each app contributes a
#: similar volume; one request in ``STEADY_TRIGGER_EVERY`` is a trigger.
STEADY_VOLUME = 500_000
STEADY_TRIGGER_EVERY = 25


class SetupError(RuntimeError):
    """Set-up could not prepare a configuration (a program defect)."""


def session_seed(seed: int, cycle: int) -> int:
    """Workload seed of one cycle's sessions."""
    return seed * 1000 + cycle


@dataclass
class Outcome:
    """One timed session."""

    app: str
    cycle: int
    requests: int
    wall_s: float
    anchors: Tuple[int, ...]
    #: Checks the session failed; empty when it did its job.
    misses: List[str]
    recoveries: int
    rung1: int
    validations: int
    consistent: int
    worker_failures: int
    tokens: Optional[List[int]] = None
    outputs: Optional[List[int]] = None
    store_path: Optional[str] = None


def spaced_workload(app, seed: int):
    """Normal traffic with two triggers far enough apart that the first
    is a fresh failure and the second hits the patch it produced."""
    config = FirstAidConfig()
    window = config.window_intervals * config.checkpoint_interval
    spacing = max(40, int(window * 1.4 / app.REQUEST_COST_HINT))
    return app.workload(normal_before=40, triggers=2,
                        normal_between=spacing, normal_after=40,
                        seed=seed)


def setup_workload(app, seed: int):
    """Normal traffic around one trigger: enough for a set-up session
    to diagnose, patch, recover and validate the app's bug."""
    return app.workload(normal_before=40, triggers=1, normal_after=5,
                        seed=seed)


def steady_workload(app, seed: int):
    """Long traffic with a trigger every ``STEADY_TRIGGER_EVERY``
    requests, sized by the app's request cost hint."""
    requests = STEADY_VOLUME // app.REQUEST_COST_HINT
    half = STEADY_TRIGGER_EVERY // 2
    return app.workload(normal_before=half,
                        triggers=max(1, requests // STEADY_TRIGGER_EVERY),
                        normal_between=STEADY_TRIGGER_EVERY - 1,
                        normal_after=half, seed=seed)


def run_session(app, tokens, store_path: str, label: str, workers: int):
    config = FirstAidConfig(vm_tier="compiled", store_path=store_path,
                            process_label=label, workers=workers)
    started = time.perf_counter()
    with FirstAidRuntime(app.program(), input_tokens=tokens,
                         config=config) as runtime:
        result = runtime.run()
    return runtime, result, time.perf_counter() - started


def anchors_of(runtime, result) -> Tuple[int, ...]:
    executed = consumed = 0
    for record in result.recoveries:
        info = (record.diagnosis.search_info
                if record.diagnosis is not None else None) or {}
        executed += info.get("probes_executed", 0)
        consumed += info.get("probes_consumed", 0)
    return (runtime.process.clock.now_ns, runtime.process.instr_count,
            executed, consumed, runtime.manager.retained_bytes(),
            sum(runtime.policy.local_triggers.values()))


def first_encounter_misses(app, result) -> List[str]:
    """Why a session that met its bug for the first time did not
    diagnose, patch, recover and validate it exactly once."""
    misses = []
    if result.reason != "halt":
        misses.append(f"ended {result.reason}")
    if len(result.recoveries) != 1:
        misses.append(f"{len(result.recoveries)} recoveries")
    for record in result.recoveries:
        if not record.succeeded:
            misses.append("recovery failed")
        if record.rung != 1:
            misses.append(f"rung {record.rung}")
        diagnosis = record.diagnosis
        if diagnosis is None:
            misses.append("no diagnosis")
        else:
            if set(diagnosis.bug_types) != set(app.BUG_TYPES):
                misses.append("diagnosed " + ",".join(
                    sorted(b.name for b in diagnosis.bug_types)))
            if len(diagnosis.patches) != app.EXPECTED_PATCH_SITES:
                misses.append(f"{len(diagnosis.patches)} patch sites")
        if record.validation is None or not record.validation.consistent:
            misses.append("validation inconsistent")
    return misses


class Workload:
    """Set-up plus one timed session per (cycle, app)."""

    name = ""
    workers = 1

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.apps: List = []

    def setup(self) -> None:
        """Compile every program, then run one untimed session per app:
        the compiled-block cache is per process, so this is also the
        JIT warm-up."""
        self.apps = all_apps()
        for app in self.apps:
            app.program()
        for app in self.apps:
            self.setup_session(app)

    def setup_session(self, app) -> None:
        raise NotImplementedError

    def session(self, tag: str, cycle: int, app,
                keep: bool) -> Outcome:
        """Run and check one timed session; ``keep`` holds on to its
        inputs, outputs and store for :meth:`output_problems`."""
        raise NotImplementedError

    def output_problems(self, outcome: Outcome) -> List[str]:
        """Cross-check a kept session's outputs against an untimed
        session that meets the same inputs the other way round."""
        raise NotImplementedError

    def _dir(self, *parts: str) -> str:
        path = os.path.join(self.work_dir, *parts)
        os.makedirs(path, exist_ok=True)
        return path

    def _outcome(self, app, cycle, wl, runtime, result, wall, misses,
                 keep, store_path) -> Outcome:
        records = result.recoveries
        executor = runtime.executor
        return Outcome(
            app=app.name, cycle=cycle,
            requests=len(wl.boundaries) - 1,
            wall_s=wall,
            anchors=anchors_of(runtime, result),
            misses=misses,
            recoveries=len(records),
            rung1=sum(1 for r in records if r.rung == 1),
            validations=sum(1 for r in records
                            if r.validation is not None),
            consistent=sum(1 for r in records
                           if r.validation is not None
                           and r.validation.consistent),
            worker_failures=(executor.worker_failures
                             if executor is not None else 0),
            tokens=wl.tokens if keep else None,
            outputs=runtime.process.output.values() if keep else None,
            store_path=store_path if keep else None)


class Steady(Workload):
    """Production after First-Aid has learned: every trigger is
    absorbed by a patch seeded into the app's shared store."""

    name = "steady"

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.stores: Dict[str, str] = {}
        self.seeded: Dict[str, List[str]] = {}

    def setup_session(self, app) -> None:
        store = os.path.join(self._dir("steady", app.name), "store.json")
        wl = setup_workload(app, session_seed(self.seed, SETUP_CYCLE))
        runtime, result, _ = run_session(app, wl.tokens, store,
                                         f"seed-{app.name}", self.workers)
        misses = first_encounter_misses(app, result)
        if misses:
            raise SetupError(f"{app.name}: seeding session: "
                             + "; ".join(misses))
        self.stores[app.name] = store
        self.seeded[app.name] = sorted(
            p.key for p in runtime.pool.patches() if p.validated)

    def session(self, tag, cycle, app, keep):
        wl = steady_workload(app, session_seed(self.seed, cycle))
        runtime, result, wall = run_session(
            app, wl.tokens, self.stores[app.name],
            f"steady-{app.name}", self.workers)
        misses = []
        if result.reason != "halt":
            misses.append(f"ended {result.reason}")
        if result.recoveries:
            misses.append(f"{len(result.recoveries)} recoveries "
                          "(missed prevention)")
        triggers = runtime.policy.local_triggers
        idle = [k for k in self.seeded[app.name] if not triggers.get(k)]
        if idle:
            misses.append(f"{len(idle)} seeded patches never triggered")
        return self._outcome(app, cycle, wl, runtime, result, wall,
                             misses, keep, None)

    def output_problems(self, outcome):
        """A first encounter of the same inputs, on a fresh store, must
        serve the same outputs the prevented session served."""
        app = next(a for a in self.apps if a.name == outcome.app)
        store = os.path.join(self._dir("check", outcome.app),
                             "store.json")
        runtime, result, _ = run_session(app, outcome.tokens, store,
                                         "check", self.workers)
        problems = []
        if result.reason != "halt":
            problems.append(f"first encounter ended {result.reason}")
        if runtime.process.output.values() != outcome.outputs:
            problems.append("outputs differ from a first encounter")
        return [f"{outcome.app}: {p}" for p in problems]


class Recover(Workload):
    """First encounter: every session meets its bug on a fresh store."""

    name = "recover"

    def setup_session(self, app) -> None:
        store = os.path.join(self._dir("warmup", app.name), "store.json")
        wl = setup_workload(app, session_seed(self.seed, SETUP_CYCLE))
        _, result, _ = run_session(app, wl.tokens, store, "warmup",
                                   self.workers)
        misses = first_encounter_misses(app, result)
        if misses:
            raise SetupError(f"{app.name}: warm-up session: "
                             + "; ".join(misses))

    def session(self, tag, cycle, app, keep):
        wl = spaced_workload(app, session_seed(self.seed, cycle))
        directory = self._dir(tag, f"{cycle}-{app.name}")
        store = os.path.join(directory, "store.json")
        runtime, result, wall = run_session(app, wl.tokens, store,
                                            "recover", self.workers)
        outcome = self._outcome(app, cycle, wl, runtime, result, wall,
                                first_encounter_misses(app, result),
                                keep, store)
        if not keep:
            shutil.rmtree(directory)
        return outcome

    def output_problems(self, outcome):
        """Re-running the same inputs against the store the session
        left behind must prevent the bug and serve identical outputs."""
        app = next(a for a in self.apps if a.name == outcome.app)
        runtime, result, _ = run_session(
            app, outcome.tokens, outcome.store_path, "check", self.workers)
        problems = []
        if result.reason != "halt":
            problems.append(f"prevented rerun ended {result.reason}")
        if result.recoveries:
            problems.append("prevented rerun recovered again")
        if runtime.process.output.values() != outcome.outputs:
            problems.append("outputs differ from the prevented rerun")
        return [f"{outcome.app}: {p}" for p in problems]


class RecoverFork(Recover):
    """First encounter with probes and validation runs on forked
    workers."""

    name = "recover-fork"
    workers = 2


WORKLOADS = {cls.name: cls for cls in (Steady, Recover, RecoverFork)}

"""Host-time wrappers around each layer's public entry points.

The program is not edited: a traced run replaces entry points on their
classes (or modules) with :meth:`Tracer.wrap` closures and puts the
originals back afterwards.  The per-byte ``Memory`` calls are left
alone on purpose: compiled VM blocks inline them, and a wrapper there
would cost more than the work it measures.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from spans import Tracer

_MISSING = object()


class Patches:
    """Attribute replacements that :meth:`undo` reverts, last first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str,
                make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, previous = self._saved.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def setup_entry_points():
    """(span name, owner, attribute) for the layers set-up runs:
    MiniC compilation and the static search analysis."""
    from repro.apps import base as apps_base
    from repro.search import state as search_state
    return [
        ("lang.compile", apps_base, "compile_program"),
        ("search.analyze", search_state, "analyze_program"),
    ]


def run_entry_points():
    """(span name, owner, attribute) for every layer a session runs."""
    from repro.checkpoint.manager import CheckpointManager
    from repro.core.diagnosis import DiagnosticEngine
    from repro.core.validation import ValidationEngine
    from repro.heap.extension import AllocatorExtension
    from repro.obs.health import HealthChannel
    from repro.parallel.executor import ForkExecutor, _ForkBatch
    from repro.store import SharedPatchStore
    from repro.supervisor.ladder import RecoverySupervisor
    from repro.vm.machine import Machine
    return [
        ("vm.run", Machine, "run"),
        ("heap.malloc", AllocatorExtension, "malloc"),
        ("heap.free", AllocatorExtension, "free"),
        ("heap.note_access", AllocatorExtension, "note_access"),
        ("heap.scan", AllocatorExtension, "scan_manifestations"),
        ("checkpoint.take", CheckpointManager, "take_checkpoint"),
        ("checkpoint.rollback", CheckpointManager, "rollback_to"),
        ("diagnosis", DiagnosticEngine, "diagnose"),
        ("diagnosis", DiagnosticEngine, "diagnose_sampled"),
        ("validation", ValidationEngine, "validate"),
        ("supervisor", RecoverySupervisor, "handle"),
        ("parallel.submit", ForkExecutor, "submit"),
        ("parallel.wait", _ForkBatch, "result"),
        ("store.sync", SharedPatchStore, "sync_into"),
        ("store.publish", SharedPatchStore, "publish"),
        ("store.poll", SharedPatchStore, "generation"),
        ("health.publish", HealthChannel, "publish"),
    ]


#: Span names whose calls can contain other traced spans; they report
#: ``total_s`` beside ``self_s``.
NESTING = ("vm.run", "checkpoint.take", "diagnosis", "validation",
           "supervisor", "parallel.wait")


def install_setup_tracing(tracer: Tracer) -> Patches:
    patches = Patches()
    for name, owner, attr in setup_entry_points():
        patches.replace(owner, attr,
                        lambda fn, name=name: tracer.wrap(name, fn))
    return patches


def install_run_tracing(tracer: Tracer) -> Patches:
    """Wrap every run layer; also count VM instructions executed,
    tasks shipped to workers and speculative results discarded."""
    from repro.parallel.executor import ForkExecutor
    from repro.vm.machine import Machine
    counts = tracer.counts
    patches = Patches()

    def count_instrs(run):
        def counted(machine, *args, **kwargs):
            before = machine.instr_count
            try:
                return run(machine, *args, **kwargs)
            finally:
                counts["vm.instrs"] += machine.instr_count - before
        return counted

    def count_tasks(submit):
        def counted(executor, tasks):
            tasks = list(tasks)
            counts["parallel.tasks"] += len(tasks)
            return submit(executor, tasks)
        return counted

    def count_discarded(note):
        def counted(executor, count):
            counts["parallel.discarded"] += count
            return note(executor, count)
        return counted

    patches.replace(Machine, "run", count_instrs)
    patches.replace(ForkExecutor, "submit", count_tasks)
    patches.replace(ForkExecutor, "note_discarded", count_discarded)
    for name, owner, attr in run_entry_points():
        patches.replace(owner, attr,
                        lambda fn, name=name: tracer.wrap(name, fn))
    return patches


class RecoveryTimer:
    """Host seconds per failure, timed at the recovery entry point
    (``RecoverySupervisor.handle``) on traced and untraced runs."""

    def __init__(self) -> None:
        self.durations: List[float] = []

    def install(self) -> Patches:
        from repro.supervisor.ladder import RecoverySupervisor
        durations = self.durations

        def timed(handle):
            def handle_timed(supervisor, failure):
                started = time.perf_counter()
                try:
                    return handle(supervisor, failure)
                finally:
                    durations.append(time.perf_counter() - started)
            return handle_timed

        patches = Patches()
        patches.replace(RecoverySupervisor, "handle", timed)
        return patches

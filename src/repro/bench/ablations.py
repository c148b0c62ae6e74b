"""Ablation experiments for the design choices DESIGN.md calls out.

These are not paper tables; they provide measured evidence for the
paper's *arguments*:

* **heap marking** (Section 4.1 / Figure 3): without it, phase 1 picks
  a checkpoint after the bug-trigger point on the Apache scenario;
* **correctness vs Rx-style diagnosis** (Section 4.3): a
  survival-only prober mislabels the Apache-dpw dangling write
  (reporting whichever preventive change happened to survive first),
  while First-Aid's exposure+prevention isolates the right type;
* **binary vs linear call-site search** (Section 4.2): the O(M log N)
  search needs far fewer rollbacks than a linear O(M*N) scan.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.apps.base import App
from repro.apps.registry import get_app
from repro.bench.harness import spaced_workload
from repro.bench.tables import ExperimentResult
from repro.checkpoint.manager import CheckpointManager
from repro.core.bugtypes import ALL_BUG_TYPES, BugType
from repro.core.changes import DiagnosticPolicy, preventive_change
from repro.core.diagnosis import DiagnosticEngine, Verdict
from repro.core.patches import PatchPool
from repro.heap.extension import ExtensionMode
from repro.monitors import FailureEvent, default_monitors
from repro.parallel.tasks import PASS_REASONS
from repro.process import Process
from repro.vm.machine import RunReason


def _run_to_failure(app: App, triggers: int = 1,
                    workload=None) -> Tuple[Process, CheckpointManager,
                                            FailureEvent]:
    wl = workload or spaced_workload(app, triggers=triggers)
    process = Process(app.program(), input_tokens=wl.tokens,
                      mode=ExtensionMode.NORMAL)
    manager = CheckpointManager(process)
    result = manager.run()
    assert result.reason is RunReason.FAULT, result
    failure = None
    for monitor in default_monitors():
        failure = monitor.check(result, process)
        if failure:
            break
    return process, manager, failure


def _diagnose(app: App, **engine_kwargs):
    process, manager, failure = _run_to_failure(app)
    engine = DiagnosticEngine(process, manager, PatchPool(app.name),
                              **engine_kwargs)
    return engine.diagnose(failure), failure


def ablation_heap_marking() -> ExperimentResult:
    """Diagnose the Apache dangling read with and without heap
    marking.  Without it, phase 1 accepts a checkpoint *after* the
    cache purge (the Figure 3 misidentification); with it, the chosen
    checkpoint precedes the purge by >= 3 intervals."""
    result = ExperimentResult(
        "ablation-heap-marking",
        "Heap marking: checkpoint identification on Apache "
        "(Figure 3 hazard)",
        headers=["configuration", "verdict", "chosen checkpoint",
                 "failure instr", "distance (intervals)", "rollbacks"])
    app = get_app("apache")
    for marking in (True, False):
        diagnosis, failure = _diagnose(app, use_heap_marking=marking)
        chosen = (diagnosis.checkpoint.instr_count
                  if diagnosis.checkpoint else None)
        interval = CheckpointManager(  # default interval, for display
            Process(app.program(), mode=ExtensionMode.OFF)).interval
        distance = ((failure.instr_count - chosen) / interval
                    if chosen is not None else float("nan"))
        result.rows.append([
            "with marking" if marking else "WITHOUT marking",
            diagnosis.verdict.value, chosen, failure.instr_count,
            f"{distance:.1f}", diagnosis.rollbacks])
        result.data["with" if marking else "without"] = {
            "chosen": chosen, "failure": failure.instr_count,
            "distance_intervals": distance,
            "verdict": diagnosis.verdict.value,
        }
    result.notes.append(
        "without marking, preventive changes dodge the failure from a "
        "post-trigger checkpoint (layout disturbance), so the distance "
        "collapses and the patch would be applied too late")
    return result


class _RxStyleProber:
    """Rx-style diagnosis (paper Section 4.3's contrast): try one
    *preventive* change at a time, whole-heap, and conclude from
    survival alone -- no exposing changes, no prevention of the other
    types.  Returns the first bug type whose preventive change
    survives the failure region."""

    #: Rx's natural trial order: padding is the cheapest change.
    ORDER = [BugType.BUFFER_OVERFLOW, BugType.UNINIT_READ,
             BugType.DANGLING_READ]

    def __init__(self, process: Process, manager: CheckpointManager):
        self.process = process
        self.manager = manager

    def probe(self, failure: FailureEvent) -> Optional[BugType]:
        window_end = failure.instr_count + 3 * self.manager.interval
        checkpoint = self.manager.latest()
        for bug_type in self.ORDER:
            change = preventive_change(bug_type)
            policy = DiagnosticPolicy(alloc_default=[change],
                                      free_default=[change])
            self.manager.rollback_to(checkpoint)
            self.process.set_mode(ExtensionMode.DIAGNOSTIC, policy)
            self.process.reseed_entropy(4242)
            outcome = self.process.run(stop_at=window_end)
            if outcome.reason in PASS_REASONS:
                return bug_type
        return None


def ablation_rx_misdiagnosis() -> ExperimentResult:
    """The Section 4.3 correctness example, measured: on the
    Apache-dpw dangling WRITE, an Rx-style survival-only prober
    reports the wrong bug type (whichever preventive change happened
    to survive first), while First-Aid identifies the dangling
    write."""
    result = ExperimentResult(
        "ablation-rx-misdiagnosis",
        "Diagnosis correctness: First-Aid vs Rx-style survival probing "
        "on a dangling WRITE",
        headers=["diagnoser", "conclusion", "correct?"])
    app = get_app("apache-dpw")
    truth = BugType.DANGLING_WRITE

    process, manager, failure = _run_to_failure(app)
    rx_conclusion = _RxStyleProber(process, manager).probe(failure)
    result.rows.append([
        "Rx-style (survival only)",
        rx_conclusion.value if rx_conclusion else "none survived",
        "YES" if rx_conclusion is truth else "NO"])
    result.data["rx"] = (rx_conclusion.value if rx_conclusion
                         else None)

    diagnosis, _ = _diagnose(app)
    fa_types = [b.value for b in diagnosis.bug_types]
    result.rows.append([
        "First-Aid (exposure + prevention)",
        ", ".join(fa_types) or "none",
        "YES" if diagnosis.bug_types == [truth] else "NO"])
    result.data["first_aid"] = fa_types
    result.notes.append(
        "the survival-only prober reports whichever change happens to "
        "survive first, mislabelling the dangling WRITE (here as a "
        "dangling read; under other layouts as an overflow) -- the "
        "misleading developer report Section 4.3 warns about. "
        "First-Aid distinguishes write/read/overflow by manifestation "
        "kind under exposure with all other types prevented, so it "
        "cannot make this mistake")
    return result


def ablation_site_search(app_name: str = "m4") -> ExperimentResult:
    """Binary vs linear call-site search on a multi-site dangling
    read: rollbacks used by each strategy."""
    result = ExperimentResult(
        "ablation-site-search",
        f"Call-site search strategy on {app_name}",
        headers=["strategy", "rollbacks", "patches", "bug types"])
    app = get_app(app_name)
    for strategy in ("binary", "linear"):
        diagnosis, _ = _diagnose(app, site_search=strategy)
        assert diagnosis.verdict is Verdict.PATCHED
        result.rows.append([
            strategy, diagnosis.rollbacks, len(diagnosis.patches),
            ", ".join(b.value for b in diagnosis.bug_types)])
        result.data[strategy] = {
            "rollbacks": diagnosis.rollbacks,
            "patches": len(diagnosis.patches)}
    result.notes.append(
        "both strategies find the same patches; the binary search "
        "does it in O(M log N) rollbacks (Section 4.2)")
    return result

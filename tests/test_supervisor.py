"""The graceful-degradation ladder: rung semantics, budgets, restart
floor, terminal events, and no-fault byte-identity (DESIGN.md §10)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ChaosPlan
from repro.core.diagnosis import Verdict
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.errors import CheckpointError
from repro.lang import compile_program
from repro.supervisor import RecoverySupervisor, Rung, RungAttempt
from tests.test_core_diagnosis import NONDET_APP
from tests.test_core_runtime import (
    OVERFLOW_SERVER,
    overflow_workload,
    small_config,
)

#: A bug no memory patch can fix: a plain semantic assertion on the
#: request payload.  Rung 1 verdicts NON_PATCHABLE, rungs 2-3 refault
#: deterministically, and only the restart floor (which drops the
#: poisoned request) saves the session.
SEMANTIC_BUG_APP = """
int main() {
    int n = 0;
    while (1) {
        int op = input();
        if (op == 0) { halt(); }
        n = n + 1;
        if (op == 5) { assert(0); }
        output(1);
    }
}
"""

SEMANTIC_TOKENS = [1, 1, 5, 1, 1, 0]
#: Request boundaries for the one-token-per-request protocol above.
SEMANTIC_BOUNDARIES = list(range(len(SEMANTIC_TOKENS)))


def semantic_runtime(**kw):
    program = compile_program(SEMANTIC_BUG_APP, "sem")
    config = small_config(restart_boundaries=SEMANTIC_BOUNDARIES, **kw)
    return FirstAidRuntime(program, input_tokens=list(SEMANTIC_TOKENS),
                           config=config)


class TestLadderEndToEnd:
    def test_non_patchable_survives_via_restart_floor(self):
        limit = 1 << 20
        runtime = semantic_runtime(max_patch_memory=limit, telemetry=True)
        original = runtime.process
        session = runtime.run()
        assert session.reason == "halt"
        assert session.survived_all
        record = session.recoveries[0]
        assert record.diagnosis.verdict is Verdict.NON_PATCHABLE
        assert record.succeeded
        assert record.restarted
        assert record.rung == int(Rung.RESTART)
        # Full ladder walked: 1 failed, 2 failed, 3 failed, 4 recovered.
        assert [a.rung for a in record.rung_trail] == [1, 2, 3, 4]
        assert record.rung_trail[-1].outcome == "recovered"
        assert all(a.outcome in ("failed", "error")
                   for a in record.rung_trail[:-1])
        # The lost request is the one that carried the poison: the
        # remaining requests complete.
        assert not any(e.kind == "recovery.gave_up"
                       for e in runtime.events)
        assert any(e.kind == "recovery.restart" for e in runtime.events)
        assert record.report is not None
        assert "rung 4" in record.report.render(redact_times=True)
        # The respawned process carries the session's patch-memory
        # limit, patch policy and telemetry, like the original did.
        respawned = runtime.process
        assert respawned is not original
        assert respawned.extension.patch_memory_limit == limit
        assert respawned.extension.policy is runtime.policy
        assert respawned.extension._flight is runtime.telemetry.recorder
        assert respawned.machine.vm_metrics is not None

    def test_nondeterministic_failure_resolves_on_rung_one(self):
        # Find an entropy seed whose first run fails; the rung-1
        # diagnosis re-rolls entropy, passes, and verdicts
        # NONDETERMINISTIC -- no escalation.
        program = compile_program(NONDET_APP, "nondet")
        for seed in range(1, 200):
            runtime = FirstAidRuntime(
                program, input_tokens=[1] * 5 + [7] * 3 + [1, 0],
                config=small_config(entropy_seed=seed))
            session = runtime.run()
            if not session.recoveries:
                continue
            record = session.recoveries[0]
            if record.diagnosis.verdict is not Verdict.NONDETERMINISTIC:
                continue
            assert record.succeeded
            assert record.rung == int(Rung.PATCH)
            assert [a.rung for a in record.rung_trail] == [1]
            assert session.survived_all
            return
        pytest.fail("no seed produced a nondeterministic diagnosis")

    def test_memory_bug_stays_on_rung_one(self):
        program = compile_program(OVERFLOW_SERVER, "srv")
        runtime = FirstAidRuntime(program,
                                  input_tokens=overflow_workload(1),
                                  config=small_config())
        session = runtime.run()
        record = session.recoveries[0]
        assert record.rung == int(Rung.PATCH)
        assert record.succeeded and not record.restarted
        assert record.budget_spent_ns == record.recovery_time_ns


class TestBudgetsAndGates:
    def test_exhausted_budget_skips_to_the_restart_floor(self):
        runtime = semantic_runtime(recovery_budget_ns=1)
        session = runtime.run()
        assert session.survived_all
        record = session.recoveries[0]
        by_rung = {a.rung: a for a in record.rung_trail}
        assert by_rung[2].outcome == "skipped"
        assert by_rung[3].outcome == "skipped"
        assert "budget" in by_rung[2].reason
        assert by_rung[4].outcome == "recovered"

    def test_chaos_budget_exhaustion_forces_the_floor(self):
        plan = ChaosPlan()
        plan.arm("budget_exhaust")
        runtime = semantic_runtime(chaos=plan)
        session = runtime.run()
        assert session.survived_all
        record = session.recoveries[0]
        assert plan.fired["budget_exhaust"] == 1
        by_rung = {a.rung: a for a in record.rung_trail}
        assert by_rung[2].outcome == "skipped"
        assert by_rung[4].outcome == "recovered"
        assert any(e.kind == "chaos.budget_exhaust"
                   for e in runtime.events)

    def test_max_rungs_one_reproduces_the_legacy_dead_end(self):
        runtime = semantic_runtime(max_rungs=1)
        session = runtime.run()
        assert session.reason == "died"
        record = session.recoveries[0]
        assert not record.succeeded
        by_rung = {a.rung: a for a in record.rung_trail}
        assert all(by_rung[r].outcome == "skipped" for r in (2, 3, 4))
        gave_up = [e for e in runtime.events
                   if e.kind == "recovery.gave_up"]
        assert len(gave_up) == 1
        assert gave_up[0].data["verdict"] == "non-patchable"
        assert gave_up[0].data["rungs"] == [1, 2, 3, 4]

    def test_exhausted_restarts_give_up_cleanly(self):
        runtime = semantic_runtime(max_restarts=0)
        session = runtime.run()
        assert session.reason == "died"
        record = session.recoveries[0]
        assert not record.succeeded
        assert record.rung_trail[-1].outcome == "failed"
        assert "max_restarts" in record.rung_trail[-1].reason
        assert any(e.kind == "recovery.gave_up"
                   for e in runtime.events)


class TestNoFaultByteIdentity:
    def test_event_log_identical_with_and_without_supervisor(self):
        logs = []
        for supervisor in (True, False):
            program = compile_program(OVERFLOW_SERVER, "srv")
            runtime = FirstAidRuntime(
                program, input_tokens=overflow_workload(2),
                config=small_config(supervisor=supervisor))
            session = runtime.run()
            assert session.survived_all
            logs.append("\n".join(e.render(redact_time=True)
                                  for e in runtime.events))
        assert logs[0] == logs[1]

    def test_phase_breakdown_exact_on_escalated_recovery(self):
        # recovery.rung spans carry rollback/reexec children, so the
        # recovery phase partition stays exact even when the ladder
        # escalates (Tables 3/5 discipline from §8).
        from repro.baselines.restart import RESTART_DOWNTIME_NS
        from repro.obs.tracing import phase_breakdown
        runtime = semantic_runtime(telemetry=True)
        session = runtime.run()
        assert session.survived_all
        record = session.recoveries[0]
        assert record.rung == int(Rung.RESTART)
        recovery = runtime.telemetry.tracer.find_roots("recovery")[0]
        assert recovery.duration_ns == record.recovery_time_ns
        phases = phase_breakdown(recovery)
        # Ladder rungs contributed measured rollback/reexec leaves ...
        assert phases["rollback_ns"] > 0
        assert phases["reexec_ns"] > 0
        # ... and the restart downtime lands in the analysis remainder,
        # which must stay non-negative for the partition to be exact.
        assert phases["diagnosis_ns"] >= RESTART_DOWNTIME_NS
        total = (phases["rollback_ns"] + phases["reexec_ns"]
                 + phases["diagnosis_ns"] + phases["validation_ns"])
        assert total == phases["recovery_ns"]

    def test_escalated_span_shape(self):
        # Rungs 2 and 3 each replay as one rollback + reexec pair under
        # their own recovery.rung span; the restart floor has none.
        runtime = semantic_runtime(telemetry=True)
        assert runtime.run().survived_all
        recovery = runtime.telemetry.tracer.find_roots("recovery")[0]
        shape = [(child.name, {k: v for k, v in child.attrs.items()
                               if k != "passed"},
                  [grand.name for grand in child.children])
                 for child in recovery.children]
        replay = ["rollback", "reexec"]
        assert shape[0][0] == "diagnosis"
        assert shape[1:] == [
            ("recovery.rung", {"rung": 2, "to_index": 0}, replay),
            ("recovery.rung", {"rung": 3, "attempt": 0}, replay),
            ("recovery.rung", {"rung": 3, "attempt": 1}, replay),
            ("recovery.rung", {"rung": 4, "n": 1}, []),
        ]


class TestRuntimeLifecycle:
    class _SentinelExecutor:
        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

    def test_context_manager_closes_on_error(self):
        plan = ChaosPlan()
        plan.arm("checkpoint_missing")
        program = compile_program(OVERFLOW_SERVER, "leak")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(supervisor=False, chaos=plan))
        sentinel = self._SentinelExecutor()
        runtime.executor = sentinel
        with pytest.raises(CheckpointError):
            with runtime:
                runtime.run()
        assert sentinel.closed

    def test_run_closes_on_error_even_without_with(self):
        plan = ChaosPlan()
        plan.arm("checkpoint_missing")
        program = compile_program(OVERFLOW_SERVER, "leak2")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(supervisor=False, chaos=plan))
        sentinel = self._SentinelExecutor()
        runtime.executor = sentinel
        with pytest.raises(CheckpointError):
            runtime.run()
        assert sentinel.closed

    def test_supervised_session_absorbs_the_same_fault(self):
        plan = ChaosPlan()
        plan.arm("checkpoint_missing")
        program = compile_program(OVERFLOW_SERVER, "absorb")
        runtime = FirstAidRuntime(
            program, input_tokens=overflow_workload(1),
            config=small_config(chaos=plan))
        with runtime:
            session = runtime.run()
        assert session.survived_all
        assert session.recoveries[0].rung > 1


#: Hypothesis: whatever faults are armed and however tight the budget,
#: every recovery's rung trail escalates strictly and its budget
#: headroom never grows.
_KINDS = st.sets(st.sampled_from(
    ("checkpoint_missing", "checkpoint_corrupt", "probe_raise",
     "monitor_miss", "validation_flaky", "budget_exhaust")), max_size=3)


class TestLadderProperties:
    @settings(max_examples=12, deadline=None)
    @given(kinds=_KINDS,
           budget=st.one_of(st.none(),
                            st.integers(min_value=1,
                                        max_value=10_000_000_000)),
           max_rungs=st.integers(min_value=1, max_value=4))
    def test_trail_escalates_and_budget_never_grows(self, kinds,
                                                    budget, max_rungs):
        plan = ChaosPlan()
        for kind in kinds:
            plan.arm(kind)
        runtime = semantic_runtime(chaos=plan,
                                   recovery_budget_ns=budget,
                                   max_rungs=max_rungs)
        with runtime:
            runtime.run()
        for record in runtime.recoveries:
            trail = record.rung_trail
            assert trail, "supervised recovery must leave a trail"
            rungs = [a.rung for a in trail]
            assert rungs == sorted(rungs)
            assert len(set(rungs)) == len(rungs)
            assert all(1 <= r <= 4 for r in rungs)
            assert all(a.rung <= max_rungs
                       or a.outcome == "skipped" for a in trail)
            remaining = [a.budget_remaining_ns for a in trail
                         if a.budget_remaining_ns is not None]
            assert remaining == sorted(remaining, reverse=True)
            assert record.budget_spent_ns >= 0
            if record.succeeded:
                assert record.rung == trail[-1].rung

"""Tests for Process snapshot/restore and the checkpoint manager."""

import pytest

from repro.checkpoint.manager import CheckpointManager
from repro.errors import CheckpointError
from repro.heap.extension import ExtensionMode
from repro.parallel import tasks
from repro.parallel.tasks import build_task, encode_state, run_task
from repro.process import Process
from repro.util.events import EventLog
from repro.vm.machine import RunReason
from tests.conftest import make_process

COUNTER_LOOP = """
int main() {
    int i = 0;
    while (1) {
        int v = input();
        if (v == 0) { break; }
        int p = malloc(48);
        store(p, v);
        i = i + load(p);
        free(p);
        output(i);
    }
    halt();
}
"""


class TestProcessSnapshot:
    def test_roundtrip_determinism(self):
        p = make_process(COUNTER_LOOP, tokens=[1, 2, 3, 4, 0])
        p.run(max_steps=40)
        snap = p.snapshot()
        p.run()
        first = list(p.output.values())
        p.restore(snap)
        p.run()
        assert p.output.values() == first

    def test_task_replays_journaled_region(self, monkeypatch):
        # A replay task built from a mid-run snapshot replays the
        # *recorded* input region (exactly what the validation engine
        # needs); it does not see future live input.
        p = make_process(COUNTER_LOOP, tokens=[1, 2, 3, 0])
        p.run(max_steps=40)
        snap = p.snapshot()
        p.run()                      # original finishes, journal complete
        final = list(p.output.values())
        task = build_task(p, "baseline", "replay", encode_state(snap),
                          window_end=10 ** 6, salt=1)
        replays = []

        class RecordingProcess(Process):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                replays.append(self)

        monkeypatch.setattr(tasks, "Process", RecordingProcess)
        out = run_task(p.program, task)
        assert out.result.reason is RunReason.HALT
        assert replays[0].output.values() == final
        # and the original was not disturbed by the replay
        assert p.output.values() == final

    def test_randomized_allocator_swap(self):
        p = make_process(COUNTER_LOOP, tokens=[5, 5, 0])
        p.run(max_steps=10)
        p.use_randomized_allocator(seed=3)
        result = p.run()
        assert result.reason is RunReason.HALT

    def test_randomized_snapshot_into_plain_process_rejected(self):
        p = make_process(COUNTER_LOOP, tokens=[5, 0])
        p.use_randomized_allocator(seed=3)
        snap = p.snapshot()
        q = make_process(COUNTER_LOOP, tokens=[5, 0])
        with pytest.raises(CheckpointError):
            q.restore(snap)

    def test_randomization_changes_addresses(self):
        source = """
        int main() {
            int junk = malloc(32);
            free(junk);
            int a = malloc(48);
            output(a);
            halt();
        }
        """
        addrs = set()
        for seed in range(1, 6):
            p = make_process(source)
            p.use_randomized_allocator(seed)
            p.run()
            addrs.add(p.output.values()[0])
        assert len(addrs) > 1


class TestCheckpointManager:
    def run_with_manager(self, tokens, interval=200, **kwargs):
        p = make_process(COUNTER_LOOP, tokens=tokens)
        manager = CheckpointManager(p, interval=interval,
                                    adaptive=False, **kwargs)
        result = manager.run()
        return p, manager, result

    def test_checkpoints_taken_periodically(self):
        tokens = [1] * 50 + [0]
        p, manager, result = self.run_with_manager(tokens)
        assert result.reason is RunReason.HALT
        assert manager.stats.checkpoints_taken >= 3
        instrs = [ck.instr_count for ck in manager.checkpoints]
        assert instrs == sorted(instrs)

    def test_rollback_restores_execution_point(self):
        tokens = [1] * 50 + [0]
        p, manager, _ = self.run_with_manager(tokens)
        target = manager.recent(3)[-1]
        manager.rollback_to(target)
        assert p.instr_count == target.instr_count
        assert manager.stats.rollbacks == 1
        result = p.run()
        assert result.reason is RunReason.HALT

    def test_rollback_then_reexecution_is_deterministic(self):
        tokens = [3, 1, 4, 1, 5, 9, 2, 6, 0]
        p, manager, _ = self.run_with_manager(tokens, interval=30)
        final = list(p.output.values())
        for checkpoint in list(manager.checkpoints):
            manager.rollback_to(checkpoint)
            p.run()
            assert p.output.values() == final

    def test_bounded_history(self):
        tokens = [1] * 200 + [0]
        p, manager, _ = self.run_with_manager(tokens, interval=50,
                                              max_keep=5)
        assert len(manager.checkpoints) <= 5

    def test_drop_after(self):
        tokens = [1] * 80 + [0]
        p, manager, _ = self.run_with_manager(tokens, interval=50)
        oldest = manager.recent(10)[-1]
        manager.drop_after(oldest)
        assert manager.latest() is oldest

    def test_cow_accounting_resets_per_interval(self):
        tokens = [1] * 30 + [0]
        p, manager, _ = self.run_with_manager(tokens, interval=100)
        pages = manager.stats.per_checkpoint_pages
        # after the first checkpoint the app only redirties its small
        # working set, so page counts stay small and bounded
        assert all(count <= 4 for count in pages[1:])

    def test_disabled_manager_never_checkpoints(self):
        p = make_process(COUNTER_LOOP, tokens=[1, 2, 0])
        manager = CheckpointManager(p, enabled=False)
        result = manager.run()
        assert result.reason is RunReason.HALT
        assert manager.stats.checkpoints_taken == 0

    def test_no_checkpoint_error(self):
        p = make_process(COUNTER_LOOP, tokens=[0])
        manager = CheckpointManager(p, enabled=False)
        with pytest.raises(CheckpointError):
            manager.latest()

    def test_events_emitted(self):
        events = EventLog()
        p = make_process(COUNTER_LOOP, tokens=[1] * 30 + [0])
        manager = CheckpointManager(p, interval=100, events=events)
        manager.run()
        assert events.of_kind("checkpoint")
        manager.rollback_to(manager.latest())
        assert events.of_kind("rollback")


class TestAdaptiveInterval:
    def test_interval_grows_under_heavy_cow(self):
        # a program that dirties many pages per interval
        source = """
        int main() {
            int big = malloc(200000);
            int r = 0;
            while (r < 200) {
                memset(big, r, 200000);
                r = r + 1;
            }
            halt();
        }
        """
        p = make_process(source)
        manager = CheckpointManager(p, interval=2000, adaptive=True,
                                    overhead_target=0.02,
                                    max_interval=40_000)
        manager.run()
        assert manager.interval > manager.base_interval

    def test_interval_capped_at_max(self):
        source = """
        int main() {
            int big = malloc(500000);
            int r = 0;
            while (r < 400) {
                memset(big, r, 500000);
                r = r + 1;
            }
            halt();
        }
        """
        p = make_process(source)
        manager = CheckpointManager(p, interval=1000, adaptive=True,
                                    overhead_target=0.001,
                                    max_interval=8000)
        manager.run()
        assert manager.interval <= 8000

    def test_interval_shrinks_back_when_quiet(self):
        # hot phase: repeated big memsets spread over many intervals;
        # quiet phase: pure compute. The interval must grow, then relax
        # back toward the base once COW traffic stops.
        source = """
        int main() {
            int big = malloc(400000);
            int r = 0;
            while (r < 100) {
                memset(big, r, 400000);     // hot: ~98 pages dirtied
                int j = 0;
                while (j < 1200) { j = j + 1; }
                r = r + 1;
            }
            int k = 0;
            while (k < 120000) { k = k + 1; }   // quiet phase
            halt();
        }
        """
        p = make_process(source)
        manager = CheckpointManager(p, interval=20_000, adaptive=True,
                                    overhead_target=0.05,
                                    max_interval=200_000)
        manager.run()
        grown = max(manager.stats.per_checkpoint_interval)
        assert grown > manager.base_interval
        assert manager.interval < grown

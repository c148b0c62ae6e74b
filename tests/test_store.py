"""Shared patch store: locking, merge-on-write, retraction,
quarantine, backup recovery, and fault injection (DESIGN.md §9)."""

import json
import multiprocessing as mp
import os

import pytest

from repro.core.bugtypes import BugType
from repro.core.patches import PatchPool, RuntimePatch, patch_key
from repro.errors import StoreLockTimeout
from repro.store import (FileLock, SharedPatchStore, StoreFaultPlan,
                         TornWriteCrash)
from repro.util.callsite import CallSite


def site(*frames):
    return CallSite.intern(frames or (("f", 1),))


def make_patch(pool, bug=BugType.BUFFER_OVERFLOW, frames=(("f", 1),),
               validated=False, triggers=0):
    patch = pool.new_patch(bug, site(*frames))
    patch.validated = validated
    patch.trigger_count = triggers
    return patch


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "app.store.json")


class TestStoreBasics:
    def test_empty_store_loads_empty_state(self, store_path):
        store = SharedPatchStore(store_path, "app")
        state = store.load()
        assert state.generation == 0
        assert state.patches == {}
        assert not os.path.exists(store_path)

    def test_publish_then_load_round_trips(self, store_path):
        store = SharedPatchStore(store_path, "app")
        pool = PatchPool("app")
        patch = make_patch(pool, validated=True, triggers=5)
        store.publish([patch])
        loaded = store.load()
        assert loaded.generation == 1
        [round_tripped] = loaded.runtime_patches()
        assert round_tripped.key == patch.key
        assert round_tripped.trigger_count == 5
        assert round_tripped.validated

    def test_generation_increases_per_commit(self, store_path):
        store = SharedPatchStore(store_path, "app")
        pool = PatchPool("app")
        gens = []
        for i in range(4):
            patch = make_patch(pool, frames=((f"f{i}", i),))
            gens.append(store.publish([patch]).generation)
        assert gens == [1, 2, 3, 4]

    def test_program_mismatch_quarantines_instead_of_raising(
            self, store_path):
        # A store owned by another program is treated like corruption:
        # quarantine the file and start fresh, never raise into the
        # monitored process (DESIGN.md §9).
        SharedPatchStore(store_path, "alpha").publish(
            [make_patch(PatchPool("alpha"))])
        beta = SharedPatchStore(store_path, "beta")
        state = beta.load()
        assert state.patches == {} and state.generation == 0
        # both the primary and its .bak mirror belong to alpha
        assert beta.mismatches == 2
        quarantined = [n for n in os.listdir(os.path.dirname(store_path))
                       if ".quarantined." in n]
        assert len(quarantined) >= 1


class TestMergeOnWrite:
    def test_two_writers_union_never_last_writer_wins(self, store_path):
        s1 = SharedPatchStore(store_path, "app")
        s2 = SharedPatchStore(store_path, "app")
        p1 = make_patch(PatchPool("app"), frames=(("f", 1),))
        p2 = make_patch(PatchPool("app"), bug=BugType.DOUBLE_FREE,
                        frames=(("g", 2),))
        s1.publish([p1])
        s2.publish([p2])   # s2 never saw p1 in memory
        keys = set(s1.load().patches)
        assert keys == {p1.key, p2.key}

    def test_colliding_key_keeps_max_trigger_and_sticky_validated(
            self, store_path):
        s1 = SharedPatchStore(store_path, "app")
        s2 = SharedPatchStore(store_path, "app")
        a = make_patch(PatchPool("app"), triggers=10, validated=True)
        b = make_patch(PatchPool("app"), triggers=3, validated=False)
        assert a.key == b.key
        s1.publish([a])
        s2.publish([b])    # lower triggers, not validated
        [merged] = s1.load().runtime_patches()
        assert merged.trigger_count == 10
        assert merged.validated

    def test_interleaved_writers_many_patches(self, store_path):
        s1 = SharedPatchStore(store_path, "app")
        s2 = SharedPatchStore(store_path, "app")
        mine, theirs = PatchPool("app"), PatchPool("app")
        for i in range(10):
            s1.publish([make_patch(mine, frames=((f"a{i}", i),))])
            s2.publish([make_patch(theirs, frames=((f"b{i}", i),))])
        assert len(s1.load().patches) == 20

    def test_sync_into_absorbs_and_reports_change(self, store_path):
        store = SharedPatchStore(store_path, "app")
        store.publish([make_patch(PatchPool("app"), triggers=7,
                                  validated=True)])
        local = PatchPool("app")
        changed, state = store.sync_into(local)
        assert changed and state.generation == 1
        assert len(local) == 1
        assert local.patches()[0].trigger_count == 7
        # a second sync with nothing new is a no-op
        changed, state = store.sync_into(local)
        assert not changed and state.generation == 1


class TestRetraction:
    def test_retract_removes_and_tombstones(self, store_path):
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"))
        store.publish([patch])
        store.retract([patch])
        state = store.load()
        assert state.patches == {}
        assert patch.key in state.retracted

    def test_refresh_drops_retracted_patch_from_local_pool(
            self, store_path):
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"))
        store.publish([patch])
        local = PatchPool("app")
        store.sync_into(local)
        assert len(local) == 1
        # another process proves the patch inconsistent
        SharedPatchStore(store_path, "app").retract([patch])
        changed, _ = store.sync_into(local)
        assert changed
        assert len(local) == 0

    def test_republish_clears_tombstone(self, store_path):
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"))
        store.publish([patch])
        store.retract([patch])
        store.publish([patch])   # re-diagnosed: outranks the tombstone
        state = store.load()
        assert patch.key in state.patches
        assert patch.key not in state.retracted


class TestCrashSafety:
    def test_corrupt_store_is_quarantined_not_raised(self, store_path):
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"), validated=True)
        store.publish([patch])
        with open(store_path, "wb") as fh:
            fh.write(b"\x00\xffnot json at all")
        state = store.load()      # quarantine + backup recovery
        assert patch.key in state.patches
        assert store.quarantined == 1
        assert store.recovered_from_backup == 1
        quarantined = [n for n in os.listdir(os.path.dirname(store_path))
                       if ".quarantined." in n]
        assert len(quarantined) == 1

    def test_truncated_json_recovers_from_backup(self, store_path):
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"), validated=True)
        store.publish([patch])
        raw = open(store_path, "rb").read()
        with open(store_path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        assert patch.key in store.load().patches

    def test_both_files_corrupt_starts_fresh(self, store_path):
        store = SharedPatchStore(store_path, "app")
        store.publish([make_patch(PatchPool("app"))])
        for path in (store_path, store_path + ".bak"):
            with open(path, "wb") as fh:
                fh.write(b"garbage")
        state = store.load()
        assert state.patches == {} and state.generation == 0
        assert store.quarantined == 2

    def test_commit_after_corruption_repairs_primary(self, store_path):
        store = SharedPatchStore(store_path, "app")
        pool = PatchPool("app")
        gold = make_patch(pool, validated=True)
        store.publish([gold])
        StoreFaultPlan.corrupt_file(store_path)
        store.publish([make_patch(pool, frames=(("h", 9),))])
        # primary readable again and contains both patches
        payload = json.load(open(store_path))
        assert gold.key in payload["patches"]
        assert len(payload["patches"]) == 2


class TestFaultInjection:
    def make_store(self, store_path):
        return SharedPatchStore(store_path, "app",
                                faults=StoreFaultPlan(),
                                lock_timeout=5.0, stale_lock_after=0.02)

    def test_torn_write_crashes_publisher_but_loses_nothing(
            self, store_path):
        store = self.make_store(store_path)
        pool = PatchPool("app")
        gold = make_patch(pool, validated=True)
        store.publish([gold])
        store.faults.arm("torn_write")
        churn = make_patch(pool, frames=(("g", 2),))
        with pytest.raises(TornWriteCrash):
            store.publish([churn])
        # retry survives: breaks the abandoned lock, quarantines the
        # torn file, recovers from backup, lands the patch
        state = store.publish([churn])
        assert gold.key in state.patches
        assert churn.key in state.patches
        assert store.lock.stale_broken >= 1

    def test_stale_lock_is_broken(self, store_path):
        store = self.make_store(store_path)
        store.faults.arm("stale_lock")
        state = store.publish([make_patch(PatchPool("app"))])
        assert state.generation == 1
        assert store.lock.stale_broken == 1

    def test_corrupt_fault_on_load(self, store_path):
        store = self.make_store(store_path)
        gold = make_patch(PatchPool("app"), validated=True)
        store.publish([gold])
        store.faults.arm("corrupt")
        state = store.load()
        assert gold.key in state.patches
        assert store.faults.fired["corrupt"] == 1

    def test_unarmed_plan_fires_nothing(self, store_path):
        store = self.make_store(store_path)
        store.publish([make_patch(PatchPool("app"))])
        store.load()
        assert store.faults.total_fired() == 0


class TestFileLock:
    def test_lock_excludes_second_acquirer(self, tmp_path):
        path = str(tmp_path / "x.lock")
        first = FileLock(path, timeout=0.05, stale_after=10.0)
        second = FileLock(path, timeout=0.05, stale_after=10.0)
        first.acquire()
        try:
            with pytest.raises(StoreLockTimeout):
                second.acquire()
        finally:
            first.release()
        second.acquire()
        second.release()

    def test_reentrant_acquire_raises(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        lock.acquire()
        with pytest.raises(RuntimeError):
            lock.acquire()
        lock.release()

    def test_stale_lock_broken_by_age(self, tmp_path):
        path = str(tmp_path / "x.lock")
        StoreFaultPlan.plant_stale_lock(path)
        lock = FileLock(path, timeout=1.0, stale_after=0.5)
        lock.acquire()
        assert lock.stale_broken == 1
        lock.release()

    def test_release_tolerates_vanished_lock(self, tmp_path):
        path = str(tmp_path / "x.lock")
        lock = FileLock(path)
        lock.acquire()
        os.unlink(path)
        lock.release()   # must not raise


class TestChannelContracts:
    """The shared-channel bug scrub: no-op mutations must not commit,
    empty batches must not count, generation() must be cheap."""

    def test_identical_republish_is_noop_commit(self, store_path):
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"), triggers=5, validated=True)
        store.publish([patch])
        assert store.commits == 1
        before = open(store_path, "rb").read()
        # same payload again: merged state unchanged -> no commit, no
        # generation churn, file bytes untouched
        state = store.publish([patch])
        assert state.generation == 1
        assert store.commits == 1
        assert store.noop_mutations == 1
        assert open(store_path, "rb").read() == before

    def test_empty_publish_and_retract_do_not_count(self, store_path):
        store = SharedPatchStore(store_path, "app")
        state = store.publish([])
        assert state.generation == 0
        state = store.retract([])
        assert state.generation == 0
        assert store.publishes == 0
        assert store.retractions == 0
        assert store.commits == 0
        assert not os.path.exists(store_path)

    def test_generation_cached_by_stat(self, store_path, monkeypatch):
        store = SharedPatchStore(store_path, "app")
        store.publish([make_patch(PatchPool("app"))])
        assert store.generation() == 1

        def exploding_load():
            raise AssertionError("generation() re-parsed an "
                                 "unchanged file")

        # unchanged (mtime_ns, size) signature -> served from cache,
        # load() never called
        monkeypatch.setattr(store, "load", exploding_load)
        assert store.generation() == 1
        monkeypatch.undo()
        # a real commit invalidates the cache
        store.publish([make_patch(PatchPool("app"),
                                  frames=(("g", 2),))])
        assert store.generation() == 2

    def test_idle_refresh_cycle_commits_nothing(self, store_path):
        """An idle fleet polling the store must not churn the file:
        repeated syncs and identical republished counts are free."""
        store = SharedPatchStore(store_path, "app")
        patch = make_patch(PatchPool("app"), triggers=3, validated=True)
        store.publish([patch])
        commits_before = store.commits
        local = PatchPool("app")
        for _ in range(5):
            store.sync_into(local)      # read-only
            store.publish([patch])      # identical counts -> no-op
            store.generation()          # cached stat
        assert store.commits == commits_before
        assert store.noop_mutations == 5
        assert store.load().generation == 1


# ---------------------------------------------------------------------
# real concurrent writers (fork-based; the merge must make the union
# survive interleaved publishes from separate OS processes)
# ---------------------------------------------------------------------

def _concurrent_publisher(spec):
    path, worker, count = spec
    store = SharedPatchStore(path, "app", lock_timeout=30.0)
    pool = PatchPool("app")
    for i in range(count):
        patch = pool.new_patch(
            BugType.BUFFER_OVERFLOW,
            CallSite.intern([(f"w{worker}fn{i}", i)]))
        store.publish([patch])
    return worker


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs fork start method")
def test_concurrent_processes_never_lose_patches(tmp_path):
    from concurrent.futures import ProcessPoolExecutor
    path = str(tmp_path / "app.store.json")
    workers, per_worker = 3, 8
    ctx = mp.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        specs = [(path, w, per_worker) for w in range(workers)]
        assert sorted(pool.map(_concurrent_publisher, specs)) == [0, 1, 2]
    state = SharedPatchStore(path, "app").load()
    assert len(state.patches) == workers * per_worker
    assert state.generation == workers * per_worker

"""Tests for environmental changes, diagnostic policies, and the patch
pool (including its wire form)."""

import pytest

from repro.core.bugtypes import ALL_BUG_TYPES, BugType, CHANGE_GROUPS
from repro.core.changes import (
    AllocChange,
    DiagnosticPolicy,
    FreeChange,
    combine_alloc,
    combine_free,
    changes_for,
    exposing_change,
    preventive_change,
)
from repro.core.patches import PatchPolicy, PatchPool, RuntimePatch
from repro.errors import PatchError
from repro.heap.extension import PAD_POST, PAD_PRE
from repro.util.callsite import CallSite
from tests.conftest import site


class TestTable1:
    """The change taxonomy must match the paper's Table 1."""

    def test_every_bug_type_has_both_changes(self):
        for bug_type in ALL_BUG_TYPES:
            assert preventive_change(bug_type) is not None
            assert exposing_change(bug_type) is not None

    def test_overflow_changes(self):
        prev = preventive_change(BugType.BUFFER_OVERFLOW)
        expo = exposing_change(BugType.BUFFER_OVERFLOW)
        assert isinstance(prev, AllocChange) and prev.pad
        assert not prev.canary_pad
        assert expo.canary_pad

    def test_dangling_changes_are_free_side(self):
        for bug_type in (BugType.DANGLING_READ, BugType.DANGLING_WRITE):
            prev = preventive_change(bug_type)
            expo = exposing_change(bug_type)
            assert isinstance(prev, FreeChange) and prev.delay
            assert not prev.canary_fill
            assert expo.delay and expo.canary_fill

    def test_double_free_checks_params(self):
        assert preventive_change(BugType.DOUBLE_FREE).check_param
        assert exposing_change(BugType.DOUBLE_FREE).check_param

    def test_uninit_read_fills(self):
        assert preventive_change(BugType.UNINIT_READ).fill == "zero"
        assert exposing_change(BugType.UNINIT_READ).fill == "canary"

    def test_patch_points(self):
        assert BugType.BUFFER_OVERFLOW.patch_point == "alloc"
        assert BugType.UNINIT_READ.patch_point == "alloc"
        for bug_type in (BugType.DANGLING_READ, BugType.DANGLING_WRITE,
                         BugType.DOUBLE_FREE):
            assert bug_type.patch_point == "free"

    def test_change_groups_partition_all_types(self):
        flat = [b for group in CHANGE_GROUPS for b in group]
        assert sorted(flat, key=lambda b: b.value) == \
            sorted(ALL_BUG_TYPES, key=lambda b: b.value)
        assert len(flat) == len(set(flat))


class TestCombination:
    def test_combine_alloc_pad_and_fill(self):
        decision = combine_alloc([AllocChange(pad=True),
                                  AllocChange(fill="zero")])
        assert decision.pad_pre == PAD_PRE
        assert decision.pad_post == PAD_POST
        assert decision.fill == "zero"
        assert not decision.canary_pad

    def test_canary_fill_dominates_zero(self):
        decision = combine_alloc([AllocChange(fill="zero"),
                                  AllocChange(fill="canary")])
        assert decision.fill == "canary"
        decision = combine_alloc([AllocChange(fill="canary"),
                                  AllocChange(fill="zero")])
        assert decision.fill == "canary"

    def test_free_changes_or_together(self):
        decision = combine_free([FreeChange(delay=True),
                                 FreeChange(check_param=True)])
        assert decision.delay and decision.check_param
        assert not decision.canary_fill

    def test_alloc_changes_ignored_by_combine_free(self):
        decision = combine_free([AllocChange(pad=True)])
        assert not decision.delay

    def test_all_preventive_combination(self):
        changes = changes_for(ALL_BUG_TYPES, exposing=False)
        alloc = combine_alloc(changes)
        free = combine_free(changes)
        assert alloc.pad_pre and alloc.fill == "zero"
        assert not alloc.canary_pad
        assert free.delay and free.check_param and not free.canary_fill


class TestDiagnosticPolicy:
    def test_defaults_and_overrides(self):
        special = site(("f", 1))
        policy = DiagnosticPolicy(
            free_default=[FreeChange(delay=True)],
            free_overrides={special: [FreeChange(delay=True,
                                                 canary_fill=True)]})
        plain = policy.on_free(site(("g", 2)), 0x1000)
        assert plain.delay and not plain.canary_fill
        exposed = policy.on_free(special, 0x2000)
        assert exposed.delay and exposed.canary_fill

    def test_records_seen_sites_with_counts(self):
        policy = DiagnosticPolicy()
        a, b = site(("f", 1)), site(("g", 2))
        policy.on_alloc(a)
        policy.on_alloc(a)
        policy.on_free(b, 0)
        assert policy.seen_alloc_sites == {a: 2}
        assert policy.seen_free_sites == {b: 1}

    def test_none_callsite_tolerated(self):
        policy = DiagnosticPolicy()
        assert policy.on_alloc(None).pad_pre == 0
        assert not policy.on_free(None, 0).delay


class TestPatchPool:
    def test_new_patch_and_dedupe(self):
        pool = PatchPool("app")
        s = site(("f", 1))
        a = pool.new_patch(BugType.BUFFER_OVERFLOW, s)
        b = pool.new_patch(BugType.BUFFER_OVERFLOW, s)
        assert a is b
        assert len(pool) == 1
        c = pool.new_patch(BugType.DANGLING_READ, site(("g", 2)))
        assert c.patch_id != a.patch_id

    def test_apply_at_derived_from_bug_type(self):
        pool = PatchPool("app")
        overflow = pool.new_patch(BugType.BUFFER_OVERFLOW, site(("f", 1)))
        dangling = pool.new_patch(BugType.DANGLING_READ, site(("g", 2)))
        assert overflow.apply_at == "alloc"
        assert dangling.apply_at == "free"

    def test_mismatched_apply_at_rejected(self):
        with pytest.raises(PatchError):
            RuntimePatch(1, BugType.BUFFER_OVERFLOW, site(("f", 1)),
                         "free")

    def test_remove(self):
        pool = PatchPool("app")
        patch = pool.new_patch(BugType.UNINIT_READ, site(("f", 1)))
        pool.remove(patch.patch_id)
        assert len(pool) == 0
        assert pool.get(patch.patch_id) is None


class TestPatchPolicy:
    def test_matching_site_gets_preventive_change(self):
        pool = PatchPool("app")
        alloc_site = site(("builder", 4), ("handler", 2))
        pool.new_patch(BugType.BUFFER_OVERFLOW, alloc_site)
        policy = PatchPolicy(pool)
        hit = policy.on_alloc(alloc_site)
        assert hit.pad_pre == PAD_PRE and hit.patch_id is not None
        miss = policy.on_alloc(site(("other", 9)))
        assert miss.pad_pre == 0 and miss.patch_id is None

    def test_delay_free_patch_always_checks_params(self):
        pool = PatchPool("app")
        free_site = site(("rel", 1))
        pool.new_patch(BugType.DANGLING_READ, free_site)
        policy = PatchPolicy(pool)
        decision = policy.on_free(free_site, 0x100)
        assert decision.delay and decision.check_param

    def test_trigger_counting(self):
        pool = PatchPool("app")
        s = site(("f", 1))
        patch = pool.new_patch(BugType.UNINIT_READ, s)
        policy = PatchPolicy(pool)
        policy.on_alloc(s)
        policy.on_alloc(s)
        assert patch.trigger_count == 2

    def test_non_interned_sites_trigger_like_interned_ones(self):
        """A freshly constructed site (its own cached hash) finds the
        patch registered under the interned one, and both count under
        the same ``local_triggers`` key the pool reports."""
        pool = PatchPool("app")
        frames = (("builder", 4), ("handler", 2))
        interned = CallSite.intern(frames)
        fresh = CallSite(frames)
        assert fresh is not interned
        assert fresh == interned and hash(fresh) == hash(interned)
        overflow = pool.new_patch(BugType.BUFFER_OVERFLOW, fresh)
        dangling = pool.new_patch(BugType.DANGLING_READ,
                                  CallSite([("rel", 1)]))
        policy = PatchPolicy(pool)
        assert policy.on_alloc(interned).patch_id == overflow.patch_id
        assert policy.on_alloc(fresh).patch_id == overflow.patch_id
        policy.on_free(CallSite.intern([("rel", 1)]), 0x100)
        policy.on_alloc(CallSite([("other", 9)]))
        assert policy.local_triggers == {overflow.key: 2,
                                         dangling.key: 1}
        assert overflow.key == "buffer-overflow@builder+4;handler+2"

    def test_refresh_picks_up_new_patches(self):
        pool = PatchPool("app")
        policy = PatchPolicy(pool)
        s = site(("f", 1))
        assert policy.on_alloc(s).patch_id is None
        pool.new_patch(BugType.BUFFER_OVERFLOW, s)
        policy.refresh()
        assert policy.on_alloc(s).patch_id is not None


class TestRoundTripFidelity:
    """to_json/from_json must preserve pools *exactly*,
    including mutable bookkeeping -- the seed dropped trigger_count on
    the floor, silently resetting Table 4's "triggered N times"."""

    def test_trigger_count_round_trips_through_json(self):
        pool = PatchPool("app")
        patch = pool.new_patch(BugType.BUFFER_OVERFLOW, site(("f", 1)))
        patch.trigger_count = 17
        patch.validated = True
        clone = RuntimePatch.from_json(patch.to_json())
        assert clone == patch

    def test_from_patches_preserves_trigger_counts(self):
        pool = PatchPool("app")
        patch = pool.new_patch(BugType.DANGLING_READ, site(("g", 2)))
        patch.trigger_count = 9
        wire = [p.to_json() for p in pool.patches()]
        rebuilt = PatchPool.from_patches("app", wire)
        assert rebuilt.patches()[0].trigger_count == 9

    def test_copy_contract_matches_wire_form(self):
        """from_patches(to_json()) -- the patch set a validation task
        ships to a worker: same patches, live counts, decoupled."""
        pool = PatchPool("app")
        patch = pool.new_patch(BugType.DOUBLE_FREE, site(("d", 4)))
        patch.trigger_count = 5
        worker_pool = PatchPool.from_patches(
            "app", [p.to_json() for p in pool.patches()])
        wp = worker_pool.patches()[0]
        assert wp == patch
        wp.trigger_count += 100          # worker-side accounting
        assert patch.trigger_count == 5  # never bleeds back


class TestKeyIndex:
    """find() is called from new_patch() on every diagnosis; it is an
    index lookup now, and must stay consistent under removal."""

    def test_find_after_remove(self):
        pool = PatchPool("app")
        s = site(("f", 1))
        patch = pool.new_patch(BugType.BUFFER_OVERFLOW, s)
        assert pool.find(BugType.BUFFER_OVERFLOW, s) is patch
        pool.remove(patch.patch_id)
        assert pool.find(BugType.BUFFER_OVERFLOW, s) is None
        again = pool.new_patch(BugType.BUFFER_OVERFLOW, s)
        assert again.patch_id != patch.patch_id

    def test_same_site_different_bug_types_distinct(self):
        pool = PatchPool("app")
        s = site(("f", 1))
        a = pool.new_patch(BugType.UNINIT_READ, s)
        b = pool.new_patch(BugType.BUFFER_OVERFLOW, s)
        assert a is not b
        assert pool.find(BugType.UNINIT_READ, s) is a
        assert pool.find(BugType.BUFFER_OVERFLOW, s) is b

    def test_remove_key(self):
        pool = PatchPool("app")
        s = site(("f", 1))
        patch = pool.new_patch(BugType.DOUBLE_FREE, s)
        removed = pool.remove_key(patch.key)
        assert removed is patch
        assert len(pool) == 0
        assert pool.remove_key(patch.key) is None

    def test_absorb_merges_by_key(self):
        pool = PatchPool("app")
        mine = pool.new_patch(BugType.BUFFER_OVERFLOW, site(("f", 1)))
        mine.trigger_count = 2
        other = PatchPool("app")
        theirs = other.new_patch(BugType.BUFFER_OVERFLOW, site(("f", 1)))
        theirs.trigger_count = 8
        theirs.validated = True
        foreign = other.new_patch(BugType.DOUBLE_FREE, site(("g", 2)))
        assert pool.absorb([theirs, foreign])
        assert len(pool) == 2
        assert mine.trigger_count == 8 and mine.validated
        # absorbing the same state again changes nothing
        assert not pool.absorb([theirs, foreign])


class TestRoundTripProperties:
    """Hypothesis: random pools survive the wire form exactly, and
    the shared store merges them as a union."""

    from hypothesis import given, settings, strategies as st

    bug_types = st.sampled_from(list(ALL_BUG_TYPES))
    frames = st.lists(
        st.tuples(st.sampled_from(["f", "g", "h", "main"]),
                  st.integers(0, 40)),
        min_size=1, max_size=3)
    patch_specs = st.lists(
        st.tuples(bug_types, frames, st.integers(0, 1000),
                  st.booleans()),
        max_size=12)

    @staticmethod
    def build_pool(specs):
        pool = PatchPool("propapp")
        for bug_type, frames, triggers, validated in specs:
            patch = pool.new_patch(bug_type, site(*frames))
            patch.trigger_count = max(patch.trigger_count, triggers)
            patch.validated = patch.validated or validated
        return pool

    @staticmethod
    def pool_fingerprint(pool):
        return sorted(
            (p.key, p.patch_id, p.trigger_count, p.validated,
             p.created_time_ns) for p in pool.patches())

    @given(specs=patch_specs)
    @settings(max_examples=40, deadline=None)
    def test_wire_form_exact(self, specs):
        pool = self.build_pool(specs)
        rebuilt = PatchPool.from_patches(
            "propapp", [p.to_json() for p in pool.patches()])
        assert self.pool_fingerprint(rebuilt) == \
            self.pool_fingerprint(pool)

    @given(specs=patch_specs, other_specs=patch_specs)
    @settings(max_examples=40, deadline=None)
    def test_store_merge_is_a_union(self, specs, other_specs,
                                    tmp_path_factory):
        """Two pools publishing interleaved: the store ends with the
        union, max trigger counts, sticky validated flags."""
        from repro.store import SharedPatchStore
        a, b = self.build_pool(specs), self.build_pool(other_specs)
        path = str(tmp_path_factory.mktemp("stores") / "s.json")
        s1 = SharedPatchStore(path, "propapp")
        s2 = SharedPatchStore(path, "propapp")
        s1.publish(a.patches())
        s2.publish(b.patches())
        state = s1.load()
        by_key = {}
        for p in list(a.patches()) + list(b.patches()):
            cur = by_key.setdefault(
                p.key, dict(trigger_count=0, validated=False))
            cur["trigger_count"] = max(cur["trigger_count"],
                                       p.trigger_count)
            cur["validated"] = cur["validated"] or p.validated
        assert set(state.patches) == set(by_key)
        for key, expected in by_key.items():
            got = state.patches[key]
            assert got["trigger_count"] == expected["trigger_count"]
            assert got["validated"] == expected["validated"]

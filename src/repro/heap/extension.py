"""First-Aid's memory allocator extension.

The extension (paper Section 3) wraps the underlying Lea allocator and
operates in one of three modes:

* **normal** -- every allocation/deallocation call-site is checked
  against the available runtime patches; matching objects get the
  patch's preventive change.  This is the only extension work during
  bug-free production execution, which is why overhead stays low.
* **diagnostic** -- applies preventive and/or exposing changes as
  instructed by the diagnostic engine (through a
  :class:`ChangePolicy`), captures multi-level call-sites for every
  operation, and checks deallocation parameters to catch double frees.
* **validation** -- additionally randomizes placement (the machine is
  given a :class:`~repro.heap.random_alloc.RandomizedLeaAllocator`) and
  traces memory-management operations plus illegal memory accesses
  (this repo's stand-in for Pin instrumentation).

The extension also exists in a fourth, **off** state used only for the
"original allocator" baseline in the overhead experiments: requests are
forwarded untouched and nothing is recorded or charged.

Padding geometry follows the paper: ~1 KB of padding per patched object
(Table 5 reports 1016 bytes), split across both ends of the object.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.bugtypes import BugType
from repro.errors import HeapCorruptionFault, SampledGuardFault
from repro.heap.allocator import LeaAllocator
from repro.heap.base import Memory
from repro.heap.canary import CanaryStats, canary_fill, corrupted_offsets
from repro.heap.chunk import HEADER_SIZE
from repro.heap.quarantine import (
    DEFAULT_THRESHOLD,
    ORIGIN_PATCH,
    ORIGIN_SAMPLED,
    DelayFreeQuarantine,
)
from repro.util.callsite import CallSite
from repro.util.simclock import CostModel, SimClock

#: Per-object metadata footprint reported by the paper (Section 7.6.2).
METADATA_BYTES = 16

#: Default padding split: 504 + 512 = 1016 bytes, matching Table 5.
PAD_PRE = 504
PAD_POST = 512

#: Bounds no simulated address reaches.  The watched-interval index
#: starts with a ``[_FLOOR, _FLOOR)`` sentinel so that
#: ``bisect_right(starts, addr) - 1`` is never negative and
#: ``addr < ends[i]`` is the whole membership test.
_FLOOR = -(1 << 128)
_CEILING = 1 << 128

#: The index handed out when the extension charges trace time to a
#: clock other than the machine's: one interval covering every address,
#: so every traced access calls ``note_access`` and is charged exactly
#: as the reference interpreter charges it.
_WATCH_ALL = ((_FLOOR,), (_CEILING,))


class ExtensionMode(Enum):
    OFF = "off"
    NORMAL = "normal"
    DIAGNOSTIC = "diagnostic"
    VALIDATION = "validation"


class ObjectState(Enum):
    LIVE = "live"
    QUARANTINED = "quarantined"
    FREED = "freed"


@dataclass
class AllocDecision:
    """What to do to one object at allocation time."""

    pad_pre: int = 0
    pad_post: int = 0
    canary_pad: bool = False        # fill padding with canary (exposing)
    fill: Optional[str] = None      # None | "zero" | "canary"
    patch_id: Optional[int] = None  # patch that caused this, if any

    @classmethod
    def plain(cls) -> "AllocDecision":
        return cls()


@dataclass
class FreeDecision:
    """What to do to one object at deallocation time."""

    delay: bool = False
    canary_fill: bool = False       # fill contents with canary (exposing)
    check_param: bool = False       # swallow frees of non-live pointers
    patch_id: Optional[int] = None

    @classmethod
    def plain(cls) -> "FreeDecision":
        return cls()


class ChangePolicy:
    """Decides the environmental changes for each operation.

    Subclassed by the diagnostic engine (whole-heap or per-call-site
    changes) and by the patch pool (normal mode).  The default applies
    nothing.
    """

    def on_alloc(self, callsite: Optional[CallSite]) -> AllocDecision:
        return AllocDecision.plain()

    def on_free(self, callsite: Optional[CallSite],
                user_addr: int) -> FreeDecision:
        return FreeDecision.plain()


@dataclass
class ObjectInfo:
    """Extension-side record of one object (the 16-byte metadata)."""

    user_addr: int
    user_size: int
    block_addr: int        # allocator-level address (start of pre-pad)
    block_size: int
    pad_pre: int
    pad_post: int
    canary_pad: bool
    fill: Optional[str]
    alloc_site: Optional[CallSite]
    alloc_seq: int
    patch_id: Optional[int] = None
    sampled: bool = False  # promoted to a guarded allocation by sampling
    state: ObjectState = ObjectState.LIVE
    free_site: Optional[CallSite] = None
    free_patch_id: Optional[int] = None
    canary_filled_on_free: bool = False
    written: Optional[bytearray] = None  # init-tracking (validation only)

    def copy(self) -> "ObjectInfo":
        """A private copy, ``written`` included.  Copies the instance
        dict directly: a quarter of the cost of ``copy.copy``, and this
        runs on the first write to every record a checkpoint shares."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        if self.written is not None:
            twin.written = bytearray(self.written)
        return twin

    def contains(self, addr: int) -> bool:
        return self.user_addr <= addr < self.user_addr + self.user_size

    def in_pre_pad(self, addr: int) -> bool:
        return self.block_addr <= addr < self.user_addr

    def in_post_pad(self, addr: int) -> bool:
        end = self.user_addr + self.user_size
        return self.pad_post > 0 and end <= addr < self.block_addr + self.block_size


@dataclass(frozen=True)
class MMTraceEntry:
    """One line of the memory-management trace (bug report item 4)."""

    seq: int
    op: str                # "malloc" | "free"
    user_addr: int
    size: int
    callsite: Optional[CallSite]
    patch_id: Optional[int]
    delayed: bool = False
    fill: Optional[str] = None

    def render(self) -> str:
        site = (f" @{self.callsite.innermost[0]}"
                if self.callsite else "")
        extra = ""
        if self.delayed:
            extra = f"  (delayed, patch {self.patch_id})"
        elif self.patch_id is not None:
            extra = f"  (patch {self.patch_id})"
        if self.op == "malloc":
            return f"malloc({self.size}): 0x{self.user_addr:x}{site}{extra}"
        return f"free(0x{self.user_addr:x}){site}{extra}"


@dataclass(frozen=True)
class IllegalAccess:
    """One traced illegal access (bug report item 5).

    ``offset`` is relative to the start of the affected object, so it is
    stable under address randomization -- consistency criterion (c) of
    the validation algorithm compares exactly (instr_id, offset, kind).
    """

    kind: str              # "overflow-write" | "dangling-read" |
                           # "dangling-write" | "uninit-read"
    instr_id: Tuple[str, int]
    offset: int
    is_write: bool
    site: Optional[CallSite]
    patch_id: Optional[int]

    def identity(self) -> tuple:
        return (self.kind, self.instr_id, self.offset, self.is_write)


@dataclass
class OverflowHit:
    user_addr: int
    user_size: int
    alloc_site: Optional[CallSite]
    side: str              # "pre" | "post"
    offsets: List[int]


@dataclass
class DanglingWriteHit:
    user_addr: int
    user_size: int
    free_site: Optional[CallSite]
    offsets: List[int]


@dataclass
class DoubleFreeEvent:
    user_addr: int
    second_site: Optional[CallSite]
    first_site: Optional[CallSite]


@dataclass
class Manifestations:
    """Everything a manifestation scan can report."""

    overflow_hits: List[OverflowHit] = field(default_factory=list)
    dangling_write_hits: List[DanglingWriteHit] = field(default_factory=list)
    double_free_events: List[DoubleFreeEvent] = field(default_factory=list)

    def any(self) -> bool:
        return bool(self.overflow_hits or self.dangling_write_hits
                    or self.double_free_events)


class _HeapInstruments:
    """The extension's registry instruments (telemetry enabled only).

    malloc/free are already heavyweight operations (policy lookup,
    canary fills), so direct instrument updates here are fine -- the
    batching discipline only matters on the per-instruction VM path.
    """

    __slots__ = ("mallocs", "frees", "bad_frees", "alloc_size",
                 "patch_triggers", "padding_bytes", "metadata_bytes",
                 "quarantine_bytes", "quarantine_objects",
                 "canary_checks", "canary_corruptions",
                 "live_bytes", "peak_bytes",
                 "sampled_allocs", "sampled_detections",
                 "sampled_suppressed", "sampled_scans")

    def __init__(self, registry):
        self.mallocs = registry.counter("heap.mallocs")
        self.frees = registry.counter("heap.frees")
        self.bad_frees = registry.counter("heap.bad_frees")
        self.alloc_size = registry.histogram("heap.alloc_size")
        self.patch_triggers = registry.counter("heap.patch_triggers")
        self.padding_bytes = registry.gauge("heap.padding_bytes")
        self.metadata_bytes = registry.gauge("heap.metadata_bytes")
        self.quarantine_bytes = registry.gauge("heap.quarantine_bytes")
        self.quarantine_objects = registry.gauge("heap.quarantine_objects")
        self.canary_checks = registry.gauge("heap.canary_checks")
        self.canary_corruptions = registry.gauge("heap.canary_corruptions")
        self.live_bytes = registry.gauge("heap.live_bytes")
        self.peak_bytes = registry.gauge("heap.peak_bytes")
        self.sampled_allocs = registry.gauge("sampling.sampled_allocs")
        self.sampled_detections = registry.gauge("sampling.detections")
        self.sampled_suppressed = registry.gauge("sampling.suppressed")
        self.sampled_scans = registry.gauge("sampling.guard_scans")

    def sync_allocator(self, allocator) -> None:
        stats = allocator.stats()
        self.live_bytes.set(stats["live_user_bytes"])
        self.peak_bytes.set(stats["peak_heap_bytes"])


class AllocatorExtension:
    """The allocator extension; the VM routes malloc/free through it."""

    def __init__(self, mem: Memory, allocator: LeaAllocator,
                 mode: ExtensionMode = ExtensionMode.NORMAL,
                 policy: Optional[ChangePolicy] = None,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 quarantine_threshold: int = DEFAULT_THRESHOLD):
        self.mem = mem
        self.allocator = allocator
        self.mode = mode
        self.policy = policy or ChangePolicy()
        self.clock = clock
        self.costs = costs or CostModel()
        self.quarantine = DelayFreeQuarantine(
            self._release_quarantined, quarantine_threshold)

        # Sampled always-on detection (GWP-ASan-style): when a
        # SampleSelector is attached, every 1/N allocations in NORMAL
        # mode is promoted to a guarded allocation (redzone canaries +
        # delayed-free canary fill); a guard hit raises
        # SampledGuardFault with the attribution already in hand.
        # None (the default) leaves every code path byte-identical to
        # the pre-sampling build.
        self.sampler = None
        self.sampling_stats = None
        #: Optional chaos fault plan: an armed "sampled_false_positive"
        #: forces a guard hit on the next sampled free even though the
        #: canaries are intact (exercises validation's rejection path).
        self.sampling_chaos = None
        #: True while the runtime is inside recovery (rollback
        #: re-execution, any ladder rung): the replayed window was
        #: already sampled once, and a fresh guard raised mid-replay
        #: would read as "re-execution failed" and walk the ladder on a
        #: window the patch just fixed.  Transient control state --
        #: deliberately not part of snapshot/restore.
        self.sampling_paused = False

        self._objects: Dict[int, ObjectInfo] = {}
        #: User addresses whose record in ``_objects`` this extension
        #: created itself since its last snapshot or restore.  Every
        #: other record may be shared with a checkpoint (or with another
        #: extension restored from the same one) and is copied before
        #: its first write: see :meth:`_own`.
        self._owned: Set[int] = set()
        self._starts: List[int] = []            # sorted block starts
        self._by_start: Dict[int, int] = {}     # block start -> user addr
        #: Watched-interval index (see :meth:`watch_index`): sorted,
        #: disjoint ``[start, end)`` intervals where a traced access can
        #: do more than charge ``trace_ns``.  Parallel start/end lists,
        #: sentinel first; None until the first traced run after a
        #: restore, then kept current in place.  Not part of snapshots.
        self._wst: Optional[List[int]] = None
        self._wend: Optional[List[int]] = None
        self._alloc_seq = 0

        # Memory-pressure failsafe (paper Section 2): when the extra
        # memory held by runtime patches (padding + delay-freed
        # objects) exceeds this limit, patching is disabled and the
        # oldest delay-freed objects are released.  None = unlimited.
        self.patch_memory_limit: Optional[int] = None
        self.patching_disabled = False

        # Manifestation evidence accumulated during a (re-)execution.
        self._overflow_hits: List[OverflowHit] = []
        self._dangling_write_hits: List[DanglingWriteHit] = []
        self._double_free_events: List[DoubleFreeEvent] = []

        # Traces (diagnostic + validation modes).
        self.mm_trace: List[MMTraceEntry] = []
        self.illegal_accesses: List[IllegalAccess] = []
        self.trace_mm = False

        # Statistics for the space-overhead experiments.
        self.metadata_bytes = 0
        self.peak_metadata_bytes = 0
        self.padding_bytes = 0
        self.peak_padding_bytes = 0
        self.patch_trigger_count = 0

        # Telemetry (attach_telemetry): canary activity tally plus
        # optional registry instruments and flight-recorder feed.
        self.canary_stats = CanaryStats()
        self._tm: Optional[_HeapInstruments] = None
        self._flight = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Register heap instruments and the flight-recorder feed.

        A disabled telemetry object attaches nothing, keeping
        malloc/free free of instrument updates.
        """
        if telemetry is None or not telemetry.enabled:
            self._tm = None
            self._flight = None
            self.quarantine.observer = None
            return
        self._tm = _HeapInstruments(telemetry.metrics)
        self._flight = telemetry.recorder

        def _quarantine_observer(nbytes: int, count: int) -> None:
            tm = self._tm
            if tm is not None:
                tm.quarantine_bytes.set(nbytes)
                tm.quarantine_objects.set(count)

        self.quarantine.observer = _quarantine_observer

    def _sync_canary_metrics(self) -> None:
        tm = self._tm
        if tm is not None:
            tm.canary_checks.set(self.canary_stats.checks)
            tm.canary_corruptions.set(self.canary_stats.corruptions)

    def _sync_sampling_metrics(self) -> None:
        tm = self._tm
        stats = self.sampling_stats
        if tm is None or stats is None:
            return
        tm.sampled_allocs.set(stats.sampled_allocs)
        tm.sampled_detections.set(stats.detections)
        tm.sampled_suppressed.set(stats.suppressed)
        tm.sampled_scans.set(stats.guard_scans)

    # ------------------------------------------------------------------
    # sampled always-on detection
    # ------------------------------------------------------------------

    def attach_sampler(self, selector) -> None:
        """Enable GWP-ASan-style sampled detection: ``selector`` is a
        :class:`repro.sampling.SampleSelector` (or None to disable)."""
        self.sampler = selector
        if selector is None:
            self.sampling_stats = None
        else:
            from repro.sampling import SamplingStats
            self.sampling_stats = SamplingStats()

    def _sampling_active(self) -> bool:
        # sampling_paused deliberately does NOT gate this: selection,
        # promotion, and accounting continue through a recovery replay
        # (rollback restored the work counters, so re-counting the
        # replayed window is counting it exactly once) and the
        # post-recovery tail of the session stays guarded.  The pause
        # only swallows the *raise* -- see _raise_guard.
        return (self.sampler is not None
                and self.mode is ExtensionMode.NORMAL
                and not self.patching_disabled)

    def _raise_guard(self, detection, address: int) -> None:
        """Raise a guard hit -- unless sampling is paused (recovery is
        replaying a window the guards already saw; a fresh raise
        mid-replay would fail the rung), or a patch for this exact
        (bug type, site) already exists, in which case the bug is
        already being prevented and re-raising would loop the pipeline
        on its own patch forever."""
        if self.sampling_paused:
            return
        stats = self.sampling_stats
        site = detection.site
        has_patch = getattr(self.policy, "has_patch", None)
        if (site is not None and has_patch is not None
                and has_patch(detection.bug_type, site)):
            stats.suppressed += 1
            self._sync_sampling_metrics()
            return
        stats.detections += 1
        if not stats.first_detection_ns:
            stats.first_detection_ns = \
                self.clock.now_ns if self.clock else 0
        self._sync_sampling_metrics()
        raise SampledGuardFault(detection.describe(), address=address,
                                detection=detection)

    def _make_detection(self, bug_type, obj: ObjectInfo,
                        free_site: Optional[CallSite],
                        offset: Optional[int]):
        from repro.core.bugtypes import BugType as _BT
        from repro.sampling import SampledDetection
        if (bug_type is _BT.BUFFER_OVERFLOW and offset is not None
                and offset < 0):
            # Corruption in the guarded object's *pre* redzone: the
            # victim did not overstep itself -- its left neighbour ran
            # off its end.  Attribute the culprit, not the victim, or
            # the fast-path patch pads an object nothing oversteps.
            culprit = self._left_neighbor(obj)
            if culprit is not None:
                return SampledDetection(
                    bug_type=bug_type, alloc_site=culprit.alloc_site,
                    free_site=free_site, size=culprit.user_size,
                    offset=obj.user_addr + offset - culprit.user_addr,
                    alloc_seq=culprit.alloc_seq,
                    time_ns=self.clock.now_ns if self.clock else 0)
        return SampledDetection(
            bug_type=bug_type, alloc_site=obj.alloc_site,
            free_site=free_site, size=obj.user_size, offset=offset,
            alloc_seq=obj.alloc_seq,
            time_ns=self.clock.now_ns if self.clock else 0)

    def _left_neighbor(self, obj: ObjectInfo) -> Optional[ObjectInfo]:
        """Nearest tracked object whose block precedes ``obj``'s."""
        i = bisect.bisect_left(self._starts, obj.block_addr) - 1
        if i < 0:
            return None
        neighbor = self._objects.get(self._by_start[self._starts[i]])
        if neighbor is None or neighbor.state is ObjectState.FREED:
            return None
        return neighbor

    def _guard_redzone_offsets(self, obj: ObjectInfo) -> Optional[int]:
        """First corrupted redzone offset of a guarded object (relative
        to the user payload start; negative = pre redzone), or None."""
        stats = self.canary_stats
        pre = corrupted_offsets(self.mem, obj.block_addr, obj.pad_pre,
                                stats)
        post = corrupted_offsets(self.mem, obj.user_addr + obj.user_size,
                                 obj.pad_post, stats)
        self._sync_canary_metrics()
        if post:
            return obj.user_size + post[0]
        if pre:
            return pre[0] - obj.pad_pre
        return None

    def check_sampled_guards(self) -> None:
        """Boundary sweep over currently-guarded objects: live guards'
        redzones and quarantined guards' free canaries.  Raises
        :class:`SampledGuardFault` on the first corruption found --
        this is what makes detection *timely* rather than waiting for
        the guarded object's free or eviction.  The runtime calls this
        at checkpoint boundaries; it is a no-op outside NORMAL mode or
        without a sampler."""
        if not self._sampling_active():
            return
        from repro.core.bugtypes import BugType
        self.sampling_stats.guard_scans += 1
        scanned = 0
        for obj in self._objects.values():
            if not obj.sampled or obj.state is ObjectState.FREED:
                continue
            if obj.state is ObjectState.LIVE and obj.canary_pad:
                scanned += obj.pad_pre + obj.pad_post
                offset = self._guard_redzone_offsets(obj)
                if offset is not None:
                    self._charge(self.costs.fill_cost(scanned))
                    self._raise_guard(self._make_detection(
                        BugType.BUFFER_OVERFLOW, obj, None, offset),
                        obj.user_addr)
            elif (obj.state is ObjectState.QUARANTINED
                  and obj.canary_filled_on_free
                  and obj.free_patch_id is None):
                scanned += obj.user_size
                offs = corrupted_offsets(self.mem, obj.user_addr,
                                         obj.user_size, self.canary_stats)
                if offs:
                    self._sync_canary_metrics()
                    self._charge(self.costs.fill_cost(scanned))
                    self._raise_guard(self._make_detection(
                        BugType.DANGLING_WRITE, obj, obj.free_site,
                        offs[0]), obj.user_addr)
        self._charge(self.costs.fill_cost(scanned))
        self._sync_canary_metrics()
        self._sync_sampling_metrics()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _charge(self, ns: int) -> None:
        if self.clock is not None and ns:
            self.clock.charge(ns)

    def _index_add(self, obj: ObjectInfo) -> None:
        bisect.insort(self._starts, obj.block_addr)
        self._by_start[obj.block_addr] = obj.user_addr

    def _index_remove(self, obj: ObjectInfo) -> None:
        i = bisect.bisect_left(self._starts, obj.block_addr)
        if i < len(self._starts) and self._starts[i] == obj.block_addr:
            self._starts.pop(i)
        self._by_start.pop(obj.block_addr, None)

    def _own(self, obj: ObjectInfo) -> ObjectInfo:
        """The record for ``obj.user_addr`` that this extension may
        mutate in place: ``obj`` itself if this extension created it
        since its last snapshot or restore, otherwise a private copy
        that replaces it in ``_objects``.  Snapshots share records
        instead of copying them, so every write goes through here."""
        addr = obj.user_addr
        if addr in self._owned:
            return obj
        obj = obj.copy()
        self._objects[addr] = obj
        self._owned.add(addr)
        return obj

    def find_object(self, addr: int) -> Optional[ObjectInfo]:
        """Tracked object whose *block* (padding included) covers addr."""
        i = bisect.bisect_right(self._starts, addr) - 1
        if i < 0:
            return None
        start = self._starts[i]
        obj = self._objects.get(self._by_start[start])
        if obj and start <= addr < start + obj.block_size:
            return obj
        return None

    def live_objects(self) -> List[ObjectInfo]:
        return [o for o in self._objects.values()
                if o.state is ObjectState.LIVE]

    def object_at(self, user_addr: int) -> Optional[ObjectInfo]:
        return self._objects.get(user_addr)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def malloc(self, size: int, callsite: Optional[CallSite]) -> int:
        mode = self.mode
        if mode is ExtensionMode.OFF:
            return self.allocator.malloc(size)

        clock = self.clock
        costs = self.costs
        # The op cost is charged before the policy and the allocator
        # run: either may observe the clock or raise.
        if clock is not None:
            if mode is ExtensionMode.NORMAL:
                clock.charge(costs.extension_ns + costs.patch_lookup_ns)
            elif mode is ExtensionMode.DIAGNOSTIC:
                clock.charge(2 * costs.extension_ns)
            else:
                clock.charge(3 * costs.extension_ns)
        decision = self.policy.on_alloc(callsite)
        if self.patching_disabled and decision.patch_id is not None:
            decision = AllocDecision.plain()
        sampled = False
        if (self.sampler is not None and mode is ExtensionMode.NORMAL
                and not self.patching_disabled):
            self.sampling_stats.allocs += 1
            if (decision.patch_id is None
                    and self.sampler.picks(self._alloc_seq + 1)):
                # Promote to a guarded allocation: redzone canaries on
                # both sides.  A patched site is already protected, so
                # sampling only guards unpatched allocations (this is
                # also what keeps a recovered run from re-detecting its
                # own bug).
                sampled = True
                decision = AllocDecision(pad_pre=PAD_PRE,
                                         pad_post=PAD_POST,
                                         canary_pad=True,
                                         fill=decision.fill)
                self.sampling_stats.sampled_allocs += 1
                self._sync_sampling_metrics()
        pad_pre = decision.pad_pre
        pad_post = decision.pad_post
        fill = decision.fill
        block_addr, block_size = self.allocator.malloc_usable(
            pad_pre + size + pad_post)
        user_addr = block_addr + pad_pre

        # Fills neither raise nor read the clock: their cost is
        # charged once, as the sum of the per-fill charges.
        fill_ns = 0
        if decision.canary_pad:
            canary_fill(self.mem, block_addr, pad_pre, self.canary_stats)
            canary_fill(self.mem, user_addr + size, pad_post,
                        self.canary_stats)
            fill_ns = costs.fill_cost(pad_pre + pad_post)
        if fill == "zero":
            if size:
                self.mem.fill(user_addr, 0, size)
            fill_ns += costs.fill_cost(size)
        elif fill == "canary":
            canary_fill(self.mem, user_addr, size, self.canary_stats)
            fill_ns += costs.fill_cost(size)
        if fill_ns and clock is not None:
            clock.charge(fill_ns)

        self._alloc_seq += 1
        obj = ObjectInfo(
            user_addr=user_addr, user_size=size,
            block_addr=block_addr, block_size=block_size,
            pad_pre=pad_pre, pad_post=pad_post,
            canary_pad=decision.canary_pad, fill=fill,
            alloc_site=callsite, alloc_seq=self._alloc_seq,
            patch_id=decision.patch_id, sampled=sampled,
        )
        if mode is ExtensionMode.VALIDATION and fill == "zero":
            obj.written = bytearray(size)
        rebuild = False
        if self._wst is not None:
            # A tracked record this one displaces (possible only when a
            # corrupted heap hands out overlapping chunks) changes the
            # answer of every bucket that maps to it: rebuild.
            prev = self._objects.get(user_addr)
            rebuild = (prev is not None
                       and prev.state is not ObjectState.FREED)
        self._objects[user_addr] = obj
        self._owned.add(user_addr)
        self._index_add(obj)
        if rebuild:
            self._build_watch()
        elif self._wst is not None and (
                pad_pre or pad_post or obj.written is not None
                or self._reached_from_left(block_addr)):
            self._rewatch(block_addr)

        self.metadata_bytes += METADATA_BYTES
        if self.metadata_bytes > self.peak_metadata_bytes:
            self.peak_metadata_bytes = self.metadata_bytes
        pad = pad_pre + pad_post
        if pad:
            self.padding_bytes += pad
            if self.padding_bytes > self.peak_padding_bytes:
                self.peak_padding_bytes = self.padding_bytes
        if decision.patch_id is not None:
            self.patch_trigger_count += 1
        if self.trace_mm:
            self.mm_trace.append(MMTraceEntry(
                seq=self._alloc_seq, op="malloc", user_addr=user_addr,
                size=size, callsite=callsite, patch_id=decision.patch_id,
                fill=fill))
        tm = self._tm
        if tm is not None:
            tm.mallocs.inc()
            tm.alloc_size.observe(size)
            tm.padding_bytes.set(self.padding_bytes)
            tm.metadata_bytes.set(self.metadata_bytes)
            tm.sync_allocator(self.allocator)
            if decision.patch_id is not None:
                tm.patch_triggers.inc()
        if self._flight is not None:
            self._flight.record_mm(
                clock.now_ns if clock else 0, "malloc",
                user_addr, size,
                callsite.innermost[0] if callsite else None,
                decision.patch_id)
        if decision.patch_id is not None:
            self._enforce_patch_memory()
        return user_addr

    # ------------------------------------------------------------------
    # deallocation
    # ------------------------------------------------------------------

    def free(self, user_addr: int, callsite: Optional[CallSite]) -> None:
        mode = self.mode
        if mode is ExtensionMode.OFF:
            self.allocator.free(user_addr)
            return

        clock = self.clock
        if clock is not None:
            costs = self.costs
            if mode is ExtensionMode.NORMAL:
                clock.charge(costs.extension_ns + costs.patch_lookup_ns)
            elif mode is ExtensionMode.DIAGNOSTIC:
                clock.charge(2 * costs.extension_ns)
            else:
                clock.charge(3 * costs.extension_ns)
        obj = self._objects.get(user_addr)

        if obj is None or obj.state is not ObjectState.LIVE:
            self._handle_bad_free(user_addr, callsite, obj)
            return

        decision = self.policy.on_free(callsite, user_addr)
        if self.patching_disabled and decision.patch_id is not None:
            decision = FreeDecision.plain()
        guarded = (obj.sampled and self.sampler is not None
                   and mode is ExtensionMode.NORMAL
                   and not self.patching_disabled)
        if guarded:
            # Free-time redzone check: an overflow is caught here,
            # before the corrupted neighbourhood is ever dereferenced
            # (i.e. before the eventual crash).
            offset = self._guard_redzone_offsets(obj)
            if offset is not None:
                self._raise_guard(self._make_detection(
                    BugType.BUFFER_OVERFLOW, obj, callsite, offset),
                    user_addr)
            chaos = self.sampling_chaos
            if (chaos is not None and decision.patch_id is None
                    and not self.sampling_paused
                    and chaos.take("sampled_false_positive")):
                # Injected false positive: the guard "fires" on an
                # intact object.  Validation must reject the resulting
                # patch (the unpatched baseline passes).
                self._raise_guard(self._make_detection(
                    BugType.BUFFER_OVERFLOW, obj, callsite, None),
                    user_addr)
        obj = self._own(obj)
        obj.free_site = callsite
        obj.free_patch_id = decision.patch_id
        self._alloc_seq += 1
        if decision.patch_id is not None:
            self.patch_trigger_count += 1

        if guarded and decision.patch_id is None and not decision.delay:
            # Promote to a guarded free: delayed-free quarantine with
            # free-canary fill, so a dangling write lands in memory
            # nobody owns and is detected at the next boundary sweep.
            decision = FreeDecision(delay=True, canary_fill=True,
                                    check_param=True)
            self.sampling_stats.sampled_frees += 1

        if decision.delay:
            obj.state = ObjectState.QUARANTINED
            obj.canary_filled_on_free = decision.canary_fill
            if self._wst is not None:
                self._rewatch(obj.block_addr)
            if decision.canary_fill:
                canary_fill(self.mem, user_addr, obj.user_size,
                            self.canary_stats)
                if clock is not None:
                    clock.charge(self.costs.fill_cost(obj.user_size))
            origin = ORIGIN_SAMPLED if (guarded
                                        and decision.patch_id is None) \
                else ORIGIN_PATCH
            self.quarantine.add(user_addr, obj.user_size, callsite,
                                decision.canary_fill, decision.patch_id,
                                origin=origin)
        else:
            self._really_free(obj)

        if self.trace_mm:
            self.mm_trace.append(MMTraceEntry(
                seq=self._alloc_seq, op="free", user_addr=user_addr,
                size=obj.user_size, callsite=callsite,
                patch_id=decision.patch_id, delayed=decision.delay))
        tm = self._tm
        if tm is not None:
            tm.frees.inc()
            tm.padding_bytes.set(self.padding_bytes)
            tm.metadata_bytes.set(self.metadata_bytes)
            tm.sync_allocator(self.allocator)
            if decision.patch_id is not None:
                tm.patch_triggers.inc()
        if self._flight is not None:
            self._flight.record_mm(
                clock.now_ns if clock else 0, "free",
                user_addr, obj.user_size,
                callsite.innermost[0] if callsite else None,
                decision.patch_id)
        if decision.patch_id is not None:
            self._enforce_patch_memory()

    def _handle_bad_free(self, user_addr: int,
                         callsite: Optional[CallSite],
                         obj: Optional[ObjectInfo]) -> None:
        """Free of a pointer that is not a live object: a double free or
        a wild free.  With the parameter check active (delay-free patch
        or diagnostic mode) it is recorded and swallowed; otherwise it is
        forwarded and the allocator aborts, crashing the program."""
        decision = self.policy.on_free(callsite, user_addr)
        if (obj is not None and obj.state is ObjectState.QUARANTINED
                and obj.sampled and self._sampling_active()
                and decision.patch_id is None):
            # A guarded object freed twice: without the sampled delay
            # the first free would have really freed it and this one
            # would have crashed the allocator.  Pre-crash detection
            # with both free sites in hand.
            self._raise_guard(self._make_detection(
                BugType.DOUBLE_FREE, obj, obj.free_site or callsite,
                None), user_addr)
        # A quarantined object is no longer the allocator's to free, so
        # the extension must intercept regardless of policy; otherwise
        # the check runs only when a policy/patch requests it.
        check = decision.check_param or (
            obj is not None and obj.state is ObjectState.QUARANTINED)
        first_site = obj.free_site if obj is not None else None
        if check:
            self._double_free_events.append(
                DoubleFreeEvent(user_addr, callsite, first_site))
            if self._tm is not None:
                self._tm.bad_frees.inc()
            if decision.patch_id is not None:
                self.patch_trigger_count += 1
            if self.trace_mm:
                self._alloc_seq += 1
                self.mm_trace.append(MMTraceEntry(
                    seq=self._alloc_seq, op="free", user_addr=user_addr,
                    size=obj.user_size if obj else 0, callsite=callsite,
                    patch_id=decision.patch_id, delayed=True))
            return
        # No protection: the program crashes as a raw run would (glibc
        # aborts with "double free or corruption").
        if obj is not None:
            raise HeapCorruptionFault(
                f"double free of 0x{user_addr:x}", address=user_addr)
        self.allocator.free(user_addr)

    def _really_free(self, obj: ObjectInfo) -> None:
        if obj.canary_pad:
            self._check_pad_canaries(obj)
        watched = (obj.state is ObjectState.QUARANTINED or obj.pad_pre
                   or obj.pad_post or obj.written is not None)
        obj = self._own(obj)
        obj.state = ObjectState.FREED
        self._index_remove(obj)
        if self._wst is not None and (
                watched or self._reached_from_left(obj.block_addr)):
            self._rewatch(obj.block_addr)
        self.metadata_bytes -= METADATA_BYTES
        pad = obj.pad_pre + obj.pad_post
        if pad:
            self.padding_bytes -= pad
        self.allocator.free(obj.block_addr)

    def _release_quarantined(self, user_addr: int) -> None:
        """Quarantine eviction callback: perform the real free."""
        obj = self._objects.get(user_addr)
        if obj is None:
            return
        if obj.canary_filled_on_free:
            offs = self._check_quarantine_canary(obj)
            if (offs and obj.sampled and self._sampling_active()
                    and obj.free_patch_id is None):
                # Last-chance dangling-write detection before the
                # guarded object's memory is recycled.  Rollback
                # restores the heap, so the half-evicted state this
                # raise leaves behind never survives recovery.
                self._raise_guard(self._make_detection(
                    BugType.DANGLING_WRITE, obj, obj.free_site,
                    offs[0]), obj.user_addr)
        self._really_free(obj)

    # ------------------------------------------------------------------
    # memory-pressure failsafe
    # ------------------------------------------------------------------

    @property
    def patch_memory_bytes(self) -> int:
        """Extra memory currently held by runtime patches: live
        padding plus delay-freed objects."""
        return self.padding_bytes + self.quarantine.current_bytes

    def _enforce_patch_memory(self) -> None:
        """Disable patching and release the oldest delay-freed
        objects once the user-defined limit is exceeded (paper
        Section 2: users choose how much memory to spend on
        reliability; releasing very old delay-freed objects is usually
        safe but may let the bug strike again)."""
        limit = self.patch_memory_limit
        if limit is None or self.patching_disabled:
            return
        if self.patch_memory_bytes <= limit:
            return
        self.patching_disabled = True
        while (self.quarantine.current_bytes > limit // 2
               and len(self.quarantine)):
            self.quarantine.pop_oldest()

    # ------------------------------------------------------------------
    # manifestation evidence
    # ------------------------------------------------------------------

    def _check_pad_canaries(self, obj: ObjectInfo) -> None:
        if not obj.canary_pad:
            return
        stats = self.canary_stats
        pre = corrupted_offsets(self.mem, obj.block_addr, obj.pad_pre,
                                stats)
        if pre:
            self._overflow_hits.append(OverflowHit(
                obj.user_addr, obj.user_size, obj.alloc_site, "pre", pre))
        post_start = obj.user_addr + obj.user_size
        post = corrupted_offsets(self.mem, post_start, obj.pad_post,
                                 stats)
        if post:
            self._overflow_hits.append(OverflowHit(
                obj.user_addr, obj.user_size, obj.alloc_site, "post", post))
        self._sync_canary_metrics()

    def _check_quarantine_canary(self, obj: ObjectInfo) -> List[int]:
        offs = corrupted_offsets(self.mem, obj.user_addr, obj.user_size,
                                 self.canary_stats)
        if offs:
            self._dangling_write_hits.append(DanglingWriteHit(
                obj.user_addr, obj.user_size, obj.free_site, offs))
        self._sync_canary_metrics()
        return offs

    def scan_manifestations(self) -> Manifestations:
        """Sweep all still-tracked objects for canary corruption and
        combine with events recorded along the way.  Called by the
        diagnostic engine at the end of each re-execution window."""
        for obj in self._objects.values():
            if obj.state is ObjectState.FREED:
                continue
            if obj.canary_pad:
                # Live or quarantined: padding canaries survive the
                # free (only the user region gets canary-filled), so
                # overflow evidence persists into the quarantine.
                self._check_pad_canaries(obj)
            if (obj.state is ObjectState.QUARANTINED
                    and obj.canary_filled_on_free):
                self._check_quarantine_canary(obj)
        return Manifestations(
            overflow_hits=self._dedupe_overflow(),
            dangling_write_hits=self._dedupe_dangling(),
            double_free_events=list(self._double_free_events),
        )

    def _dedupe_overflow(self) -> List[OverflowHit]:
        seen, out = set(), []
        for hit in self._overflow_hits:
            key = (hit.user_addr, hit.side)
            if key not in seen:
                seen.add(key)
                out.append(hit)
        return out

    def _dedupe_dangling(self) -> List[DanglingWriteHit]:
        seen, out = set(), []
        for hit in self._dangling_write_hits:
            if hit.user_addr not in seen:
                seen.add(hit.user_addr)
                out.append(hit)
        return out

    # ------------------------------------------------------------------
    # access tracing (validation mode -- the Pin analogue)
    # ------------------------------------------------------------------

    def note_access(self, addr: int, size: int, is_write: bool,
                    instr_id: Tuple[str, int]) -> None:
        """Classify one load/store against tracked objects.

        Only wired up in validation mode; the machine calls this for
        every LOAD/STORE when ``trace_accesses`` is set.
        """
        self._charge(self.costs.trace_ns)
        obj = self.find_object(addr)
        if obj is None:
            return
        if obj.state is ObjectState.QUARANTINED:
            self._record_illegal(IllegalAccess(
                kind="dangling-write" if is_write else "dangling-read",
                instr_id=instr_id, offset=addr - obj.user_addr,
                is_write=is_write, site=obj.free_site,
                patch_id=obj.free_patch_id))
            return
        if obj.state is not ObjectState.LIVE:
            return
        if is_write and (obj.in_pre_pad(addr) or obj.in_post_pad(addr)):
            self._record_illegal(IllegalAccess(
                kind="overflow-write", instr_id=instr_id,
                offset=addr - obj.user_addr, is_write=True,
                site=obj.alloc_site, patch_id=obj.patch_id))
            return
        if obj.written is not None and obj.contains(addr):
            off = addr - obj.user_addr
            end = min(off + size, obj.user_size)
            if is_write:
                written = self._own(obj).written
                for i in range(off, end):
                    written[i] = 1
            elif not all(obj.written[off:end]):
                self._record_illegal(IllegalAccess(
                    kind="uninit-read", instr_id=instr_id, offset=off,
                    is_write=False, site=obj.alloc_site,
                    patch_id=obj.patch_id))

    def note_watched(self, pending_ns: int, addr: int, size: int,
                     is_write: bool, instr_id: Tuple[str, int]) -> int:
        """The compiled tier's slow path for a traced access that hits
        the watched index: settle the block's deferred ``trace_ns``
        first, so the clock ``note_access`` (and the flight recorder)
        sees is the reference interpreter's, then classify.  Returns
        the new deferred amount (always 0)."""
        if pending_ns:
            self.clock.charge(pending_ns)
        self.note_access(addr, size, is_write, instr_id)
        return 0

    def watch_index(self, clock: SimClock) -> tuple:
        """``(starts, ends, trace_ns, note_watched)`` for the compiled
        tier's trace guard on a machine charging ``clock``.

        A traced access at ``addr`` can do more than charge
        ``trace_ns`` only when ``addr < ends[bisect_right(starts, addr)
        - 1]``: inside a quarantined block, a live object's pre-pad,
        its post-pad (when it has one), or the block of a live object
        with a ``written`` map.  Every other access only charges, and
        the guard may defer that charge -- but only into the clock the
        extension itself charges.  For any other clock the index
        watches everything, so every access goes through
        ``note_access`` and charges exactly as the reference
        interpreter does.  Built on the first traced run after a
        restore; the lists are then updated in place, so a run may hold
        them across malloc and free."""
        if self.clock is not clock:
            return _WATCH_ALL + (0, self.note_watched)
        if self._wst is None:
            self._wst, self._wend = [], []
            self._build_watch()
        return self._wst, self._wend, self.costs.trace_ns, self.note_watched

    def _build_watch(self) -> None:
        """Rebuild the whole watched index, in place."""
        self._wst[:] = [_FLOOR]
        self._wend[:] = [_FLOOR]
        for k in range(len(self._starts)):
            self._bucket_watch(k, self._wst, self._wend)

    def _bucket_watch(self, k: int, starts: List[int],
                      ends: List[int]) -> None:
        """Append the watched intervals of block-index bucket ``k``:
        the addresses for which :meth:`find_object` answers with the
        object recorded at ``self._starts[k]``, filtered as
        :meth:`note_access` classifies them."""
        block_starts = self._starts
        lo = block_starts[k]
        obj = self._objects.get(self._by_start[lo])
        if obj is None:
            return
        hi = lo + obj.block_size
        if k + 1 < len(block_starts) and block_starts[k + 1] < hi:
            hi = block_starts[k + 1]
        state = obj.state
        if state is ObjectState.QUARANTINED or (
                state is ObjectState.LIVE and obj.written is not None):
            spans = ((lo, hi),)
        elif state is ObjectState.LIVE:
            spans = [(obj.block_addr, obj.user_addr)]
            if obj.pad_post > 0:
                spans.append((obj.user_addr + obj.user_size,
                              obj.block_addr + obj.block_size))
        else:
            return
        for s, e in spans:
            s = s if s > lo else lo
            e = e if e < hi else hi
            if s < e:
                starts.append(s)
                ends.append(e)

    def _reached_from_left(self, block_addr: int) -> bool:
        """True when the tracked block before ``block_addr`` extends
        past it -- overlapping chunks, which only a corrupted heap
        hands out.  Otherwise adding or removing an unwatched object
        leaves the watched index as it is."""
        block_starts = self._starts
        i = bisect.bisect_left(block_starts, block_addr) - 1
        if i < 0:
            return False
        start = block_starts[i]
        prev = self._objects.get(self._by_start[start])
        return prev is not None and start + prev.block_size > block_addr

    def _rewatch(self, block_addr: int) -> None:
        """Bring the watched index up to date after the block at
        ``block_addr`` was added to, removed from, or changed state in
        the block index.  Only that bucket and its predecessor (whose
        find_object reach ends at the next block start) can change."""
        block_starts = self._starts
        k = bisect.bisect_left(block_starts, block_addr)
        first = k - 1 if k else 0
        stop = k + 1 if (k < len(block_starts)
                         and block_starts[k] == block_addr) else k
        lo = block_addr
        if block_starts and block_starts[first] < lo:
            lo = block_starts[first]
        hi = block_starts[stop] if stop < len(block_starts) else _CEILING
        wst, wend = self._wst, self._wend
        i = bisect.bisect_left(wst, lo)
        j = bisect.bisect_left(wst, hi, i)
        new_st: List[int] = []
        new_end: List[int] = []
        for b in range(first, stop):
            self._bucket_watch(b, new_st, new_end)
        wst[i:j] = new_st
        wend[i:j] = new_end

    def _record_illegal(self, access: IllegalAccess) -> None:
        self.illegal_accesses.append(access)
        if self._flight is not None:
            self._flight.record_access(
                self.clock.now_ns if self.clock else 0, access.kind,
                f"{access.instr_id[0]}:{access.instr_id[1]}",
                access.offset, access.is_write)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> tuple:
        # Records are shared with the snapshot, not copied: from here on
        # this extension owns none of them, so _own copies each one
        # before its first write.
        self._owned = set()
        return (
            dict(self._objects), list(self._starts), dict(self._by_start),
            self._alloc_seq, self.quarantine.snapshot(),
            list(self._overflow_hits), list(self._dangling_write_hits),
            list(self._double_free_events),
            list(self.mm_trace), list(self.illegal_accesses),
            self.metadata_bytes, self.peak_metadata_bytes,
            self.padding_bytes, self.peak_padding_bytes,
            self.patch_trigger_count, self.patching_disabled,
            self.sampling_stats.snapshot()
            if self.sampling_stats is not None else None,
        )

    def restore(self, snap: tuple) -> None:
        (objects, starts, by_start, seq, quarantine_snap,
         over, dang, dbl, mm, illegal,
         meta, peak_meta, pad, peak_pad, triggers, disabled,
         sampling_snap) = snap
        self._objects = dict(objects)
        self._owned = set()
        self._starts = list(starts)
        self._by_start = dict(by_start)
        self._wst = self._wend = None
        self._alloc_seq = seq
        self.quarantine.restore(quarantine_snap)
        self._overflow_hits = list(over)
        self._dangling_write_hits = list(dang)
        self._double_free_events = list(dbl)
        self.mm_trace = list(mm)
        self.illegal_accesses = list(illegal)
        self.metadata_bytes = meta
        self.peak_metadata_bytes = peak_meta
        self.padding_bytes = pad
        self.peak_padding_bytes = peak_pad
        self.patch_trigger_count = triggers
        self.patching_disabled = disabled
        if sampling_snap is not None and self.sampling_stats is not None:
            self.sampling_stats.restore(sampling_snap)

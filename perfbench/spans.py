"""In-memory span recording and the self-time arithmetic over it.

A span is one call into a traced entry point: its name, the session it
ran in, the span that was open when it started (its parent), and its
start and end on the host's monotonic clock.  Spans live in flat arrays
so that the hot leaf entries (``heap.malloc``, ``heap.note_access``)
cost a few appends each; all arithmetic happens once, after the run.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

NO_PARENT = -1


class Tracer:
    """Records spans for wrapped entry points; see :meth:`wrap`."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Session id stamped on every span opened from now on.
        self.session = 0
        self.span_name = array("i")
        self.span_session = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[int] = []
        #: Plain counters recorded at the same boundaries (instructions
        #: executed, tasks submitted, ...).
        self.counts: Dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_session.append(self.session)
        self.span_parent.append(stack[-1] if stack else NO_PARENT)
        self.span_end.append(0)
        stack.append(index)
        self.span_start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def __len__(self) -> int:
        return len(self.span_start)

    def summary(self, first: int = 0) -> "SpanSummary":
        """Aggregate the spans recorded from index ``first`` on."""
        return summarize(self.names, self.span_name[first:],
                         self.span_session[first:],
                         [p - first if p >= first else NO_PARENT
                          for p in self.span_parent[first:]],
                         self.span_start[first:], self.span_end[first:])

    def write_tsv(self, path: str) -> None:
        """Write every span as ``session name parent start_ns end_ns``."""
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write("session\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                out.write(f"{self.span_session[i]}\t"
                          f"{names[self.span_name[i]]}\t"
                          f"{self.span_parent[i]}\t{self.span_start[i]}\t"
                          f"{self.span_end[i]}\n")


def self_times(parents: Sequence[int], starts: Sequence[int],
               ends: Sequence[int]) -> List[int]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (calls nest), so subtracting
    their durations removes exactly the part of the parent's interval
    they cover.
    """
    result = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent != NO_PARENT:
            result[parent] -= ends[index] - starts[index]
    return result


class SpanSummary:
    """Per-name self time, total time and calls; per-session self time;
    and the time covered by top-level spans."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: Wall covered by a name's outermost spans (a name nested in
        #: itself is not counted twice).
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.session_self_ns: Dict[Tuple[int, str], int] = \
            defaultdict(int)
        self.top_ns = 0


def summarize(names: Sequence[str], name_ids: Sequence[int],
              sessions: Sequence[int], parents: Sequence[int],
              starts: Sequence[int], ends: Sequence[int]) -> SpanSummary:
    summary = SpanSummary()
    selfs = self_times(parents, starts, ends)
    for index, nid in enumerate(name_ids):
        name = names[nid]
        summary.calls[name] += 1
        summary.self_ns[name] += selfs[index]
        summary.session_self_ns[(sessions[index], name)] += selfs[index]
        duration = ends[index] - starts[index]
        parent = parents[index]
        if parent == NO_PARENT:
            summary.top_ns += duration
        outermost = True
        while parent != NO_PARENT:
            if name_ids[parent] == nid:
                outermost = False
                break
            parent = parents[parent]
        if outermost:
            summary.total_ns[name] += duration
    return summary

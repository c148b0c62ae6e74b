"""Hierarchical span tracing on the simulated clock.

A :class:`Span` is a named interval of simulated time with attributes
and children.  The :class:`Tracer` keeps a stack of open spans, so
spans nest strictly (LIFO close order) and -- because the
:class:`~repro.util.simclock.SimClock` is monotonic -- siblings never
overlap and a child's interval always lies within its parent's.  Every
recovery produces a tree shaped like::

    recovery
      diagnosis
        diagnosis.iteration      (one per re-execution probe)
          rollback
          reexec
      recovery.attempt
        rollback
        reexec
      validation
        validation.run           (task time; zero width on this clock)

which is exactly the paper's Table 5 decomposition of recovery time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.util.simclock import SimClock


class Span:
    """One named interval of simulated time."""

    __slots__ = ("span_id", "name", "start_ns", "end_ns", "parent_id",
                 "attrs", "children")

    def __init__(self, span_id: int, name: str, start_ns: int,
                 parent_id: Optional[int] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.span_id = span_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.parent_id = parent_id
        self.attrs: Dict[str, Any] = attrs or {}
        self.children: List["Span"] = []

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set(self, **attrs: Any) -> None:
        """Attach attributes after creation (same no-op on null spans)."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_ns(self, name: str) -> int:
        """Summed duration of all descendant spans named ``name``."""
        return sum(s.duration_ns for s in self.walk() if s.name == name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent_id": self.parent_id,
            "attrs": dict(sorted(self.attrs.items())),
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "Span":
        span = cls(row["span_id"], row["name"], row["start_ns"],
                   row.get("parent_id"), dict(row.get("attrs") or {}))
        span.end_ns = row.get("end_ns")
        return span

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        dur_ms = self.duration_ns / 1e6
        extra = ""
        if self.attrs:
            pairs = " ".join(f"{k}={v}" for k, v
                             in sorted(self.attrs.items()))
            extra = f"  [{pairs}]"
        lines = [f"{pad}{self.name:<24s} {dur_ms:12.3f} ms"
                 f"  @{self.start_ns / 1e9:.6f}s{extra}"]
        lines += [child.render(indent + 1) for child in self.children]
        return "\n".join(lines)


class _NullSpan:
    """Stand-in handed out by a disabled tracer."""

    __slots__ = ()
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Builds span trees against one simulated clock.

    ``span()`` is a context manager; the span closes at the clock's
    value on exit.  Finished root spans accumulate in :attr:`roots`.
    A disabled tracer yields a shared null span and records nothing.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 enabled: bool = True):
        self.clock = clock
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    def bind_clock(self, clock: SimClock) -> None:
        self.clock = clock

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs: Any):
        if not self.enabled or self.clock is None:
            yield _NULL_SPAN
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, self.clock.now_ns,
                    parent.span_id if parent else None, attrs)
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_ns = self.clock.now_ns
            if parent is not None:
                parent.children.append(span)
            else:
                self.roots.append(span)

    # -- views ---------------------------------------------------------

    def spans(self) -> List[Span]:
        """All finished spans, depth-first over all roots."""
        out: List[Span] = []
        for root in self.roots:
            out.extend(root.walk())
        return out

    def find_roots(self, name: str) -> List[Span]:
        return [r for r in self.roots if r.name == name]

    def render(self) -> str:
        if not self.roots:
            return "  (no spans recorded)"
        return "\n".join(root.render(indent=1) for root in self.roots)


def rebuild_tree(rows: List[Dict[str, Any]]) -> List[Span]:
    """Reassemble exported span rows (see ``export.py``) into trees;
    returns the roots in first-seen order."""
    by_id = {row["span_id"]: Span.from_dict(row) for row in rows}
    roots: List[Span] = []
    for row in rows:
        span = by_id[row["span_id"]]
        parent = by_id.get(row.get("parent_id"))
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    return roots


def phase_breakdown(recovery: Span) -> Dict[str, int]:
    """Table 5 decomposition of one ``recovery`` span.

    Returns simulated-ns totals for the rollback, re-execution,
    validation, and diagnosis-analysis phases.  The analysis phase is
    the recovery time not covered by the measured leaf phases (policy
    construction, manifestation scans -- free in this cost model, so it
    is normally 0), which makes the four phases partition the recovery
    span exactly.
    """
    rollback_ns = recovery.total_ns("rollback")
    reexec_ns = recovery.total_ns("reexec")
    validation_ns = recovery.total_ns("validation")
    analysis_ns = (recovery.duration_ns - rollback_ns - reexec_ns
                   - validation_ns)
    return {
        "rollback_ns": rollback_ns,
        "reexec_ns": reexec_ns,
        "diagnosis_ns": analysis_ns,
        "validation_ns": validation_ns,
        "recovery_ns": recovery.duration_ns,
    }

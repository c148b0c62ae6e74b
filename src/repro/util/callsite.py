"""Call-site signatures.

The paper defines a call-site as "the return addresses of the most recent
three functions on the stack" (Section 2).  Memory objects allocated or
deallocated from the same call-site tend to share characteristics (the
same buffer being overflowed, the same cache entry being prematurely
freed), so the call-site serves as the signature of bug-triggering
objects and as the application point of a runtime patch.

In the simulated VM a "return address" is the pair ``(function_name, pc)``
of the instruction *after* the call in the caller's frame; for the frame
that performed the allocation itself we use the address of the
allocation instruction.  The signature is the tuple of up to
:data:`CallSite.DEPTH` such pairs, innermost first.

Call-sites are **hash-consed**: the VM captures one on every MALLOC and
FREE, and a program has only a handful of distinct signatures, so
:meth:`CallSite.intern` returns a shared canonical instance per frame
tuple instead of allocating a fresh object per operation.  Interning
also makes cross-process transfer cheap and canonical: pickling routes
through :meth:`intern` (see ``__reduce__``), so a call-site shipped to a
re-execution worker and back deduplicates against the local table.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

Addr = Tuple[str, int]


class CallSite:
    """An immutable, hashable multi-level call-site signature."""

    DEPTH = 3

    #: ``_hash`` caches ``hash(frames)``: every patch-policy lookup
    #: hashes the site, and the frame tuple never changes.  Pickling
    #: goes through :meth:`intern`, so a receiving process recomputes
    #: it under its own string-hash seed.
    __slots__ = ("frames", "_hash")

    def __init__(self, frames: Iterable[Addr]):
        frames = tuple(frames)[: self.DEPTH]
        if not frames:
            raise ValueError("a call-site needs at least one frame")
        for fr in frames:
            if not (isinstance(fr, tuple) and len(fr) == 2
                    and isinstance(fr[0], str) and isinstance(fr[1], int)):
                raise ValueError(f"bad call-site frame: {fr!r}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "_hash", hash(frames))

    @classmethod
    def intern(cls, frames: Iterable[Addr]) -> "CallSite":
        """The canonical shared instance for ``frames``.

        The hot per-malloc capture path must not allocate a duplicate
        object (plus its validated frame tuple) for every operation from
        the same site; the table is bounded by the number of distinct
        call-sites in the program.
        """
        key = tuple(frames)[: cls.DEPTH]
        site = _INTERNED.get(key)
        if site is None:
            site = cls(key)
            _INTERNED[site.frames] = site
        return site

    def __setattr__(self, name, value):
        raise AttributeError("CallSite is immutable")

    def __reduce__(self):
        # Default pickling would call __setattr__ (which raises);
        # routing through intern() both fixes that and deduplicates
        # call-sites shipped back from worker processes.
        return (CallSite.intern, (self.frames,))

    @property
    def innermost(self) -> Addr:
        """The frame closest to the allocation/deallocation itself."""
        return self.frames[0]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, CallSite) and self.frames == other.frames

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = "<".join(f"{fn}+{pc}" for fn, pc in self.frames)
        return f"CallSite({inner})"

    def render(self) -> str:
        """Multi-line rendering used in bug reports, innermost first,
        mirroring the paper's Figure 5 format."""
        return "\n".join(f"  0x{pc:08x}@{fn}" for fn, pc in self.frames)

    def to_json(self) -> list:
        return [[fn, pc] for fn, pc in self.frames]

    @classmethod
    def from_json(cls, data) -> "CallSite":
        return cls.intern((str(fn), int(pc)) for fn, pc in data)


#: The intern table.  Keyed by the validated frame tuple; bounded by
#: the number of distinct call-sites across all loaded programs.
_INTERNED: Dict[Tuple[Addr, ...], CallSite] = {}

#: ``interned(key)``: the canonical instance for an already-truncated
#: frame tuple, or None if it was never interned.  The VM's per-malloc
#: capture tries this before falling back to :meth:`CallSite.intern`.
interned = _INTERNED.get


def interned_count() -> int:
    """Testing/benchmark hook: current intern-table size."""
    return len(_INTERNED)

"""Program I/O: the recorded input stream and the output log.

:class:`ReplayableInput` is the analogue of the paper's network proxy
(Section 3): during normal execution it pulls tokens from a live source
and journals every one; after a rollback the journal replays the exact
same tokens from the checkpointed cursor, so re-execution sees a
byte-identical request stream.

:class:`OutputLog` timestamps every OUT value with simulated time; the
throughput experiment (Figure 4) bins these timestamps.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple


class ReplayableInput:
    """Journal-backed input stream with a rewindable cursor."""

    def __init__(self, source: Iterable[int] = ()):
        self._source: Iterator[int] = iter(source)
        self._journal: List[int] = []
        self._cursor = 0
        self._exhausted = False

    def next(self) -> Optional[int]:
        """The next token, or None when the live source is exhausted."""
        if self._cursor < len(self._journal):
            token = self._journal[self._cursor]
            self._cursor += 1
            return token
        if self._exhausted:
            return None
        try:
            token = next(self._source)
        except StopIteration:
            self._exhausted = True
            return None
        self._journal.append(int(token))
        self._cursor += 1
        return token

    def feed(self, tokens: Iterable[int]) -> None:
        """Append more live input after the current source (used by
        interactive experiments that drive a server in phases)."""
        existing = self._source
        fresh = iter([int(t) for t in tokens])

        def chained():
            for t in existing:
                yield t
            for t in fresh:
                yield t

        self._source = chained()
        self._exhausted = False

    @property
    def cursor(self) -> int:
        return self._cursor

    @property
    def journal_length(self) -> int:
        return len(self._journal)

    def journal_slice(self, start: int, end: Optional[int] = None) \
            -> List[int]:
        return self._journal[start:end]

    def preload_journal(self, tokens: Iterable[int]) -> None:
        """Bulk-load recorded tokens into an untouched stream, leaving
        the cursor past them (as if every token had been consumed).

        Used by re-execution tasks: the task's process replays the
        original's journal, and loading it in one call avoids a
        token-by-token ``next()`` loop of O(journal) Python iterations.
        A subsequent ``restore(cursor)`` rewinds into the preloaded
        region.
        """
        if self._journal or self._cursor:
            raise ValueError("preload_journal requires a fresh stream")
        self._journal = [int(t) for t in tokens]
        self._cursor = len(self._journal)

    def prefetch(self, count: int) -> int:
        """Pull up to ``count`` tokens from the live source into the
        journal *without* advancing the cursor.

        Re-execution tasks shipped to worker processes carry only the
        journal (workers cannot share the live source's iterator state),
        so before dispatching a batch the engine prefetches every token
        the re-execution window could possibly consume.  The live
        process later reads the same values back out of the journal, so
        behaviour is unchanged -- tokens just arrive in the journal a
        little earlier than on-demand ``next()`` would have put them.

        Returns the number of tokens actually journaled (less than
        ``count`` if the source ran dry).
        """
        added = 0
        while added < count and not self._exhausted:
            try:
                token = next(self._source)
            except StopIteration:
                self._exhausted = True
                break
            self._journal.append(int(token))
            added += 1
        return added

    def skip_to(self, position: int) -> int:
        """Advance the cursor forward to ``position``, pulling from the
        live source as needed and *discarding* the skipped tokens from
        the consumer's point of view (they stay in the journal).

        This is the restart resync: a fresh process resuming the same
        stream drops the in-flight request's remaining tokens and picks
        up at the next request boundary.  Clamped to the journal end
        when the source runs dry; never moves the cursor backward.
        Returns the cursor after the skip.
        """
        need = position - len(self._journal)
        if need > 0:
            self.prefetch(need)
        position = min(position, len(self._journal))
        if position > self._cursor:
            self._cursor = position
        return self._cursor

    def snapshot(self) -> int:
        return self._cursor

    def restore(self, cursor: int) -> None:
        if cursor > len(self._journal):
            raise ValueError("cursor beyond journal")
        self._cursor = cursor


class OutputLog:
    """Timestamped append-only output."""

    def __init__(self) -> None:
        self._entries: List[Tuple[int, int]] = []  # (time_ns, value)

    def emit(self, time_ns: int, value: int) -> None:
        self._entries.append((time_ns, value))

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> List[int]:
        return [v for _, v in self._entries]

    def entries(self) -> List[Tuple[int, int]]:
        return list(self._entries)

    def since(self, index: int) -> List[Tuple[int, int]]:
        return self._entries[index:]

    def snapshot(self) -> int:
        return len(self._entries)

    def restore(self, length: int) -> None:
        del self._entries[length:]

    def preload(self, entries: List[Tuple[int, int]]) -> None:
        """Seed a fresh log with another log's history (used by
        re-execution tasks so the task's output matches the original's
        up to the snapshot point)."""
        if self._entries:
            raise ValueError("preload requires an empty log")
        self._entries = [(int(t), int(v)) for t, v in entries]

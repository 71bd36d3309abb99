"""In-memory span tracer for the benchmark.

Spans are opened and closed around calls into the program from outside:
`patch` swaps a module or class attribute for a wrapper that records one
span per call, and `unpatch` restores the originals. Every span records the
op it belongs to, its own id and its parent's id. Spans are kept in memory
and summarised once the run ends.

A span's self time is its duration minus the durations of its direct
children. The program is single-threaded, so children nest strictly inside
their parent and never overlap each other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    op: int
    sid: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: bool = False


@dataclass
class NameStats:
    """Totals for all spans sharing one name."""

    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    errors: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self) -> int:
        """Start a new op; spans opened until the next call share its id."""
        self.op += 1
        return self.op

    def open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(self.op, len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, fn, name: str, count=None):
        """Wrap fn so each call records a span.

        `count(span, args, kwargs, result)` runs after the span is closed,
        so its cost is not part of the span; it may add to `span.counts`.
        """

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self.close(span)
            if count is not None:
                count(span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr (a module global or a class method) by a traced wrapper."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary -----------------------------------------------------------

    def summary(self, hide_under: frozenset[str] = frozenset()) -> dict[str, NameStats]:
        """Per-name calls, inclusive and self time, and summed counts.

        Spans below a span whose name is in `hide_under` are left out, so
        the cost of a checker's calls into the program is not charged to
        the program's layers; the hiding span itself is kept.
        """
        child_time = [0.0] * len(self.spans)
        hidden = [False] * len(self.spans)
        for span in self.spans:  # ids grow in opening order: parents come first
            if span.parent is not None:
                parent = self.spans[span.parent]
                child_time[span.parent] += span.end - span.start
                hidden[span.sid] = hidden[parent.sid] or parent.name in hide_under
        out: dict[str, NameStats] = {}
        for span in self.spans:
            if hidden[span.sid]:
                continue
            stats = out.setdefault(span.name, NameStats())
            duration = span.end - span.start
            stats.calls += 1
            stats.total += duration
            stats.self_total += duration - child_time[span.sid]
            stats.errors += int(span.error)
            for key, value in span.counts.items():
                stats.counts[key] = stats.counts.get(key, 0) + value
        return out

"""In-memory span recorder that wraps package functions from outside.

A ``Tracer`` replaces module or class attributes with timing wrappers and
puts the originals back when it is closed (``install`` puts the wrappers
back again), so nothing under ``src/`` has to know it is being measured.  Each span records (trace id, name, start, end,
parent index); a span's self time is its duration minus the durations of
its direct children.  Calls are assumed to nest on one thread, which holds
for every wrapped name: the Monte Carlo tiers only fan out below the
wrapped ``simulate_*`` entry points.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Records nested spans around wrapped callables; restores them on close."""

    def __init__(self):
        self.spans: list[tuple] = []  # (trace_id, name, start, end, parent)
        self.trace_id = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple] = []  # (owner, attr, original, wrapper)

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording a span called ``name``.

        ``on_call(args, kwargs, result)`` runs after the span closes; it is
        where per-call work counters are taken.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._wrapped.append((owner, attr, original, wrapper))

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span, nested under the open one."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (self.trace_id, name, start, end, parent)

    def install(self) -> None:
        """Put the wrappers back after ``close``."""
        for owner, attr, _, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore the original attributes, last wrapped first."""
        for owner, attr, original, _ in reversed(self._wrapped):
            setattr(owner, attr, original)

    def named(self, name: str, trace_id: int) -> list[tuple]:
        return [s for s in self.spans if s[1] == name and s[0] == trace_id]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for idx, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[idx]
        return dict(totals)

    def records(self) -> list[dict]:
        return [
            {"trace": tid, "name": name, "start": start, "end": end, "parent": parent}
            for tid, name, start, end, parent in self.spans
        ]

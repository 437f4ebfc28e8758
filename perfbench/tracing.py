"""In-memory spans recorded around calls into the program's modules.

Only a traced process builds a :class:`Tracer`; it replaces module
attributes (such as ``irshield.server.forward``) with timing wrappers, so
untraced processes run the program untouched. Spans are kept in memory
and written out as JSON when a phase ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Span recorder. A span is (id, name, start_ns, end_ns, parent, request,
    count); ``count`` is the work the call did, where that is not one."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = 0
        return local

    @contextmanager
    def span(self, name: str, count: int = 1, new_request: bool = False):
        """Time the body as one span. ``new_request`` starts a new request id
        for this thread; later spans on the thread share it."""
        state = self._state()
        if new_request and not state.stack:
            state.request = next(self._requests)
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else 0
        state.stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            state.stack.pop()
            self.spans.append((span_id, name, start, end, parent, state.request, count))

    def wrap(self, module, attr: str, name, count=None, new_request: bool = False) -> None:
        """Replace ``module.attr`` with a wrapper that records a span per call.

        ``name`` is a string or a function of the call's arguments; ``count``
        optionally maps the arguments to the work count.
        """
        inner = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            work = 1 if count is None else count(*args, **kwargs)
            with tracer.span(label, work, new_request):
                return inner(*args, **kwargs)

        setattr(module, attr, traced)

    def dump(self, path: Path) -> None:
        fields = ("id", "name", "start_ns", "end_ns", "parent", "request", "count")
        path.write_text(json.dumps([dict(zip(fields, s)) for s in self.spans]))
        self.spans = []


def load(path: Path) -> list[dict]:
    return json.loads(path.read_text())


def durations_us(spans: list[dict], name: str) -> list[float]:
    return [(s["end_ns"] - s["start_ns"]) / 1e3 for s in spans if s["name"] == name]


def median_us(spans: list[dict], name: str) -> float:
    values = durations_us(spans, name)
    if not values:
        raise ValueError(f"no spans named {name!r}")
    return statistics.median(values)


def total_count(spans: list[dict], name: str) -> int:
    return sum(s["count"] for s in spans if s["name"] == name)


def per_request_sum_us(spans: list[dict], names: set[str]) -> list[float]:
    """Per request id, the summed duration of its top-level spans in ``names``."""
    sums: dict[int, float] = {}
    for s in spans:
        if s["name"] in names and s["parent"] == 0:
            sums[s["request"]] = sums.get(s["request"], 0.0) + (s["end_ns"] - s["start_ns"]) / 1e3
    return list(sums.values())

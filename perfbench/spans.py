"""In-memory span recording from outside the program, self time, and export.

The benchmark records spans by wrapping calls into each layer's public
functions (:meth:`SpanRecorder.wrap`); nothing inside the engine is changed.
Spans are kept in memory and written once, at the end of a traced run, as a
JSON list and as a Chrome trace-event file (opens in Perfetto or
``chrome://tracing``).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One timed call: ``[start, end)`` seconds on ``time.perf_counter``."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span on the same thread, or ``None``.
    parent: int | None
    #: Id of the benchmark call this span belongs to.
    req: int | None
    thread: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered_length(children.get(i, []), span.start, span.end)
        for i, span in enumerate(spans)
    ]


class SpanRecorder:
    """Thread-aware span recorder with call wrapping.

    ``req`` is the id stamped on every span opened from now on (the
    benchmark sets it to the current call's index).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.req: int | None = None
        self._stacks: dict[int, list[int]] = {}
        self._undo: list[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def current(self) -> Span | None:
        """The innermost open span on the calling thread."""
        stack = self._stack()
        return self.spans[stack[-1]] if stack else None

    def open(self, name: str, **attrs: Any) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=stack[-1] if stack else None,
            req=self.req,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack().pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
        only_inside: str | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a version that records a span.

        ``attrs(*args, **kwargs)`` may add attributes to the span.  With
        ``only_inside``, a call is recorded only when the innermost open span
        has that name; other calls pass straight through (so, for example,
        model layers run by a chunk prefill stay inside the prefill's span).
        :meth:`unwrap_all` restores every original.
        """
        original = getattr(owner, attr)
        had_own = attr in vars(owner)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if only_inside is not None:
                current = self.current()
                if current is None or current.name != only_inside:
                    return original(*args, **kwargs)
            index = self.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        setattr(owner, attr, wrapper)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def unwrap_all(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- export --------------------------------------------------------
    def write_json(self, path: str, extra: dict[str, Any] | None = None) -> None:
        payload = {"spans": [asdict(span) for span in self.spans], **(extra or {})}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def chrome_trace(
    spans: list[Span],
    loader_spans: list[tuple[str, float, float, int | None]],
    origin: float,
) -> dict[str, Any]:
    """Chrome trace-event document of *spans* plus loader-track spans.

    ``loader_spans`` are ``(name, start, end, req)`` in ``perf_counter``
    seconds; they go on their own track so their overlap with main-thread
    compute is visible.  Timestamps are microseconds from *origin*.
    """
    threads = sorted({span.thread for span in spans})
    tids = {thread: i + 1 for i, thread in enumerate(threads)}
    loader_tid = len(tids) + 1
    events: list[dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "perfbench"}}
    ]
    for thread, tid in tids.items():
        events.append(
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": thread}}
        )
    events.append(
        {
            "ph": "M",
            "name": "thread_name",
            "pid": 1,
            "tid": loader_tid,
            "args": {"name": "kv-loader (PipelineTrace load spans)"},
        }
    )
    for span in spans:
        events.append(
            {
                "ph": "X",
                "name": span.name,
                "pid": 1,
                "tid": tids[span.thread],
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"req": span.req, **span.attrs},
            }
        )
    for name, start, end, req in loader_spans:
        events.append(
            {
                "ph": "X",
                "name": name,
                "pid": 1,
                "tid": loader_tid,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"req": req},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}

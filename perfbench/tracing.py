"""In-memory span recording around the program's public entry points.

The benchmark never edits ``src/``: a traced run wraps the functions and
methods each layer exposes (``Recorder.wrap``), records one span per call
(name, layer, start, end, parent) in a list, and after the run

* attributes every instant of the measured window to the innermost open
  span -- the layer's *self time* -- with whatever no layer span covers
  reported as ``other`` (``Recorder.self_times``);
* writes the spans out as a Chrome trace (``Recorder.write_chrome_trace``,
  loadable in ``chrome://tracing`` or Perfetto).

"Innermost" is the open span that started last, the top of the call stack.
A coroutine is traced as one span per stretch it runs (from each resumption
to its next suspension), so a coroutine parked on an ``await``
(``SwarmService.ingest`` blocking on a full queue) is charged nothing while
the event loop runs other code.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

__all__ = ["Recorder"]


class Recorder:
    """Collects spans; ``wrap`` installs the recording wrappers."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index]; end is None while open
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ----- recording --------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, layer: str):
        """Context manager recording one synchronous span."""
        return _Span(self, name, layer)

    def wrap(self, owner, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (undone by ``restore``).

        A coroutine function's calls are recorded one span per stretch the
        coroutine runs (``_Stretches``), so its suspended time goes to
        whatever the event loop runs meanwhile.
        """
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return _Stretches(self, func(*args, **kwargs), name, layer)

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                idx = self._open(name, layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    self._close(idx)

        if isinstance(original, (staticmethod, classmethod)):
            # ``func`` is already bound to the class
            wrapper = staticmethod(wrapper)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every ``wrap``, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- analysis ---------------------------------------------------------------

    def self_times(self, t0: float, t1: float) -> dict[str, float]:
        """Seconds of ``[t0, t1]`` during which each layer's span was innermost.

        Time inside the window that no span covers is returned under
        ``"other"``; the values sum to ``t1 - t0``.
        """
        edges: list[tuple[float, int, int]] = []
        for idx, (_, _, start, end, _) in enumerate(self.spans):
            if end is None or end <= t0 or start >= t1:
                continue
            edges.append((max(start, t0), 1, idx))
            edges.append((min(end, t1), 0, idx))
        edges.sort()
        out: dict[str, float] = {"other": 0.0}
        open_spans: list[int] = []
        cursor = t0
        for t, is_start, idx in edges:
            if t > cursor:
                # span indices grow with start time: the newest open span is innermost
                layer = self.spans[max(open_spans)][1] if open_spans else "other"
                out[layer] = out.get(layer, 0.0) + (t - cursor)
                cursor = t
            if is_start:
                open_spans.append(idx)
            else:
                open_spans.remove(idx)
        if t1 > cursor:
            out["other"] += t1 - cursor
        return out

    def write_chrome_trace(self, path: Path, *, pid: int = 1) -> None:
        """Write the spans as Chrome trace complete ("X") events, times in µs."""
        base = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {"span": idx, "parent": parent},
            }
            for idx, (name, layer, start, end, parent) in enumerate(self.spans)
            if end is not None
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _Span:
    __slots__ = ("_rec", "_name", "_layer", "_idx")

    def __init__(self, rec: Recorder, name: str, layer: str):
        self._rec, self._name, self._layer = rec, name, layer

    def __enter__(self) -> "_Span":
        self._idx = self._rec._open(self._name, self._layer)
        return self

    def __exit__(self, *exc) -> None:
        self._rec._close(self._idx)


class _Stretches:
    """Awaitable driving a coroutine; one span for each stretch it runs.

    Each ``send``/``throw`` into the coroutine opens a span and its next
    suspension (or its end) closes it, so the spans cover exactly the time
    the coroutine's own code held the thread.
    """

    __slots__ = ("_rec", "_coro", "_name", "_layer")

    def __init__(self, rec: Recorder, coro, name: str, layer: str):
        self._rec, self._coro, self._name, self._layer = rec, coro, name, layer

    def __await__(self):
        rec, coro = self._rec, self._coro
        value, error = None, None
        while True:
            idx = rec._open(self._name, self._layer)
            try:
                future = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as done:
                return done.value
            finally:
                rec._close(idx)
            try:
                value, error = (yield future), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # e.g. a cancellation, passed on
                value, error = None, exc

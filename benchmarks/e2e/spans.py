"""In-memory span recorder for the benchmark's outside-in layer trace.

The benchmark process binds span-recording proxies over each layer's
public entry points (see :mod:`layers`); nothing under ``src/`` knows it
is being traced.  A span is ``[id, parent id, op id, name, start, end,
size]``: ``parent`` is the span that was open on the same thread when
this one started (-1 for none), ``op`` the benchmark operation (query,
batch, micro-batch) it belongs to, ``size`` an optional count the
proxy read off the call's arguments (a leaf's candidate count).  Spans
stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

#: Field positions of one span record.
ID, PARENT, OP, NAME, START, END, SIZE = range(7)


class _ThreadState:
    """Open-span stack of one thread, plus its opaque-span depth."""

    __slots__ = ("stack", "muted")

    def __init__(self):
        self.stack: list[list] = []
        self.muted = 0


class Tracer:
    """Records one span per call of every proxy made by :meth:`wrap`."""

    def __init__(self):
        self.spans: list[list] = []
        #: Id of the operation being traced; root proxies advance it.
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self) -> _ThreadState:
        local = self._local
        try:
            return local.state
        except AttributeError:
            local.state = state = _ThreadState()
            return state

    def wrap(self, name, fn, *, root=False, opaque=False, size=None):
        """A proxy for ``fn`` that records a span named ``name`` per call.

        ``name`` may be a callable ``(open span stack) -> str`` for
        spans that belong to whichever layer called them.  ``root``
        marks the call as one benchmark operation (it advances
        :attr:`op`).  Inside an ``opaque`` span nothing is recorded, so
        its time is inclusive: used where a layer's cost is the whole
        call (the planner's probe phase).  ``size(args)`` is stored on
        the span.
        """
        spans, ids, clock, state_of = (self.spans, self._ids,
                                       time.perf_counter, self._state)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            if state.muted:
                return fn(*args, **kwargs)
            stack = state.stack
            if root:
                self.op += 1
            rec = [next(ids), stack[-1][ID] if stack else -1, self.op,
                   name(stack) if callable(name) else name, 0.0, 0.0,
                   size(args) if size is not None else 0]
            spans.append(rec)
            stack.append(rec)
            state.muted += opaque
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                state.muted -= opaque
                stack.pop()
        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds: its duration minus the part its
        child spans cover (children on one thread never overlap)."""
        own = {rec[ID]: rec[END] - rec[START] for rec in self.spans}
        for rec in self.spans:
            if rec[PARENT] in own:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "op", "name", "start", "end", "size")
        with open(path, "w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(dict(zip(keys, rec))) + "\n")

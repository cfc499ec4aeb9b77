"""Span recorder and binding patcher for the traced benchmark run.

The traced run replaces the public functions of each ``isospec`` module with
recording wrappers at every module attribute that holds them, which is the
name its caller looks up (``isospec.spectrum.integrate_final_batch``, for
example, because ``spectrum`` imports it by name). Nothing under ``src/``
changes, and :meth:`Instrument.restore` puts every original binding back.

Spans stay in memory. Each carries its name, operation id, thread, start and
end, its parent span and counts taken from the call's arguments and return
value. ``check_isospectral`` scans on worker threads whose own span stacks are
empty, so a span opened on such a thread takes the innermost open span of the
operation's own thread as parent.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
import tracemalloc


class Span:
    __slots__ = ("name", "op", "thread", "start", "end", "parent", "children", "counts")

    def __init__(self, name, op, thread, start, parent):
        self.name = name
        self.op = op
        self.thread = thread
        self.start = start
        self.end = None
        self.parent = parent
        self.children = []
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of this span's interval its children cover."""
        covered = 0.0
        reach = self.start
        for lo, hi in sorted((c.start, c.end) for c in self.children):
            lo, hi = max(lo, reach), min(hi, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


class Recorder:
    """Thread-safe in-memory span recorder with per-thread parent stacks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op) -> None:
        """Start operation ``op`` on the calling thread."""
        self.op = op
        self._op_stack = self._stack()

    def start(self, name: str) -> Span:
        stack = self._stack()
        # The operation's thread waits inside the span that started the worker
        # threads, so its stack top is stable while they read it.
        origin = stack if stack else self._op_stack
        parent = origin[-1] if origin else None
        span = Span(name, self.op, threading.get_ident(), self.clock(), parent)
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.children.append(span)

    def span(self, name: str):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    def to_json_obj(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [{
            "name": s.name, "op": s.op, "thread": s.thread,
            "start": s.start, "end": s.end, "self_s": s.self_time,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "counts": s.counts,
        } for s in self.spans]


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.recorder.start(self.name)
        return self.span

    def __exit__(self, *exc):
        self.recorder.finish(self.span)
        return False


class Instrument:
    """Wraps functions at every binding inside a package, and restores them.

    ``add(fn, name, counts=None, memory=False)`` replaces each attribute of
    each loaded module of the package whose value is ``fn``. ``counts``, when
    given, is called as ``counts(span, arguments, result)`` after the call with
    the bound arguments (defaults applied) and may fill ``span.counts``.
    ``memory=True`` records the tracemalloc peak inside the call as
    ``peak_bytes``.
    """

    def __init__(self, recorder: Recorder, package: str):
        self.recorder = recorder
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def add(self, fn, name: str, counts=None, memory: bool = False) -> int:
        wrapper = self._wrap(fn, name, counts, memory)
        sites = 0
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    sites += 1
        if sites == 0:
            raise LookupError(f"{name}: no binding of {fn!r} in {self.package}")
        return sites

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn, name, counts, memory):
        rec = self.recorder
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if memory:
                tracemalloc.start()
            span = rec.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.finish(span)
                if memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts(span, bound.arguments, result)
            return result

        return wrapper

"""Hierarchical trace spans for the PolyFrame action path.

One dataframe action fans out through many layers — plan compilation,
resilient dispatch (retries, circuit breaking, shards), and engine
execution — and each layer used to report timing through its own channel.
A :class:`Tracer` ties them together: every instrumented layer opens a
:class:`Span` as a context manager, spans nest via a process-local stack,
and finished root spans accumulate on the tracer for JSON export.

Zero overhead by default: when no tracer is configured (neither
``connector.set_tracer(...)`` nor ``REPRO_TRACE=1``) every instrumentation
point receives the shared :data:`NOOP_SPAN`, whose methods do nothing.

Timings use the monotonic clock (``time.perf_counter_ns``), never wall
clock, so spans are immune to clock adjustments.  See
``docs/observability.md`` for the exported JSON schema.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Any, Iterator

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "ambient_span",
    "current_context",
    "get_tracer",
    "propagated_context",
    "set_global_tracer",
    "span_for",
    "tracer_for",
    "tracing_active",
]


class Span:
    """One timed operation; nests under whatever span was open at entry.

    Use as a context manager (``with tracer.span("compile") as span:``).
    ``set(**attrs)`` attaches structured attributes at any point before
    exit.  Timings come from the monotonic clock; ``duration_ms`` is
    available after the span closes.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "start_ns",
        "end_ns",
        "_tracer",
        "_parent",
    )

    #: Real spans record; the no-op span reports ``False`` so callers can
    #: skip attribute computation entirely when tracing is off.
    recording = True

    def __init__(self, name: str, tracer: "Tracer", parent: "Span | None", **attrs: Any) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attrs)
        self.children: list[Span] = []
        self.start_ns = 0
        self.end_ns = 0
        self._tracer = tracer
        self._parent = parent

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self.start_ns = time.perf_counter_ns()
        _STACK.push(self._tracer, self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_ns = time.perf_counter_ns()
        if exc is not None and "error" not in self.attributes:
            self.attributes["error"] = f"{type(exc).__name__}: {exc}"
        _STACK.pop(self)
        if self._parent is not None:
            self._parent.children.append(self)
        else:
            self._tracer._finish_root(self)

    # -- recording ------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach structured attributes to this span."""
        self.attributes.update(attrs)
        return self

    def add_child(self, name: str, duration_ms: float, **attrs: Any) -> "Span":
        """Attach a pre-timed synthetic child (e.g. a profiled operator).

        Synthetic children carry an externally measured duration instead
        of being entered/exited; they share this span's start offset.
        """
        child = Span(name, self._tracer, None, **attrs)
        child.start_ns = self.start_ns
        child.end_ns = self.start_ns + int(duration_ms * 1e6)
        self.children.append(child)
        return child

    # -- introspection --------------------------------------------------
    @property
    def duration_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    def find(self, name: str) -> "list[Span]":
        """All direct children named *name* (test/debug helper)."""
        return [c for c in self.children if c.name == name]

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, {self.duration_ms:.3f}ms, {len(self.children)} children)"


class _NoopSpan:
    """Shared do-nothing span handed out whenever tracing is off."""

    __slots__ = ()
    recording = False
    name = ""
    attributes: dict[str, Any] = {}
    children: list = []
    duration_ms = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def add_child(self, name: str, duration_ms: float, **attrs: Any) -> "_NoopSpan":
        return self

    def find(self, name: str) -> list:
        return []

    def walk(self) -> Iterator["_NoopSpan"]:
        return iter(())

    def to_dict(self) -> dict[str, Any]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NOOP_SPAN"


#: The single no-op span instance; identity-comparable in tests.
NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects finished root spans for one tracing scope.

    ``tracer.span(name, **attrs)`` opens a span nested under whatever span
    of this tracer is currently open on the calling thread (root
    otherwise).  Completed root trees accumulate on :attr:`spans` — export
    them with :meth:`to_dicts` / :meth:`export_json`, clear with
    :meth:`reset`.  A disabled tracer (``enabled=False``) hands out
    :data:`NOOP_SPAN` and records nothing.
    """

    def __init__(self, *, enabled: bool = True, max_roots: int = 100_000) -> None:
        self.enabled = enabled
        self.max_roots = max_roots
        self.spans: list[Span] = []
        self.dropped = 0
        self._roots_lock = threading.Lock()

    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return NOOP_SPAN
        parent = _STACK.current_for(self)
        return Span(name, self, parent, **attrs)

    def _finish_root(self, span: Span) -> None:
        # Root spans may finish on dispatcher worker threads.
        with self._roots_lock:
            if len(self.spans) >= self.max_roots:
                self.dropped += 1
                return
            self.spans.append(span)

    # -- export ---------------------------------------------------------
    def to_dicts(self) -> list[dict[str, Any]]:
        return [s.to_dict() for s in self.spans]

    def to_json(self, **dumps_kwargs: Any) -> str:
        payload = {
            "schema": "repro-trace/1",
            "dropped_roots": self.dropped,
            "spans": self.to_dicts(),
        }
        return json.dumps(payload, **dumps_kwargs)

    def export_json(self, path: str | None = None) -> str:
        """Serialize every finished root span; optionally write to *path*."""
        text = self.to_json(indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def reset(self) -> None:
        self.spans.clear()
        self.dropped = 0


# ----------------------------------------------------------------------
# Process-local span context: who is the innermost open span?
# ----------------------------------------------------------------------
class _SpanStack(threading.local):
    """Per-thread stack of (tracer, open span) pairs."""

    def __init__(self) -> None:
        self.frames: list[tuple[Tracer, Span]] = []

    def push(self, tracer: Tracer, span: Span) -> None:
        self.frames.append((tracer, span))

    def pop(self, span: Span) -> None:
        # Tolerate out-of-order exits (generator spans closed late).
        for i in range(len(self.frames) - 1, -1, -1):
            if self.frames[i][1] is span:
                del self.frames[i]
                return

    def current_for(self, tracer: Tracer) -> Span | None:
        for owner, span in reversed(self.frames):
            if owner is tracer:
                return span
        return None

    def top(self) -> tuple[Tracer, Span] | None:
        return self.frames[-1] if self.frames else None


_STACK = _SpanStack()


# ----------------------------------------------------------------------
# Global (environment) tracer
# ----------------------------------------------------------------------
_ENV_SENTINEL = object()
_global_tracer: Any = _ENV_SENTINEL


def get_tracer() -> Tracer | None:
    """The process-wide tracer, if one is configured.

    ``set_global_tracer(...)`` wins; otherwise a tracer is created once
    when ``REPRO_TRACE`` is on (:mod:`repro.config`); otherwise ``None``.
    """
    global _global_tracer
    if _global_tracer is _ENV_SENTINEL:
        from repro.config import Config  # repro.config imports this package

        _global_tracer = Tracer() if Config.resolve().trace else None
    return _global_tracer


def set_global_tracer(tracer: Tracer | None) -> None:
    """Install (or clear, with ``None``) the process-wide tracer."""
    global _global_tracer
    _global_tracer = tracer


def _reset_global_tracer() -> None:
    """Re-read ``REPRO_TRACE`` on next use (test hook)."""
    global _global_tracer
    _global_tracer = _ENV_SENTINEL


def tracing_active() -> bool:
    """True when some instrumented caller is currently inside a real span."""
    return _STACK.top() is not None


# ----------------------------------------------------------------------
# Cross-thread context propagation
# ----------------------------------------------------------------------
def current_context() -> tuple[Tracer, Span] | None:
    """The calling thread's innermost open span frame, or ``None``.

    The span stack is thread-local, so work handed to another thread loses
    its ambient parent.  Dispatchers capture this frame on the submitting
    thread and re-establish it on the worker with
    :func:`propagated_context`, keeping shard/attempt/hedge spans nested
    under the action root regardless of which thread runs them.
    """
    return _STACK.top()


@contextlib.contextmanager
def propagated_context(frame: tuple[Tracer, Span] | None):
    """Make *frame* (from :func:`current_context`) ambient on this thread.

    Child spans opened inside the block append themselves to the parent
    span's ``children`` list on exit; ``list.append`` is atomic under the
    GIL, so siblings finishing on different worker threads do not race.
    """
    if frame is None:
        yield
        return
    tracer, span = frame
    _STACK.push(tracer, span)
    try:
        yield
    finally:
        _STACK.pop(span)


# ----------------------------------------------------------------------
# Instrumentation-point helpers
# ----------------------------------------------------------------------
def ambient_span(name: str, **attrs: Any):
    """A child of the innermost open span, whoever owns it.

    The hook for layers that don't know about connectors (engines,
    ``scatter_gather``, the compiler): if an instrumented caller further
    up opened a span, nest under it; otherwise fall back to the global
    tracer (standalone use); otherwise no-op.
    """
    top = _STACK.top()
    if top is not None:
        tracer, parent = top
        return Span(name, tracer, parent, **attrs)
    tracer = get_tracer()
    if tracer is not None and tracer.enabled:
        return tracer.span(name, **attrs)
    return NOOP_SPAN


def tracer_for(connector: Any) -> Tracer | None:
    """*connector*'s tracer, else the global tracer, if it records; else None."""
    tracer = getattr(connector, "tracer", None)
    if tracer is None:
        tracer = get_tracer()
    if tracer is None or not tracer.enabled:
        return None
    return tracer


def span_for(connector: Any, name: str, **attrs: Any):
    """A span from *connector*'s tracer, else the global tracer, else no-op.

    The hook for connector-adjacent layers (the compiler): honors
    per-connector ``set_tracer(...)`` before the ``REPRO_TRACE`` process
    tracer.
    """
    tracer = tracer_for(connector)
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)

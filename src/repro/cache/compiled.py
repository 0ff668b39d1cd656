"""One bounded LRU for compiled queries, on both sides of the connector.

Each connector keeps one :class:`CompiledQueryCache` keyed on
``(backend, terminal rule, plan shape)``: compiling is
pure, so ``df[df.unique1 == k]`` compiles once for every ``k`` and a hit
only renders its bindings into the cached template.  The SQL, SQL++ and
Cypher engines keep one each as their prepared-plan cache, keyed on the
query text they receive (a template with native placeholders, or plain
text): a hit skips lexing and parsing, and in SQL logical rewriting too;
:func:`binder` then binds a call's parameters into the cached plan.
Hits and misses reach :class:`~repro.sqlengine.result.QueryStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Hashable, Sequence

from repro.errors import PlanningError

DEFAULT_MAX_ENTRIES = 512


class CompiledQueryCache:
    """A bounded LRU of ``(text, compiled value)`` entries.

    ``text`` spells the entry (its length is what ``bytes`` counts);
    ``value`` is whatever compiling it produced — a query template, an
    engine's prepared plan.  Locked: a connector pointed at a cluster may
    compile from dispatcher worker threads, engines run concurrent
    queries, and LRU reordering mutates the OrderedDict even on reads.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("compiled-query cache needs at least one entry")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._bytes = 0
        self._entries: "OrderedDict[Hashable, tuple[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: Hashable) -> tuple[str, Any] | None:
        """The cached ``(text, value)`` for *key*, if any."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: Hashable, text: str, value: Any) -> None:
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= len(previous[0])
            self._entries[key] = (text, value)
            self._bytes += len(text)
            while len(self._entries) > self.max_entries:
                _, (evicted_text, _) = self._entries.popitem(last=False)
                self._bytes -= len(evicted_text)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._bytes = 0

    def stats(self) -> dict[str, int]:
        """Counters in the shape shared with ``ResultCache.stats()``.

        Both caches report at least ``{hits, misses, entries, evictions,
        bytes}`` so dashboards and tests can treat them uniformly;
        ``bytes`` here is the cached entries' total text length.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "evictions": self.evictions,
                "bytes": self._bytes,
            }

    def __repr__(self) -> str:
        return (
            f"CompiledQueryCache(entries={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def binder(
    node: Any, param: type, literal: Callable[[Any], Any], negate: Callable[[Any], Any]
) -> Callable[[Sequence[Any]], Any] | None:
    """``fn(params)``: *node* with its parameters bound, or None if it has none.

    *node* is a tree of frozen dataclasses and tuples.  A *param* leaf
    becomes ``literal(params[leaf.index])``, or ``negate(literal(-value))``
    for a number whose text starts with a minus — how that text parses,
    so a bound ``-5`` takes the plan the text ``-5`` takes.  A call copies
    only the nodes above parameters (their instance dicts, without running
    ``__init__``) and writes the bound values in; *node* is never touched,
    so one cached plan serves concurrent calls.
    """
    if isinstance(node, param):

        def bind(params: Sequence[Any]) -> Any:
            if not 0 <= node.index < len(params):
                raise PlanningError(f"no value bound for parameter {node} ({len(params)} given)")
            value = params[node.index]
            if isinstance(value, (int, float)) and not isinstance(value, bool) and str(value)[0] == "-":
                return negate(literal(-value))
            return literal(value)

        return bind
    if isinstance(node, tuple):
        parts = [binder(item, param, literal, negate) for item in node]
        if not any(parts):
            return None
        return lambda params: tuple(
            item if part is None else part(params) for item, part in zip(node, parts)
        )
    if is_dataclass(node) and not isinstance(node, type):
        parts = {
            f.name: binder(getattr(node, f.name), param, literal, negate) for f in fields(node)
        }
        bound = [(name, part) for name, part in parts.items() if part is not None]
        if not bound:
            return None
        kind, state = type(node), node.__dict__

        def bind_fields(params: Sequence[Any]) -> Any:
            copy = object.__new__(kind)
            values = copy.__dict__  # written directly: a frozen node has no setter
            values.update(state)
            for name, part in bound:
                values[name] = part(params)
            return copy

        return bind_fields
    return None

"""Benchmark-side tracing: spans around the calls into each layer.

Nothing here touches ``src/``.  For a traced pass the benchmark shadows
public methods on the *instances* it built — ``connector.send``,
``connector.postprocess``, ``db.execute`` / ``db.aggregate``,
``cluster.execute`` and each ``cluster.nodes[i].execute`` — with timing
wrappers, and swaps ``connector.compile_log`` for a list whose ``append``
notes when ``compile_plan_for`` finished (its record carries how long it
took).  Spans stay in memory until the run ends.

A span is ``[op, name, parent, start, end, drain]``.  ``drain`` exists
because results are pull-based: a streamed query does its scan while the
action *drains* the result, after ``execute`` has returned.  The engine
wrapper meters every ``next()`` on the engine's stream and books that
time to the engine span, so:

    self time = (end - start + drain) - sum(child end - start + drain)

and the span in which the pulling happened (``materialize``) gives the
same time up.  The tree of one op is

    op -> form, compile, send -> engine | coordinator -> shard[i],
          materialize -> postprocess
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterator

OP, NAME, PARENT, START, END, DRAIN = range(6)


class Recorder:
    """Collects the spans of a traced pass and what the wrappers observed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.results: dict[int, Any] = {}  # engine-ish span -> its ResultSet
        self.rows_out: dict[int, int] = {}  # streamed rows pulled per span
        self.query_chars: dict[int, int] = {}  # send span -> len(query text)
        self.compile_hits: dict[int, bool] = {}  # compile span -> cache hit

    def reset(self) -> None:
        """Forget the spans (a later pass only needs its own)."""
        self.__init__()

    def export(self, ops: int) -> list[list]:
        """The spans of the first *ops* ops, times in µs from the first span."""
        if not self.spans:
            return []
        origin, first_op = self.spans[0][START], self.spans[0][OP]
        return [
            [op, name, parent] + [round(t * 1e6, 1) for t in (start - origin, end - origin, drain)]
            for op, name, parent, start, end, drain in self.spans
            if op < first_op + ops
        ]

    def open(self, name: str) -> int:
        index = len(self.spans)
        span = [self.op, name, self.stack[-1] if self.stack else -1, 0.0, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(index)
        span[START] = perf_counter()
        return index

    def close(self, index: int) -> None:
        now = perf_counter()
        self.spans[index][END] = now
        self.stack.pop()

    def closed(self, name: str, start: float, end: float) -> int:
        """Record a span that is already over (parent: the innermost open one)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, parent, start, end, 0.0])
        return len(self.spans) - 1

    def meter(self, index: int) -> Callable[[Iterator[Any]], Iterator[Any]]:
        """A ``wrap_source`` hook booking time inside the stream to *index*."""
        span = self.spans[index]

        def metered(source: Iterator[Any]) -> Iterator[Any]:
            rows = 0
            try:
                while True:
                    began = perf_counter()
                    try:
                        record = next(source)
                    except StopIteration:
                        span[DRAIN] += perf_counter() - began
                        return
                    span[DRAIN] += perf_counter() - began
                    rows += 1
                    yield record
            finally:
                self.rows_out[index] = rows
                close = getattr(source, "close", None)
                if close is not None:
                    close()

        return metered


class _CompileLog(list):
    """Stands in for ``connector.compile_log`` during a traced pass."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self._recorder = recorder

    def append(self, record: Any) -> None:
        end = perf_counter()
        index = self._recorder.closed("compile", end - record.compile_ms / 1000.0, end)
        self._recorder.compile_hits[index] = record.cache_hit


def _shadow(
    recorder: Recorder,
    target: Any,
    method: str,
    name: str,
    observe: Callable[[int, tuple, Any], None] | None = None,
) -> Callable[[], None]:
    """Shadow ``target.method`` on the instance; returns the undo."""
    original = getattr(target, method)

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(index)
        if observe is not None:
            observe(index, args, result)
        return result

    setattr(target, method, traced)
    return lambda: delattr(target, method)


def install(recorder: Recorder, systems: dict[str, Any]) -> Callable[[], None]:
    """Put the timing wrappers on every system; returns the uninstall."""
    undo: list[Callable[[], None]] = []

    def engine_result(index: int, args: tuple, result: Any) -> None:
        recorder.results[index] = result
        if getattr(result, "streaming", False):
            result.wrap_source(recorder.meter(index))

    def sent(index: int, args: tuple, result: Any) -> None:
        recorder.query_chars[index] = len(args[0])

    for system in systems.values():
        conn = system.connector
        undo.append(_shadow(recorder, conn, "send", "send", sent))
        undo.append(_shadow(recorder, conn, "postprocess", "postprocess"))
        saved_log = conn.compile_log
        conn.compile_log = _CompileLog(recorder)
        undo.append(lambda conn=conn, saved=saved_log: setattr(conn, "compile_log", saved))
        top = "coordinator" if system.shards else "engine"
        undo.append(_shadow(recorder, system.engine, system.call, top, engine_result))
        for i, shard in enumerate(system.shards):
            undo.append(_shadow(recorder, shard, system.call, f"shard[{i}]", engine_result))

    def uninstall() -> None:
        for step in undo:
            step()

    return uninstall


def _rows_examined(result: Any) -> int:
    return result.stats.heap_fetches + result.stats.index_entries


def account(recorder: Recorder, first: int, root: int) -> dict[str, Any]:
    """Self time per layer for the op whose spans start at *first*.

    Also adds the op's ``materialize`` span (from the last send's end to
    the op's end) and re-parents ``postprocess`` under it.
    """
    spans = recorder.spans
    op = spans[root]
    total = op[END] - op[START]
    out: dict[str, Any] = {
        "op": total, "form": 0.0, "compile": 0.0, "send_self": 0.0, "engine": 0.0,
        "coordinator_self": 0.0, "materialize": 0.0,
        "sends": 0, "compiles": 0, "compile_hits": 0, "query_chars": 0,
        "rows_examined": 0, "vector_sends": 0, "engine_sends": 0,
        "batches": 0, "fallback": False, "shard_s": [], "merge_rows_in": 0,
        "send_s": 0.0, "cache_hit": False,
    }  # fmt: skip
    send_total = inner = top_drain = coordinator = 0.0
    last_send_end = None
    for index in range(first, len(spans)):
        span = spans[index]
        name, duration = span[NAME], span[END] - span[START]
        if name == "form":
            out["form"] += duration
        elif name == "compile":
            out["compile"] += duration
            out["compiles"] += 1
            out["compile_hits"] += bool(recorder.compile_hits.get(index))
        elif name == "send":
            send_total += duration
            out["sends"] += 1
            out["query_chars"] += recorder.query_chars.get(index, 0)
            last_send_end = span[END] if last_send_end is None else max(last_send_end, span[END])
        elif name in ("engine", "coordinator") or name.startswith("shard["):
            result = recorder.results.pop(index, None)
            busy = duration + span[DRAIN]
            if name.startswith("shard["):
                out["shard_s"].append(busy)
                if result is not None:
                    out["merge_rows_in"] += recorder.rows_out.get(index, len(result.records))
            else:
                inner += duration
                top_drain += span[DRAIN]
                if name == "coordinator":
                    coordinator += busy
                else:
                    out["engine"] += busy
            if result is not None and name != "coordinator":
                out["rows_examined"] += _rows_examined(result)
                if result.stats.exec_engine:
                    out["engine_sends"] += 1
                    out["vector_sends"] += result.stats.exec_engine == "vector"
                    out["fallback"] |= result.stats.exec_engine != "vector"
                out["batches"] += result.stats.batches
    if out["shard_s"]:
        out["engine"] = sum(out["shard_s"])
        out["coordinator_self"] = coordinator - out["engine"]
    out["send_self"] = send_total - inner
    out["send_s"] = send_total
    out["cache_hit"] = out["sends"] > 0 and inner == 0.0 and not out["shard_s"]
    if last_send_end is not None:
        tail = op[END] - last_send_end
        out["materialize"] = tail - top_drain
        materialize = recorder.closed("materialize", last_send_end, op[END])
        spans[materialize][PARENT] = root
        spans[materialize][DRAIN] = -top_drain  # the pulling happened here
        for index in range(first, materialize):
            if spans[index][NAME] == "postprocess" and spans[index][START] >= last_send_end:
                spans[index][PARENT] = materialize
    else:
        tail = 0.0
    out["glue"] = total - out["form"] - out["compile"] - send_total - tail
    return out

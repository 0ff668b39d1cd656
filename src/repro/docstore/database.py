"""The document database facade (MongoDB stand-in)."""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro import obs
from repro.config import Config
from repro.errors import CatalogError
from repro.docstore.collection import Collection
from repro.docstore.pipeline import PipelineExecutor
from repro.exec.memory import MemoryBudget, drain_with_stats, stamp_memory
from repro.sqlengine.result import QueryStats, ResultSet, StreamingResultSet

#: Simulated fixed per-command overhead (driver round trip + cursor setup).
DEFAULT_PREP_OVERHEAD = 0.0001


class MongoDatabase:
    """A database of document collections executing aggregation pipelines.

    Usage::

        db = MongoDatabase()
        db.create_collection("Users")
        db.collection("Users").insert_many(docs)
        result = db.aggregate("Users", [{"$match": {}}, {"$limit": 10}])
    """

    def __init__(
        self,
        *,
        query_prep_overhead: float = DEFAULT_PREP_OVERHEAD,
        name: str = "mongodb",
        memory_budget: int | str | None = None,
    ) -> None:
        self.name = name
        self.query_prep_overhead = query_prep_overhead
        # Per-query budget for the blocking stages ($sort/$group spill):
        # explicit kwarg wins, else REPRO_MEM_BUDGET.
        self.memory_budget = Config.resolve(memory_budget=memory_budget).memory_budget
        self._collections: dict[str, Collection] = {}

    # ------------------------------------------------------------------
    # Collections
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> Collection:
        if name in self._collections:
            raise CatalogError(f"collection {name!r} already exists")
        collection = Collection(name)
        self._collections[name] = collection
        return collection

    def collection(self, name: str) -> Collection:
        try:
            return self._collections[name]
        except KeyError:
            raise CatalogError(f"unknown collection {name!r}") from None

    def has_collection(self, name: str) -> bool:
        return name in self._collections

    def drop_collection(self, name: str) -> None:
        if name not in self._collections:
            raise CatalogError(f"unknown collection {name!r}")
        del self._collections[name]

    def replace_collection(self, name: str, documents: Iterable[dict[str, Any]]) -> None:
        """Atomically replace *name* with *documents* (used by ``$out``)."""
        collection = Collection(name)
        collection.insert_many(documents)
        self._collections[name] = collection

    def list_collection_names(self) -> list[str]:
        return sorted(self._collections)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def estimated_document_count(self, name: str) -> int:
        """The metadata fast count — *not* reachable from a pipeline."""
        return self.collection(name).estimated_document_count()

    def aggregate(
        self,
        name: str,
        pipeline: list[dict[str, Any]],
        *,
        analyze: bool = False,
        stream: bool = False,
    ) -> ResultSet:
        """Run an aggregation pipeline, returning a ResultSet.

        With ``analyze=True`` (or inside :func:`repro.obs.analyze_mode`,
        or under tracing) each pipeline stage is profiled and the
        per-stage timing/row-count chain rides on ``ResultSet.op_profile``.

        With ``stream=True`` the result lazily drains the stage chain
        (profiling/tracing force materialization — the documented
        fallback); memory stats are final once the stream is exhausted.
        """
        started = time.perf_counter()
        with obs.ambient_span("execute", backend=self.name) as span:
            if self.query_prep_overhead > 0:
                time.sleep(self.query_prep_overhead)
            stats = QueryStats()
            budget = MemoryBudget(self.memory_budget)
            executor = PipelineExecutor(self)
            want_profile = analyze or span.recording or obs.analyze_active()
            records = executor.execute(
                self.collection(name),
                pipeline,
                stats,
                profile=want_profile,
                memory=budget,
                stream=stream and not want_profile,
            )
            profile = executor.last_profile
            if isinstance(records, list):
                stamp_memory(stats, budget)
            if span.recording:
                span.set(
                    rows=len(records),
                    peak_mem_bytes=stats.peak_mem_bytes,
                    spill_bytes=stats.spill_bytes,
                )
                if profile is not None:
                    obs.attach_profile(span, profile)
        plan_text = f"aggregate({name}, {len(pipeline)} stages)"
        elapsed = time.perf_counter() - started
        if not isinstance(records, list):
            return StreamingResultSet(
                drain_with_stats(records, stats, budget),
                stats=stats,
                plan_text=plan_text,
                elapsed_seconds=elapsed,
                op_profile=profile,
            )
        return ResultSet(
            records=records,
            stats=stats,
            plan_text=plan_text,
            elapsed_seconds=elapsed,
            op_profile=profile,
        )

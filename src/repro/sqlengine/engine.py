"""The embedded SQL database facade (PostgreSQL stand-in).

Combines the front end (lexer/parser), planner, optimizer, and executor
behind a small API::

    db = SQLDatabase()
    db.create_table("Test.Users", primary_key="id")
    db.insert("Test.Users", [{"id": 1, "lang": "en"}])
    db.create_index("Test.Users", "lang")
    result = db.execute("SELECT t.lang FROM Test.Users t WHERE t.lang = 'en'")
    result = db.execute("SELECT t.lang FROM Test.Users t WHERE t.id = $1", params=(1,))
    print(db.explain("SELECT MAX(id) FROM Test.Users t"))

Every query text is a prepared statement: the engine parses, plans and
rewrites a text once per schema epoch and keeps the rewritten logical
plan in its ``plan_cache`` (a bounded LRU); each call binds its
``params`` into that plan and lowers it to a fresh physical plan, so
access-path choice still sees the real literal.  DDL — a table or an
index created or dropped — starts a new epoch; data writes do not.

``query_prep_overhead`` simulates fixed per-query preparation cost (query
compilation plus client round trip).  The paper's 'Empty'-dataset baseline
(Figure 5) exists precisely to expose this constant: AsterixDB's is much
larger than the other systems'.  The simulated engines inherit realistic
relative magnitudes from their connector presets.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Sequence

from repro import obs
from repro.cache.compiled import CompiledQueryCache, binder
from repro.config import Config
from repro.exec.memory import MemoryBudget, drain_with_stats, stamp_memory
from repro.sqlengine.ast_nodes import Literal, Param, UnaryOp
from repro.sqlengine.expressions import Evaluator
from repro.sqlengine.logical import LogicalPlan
from repro.sqlengine.optimizer import Optimizer, OptimizerFeatures
from repro.sqlengine.parser import parse
from repro.sqlengine.physical import ExecutionContext, PhysicalPlan
from repro.sqlengine.planner import plan_query
from repro.sqlengine.result import QueryStats, ResultSet, StreamingResultSet
from repro.sqlengine.vectorize import vectorize
from repro.storage.catalog import Catalog, TableInfo


class SQLDatabase:
    """An embedded SQL (or SQL++) database engine."""

    dialect = "sql"

    def __init__(
        self,
        features: OptimizerFeatures | None = None,
        *,
        include_absent_in_index: bool = True,
        query_prep_overhead: float = 0.0,
        name: str = "sql",
        exec_engine: str | None = None,
        memory_budget: int | str | None = None,
    ) -> None:
        self.name = name
        self.features = features if features is not None else OptimizerFeatures.postgres()
        self.catalog = Catalog(default_include_absent=include_absent_in_index)
        self.query_prep_overhead = query_prep_overhead
        # Per-query operator-state budget in bytes (PostgreSQL work_mem
        # semantics) and the row/vector executor: kwarg, else REPRO_MEM_BUDGET
        # and REPRO_EXEC.
        config = Config.resolve(exec_engine=exec_engine, memory_budget=memory_budget)
        self.memory_budget = config.memory_budget
        self.exec_engine = config.exec_engine
        self._evaluator = Evaluator(self.dialect)
        #: Prepared plans: ``(schema epoch, text)`` → rewritten logical plan.
        self.plan_cache = CompiledQueryCache()

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Iterable[str] | None = None,
        primary_key: str | None = None,
    ) -> TableInfo:
        """Create a table; a primary key also creates its unique index."""
        return self.catalog.create_table(name, columns, primary_key)

    def drop_table(self, name: str) -> None:
        self.catalog.drop_table(name)

    def create_index(
        self,
        table: str,
        column: str,
        index_name: str | None = None,
        *,
        include_absent: bool | None = None,
    ) -> None:
        """Create a secondary B+tree index on ``table.column``."""
        name = index_name or f"{table}_{column}_idx".replace(".", "_")
        self.catalog.create_index(
            name, table, column, include_absent=include_absent
        )

    def insert(self, table: str, records: Iterable[dict[str, Any]]) -> int:
        """Insert records (maintaining indexes); returns the row count."""
        return self.catalog.insert_rows(table, records)

    def analyze(self, table: str) -> None:
        """Refresh optimizer statistics for *table*."""
        self.catalog.analyze(table)

    def row_count(self, table: str) -> int:
        return self.catalog.table(table).row_count

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query_text: str,
        *,
        params: Sequence[Any] = (),
        analyze: bool = False,
        stream: bool = False,
    ) -> ResultSet:
        """Parse, optimize, and run *query_text*, returning a ResultSet.

        ``$1``, ``$2``, … in the text are bound to ``params[0]``,
        ``params[1]``, …; the text's plan comes from the plan cache when
        it has been prepared before (``QueryStats.plan_cache_hits``).

        With ``analyze=True`` (or inside :func:`repro.obs.analyze_mode`,
        or under tracing) every physical/vector operator is profiled and
        the per-operator timing/row-count tree rides back on
        ``ResultSet.op_profile`` — results are identical either way.

        With ``stream=True`` the result is a lazily-draining
        :class:`StreamingResultSet`: records pull through the operator
        pipeline on demand and are never buffered whole.  Tracing and
        profiling force materialization (span row counts and operator
        profiles need the full result) — the documented fallback.
        Memory stats (``peak_mem_bytes``/``spill_*``) are final once the
        stream is drained.
        """
        started = time.perf_counter()
        with obs.ambient_span("execute", backend=self.name, dialect=self.dialect) as span:
            if self.query_prep_overhead > 0:
                time.sleep(self.query_prep_overhead)
            _logical, physical, hit = self._prepare(query_text, params)
            stats = QueryStats(plan_cache_hits=int(hit), plan_cache_misses=int(not hit))
            budget = MemoryBudget(self.memory_budget)
            ctx = ExecutionContext(self.catalog, self._evaluator, stats, budget)
            plan_text = physical.tree_string  # rendered if the result's text is read
            vector_plan = (
                vectorize(physical, self.dialect)
                if self.exec_engine == "vector"
                else None
            )
            profile = None
            want_profile = analyze or span.recording or obs.analyze_active()
            if vector_plan is not None:
                stats.exec_engine = "vector"
                if want_profile:
                    profile = obs.instrument_tree(vector_plan.head)
                rows = vector_plan.execute(ctx)

                def plan_text() -> str:  # rendered on first read, as above
                    return physical.tree_string() + "\n== vector ==\n" + vector_plan.tree_string()
            else:
                stats.exec_engine = "row"
                if want_profile:
                    profile = obs.instrument_tree(physical)
                rows = physical.execute(ctx)
            streaming = stream and not want_profile
            records: list[Any] | None = None
            if not streaming:
                records = list(rows)
                stamp_memory(stats, budget)
            if span.recording:
                span.set(
                    rows=len(records or ()),
                    engine=stats.exec_engine,
                    peak_mem_bytes=stats.peak_mem_bytes,
                    spill_bytes=stats.spill_bytes,
                )
                if profile is not None:
                    obs.attach_profile(span, profile)
        elapsed = time.perf_counter() - started
        if records is None:
            return StreamingResultSet(
                drain_with_stats(rows, stats, budget),
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

    def explain(self, query_text: str) -> str:
        """Logical and physical plan for *query_text*, without executing."""
        rewritten, physical, _hit = self._prepare(query_text, ())
        if self.exec_engine == "vector":
            vector_plan = vectorize(physical, self.dialect)
            if vector_plan is not None:
                engine_text = "vector\n" + vector_plan.tree_string()
            else:
                engine_text = "row (vector fallback: unsupported plan shape)"
        else:
            engine_text = "row"
        return (
            "== logical ==\n"
            + rewritten.tree_string()
            + "\n== physical ==\n"
            + physical.tree_string()
            + "\n== execution engine ==\n"
            + engine_text
        )

    def _prepare(
        self, query_text: str, params: Sequence[Any]
    ) -> tuple[LogicalPlan, PhysicalPlan, bool]:
        """The rewritten logical plan with *params* bound, its physical plan,
        and whether the plan cache had the text prepared."""
        optimizer = Optimizer(self.catalog, self.features)
        key = (self.catalog.epoch, query_text)
        cached = self.plan_cache.lookup(key)
        if cached is None:
            logical = optimizer.rewrite(plan_query(parse(query_text, self.dialect)))
            bind = binder(logical, Param, Literal, lambda operand: UnaryOp("-", operand))
            self.plan_cache.store(key, query_text, (logical, bind))
        else:
            logical, bind = cached[1]
        if bind is not None:
            logical = bind(params)
        return logical, optimizer.to_physical(logical), cached is not None


__all__ = ["OptimizerFeatures", "SQLDatabase"]

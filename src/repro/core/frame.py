"""PolyFrame: a lazily evaluated, retargetable dataframe.

Transformations record backend-agnostic :class:`~repro.core.plan.PlanNode`
trees and return new PolyFrame objects — no data moves, no query runs, no
query *text* is even built.  The text is compiled lazily, at action or
``explain()`` time, by walking the plan through the connector's rewrite
rules and its compiled-query cache.  Actions apply a terminal rule, send
the compiled query through the database connector, and return results as
an eager frame, "useful when further visualization is desired".

Because the recorded plan holds no backend text, the same frame can be
recompiled for a different backend: see :meth:`PolyFrame.retarget`.

With result caching on (``cache=`` / ``REPRO_CACHE``, default off), an
action whose compiled query was already answered over unchanged data is
served from the connector's :class:`~repro.cache.ResultCache` instead of
the backend; :meth:`PolyFrame.persist` bumps the target's dataset
version so later reads can never match a stale entry.  Answers are
identical either way — see ``docs/caching.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, TYPE_CHECKING

from repro.eager import EagerFrame, frame_from_records
from repro.errors import ConnectorError, ReproError, RewriteError
from repro.obs import analyze_mode, format_profile, span_for
from repro.resilience.deadline import action_scope
from repro.obs.profile import OpProfile
from repro.core.plan.compiler import CompiledQuery, compile_plan_for, send_compiled
from repro.core.plan.nodes import (
    Count,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    RawQuery,
    Scan,
    Sort,
    plan_is_retargetable,
)
from repro.core.series import PolySeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.connectors.base import DatabaseConnector
    from repro.core.groupby import PolyFrameGroupBy


@dataclass(frozen=True)
class ProfiledResult:
    """What :meth:`PolyFrame.profile` returns: results plus the profile.

    ``frame`` holds exactly what :meth:`PolyFrame.collect` would have
    returned (analyze mode never changes answers); ``profile`` is the
    per-operator :class:`~repro.obs.OpProfile` tree; ``report()`` renders
    the EXPLAIN ANALYZE text.
    """

    frame: EagerFrame
    profile: OpProfile | None
    query: str
    backend: str
    engine: str

    def report(self) -> str:
        engine = f", engine={self.engine}" if self.engine else ""
        header = f"== operator profile ({self.backend}{engine}) =="
        if self.profile is None:
            return f"{header}\n(no operator profile available)"
        return f"{header}\n{format_profile(self.profile)}"


class PolyFrame:
    """A dataframe whose contents live in a backend database.

    Created from an existing dataset::

        af = PolyFrame("Test", "Users", connector)
        en = af[af["lang"] == "en"][["name", "address"]]
        en.head(10)           # the only line that touches the database
    """

    def __init__(
        self,
        namespace: str,
        collection: str,
        connector: "DatabaseConnector",
        query: str | None = None,
        *,
        validate: bool = True,
        plan: PlanNode | None = None,
    ) -> None:
        self.namespace = namespace
        self.collection = collection
        self.connector = connector
        if validate and query is None and plan is None and not connector.collection_exists(
            namespace, collection
        ):
            raise ConnectorError(
                f"dataset {namespace}.{collection} does not exist on "
                f"{connector.name}"
            )
        if plan is None:
            # ``query=`` is the raw-text escape hatch: the frozen text
            # becomes a RawQuery leaf (compiles verbatim, refuses retarget).
            plan = RawQuery(query) if query is not None else Scan(namespace, collection)
        self._plan = plan

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def plan(self) -> PlanNode:
        """The recorded logical plan (backend-agnostic)."""
        return self._plan

    @property
    def query(self) -> str:
        """The underlying query, compiled lazily from the logical plan."""
        return self._compile().text

    @property
    def _rw(self):
        return self.connector.rewriter

    def _compile(
        self, plan: PlanNode | None = None, terminal: str | None = None
    ) -> CompiledQuery:
        return compile_plan_for(
            self.connector, plan if plan is not None else self._plan, terminal=terminal
        )

    def explain(self, verbose: bool = False, analyze: bool = False) -> str:
        """The query an action would send (before terminal rules).

        With ``verbose=True``, a three-stage report: the logical plan, the
        query text generated for this backend — with the plan's shape, the
        template compiled for it and this frame's bindings — the
        connector's live :class:`~repro.config.Config` and, where the
        backend exposes one, the engine's own query plan.

        With ``analyze=True``, the query actually *runs* (like SQL's
        ``EXPLAIN ANALYZE``) and the report is the physical operator tree
        annotated with measured wall time and row counts per operator —
        see :meth:`profile` for programmatic access.
        """
        if analyze:
            return self.profile().report()
        if not verbose:
            return self.query
        compiled = self._compile()
        lines = ["-- logical plan --", self._plan.pretty()]
        template = compiled.template
        lines += [
            f"-- generated query ({self.connector.name}, "
            f"nesting depth {compiled.depth}) --",
            compiled.text,
            "-- shape --",
            compiled.shape,
            "-- template --",
            template.native or template.fill(lambda slot: f"?{slot}"),
            f"-- bindings -- {compiled.bindings!r}",
            f"-- config -- {self.connector.config!r}",
            "-- backend plan --",
        ]
        try:
            lines.append(self.backend_plan())
        except ConnectorError as exc:
            lines.append(f"(unavailable: {exc})")
        return "\n".join(lines)

    def backend_plan(self) -> str:
        """The backend's query plan for this frame's query, where exposed.

        The SQL-family connectors surface their engines' EXPLAIN output
        (logical + physical plan trees); other backends raise
        :class:`~repro.errors.ConnectorError`.
        """
        explain = getattr(self.connector, "explain", None)
        if explain is None:
            raise ConnectorError(
                f"{self.connector.name} does not expose a query plan"
            )
        return explain(self._compile(terminal="return_all").text)

    def __repr__(self) -> str:
        return (
            f"PolyFrame({self.namespace!r}, {self.collection!r}, "
            f"backend={self.connector.name})\n--- underlying query ---\n{self.query}"
        )

    def _with_query(self, query: str) -> "PolyFrame":
        return PolyFrame(
            self.namespace, self.collection, self.connector, query, validate=False
        )

    def _with_plan(self, plan: PlanNode) -> "PolyFrame":
        return PolyFrame(
            self.namespace,
            self.collection,
            self.connector,
            validate=False,
            plan=plan,
        )

    # ------------------------------------------------------------------
    # Retargeting
    # ------------------------------------------------------------------
    def retarget(
        self, connector: "DatabaseConnector", *, validate: bool = True
    ) -> "PolyFrame":
        """The same logical plan, bound to a different backend.

        Every transformation recorded so far recompiles through the new
        connector's rewrite rules on the next action.  Frames carrying raw
        query text (``query=`` / ``_with_query``) or pre-rendered
        expression fragments are pinned to the backend that produced the
        text and refuse to retarget.
        """
        if not plan_is_retargetable(self._plan):
            raise ConnectorError(
                "frame carries raw backend query text and cannot be "
                f"retargeted from {self.connector.name} to {connector.name}"
            )
        if validate and not connector.collection_exists(self.namespace, self.collection):
            raise ConnectorError(
                f"dataset {self.namespace}.{self.collection} does not exist on "
                f"{connector.name}"
            )
        return PolyFrame(
            self.namespace,
            self.collection,
            connector,
            validate=False,
            plan=self._plan,
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def __getitem__(self, key: Any) -> "PolyFrame | PolySeries":
        """Pandas-style indexing.

        - ``af['col']`` → :class:`PolySeries` (projection)
        - ``af[['a', 'b']]`` → PolyFrame projecting those attributes
        - ``af[bool_series]`` → PolyFrame filtered by the series' predicate
        """
        if isinstance(key, str):
            return self._column(key)
        if isinstance(key, list):
            return self._project(key)
        if isinstance(key, PolySeries):
            return self._filter(key)
        raise TypeError(f"cannot index PolyFrame with {type(key).__name__}")

    def _column(self, name: str) -> PolySeries:
        statement = self._rw.apply("single_attribute", attribute=name)
        return PolySeries(
            self.connector,
            self.collection,
            statement,
            attribute=name,
            base_plan=self._plan,
            plan=Project(self._plan, (name,)),
        )

    def _project(self, names: list[str]) -> "PolyFrame":
        return self._with_plan(Project(self._plan, tuple(names)))

    def _filter(self, mask: PolySeries) -> "PolyFrame":
        # The mask's *expression* composes into the filter node; its own
        # plan is discarded (the paper's footnote: dataframe 4 derives
        # from 1 with the condition of 3).
        return self._with_plan(Filter(self._plan, mask._as_expr()))

    def sort_values(self, by: str, ascending: bool = True) -> "PolyFrame":
        return self._with_plan(Sort(self._plan, by, ascending))

    def groupby(self, by: str) -> "PolyFrameGroupBy":
        from repro.core.groupby import PolyFrameGroupBy

        return PolyFrameGroupBy(self, by)

    def merge(
        self,
        other: "PolyFrame",
        left_on: str,
        right_on: str,
        how: str = "inner",
    ) -> "PolyFrame":
        """Equi-join with another PolyFrame on the same backend."""
        if how != "inner":
            raise RewriteError(f"only inner joins are supported, got {how!r}")
        if other.connector is not self.connector:
            raise ConnectorError("cannot join frames from different connectors")
        return self._with_plan(
            Join(
                self._plan,
                other._plan,
                left_on,
                right_on,
                right_collection=other.collection,
            )
        )

    join = merge

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    @contextmanager
    def _action_span(self, op: str):
        """The root trace span every action opens (no-op unless tracing).

        Also the action's budget root: installs the per-action
        :class:`~repro.resilience.Deadline` (``deadline=`` /
        ``REPRO_DEADLINE``) and :class:`~repro.resilience.CancellationToken`
        that every send, shard, hedge, and streamed batch below observes.
        """
        with action_scope(self.connector), span_for(
            self.connector,
            "action",
            op=op,
            backend=self.connector.name,
            collection=self.collection,
        ) as span:
            yield span

    def head(self, n: int = 5) -> EagerFrame:
        """Fetch the first *n* rows as an eager frame."""
        with self._action_span("head"):
            result = send_compiled(
                self.connector, self._compile(Limit(self._plan, n)), self.collection
            )
            return frame_from_records(self.connector.postprocess(result))

    def collect(self) -> EagerFrame:
        """Fetch every row (``toPandas()`` in the paper's timing points).

        Drains the backend result in chunks through the streaming send
        path, so on engines with pull-based execution the query's
        intermediate footprint is bounded by the memory budget rather
        than the result size.  The returned frame is byte-identical to
        the fully materialized path.
        """
        with self._action_span("collect"):
            compiled = self._compile(terminal="return_all")
            result = send_compiled(self.connector, compiled, self.collection, stream=True)
            records: list[dict[str, Any]] = []
            for record in result.iter_records():
                records.append(_as_record_dict(record))
            return frame_from_records(records)

    toPandas = collect

    def iter_batches(self, batch_size: int | None = None) -> Iterator[EagerFrame]:
        """Stream the result as eager frames of at most *batch_size* rows.

        *batch_size* defaults to the engine-wide
        :data:`repro.exec.batch.DEFAULT_BATCH_SIZE`.  The backend
        pipeline is drained lazily: on engines with pull-based
        execution, at most one batch (plus bounded operator state under
        the memory budget) is buffered at a time.  Concatenating every
        yielded frame's records reproduces :meth:`collect`
        byte-for-byte.
        """
        if batch_size is not None and (
            not isinstance(batch_size, int)
            or isinstance(batch_size, bool)
            or batch_size < 1
        ):
            raise ReproError(
                f"batch_size must be a positive integer, got {batch_size!r}"
            )
        return self._iter_batches(batch_size)

    def _iter_batches(self, batch_size: int | None) -> Iterator[EagerFrame]:
        with self._action_span("iter_batches"):
            compiled = self._compile(terminal="return_all")
            kwargs = {} if batch_size is None else {"batch_size": batch_size}
            batches = self.connector.send_stream(
                compiled.text, self.collection, prepared=compiled.prepared, **kwargs
            )
            for batch in batches:
                yield frame_from_records(
                    [_as_record_dict(record) for record in batch]
                )

    def profile(self) -> ProfiledResult:
        """Run this frame's query in analyze mode (``EXPLAIN ANALYZE``).

        Executes the same query :meth:`collect` would, with per-operator
        profiling enabled in the backend engine, and returns the results
        *and* the measured operator tree.  Results are identical to
        :meth:`collect`'s.
        """
        with self._action_span("profile"):
            compiled = self._compile(terminal="return_all")
            with analyze_mode():
                result = send_compiled(self.connector, compiled, self.collection)
            frame = frame_from_records(self.connector.postprocess(result))
        return ProfiledResult(
            frame=frame,
            profile=result.op_profile,
            query=compiled.text,
            backend=self.connector.name,
            engine=result.stats.exec_engine,
        )

    def __len__(self) -> int:
        with self._action_span("len"):
            result = send_compiled(
                self.connector, self._compile(Count(self._plan)), self.collection
            )
            return int(result.scalar())

    def describe(self) -> EagerFrame:
        """Summary statistics per numeric attribute (a generic rule)."""
        from repro.core.generic import describe

        return describe(self)

    @property
    def columns(self) -> list[str]:
        """Attribute names, inferred by sampling one record (an action)."""
        sample = self.head(1)
        return sample.columns

    def persist(self, target: str, namespace: str | None = None) -> "PolyFrame":
        """Save this frame's results as a new dataset and return a frame on it.

        MongoDB persists natively through a ``$out`` pipeline stage (the
        config's SAVE RESULTS rule); other backends evaluate the query and
        bulk-load the results into a freshly created container.
        """
        target_namespace = namespace if namespace is not None else self.namespace
        self.connector.persist(self.query, self.collection, target_namespace, target)
        return PolyFrame(target_namespace, target, self.connector)


def _as_record_dict(record: Any) -> dict[str, Any]:
    """Same normalization as ``ResultSet.to_records``, one record at a time."""
    if isinstance(record, dict):
        return record
    return {"value": record}

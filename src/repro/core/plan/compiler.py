"""Lazy compilation: logical plan → backend query text.

The compiler walks a plan bottom-up, applying exactly the rewrite rules
the eager PolyFrame path used to apply at transformation time — so the
generated text is byte-identical to the pre-IR behavior (the
golden-parity suite pins this).  Each node nests its input's text as a
subquery, the paper's Table I shape; flattening that nesting is the
engines' job.

:func:`compile_plan_for` is the connector-aware entry point: it splits
the plan into *shape* and *bindings*, compiles a :class:`QueryTemplate`
(the text with a gap per binding) once per shape through the connector's
compiled-query cache, and renders each call's bindings into it — literal
rules are context-free, so the text is byte-identical to compiling the
literals in.  It appends a :class:`CompileRecord` to
``connector.compile_log`` (the bench layer's ``compile_ms`` /
``nesting_depth`` columns read these).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.plan.expr import LiteralExpr, Slots
from repro.core.plan.nodes import (
    Agg,
    Compute,
    ComputeList,
    Count,
    Distinct,
    Filter,
    GroupAgg,
    Join,
    Limit,
    MultiAgg,
    PlanNode,
    Project,
    RawQuery,
    Scan,
    Sort,
)
from repro.core.rewrite import RewriteEngine
from repro.errors import RewriteError
from repro.obs import metrics, span_for

#: Marks a gap while a template's text is built (a noncharacter: no query spells it).
_GAP = "\uffff"


@dataclass(frozen=True)
class QueryTemplate:
    """One plan shape compiled for one backend: query text with gaps.

    ``pieces`` are the text around the gaps, ``slots`` the binding each
    gap takes.  ``native`` spells the gaps with the language's
    ``parameter`` rule (``$1``, ``$p0``); None without one (MongoDB).
    """

    pieces: tuple[str, ...]
    slots: tuple[int, ...]
    native: str | None
    depth: int  # nesting depth of the generated text (connector-measured)

    def fill(self, spell: Callable[[int], str]) -> str:
        """The text with each gap spelled ``spell(binding index)``."""
        if not self.slots:
            return self.pieces[0]
        out = [self.pieces[0]]
        for slot, piece in zip(self.slots, self.pieces[1:]):
            out.append(spell(slot))
            out.append(piece)
        return "".join(out)

    def render(self, rw: RewriteEngine, bindings: tuple) -> str:
        """The query text with *bindings* spelled as *rw*'s literals."""
        return self.fill(lambda slot: rw.literal(bindings[slot]))


@dataclass(frozen=True)
class CompiledQuery:
    """One plan compiled for one backend."""

    text: str
    cache_hit: bool
    compile_ms: float
    shape: str  # the compiled-query cache key's plan part
    template: QueryTemplate
    bindings: tuple  # the literals the shape leaves out, in slot order

    @property
    def depth(self) -> int:
        return self.template.depth

    @property
    def prepared(self) -> tuple[str, tuple] | None:
        """``(template, bindings)`` for an engine that binds them; else None."""
        if self.template.native is None or not self.bindings:
            return None
        return self.template.native, self.bindings


@dataclass(frozen=True)
class CompileRecord:
    """Bookkeeping for one compilation, appended to ``connector.compile_log``."""

    cache_hit: bool
    compile_ms: float
    depth: int


class _TemplateWriter(RewriteEngine):
    """A connector's rewrite rules, leaving a gap where a slotted literal goes."""

    def __init__(self, rw: RewriteEngine, slots: Slots) -> None:
        super().__init__(rw.rules)
        self._index = slots.index

    def render_literal(self, literal: LiteralExpr) -> str:
        slot = self._index.get(id(literal))
        if slot is None:
            return super().render_literal(literal)
        return f"{_GAP}{slot}{_GAP}"


# ----------------------------------------------------------------------
# Core compilation (rewriter only — no connector, no cache)
# ----------------------------------------------------------------------
def compile_plan(node: PlanNode, rw) -> str:
    """Render the plan under *node* as query text in *rw*'s language."""
    if isinstance(node, Scan):
        return rw.apply("q1", namespace=node.namespace, collection=node.collection)

    if isinstance(node, RawQuery):
        return node.text

    if isinstance(node, Join):
        return rw.apply(
            "q10",
            left_subquery=compile_plan(node.left, rw),
            right_subquery=compile_plan(node.right, rw),
            left_on=node.left_on,
            right_on=node.right_on,
            right_collection=node.right_collection,
        )

    subquery = compile_plan(node.input, rw)

    if isinstance(node, Filter):
        return rw.apply("q6", subquery=subquery, statement=node.predicate.render(rw))

    if isinstance(node, Project):
        entries = [
            rw.apply("project_attribute", attribute=name) for name in node.columns
        ]
        return rw.apply("q2", subquery=subquery, attribute_list=rw.join_list(entries))

    if isinstance(node, Compute):
        return rw.apply(
            "q9", subquery=subquery, statement=node.expr.render(rw), alias=node.alias
        )

    if isinstance(node, ComputeList):
        entries = [
            rw.apply("statement_alias", statement=expr.render(rw), alias=alias)
            for expr, alias in node.items
        ]
        return rw.apply("q15", subquery=subquery, statement_list=rw.join_list(entries))

    if isinstance(node, Sort):
        if node.ascending:
            attribute = rw.apply("sort_asc_attr", attribute=node.by)
            return rw.apply("q5", subquery=subquery, sort_asc_attr=attribute)
        attribute = rw.apply("sort_desc_attr", attribute=node.by)
        return rw.apply("q4", subquery=subquery, sort_desc_attr=attribute)

    if isinstance(node, Limit):
        return rw.apply("limit", subquery=subquery, num=node.n)

    if isinstance(node, Count):
        return rw.apply("q3", subquery=subquery)

    if isinstance(node, Agg):
        agg_func = rw.apply(node.func_rule, attribute=node.attribute)
        return rw.apply("q7", subquery=subquery, agg_func=agg_func, agg_alias=node.alias)

    if isinstance(node, GroupAgg):
        agg_func = rw.apply(node.func_rule, attribute=node.attribute)
        if len(node.keys) == 1:
            return rw.apply(
                "q8",
                subquery=subquery,
                grp_attribute=node.keys[0],
                agg_func=agg_func,
                agg_alias=node.alias,
            )
        return rw.apply(
            "q16",
            subquery=subquery,
            grp_select_list=rw.join_list(
                rw.apply("grp_select_entry", attribute=key) for key in node.keys
            ),
            grp_key_list=rw.join_list(
                rw.apply("grp_key_entry", attribute=key) for key in node.keys
            ),
            agg_func=agg_func,
            agg_alias=node.alias,
        )

    if isinstance(node, MultiAgg):
        entries = []
        for func_rule, attribute, alias in node.items:
            agg_func = rw.apply(func_rule, attribute=attribute)
            entries.append(
                rw.apply("agg_alias_entry", agg_func=agg_func, agg_alias=alias)
            )
        return rw.apply("q13", subquery=subquery, agg_list=rw.join_list(entries))

    if isinstance(node, Distinct):
        return rw.apply("q14", subquery=subquery, attribute=node.attribute)

    raise RewriteError(f"cannot compile plan node {type(node).__name__}")


def send_compiled(connector, compiled: CompiledQuery, collection: str, **kwargs):
    """Send *compiled* through *connector*: its text, and its template and
    bindings where the engine binds them; record the compile-cache outcome
    on the result's :class:`QueryStats`."""
    result = connector.send(compiled.text, collection, prepared=compiled.prepared, **kwargs)
    if compiled.cache_hit:
        result.stats.compile_cache_hits += 1
    else:
        result.stats.compile_cache_misses += 1
    return result


def _compile_template(
    connector, plan: PlanNode, slots: Slots, terminal: str | None
) -> tuple[QueryTemplate, str]:
    """Compile *plan* with a gap per slot; also its text with *slots* filled in."""
    rw = connector.rewriter
    gapped = compile_plan(plan, _TemplateWriter(rw, slots))
    if terminal is not None:
        gapped = rw.apply(terminal, subquery=gapped)
    parts = gapped.split(_GAP)
    template = QueryTemplate(tuple(parts[0::2]), tuple(map(int, parts[1::2])), None, 0)
    text = template.render(rw, tuple(slots.values))
    native = None
    if rw.has_rule("parameter"):
        native = template.fill(lambda slot: rw.apply("parameter", index=slot, number=slot + 1))
    return replace(template, native=native, depth=connector.nesting_depth(text)), text


# ----------------------------------------------------------------------
# Connector-aware entry point: split, cache, record
# ----------------------------------------------------------------------
def compile_plan_for(
    connector, plan: PlanNode, *, terminal: str | None = None
) -> CompiledQuery:
    """Compile *plan* for *connector*, through its compiled-query cache.

    The cache key is ``(backend, terminal, shape)``; *terminal* names a
    rule that wraps the compiled text the way an action sends it
    (``return_all``).  Traced as a ``compile`` span (child of the
    surrounding action span, when one is open) and counted in the
    metrics registry as ``compile_cache_hits`` / ``compile_cache_misses``.
    """
    rw = connector.rewriter
    with span_for(connector, "compile", backend=connector.name) as span:
        started = time.perf_counter()
        slots = Slots()
        shape = plan.fingerprint(slots)
        bindings = tuple(slots.values)
        key = (connector.name, terminal, shape)
        cached = connector.compile_cache.lookup(key)
        cache_hit = cached is not None
        if cache_hit:
            template = cached[1]
            text = template.render(rw, bindings)
        else:
            template, text = _compile_template(connector, plan, slots, terminal)
            connector.compile_cache.store(key, text, template)
        compile_ms = (time.perf_counter() - started) * 1000.0
        metrics.counter("compile_cache_hits" if cache_hit else "compile_cache_misses").inc()
        span.set(cache_hit=cache_hit, depth=template.depth, compile_ms=compile_ms)
    connector.compile_log.append(
        CompileRecord(cache_hit=cache_hit, compile_ms=compile_ms, depth=template.depth)
    )
    return CompiledQuery(text, cache_hit, compile_ms, shape, template, bindings)

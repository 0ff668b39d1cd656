"""Query optimizer: logical rewrites plus physical access-path selection.

The paper states the hard requirement PolyFrame places on a target system:
*"Executing subqueries without any optimization could result in unnecessary
data scans that would significantly affect performance."*  The logical phase
here is exactly that optimization: it dissolves the derived-table nesting
PolyFrame's incremental query formation produces, until predicates and
projections sit directly on base-table scans.

The physical phase then picks access paths, gated by
:class:`OptimizerFeatures` so each backend personality (and the
Greenplum-without-modern-optimizations configuration used for Figures 9/10)
gets the plans the paper observed:

- equality / range / IS NULL predicates → index scans,
- ``MIN``/``MAX`` → index-only plans (PostgreSQL 12, expressions 6/7),
- ``ORDER BY ... DESC LIMIT k`` → backward index scans (expression 9),
- ``COUNT(*)`` → primary-key-index counting (AsterixDB, expression 1),
- equi-joins → index nested-loop or (AsterixDB) index-only join (expression 12).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import PlanningError
from repro.sqlengine.ast_nodes import (
    AGGREGATE_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    IsAbsent,
    Literal,
    Param,
    SelectItem,
    Star,
    UnaryOp,
)
from repro.sqlengine.expr_utils import (
    columns_used,
    conjoin,
    conjuncts,
    match_column_literal,
    rewrite_qualifier,
)
from repro.sqlengine.logical import (
    Aggregate,
    ColumnRestrict,
    DerivedBind,
    Filter,
    Join,
    Limit,
    LogicalPlan,
    Project,
    Rebind,
    RecordSort,
    Scan,
    Sort,
)
from repro.sqlengine import physical as phys
from repro.storage.catalog import Catalog, IndexInfo


@dataclass(frozen=True)
class OptimizerFeatures:
    """Feature switches defining a backend's optimizer personality."""

    flatten_subqueries: bool = True
    use_secondary_indexes: bool = True
    index_only_scan: bool = True
    backward_index_scan: bool = True
    index_nested_loop_join: bool = True
    count_via_pk_index: bool = False
    index_only_join: bool = False

    @classmethod
    def postgres(cls) -> "OptimizerFeatures":
        """PostgreSQL 12: index-only plans, backward scans, NULLs in indexes."""
        return cls()

    @classmethod
    def greenplum(cls) -> "OptimizerFeatures":
        """Greenplum's PostgreSQL 9.5 planner: no index-only or backward scans."""
        return cls(index_only_scan=False, backward_index_scan=False)

    @classmethod
    def asterixdb(cls) -> "OptimizerFeatures":
        """AsterixDB: PK-index counts and index-only joins.

        The paper credits index-only MIN/MAX plans and backward index scans
        to PostgreSQL 12 specifically (expressions 6/7/9); AsterixDB
        evaluated those with scans, so both features are off here.
        """
        return cls(
            count_via_pk_index=True,
            index_only_join=True,
            index_only_scan=False,
            backward_index_scan=False,
        )

    @classmethod
    def unoptimized(cls) -> "OptimizerFeatures":
        """Ablation: no flattening, no index use — every subquery scans."""
        return cls(
            flatten_subqueries=False,
            use_secondary_indexes=False,
            index_only_scan=False,
            backward_index_scan=False,
            index_nested_loop_join=False,
        )


class Optimizer:
    """Rewrites logical plans and lowers them to physical plans."""

    def __init__(self, catalog: Catalog, features: OptimizerFeatures) -> None:
        self._catalog = catalog
        self._features = features

    # ==================================================================
    # Logical phase
    # ==================================================================
    def rewrite(self, plan: LogicalPlan) -> LogicalPlan:
        """Apply rewrite rules bottom-up until a fixpoint."""
        if not self._features.flatten_subqueries:
            return plan
        while True:
            rewritten = self._rewrite_once(plan)
            if rewritten is plan:
                return plan
            plan = rewritten

    def _rewrite_once(self, plan: LogicalPlan) -> LogicalPlan:
        plan = self._rewrite_children(plan)
        return self._apply_rules(plan)

    def _rewrite_children(self, plan: LogicalPlan) -> LogicalPlan:
        if isinstance(plan, DerivedBind):
            child = self._rewrite_once(plan.child)
            return plan if child is plan.child else replace(plan, child=child)
        if isinstance(plan, (Filter, Sort, Project, Aggregate, Limit, Rebind, ColumnRestrict, RecordSort)):
            child = self._rewrite_once(plan.child)
            return plan if child is plan.child else replace(plan, child=child)
        if isinstance(plan, Join):
            left = self._rewrite_once(plan.left)
            right = self._rewrite_once(plan.right)
            if left is plan.left and right is plan.right:
                return plan
            return replace(plan, left=left, right=right)
        return plan

    def _apply_rules(self, plan: LogicalPlan) -> LogicalPlan:
        # Rule: flatten identity / pure-column derived tables.
        if isinstance(plan, DerivedBind) and isinstance(plan.child, Project):
            flattened = self._flatten_derived(plan.child, plan.alias)
            if flattened is not None:
                return self._apply_rules(flattened)
        # Rule: drop no-op rebinds, collapse rebind chains.
        if isinstance(plan, Rebind):
            if plan.old == plan.new:
                return plan.child
            if isinstance(plan.child, Rebind) and plan.child.new == plan.old:
                return Rebind(plan.child.child, plan.child.old, plan.new)
        # Rule: push filters below rebinds / restricts; merge adjacent filters.
        if isinstance(plan, Filter):
            child = plan.child
            if isinstance(child, Rebind):
                predicate = rewrite_qualifier(plan.predicate, child.new, child.old)
                return self._apply_rules(
                    Rebind(Filter(child.child, predicate), child.old, child.new)
                )
            if isinstance(child, ColumnRestrict):
                used = {name for _q, name in columns_used(plan.predicate)}
                if used <= set(child.columns):
                    return self._apply_rules(
                        ColumnRestrict(
                            Filter(child.child, plan.predicate),
                            child.alias,
                            child.columns,
                        )
                    )
            if isinstance(child, Filter):
                merged = conjoin(conjuncts(child.predicate) + conjuncts(plan.predicate))
                assert merged is not None
                return Filter(child.child, merged)
        # Rule: push sorts below rebinds so index order can serve them.
        if isinstance(plan, Sort) and isinstance(plan.child, Rebind):
            child = plan.child
            keys = tuple(
                replace(key, expr=rewrite_qualifier(key.expr, child.new, child.old))
                for key in plan.keys
            )
            return self._apply_rules(
                Rebind(Sort(child.child, keys, plan.limit_hint), child.old, child.new)
            )
        # Rule: an aggregate that reads only restricted columns needs no
        # restriction — the narrowed record would be built per row for nothing.
        if isinstance(plan, Aggregate) and isinstance(plan.child, ColumnRestrict):
            restrict = plan.child
            exprs = plan.group_by + tuple(item.expr for item in plan.items)
            if all(_reads_only(expr, restrict.alias, restrict.columns) for expr in exprs):
                return replace(plan, child=restrict.child)
        # Rule: LIMIT over Project(Sort) plants a top-k hint on the sort.
        if isinstance(plan, Limit) and plan.count >= 0 and isinstance(plan.child, Project):
            project = plan.child
            sort = self._find_sort_through_wrappers(project.child)
            if sort is not None and sort.limit_hint != plan.count + plan.offset:
                new_env = self._replace_sort_hint(project.child, plan.count + plan.offset)
                return replace(plan, child=replace(project, child=new_env))
        return plan

    def _find_sort_through_wrappers(self, plan: LogicalPlan) -> Optional[Sort]:
        while isinstance(plan, (Rebind, ColumnRestrict)):
            plan = plan.child
        return plan if isinstance(plan, Sort) else None

    def _replace_sort_hint(self, plan: LogicalPlan, hint: int) -> LogicalPlan:
        if isinstance(plan, (Rebind, ColumnRestrict)):
            return replace(plan, child=self._replace_sort_hint(plan.child, hint))
        assert isinstance(plan, Sort)
        return plan.with_limit_hint(hint)

    def _flatten_derived(self, project: Project, alias: str) -> Optional[LogicalPlan]:
        """Flatten ``DerivedBind(Project(child))`` when the projection is simple."""
        if project.distinct:
            return None
        child_bindings = bindings_of(project.child)
        if len(child_bindings) != 1:
            return None
        (binding,) = child_bindings
        if _is_identity_projection(project, binding):
            return Rebind(project.child, binding, alias)
        columns = _pure_column_list(project, binding)
        if columns is not None:
            return ColumnRestrict(
                Rebind(project.child, binding, alias), alias, tuple(columns)
            )
        return None

    # ==================================================================
    # Physical phase
    # ==================================================================
    def to_physical(self, plan: LogicalPlan) -> phys.PhysicalPlan:
        """Lower a (rewritten) logical plan to a physical plan."""
        if isinstance(plan, (Project, Aggregate, Limit, RecordSort)):
            return self._lower_records(plan)
        return self._lower_env(plan)

    # --- record-producing nodes ---------------------------------------
    def _lower_records(self, plan: LogicalPlan) -> phys.PhysicalPlan:
        if isinstance(plan, Limit):
            return phys.LimitOp(self._lower_records(plan.child), plan.count, plan.offset)
        if isinstance(plan, RecordSort):
            return phys.RecordSortOp(self._lower_records(plan.child), plan.keys)
        if isinstance(plan, Project):
            return phys.ProjectOp(
                self._lower_env(plan.child), plan.items, plan.select_value, plan.distinct
            )
        if isinstance(plan, Aggregate):
            special = self._try_special_aggregate(plan)
            if special is not None:
                return special
            return phys.HashAggregate(
                self._lower_env(plan.child), plan.group_by, plan.items, plan.select_value
            )
        raise PlanningError(f"expected record-producing node, got {plan.describe()}")

    # --- environment-producing nodes ----------------------------------
    def _lower_env(self, plan: LogicalPlan) -> phys.PhysicalPlan:
        if isinstance(plan, Scan):
            return phys.SeqScan(plan.table, plan.alias)
        if isinstance(plan, Rebind):
            return phys.RebindOp(self._lower_env(plan.child), plan.old, plan.new)
        if isinstance(plan, ColumnRestrict):
            return phys.ColumnRestrictOp(
                self._lower_env(plan.child), plan.alias, plan.columns
            )
        if isinstance(plan, DerivedBind):
            return phys.DerivedBindOp(self._lower_records(plan.child), plan.alias)
        if isinstance(plan, Filter):
            return self._lower_filter(plan)
        if isinstance(plan, Sort):
            return self._lower_sort(plan)
        if isinstance(plan, Join):
            return self._lower_join(plan)
        raise PlanningError(f"expected environment-producing node, got {plan.describe()}")

    # --- filters: index access path selection --------------------------
    def _lower_filter(self, plan: Filter) -> phys.PhysicalPlan:
        scan = plan.child if isinstance(plan.child, Scan) else None
        if scan is None or not self._features.use_secondary_indexes:
            return phys.FilterOp(self._lower_env(plan.child), plan.predicate)

        table = self._catalog.table(scan.table)
        parts = conjuncts(plan.predicate)
        chosen: Optional[tuple[phys.PhysicalPlan, list[Expression]]] = None

        # Preference order: equality probe, then range scan, then IS NULL.
        for position, part in enumerate(parts):
            matched = match_column_literal(part)
            if matched is None:
                continue
            op, qualifier, column, value = matched
            if qualifier not in (None, scan.alias):
                continue
            index = table.index_on(column)
            if index is None:
                continue
            residual = parts[:position] + parts[position + 1:]
            if op == "=":
                access: phys.PhysicalPlan = phys.IndexEqualityScan(
                    scan.table, scan.alias, index.name, value
                )
                chosen = (access, residual)
                break
            if op in (">", ">=", "<", "<="):
                # side ('>' low, '<' high) -> (bound, inclusive)
                bounds = {op[0]: (value, op[1:] == "=")}
                # Absorb a matching opposite bound on the same column.
                for other_pos, other in enumerate(residual):
                    other_match = match_column_literal(other)
                    if other_match is None:
                        continue
                    o_op, o_q, o_col, o_val = other_match
                    if o_col != column or o_q not in (None, scan.alias):
                        continue
                    if o_op[0] in "<>" and o_op[0] not in bounds:
                        bounds[o_op[0]] = (o_val, o_op[1:] == "=")
                        residual = residual[:other_pos] + residual[other_pos + 1:]
                        break
                low, low_inclusive = bounds.get(">", (None, True))
                high, high_inclusive = bounds.get("<", (None, True))
                access = phys.IndexScan(
                    scan.table,
                    scan.alias,
                    index.name,
                    low=low,
                    high=high,
                    low_inclusive=low_inclusive,
                    high_inclusive=high_inclusive,
                    skip_absent=low is None,
                )
                if chosen is None:
                    chosen = (access, residual)

        if chosen is None:
            for position, part in enumerate(parts):
                if (
                    isinstance(part, IsAbsent)
                    and not part.negated
                    and isinstance(part.operand, ColumnRef)
                    and part.operand.qualifier in (None, scan.alias)
                ):
                    index = table.index_on(part.operand.name)
                    if index is not None and index.include_absent:
                        access = phys.IndexAbsentScan(scan.table, scan.alias, index.name)
                        chosen = (access, parts[:position] + parts[position + 1:])
                        break

        if chosen is None:
            return phys.FilterOp(phys.SeqScan(scan.table, scan.alias), plan.predicate)
        access, residual = chosen
        remaining = conjoin(residual)
        return access if remaining is None else phys.FilterOp(access, remaining)

    # --- sorts: backward / forward index order -------------------------
    def _lower_sort(self, plan: Sort) -> phys.PhysicalPlan:
        scan = plan.child if isinstance(plan.child, Scan) else None
        if (
            scan is not None
            and len(plan.keys) == 1
            and self._features.use_secondary_indexes
        ):
            key = plan.keys[0]
            if isinstance(key.expr, ColumnRef) and key.expr.qualifier in (None, scan.alias):
                index = self._catalog.table(scan.table).index_on(key.expr.name)
                allowed = self._features.backward_index_scan or not key.descending
                if index is not None and allowed:
                    return phys.IndexScan(
                        scan.table,
                        scan.alias,
                        index.name,
                        reverse=key.descending,
                        limit=plan.limit_hint,
                        skip_absent=not key.descending,
                    )
        child = self._lower_env(plan.child)
        if plan.limit_hint is not None:
            return phys.TopKOp(child, plan.keys, plan.limit_hint)
        return phys.SortOp(child, plan.keys)

    # --- joins ----------------------------------------------------------
    def _lower_join(self, plan: Join) -> phys.PhysicalPlan:
        left_key, right_key = self._join_keys(plan)
        right_core, right_renames = unwrap_rebinds(plan.right)
        if (
            self._features.index_nested_loop_join
            and isinstance(right_core, Scan)
            and isinstance(right_key, ColumnRef)
        ):
            inner_column = right_key.name
            index = self._catalog.table(right_core.table).index_on(inner_column)
            if index is not None:
                inner_alias = _apply_renames(right_core.alias, right_renames)
                return phys.IndexNestedLoopJoin(
                    outer=self._lower_env(plan.left),
                    inner_table=right_core.table,
                    inner_alias=inner_alias,
                    inner_index=index.name,
                    outer_key=left_key,
                )
        return phys.HashJoin(
            self._lower_env(plan.left),
            self._lower_env(plan.right),
            left_key,
            right_key,
        )

    def _join_keys(self, plan: Join) -> tuple[Expression, Expression]:
        parts = conjuncts(plan.condition)
        if len(parts) != 1:
            raise PlanningError("only single-condition equi-joins are supported")
        condition = parts[0]
        from repro.sqlengine.ast_nodes import BinaryOp

        if not isinstance(condition, BinaryOp) or condition.op != "=":
            raise PlanningError(f"unsupported join condition {condition}")
        left_bindings = bindings_of(plan.left)
        left_expr, right_expr = condition.left, condition.right

        def owner(expr: Expression) -> Optional[str]:
            quals = {q for q, _name in columns_used(expr) if q is not None}
            if len(quals) == 1:
                return next(iter(quals))
            return None

        if owner(left_expr) in left_bindings:
            return left_expr, right_expr
        if owner(right_expr) in left_bindings:
            return right_expr, left_expr
        raise PlanningError(f"cannot attribute join keys in {condition}")

    # --- special whole-query aggregates ---------------------------------
    def _try_special_aggregate(self, plan: Aggregate) -> Optional[phys.PhysicalPlan]:
        if plan.group_by or len(plan.items) != 1:
            return None
        item = plan.items[0]
        call = item.expr
        if not isinstance(call, FuncCall) or call.name.upper() not in AGGREGATE_FUNCTIONS:
            return None

        core, _renames = unwrap_rebinds(plan.child)

        # COUNT(*) over a bare scan → PK index count (AsterixDB trait).
        if call.name.upper() == "COUNT" and call.star:
            # Projections never change cardinality (absent DISTINCT), so a
            # COUNT(*) can look through derived-table projection layers the
            # flattening rules could not dissolve (e.g. ``SELECT l, r FROM
            # ... JOIN ...`` in expression 12).
            core = _unwrap_count_preserving(core)
            if isinstance(core, Scan) and self._features.count_via_pk_index:
                table = self._catalog.table(core.table)
                if table.primary_key is not None:
                    pk_index = table.index_on(table.primary_key)
                    if pk_index is not None:
                        return phys.IndexCount(
                            core.table, pk_index.name, item, plan.select_value
                        )
            # COUNT(*) over WHERE col IS NULL → index-only absent count.
            if isinstance(core, Filter):
                absent = self._match_absent_filter(core)
                if absent is not None:
                    table_name, index = absent
                    if self._features.index_only_scan:
                        return phys.IndexAbsentCount(
                            table_name, index.name, item, plan.select_value
                        )
            # COUNT(*) over an equi-join of two indexed scans → index-only join.
            if isinstance(core, Join) and self._features.index_only_join:
                lowered = self._try_index_only_join_count(core, item, plan.select_value)
                if lowered is not None:
                    return lowered

        # MIN/MAX over a scan (possibly column-restricted) → index-only plan.
        if call.name.upper() in ("MIN", "MAX") and not call.star and call.args:
            arg = call.args[0]
            if isinstance(arg, ColumnRef) and self._features.index_only_scan:
                scan = _scan_under_restrictions(core)
                if scan is not None:
                    index = self._catalog.table(scan.table).index_on(arg.name)
                    if index is not None:
                        return phys.IndexMinMax(
                            scan.table,
                            index.name,
                            call.name.lower(),
                            item,
                            plan.select_value,
                        )
        return None

    def _match_absent_filter(self, plan: Filter) -> Optional[tuple[str, IndexInfo]]:
        """Match ``Filter(IS NULL/UNKNOWN col, Scan)`` backed by a null-bearing index."""
        core, _ = unwrap_rebinds(plan.child)
        if not isinstance(core, Scan):
            return None
        parts = conjuncts(plan.predicate)
        if len(parts) != 1:
            return None
        predicate = parts[0]
        if not isinstance(predicate, IsAbsent) or predicate.negated:
            return None
        if not isinstance(predicate.operand, ColumnRef):
            return None
        table = self._catalog.table(core.table)
        index = table.index_on(predicate.operand.name)
        if index is None or not index.include_absent:
            return None
        return core.table, index

    def _try_index_only_join_count(
        self, join: Join, item: SelectItem, select_value: bool
    ) -> Optional[phys.PhysicalPlan]:
        left_core, _ = unwrap_rebinds(join.left)
        right_core, _ = unwrap_rebinds(join.right)
        left_scan = _scan_under_restrictions(left_core)
        right_scan = _scan_under_restrictions(right_core)
        if left_scan is None or right_scan is None:
            return None
        try:
            left_key, right_key = self._join_keys(join)
        except PlanningError:
            return None
        if not isinstance(left_key, ColumnRef) or not isinstance(right_key, ColumnRef):
            return None
        left_index = self._catalog.table(left_scan.table).index_on(left_key.name)
        right_index = self._catalog.table(right_scan.table).index_on(right_key.name)
        if left_index is None or right_index is None:
            return None
        return phys.IndexOnlyJoinCount(
            left_scan.table,
            left_index.name,
            right_scan.table,
            right_index.name,
            item,
            select_value,
        )


# ----------------------------------------------------------------------
# Plan shape helpers
# ----------------------------------------------------------------------


def bindings_of(plan: LogicalPlan) -> set[str]:
    """The set of binding aliases an environment-producing plan exposes."""
    if isinstance(plan, Scan):
        return {plan.alias}
    if isinstance(plan, DerivedBind):
        return {plan.alias}
    if isinstance(plan, Rebind):
        inner = bindings_of(plan.child)
        inner.discard(plan.old)
        inner.add(plan.new)
        return inner
    if isinstance(plan, (Filter, Sort, ColumnRestrict)):
        return bindings_of(plan.child)
    if isinstance(plan, Join):
        return bindings_of(plan.left) | bindings_of(plan.right)
    raise PlanningError(f"node {plan.describe()} does not produce an environment")


def unwrap_rebinds(plan: LogicalPlan) -> tuple[LogicalPlan, list[tuple[str, str]]]:
    """Strip Rebind wrappers, returning the core plan and the rename chain."""
    renames: list[tuple[str, str]] = []
    while isinstance(plan, Rebind):
        renames.append((plan.old, plan.new))
        plan = plan.child
    return plan, renames


def _apply_renames(alias: str, renames: list[tuple[str, str]]) -> str:
    # ``renames`` is outermost-first; apply innermost-first.
    for old, new in reversed(renames):
        if alias == old:
            alias = new
    return alias


def _unwrap_count_preserving(plan: LogicalPlan) -> LogicalPlan:
    """Strip layers that cannot change row cardinality (for COUNT(*))."""
    while True:
        if isinstance(plan, (Rebind, ColumnRestrict)):
            plan = plan.child
            continue
        if isinstance(plan, DerivedBind) and isinstance(plan.child, Project):
            project = plan.child
            if not project.distinct:
                plan = project.child
                continue
        return plan


def _scan_under_restrictions(plan: LogicalPlan) -> Optional[Scan]:
    """Find a Scan beneath ColumnRestrict/Rebind wrappers (no filters)."""
    while isinstance(plan, (ColumnRestrict, Rebind)):
        plan = plan.child
    return plan if isinstance(plan, Scan) else None


def _reads_only(expr: Expression, alias: str, columns: tuple[str, ...]) -> bool:
    """Whether *expr* reads nothing of *alias*'s record but *columns*.

    A ``*`` or a bare binding reads the whole record, and a node kind this
    walk does not know may read anything.
    """
    if isinstance(expr, ColumnRef):
        if expr.qualifier is None:
            return expr.name != alias and expr.name in columns
        return expr.qualifier != alias or expr.name in columns
    if isinstance(expr, (Literal, Param)):
        return True
    if isinstance(expr, BinaryOp):
        return _reads_only(expr.left, alias, columns) and _reads_only(expr.right, alias, columns)
    if isinstance(expr, (UnaryOp, IsAbsent)):
        return _reads_only(expr.operand, alias, columns)
    if isinstance(expr, FuncCall):
        return all(_reads_only(arg, alias, columns) for arg in expr.args)
    return False


def _is_identity_projection(project: Project, binding: str) -> bool:
    """SELECT * / SELECT t.* / SELECT VALUE t — projection adds nothing."""
    if len(project.items) != 1:
        return False
    expr = project.items[0].expr
    if project.select_value:
        return isinstance(expr, ColumnRef) and expr.qualifier is None and expr.name == binding
    if isinstance(expr, Star):
        return expr.qualifier in (None, binding)
    return False


def _pure_column_list(project: Project, binding: str) -> Optional[list[str]]:
    """Column names when the projection is a plain un-aliased column subset."""
    if project.select_value:
        return None
    columns: list[str] = []
    for item in project.items:
        expr = item.expr
        if not isinstance(expr, ColumnRef):
            return None
        if expr.qualifier not in (None, binding):
            return None
        if item.alias is not None and item.alias != expr.name:
            return None
        columns.append(expr.name)
    return columns

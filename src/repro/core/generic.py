"""Generic rewrite rules: complex pandas functions built from basic rules.

The paper: *"Generic rules are composed of several language-specific rules.
We construct generic rules by decomposing Pandas' complex functions into a
chain of basic Pandas operations which are then translated via the existing
language-specific rewrite rules."*

Implemented here:

- :func:`describe` — per-attribute min/max/avg/count/std in one query,
  recorded as a :class:`~repro.core.plan.MultiAgg` node (``q13`` with
  ``agg_alias_entry`` entries);
- :func:`get_dummies` — one-hot encoding: a distinct-values query (``q14``)
  followed by a computed projection (``q15``) with one equality statement
  per category;
- :func:`value_counts` — group-count (``q8``) ordered descending (``q4``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.eager import EagerFrame
from repro.errors import RewriteError
from repro.core.plan.compiler import send_compiled
from repro.core.plan.expr import BinaryExpr, ColumnExpr, LiteralExpr, OpaqueExpr
from repro.core.plan.nodes import ComputeList, GroupAgg, MultiAgg, Sort
from repro.core.series import PolySeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.frame import PolyFrame

_DESCRIBE_STATS = ("count", "min", "max", "avg", "std")

#: How many records numeric-attribute inference samples.  One record (the
#: old behavior) misclassifies any column whose first value happens to be
#: null; a small prefix is still one cheap query but sees past leading
#: nulls.
_DESCRIBE_SAMPLE_ROWS = 50


def _numeric_attributes(frame: "PolyFrame") -> list[str]:
    """Attributes whose sampled values are numeric (and not boolean).

    Samples a prefix of the frame once and caches the answer on the frame,
    so repeated ``describe()`` calls don't re-pay the inference query.  A
    column counts as numeric when it has at least one non-null value in
    the sample and every non-null sampled value is an int or float.
    """
    cached = getattr(frame, "_numeric_attributes", None)
    if cached is not None:
        return list(cached)
    sample = frame.head(_DESCRIBE_SAMPLE_ROWS)
    attributes = []
    for name in sample.columns:
        values = [value for value in sample.column_values(name) if value is not None]
        if values and all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in values
        ):
            attributes.append(name)
    frame._numeric_attributes = tuple(attributes)
    return attributes


def describe(frame: "PolyFrame", attributes: list[str] | None = None) -> EagerFrame:
    """Aggregate statistics for each (numeric) attribute in one query."""
    if attributes is None:
        attributes = _numeric_attributes(frame)
    if not attributes:
        raise RewriteError("describe() found no numeric attributes to profile")

    items = tuple(
        (stat, attribute, f"{stat}_{attribute}")
        for attribute in attributes
        for stat in _DESCRIBE_STATS
    )
    compiled = frame._compile(MultiAgg(frame.plan, items), terminal="return_all")
    result = send_compiled(frame.connector, compiled, frame.collection)
    records = frame.connector.postprocess(result)
    if len(records) != 1:
        raise RewriteError(f"describe() expected one result row, got {len(records)}")
    row = records[0]
    columns: dict[str, list] = {"statistic": list(_DESCRIBE_STATS)}
    for attribute in attributes:
        columns[attribute] = [row.get(f"{stat}_{attribute}") for stat in _DESCRIBE_STATS]
    return EagerFrame(columns)


def get_dummies(series: PolySeries) -> "PolyFrame":
    """One-hot encode a column: distinct values, then indicator statements.

    Returns a lazy PolyFrame whose rows are 0/1 indicator records; call an
    action (``head``/``collect``) to materialize.
    """
    from repro.core.frame import PolyFrame  # local import: cycle guard

    if series.attribute is None:
        raise RewriteError("get_dummies() requires a plain column")
    categories = sorted(
        {value for value in series.unique() if value is not None}, key=str
    )
    if not categories:
        raise RewriteError(f"column {series.attribute!r} has no categories to encode")

    column = series._as_expr()
    if not isinstance(column, ColumnExpr):
        column = OpaqueExpr(series._left_operand())
    # Indicator columns keep pandas' ``{column}_{value}`` naming.
    items = tuple(
        (
            BinaryExpr("eq", column, LiteralExpr(value)),
            f"{series.attribute}_{value}",
        )
        for value in categories
    )
    base_plan = series._base_plan
    if base_plan is None:
        raise RewriteError("get_dummies() requires a series derived from a frame")
    return PolyFrame(
        namespace="",
        collection=series._collection,
        connector=series._connector,
        validate=False,
        plan=ComputeList(base_plan, items),
    )


def value_counts(series: PolySeries) -> "PolyFrame":
    """Counts per distinct value, most frequent first (lazy)."""
    from repro.core.frame import PolyFrame

    if series.attribute is None:
        raise RewriteError("value_counts() requires a plain column")
    base_plan = series._base_plan
    if base_plan is None:
        raise RewriteError("value_counts() requires a series derived from a frame")
    alias = f"count_{series.attribute}"
    grouped = GroupAgg(base_plan, (series.attribute,), "count", series.attribute, alias)
    return PolyFrame(
        namespace="",
        collection=series._collection,
        connector=series._connector,
        validate=False,
        plan=Sort(grouped, alias, ascending=False),
    )

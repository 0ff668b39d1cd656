"""The sort kernel shared by the engines and the cluster merge.

**Ordering** by a list of per-row keys with per-key direction recurs
across the row engine, the vector engine, and the scatter-gather merge
layer; it lives here so every layer shares one implementation.  The sort
kernel is decorate-sort-undecorate: each row's key tuple is computed
exactly once, instead of once per comparison pass per key as the old
``SortOp`` did — on a 10k-row two-key sort that removes tens of
thousands of redundant expression evaluations.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


class Descending:
    """Inverts comparison order for descending sort keys inside tuples."""

    __slots__ = ("inner",)

    def __init__(self, inner: Any) -> None:
        self.inner = inner

    def __lt__(self, other: "Descending") -> bool:
        return other.inner < self.inner

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Descending) and other.inner == self.inner


def sort_records(
    rows: Sequence[Any],
    key_of: Callable[[Any], Sequence[Any]],
    descending: Sequence[bool],
) -> list[Any]:
    """Stable multi-key sort with one key computation per row.

    ``key_of(row)`` returns the row's sort keys, already normalized with
    :func:`index_key`; ``descending[i]`` flips the i-th key's direction.
    Equivalent to a reversed sequence of stable single-key sorts, but
    evaluates every key expression exactly once per row.
    """
    decorated = [
        tuple(
            Descending(key) if desc else key
            for key, desc in zip(key_of(row), descending)
        )
        for row in rows
    ]
    # Sorting positions keeps the sort stable without comparing rows.
    order = sorted(range(len(rows)), key=decorated.__getitem__)
    return [rows[i] for i in order]

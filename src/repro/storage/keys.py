"""Key normalization for index storage.

Index keys must be totally ordered even when the underlying data is
heterogeneous (ints mixed with floats and strings) or absent.  Real systems
solve this with a typed sort order; we solve it the same way by mapping every
value to a ``(type_rank, value)`` pair before it enters a B+ tree.

Two "absent" states are distinguished, mirroring AsterixDB's data model:

- ``None`` (SQL ``NULL`` / ADM ``null``) sorts before every concrete value.
- :data:`SENTINEL_MISSING` (ADM ``missing``, i.e. the attribute is not present
  in the record at all) sorts before ``NULL``.

PostgreSQL records NULLs in its B-tree indexes — the paper leans on this for
expression 13 ("null and missing values are only recorded in the attribute's
index in PostgreSQL") — so whether absent keys are indexed at all is a
per-index policy, not a property of the key encoding.
"""

from __future__ import annotations

import enum
from typing import Any


class _Missing:
    """Singleton marking an attribute that is absent from a record."""

    _instance: "_Missing | None" = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


SENTINEL_MISSING = _Missing()

# Type ranks define the cross-type sort order: missing < null < bool <
# numbers < strings < tuples.  Tuples appear when composite keys are nested.
_RANK_MISSING = 0
_RANK_NULL = 1
_RANK_BOOL = 2
_RANK_NUMBER = 3
_RANK_STRING = 4
_RANK_TUPLE = 5


class KeyOrder(enum.Enum):
    """Scan direction for ordered index traversal."""

    ASCENDING = "asc"
    DESCENDING = "desc"


def index_key(value: Any) -> tuple:
    """Normalize *value* into a totally ordered ``(rank, payload)`` tuple.

    >>> index_key(None) < index_key(0) < index_key("a")
    True
    >>> index_key(SENTINEL_MISSING) < index_key(None)
    True
    """
    if value is SENTINEL_MISSING:
        return (_RANK_MISSING, 0)
    if value is None:
        return (_RANK_NULL, 0)
    if isinstance(value, bool):
        return (_RANK_BOOL, int(value))
    if isinstance(value, (int, float)):
        return (_RANK_NUMBER, value)
    if isinstance(value, str):
        return (_RANK_STRING, value)
    if isinstance(value, (tuple, list)):
        return (_RANK_TUPLE, tuple(index_key(item) for item in value))
    raise TypeError(f"value of type {type(value).__name__} cannot be an index key")


_SELF_ORDERED = frozenset({int, float, str})


def sorts_before(left: Any, right: Any) -> bool:
    """``index_key(left) < index_key(right)`` without building the keys when
    both values are of one plain type (whose own ``<`` is the key order)."""
    kind = type(left)
    if kind is type(right) and kind in _SELF_ORDERED:
        return left < right
    return index_key(left) < index_key(right)


def is_absent(value: Any) -> bool:
    """Return True when *value* is SQL NULL or ADM MISSING."""
    return value is None or value is SENTINEL_MISSING

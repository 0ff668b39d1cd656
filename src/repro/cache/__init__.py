"""Caching: compiled queries, and query results with write invalidation.

PolyFrame's lazy evaluation re-ships a query to the backend on every
action, even when the same logical plan over unchanged data was just
answered.  :class:`CompiledQueryCache` removes the *compilation* cost of
that repetition — PolyFrame keeps one per connector, keyed on the plan's
shape, and the SQL, SQL++ and Cypher engines one each for their prepared
plans; the rest of this package removes the *execution* cost:

- :class:`ResultCache` — a byte-budgeted LRU of materialized results
  with cost-aware admission (minimum query time, maximum entry size),
  optional TTL, and never-cache-partial semantics.
- :class:`DatasetVersions` — monotonic per-dataset version counters.
  Every mutating path (``persist()``, loaders, cluster DDL/DML) bumps
  the datasets it writes; the version *vector* of the datasets a query
  touches is part of the cache key, so a stale entry can never match.
- :class:`Singleflight` — in-flight deduplication: concurrent identical
  sends execute once, the rest block on the winner and share its answer.
Result caching (the ``cache=`` kwarg / ``REPRO_CACHE``, see
:mod:`repro.config`) is off by default (seed-identical behavior); see
``docs/caching.md`` for the key structure, invalidation rules, admission
policy, and fallback matrix.
"""

from repro.cache.compiled import CompiledQueryCache
from repro.cache.result_cache import (
    DEFAULT_MAX_BYTES,
    CacheEntry,
    DatasetVersions,
    ResultCache,
)
from repro.cache.singleflight import Singleflight

__all__ = [
    "DEFAULT_MAX_BYTES",
    "CacheEntry",
    "CompiledQueryCache",
    "DatasetVersions",
    "ResultCache",
    "Singleflight",
]

"""Catalog: name resolution for tables and their indexes.

Each engine owns one :class:`Catalog`.  A catalog entry (:class:`TableInfo`)
bundles the row heap, the declared (possibly open) schema, statistics, and
the set of indexes built over the table.  Index metadata records the policy
knobs that distinguish the backends:

- ``include_absent`` — whether NULL/MISSING values appear in the index.
  True for the PostgreSQL-like engine (the paper's expression-13 finding),
  False for the AsterixDB-, MongoDB-, and Neo4j-like engines.
- ``unique`` — primary-key indexes reject duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import CatalogError, DuplicateKeyError, StorageError
from repro.storage.btree import BPlusTree
from repro.storage.heap import RowHeap
from repro.storage.keys import SENTINEL_MISSING, index_key, is_absent
from repro.storage.stats import TableStats, compute_stats


@dataclass
class IndexInfo:
    """Metadata and structure for one index."""

    name: str
    table: str
    column: str
    tree: BPlusTree
    unique: bool = False
    include_absent: bool = True

    def covers_absent(self) -> bool:
        """True when IS NULL / isna() predicates can be answered from the index."""
        return self.include_absent


@dataclass
class TableInfo:
    """Catalog entry for a single table/dataset/collection."""

    name: str
    heap: RowHeap
    columns: list[str] = field(default_factory=list)
    primary_key: str | None = None
    indexes: dict[str, IndexInfo] = field(default_factory=dict)
    stats: TableStats = field(default_factory=TableStats)

    def index_on(self, column: str) -> IndexInfo | None:
        """Return an index whose key is *column*, if any."""
        for info in self.indexes.values():
            if info.column == column:
                return info
        return None

    @property
    def row_count(self) -> int:
        return len(self.heap)


class Catalog:
    """Tables and indexes for one database engine instance."""

    def __init__(self, *, default_include_absent: bool = True) -> None:
        self._tables: dict[str, TableInfo] = {}
        self._default_include_absent = default_include_absent
        #: Bumped by DDL (tables, indexes), not by data writes: plans are cached per epoch.
        self.epoch = 0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: Iterable[str] | None = None,
        primary_key: str | None = None,
    ) -> TableInfo:
        """Register a new table; creates a unique PK index when requested."""
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        info = TableInfo(
            name=name,
            heap=RowHeap(),
            columns=list(columns) if columns else [],
            primary_key=primary_key,
        )
        self._tables[key] = info
        self.epoch += 1
        if primary_key is not None:
            self.create_index(f"{name}_pkey", name, primary_key, unique=True)
        return info

    def drop_table(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[name.lower()]
        self.epoch += 1

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def tables(self) -> list[TableInfo]:
        return list(self._tables.values())

    def create_index(
        self,
        index_name: str,
        table_name: str,
        column: str,
        *,
        unique: bool = False,
        include_absent: bool | None = None,
    ) -> IndexInfo:
        """Build a B+ tree over an existing table's column.

        Rows already in the heap are indexed immediately; subsequent inserts
        through :meth:`insert_row` maintain the index.
        """
        table = self.table(table_name)
        if index_name in table.indexes:
            raise CatalogError(f"index {index_name!r} already exists on {table_name!r}")
        include = self._default_include_absent if include_absent is None else include_absent
        tree = BPlusTree(unique=unique)
        info = IndexInfo(
            name=index_name,
            table=table.name,
            column=column,
            tree=tree,
            unique=unique,
            include_absent=include,
        )
        for rid, record in table.heap.scan():
            self._index_record(info, rid, record)
        table.indexes[index_name] = info
        self.epoch += 1
        return info

    def drop_index(self, table_name: str, index_name: str) -> None:
        table = self.table(table_name)
        if index_name not in table.indexes:
            raise CatalogError(f"index {index_name!r} does not exist on {table_name!r}")
        del table.indexes[index_name]
        self.epoch += 1

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert_row(self, table_name: str, record: dict[str, Any]) -> int:
        """Insert one record, maintaining all indexes and the PK constraint."""
        table = self.table(table_name)
        if table.primary_key is not None:
            pk_value = record.get(table.primary_key, SENTINEL_MISSING)
            if is_absent(pk_value):
                raise StorageError(
                    f"record lacks primary key {table.primary_key!r} for table {table.name!r}"
                )
        rid = table.heap.insert(record)
        try:
            for info in table.indexes.values():
                self._index_record(info, rid, record)
        except StorageError:
            table.heap.delete(rid)
            raise DuplicateKeyError(
                f"duplicate primary key in {table.name!r}: {record.get(table.primary_key)!r}"
            ) from None
        return rid

    def insert_rows(self, table_name: str, records: Iterable[dict[str, Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        count = 0
        for record in records:
            self.insert_row(table_name, record)
            count += 1
        return count

    def _index_record(self, info: IndexInfo, rid: int, record: dict[str, Any]) -> None:
        value = record.get(info.column, SENTINEL_MISSING)
        if is_absent(value) and not info.include_absent:
            return
        info.tree.insert(index_key(value), rid)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def analyze(self, table_name: str) -> TableStats:
        """Recompute and store statistics for *table_name* (like ANALYZE)."""
        table = self.table(table_name)
        columns = table.columns or None
        table.stats = compute_stats(table.heap.scan_records(), columns)
        return table.stats

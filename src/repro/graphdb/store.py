"""Graph storage: node store, property records, string store, count store.

Neo4j's record layout stores node properties as a linked list of fixed-size
records; strings overflow to a dedicated string store and the property
record keeps a pointer.  We reproduce the structure (and its observable
consequence — numeric scans never touch string data) with:

- :class:`PropertyRecord` — a compact ``(key_id, kind, payload)`` triple
  where the payload is the value itself for numbers/booleans, or a string
  store offset for strings;
- :class:`StringStore` — an append-only list of strings, read through
  :meth:`StringStore.read` so accesses are countable;
- :class:`CountStore` — per-label node counts, updated transactionally on
  insert, giving O(1) ``COUNT(*)`` per label.

Property keys are interned to integer ids (as in Neo4j's key token store),
and each node's record layout (key ids, and which records are strings) as a
*shape* written on insert: a ``{key_id: position}`` map plus the string count,
so a property read is one dict probe plus one index, not a walk of the chain.
"""

from __future__ import annotations

from itertools import compress
from operator import getitem, itemgetter
from typing import Any, Iterator, NamedTuple

from repro.errors import CatalogError, StorageError
from repro.storage.btree import BPlusTree
from repro.storage.keys import SENTINEL_MISSING, index_key

KIND_NUMBER = 0
KIND_BOOL = 1
KIND_STRING = 2
KIND_NULL = 3


class PropertyRecord(NamedTuple):
    """One fixed-size property slot: key token, kind tag, inline payload."""

    key_id: int
    kind: int
    payload: Any  # number/bool inline; string-store offset for strings


class StringStore:
    """Append-only store for string property values."""

    def __init__(self) -> None:
        #: The strings by offset; whoever reads it directly adds to ``reads``.
        self.data: list[str] = []
        self.reads = 0

    def append(self, value: str) -> int:
        self.data.append(value)
        return len(self.data) - 1

    def read(self, offset: int) -> str:
        """Fetch a string by offset; counted so tests can assert locality."""
        self.reads += 1
        return self.data[offset]

    def __len__(self) -> int:
        return len(self.data)


class CountStore:
    """Transactional per-label node counts (Neo4j's count store)."""

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}

    def increment(self, label: str, delta: int = 1) -> None:
        self._counts[label] = self._counts.get(label, 0) + delta

    def node_count(self, label: str) -> int:
        """O(1) metadata lookup — the paper's expression-1 fast path."""
        return self._counts.get(label, 0)


class GraphStore:
    """Nodes with labels, record-structured properties, and indexes."""

    def __init__(self) -> None:
        self._key_tokens: dict[str, int] = {}
        self._key_names: list[str] = []
        #: ``(label, property records, shape)``
        self._nodes: list[tuple[str, tuple[PropertyRecord, ...], tuple[dict, int]]] = []
        #: ``(key_id, is a string)`` per record -> shape: ``({key_id: position}, strings)``
        self._shapes: dict[tuple, tuple[dict[int, int], int]] = {}
        self._label_index: dict[str, list[int]] = {}
        self._property_indexes: dict[tuple[str, str], BPlusTree] = {}
        self.strings = StringStore()
        self.counts = CountStore()

    # ------------------------------------------------------------------
    # Tokens
    # ------------------------------------------------------------------
    def key_id(self, name: str) -> int:
        """Intern a property key name to its token id."""
        if name not in self._key_tokens:
            self._key_tokens[name] = len(self._key_names)
            self._key_names.append(name)
        return self._key_tokens[name]

    def key_name(self, key_id: int) -> str:
        return self._key_names[key_id]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def create_node(self, label: str, properties: dict[str, Any]) -> int:
        """Create a node; strings go to the string store, rest inline."""
        records = []
        for name, value in properties.items():
            if value is SENTINEL_MISSING:
                continue  # absent attributes simply have no property record
            key_id = self.key_id(name)
            if value is None:
                records.append(PropertyRecord(key_id, KIND_NULL, None))
            elif isinstance(value, bool):
                records.append(PropertyRecord(key_id, KIND_BOOL, value))
            elif isinstance(value, (int, float)):
                records.append(PropertyRecord(key_id, KIND_NUMBER, value))
            elif isinstance(value, str):
                offset = self.strings.append(value)
                records.append(PropertyRecord(key_id, KIND_STRING, offset))
            else:
                raise StorageError(
                    f"unsupported property type {type(value).__name__} for {name!r}"
                )
        node_id = len(self._nodes)
        layout = tuple((record.key_id, record.kind == KIND_STRING) for record in records)
        if layout not in self._shapes:
            positions = {key_id: i for i, (key_id, _string) in enumerate(layout)}
            self._shapes[layout] = positions, sum(string for _key_id, string in layout)
        self._nodes.append((label, tuple(records), self._shapes[layout]))
        self._label_index.setdefault(label, []).append(node_id)
        self.counts.increment(label)
        for (index_label, prop), tree in self._property_indexes.items():
            if index_label == label:
                value = self.read_property(node_id, prop)
                if value is not SENTINEL_MISSING and value is not None:
                    tree.insert(index_key(value), node_id)
        return node_id

    def create_nodes(self, label: str, records: list[dict[str, Any]]) -> int:
        for record in records:
            self.create_node(label, record)
        return len(records)

    def create_index(self, label: str, prop: str) -> None:
        """Index ``(label, property)``; null/absent values are not indexed."""
        key = (label, prop)
        if key in self._property_indexes:
            raise CatalogError(f"index on {label}({prop}) already exists")
        tree = BPlusTree()
        for node_id in self._label_index.get(label, ()):
            value = self.read_property(node_id, prop)
            if value is not SENTINEL_MISSING and value is not None:
                tree.insert(index_key(value), node_id)
        self._property_indexes[key] = tree

    def drop_index(self, label: str, prop: str) -> None:
        try:
            del self._property_indexes[(label, prop)]
        except KeyError:
            raise CatalogError(f"no index on {label}({prop})") from None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        return len(self._nodes)

    def label_scan(self, label: str) -> Iterator[int]:
        """All node ids with *label*, in creation order."""
        yield from self._label_index.get(label, ())

    def has_index(self, label: str, prop: str) -> bool:
        return (label, prop) in self._property_indexes

    def index(self, label: str, prop: str) -> BPlusTree:
        try:
            return self._property_indexes[(label, prop)]
        except KeyError:
            raise CatalogError(f"no index on {label}({prop})") from None

    def read_property(self, node_id: int, name: str) -> Any:
        """Read one property; strings go through the string store.

        Returns :data:`SENTINEL_MISSING` when the node has no such property
        record — reading a numeric property never touches string data.
        """
        _label, records, (positions, _strings) = self._nodes[node_id]
        position = positions.get(self._key_tokens.get(name))
        if position is None:
            return SENTINEL_MISSING
        _key, kind, payload = records[position]
        return self.strings.read(payload) if kind == KIND_STRING else payload

    def read_columns(self, node_ids: list[int], names: list[str]) -> list[tuple]:
        """The named properties of each node as one tuple, read a column at a time with
        positions resolved per shape; absent reads as ``None``, a string books one read."""
        nodes = list(map(self._nodes.__getitem__, node_ids))
        records = list(map(itemgetter(1), nodes))
        shapes = list(map(id, map(itemgetter(2), nodes)))
        columns, read = [], {}  # a name listed twice is read once and booked twice
        for name in names:
            if name not in read:
                key_id = self._key_tokens.get(name)
                where = {id(shape): shape[0].get(key_id) for shape in self._shapes.values()}
                positions = list(map(where.__getitem__, shapes))
                if None in positions:  # an absent property reads as a NULL record
                    null = PropertyRecord(-1, KIND_NULL, None)
                    picked = [null if p is None else r[p] for r, p in zip(records, positions)]
                else:
                    picked = list(map(getitem, records, positions))
                values = list(map(itemgetter(2), picked))
                is_string = map(KIND_STRING.__eq__, map(itemgetter(1), picked))
                strings = list(compress(range(len(values)), is_string))
                for i in strings:
                    values[i] = self.strings.data[values[i]]
                read[name] = values, len(strings)
            values, strings = read[name]
            self.strings.reads += strings
            columns.append(values)
        return list(zip(*columns)) if columns else [()] * len(nodes)

    def node_properties(self, node_id: int) -> dict[str, Any]:
        """Materialize every property of a node (string reads counted)."""
        _label, records, (_positions, strings) = self._nodes[node_id]
        names, data = self._key_names, self.strings.data
        self.strings.reads += strings  # one counted read per string record
        return {
            names[key_id]: data[payload] if kind == KIND_STRING else payload
            for key_id, kind, payload in records
        }

    def node_label(self, node_id: int) -> str:
        return self._nodes[node_id][0]

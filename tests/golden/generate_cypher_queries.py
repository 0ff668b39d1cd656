"""Regenerate ``cypher_queries.json``, the whole-query corpus of the graph engine.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_cypher_queries.py

Where ``engine_exprs.json`` pins single Cypher expressions, this corpus
pins whole queries end to end: the records a query returns (as JSON text,
so key order and ``1`` vs ``1.0`` count) and the work counters it books
(``heap_fetches``, ``index_entries``, ``full_scans``,
``string_store_reads``), or the error class and message it raises.  It
holds the Neo4j Cypher of the 13 Table III expressions, every Neo4j cell
of the ``point_lookup``, ``full_scan`` and ``cached_readwrite`` perf
workloads with fixed parameters, and seeded queries over Wisconsin-shaped
nodes with NULL, absent and mixed int/float/str/bool properties: group-bys
over 0-2 keys, every aggregate, WHERE trees over AND/OR/NOT/IS NULL and
ranges, label-scan and index-seeded matches, map projections that fold,
dead projections, and aggregates followed by ORDER BY / LIMIT.
``tests/test_cypher_queries.py`` replays it.

The committed file was captured from the row-at-a-time clause chain,
before shape-resolved reads and the fused label-scan → aggregate step
existed.  Cases carrying an ``edited`` note are the ones whose expectation
changed on purpose; the note holds the earlier answer.  Case generation
depends only on ``SEED``, never on the engine.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any

SEED = 2207
SEEDED_CASES = 120
HERE = os.path.dirname(os.path.abspath(__file__))
WISCONSIN_ROWS = 400
COUNTERS = ("heap_fetches", "index_entries", "full_scans", "string_store_reads")

# ----------------------------------------------------------------------
# Fixed cases: Table III and the perf workloads' Neo4j cells
# ----------------------------------------------------------------------
TABLE_III = [
    "MATCH(t: data)\nRETURN COUNT(*) AS t",
    "MATCH(t: data)\nWITH t{'two': t.two, 'four': t.four}\nRETURN t\nLIMIT 5",
    "MATCH(t: data)\nWITH t WHERE t.ten = 2 AND t.twentyPercent = 3 AND t.two = 0\n"
    "RETURN COUNT(*) AS t",
    "MATCH(t: data)\nWITH {'oddOnePercent': t.oddOnePercent, 'count_oddOnePercent': "
    "count(t.oddOnePercent)} AS t\nRETURN t",
    "MATCH(t: data)\nWITH t{'stringu1': t.stringu1}\nWITH t{'stringu1': upper(t.stringu1)}\n"
    "RETURN t\nLIMIT 5",
    "MATCH(t: data)\nWITH t{'unique1': t.unique1}\nWITH {'max_unique1': max(t.unique1)} AS t\n"
    "RETURN t",
    "MATCH(t: data)\nWITH t{'unique1': t.unique1}\nWITH {'min_unique1': min(t.unique1)} AS t\n"
    "RETURN t",
    "MATCH(t: data)\nWITH {'twenty': t.twenty, 'max_four': max(t.four)} AS t\nRETURN t",
    "MATCH(t: data)\nWITH t ORDER BY t.unique1 DESC\nRETURN t\nLIMIT 5",
    "MATCH(t: data)\nWITH t WHERE t.ten = 2\nRETURN t\nLIMIT 5",
    "MATCH(t: data)\nWITH t WHERE t.onePercent >= 41 AND t.onePercent <= 50\n"
    "RETURN COUNT(*) AS t",
    "MATCH(t: data)\nMATCH (t), (r: data2)\nWHERE t.unique1 = r.unique1\nWITH t{.*, r}\n"
    "RETURN COUNT(*) AS t",
    "MATCH(t: data)\nWITH t WHERE t.tenPercent IS NULL\nRETURN COUNT(*) AS t",
]


def _cell_texts(label: str) -> dict[str, str]:
    """The Cypher each perf cell sends, with fixed x/y/z parameters."""
    m = f"MATCH(t: {label})\n"
    return {
        "E1": m + "RETURN COUNT(*) AS t",
        "E2": m + "WITH t{'two': t.two, 'four': t.four}\nRETURN t\nLIMIT 5",
        "E3": m + "WITH t WHERE t.ten = 4 AND t.twentyPercent = 4 AND t.two = 0\n"
        "RETURN COUNT(*) AS t",
        "E4": m + "WITH {'oddOnePercent': t.oddOnePercent, 'count_oddOnePercent': "
        "count(t.oddOnePercent)} AS t\nRETURN t",
        "E5": m + "WITH t{'stringu1': t.stringu1}\nWITH t{'stringu1': upper(t.stringu1)}\n"
        "RETURN t\nLIMIT 5",
        "E6": m + "WITH t{'unique1': t.unique1}\nWITH {'max_unique1': max(t.unique1)} AS t\n"
        "RETURN t",
        "E7": m + "WITH t{'unique1': t.unique1}\nWITH {'min_unique1': min(t.unique1)} AS t\n"
        "RETURN t",
        "E8": m + "WITH {'twenty': t.twenty, 'max_four': max(t.four)} AS t\nRETURN t",
        "E9": m + "WITH t ORDER BY t.unique1 DESC\nRETURN t\nLIMIT 5",
        "E10": m + "WITH t WHERE t.ten = 7\nRETURN t\nLIMIT 5",
        "E11": m + "WITH t WHERE t.onePercent >= 37 AND t.onePercent <= 46\n"
        "RETURN COUNT(*) AS t",
        "E12": "MATCH(t: data)\nMATCH (t), (r: data2)\nWHERE t.unique1 = r.unique1\n"
        "WITH t{.*, r}\nRETURN COUNT(*) AS t",
        "E13": m + "WITH t WHERE t.tenPercent IS NULL\nRETURN COUNT(*) AS t",
        "lookup": m + "WITH t WHERE t.unique1 = 123\nRETURN t\nLIMIT 5",
        "collect": m + "WITH t{'unique1': t.unique1, 'two': t.two, 'four': t.four}\nRETURN t",
    }


#: The Neo4j cells of each perf workload (``benchmarks/perf/cells.py``).
WORKLOAD_CELLS = {
    "point_lookup": [("data", c) for c in ("lookup", "E1", "E2", "E5", "E9", "E10", "E11")],
    "full_scan": [("data", c) for c in ("E4", "E6", "E7", "E8", "E12", "E13", "collect")],
    "cached_readwrite": [("data", c) for c in ("E2", "E5", "E9", "E10", "E4", "E8")]
    + [("data2", c) for c in ("E1", "E13", "E11", "E3", "E6", "E12")],
}


def fixed_cases() -> list[dict[str, Any]]:
    cases = [{"name": f"table3/E{n}", "store": "wisconsin", "cypher": text}
             for n, text in enumerate(TABLE_III, start=1)]
    for workload, cells in WORKLOAD_CELLS.items():
        for label, cell in cells:
            cases.append({"name": f"{workload}/{cell}@{label}", "store": "wisconsin",
                          "cypher": _cell_texts(label)[cell]})
    return cases


# ----------------------------------------------------------------------
# Seeded cases over mixed-type, Wisconsin-shaped nodes
# ----------------------------------------------------------------------
MIXED_NODES = 64
#: Indexed properties of label ``w`` (and ``unique1`` of label ``v``).
MIXED_INDEXES = (("w", "unique1"), ("w", "ten"), ("v", "unique1"))
_MIXED_VALUES = [0, 1, 2, 3, 2.5, -1, 7.0, "x", "abc", "", True, False, None]


def mixed_nodes(count: int, rng: random.Random) -> list[dict[str, Any]]:
    """Wisconsin-like records where some properties are NULL, absent or oddly typed."""
    nodes = []
    for i in range(count):
        unique1 = (i * 37) % count
        node: dict[str, Any] = {
            "unique1": unique1,
            "two": unique1 % 2,
            "four": unique1 % 4 if unique1 % 9 else float(unique1 % 4),
            "ten": unique1 % 10,
            "twenty": unique1 % 20,
            "tenPercent": unique1 % 10,
            "s": f"S{unique1 % 6}",
            "f": unique1 / 4,
            "b": unique1 % 3 == 0,
            "mixed": rng.choice(_MIXED_VALUES),
        }
        if unique1 % 10 == 0:
            del node["tenPercent"]  # absent, as the Wisconsin generator does
        if unique1 % 7 == 3:
            node["ten"] = None
        if unique1 % 11 == 5:
            node["ten"] = rng.choice(["5", 5.0, True])
        if unique1 % 13 == 4:
            del node["s"]
        if unique1 % 8 == 1:
            node["f"] = None
        nodes.append(node)
    return nodes


_PROPS = ["unique1", "two", "four", "ten", "twenty", "tenPercent", "s", "f", "b", "mixed", "zz"]
_NUMERIC = ["unique1", "two", "four", "ten", "twenty", "tenPercent", "f"]
_LITS = ["0", "1", "2", "3", "5", "2.5", "-1", "'S1'", "'x'", "''", "TRUE", "FALSE", "NULL"]
_AGGS = ["count(*)", "count({p})", "min({p})", "max({p})", "sum({p})", "avg({p})", "stdevp({p})"]


def _atom(rng: random.Random, var: str) -> str:
    roll = rng.random()
    prop = rng.choice(_PROPS)
    if roll < 0.45:
        return f"{var}.{prop} {rng.choice(['=', '<>', '<', '<=', '>', '>='])} {rng.choice(_LITS)}"
    if roll < 0.6:
        return f"{var}.{prop} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if roll < 0.75:
        numeric = rng.choice(_NUMERIC)
        low = rng.randint(-1, 12)
        return f"{var}.{numeric} >= {low} AND {var}.{numeric} <= {low + rng.randint(0, 9)}"
    if roll < 0.85:
        members = ", ".join(rng.choice(_LITS) for _ in range(rng.randint(1, 3)))
        return f"{var}.{prop} IN [{members}]"
    return f"{var}.{rng.choice(_NUMERIC)} % 3 = {rng.randint(0, 2)}"


def _predicate(rng: random.Random, var: str, depth: int = 2) -> str:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return _atom(rng, var)
    if roll < 0.6:
        return f"NOT ({_predicate(rng, var, depth - 1)})"
    op = rng.choice(["AND", "OR"])
    return f"({_predicate(rng, var, depth - 1)}) {op} ({_predicate(rng, var, depth - 1)})"


def _index_predicate(rng: random.Random) -> str:
    """A conjunct the planner turns into an index seek or range on label ``w``."""
    prop = rng.choice(["unique1", "ten"])
    if rng.random() < 0.5:
        return f"t.{prop} = {rng.randint(0, 9)}"
    low = rng.randint(0, 40 if prop == "unique1" else 6)
    return f"t.{prop} >= {low} AND t.{prop} < {low + rng.randint(1, 20)}"


def _aggregate_query(rng: random.Random) -> str:
    lines = ["MATCH (t:w)"]
    filters = []
    if rng.random() < 0.35:
        filters.append(_index_predicate(rng))
    if rng.random() < 0.6:
        filters.append(f"({_predicate(rng, 't')})")
    if filters:
        keyword = "WHERE" if rng.random() < 0.5 else "WITH t WHERE"
        lines.append(f"{keyword} {' AND '.join(filters)}")

    var = "t"
    props = _PROPS
    if rng.random() < 0.25:  # a plain projection the next clause reads as t.k
        chosen = rng.sample(_PROPS[:-1], rng.randint(1, 3))
        entries = ", ".join(f"'{p}': t.{p}" for p in chosen)
        lines.append(f"WITH t{{{entries}}}")
        props = chosen + (["zz"] if rng.random() < 0.2 else [])

    keys = [f"{var}.{p}" for p in rng.sample(props, min(len(props), rng.randint(0, 2)))]
    if keys and rng.random() < 0.2:
        keys[0] = f"{keys[0]} % 3"
    aggregates = [
        rng.choice(_AGGS).format(p=f"{var}.{rng.choice(props)}")
        for _ in range(rng.randint(1, 3))
    ]
    as_map = rng.random() < 0.3
    if as_map:
        entries = [f"'k{i}': {key}" for i, key in enumerate(keys)]
        entries += [f"'a{i}': {agg}" for i, agg in enumerate(aggregates)]
        lines.append(f"WITH {{{', '.join(entries)}}} AS t")
        lines.append("RETURN t")
        return "\n".join(lines)
    items = [f"{key} AS k{i}" for i, key in enumerate(keys)]
    items += [f"{agg} AS a{i}" for i, agg in enumerate(aggregates)]
    names = [f"k{i}" for i in range(len(keys))] + [f"a{i}" for i in range(len(aggregates))]
    tail = []
    if rng.random() < 0.3:
        tail.append(f"ORDER BY {rng.choice(names)}{' DESC' if rng.random() < 0.5 else ''}")
    if rng.random() < 0.3:
        tail.append(f"LIMIT {rng.randint(1, 4)}")
    if rng.random() < 0.3:
        lines.append(f"WITH {', '.join(items)}")
        having = " WHERE a0 IS NOT NULL" if rng.random() < 0.5 else ""
        lines[-1] += having
        lines.append(f"RETURN {', '.join(names)}" + ("\n" + "\n".join(tail) if tail else ""))
    else:
        lines.append(f"RETURN {', '.join(items)}" + ("\n" + "\n".join(tail) if tail else ""))
    return "\n".join(lines)


_OTHER_SHAPES = [
    # Dead projections before a count: nothing downstream reads them.
    "MATCH (t:w)\nWITH t{.*}\nRETURN count(*) AS c",
    "MATCH (t:w) WHERE t.two = 1\nWITH t{.*, b: t.b}\nRETURN count(*) AS c",
    "MATCH (t:w)\nMATCH (t), (r:v)\nWHERE t.unique1 = r.unique1\nWITH t{.*, r}\n"
    "RETURN COUNT(*) AS c",
    "MATCH (t:w)\nMATCH (t), (r:v)\nWHERE t.unique1 = r.unique1 AND r.two = 0\n"
    "WITH t{.*, r}\nRETURN COUNT(*) AS c",
    "MATCH (t:w)\nMATCH (t), (r:v)\nWHERE t.unique1 = r.unique1\nWITH t{.*, r}\n"
    "RETURN t LIMIT 3",
    # Errors that raise only where they are evaluated.
    "MATCH (t:w) WHERE t.unique1 < 0\nRETURN foo(t.unique1) AS v",
    "MATCH (t:w) WHERE t.unique1 < 0\nRETURN t.two AS k, median(t.four) AS v",
    "MATCH (t:w)\nRETURN foo(t.unique1) AS v",
    "MATCH (t:w)\nRETURN t.two AS k, count() AS v",
    "MATCH (t:w)\nRETURN t.two AS k, count(q.x) AS v",
    "MATCH (t:w)\nWITH t{'a': t.two}\nRETURN q.a AS k, count(*) AS c",
    "MATCH (t:w) WHERE q.a = 1\nRETURN count(*) AS c",
    # Non-aggregating chains the fused step must leave alone.
    "MATCH (t:w)\nWITH t{'a': t.two, 'b': t.s}\nRETURN t.a AS a, t.b AS b LIMIT 4",
    "MATCH (t:w)\nWITH t{'a': t.two, 'b': t.s}\nWITH t{'a': t.a, 'c': upper(t.b)}\n"
    "RETURN t LIMIT 4",
    "MATCH (t:w) WHERE t.ten = 2\nRETURN t.unique1 AS u ORDER BY u",
    "MATCH (t:w)\nWITH t ORDER BY t.f DESC\nRETURN t.unique1 AS u LIMIT 3",
    "MATCH (t:w)\nRETURN DISTINCT t.two AS k, t.four AS f",
    "MATCH (t:w)\nRETURN t.two AS k, count(*) AS c, t",
    "MATCH (t:w)\nRETURN t, count(*) AS c LIMIT 2",
    "MATCH (t:w)\nWITH t.two AS k, collect(t.s) AS c\nRETURN k",
    "MATCH (t:w), (r:v) WHERE t.unique1 = 1 AND r.unique1 = 2\nRETURN t.two + r.two AS s, "
    "count(*) AS c",
    "MATCH (t:w)\nWITH t{'a': t.two}\nWITH t{'b': t.a}\nRETURN t.b AS b, count(*) AS c",
    "MATCH (t:w)\nWITH t{'a': t.two, 'b': t.s}\nRETURN count(t.b) AS c, max(t.a) AS m",
    "MATCH (t:w)\nRETURN count(*) + t.two AS c",
    "MATCH (t:w) WHERE t.s = 'S1' OR t.s = 'S2'\nRETURN t.s AS s, count(*) AS c",
    "MATCH (t:w)\nRETURN t.s AS s, max(t.s) AS m, min(t.s) AS n",
    "MATCH (t:zz)\nRETURN count(*) AS c, max(t.a) AS m",
    "MATCH (t:zz)\nRETURN t.a AS k, count(*) AS c",
]


def seeded_cases(rng: random.Random) -> list[dict[str, Any]]:
    cases = [{"name": f"seeded/{n}", "store": "mixed", "cypher": _aggregate_query(rng)}
             for n in range(SEEDED_CASES)]
    cases += [{"name": f"shape/{n}", "store": "mixed", "cypher": text}
              for n, text in enumerate(_OTHER_SHAPES)]
    return cases


# ----------------------------------------------------------------------
# Stores and the engine under test
# ----------------------------------------------------------------------
def build_store(kind: str):
    from repro.graphdb import Neo4jDatabase

    db = Neo4jDatabase(query_prep_overhead=0.0)
    if kind == "wisconsin":
        from repro.wisconsin import load_neo4j, wisconsin_records

        records = wisconsin_records(WISCONSIN_ROWS, seed=2021)
        for label in ("data", "data2"):
            load_neo4j(db, label, records)
        return db
    rng = random.Random(SEED)
    db.load("w", mixed_nodes(MIXED_NODES, rng))
    db.load("v", mixed_nodes(MIXED_NODES // 2, rng))
    for label, prop in MIXED_INDEXES:
        db.create_index(label, prop)
    return db


def run_query(db, text: str, mode: str = "plain") -> dict[str, Any]:
    """``{"records": json text, "counters": {...}}`` or ``{"error": [class, message]}``.

    *mode* is ``plain``, ``analyze`` (the profiled clause chain tracing
    uses) or ``stream`` (drained lazily).
    """
    try:
        if mode == "stream":
            result = db.execute(text, stream=True)
            records = list(result.iter_records())
        else:
            result = db.execute(text, analyze=mode == "analyze")
            records = result.records
    except Exception as exc:  # noqa: BLE001 - the class and message are the pin
        return {"error": [type(exc).__name__, str(exc)]}
    return {
        "records": json.dumps(records),
        "counters": {name: getattr(result.stats, name) for name in COUNTERS},
    }


def generate() -> dict[str, Any]:
    rng = random.Random(SEED)
    cases = fixed_cases() + seeded_cases(rng)
    stores = {kind: build_store(kind) for kind in ("wisconsin", "mixed")}
    for case in cases:
        case["want"] = run_query(stores[case["store"]], case["cypher"])
    return {"seed": SEED, "cases": cases}


def dump(corpus: dict[str, Any], handle) -> None:
    """One case per line, so an edited expectation is a one-line diff."""
    lines = ",\n".join(json.dumps(case) for case in corpus["cases"])
    handle.write(f'{{"seed": {corpus["seed"]},\n"cases": [\n{lines}\n]}}\n')


def main() -> None:
    path = os.path.join(HERE, "cypher_queries.json")
    with open(path, "w", encoding="utf-8") as handle:
        dump(generate(), handle)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

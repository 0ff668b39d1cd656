"""Regenerate ``prepared_frames.json``: the text every seeded frame sends.

Run from the repo root::

    PYTHONPATH=src python tests/golden/generate_prepared_frames.py

The corpus pins the query text PolyFrame sends for filter and compute
frames built around every kind of literal a shape leaves out as a binding
— ints (negative, large), floats (``-0.0``, ``1e-05``, ``1e+20``), strings
with quotes, backslashes and ``$`` prefixes, booleans — and the literals
that stay in the shape (``None``, ``isin`` lists, ``head``'s limit).  Each
case records, per backend under the key ``"0"``, every string handed to
``connector.send`` while the frame's action ran.  The committed file
also holds a ``"2"`` entry per backend: the texts of a scan-fused
compiled form that no longer exists, which nothing reads.

The committed file was captured before the compile cache keyed on plan
shapes, when literals were compiled into the text; rendering bindings
into a cached template must reproduce it byte for byte
(``tests/test_prepared_statements.py``).  Case generation depends only on
``SEED``.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any

SEED = 2323
CASES = 220
ROWS = 300
HERE = os.path.dirname(os.path.abspath(__file__))

COLUMNS = ["unique1", "two", "ten", "onePercent", "tenPercent", "stringu1", "string4"]
LITERALS: list[Any] = [
    0, 1, -1, 7, 42, -42, 123, 10**20, -(10**19),
    2.5, -0.0, 0.0, 3.0, 0.1, 1e-05, -2.5e-03, 1e20, -7.25,
    "x", "", "it's", 'say "hi"', "back\\slash", "$five", "$1", "$p0", "''", "A\\'B",
    "AAAAxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    True, False, None,
]
COMPARISONS = ["==", "!=", ">", "<", ">=", "<="]
ARITHMETIC = ["+", "-", "*", "/", "%"]


def _term(rng: random.Random) -> list[Any]:
    return [rng.choice(COLUMNS), rng.choice(COMPARISONS), rng.choice(LITERALS)]


def seeded_specs(rng: random.Random) -> list[dict[str, Any]]:
    """The frames, as data: what to build and which action runs it."""
    specs = []
    kinds = ["filter", "filter", "and", "or", "not", "compute", "mask", "shared",
             "sorted", "isin"]
    for _ in range(CASES):
        kind = rng.choice(kinds)
        spec: dict[str, Any] = {"kind": kind, "action": rng.choice(["len", "head"])}
        if kind in ("filter", "not", "mask", "shared", "sorted"):
            spec["terms"] = [_term(rng)]
        elif kind in ("and", "or"):
            spec["terms"] = [_term(rng), _term(rng)]
        elif kind == "compute":
            spec["terms"] = [[rng.choice(COLUMNS), rng.choice(ARITHMETIC), rng.choice(LITERALS)]]
        else:  # isin: a literal list stays in the shape
            spec["terms"] = [[rng.choice(COLUMNS), "isin",
                              [rng.choice(LITERALS) for _ in range(rng.randint(1, 3))]]]
        if kind in ("compute", "mask"):
            spec["action"] = "head"
        specs.append(spec)
    return specs


def _mask(df, term):
    column, op, value = term
    series = df[column]
    if op == "isin":
        return series.isin(value)
    return {
        "==": series.__eq__, "!=": series.__ne__, ">": series.__gt__,
        "<": series.__lt__, ">=": series.__ge__, "<=": series.__le__,
        "+": series.__add__, "-": series.__sub__, "*": series.__mul__,
        "/": series.__truediv__, "%": series.__mod__,
    }[op](value)


def run_spec(df, spec: dict[str, Any]) -> Any:
    """Build the frame *spec* describes over *df* and run its action."""
    kind, terms = spec["kind"], spec["terms"]
    if kind in ("compute", "mask"):
        return _mask(df, terms[0]).head()
    if kind == "and":
        lazy = df[_mask(df, terms[0]) & _mask(df, terms[1])]
    elif kind == "or":
        lazy = df[_mask(df, terms[0]) | _mask(df, terms[1])]
    elif kind == "not":
        lazy = df[~_mask(df, terms[0])]
    elif kind == "shared":  # one literal object, twice in the plan
        mask = _mask(df, terms[0])
        lazy = df[mask & mask]
    elif kind == "sorted":
        lazy = df[_mask(df, terms[0])].sort_values("unique1", ascending=False)
    else:
        lazy = df[_mask(df, terms[0])]
    return len(lazy) if spec["action"] == "len" else lazy.head()


def build_databases() -> dict[str, Any]:
    from repro.docstore import MongoDatabase
    from repro.graphdb import Neo4jDatabase
    from repro.sqlengine import SQLDatabase
    from repro.sqlpp import AsterixDB
    from repro.wisconsin import loaders, wisconsin_records

    records = wisconsin_records(ROWS, seed=2021)
    adb = AsterixDB(query_prep_overhead=0.0)
    loaders.load_asterixdb(adb, "Bench", "data", records)
    pg = SQLDatabase(name="postgres")
    loaders.load_postgres(pg, "Bench", "data", records)
    mongo = MongoDatabase(query_prep_overhead=0.0)
    loaders.load_mongodb(mongo, "data", records)
    neo = Neo4jDatabase(query_prep_overhead=0.0)
    loaders.load_neo4j(neo, "data", records)
    return {"asterixdb": adb, "postgres": pg, "mongodb": mongo, "neo4j": neo}


def connector_for(backend: str, db: Any):
    from repro import (
        AsterixDBConnector,
        MongoDBConnector,
        Neo4jConnector,
        PostgresConnector,
    )

    cls = {
        "asterixdb": AsterixDBConnector,
        "postgres": PostgresConnector,
        "mongodb": MongoDBConnector,
        "neo4j": Neo4jConnector,
    }[backend]
    return cls(db, cache=False)


def capture(connector, spec: dict[str, Any]) -> list[tuple[str, Any]]:
    """``(text, keyword arguments)`` of every send while *spec*'s action runs.

    Errors are part of the case: the sends made before one still count.
    """
    from repro import PolyFrame

    sent: list[tuple[str, Any]] = []
    original = connector.send

    def recording(query, collection, **kwargs):
        sent.append((query, kwargs))
        return original(query, collection, **kwargs)

    connector.send = recording
    try:
        run_spec(PolyFrame("Bench", "data", connector), spec)
    except Exception:  # noqa: BLE001 - engine errors are fine here
        pass
    finally:
        del connector.send
    return sent


def generate() -> dict[str, Any]:
    specs = seeded_specs(random.Random(SEED))
    databases = build_databases()
    cases = []
    for spec in specs:
        sent = {
            backend: {"0": [text for text, _ in capture(connector_for(backend, db), spec)]}
            for backend, db in databases.items()
        }
        cases.append({"spec": spec, "sent": sent})
    return {"seed": SEED, "cases": cases}


def main() -> None:
    corpus = generate()
    path = os.path.join(HERE, "prepared_frames.json")
    lines = ",\n".join(json.dumps(case) for case in corpus["cases"])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"seed": {corpus["seed"]},\n"cases": [\n{lines}\n]}}\n')
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

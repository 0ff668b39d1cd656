"""Workloads, cells and seeded op lists of the perf benchmark.

A *cell* is one dataframe expression on one backend: the thirteen Table
III expressions (re-declared here, they are one-liners), the unique-key
``lookup`` and the fetch-everything ``collect``.  A *workload* is a static
list of cells plus a mix; ``build_ops`` turns it into the fixed op list
one pass replays.

The multiset of cells in a pass is fixed by the workload, never by the
seed: the seed only permutes the order and draws the x/y/z parameters.
That keeps the work of a pass the same for every seed, so runs with
different seeds measure the program and not the draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro import PolyFrame

NAMESPACE = "Bench"
DATA = "data"
DATA2 = "data2"
DATA_SEED = 2021

SINGLE_BACKENDS = ("asterixdb", "postgres", "mongodb", "neo4j")
SHARDED_BACKENDS = ("greenplum", "asterixdb", "mongodb")
NUM_SHARDS = 4


def frame(conn: Any, dataset: str) -> PolyFrame:
    return PolyFrame(NAMESPACE, dataset, conn)


@dataclass(frozen=True)
class Cell:
    """One expression, split where the paper splits it.

    ``form`` builds the lazy object (frame construction + expression
    building, no query runs); ``act`` runs the action on it.  ``kind``
    tells the oracle how to compare the answer.
    """

    form: Callable[[Any, str, tuple], Any]
    act: Callable[[Any], Any]
    kind: str  # scalar | ordered | groups | members | rows


def _collect(lazy: Any) -> Any:
    return lazy.collect()


def _head(lazy: Any) -> Any:
    return lazy.head()


def _e3(c, d, p):
    df = frame(c, d)
    return df[(df["ten"] == p[0]) & (df["twentyPercent"] == p[1]) & (df["two"] == p[2])]


def _e10(c, d, p):
    df = frame(c, d)
    return df[df["ten"] == p[0]]


def _e11(c, d, p):
    df = frame(c, d)
    return df[(df["onePercent"] >= p[0]) & (df["onePercent"] <= p[1])]


def _e12(c, d, p):
    return frame(c, DATA).merge(frame(c, DATA2), left_on="unique1", right_on="unique1")


def _e13(c, d, p):
    df = frame(c, d)
    return df[df["tenPercent"].isna()]


def _lookup(c, d, p):
    df = frame(c, d)
    return df[df["unique1"] == p[0]]


CELLS: dict[str, Cell] = {
    "E1": Cell(lambda c, d, p: frame(c, d), len, "scalar"),
    "E2": Cell(lambda c, d, p: frame(c, d)[["two", "four"]], _head, "members"),
    "E3": Cell(_e3, len, "scalar"),
    "E4": Cell(
        lambda c, d, p: frame(c, d).groupby("oddOnePercent").agg("count"),
        _collect,
        "groups",
    ),
    "E5": Cell(lambda c, d, p: frame(c, d)["stringu1"].map(str.upper), _head, "members"),
    "E6": Cell(lambda c, d, p: frame(c, d)["unique1"], lambda s: s.max(), "scalar"),
    "E7": Cell(lambda c, d, p: frame(c, d)["unique1"], lambda s: s.min(), "scalar"),
    "E8": Cell(
        lambda c, d, p: frame(c, d).groupby("twenty")["four"].agg("max"),
        _collect,
        "groups",
    ),
    "E9": Cell(
        lambda c, d, p: frame(c, d).sort_values("unique1", ascending=False),
        _head,
        "ordered",
    ),
    "E10": Cell(_e10, _head, "members"),
    "E11": Cell(_e11, len, "scalar"),
    "E12": Cell(_e12, len, "scalar"),
    "E13": Cell(_e13, len, "scalar"),
    "lookup": Cell(_lookup, _head, "members"),
    "collect": Cell(
        lambda c, d, p: frame(c, d)[["unique1", "two", "four"]], _collect, "rows"
    ),
}

WRITE = "write"


class Op(NamedTuple):
    """One operation of a pass: a read cell with its parameters, or a write."""

    index: int
    backend: str
    cell: str
    dataset: str
    params: tuple

    @property
    def key(self) -> str:
        """The (backend, cell) label the per-cell rows are grouped by."""
        suffix = "@data2" if self.dataset == DATA2 and self.cell != WRITE else ""
        return f"{self.backend}/{self.cell}{suffix}"


def draw_params(cell: str, rng: random.Random) -> tuple:
    """Table III's x/y/z, drawn within each attribute's range."""
    if cell == "E3":
        return (rng.randint(0, 9), rng.randint(0, 4), rng.randint(0, 1))
    if cell == "E10":
        return (rng.randint(0, 9),)
    if cell == "E11":
        low = rng.randint(0, 90)
        return (low, low + 9)
    return ()


# ----------------------------------------------------------------------
# Static cell lists.  A later optimisation must not move a cell between
# workloads: the lists say which layer each workload loads, not which
# cells happen to be fast today.
# ----------------------------------------------------------------------
POINT_CELLS = {
    "asterixdb": ("E1", "E2", "E5", "E10", "E11"),
    "postgres": ("E2", "E5", "E6", "E7", "E9", "E10", "E11", "E13"),
    "mongodb": ("E1", "E2", "E5", "E9", "E10"),
    "neo4j": ("E1", "E2", "E5", "E9", "E10", "E11"),
}
SCAN_CELLS = {
    "asterixdb": ("E4", "E6", "E7", "E8", "E9", "E12", "E13", "collect"),
    "postgres": ("E1", "E4", "E8", "E12", "collect"),
    "mongodb": ("E3", "E4", "E6", "E7", "E8", "E11", "E12", "E13", "collect"),
    "neo4j": ("E4", "E6", "E7", "E8", "E12", "E13", "collect"),
}
_SHARD_COMMON = ("E1", "E4", "E6", "E7", "E8", "E9", "E11", "E13")
SHARD_CELLS = {
    "greenplum": _SHARD_COMMON + ("E12",),
    "asterixdb": _SHARD_COMMON + ("E12",),
    "mongodb": _SHARD_COMMON,  # $lookup refuses sharded data, as in the paper
}
# cached_readwrite pool, hottest first.  Cell-major, so each Zipf rank band
# holds one cell on all four backends, alternating a never-written `data`
# query with a `data2` query that every append invalidates.
CACHED_DATA_CELLS = ("E2", "E5", "E9", "E10", "E4", "E8")
CACHED_DATA2_CELLS = ("E1", "E13", "E11", "E3", "E6", "E12")
ZIPF_S = 1.1
WRITE_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    env: dict[str, str]
    backends: tuple[str, ...]
    sharded: bool
    rows: int
    ops_per_pass: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="point_lookup",
            why="engines touch a handful of rows, so frame, plan, rewrite, connector "
            "and postprocess are nearly the whole op (the paper's Empty bar)",
            env={},
            backends=SINGLE_BACKENDS,
            sharded=False,
            rows=8000,
            ops_per_pass=4800,
        ),
        Workload(
            name="full_scan",
            why="row-engine operators of all four backends do the work and the "
            "translation layer almost none; collect cells load materialization",
            env={},
            backends=SINGLE_BACKENDS,
            sharded=False,
            rows=8000,
            ops_per_pass=58,
        ),
        Workload(
            name="scan_vector",
            why="the AsterixDB and PostgreSQL scan cells under REPRO_EXEC=vector: "
            "isolates exec, with the row-fallback cells kept in",
            env={"REPRO_EXEC": "vector"},
            backends=("asterixdb", "postgres"),
            sharded=False,
            rows=8000,
            ops_per_pass=104,
        ),
        Workload(
            name="sharded_scatter",
            why="the same engines under 4-shard clusters: partial-aggregate "
            "rewriting, scatter-gather and merge are what differ from full_scan",
            env={},
            backends=SHARDED_BACKENDS,
            sharded=True,
            rows=12000,
            ops_per_pass=52,
        ),
        Workload(
            name="cached_readwrite",
            why="Zipf reads beside appends with REPRO_CACHE=1: p50 is the hit path, "
            "p95 the miss path, throughput follows what invalidation allows",
            env={"REPRO_CACHE": "1"},
            backends=SINGLE_BACKENDS,
            sharded=False,
            rows=8000,
            ops_per_pass=1000,
        ),
    )
}


def _repeat_cells(
    cells: dict[str, tuple[str, ...]], backends: tuple[str, ...], total: int
) -> list[tuple[str, str]]:
    pairs = [(backend, cell) for backend in backends for cell in cells[backend]]
    times, rest = divmod(total, len(pairs))
    if rest:
        raise ValueError(f"{total} ops do not divide over {len(pairs)} cells")
    return pairs * times


def zipf_counts(pool: int, reads: int) -> list[int]:
    """Reads per pool rank: the Zipf expectation, rounded to sum to *reads*."""
    weights = [1.0 / rank**ZIPF_S for rank in range(1, pool + 1)]
    scale = reads / sum(weights)
    exact = [weight * scale for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(pool), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: reads - sum(counts)]:
        counts[i] += 1
    return counts


def cached_pool(rng: random.Random) -> list[tuple[str, str, str, tuple]]:
    """The 48 fixed (backend, cell, dataset, params) queries, hottest first."""
    pool = []
    for data_cell, data2_cell in zip(CACHED_DATA_CELLS, CACHED_DATA2_CELLS):
        for backend in SINGLE_BACKENDS:
            pool.append((backend, data_cell, DATA, draw_params(data_cell, rng)))
            pool.append((backend, data2_cell, DATA2, draw_params(data2_cell, rng)))
    return pool


def build_ops(workload: Workload, seed: int, rows: int | None = None) -> list[Op]:
    """The fixed op list one pass of *workload* replays, from *seed*."""
    rows = workload.rows if rows is None else rows
    rng = random.Random(f"{workload.name}:{seed}")
    total = workload.ops_per_pass
    if workload.name == "point_lookup":
        # Half fresh unique-key lookups (distinct keys, spread evenly over
        # the backends: every plan is first-seen), half index-answered cells.
        per_backend = total // 2 // len(workload.backends)
        keys = rng.sample(range(rows), min(rows, per_backend * len(workload.backends)))
        items = [
            (workload.backends[i % len(workload.backends)], "lookup", DATA, (key,))
            for i, key in enumerate(keys)
        ]
        items += [
            (backend, cell, DATA, None)
            for backend, cell in _repeat_cells(POINT_CELLS, workload.backends, total // 2)
        ]
    elif workload.name == "cached_readwrite":
        writes = round(total * WRITE_SHARE)
        pool = cached_pool(rng)
        # Each query's reads are spread evenly over the pass from a seeded
        # phase.  A plain shuffle left it to chance whether a mid-rank
        # `data2` query was read between two appends, and throughput
        # moved 15% with the seed; this way the misses of a pass are the
        # same for every seed and only the arrival order differs.
        timeline = []
        for entry, count in zip(pool, zipf_counts(len(pool), total - writes)):
            phase = rng.random()
            timeline += [((n + phase) / count, rng.random(), entry) for n in range(count)]
        items = [entry for _, _, entry in sorted(timeline, key=lambda slot: slot[:2])]
        # Writes sit at even spacing and rotate over the backends, so the
        # number of invalidations a pass causes does not depend on the seed.
        stride = total / writes
        for n in range(writes):
            backend = workload.backends[n % len(workload.backends)]
            items.insert(round(n * stride), (backend, WRITE, DATA2, ()))
        return [
            Op(i, backend, cell, dataset, params)
            for i, (backend, cell, dataset, params) in enumerate(items)
        ]
    else:
        cells = SHARD_CELLS if workload.sharded else SCAN_CELLS
        items = [
            (backend, cell, DATA, None)
            for backend, cell in _repeat_cells(cells, workload.backends, total)
        ]
    rng.shuffle(items)
    return [
        Op(i, backend, cell, dataset, draw_params(cell, rng) if params is None else params)
        for i, (backend, cell, dataset, params) in enumerate(items)
    ]


def ops_hash(ops: list[Op]) -> str:
    """A byte-stable digest of an op list (the selftest compares these)."""
    return hashlib.sha256(repr([tuple(op) for op in ops]).encode()).hexdigest()[:16]

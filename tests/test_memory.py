"""Unit tests for the per-query memory layer (`repro.exec.memory`).

Budget parsing and validation, byte accounting, the spill-run file
format, and the two spilling data structures' core invariant: spilled
output is byte-identical to the in-memory path (stable merge order for
sorts, first-seen group order for aggregation).
"""

from __future__ import annotations

import gc
import os
import random
import tempfile

import pytest

from repro.obs.trace import get_tracer

from repro.errors import ReproError
from repro.exec.memory import (
    MemoryBudget,
    SpillFile,
    SpillSorter,
    SpillableGroups,
    estimate_record_bytes,
    parse_budget,
)


class TestParseBudget:
    def test_plain_bytes(self):
        assert parse_budget("4096") == 4096

    @pytest.mark.parametrize(
        "text,expected",
        [("4k", 4 * 1024), ("2m", 2 * 1024**2), ("1g", 1024**3), ("64K", 64 * 1024)],
    )
    def test_suffixes(self, text, expected):
        assert parse_budget(text) == expected

    def test_empty_and_zero_mean_unlimited(self):
        assert parse_budget("") is None
        assert parse_budget("  ") is None
        assert parse_budget("0") is None

    @pytest.mark.parametrize("bad", ["64mb", "lots", "1.5m", "k", "-1"])
    def test_malformed_raises_naming_value(self, bad):
        with pytest.raises(ReproError) as exc:
            parse_budget(bad)
        assert repr(bad) in str(exc.value)



class TestMemoryBudget:
    def test_reserve_release_and_peak(self):
        budget = MemoryBudget(1000)
        budget.reserve(400)
        budget.reserve(300)
        assert budget.used_bytes == 700
        assert budget.peak_bytes == 700
        budget.release(500)
        assert budget.used_bytes == 200
        assert budget.peak_bytes == 700  # the peak never shrinks

    def test_would_exceed(self):
        budget = MemoryBudget(100)
        budget.reserve(80)
        assert budget.would_exceed(21)
        assert not budget.would_exceed(20)
        unlimited = MemoryBudget(None)
        unlimited.reserve(10**9)
        assert not unlimited.would_exceed(10**9)

    def test_release_floors_at_zero(self):
        budget = MemoryBudget(100)
        budget.reserve(10)
        budget.release(50)
        assert budget.used_bytes == 0

    def test_note_spill(self):
        budget = MemoryBudget(100)
        budget.note_spill(512)
        budget.note_spill(256)
        assert budget.spill_bytes == 768
        assert budget.spill_runs == 2

    def test_estimate_monotone_in_record_count(self):
        one = estimate_record_bytes({"a": 1})
        assert one > 0
        assert estimate_record_bytes({"a": 1, "b": "xy"}) > one


class TestSpillFile:
    def test_runs_round_trip_in_order(self):
        with SpillFile() as spill:
            run_a, nbytes_a = spill.write_run([{"i": i} for i in range(10)])
            run_b, nbytes_b = spill.write_run([{"j": j} for j in range(5)])
            assert nbytes_a > 0 and nbytes_b > 0
            assert spill.run_count == 2
            assert list(spill.read_run(run_a)) == [{"i": i} for i in range(10)]
            assert list(spill.read_run(run_b)) == [{"j": j} for j in range(5)]

    def test_interleaved_readers_keep_positions(self):
        # A k-way merge reads every run concurrently; each reader must
        # keep its own file position.
        with SpillFile() as spill:
            spill.write_run(list(range(0, 100, 2)))
            spill.write_run(list(range(1, 100, 2)))
            merged = []
            readers = [spill.read_run(0), spill.read_run(1)]
            for a, b in zip(*readers):
                merged += [a, b]
            assert merged == list(range(100))


class TestSpillSorter:
    def _sorted(self, rows, budget):
        sorter = SpillSorter(budget)
        for row in rows:
            sorter.add(row["k"], row)
        spilled_before_drain = sorter.spilled
        return list(sorter.sorted_records()), spilled_before_drain

    def test_spilled_order_matches_in_memory_stable_sort(self):
        rng = random.Random(7)
        rows = [{"k": rng.randrange(10), "seq": i} for i in range(500)]
        expected = sorted(rows, key=lambda r: r["k"])  # stable
        spilled, did_spill = self._sorted(rows, MemoryBudget(2048))
        assert did_spill
        assert spilled == expected
        unspilled, did_spill = self._sorted(rows, MemoryBudget(None))
        assert not did_spill
        assert unspilled == expected

    def test_many_tiny_runs_merge_correctly(self):
        rng = random.Random(11)
        rows = [{"k": rng.randrange(1000), "seq": i} for i in range(300)]
        budget = MemoryBudget(256)  # a few records per run
        spilled, _ = self._sorted(rows, budget)
        assert budget.spill_runs > 10
        assert spilled == sorted(rows, key=lambda r: r["k"])

    def test_budget_accounting_and_spill_counters(self):
        budget = MemoryBudget(2048)
        rows = [{"k": i % 5, "pad": "x" * 50} for i in range(200)]
        out, _ = self._sorted(rows, budget)
        assert len(out) == 200
        assert budget.peak_bytes > 0
        assert budget.limit_bytes is not None
        assert budget.peak_bytes <= budget.limit_bytes + 1024  # one-record slack
        assert budget.spill_bytes > 0
        assert budget.used_bytes == 0  # fully released after the merge

    def test_close_releases_budget_on_error(self):
        # A query that dies mid-sort must not leak its reservations: the
        # pipeline's close propagation calls sorted_records().close()
        # via generator shutdown.
        budget = MemoryBudget(None)
        sorter = SpillSorter(budget)
        for i in range(50):
            sorter.add(i, {"k": i})
        assert budget.used_bytes > 0
        stream = sorter.sorted_records()
        next(stream)
        stream.close()  # simulates the error/early-abandon path
        assert budget.used_bytes == 0


class TestSpillableGroups:
    def _grouped(self, keys, budget):
        groups = SpillableGroups(budget)
        for i, key in enumerate(keys):
            state = groups.get(key)
            if state is None:
                groups.insert(key, {"key": key, "n": 1}, nbytes=200)
            else:
                state["n"] += 1
        merged = list(groups.finalized(self._merge))
        return merged

    @staticmethod
    def _merge(acc, new):
        acc["n"] += new["n"]
        return acc

    def test_spilled_groups_match_insertion_order_and_counts(self):
        rng = random.Random(3)
        keys = [rng.randrange(20) for _ in range(400)]
        expected: dict[int, int] = {}
        for key in keys:
            expected[key] = expected.get(key, 0) + 1
        in_memory = self._grouped(keys, MemoryBudget(None))
        spilled = self._grouped(keys, MemoryBudget(1024))
        assert in_memory == [{"key": k, "n": n} for k, n in expected.items()]
        assert spilled == in_memory  # same groups, same first-seen order

    def test_spill_resets_table_and_reaccumulates(self):
        budget = MemoryBudget(1024)
        groups = SpillableGroups(budget)
        for i in range(40):
            groups.insert(i, {"key": i, "n": 1}, nbytes=200)
        assert groups.spilled
        assert budget.spill_runs > 0
        assert len(groups) < 40  # the table restarted after each spill

    def test_close_releases_budget(self):
        budget = MemoryBudget(None)
        groups = SpillableGroups(budget)
        for i in range(10):
            groups.insert(i, {"key": i}, nbytes=300)
        assert budget.used_bytes > 0
        groups.close()
        assert budget.used_bytes == 0


class TestSpillFileCleanup:
    """Spill temp files must never outlive their query.

    ``tempfile.TemporaryFile`` unlinks on creation, so the resource that
    can actually leak is the open file handle — these tests pin that
    every handle a query opens is closed again, on explicit ``close()``
    and when a half-drained ``StreamingResultSet`` is abandoned.
    """

    @staticmethod
    def _track_spill_handles(monkeypatch):
        created = []
        original = tempfile.TemporaryFile

        def tracking(*args, **kwargs):
            handle = original(*args, **kwargs)
            if kwargs.get("prefix", "").startswith("repro-spill-"):
                created.append(handle)
            return handle

        monkeypatch.setattr(tempfile, "TemporaryFile", tracking)
        return created

    def test_close_closes_backing_file(self):
        spill = SpillFile()
        handle = spill._file
        spill.write_run([{"v": 1}])
        assert not handle.closed
        spill.close()
        assert handle.closed
        spill.close()  # idempotent

    def test_sorter_close_closes_spill_file(self, monkeypatch):
        created = self._track_spill_handles(monkeypatch)
        budget = MemoryBudget(1024)
        sorter = SpillSorter(budget)
        for i in range(50):
            sorter.add(i, {"v": i, "pad": "x" * 200})
        assert created, "the tiny budget must have forced a spill"
        sorter.close()
        assert all(handle.closed for handle in created)

    def _streaming_sort(self, monkeypatch):
        from repro.sqlengine import SQLDatabase
        from repro.wisconsin import loaders, wisconsin_records

        created = self._track_spill_handles(monkeypatch)
        db = SQLDatabase(name="postgres", memory_budget="2k")
        loaders.load_postgres(
            db, "Bench", "data", wisconsin_records(120), indexes=False
        )
        result = db.execute(
            'SELECT * FROM Bench.data t ORDER BY t."unique1"', stream=True
        )
        iterator = result.iter_records()
        next(iterator)  # half-drained: the sort's spill file is open
        assert created, "the tiny budget must have forced a spill"
        return created, result, iterator

    @pytest.mark.skipif(
        get_tracer() is not None
        or os.environ.get("REPRO_EXEC", "").strip().lower() == "vector",
        reason="the half-drained-sort premise is row-engine streaming: "
        "tracing materializes streams, and the vector sort finishes its "
        "spill runs before the first record comes out",
    )
    def test_streaming_abandonment_via_close(self, monkeypatch):
        created, result, _iterator = self._streaming_sort(monkeypatch)
        assert any(not handle.closed for handle in created)
        result.close()
        assert all(handle.closed for handle in created)

    def test_streaming_abandonment_via_gc(self, monkeypatch):
        created, result, iterator = self._streaming_sort(monkeypatch)
        del result, iterator
        gc.collect()
        assert all(handle.closed for handle in created)

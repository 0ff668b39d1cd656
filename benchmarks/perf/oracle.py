"""The correctness gate: expected answers from the ``repro.eager`` oracle.

At set-up the same Wisconsin records are loaded into an eager frame and
every op's expected answer is derived from it with the eager (pandas
semantics) API.  Comparison follows what each expression promises:

- ``scalar``  — exact value;
- ``ordered`` — exact record list, in order (the sorted head);
- ``groups``  — exact records, matched by group key (group order is the
  engine's, the pandas surface does not fix it);
- ``members`` — an unordered ``head()``: row count, column set and
  membership of every row in the projected/filtered dataset;
- ``rows``    — a full fetch: the exact multiset of rows.

The warm-up pass checks full answers.  Timed passes compare a cheap
digest (the scalar, or row count + first row) against the digest of the
answer the warm-up verified — except reads of the growing ``data2``, whose
scalars the oracle tracks through every append and checks exactly each
time, so a stale cached answer cannot pass.
"""

from __future__ import annotations

from typing import Any

from cells import CELLS, WRITE, Op
from repro import eager
from repro.eager import EagerFrame
from repro.wisconsin import WISCONSIN_ATTRIBUTES

HEAD = 5


def norm(record: dict[str, Any]) -> dict[str, Any]:
    """Absent and NULL attributes compare equal (backends differ on which)."""
    return {name: value for name, value in record.items() if value is not None}


def eager_scalar(cell: str, df: EagerFrame, p: tuple, keys: EagerFrame | None = None) -> Any:
    """The scalar cells, written against the eager frame.

    Counts filter a projection to the predicate's columns: an eager filter
    copies every column it is given, and a count needs none of them.
    """
    if cell == "E1":
        return len(df)
    if cell == "E3":
        slim = df[["ten", "twentyPercent", "two"]]
        mask = (slim["ten"] == p[0]) & (slim["twentyPercent"] == p[1]) & (slim["two"] == p[2])
        return len(slim[mask])
    if cell == "E6":
        return df["unique1"].max()
    if cell == "E7":
        return df["unique1"].min()
    if cell == "E11":
        slim = df[["onePercent"]]
        return len(slim[(slim["onePercent"] >= p[0]) & (slim["onePercent"] <= p[1])])
    if cell == "E12":
        # `keys` is the other side of the join, projected to its key.
        return len(eager.merge(keys, df[["unique1"]], left_on="unique1", right_on="unique1"))
    if cell == "E13":
        slim = df[["tenPercent"]]
        return len(slim[slim["tenPercent"].isna()])
    raise KeyError(cell)


class Oracle:
    """Expected answers over one Wisconsin dataset, plus tracked appends."""

    def __init__(self, records: list[dict[str, Any]]) -> None:
        self.frame = eager.frame_from_records(records)
        self.keys = self.frame[["unique1"]]
        rows = [norm(row) for row in self.frame.to_records()]
        self.by_unique2 = {row["unique2"]: row for row in rows}
        self.by_unique1 = {row["unique1"]: row for row in rows}
        self._memo: dict[tuple, Any] = {}
        # (backend, cell, params) -> current scalar over that backend's data2
        self._data2: dict[tuple, Any] = {}

    # ------------------------------------------------------------------
    def expected(self, cell: str, params: tuple) -> Any:
        key = (cell, params)
        if key not in self._memo:
            self._memo[key] = self._compute(cell, params)
        return self._memo[key]

    def _compute(self, cell: str, p: tuple) -> Any:
        df = self.frame
        kind = CELLS[cell].kind
        if kind == "scalar":
            return eager_scalar(cell, df, p, self.keys)
        if cell == "E2":
            pairs = df[["two", "four"]].to_records()
            return {"two", "four"}, {(row["two"], row["four"]) for row in pairs}, len(pairs)
        if cell == "E5":
            upper = df["stringu1"].map(str.upper).tolist()
            return {"stringu1"}, set(upper), len(upper)
        if cell == "E10":
            slim = df[["ten", "unique2"]]
            matching = slim[slim["ten"] == p[0]]["unique2"].tolist()
            return set(WISCONSIN_ATTRIBUTES), set(matching), len(matching)
        if cell == "E4":
            grouped = df.groupby("oddOnePercent")["oddOnePercent"].agg("count")
            return "oddOnePercent", {row["oddOnePercent"]: row for row in grouped.to_records()}
        if cell == "E8":
            grouped = df.groupby("twenty")["four"].agg("max")
            return "twenty", {row["twenty"]: row for row in grouped.to_records()}
        if cell == "E9":
            top = df.sort_values("unique1", ascending=False).head(HEAD)
            return [norm(row) for row in top.to_records()]
        if cell == "collect":
            fetched = df[["unique1", "two", "four"]].to_records()
            return sorted((row["unique1"], row["two"], row["four"]) for row in fetched)
        raise KeyError(cell)

    # ------------------------------------------------------------------
    def track(self, op: Op) -> None:
        """Follow a ``data2`` scalar through appends (data2 starts as data)."""
        key = (op.backend, op.cell, op.params)
        if key not in self._data2:
            self._data2[key] = self.expected(op.cell, op.params)

    def note_append(self, backend: str, record: dict[str, Any]) -> None:
        one = EagerFrame({name: [record.get(name)] for name in WISCONSIN_ATTRIBUTES})
        for key, current in self._data2.items():
            if key[0] != backend:
                continue
            delta = eager_scalar(key[1], one, key[2], self.keys)
            if key[1] == "E6":
                self._data2[key] = max(current, delta)
            elif key[1] == "E7":
                self._data2[key] = min(current, delta)
            else:
                self._data2[key] = current + delta

    def tracked(self, op: Op) -> bool:
        return (op.backend, op.cell, op.params) in self._data2

    # ------------------------------------------------------------------
    def check(self, op: Op, result: Any) -> str | None:
        """Full comparison; ``None`` when right, else what differs."""
        if op.cell == WRITE:
            return None if result == 1 else f"append returned {result!r}"
        if self.tracked(op):
            want = self._data2[(op.backend, op.cell, op.params)]
            return None if result == want else f"got {result!r}, want {want!r}"
        kind = CELLS[op.cell].kind
        if kind == "scalar":
            want = self.expected(op.cell, op.params)
            return None if result == want else f"got {result!r}, want {want!r}"
        if not isinstance(result, EagerFrame):
            return f"got {type(result).__name__}, want a frame"
        got = [norm(row) for row in result.to_records()]
        if op.cell == "lookup":
            row = self.by_unique1[op.params[0]]
            return None if got == [row] else f"lookup {op.params[0]} returned {got!r}"
        want = self.expected(op.cell, op.params)
        if kind == "ordered":
            return None if got == want else f"ordered rows differ: {got[:1]} vs {want[:1]}"
        if kind == "groups":
            column, groups = want
            if len(got) == len(groups) and {row.get(column): row for row in got} == groups:
                return None
            return f"{len(got)} groups differ from the {len(groups)} expected"
        if kind == "rows":
            fetched = sorted((row["unique1"], row["two"], row["four"]) for row in got)
            return None if fetched == want else f"{len(got)} rows differ from {len(want)}"
        return self._check_members(op, got, want)

    def _check_members(self, op: Op, got: list[dict[str, Any]], want: Any) -> str | None:
        columns, allowed, matching = want
        if len(got) != min(HEAD, matching):
            return f"{len(got)} rows, want {min(HEAD, matching)}"
        for row in got:
            if not set(row) <= columns:
                return f"unexpected columns {sorted(set(row) - columns)}"
            if op.cell == "E2":
                inside = (row.get("two"), row.get("four")) in allowed
            elif op.cell == "E5":
                inside = row.get("stringu1") in allowed
            else:
                inside = row.get("unique2") in allowed and row == self.by_unique2[row["unique2"]]
            if not inside:
                return f"row not in the dataset: {row!r}"
        return None


def digest(result: Any) -> Any:
    """The cheap per-op fingerprint timed passes compare."""
    if isinstance(result, EagerFrame):
        first = tuple(sorted(norm(result.row(0)).items())) if len(result) else ()
        return len(result), first
    return result

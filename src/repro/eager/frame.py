"""Eagerly evaluated two-dimensional frame with pandas semantics.

Columnar layout (``dict[str, list]``), positional row index, and immediate
materialization of every derived frame.  This is the "Pandas" side of the
paper's single-node comparison.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.eager.groupby import EagerGroupBy
from repro.eager.memory import GLOBAL_ACCOUNTANT, estimate_column_bytes
from repro.eager.series import EagerSeries


class EagerFrame:
    """A column-oriented, eagerly evaluated dataframe."""

    #: Bytes charged to the accountant, released in ``__del__`` (cheaper
    #: than a ``weakref.finalize`` per result).
    _charged = 0
    _release = GLOBAL_ACCOUNTANT.release  # bound now: safe at interpreter exit

    def __init__(self, columns: dict[str, list[Any]], *, _charge: bool = True) -> None:
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have differing lengths: {sorted(lengths)}")
        self._columns: dict[str, list[Any]] = {
            name: list(values) for name, values in columns.items()
        }
        self._length = next(iter(lengths)) if lengths else 0
        if _charge:
            self._charge(sum(estimate_column_bytes(col) for col in self._columns.values()))

    @classmethod
    def _adopt(cls, columns: dict[str, list[Any]], length: int, nbytes: int) -> "EagerFrame":
        """A frame owning *columns* (*length* rows), charged *nbytes*."""
        frame = cls.__new__(cls)
        frame._columns = columns
        frame._length = length
        frame._charge(nbytes)
        return frame

    def _charge(self, nbytes: int) -> None:
        GLOBAL_ACCOUNTANT.charge(nbytes)
        self._charged += nbytes

    def __del__(self) -> None:
        if self._charged:
            self._release(self._charged)

    # ------------------------------------------------------------------
    # Shape and protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self._length, len(self._columns))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:
        return f"EagerFrame(shape={self.shape}, columns={self.columns})"

    def __getitem__(self, key: Any) -> "EagerFrame | EagerSeries":
        """Pandas-style indexing.

        - ``df['col']`` → :class:`EagerSeries`
        - ``df[['a', 'b']]`` → projected :class:`EagerFrame`
        - ``df[bool_series]`` → filtered :class:`EagerFrame`
        """
        if isinstance(key, str):
            try:
                return EagerSeries(self._columns[key], name=key)
            except KeyError:
                raise KeyError(f"no column named {key!r}") from None
        if isinstance(key, list):
            missing = [name for name in key if name not in self._columns]
            if missing:
                raise KeyError(f"no columns named {missing}")
            return EagerFrame({name: self._columns[name] for name in key})
        if isinstance(key, EagerSeries):
            return self._filter(key)
        raise TypeError(f"cannot index EagerFrame with {type(key).__name__}")

    def __setitem__(self, name: str, value: "EagerSeries | list[Any]") -> None:
        values = value.tolist() if isinstance(value, EagerSeries) else list(value)
        if self._columns and len(values) != self._length:
            raise ValueError("assigned column length does not match frame length")
        if not self._columns:
            self._length = len(values)
        self._columns[name] = values
        self._charge(estimate_column_bytes(values))

    def _filter(self, mask: EagerSeries) -> "EagerFrame":
        """Materialize the rows where *mask* is truthy (a full copy)."""
        if len(mask) != self._length:
            raise ValueError("boolean mask length does not match frame length")
        keep = [index for index, flag in enumerate(mask) if flag]
        return self.take(keep)

    def take(self, indices: list[int]) -> "EagerFrame":
        """Materialize the rows at *indices*, in the given order."""
        return EagerFrame(
            {
                name: [values[index] for index in indices]
                for name, values in self._columns.items()
            }
        )

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, index: int) -> dict[str, Any]:
        return {name: values[index] for name, values in self._columns.items()}

    def iterrows(self) -> Iterator[tuple[int, dict[str, Any]]]:
        for index in range(self._length):
            yield index, self.row(index)

    def to_records(self) -> list[dict[str, Any]]:
        """Materialize as a list of row dicts."""
        return [self.row(index) for index in range(self._length)]

    def column_values(self, name: str) -> list[Any]:
        """Raw value list for one column (no copy; treat as read-only)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    # ------------------------------------------------------------------
    # Transformations (each materializes a full result)
    # ------------------------------------------------------------------
    def head(self, n: int = 5) -> "EagerFrame":
        return self.take(list(range(min(n, self._length))))

    def sort_values(self, by: str, ascending: bool = True) -> "EagerFrame":
        """Full sort on one column; absent values go last, as in pandas."""
        if by not in self._columns:
            raise KeyError(f"no column named {by!r}")
        values = self._columns[by]
        present = [index for index in range(self._length) if values[index] is not None]
        absent = [index for index in range(self._length) if values[index] is None]
        present.sort(key=lambda index: values[index], reverse=not ascending)
        return self.take(present + absent)

    def groupby(self, by: "str | list[str]") -> EagerGroupBy:
        keys = [by] if isinstance(by, str) else by
        missing = [name for name in keys if name not in self._columns]
        if missing:
            raise KeyError(f"no columns named {missing}")
        return EagerGroupBy(self, by)

    def rename(self, mapping: dict[str, str]) -> "EagerFrame":
        return EagerFrame(
            {mapping.get(name, name): values for name, values in self._columns.items()}
        )

    def drop(self, columns: list[str]) -> "EagerFrame":
        return EagerFrame(
            {
                name: values
                for name, values in self._columns.items()
                if name not in columns
            }
        )

    def describe(self) -> "EagerFrame":
        """Summary statistics per numeric column: count/mean/std/min/max."""
        numeric = [
            name
            for name, values in self._columns.items()
            if any(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)
        ]
        stats = ["count", "mean", "std", "min", "max"]
        out: dict[str, list[Any]] = {"statistic": stats}
        for name in numeric:
            series = EagerSeries(self._columns[name], name=name)
            out[name] = [series.count(), series.mean(), series.std(), series.min(), series.max()]
        return EagerFrame(out)

    def equals(self, other: "EagerFrame") -> bool:
        """Exact equality of columns, order-sensitive."""
        return (
            isinstance(other, EagerFrame)
            and self.columns == other.columns
            and all(self._columns[name] == other._columns[name] for name in self._columns)
        )

    def to_string(self, max_rows: int = 10) -> str:
        """Render a small aligned text table for display."""
        names = self.columns
        if not names:
            return "(empty frame)"
        rows = [[_fmt(self._columns[name][index]) for name in names] for index in range(min(max_rows, self._length))]
        widths = [
            max(len(name), *(len(row[i]) for row in rows)) if rows else len(name)
            for i, name in enumerate(names)
        ]
        header = "  ".join(name.ljust(width) for name, width in zip(names, widths))
        lines = [header, "  ".join("-" * width for width in widths)]
        lines.extend("  ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows)
        if self._length > max_rows:
            lines.append(f"... ({self._length - max_rows} more rows)")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)

"""Memory accounting for the eager frame.

Pandas' real failure mode at scale is exhausting RAM: the paper reports
out-of-memory errors for the M, L, and XL datasets, and quotes the 5-10x
RAM rule of thumb.  To reproduce that behaviour deterministically and at
laptop scale, the eager frame charges every column allocation against a
process-wide :class:`MemoryAccountant`.  When a budget is installed (via
:func:`memory_budget`) and an allocation would exceed it, the allocation
raises :class:`~repro.errors.MemoryBudgetExceeded` — a subclass of
``MemoryError``, matching what Pandas raises.

Charges are released when the owning object is garbage collected, so the
accountant tracks *live* frame memory, including eagerly materialized
intermediates (masks, filtered copies, mapped columns).  That is precisely
why expressions 5 and 10 hurt an eager evaluator: each step allocates a
full-size intermediate.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Any, Iterator

from repro.errors import MemoryBudgetExceeded

# Cost model (bytes per value).  These approximate CPython object sizes and
# intentionally overstate small ints, mirroring the paper's point that
# "Pandas' internal data representation is inefficient".
_BYTES_NUMBER = 32
_BYTES_BOOL = 28
_BYTES_NONE = 16
_BYTES_STRING_BASE = 49
#: :func:`estimate_value_bytes` by exact type, for pricing many values at
#: once; a ``str`` is ``STRING_BYTES`` plus its length.
BYTES_BY_TYPE = {type(None): _BYTES_NONE, bool: _BYTES_BOOL, int: _BYTES_NUMBER, float: _BYTES_NUMBER}
STRING_BYTES = _BYTES_STRING_BASE


def estimate_value_bytes(value: Any) -> int:
    """Estimated heap footprint of one cell value."""
    if value is None:
        return _BYTES_NONE
    if isinstance(value, bool):
        return _BYTES_BOOL
    if isinstance(value, (int, float)):
        return _BYTES_NUMBER
    if isinstance(value, str):
        return _BYTES_STRING_BASE + len(value)
    return _BYTES_NUMBER


def estimate_column_bytes(values: list[Any]) -> int:
    """Estimated footprint of a column, including the list's pointer array."""
    return 8 * len(values) + sum(estimate_value_bytes(value) for value in values)


class MemoryAccountant:
    """Tracks live bytes charged by eager frames and enforces a budget."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live_bytes = 0
        self._peak_bytes = 0
        self._budget: int | None = None

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    @property
    def budget(self) -> int | None:
        return self._budget

    def set_budget(self, limit: int | None) -> None:
        with self._lock:
            self._budget = limit

    def reset_peak(self) -> None:
        with self._lock:
            self._peak_bytes = self._live_bytes

    def charge(self, nbytes: int) -> None:
        """Record an allocation; raises when it would exceed the budget."""
        with self._lock:
            if self._budget is not None and self._live_bytes + nbytes > self._budget:
                raise MemoryBudgetExceeded(
                    f"eager frame allocation of {nbytes} bytes exceeds budget "
                    f"({self._live_bytes} live of {self._budget} allowed)"
                )
            self._live_bytes += nbytes
            if self._live_bytes > self._peak_bytes:
                self._peak_bytes = self._live_bytes

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._live_bytes = max(0, self._live_bytes - nbytes)

    def track(self, owner: Any, nbytes: int) -> None:
        """Charge *nbytes* to *owner* and auto-release when it is collected."""
        self.charge(nbytes)
        weakref.finalize(owner, self.release, nbytes)


#: Process-wide accountant shared by every eager frame and series.
GLOBAL_ACCOUNTANT = MemoryAccountant()


@contextlib.contextmanager
def memory_budget(limit_bytes: int | None) -> Iterator[MemoryAccountant]:
    """Context manager installing a budget on the global accountant.

    >>> with memory_budget(64 * 1024 * 1024):
    ...     df = read_json(path)      # may raise MemoryBudgetExceeded
    """
    previous = GLOBAL_ACCOUNTANT.budget
    GLOBAL_ACCOUNTANT.set_budget(limit_bytes)
    try:
        yield GLOBAL_ACCOUNTANT
    finally:
        GLOBAL_ACCOUNTANT.set_budget(previous)

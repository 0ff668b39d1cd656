"""One value for every runtime knob: :class:`Config`.

Every ``REPRO_*`` environment variable the runtime reads is one row of
:data:`KNOBS` — the :class:`Config` field it sets, the variable, the
constructor kwarg that overrides it, its parser and its accepted
spellings — and :meth:`Config.resolve` is the only code that reads them.
A connector, a cluster and an engine call it once, at construction, and
keep what it returns in their public attributes; nothing reads the
environment per send.  The README's "Configuration" table is this table.

Per field, an explicit kwarg (anything but ``None``) wins, else the
variable, else the default.  Both go through the same parser:

- an empty variable is unset (CI's matrix sets the keys it does not use
  to ``''``);
- a switch is on for ``1/true/yes/on`` and off for ``0/false/no/off``;
- anything else raises :class:`~repro.errors.ConfigError` naming the
  variable (or kwarg), the value and the accepted spellings.

An explicit off — ``deadline=0`` (or negative), ``cache=False``,
``admission=False`` — parses to the off value, so it pins the knob off
even when the environment turns it on.  A ready instance given for a
knob — a shared :class:`~repro.resilience.AdmissionController`, a
:class:`~repro.cache.ResultCache`, a dispatcher — is the caller's to
keep: it wins, and its variable is not read.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigError, ReproError
from repro.resilience.admission import AdmissionController
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy, no_sleep

if TYPE_CHECKING:
    from repro.cache.result_cache import ResultCache

_ON = ("1", "true", "yes", "on")
_OFF = ("0", "false", "no", "off")
_SWITCH = "1/true/yes/on, 0/false/no/off"
_SCALARS = (str, int, float, tuple, list)
_SIZE = "bytes with an optional k/m/g suffix (64m)"
_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3}


def parse_budget(text: str) -> int | None:
    """Parse a budget string into bytes; ``''``/``'0'`` mean unlimited.

    Accepts plain integers and ``k``/``m``/``g`` suffixes (binary units).
    Malformed values raise :class:`ReproError` naming the offending text
    instead of silently falling back to unbounded execution.
    """
    raw = text.strip()
    if not raw:
        return None
    lowered = raw.lower()
    multiplier = 1
    if lowered[-1] in _SUFFIXES:
        multiplier = _SUFFIXES[lowered[-1]]
        lowered = lowered[:-1]
    try:
        value = int(lowered)
    except ValueError:
        raise ReproError(
            f"malformed memory budget {text!r}: expected bytes with an "
            "optional k/m/g suffix (e.g. '67108864' or '64m')"
        ) from None
    if value < 0:
        raise ReproError(f"malformed memory budget {text!r}: must not be negative")
    return value * multiplier or None


def _word(value: Any) -> str:
    return str(value).strip().lower()


def _switch(value: Any) -> bool:
    if _word(value) in _ON:
        return True
    if _word(value) in _OFF:
        return False
    raise ValueError(value)


def _one_of(*choices: Any) -> Callable[[Any], Any]:
    def parse(value: Any) -> Any:
        for choice in choices:
            if _word(value) == str(choice):
                return choice
        raise ValueError(value)

    return parse


def _bytes(value: Any) -> int | None:
    if isinstance(value, bool):
        raise ValueError(value)
    return parse_budget(str(value))


def _cache(value: Any) -> int | None:
    from repro.cache.result_cache import DEFAULT_MAX_BYTES  # imports repro.exec

    if _word(value) in _ON + _OFF:
        return DEFAULT_MAX_BYTES if _switch(value) else None
    return _bytes(value)


def _seconds(value: Any) -> float | None:
    seconds = float(value)
    return seconds if seconds > 0 else None


def _copies(value: Any) -> int:
    if int(value) < 1:
        raise ValueError(value)
    return int(value)


def _rate(value: Any) -> float:
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError(value)
    return float(value)


def _nodes(value: Any) -> tuple[int, ...]:
    parts = value if isinstance(value, (tuple, list)) else str(value).split(",")
    nodes = tuple(int(part) for part in parts if str(part).strip())
    if any(node < 0 for node in nodes):
        raise ValueError(value)
    return nodes


@dataclass(frozen=True)
class Knob:
    """One row of the configuration table."""

    field: str
    env: str
    #: The constructor kwarg that overrides the variable; ``""`` if none.
    kwarg: str
    type: str
    spellings: str
    parse: Callable[[Any], Any]

    def read(self, value: Any, source: str) -> Any:
        """Parse *value*, which came from *source*; say what went wrong."""
        try:
            return self.parse(value)
        except (TypeError, ValueError, ReproError):
            raise ConfigError(
                f"malformed {source}={value!r}: expected {self.spellings}"
            ) from None


#: field → variable → kwarg → type → accepted spellings → parser.
KNOBS: tuple[Knob, ...] = (
    Knob("exec_engine", "REPRO_EXEC", "exec_engine", "str",
         "row or vector", _one_of("row", "vector")),
    Knob("memory_budget", "REPRO_MEM_BUDGET", "memory_budget", "bytes",
         f"{_SIZE}; 0 is unlimited", _bytes),
    Knob("cache", "REPRO_CACHE", "cache", "bytes", f"{_SWITCH} (on is 64m), or {_SIZE}", _cache),
    Knob("deadline", "REPRO_DEADLINE", "deadline", "seconds",
         "a number of seconds; 0 or less is off", _seconds),
    Knob("admission", "REPRO_ADMISSION", "admission", "bool", _SWITCH, _switch),
    Knob("dispatch", "REPRO_DISPATCH", "dispatch", "str",
         "serial or threads", _one_of("serial", "threads")),
    Knob("replication_factor", "REPRO_REPLICATION", "replication_factor", "int",
         "an integer >= 1 (clamped to the node count)", _copies),
    Knob("trace", "REPRO_TRACE", "", "bool", _SWITCH, _switch),
    Knob("fault_rate", "REPRO_FAULT_RATE", "", "float",
         "a probability in [0, 1]", _rate),
    Knob("node_down", "REPRO_NODE_DOWN", "", "ints",
         "comma-separated node indices (1,3)", _nodes),
)


@dataclass(frozen=True)
class Config:
    """The runtime settings, resolved: a frozen, comparable, hashable value.

    ``memory_budget``, ``cache`` (the result cache's byte budget) and
    ``deadline`` are ``None`` when off.  ``repr`` shows only the fields
    that differ from the default, so ``Config()`` is the seed.
    """

    exec_engine: str = "row"
    memory_budget: int | None = None
    cache: int | None = None
    deadline: float | None = None
    admission: bool = False
    dispatch: str = "serial"
    replication_factor: int = 1
    trace: bool = False
    fault_rate: float = 0.0
    node_down: tuple[int, ...] = ()

    @classmethod
    def resolve(cls, **explicit: Any) -> "Config":
        """Every field: *explicit* (unless ``None``), else its variable, else default."""
        unknown = set(explicit) - {knob.field for knob in KNOBS}
        if unknown:
            raise TypeError(f"Config has no field {sorted(unknown)[0]!r}")
        values = {}
        for knob in KNOBS:
            given = explicit.get(knob.field)
            if given is not None and not isinstance(given, _SCALARS):
                continue  # an instance, kept by the caller
            if given is not None:
                values[knob.field] = knob.read(given, knob.kwarg or knob.field)
            elif raw := os.environ.get(knob.env, "").strip():
                values[knob.field] = knob.read(raw, knob.env)
        return cls(**values)

    def chaos(self) -> tuple[FaultInjector | None, RetryPolicy | None]:
        """The fault injector and retry policy ``fault_rate``/``node_down`` ask for.

        ``(None, None)`` with both off.  Each call builds a fresh pair, so
        every connector and cluster draws faults from its own RNG (seeded
        2021, the :class:`FaultInjector` default): the faults a connector
        sees do not depend on what ran before it.  The policy never
        sleeps, and six attempts make a 0.1 rate fail a query about once
        in a million.
        """
        if not (self.fault_rate or self.node_down):
            return None, None
        injector = FaultInjector(sleep=no_sleep)
        if self.fault_rate:
            injector.transient_rate(self.fault_rate)
        for node in self.node_down:
            injector.node_down(node)
        return injector, RetryPolicy(
            max_attempts=6, base_delay=0.0001, max_delay=0.002, sleep=no_sleep
        )

    def admission_controller(self, given: Any, backend: str) -> AdmissionController | None:
        """*given* if it is a controller (named *backend* unless named), else a new one if on."""
        if isinstance(given, AdmissionController):
            given.backend = given.backend or backend
            return given
        return AdmissionController(backend=backend) if self.admission else None

    def result_cache(self, given: Any, backend: str) -> "ResultCache | None":
        """*given* if it is a cache, else a new one of ``cache`` bytes if on."""
        from repro.cache.result_cache import ResultCache  # imports repro.exec

        if isinstance(given, ResultCache):
            return given
        return ResultCache(max_bytes=self.cache, backend=backend) if self.cache else None

    def __repr__(self) -> str:
        changed = (
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if getattr(self, f.name) != f.default
        )
        return f"Config({', '.join(changed)})"


__all__ = ["KNOBS", "Config", "Knob", "parse_budget"]

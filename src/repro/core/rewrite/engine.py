"""The rewrite engine: ``$variable`` substitution over rule templates.

Substitution follows the paper's configuration conventions:

- only the variables supplied by the caller are substituted; any other
  ``$token`` in a template (``$match``, ``$eq``, Mongo field paths) passes
  through untouched;
- matching is longest-name-first at each position, so ``$attribute_alias``
  is never clobbered by ``$attribute``;
- ``"$$left"`` in a Mongo template renders a field path: the first ``$`` is
  literal and ``$left`` is substituted, yielding ``"$lang"``.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Any, Iterable

from repro.errors import RewriteError
from repro.core.rewrite.rules import RewriteRules, load_builtin


def substitute(template: str, variables: dict[str, Any]) -> str:
    """Replace ``$name`` occurrences for the supplied *variables* only."""
    return _render(_split(template, tuple(variables)), variables)


def _split(template: str, names: tuple[str, ...]) -> list[str]:
    """*template* as ``[text, name, text, ..., text]`` around its ``$name``s."""
    return _variables_pattern(names).split(template) if names else [template]


@functools.lru_cache(maxsize=256)
def _variables_pattern(names: tuple[str, ...]) -> re.Pattern[str]:
    # Longest name first, and a match must end at a name boundary, so
    # ``$agg`` never swallows the front of ``$agg_alias_x`` style tokens.
    alternatives = "|".join(map(re.escape, sorted(names, key=len, reverse=True)))
    return re.compile(rf"\$({alternatives})(?!\w)")


def _render(parts: list[str], variables: dict[str, Any]) -> str:
    out = list(parts)
    for i in range(1, len(out), 2):
        out[i] = str(variables[out[i]])
    return "".join(out)


class RewriteEngine:
    """Applies a language's rewrite rules to build queries incrementally."""

    def __init__(self, rules: "RewriteRules | str", overrides: dict[str, str] | None = None) -> None:
        if isinstance(rules, str):
            rules = load_builtin(rules)
        if overrides:
            rules = rules.with_overrides(overrides)
        self.rules = rules
        style = rules.get("reference_style")
        #: How expressions name a column: ``attribute`` (a field name, the
        #: MongoDB rules) or ``statement`` (a rendered column reference).
        self.reference_style = style.template if style is not None else "statement"
        #: ``(rule, variable names)`` -> the rule's template split around them.
        self._parts: dict[tuple, list[str]] = {}

    @property
    def language(self) -> str:
        return self.rules.language

    # ------------------------------------------------------------------
    def apply(self, rule_name: str, **variables: Any) -> str:
        """Render one rule with the given variable bindings."""
        key = (rule_name, *variables)
        parts = self._parts.get(key)
        if parts is None:
            parts = self._parts[key] = _split(self.rules[rule_name].template, tuple(variables))
        return _render(parts, variables)

    def has_rule(self, rule_name: str) -> bool:
        return rule_name in self.rules

    # ------------------------------------------------------------------
    # Common composition helpers used by the PolyFrame core
    # ------------------------------------------------------------------
    def join_list(self, pieces: Iterable[str]) -> str:
        """Join fragments with the language's ``attribute_separator`` rule."""
        items = list(pieces)
        if not items:
            raise RewriteError("cannot join an empty fragment list")
        out = items[0]
        for right in items[1:]:
            out = self.apply("attribute_separator", left=out, right=right)
        return out

    def render_literal(self, literal: Any) -> str:
        """Render a plan's ``LiteralExpr``; a template writer leaves a gap instead."""
        return self.literal(literal.value)

    def literal(self, value: Any) -> str:
        """Render a Python literal through the language's LITERALS rules."""
        if value is None:
            return self.apply("null")
        if isinstance(value, bool):
            rendered = self.apply("boolean", value="true" if value else "false")
            # SQL dialects spell booleans upper-case; JSON wants lower-case.
            if self.language in ("sql", "sqlpp"):
                rendered = rendered.upper()
            return rendered
        if isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                # str() spells these 'inf' / 'nan': an identifier in SQL
                # and Cypher, invalid JSON in a pipeline.
                raise RewriteError(
                    f"cannot render the non-finite number {value!r} as a "
                    f"{self.language} literal"
                )
            return self.apply("number", value=value)
        if isinstance(value, str):
            return self.apply("string", value=_escape_string(value, self.language))
        raise RewriteError(f"cannot render a literal of type {type(value).__name__}")


def _escape_string(value: str, language: str) -> str:
    if language in ("sql", "sqlpp"):
        return value.replace("'", "''")
    # JSON-ish targets (mongo) and Cypher use double quotes.
    return value.replace("\\", "\\\\").replace('"', '\\"')

"""Tokenizer for the SQL / SQL++ front end.

Produces a flat list of :class:`Token` objects.  Keywords are matched
case-insensitively; identifiers keep their original spelling.  Both single
quotes (string literals) and double quotes (delimited identifiers, as in the
paper's generated PostgreSQL queries: ``"twentyPercent"``) are supported.
Numbers may carry an exponent (``1e-05``, Python's spelling of small
floats); ``$<n>`` is a positional parameter of a prepared statement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LexerError

KEYWORDS = frozenset(
    {
        "SELECT", "VALUE", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT",
        "OFFSET", "AS", "AND", "OR", "NOT", "IS", "NULL", "MISSING",
        "UNKNOWN", "JOIN", "INNER", "LEFT", "OUTER", "ON", "ASC", "DESC",
        "DISTINCT", "TRUE", "FALSE", "BETWEEN", "IN", "LIKE", "HAVING",
        "UNION", "ALL",
    }
)

# Token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
KEYWORD = "KEYWORD"
OP = "OP"
PARAM = "PARAM"  # a positional parameter: ``$1``, ``$2``, …
EOF = "EOF"

#: A dot followed by a non-digit is a qualifier, not a decimal point.
_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?")
_PARAM_RE = re.compile(r"\$\d+")
_TWO_CHAR_OPS = ("<=", ">=", "!=", "<>", "||")
_ONE_CHAR_OPS = "=<>+-*/%(),.;"


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str
    text: str
    position: int

    @property
    def upper(self) -> str:
        return self.text.upper()

    def is_keyword(self, word: str) -> bool:
        return self.kind == KEYWORD and self.upper == word

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}@{self.position})"


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`~repro.errors.LexerError` on bad input."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch.isspace():
            index += 1
            continue
        if ch == "-" and text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if ch == "'":
            value, index = _read_quoted(text, index, "'")
            tokens.append(Token(STRING, value, index))
            continue
        if ch == '"':
            value, index = _read_quoted(text, index, '"')
            tokens.append(Token(IDENT, value, index))
            continue
        if ch == "`":
            value, index = _read_quoted(text, index, "`")
            tokens.append(Token(IDENT, value, index))
            continue
        if ch.isdigit() or (ch == "." and index + 1 < length and text[index + 1].isdigit()):
            number = _NUMBER_RE.match(text, index)
            tokens.append(Token(NUMBER, number.group(), index))
            index = number.end()
            continue
        if ch == "$" and index + 1 < length and text[index + 1].isdigit():
            param = _PARAM_RE.match(text, index)
            tokens.append(Token(PARAM, param.group(), index))
            index = param.end()
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            start = index
            index += 1
            while index < length and (text[index].isalnum() or text[index] in "_$"):
                index += 1
            word = text[start:index]
            kind = KEYWORD if word.upper() in KEYWORDS else IDENT
            tokens.append(Token(kind, word, start))
            continue
        two = text[index:index + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(OP, two, index))
            index += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(OP, ch, index))
            index += 1
            continue
        raise LexerError(f"unexpected character {ch!r} at position {index}", index)
    tokens.append(Token(EOF, "", length))
    return tokens


def _read_quoted(text: str, start: int, quote: str) -> tuple[str, int]:
    """Read a quoted region starting at *start*; doubling escapes the quote."""
    index = start + 1
    pieces: list[str] = []
    while index < len(text):
        ch = text[index]
        if ch == quote:
            if text.startswith(quote * 2, index):
                pieces.append(quote)
                index += 2
                continue
            return "".join(pieces), index + 1
        pieces.append(ch)
        index += 1
    raise LexerError(f"unterminated {quote} quote starting at {start}", start)

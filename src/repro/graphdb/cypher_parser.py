"""Lexer and recursive-descent parser for the Cypher subset.

Covers the constructs PolyFrame's Cypher rewrite rules emit (the paper's
Appendix B and G): ``MATCH`` node patterns, chained ``WITH`` projections
(including map projections like ``t{'two': t.two}`` and ``t{.*, r}``),
``WHERE``, ``ORDER BY``, ``RETURN``, ``LIMIT``, aggregates, and ``IS NULL``.
Numbers may carry an exponent (``1e-05``); ``$p<i>`` is the parameter a
prepared query binds to ``params[i]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import LexerError, ParseError
from repro.graphdb.cypher_ast import (
    Bin,
    CypherExpr,
    CypherQuery,
    Func,
    IsNull,
    Lit,
    MapLiteral,
    MapProjection,
    MatchClause,
    OrderKey,
    Param,
    Pattern,
    Un,
    Var,
    WithClause,
    WithItem,
    Prop,
)

_KEYWORDS = frozenset(
    {
        "MATCH", "WITH", "WHERE", "RETURN", "ORDER", "BY", "LIMIT", "SKIP",
        "AS", "AND", "OR", "NOT", "IS", "NULL", "DESC", "ASC", "DISTINCT",
        "TRUE", "FALSE", "IN",
    }
)

IDENT, NUMBER, STRING, KEYWORD, OP, EOF = "IDENT", "NUMBER", "STRING", "KEYWORD", "OP", "EOF"
PARAM = "PARAM"  # ``$p0``: a parameter of a prepared query
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_PARAM_RE = re.compile(r"\$p(\d+)")
_TWO_CHAR = ("<=", ">=", "<>", "!=")
_ONE_CHAR = "=<>+-*/%(){}:,.[]"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    index, length = 0, len(text)
    while index < length:
        ch = text[index]
        if ch.isspace():
            index += 1
            continue
        if ch == "/" and text.startswith("//", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if ch in "'\"":
            end = index + 1
            pieces = []
            while end < length and text[end] != ch:
                if text[end] == "\\" and end + 1 < length:
                    pieces.append(text[end + 1])
                    end += 2
                    continue
                pieces.append(text[end])
                end += 1
            if end >= length:
                raise LexerError(f"unterminated string at {index}", index)
            tokens.append(_Token(STRING, "".join(pieces), index))
            index = end + 1
            continue
        if ch == "`":
            end = text.find("`", index + 1)
            if end < 0:
                raise LexerError(f"unterminated backtick at {index}", index)
            tokens.append(_Token(IDENT, text[index + 1:end], index))
            index = end + 1
            continue
        if ch.isdigit():
            number = _NUMBER_RE.match(text, index)
            tokens.append(_Token(NUMBER, number.group(), index))
            index = number.end()
            continue
        if ch == "$" and (param := _PARAM_RE.match(text, index)):
            tokens.append(_Token(PARAM, param.group(1), index))
            index = param.end()
            continue
        if ch.isalpha() or ch == "_":
            start = index
            index += 1
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            word = text[start:index]
            kind = KEYWORD if word.upper() in _KEYWORDS else IDENT
            tokens.append(_Token(kind, word, start))
            continue
        if text[index:index + 2] in _TWO_CHAR:
            tokens.append(_Token(OP, text[index:index + 2], index))
            index += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(_Token(OP, ch, index))
            index += 1
            continue
        raise LexerError(f"unexpected character {ch!r} at {index}", index)
    tokens.append(_Token(EOF, "", length))
    return tokens


def parse(text: str) -> CypherQuery:
    """Parse a Cypher query into :class:`CypherQuery`."""
    return _Parser(tokenize(text)).parse_query()


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    @property
    def _cur(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        token = self._cur
        if token.kind != EOF:
            self._pos += 1
        return token

    def _kw(self, *words: str) -> bool:
        if self._cur.kind == KEYWORD and self._cur.text.upper() in words:
            self._advance()
            return True
        return False

    def _peek_kw(self, *words: str) -> bool:
        return self._cur.kind == KEYWORD and self._cur.text.upper() in words

    def _op(self, text: str) -> bool:
        if self._cur.kind == OP and self._cur.text == text:
            self._advance()
            return True
        return False

    def _peek_op(self, text: str) -> bool:
        return self._cur.kind == OP and self._cur.text == text

    def _expect_op(self, text: str) -> None:
        if not self._op(text):
            raise ParseError(f"expected {text!r}, found {self._cur.text!r} at {self._cur.position}")

    def _ident(self) -> str:
        token = self._cur
        if token.kind in (IDENT, KEYWORD):
            self._advance()
            return token.text
        raise ParseError(f"expected identifier, found {token.text!r} at {token.position}")

    # ------------------------------------------------------------------
    def parse_query(self) -> CypherQuery:
        clauses = []
        while self._cur.kind != EOF:
            if self._op(";"):
                break
            if self._peek_kw("MATCH"):
                clauses.append(self._parse_match())
            elif self._peek_kw("WITH"):
                clauses.append(self._parse_with(is_return=False))
            elif self._peek_kw("RETURN"):
                clauses.append(self._parse_with(is_return=True))
            else:
                raise ParseError(
                    f"expected MATCH/WITH/RETURN, found {self._cur.text!r} at {self._cur.position}"
                )
        if not clauses:
            raise ParseError("empty query")
        return CypherQuery(tuple(clauses))

    def _parse_match(self) -> MatchClause:
        self._kw("MATCH")
        patterns = [self._parse_pattern()]
        while self._op(","):
            patterns.append(self._parse_pattern())
        where = self.parse_expression() if self._kw("WHERE") else None
        return MatchClause(tuple(patterns), where)

    def _parse_pattern(self) -> Pattern:
        self._expect_op("(")
        var = self._ident()
        label = None
        if self._op(":"):
            label = self._ident()
        self._expect_op(")")
        return Pattern(var, label)

    def _parse_with(self, is_return: bool) -> WithClause:
        self._advance()  # WITH or RETURN
        distinct = bool(self._kw("DISTINCT"))
        items = [self._parse_item()]
        while self._op(","):
            items.append(self._parse_item())
        where = self.parse_expression() if self._kw("WHERE") else None
        order_by: list[OrderKey] = []
        if self._kw("ORDER"):
            if not self._kw("BY"):
                raise ParseError("expected BY after ORDER")
            while True:
                expr = self.parse_expression()
                descending = False
                if self._kw("DESC"):
                    descending = True
                else:
                    self._kw("ASC")
                order_by.append(OrderKey(expr, descending))
                if not self._op(","):
                    break
        limit = None
        if self._kw("LIMIT"):
            token = self._cur
            if token.kind != NUMBER or not token.text.isdigit():
                raise ParseError(f"LIMIT requires a number, found {token.text!r}")
            self._advance()
            limit = int(token.text)
        return WithClause(
            items=tuple(items),
            where=where,
            order_by=tuple(order_by),
            limit=limit,
            is_return=is_return,
            distinct=distinct,
        )

    def _parse_item(self) -> WithItem:
        expr = self.parse_expression()
        alias = self._ident() if self._kw("AS") else None
        return WithItem(expr, alias)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def parse_expression(self) -> CypherExpr:
        return self._parse_or()

    def _parse_or(self) -> CypherExpr:
        expr = self._parse_and()
        while self._kw("OR"):
            expr = Bin("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> CypherExpr:
        expr = self._parse_not()
        while self._kw("AND"):
            expr = Bin("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> CypherExpr:
        if self._kw("NOT"):
            return Un("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> CypherExpr:
        expr = self._parse_additive()
        while True:
            if self._cur.kind == OP and self._cur.text in ("=", "<>", "!=", ">", "<", ">=", "<="):
                op = self._advance().text
                if op == "<>":
                    op = "!="
                expr = Bin(op, expr, self._parse_additive())
                continue
            if self._kw("IS"):
                negated = bool(self._kw("NOT"))
                if not self._kw("NULL"):
                    raise ParseError("expected NULL after IS")
                expr = IsNull(expr, negated)
                continue
            if self._kw("IN"):
                expr = self._parse_in_list(expr)
                continue
            return expr

    def _parse_in_list(self, operand: CypherExpr) -> CypherExpr:
        """Desugar ``expr IN [a, b, ...]`` into an OR of equalities."""
        self._expect_op("[")
        members = [self.parse_expression()]
        while self._op(","):
            members.append(self.parse_expression())
        self._expect_op("]")
        out: CypherExpr = Bin("=", operand, members[0])
        for member in members[1:]:
            out = Bin("OR", out, Bin("=", operand, member))
        return out

    def _parse_additive(self) -> CypherExpr:
        expr = self._parse_multiplicative()
        while self._cur.kind == OP and self._cur.text in ("+", "-"):
            op = self._advance().text
            expr = Bin(op, expr, self._parse_multiplicative())
        return expr

    def _parse_multiplicative(self) -> CypherExpr:
        expr = self._parse_unary()
        while self._cur.kind == OP and self._cur.text in ("*", "/", "%"):
            op = self._advance().text
            expr = Bin(op, expr, self._parse_unary())
        return expr

    def _parse_unary(self) -> CypherExpr:
        if self._op("-"):
            return Un("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> CypherExpr:
        token = self._cur
        if token.kind == NUMBER:
            self._advance()
            return Lit(int(token.text) if token.text.isdigit() else float(token.text))
        if token.kind == PARAM:
            self._advance()
            return Param(int(token.text))
        if token.kind == STRING:
            self._advance()
            return Lit(token.text)
        if self._kw("NULL"):
            return Lit(None)
        if self._kw("TRUE"):
            return Lit(True)
        if self._kw("FALSE"):
            return Lit(False)
        if self._peek_op("{"):
            return self._parse_map_literal()
        if self._peek_op("("):
            self._advance()
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        if token.kind in (IDENT, KEYWORD):
            name = self._ident()
            if self._peek_op("("):
                return self._parse_call(name)
            if self._peek_op("{"):
                return self._parse_map_projection(name)
            if self._op("."):
                prop = self._ident()
                return Prop(name, prop)
            return Var(name)
        raise ParseError(f"unexpected token {token.text!r} at {token.position}")

    def _parse_call(self, name: str) -> CypherExpr:
        self._expect_op("(")
        if self._op("*"):
            self._expect_op(")")
            return Func(name, star=True)
        if self._op(")"):
            return Func(name)
        args = [self.parse_expression()]
        while self._op(","):
            args.append(self.parse_expression())
        self._expect_op(")")
        return Func(name, tuple(args))

    def _parse_map_literal(self) -> MapLiteral:
        self._expect_op("{")
        entries: list[tuple[str, CypherExpr]] = []
        if not self._peek_op("}"):
            while True:
                entries.append(self._parse_map_entry())
                if not self._op(","):
                    break
        self._expect_op("}")
        return MapLiteral(tuple(entries))

    def _parse_map_entry(self) -> tuple[str, CypherExpr]:
        token = self._cur
        if token.kind == STRING:
            self._advance()
            key = token.text
        else:
            key = self._ident()
        self._expect_op(":")
        return key, self.parse_expression()

    def _parse_map_projection(self, var: str) -> MapProjection:
        self._expect_op("{")
        entries: list[tuple[str, CypherExpr]] = []
        extra_vars: list[str] = []
        include_all = False
        if not self._peek_op("}"):
            while True:
                if self._op("."):
                    self._expect_op("*")
                    include_all = True
                else:
                    token = self._cur
                    if token.kind == STRING:
                        self._advance()
                        key = token.text
                        self._expect_op(":")
                        entries.append((key, self.parse_expression()))
                    else:
                        name = self._ident()
                        if self._op(":"):
                            entries.append((name, self.parse_expression()))
                        else:
                            extra_vars.append(name)
                if not self._op(","):
                    break
        self._expect_op("}")
        return MapProjection(
            var, tuple(entries), include_all=include_all, extra_vars=tuple(extra_vars)
        )

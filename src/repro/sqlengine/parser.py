"""Recursive-descent parser for SQL and SQL++ SELECT statements.

Covers the composable query surface PolyFrame generates (nested derived
tables, joins with ON, grouping, ordering, LIMIT) plus enough general SQL to
be usable on its own.  ``dialect='sqlpp'`` additionally accepts
``SELECT VALUE expr`` and ``IS [NOT] UNKNOWN`` / ``IS [NOT] MISSING``.
A ``$<n>`` parameter may stand wherever a literal may.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.sqlengine import lexer
from repro.sqlengine.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expression,
    FromItem,
    FuncCall,
    IsAbsent,
    JoinRef,
    Literal,
    OrderItem,
    Param,
    SelectItem,
    SelectQuery,
    Star,
    SubqueryRef,
    TableRef,
    UnaryOp,
)
from repro.sqlengine.lexer import EOF, IDENT, KEYWORD, NUMBER, OP, PARAM, STRING, Token

_COMPARISON_OPS = {"=", "!=", "<>", ">", "<", ">=", "<="}
_RESERVED_AS_ALIAS_BLOCKERS = {
    "WHERE", "GROUP", "ORDER", "LIMIT", "OFFSET", "ON", "JOIN", "INNER",
    "LEFT", "AND", "OR", "UNION", "HAVING",
}


def parse(text: str, dialect: str = "sql") -> SelectQuery:
    """Parse *text* into a :class:`SelectQuery` AST."""
    parser = _Parser(lexer.tokenize(text), dialect)
    query = parser.parse_select()
    parser.expect_end()
    return query


class _Parser:
    def __init__(self, tokens: list[Token], dialect: str) -> None:
        if dialect not in ("sql", "sqlpp"):
            raise ValueError(f"unknown dialect {dialect!r}")
        self._tokens = tokens
        self._pos = 0
        self._dialect = dialect

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != EOF:
            self._pos += 1
        return token

    def _match_keyword(self, *words: str) -> bool:
        if self._current.kind == KEYWORD and self._current.upper in words:
            self._advance()
            return True
        return False

    def _peek_keyword(self, *words: str) -> bool:
        return self._current.kind == KEYWORD and self._current.upper in words

    def _match_op(self, text: str) -> bool:
        if self._current.kind == OP and self._current.text == text:
            self._advance()
            return True
        return False

    def _peek_op(self, text: str) -> bool:
        return self._current.kind == OP and self._current.text == text

    def _expect_op(self, text: str) -> None:
        if not self._match_op(text):
            raise ParseError(
                f"expected {text!r} but found {self._current.text!r} "
                f"at position {self._current.position}"
            )

    def _expect_keyword(self, word: str) -> None:
        if not self._match_keyword(word):
            raise ParseError(
                f"expected {word} but found {self._current.text!r} "
                f"at position {self._current.position}"
            )

    def _expect_ident(self) -> str:
        token = self._current
        if token.kind == IDENT:
            self._advance()
            return token.text
        # Non-reserved keywords can appear as identifiers (e.g. a column
        # named "value"); accept keywords here unless they would be
        # structurally ambiguous.
        if token.kind == KEYWORD and token.upper not in _RESERVED_AS_ALIAS_BLOCKERS:
            self._advance()
            return token.text
        raise ParseError(
            f"expected identifier but found {token.text!r} at position {token.position}"
        )

    def expect_end(self) -> None:
        self._match_op(";")
        if self._current.kind != EOF:
            raise ParseError(
                f"unexpected trailing input {self._current.text!r} "
                f"at position {self._current.position}"
            )

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse_select(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        distinct = bool(self._match_keyword("DISTINCT"))
        select_value = False
        if self._dialect == "sqlpp" and self._match_keyword("VALUE"):
            select_value = True
            items = (SelectItem(self.parse_expression()),)
        else:
            items = tuple(self._parse_select_items())

        from_item = None
        if self._match_keyword("FROM"):
            from_item = self._parse_from()

        where = self.parse_expression() if self._match_keyword("WHERE") else None

        group_by: tuple[Expression, ...] = ()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = tuple(self._parse_expression_list())

        order_by: tuple[OrderItem, ...] = ()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = tuple(self._parse_order_items())

        limit = None
        if self._match_keyword("LIMIT"):
            limit = self._parse_int("LIMIT")
        offset = None
        if self._match_keyword("OFFSET"):
            offset = self._parse_int("OFFSET")

        return SelectQuery(
            items=items,
            from_item=from_item,
            where=where,
            group_by=group_by,
            order_by=order_by,
            limit=limit,
            offset=offset,
            select_value=select_value,
            distinct=distinct,
        )

    def _parse_int(self, clause: str) -> int:
        token = self._current
        if token.kind != NUMBER:
            raise ParseError(f"{clause} requires an integer, found {token.text!r}")
        self._advance()
        try:
            return int(token.text)
        except ValueError:
            raise ParseError(f"{clause} requires an integer, found {token.text!r}") from None

    def _parse_select_items(self) -> list[SelectItem]:
        items = [self._parse_select_item()]
        while self._match_op(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        if self._match_op("*"):
            return SelectItem(Star())
        expr = self.parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.kind == IDENT:
            alias = self._advance().text
        return SelectItem(expr, alias)

    # FROM clause -------------------------------------------------------
    def _parse_from(self) -> FromItem:
        item = self._parse_from_primary()
        while True:
            kind = None
            if self._match_keyword("INNER"):
                self._expect_keyword("JOIN")
                kind = "inner"
            elif self._peek_keyword("LEFT"):
                self._advance()
                self._match_keyword("OUTER")
                self._expect_keyword("JOIN")
                kind = "left"
            elif self._match_keyword("JOIN"):
                kind = "inner"
            elif self._match_op(","):
                # Comma cross join with an ON-less condition is not part of
                # PolyFrame's output; reject clearly rather than mis-parse.
                raise ParseError("comma joins are not supported; use JOIN ... ON")
            if kind is None:
                return item
            right = self._parse_from_primary()
            self._expect_keyword("ON")
            condition = self.parse_expression()
            item = JoinRef(left=item, right=right, condition=condition, kind=kind)

    def _parse_from_primary(self) -> FromItem:
        if self._match_op("("):
            query = self.parse_select()
            self._expect_op(")")
            self._match_keyword("AS")
            alias = self._expect_ident()
            return SubqueryRef(query=query, alias=alias)
        name = self._parse_qualified_name()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.kind == IDENT:
            alias = self._advance().text
        return TableRef(name=name, alias=alias)

    def _parse_qualified_name(self) -> str:
        parts = [self._expect_ident()]
        while self._peek_op("."):
            self._advance()
            parts.append(self._expect_ident())
        return ".".join(parts)

    def _parse_order_items(self) -> list[OrderItem]:
        items = []
        while True:
            expr = self.parse_expression()
            descending = False
            if self._match_keyword("DESC"):
                descending = True
            else:
                self._match_keyword("ASC")
            items.append(OrderItem(expr=expr, descending=descending))
            if not self._match_op(","):
                return items

    def _parse_expression_list(self) -> list[Expression]:
        exprs = [self.parse_expression()]
        while self._match_op(","):
            exprs.append(self.parse_expression())
        return exprs

    # Expressions (precedence climbing) ----------------------------------
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        expr = self._parse_and()
        while self._match_keyword("OR"):
            expr = BinaryOp("OR", expr, self._parse_and())
        return expr

    def _parse_and(self) -> Expression:
        expr = self._parse_not()
        while self._match_keyword("AND"):
            expr = BinaryOp("AND", expr, self._parse_not())
        return expr

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        expr = self._parse_additive()
        while True:
            if self._current.kind == OP and self._current.text in _COMPARISON_OPS:
                op = self._advance().text
                if op == "<>":
                    op = "!="
                expr = BinaryOp(op, expr, self._parse_additive())
                continue
            if self._match_keyword("IS"):
                expr = self._parse_is(expr)
                continue
            if self._match_keyword("BETWEEN"):
                low = self._parse_additive()
                self._expect_keyword("AND")
                high = self._parse_additive()
                expr = BinaryOp(
                    "AND", BinaryOp(">=", expr, low), BinaryOp("<=", expr, high)
                )
                continue
            if self._peek_keyword("NOT") or self._peek_keyword("IN"):
                negated = self._match_keyword("NOT")
                if not self._match_keyword("IN"):
                    if negated:
                        raise ParseError("expected IN after NOT in comparison")
                    return expr
                expr = self._parse_in_list(expr, negated)
                continue
            return expr

    def _parse_in_list(self, operand: Expression, negated: bool) -> Expression:
        """Desugar ``expr [NOT] IN (a, b, ...)`` into an OR of equalities."""
        self._expect_op("(")
        members = [self.parse_expression()]
        while self._match_op(","):
            members.append(self.parse_expression())
        self._expect_op(")")
        out: Expression = BinaryOp("=", operand, members[0])
        for member in members[1:]:
            out = BinaryOp("OR", out, BinaryOp("=", operand, member))
        return UnaryOp("NOT", out) if negated else out

    def _parse_is(self, operand: Expression) -> Expression:
        negated = bool(self._match_keyword("NOT"))
        if self._match_keyword("NULL"):
            return IsAbsent(operand, mode="null", negated=negated)
        if self._dialect == "sqlpp" and self._match_keyword("UNKNOWN"):
            return IsAbsent(operand, mode="unknown", negated=negated)
        if self._dialect == "sqlpp" and self._match_keyword("MISSING"):
            return IsAbsent(operand, mode="missing", negated=negated)
        raise ParseError(
            f"expected NULL/UNKNOWN/MISSING after IS, found {self._current.text!r}"
        )

    def _parse_additive(self) -> Expression:
        expr = self._parse_multiplicative()
        while self._current.kind == OP and self._current.text in ("+", "-", "||"):
            op = self._advance().text
            expr = BinaryOp(op, expr, self._parse_multiplicative())
        return expr

    def _parse_multiplicative(self) -> Expression:
        expr = self._parse_unary()
        while self._current.kind == OP and self._current.text in ("*", "/", "%"):
            op = self._advance().text
            expr = BinaryOp(op, expr, self._parse_unary())
        return expr

    def _parse_unary(self) -> Expression:
        if self._match_op("-"):
            return UnaryOp("-", self._parse_unary())
        if self._match_op("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._current
        if token.kind == NUMBER:
            self._advance()
            text = token.text
            return Literal(int(text) if text.isdigit() else float(text))
        if token.kind == PARAM:
            self._advance()
            return Param(int(token.text[1:]) - 1)
        if token.kind == STRING:
            self._advance()
            return Literal(token.text)
        if token.kind == KEYWORD:
            if self._match_keyword("NULL"):
                return Literal(None)
            if self._match_keyword("TRUE"):
                return Literal(True)
            if self._match_keyword("FALSE"):
                return Literal(False)
            if self._peek_keyword("MISSING"):
                self._advance()
                return ColumnRef("MISSING")  # only meaningful via IS MISSING
        if token.kind == IDENT or (
            token.kind == KEYWORD and token.upper not in _RESERVED_AS_ALIAS_BLOCKERS
        ):
            return self._parse_reference_or_call()
        if self._match_op("("):
            expr = self.parse_expression()
            self._expect_op(")")
            return expr
        raise ParseError(
            f"unexpected token {token.text!r} at position {token.position}"
        )

    def _parse_reference_or_call(self) -> Expression:
        name = self._expect_ident()
        if self._peek_op("("):
            return self._parse_call(name)
        if self._peek_op("."):
            self._advance()
            if self._match_op("*"):
                return Star(qualifier=name)
            attr = self._expect_ident()
            return ColumnRef(attr, qualifier=name)
        return ColumnRef(name)

    def _parse_call(self, name: str) -> Expression:
        self._expect_op("(")
        if self._match_op("*"):
            self._expect_op(")")
            return FuncCall(name=name, star=True)
        if self._match_op(")"):
            return FuncCall(name=name)
        distinct = bool(self._match_keyword("DISTINCT"))
        args = [self.parse_expression()]
        while self._match_op(","):
            args.append(self.parse_expression())
        self._expect_op(")")
        return FuncCall(name=name, args=tuple(args), distinct=distinct)

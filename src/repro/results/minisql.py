"""The dependency-free SQL subset behind ``repro query``.

It evaluates a deliberately small, deterministic subset of SQL over
in-memory list-of-dict tables::

    SELECT [DISTINCT] * | expr [AS name], ...
    FROM table
    [WHERE condition]
    [GROUP BY column, ...]
    [ORDER BY expr [ASC|DESC], ...]
    [LIMIT n]

* expressions: column references (optionally ``"quoted"``), literals
  (numbers, ``'strings'``, ``NULL``, ``TRUE``, ``FALSE``) and the
  aggregates ``COUNT(*)``, ``COUNT(col)``, ``SUM``, ``AVG``, ``MIN``,
  ``MAX``.
* conditions: comparisons (``= != <> < <= > >=``), ``IS [NOT] NULL``,
  ``IN (literal, ...)``, ``NOT``, ``AND``, ``OR`` and parentheses.
  Comparisons against ``NULL`` are false (SQL-ish three-valued logic
  collapsed to two).

Anything else raises :class:`MiniSQLError` naming the unsupported
construct and listing what is supported — failing loudly beats quietly
mis-evaluating a query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)


class MiniSQLError(ValueError):
    """An unsupported or malformed query."""


_HINT = ("; repro query supports SELECT/WHERE/GROUP BY/ORDER BY/LIMIT "
         "with COUNT/SUM/AVG/MIN/MAX")

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<string>'(?:[^']|'')*')
      | (?P<qident>"(?:[^"]|"")*")
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*|\.)
    )""", re.VERBOSE)

_KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER",
    "LIMIT", "AS", "AND", "OR", "NOT", "IS", "IN", "NULL", "TRUE",
    "FALSE", "ASC", "DESC",
}

_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "string" | "ident" | "keyword" | "op" | "end"
    value: Any
    text: str


def _tokenize(sql: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    sql = sql.strip().rstrip(";")
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None or match.end() == position:
            raise MiniSQLError(
                f"cannot tokenize query at ...{sql[position:position + 20]!r}"
                + _HINT)
        position = match.end()
        if match.lastgroup == "number":
            text = match.group("number")
            value = float(text) if ("." in text or "e" in text.lower()) \
                else int(text)
            tokens.append(_Token("number", value, text))
        elif match.lastgroup == "string":
            raw = match.group("string")[1:-1].replace("''", "'")
            tokens.append(_Token("string", raw, raw))
        elif match.lastgroup == "qident":
            raw = match.group("qident")[1:-1].replace('""', '"')
            tokens.append(_Token("ident", raw, raw))
        elif match.lastgroup == "ident":
            text = match.group("ident")
            if text.upper() in _KEYWORDS:
                tokens.append(_Token("keyword", text.upper(), text))
            else:
                tokens.append(_Token("ident", text, text))
        else:
            tokens.append(_Token("op", match.group("op"),
                                 match.group("op")))
    tokens.append(_Token("end", None, "<end of query>"))
    return tokens


# ----------------------------------------------------------------------
# Expression model.  Row expressions evaluate per row; aggregate
# expressions evaluate over a group of rows.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Column:
    name: str

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return row.get(self.name)

    def label(self) -> str:
        return self.name


@dataclass(frozen=True)
class _Literal:
    value: Any

    def evaluate(self, row: Mapping[str, Any]) -> Any:
        return self.value

    def label(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class _Aggregate:
    function: str
    argument: Optional[_Column]  # None = COUNT(*)

    def evaluate_group(self, rows: Sequence[Mapping[str, Any]]) -> Any:
        if self.function == "COUNT" and self.argument is None:
            return len(rows)
        values = [self.argument.evaluate(row) for row in rows]
        values = [value for value in values if value is not None]
        if self.function == "COUNT":
            return len(values)
        if not values:
            return None
        if self.function == "SUM":
            return sum(values)
        if self.function == "AVG":
            return sum(values) / len(values)
        if self.function == "MIN":
            return min(values)
        return max(values)

    def label(self) -> str:
        inner = "*" if self.argument is None else self.argument.name
        return f"{self.function.lower()}({inner})"


@dataclass(frozen=True)
class _SelectItem:
    expression: Any  # _Column | _Literal | _Aggregate
    alias: Optional[str]

    def label(self) -> str:
        return self.alias or self.expression.label()


class _Parser:
    def __init__(self, sql: str) -> None:
        self.tokens = _tokenize(sql)
        self.position = 0

    # -- token helpers ------------------------------------------------
    @property
    def current(self) -> _Token:
        return self.tokens[self.position]

    def advance(self) -> _Token:
        token = self.current
        self.position += 1
        return token

    def at_keyword(self, *names: str) -> bool:
        return self.current.kind == "keyword" and self.current.value in names

    def expect_keyword(self, name: str) -> None:
        if not self.at_keyword(name):
            raise MiniSQLError(
                f"expected {name}, got {self.current.text!r}" + _HINT)
        self.advance()

    def accept_op(self, op: str) -> bool:
        if self.current.kind == "op" and self.current.value == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.accept_op(op):
            raise MiniSQLError(
                f"expected {op!r}, got {self.current.text!r}" + _HINT)

    # -- grammar ------------------------------------------------------
    def parse(self) -> "_Query":
        self.expect_keyword("SELECT")
        distinct = False
        if self.at_keyword("DISTINCT"):
            distinct = True
            self.advance()
        items = self._select_items()
        self.expect_keyword("FROM")
        if self.current.kind != "ident":
            raise MiniSQLError(
                f"expected a table name after FROM, got "
                f"{self.current.text!r}" + _HINT)
        table = self.advance().value
        where = None
        if self.at_keyword("WHERE"):
            self.advance()
            where = self._or_expression()
        group_by: List[_Column] = []
        if self.at_keyword("GROUP"):
            self.advance()
            self.expect_keyword("BY")
            group_by = self._column_list()
        order_by: List[Tuple[Any, bool]] = []
        if self.at_keyword("ORDER"):
            self.advance()
            self.expect_keyword("BY")
            order_by = self._order_list()
        limit = None
        if self.at_keyword("LIMIT"):
            self.advance()
            if self.current.kind != "number" or \
                    not isinstance(self.current.value, int):
                raise MiniSQLError("LIMIT expects an integer" + _HINT)
            limit = self.advance().value
        if self.current.kind != "end":
            raise MiniSQLError(
                f"unsupported trailing syntax at {self.current.text!r}"
                + _HINT)
        return _Query(items=items, distinct=distinct, table=table,
                      where=where, group_by=group_by, order_by=order_by,
                      limit=limit)

    def _select_items(self) -> List[_SelectItem]:
        if self.accept_op("*"):
            return [_SelectItem(expression=None, alias=None)]  # SELECT *
        items = [self._select_item()]
        while self.accept_op(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> _SelectItem:
        expression = self._value_expression()
        alias = None
        if self.at_keyword("AS"):
            self.advance()
            if self.current.kind != "ident":
                raise MiniSQLError(
                    f"expected an alias after AS, got "
                    f"{self.current.text!r}" + _HINT)
            alias = self.advance().value
        return _SelectItem(expression=expression, alias=alias)

    def _value_expression(self):
        token = self.current
        if token.kind == "ident" and token.value.upper() in _AGGREGATES \
                and self.tokens[self.position + 1].text == "(":
            function = self.advance().value.upper()
            self.expect_op("(")
            if self.accept_op("*"):
                if function != "COUNT":
                    raise MiniSQLError(
                        f"{function}(*) is not a thing; only COUNT(*)"
                        + _HINT)
                argument = None
            else:
                argument = self._column()
            self.expect_op(")")
            return _Aggregate(function=function, argument=argument)
        if token.kind == "ident":
            return self._column()
        if token.kind in ("number", "string"):
            return _Literal(self.advance().value)
        if self.at_keyword("NULL"):
            self.advance()
            return _Literal(None)
        if self.at_keyword("TRUE"):
            self.advance()
            return _Literal(True)
        if self.at_keyword("FALSE"):
            self.advance()
            return _Literal(False)
        raise MiniSQLError(
            f"unsupported expression at {token.text!r}" + _HINT)

    def _column(self) -> _Column:
        if self.current.kind != "ident":
            raise MiniSQLError(
                f"expected a column name, got {self.current.text!r}"
                + _HINT)
        name = self.advance().value
        if self.accept_op("."):  # table.column — table prefix is noise
            if self.current.kind != "ident":
                raise MiniSQLError(
                    f"expected a column after {name}., got "
                    f"{self.current.text!r}" + _HINT)
            name = self.advance().value
        return _Column(name)

    def _column_list(self) -> List[_Column]:
        columns = [self._column()]
        while self.accept_op(","):
            columns.append(self._column())
        return columns

    def _order_list(self) -> List[Tuple[Any, bool]]:
        entries = []
        while True:
            expression = self._value_expression()
            descending = False
            if self.at_keyword("ASC"):
                self.advance()
            elif self.at_keyword("DESC"):
                self.advance()
                descending = True
            entries.append((expression, descending))
            if not self.accept_op(","):
                return entries

    # -- conditions ---------------------------------------------------
    def _or_expression(self):
        terms = [self._and_expression()]
        while self.at_keyword("OR"):
            self.advance()
            terms.append(self._and_expression())
        if len(terms) == 1:
            return terms[0]
        return lambda row: any(term(row) for term in terms)

    def _and_expression(self):
        terms = [self._not_expression()]
        while self.at_keyword("AND"):
            self.advance()
            terms.append(self._not_expression())
        if len(terms) == 1:
            return terms[0]
        return lambda row: all(term(row) for term in terms)

    def _not_expression(self):
        if self.at_keyword("NOT"):
            self.advance()
            inner = self._not_expression()
            return lambda row: not inner(row)
        return self._predicate()

    def _predicate(self):
        if self.accept_op("("):
            inner = self._or_expression()
            self.expect_op(")")
            return inner
        left = self._value_expression()
        if isinstance(left, _Aggregate):
            raise MiniSQLError(
                "aggregates are not allowed in WHERE" + _HINT)
        if self.at_keyword("IS"):
            self.advance()
            negate = False
            if self.at_keyword("NOT"):
                self.advance()
                negate = True
            self.expect_keyword("NULL")
            if negate:
                return lambda row: left.evaluate(row) is not None
            return lambda row: left.evaluate(row) is None
        if self.at_keyword("IN"):
            self.advance()
            self.expect_op("(")
            members = [self._value_expression()]
            while self.accept_op(","):
                members.append(self._value_expression())
            self.expect_op(")")
            literals = {member.value for member in members
                        if isinstance(member, _Literal)}
            if len(literals) != len(members):
                raise MiniSQLError(
                    "IN expects a literal list" + _HINT)
            return lambda row: left.evaluate(row) in literals
        if self.current.kind != "op" or self.current.value not in (
                "=", "!=", "<>", "<", "<=", ">", ">="):
            raise MiniSQLError(
                f"expected a comparison, got {self.current.text!r}"
                + _HINT)
        op = self.advance().value
        right = self._value_expression()
        if isinstance(right, _Aggregate):
            raise MiniSQLError(
                "aggregates are not allowed in WHERE" + _HINT)
        return _comparison(left, op, right)


def _comparison(left, op: str, right) -> Callable[[Mapping[str, Any]], bool]:
    def check(row: Mapping[str, Any]) -> bool:
        a, b = left.evaluate(row), right.evaluate(row)
        if op in ("=", "!=", "<>"):
            equal = a == b and (a is None) == (b is None)
            return equal if op == "=" else not equal
        if a is None or b is None:
            return False
        try:
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b
        except TypeError:
            return False
    return check


@dataclass(frozen=True)
class _Query:
    items: List[_SelectItem]
    distinct: bool
    table: str
    where: Optional[Callable[[Mapping[str, Any]], bool]]
    group_by: List[_Column]
    order_by: List[Tuple[Any, bool]]
    limit: Optional[int]


def _sort_key(value: Any) -> Tuple[int, Any]:
    """A total order over heterogeneous cells: NULLs last, then by type."""
    if value is None:
        return (3, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (2, str(value))


def execute(sql: str,
            tables: Mapping[str, Sequence[Mapping[str, Any]]],
            columns: Optional[Mapping[str, Sequence[str]]] = None,
            ) -> Tuple[List[str], List[Tuple[Any, ...]]]:
    """Evaluate one query; returns ``(column labels, result tuples)``.

    ``tables`` maps case-insensitive table names to row dicts;
    ``columns`` optionally pins each table's column order for
    ``SELECT *`` (defaulting to first-seen order across its rows).
    """
    query = _Parser(sql).parse()
    lookup = {name.lower(): name for name in tables}
    actual = lookup.get(query.table.lower())
    if actual is None:
        raise MiniSQLError(
            f"unknown table {query.table!r}; available: "
            f"{', '.join(sorted(tables))}")
    rows = [row for row in tables[actual]
            if query.where is None or query.where(row)]

    select_star = any(item.expression is None for item in query.items)
    if select_star:
        if columns and actual in columns:
            star_columns = list(columns[actual])
        else:
            star_columns = _first_seen_columns(tables[actual])
        items = [_SelectItem(expression=_Column(name), alias=None)
                 for name in star_columns]
    else:
        items = query.items
    aggregated = any(isinstance(item.expression, _Aggregate)
                     for item in items)

    labels = [item.label() for item in items]
    if query.group_by or aggregated:
        if select_star:
            raise MiniSQLError("SELECT * cannot be aggregated" + _HINT)
        result = _evaluate_groups(items, rows, query.group_by)
    else:
        result = [tuple(item.expression.evaluate(row) for item in items)
                  for row in rows]

    if query.distinct:
        seen = set()
        deduped = []
        for row in result:
            marker = tuple(_sort_key(cell) for cell in row)
            if marker not in seen:
                seen.add(marker)
                deduped.append(row)
        result = deduped

    for expression, descending in reversed(query.order_by):
        index = _order_index(expression, items, labels)
        result.sort(key=lambda row: _sort_key(row[index]),
                    reverse=descending)
    if query.limit is not None:
        result = result[:query.limit]
    return labels, result


def _first_seen_columns(rows: Iterable[Mapping[str, Any]]) -> List[str]:
    columns: List[str] = []
    seen = set()
    for row in rows:
        for name in row:
            if name not in seen:
                seen.add(name)
                columns.append(name)
    return columns


def _order_index(expression, items: List[_SelectItem],
                 labels: List[str]) -> int:
    if isinstance(expression, _Column) and expression.name in labels:
        return labels.index(expression.name)
    for index, item in enumerate(items):
        if item.expression == expression:
            return index
    raise MiniSQLError(
        f"ORDER BY must name a selected column; got "
        f"{expression.label()!r} not in {labels}" + _HINT)


def _evaluate_groups(items: List[_SelectItem],
                     rows: List[Mapping[str, Any]],
                     group_by: List[_Column]) -> List[Tuple[Any, ...]]:
    for item in items:
        if isinstance(item.expression, _Aggregate):
            continue
        if isinstance(item.expression, _Literal):
            continue
        if not any(column.name == item.expression.name
                   for column in group_by):
            raise MiniSQLError(
                f"column {item.expression.name!r} must appear in GROUP BY "
                f"or inside an aggregate" + _HINT)
    groups: Dict[Tuple[Tuple[int, Any], ...],
                 Tuple[Tuple[Any, ...], List[Mapping[str, Any]]]] = {}
    if not group_by:  # a global aggregate: one group over everything
        groups[()] = ((), list(rows))
    for row in rows if group_by else []:
        key_values = tuple(column.evaluate(row) for column in group_by)
        marker = tuple(_sort_key(value) for value in key_values)
        groups.setdefault(marker, (key_values, []))[1].append(row)
    result = []
    for _, (key_values, members) in sorted(groups.items()):
        record = dict(zip((column.name for column in group_by),
                          key_values))
        out = []
        for item in items:
            if isinstance(item.expression, _Aggregate):
                out.append(item.expression.evaluate_group(members))
            else:
                out.append(item.expression.evaluate(record)
                           if isinstance(item.expression, _Column)
                           else item.expression.evaluate({}))
        result.append(tuple(out))
    return result


__all__ = ["MiniSQLError", "execute"]

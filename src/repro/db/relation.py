"""Relations and the relational operator algebra.

A :class:`Relation` is an immutable bag of rows (dicts) with a declared
column order.  All integration-process data flows in the engine move
relations between operators; the methods here are exactly the operators the
DIPBench process types need: selection, projection (with renaming),
hash join, UNION DISTINCT (used heavily by P03 and P09), grouping,
sorting and de-duplication.

Every operator returns a new Relation and leaves its inputs untouched,
which keeps operator graphs side-effect free (a property the optimizer
rewrites rely on).

Operators run on one of two strategies (see :mod:`repro.db.fastpath`):
the naive path re-materializes every row per operator; the fast path
shares row dicts between relations and only copies where an operator
produces new values (``project``/``extend``/``join``/``group_by``).
Sharing is safe because nothing in the kernel ever mutates a stored row
dict in place — :class:`~repro.db.table.Table` replaces rows wholesale
on update.  Two consequences the fast path tracks explicitly:

* a relation produced by ``keep`` may *share* rows that physically carry
  more keys than ``columns`` declares (the ``_wide`` flag); the declared
  ``columns`` tuple stays authoritative, and every export boundary
  (``to_dicts``, ``iter_narrow``) projects through it;
* a relation produced by ``Table.to_relation`` remembers its source
  table (``_source``), which lets ``join`` probe the table's existing
  pk/secondary indexes instead of building a hash index per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.db import fastpath, vector
from repro.db.expressions import Expression

Row = dict[str, Any]

_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")

#: Debug mode: when on, the validating constructor rejects rows carrying
#: keys beyond the declared columns instead of silently dropping them.
_strict_rows = False


def set_strict_rows(on: bool) -> None:
    """Toggle strict row validation (reject extra keys) globally."""
    global _strict_rows
    _strict_rows = bool(on)


@contextmanager
def strict_rows() -> Iterator[None]:
    """Enable strict row validation inside a block (debug/test aid)."""
    global _strict_rows
    previous = _strict_rows
    _strict_rows = True
    try:
        yield
    finally:
        _strict_rows = previous


class _Desc:
    """Inverts comparison of one sort-key component (stable DESC sorts).

    ``sorted(key=..., reverse=True)`` would both reverse tie order and
    move NULLs last; wrapping each non-flag component keeps the sort
    stable and leaves the NULL flag ascending (NULLs first).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.value == self.value

    __hash__ = None  # type: ignore[assignment]


class Relation:
    """An ordered-column bag of rows.

    >>> r = Relation(("a", "b"), [{"a": 1, "b": 2}])
    >>> r.project({"a": "x"}).columns
    ('x',)
    """

    __slots__ = ("columns", "rows", "_wide", "_source")

    def __init__(self, columns: Sequence[str], rows: Iterable[Mapping[str, Any]]):
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise QueryError(f"duplicate columns in relation: {self.columns}")
        materialized: list[Row] = []
        column_set = set(self.columns)
        strict = _strict_rows
        for row in rows:
            missing = column_set - row.keys()
            if missing:
                raise QueryError(f"row is missing columns {sorted(missing)}")
            if strict:
                extra = row.keys() - column_set
                if extra:
                    raise QueryError(
                        f"row has extra columns {sorted(extra)}; "
                        f"declared {self.columns}"
                    )
            materialized.append({name: row[name] for name in self.columns})
        fastpath.STATS.rows_copied += len(materialized)
        self.rows: list[Row] = materialized
        self._wide = False
        self._source: tuple[Any, int] | None = None

    @classmethod
    def from_trusted(
        cls,
        columns: Sequence[str],
        rows: list[Row],
        wide: bool = False,
        source: tuple[Any, int] | None = None,
    ) -> "Relation":
        """Wrap already-validated rows without copying them.

        The fast path's constructor: ``rows`` is adopted by reference, so
        callers must hand over a list they will not mutate, of dicts that
        each carry at least the declared ``columns``.  ``wide`` marks
        rows that may carry *more* keys than declared (``keep`` sharing);
        ``source`` links a table snapshot ``(table, generation)`` for
        index-aware joins.
        """
        rel = cls.__new__(cls)
        rel.columns = tuple(columns)
        rel.rows = rows
        rel._wide = wide
        rel._source = source
        fastpath.STATS.rows_shared += len(rows)
        return rel

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.columns}, {len(self.rows)} rows)"

    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Relation":
        return cls(columns, [])

    def key_tuple(self, row: Row, key_columns: Sequence[str]) -> tuple:
        return tuple(row[k] for k in key_columns)

    def _require_columns(self, names: Iterable[str]) -> None:
        unknown = [n for n in names if n not in self.columns]
        if unknown:
            raise QueryError(f"unknown columns {unknown}; have {self.columns}")

    def _guard_expression(self, expr: Expression) -> None:
        """Match naive error behavior on width-shared rows.

        Naive rows physically hold exactly ``columns``, so an expression
        referencing anything else fails at evaluation time (only when
        rows exist).  Fast-path rows may carry extra keys the expression
        could silently read — reject those references up front instead.
        """
        if not self._wide or not self.rows:
            return
        unknown = expr.referenced_columns() - set(self.columns)
        if unknown:
            name = min(unknown)
            raise QueryError(
                f"unknown column {name!r}; row has {sorted(self.columns)}"
            )

    def _narrow_row(self, row: Row) -> Row:
        """One row as an exact-width dict (copy-on-write helper)."""
        return {name: row[name] for name in self.columns}

    # -- operators --------------------------------------------------------------

    def select(self, predicate: Expression | Callable[[Row], Any]) -> "Relation":
        """Selection: keep rows whose predicate evaluates to true.

        NULL (None) predicate results count as *not satisfied*, per SQL.
        """
        if fastpath.is_enabled():
            if isinstance(predicate, Expression):
                self._guard_expression(predicate)
                if vector.should_batch(len(self.rows)):
                    keep = vector.filter_rows(self, predicate)
                    if keep is not None:
                        return Relation.from_trusted(
                            self.columns, keep, wide=self._wide
                        )
                fn = predicate.compile()
                keep = [row for row in self.rows if fn(row) is True]
            else:
                keep = [row for row in self.rows if predicate(row)]
            return Relation.from_trusted(self.columns, keep, wide=self._wide)
        if isinstance(predicate, Expression):
            keep = [row for row in self.rows if predicate.evaluate(row) is True]
        else:
            keep = [row for row in self.rows if predicate(row)]
        return Relation(self.columns, keep)

    def project(
        self,
        mapping: Mapping[str, str | Expression],
    ) -> "Relation":
        """Projection with renaming and computed columns.

        ``mapping`` maps *output* column name to either an input column
        name (pure rename/keep) or an :class:`Expression` (computed).
        This is the "projection … in order to rename the attributes"
        of process types P05–P07 and the schema mappings of P11/P14.
        """
        plain: dict[str, str] = {}
        computed: dict[str, Expression] = {}
        for out_name, source in mapping.items():
            if isinstance(source, Expression):
                computed[out_name] = source
            else:
                plain[out_name] = source
        self._require_columns(plain.values())
        out_columns = tuple(mapping.keys())
        out_rows: list[Row] = []
        if fastpath.is_enabled():
            compiled: list[tuple[str, Callable[[Row], Any]]] = []
            for out_name, expr in computed.items():
                self._guard_expression(expr)
                compiled.append((out_name, expr.compile()))
            plain_items = list(plain.items())
            for row in self.rows:
                new_row: Row = {}
                for out_name, in_name in plain_items:
                    new_row[out_name] = row[in_name]
                for out_name, fn in compiled:
                    new_row[out_name] = fn(row)
                out_rows.append(new_row)
            fastpath.STATS.rows_copied += len(out_rows)
            return Relation.from_trusted(out_columns, out_rows)
        for row in self.rows:
            new_row = {}
            for out_name, in_name in plain.items():
                new_row[out_name] = row[in_name]
            for out_name, expr in computed.items():
                new_row[out_name] = expr.evaluate(row)
            out_rows.append(new_row)
        fastpath.STATS.rows_copied += len(out_rows)
        return Relation(out_columns, out_rows)

    def keep(self, *names: str) -> "Relation":
        """Projection without renaming: keep the named columns."""
        self._require_columns(names)
        if fastpath.is_enabled():
            wide = self._wide or tuple(names) != self.columns
            return Relation.from_trusted(
                names, self.rows, wide=wide, source=self._source
            )
        fastpath.STATS.rows_copied += len(self.rows)
        return Relation(
            names, [{n: row[n] for n in names} for row in self.rows]
        )

    def extend(self, name: str, expr: Expression | Callable[[Row], Any]) -> "Relation":
        """Append one computed column to every row."""
        if name in self.columns:
            raise QueryError(f"column {name!r} already exists")
        rows: list[Row] = []
        if fastpath.is_enabled():
            if isinstance(expr, Expression):
                self._guard_expression(expr)
                fn: Callable[[Row], Any] = expr.compile()
            else:
                fn = expr
            if self._wide:
                for row in self.rows:
                    new_row = self._narrow_row(row)
                    new_row[name] = fn(row)
                    rows.append(new_row)
            else:
                for row in self.rows:
                    new_row = dict(row)
                    new_row[name] = fn(row)
                    rows.append(new_row)
            fastpath.STATS.rows_copied += len(rows)
            return Relation.from_trusted(self.columns + (name,), rows)
        for row in self.rows:
            value = expr.evaluate(row) if isinstance(expr, Expression) else expr(row)
            new_row = dict(row)
            new_row[name] = value
            rows.append(new_row)
        fastpath.STATS.rows_copied += len(rows)
        return Relation(self.columns + (name,), rows)

    def distinct(self, key_columns: Sequence[str] | None = None) -> "Relation":
        """Remove duplicates; with ``key_columns``, the *first* row per key wins.

        The key-based form implements the UNION DISTINCT semantics of P03
        and P09, where rows from several sources are merged "concerning the
        Orderkey, Custkey and Productkey".
        """
        keys = tuple(key_columns) if key_columns else self.columns
        self._require_columns(keys)
        seen: set[tuple] = set()
        out: list[Row] = []
        for row in self.rows:
            key = tuple(row[k] for k in keys)
            if key not in seen:
                seen.add(key)
                out.append(row)
        if fastpath.is_enabled():
            source = self._source if len(out) == len(self.rows) else None
            return Relation.from_trusted(
                self.columns, out, wide=self._wide, source=source
            )
        return Relation(self.columns, out)

    def union_all(self, other: "Relation") -> "Relation":
        """Bag union; both inputs must have identical column tuples."""
        if self.columns != other.columns:
            raise QueryError(
                f"union over different schemas: {self.columns} vs {other.columns}"
            )
        if fastpath.is_enabled():
            return Relation.from_trusted(
                self.columns,
                self.rows + other.rows,
                wide=self._wide or other._wide,
            )
        return Relation(self.columns, self.rows + other.rows)

    def union_distinct(
        self, other: "Relation", key_columns: Sequence[str] | None = None
    ) -> "Relation":
        """UNION DISTINCT, optionally keyed (first occurrence wins)."""
        return self.union_all(other).distinct(key_columns)

    def join(
        self,
        other: "Relation",
        on: Sequence[tuple[str, str]],
        how: str = "inner",
        suffix: str = "_r",
    ) -> "Relation":
        """Hash join on equality of column pairs ``(left_col, right_col)``.

        ``how`` is ``inner`` or ``left``.  Right-side columns that collide
        with left-side names get ``suffix`` appended (join keys from the
        right are dropped since they equal the left's).

        On the fast path, a right side still backed by an unmodified
        table snapshot (``Table.to_relation``, optionally narrowed with
        ``keep``/``distinct``) is joined by probing the table's existing
        pk/secondary index covering the right key columns — no per-call
        hash index, same output.
        """
        if how not in ("inner", "left"):
            raise QueryError(f"unsupported join type: {how!r}")
        if not on:
            raise QueryError("join needs at least one key pair")
        left_keys = [pair[0] for pair in on]
        right_keys = [pair[1] for pair in on]
        self._require_columns(left_keys)
        other._require_columns(right_keys)

        right_key_set = set(right_keys)
        rename: dict[str, str] = {}
        for name in other.columns:
            if name in right_key_set:
                continue
            rename[name] = name + suffix if name in self.columns else name

        out_columns = self.columns + tuple(rename.values())
        fast = fastpath.is_enabled()

        probe: Callable[[tuple], Sequence[int]] | None = None
        if fast and other._source is not None:
            table, generation = other._source
            if table._generation == generation:
                probe = table._probe_for(tuple(right_keys))

        if probe is None:
            if (
                fast
                and not self._wide
                and vector.should_batch(len(self.rows) + len(other.rows))
            ):
                batched = vector.join_rows(
                    self, other, left_keys, right_keys, rename, how
                )
                if batched is not None:
                    fastpath.STATS.rows_copied += len(batched)
                    return Relation.from_trusted(out_columns, batched)
            if fast:
                fastpath.STATS.hash_joins += 1
            index: dict[tuple, list[Row]] = {}
            for row in other.rows:
                key = tuple(row[k] for k in right_keys)
                if any(part is None for part in key):
                    continue  # NULL never joins
                index.setdefault(key, []).append(row)
            lookup = index.get
        else:
            fastpath.STATS.index_joins += 1
            right_rows = other.rows

            def lookup(key: tuple, default: Any = None) -> list[Row] | None:
                positions = probe(key)
                if not positions:
                    return default
                return [right_rows[p] for p in positions]

        out_rows: list[Row] = []
        null_right = {out: None for out in rename.values()}
        narrow_left = fast and self._wide
        for row in self.rows:
            key = tuple(row[k] for k in left_keys)
            matches = [] if any(part is None for part in key) else lookup(key, [])
            if matches:
                for match in matches:
                    combined = self._narrow_row(row) if narrow_left else dict(row)
                    for in_name, out_name in rename.items():
                        combined[out_name] = match[in_name]
                    out_rows.append(combined)
            elif how == "left":
                combined = self._narrow_row(row) if narrow_left else dict(row)
                combined.update(null_right)
                out_rows.append(combined)
        fastpath.STATS.rows_copied += len(out_rows)
        if fast:
            return Relation.from_trusted(out_columns, out_rows)
        return Relation(out_columns, out_rows)

    def group_by(
        self,
        key_columns: Sequence[str],
        aggregates: Mapping[str, tuple[str, str | None]],
    ) -> "Relation":
        """Grouping with aggregates.

        ``aggregates`` maps output name to ``(function, input_column)``
        where function is COUNT / SUM / MIN / MAX / AVG; COUNT may take
        None as input column meaning COUNT(*).
        """
        keys = tuple(key_columns)
        self._require_columns(keys)
        for fn_name, in_col in aggregates.values():
            if fn_name.upper() not in _AGGREGATES:
                raise QueryError(f"unknown aggregate {fn_name!r}")
            if in_col is not None:
                self._require_columns([in_col])

        if fastpath.is_enabled():
            if vector.should_batch(len(self.rows)):
                batched = vector.group_rows(self, keys, aggregates)
                if batched is not None:
                    out_columns, out_rows = batched
                    fastpath.STATS.rows_copied += len(out_rows)
                    return Relation.from_trusted(out_columns, out_rows)
            return self._group_by_fast(keys, aggregates)

        groups: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        for row in self.rows:
            key = self.key_tuple(row, keys)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)

        out_columns = keys + tuple(aggregates.keys())
        out_rows: list[Row] = []
        for key in order:
            members = groups[key]
            out_row: Row = dict(zip(keys, key))
            for out_name, (fn_name, in_col) in aggregates.items():
                fn = fn_name.upper()
                if fn == "COUNT":
                    if in_col is None:
                        out_row[out_name] = len(members)
                    else:
                        out_row[out_name] = sum(
                            1 for m in members if m[in_col] is not None
                        )
                    continue
                values = [m[in_col] for m in members if m[in_col] is not None]
                if not values:
                    out_row[out_name] = None
                elif fn == "SUM":
                    out_row[out_name] = sum(values)
                elif fn == "MIN":
                    out_row[out_name] = min(values)
                elif fn == "MAX":
                    out_row[out_name] = max(values)
                else:  # AVG
                    out_row[out_name] = sum(values) / len(values)
            out_rows.append(out_row)
        fastpath.STATS.rows_copied += len(out_rows)
        return Relation(out_columns, out_rows)

    def _group_by_fast(
        self,
        keys: tuple[str, ...],
        aggregates: Mapping[str, tuple[str, str | None]],
    ) -> "Relation":
        """Single-pass grouping with running accumulators.

        Equivalent to the naive member-list implementation because every
        aggregate is a left fold over members in first-appearance order:
        ``sum`` starts at 0 exactly like :func:`sum`, ``min``/``max``
        keep the earlier value on ties exactly like their builtin
        sequence forms, and AVG divides the same sum by the same count.
        """
        specs = [
            (out_name, fn_name.upper(), in_col)
            for out_name, (fn_name, in_col) in aggregates.items()
        ]
        n_aggs = len(specs)

        # One updater closure per aggregate: the per-row loop then
        # dispatches straight into the right arithmetic instead of
        # re-branching on the aggregate kind for every row.
        def make_updater(fn: str, in_col: str | None):
            if fn == "COUNT" and in_col is None:
                def update(acc: list, row: Row) -> None:
                    acc[0] += 1
            elif fn == "COUNT":
                def update(acc: list, row: Row) -> None:
                    if row[in_col] is not None:
                        acc[0] += 1
            elif fn in ("SUM", "AVG"):
                def update(acc: list, row: Row) -> None:
                    value = row[in_col]
                    if value is not None:
                        acc[1] = acc[1] + value
                        acc[0] += 1
            elif fn == "MIN":
                def update(acc: list, row: Row) -> None:
                    value = row[in_col]
                    if value is not None:
                        if acc[0]:
                            acc[1] = min(acc[1], value)
                        else:
                            acc[1] = value
                        acc[0] += 1
            else:  # MAX
                def update(acc: list, row: Row) -> None:
                    value = row[in_col]
                    if value is not None:
                        if acc[0]:
                            acc[1] = max(acc[1], value)
                        else:
                            acc[1] = value
                        acc[0] += 1
            return update

        updaters = [make_updater(fn, in_col) for _, fn, in_col in specs]
        if len(keys) == 1:
            only_key = keys[0]
            key_of = lambda row: (row[only_key],)  # noqa: E731
        else:
            key_of = lambda row: tuple(row[k] for k in keys)  # noqa: E731

        # Accumulator per aggregate: [count, value] — count of non-NULL
        # inputs (rows for COUNT(*)), value the running SUM/MIN/MAX/sum.
        groups: dict[tuple, list[list[Any]]] = {}
        order: list[tuple] = []
        for row in self.rows:
            key = key_of(row)
            accs = groups.get(key)
            if accs is None:
                accs = groups[key] = [[0, 0] for _ in range(n_aggs)]
                order.append(key)
            for i in range(n_aggs):
                updaters[i](accs[i], row)

        out_columns = keys + tuple(aggregates.keys())
        out_rows: list[Row] = []
        for key in order:
            accs = groups[key]
            out_row: Row = dict(zip(keys, key))
            for i, (out_name, fn, _) in enumerate(specs):
                count, value = accs[i]
                if fn == "COUNT":
                    out_row[out_name] = count
                elif count == 0:
                    out_row[out_name] = None
                elif fn == "AVG":
                    out_row[out_name] = value / count
                else:
                    out_row[out_name] = value
            out_rows.append(out_row)
        fastpath.STATS.rows_copied += len(out_rows)
        return Relation.from_trusted(out_columns, out_rows)

    def order_by(
        self, key_columns: Sequence[str], descending: bool = False
    ) -> "Relation":
        """Stable sort by the given columns (NULLs sort first).

        NULLs sort first in both directions, and equal keys keep their
        input order — DESC is implemented by inverting each key
        component rather than ``reverse=True``, which would violate both
        guarantees.
        """
        keys = tuple(key_columns)
        self._require_columns(keys)

        if descending:

            def sort_key(row: Row) -> tuple:
                return tuple(
                    (row[k] is not None, _Desc(row[k])) for k in keys
                )

        else:

            def sort_key(row: Row) -> tuple:
                return tuple((row[k] is not None, row[k]) for k in keys)

        ordered = sorted(self.rows, key=sort_key)
        if fastpath.is_enabled():
            return Relation.from_trusted(self.columns, ordered, wide=self._wide)
        return Relation(self.columns, ordered)

    def limit(self, n: int) -> "Relation":
        if n < 0:
            raise QueryError(f"limit must be >= 0, got {n}")
        if fastpath.is_enabled():
            return Relation.from_trusted(
                self.columns, self.rows[:n], wide=self._wide
            )
        return Relation(self.columns, self.rows[:n])

    # -- conversion helpers -----------------------------------------------------

    def to_dicts(self) -> list[Row]:
        """Deep-enough copy of all rows as plain dicts.

        Always projects through the declared columns, so width-shared
        fast-path rows never leak extra keys across this boundary.
        """
        columns = self.columns
        fastpath.STATS.rows_copied += len(self.rows)
        return [{name: row[name] for name in columns} for row in self.rows]

    def iter_narrow(self) -> Iterator[Row]:
        """Iterate rows guaranteed to hold exactly the declared columns.

        Zero-cost pass-through for exact-width relations; width-shared
        rows are projected on the fly.  Import boundaries that feed rows
        into schema-validating sinks (``Table.insert``/``upsert``) use
        this instead of ``rows`` so sharing stays invisible.
        """
        if not self._wide:
            return iter(self.rows)
        columns = self.columns
        fastpath.STATS.rows_copied += len(self.rows)
        return (
            {name: row[name] for name in columns} for row in self.rows
        )

    def column_values(self, name: str) -> list[Any]:
        self._require_columns([name])
        return [row[name] for row in self.rows]

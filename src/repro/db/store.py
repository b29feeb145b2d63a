"""A small in-memory relational store backing environmental constraints.

Several of the paper's environmental constraints are "ascertained by
database lookup at some service" (Sect. 2): group membership, a doctor
having a patient registered under their care, patient-specified exclusions
("Fred Smith may not access my health record").  This module supplies the
store those constraints query — named tables of named-column rows with
equality lookups, secondary indexes, and change notification hooks so
membership-rule monitoring can react when a fact is retracted.

Lookups are *self-indexing*: the first ``select`` filtering on an
un-indexed column builds a hash index for that column (one O(n) pass),
after which every equality lookup on it is an O(1) bucket probe instead of
a full scan.  Constraint evaluation repeats the same lookup shapes
millions of times in a scale world, so the column set worth indexing is
exactly the set that gets queried — no schema declaration needed.

A ``Database`` is a memory view, not a durable store: a service built
with a record store mirrors every row of its attached databases into that
store (``facts/<db>/<table>`` buckets, see :mod:`repro.core.state`), and
at a restart the stored rows replace whatever the caller seeded.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = ["Row", "Table", "Database"]

Row = Mapping[str, Any]
ChangeListener = Callable[[str, str, List[Row]], None]  # (table, op, rows)


def _freeze(row: Row, columns: Tuple[str, ...]) -> Tuple[Any, ...]:
    return tuple(row[col] for col in columns)


class Table:
    """A table with a fixed column set and hash indexes.

    Rows are dictionaries keyed by column name; all columns are required on
    insert.  Duplicate rows are rejected — facts are set-valued, matching
    the logical reading constraints give them.
    """

    __slots__ = ("name", "columns", "_positions", "_rows", "_indexes")

    def __init__(self, name: str, columns: Iterable[str]) -> None:
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        if not self.columns:
            raise ValueError("table needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")
        # column -> tuple position, computed once (the per-row
        # ``columns.index`` calls were an O(width) tax on every insert).
        self._positions: Dict[str, int] = {
            column: position for position, column in enumerate(self.columns)}
        self._rows: Set[Tuple[Any, ...]] = set()
        self._indexes: Dict[str, Dict[Any, Set[Tuple[Any, ...]]]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for values in self._rows:
            yield dict(zip(self.columns, values))

    def create_index(self, column: str) -> None:
        if column not in self._positions:
            raise KeyError(f"no column {column!r} in table {self.name}")
        if column in self._indexes:
            return
        index: Dict[Any, Set[Tuple[Any, ...]]] = {}
        position = self._positions[column]
        for values in self._rows:
            index.setdefault(values[position], set()).add(values)
        self._indexes[column] = index

    def indexed_columns(self) -> List[str]:
        return sorted(self._indexes)

    def _check_row(self, row: Row) -> Tuple[Any, ...]:
        missing = set(self.columns) - set(row)
        extra = set(row) - set(self.columns)
        if missing or extra:
            raise ValueError(
                f"row does not match columns of {self.name}: "
                f"missing={sorted(missing)} extra={sorted(extra)}")
        return _freeze(row, self.columns)

    def _index_add(self, values: Tuple[Any, ...]) -> None:
        for column, index in self._indexes.items():
            position = self._positions[column]
            index.setdefault(values[position], set()).add(values)

    def insert(self, row: Row) -> bool:
        """Insert a row; returns False when the identical row exists."""
        values = self._check_row(row)
        if values in self._rows:
            return False
        self._rows.add(values)
        if self._indexes:
            self._index_add(values)
        return True

    def insert_many(self, rows: Iterable[Row]) -> List[Row]:
        """Insert a batch; returns the rows that were actually new.

        Column validation is hoisted out of the loop (one schema check per
        batch shape, not per row), which with index maintenance inlined
        makes bulk population of a scale world's fact tables cheap.
        """
        inserted: List[Row] = []
        columns = self.columns
        live = self._rows
        check = self._check_row
        validated_shape: Optional[frozenset] = None
        for row in rows:
            shape = frozenset(row)
            if shape == validated_shape:
                values = _freeze(row, columns)
            else:
                values = check(row)
                validated_shape = shape
            if values in live:
                continue
            live.add(values)
            if self._indexes:
                self._index_add(values)
            inserted.append(row)
        return inserted

    def delete(self, **criteria: Any) -> int:
        """Delete rows matching all equality criteria; returns count."""
        victims = [_freeze(row, self.columns)
                   for row in self.select(**criteria)]
        for values in victims:
            self._rows.discard(values)
            for column, index in self._indexes.items():
                position = self._positions[column]
                bucket = index.get(values[position])
                if bucket:
                    bucket.discard(values)
                    if not bucket:
                        del index[values[position]]
        return len(victims)

    def select(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows matching all equality criteria (empty criteria = all rows).

        Every criteria column is (auto-)indexed, so the candidate pool is
        the intersection of hash buckets; a full scan happens only for the
        unfiltered ``select()``.
        """
        for key in criteria:
            if key not in self._positions:
                raise KeyError(f"no column {key!r} in table {self.name}")
        candidates: Optional[Set[Tuple[Any, ...]]] = None
        remaining = dict(criteria)
        for column in list(remaining):
            if column not in self._indexes:
                # Self-indexing: a column queried once will be queried
                # again — pay one O(n) pass now, probe in O(1) forever.
                self.create_index(column)
            bucket = self._indexes[column].get(remaining.pop(column), set())
            candidates = bucket if candidates is None \
                else candidates & bucket
        pool: Iterable[Tuple[Any, ...]] = (
            self._rows if candidates is None else candidates)
        results = []
        for values in pool:
            row = dict(zip(self.columns, values))
            if all(row[col] == want for col, want in remaining.items()):
                results.append(row)
        return results

    def exists(self, **criteria: Any) -> bool:
        return bool(self.select(**criteria))

    def replace(self, rows: Iterable[Row]) -> None:
        """Swap the whole row set for ``rows``; built indexes follow."""
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        self.insert_many(rows)


class Database:
    """A named collection of tables with change notification.

    Listeners receive ``(table_name, op, rows)`` once per mutation call,
    where ``op`` is ``"insert"`` or ``"delete"`` and ``rows`` lists every
    row the call actually added or removed (a no-op call notifies nobody).
    The OASIS service subscribes to mirror the change into its record
    store and so that retracting a fact (e.g. a doctor-patient
    registration) can deactivate roles whose membership rule depends on
    it.
    """

    __slots__ = ("name", "_tables", "_listeners")

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._listeners: List[ChangeListener] = []

    def create_table(self, name: str, columns: Iterable[str]) -> Table:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no table {name!r} in database {self.name}") from None

    @property
    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def add_listener(self, listener: ChangeListener) -> Callable[[], None]:
        """Register a change listener; returns an unsubscribe function."""
        self._listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._listeners:
                self._listeners.remove(listener)

        return unsubscribe

    def _notify(self, table_name: str, op: str, rows: List[Row]) -> None:
        if rows:
            for listener in list(self._listeners):
                listener(table_name, op, rows)

    def insert(self, table_name: str, **row: Any) -> bool:
        inserted = self.table(table_name).insert(row)
        if inserted:
            self._notify(table_name, "insert", [row])
        return inserted

    def put_many(self, table_name: str, rows: Sequence[Row]) -> int:
        """Bulk insert; returns the number of rows actually inserted.

        The table-level batch path amortizes schema checks, and listeners
        see the whole batch of *new* rows, in input order, in one call.
        """
        inserted = self.table(table_name).insert_many(rows)
        self._notify(table_name, "insert", inserted)
        return len(inserted)

    def delete(self, table_name: str, **criteria: Any) -> int:
        table = self.table(table_name)
        victims = table.select(**criteria)
        table.delete(**criteria)
        self._notify(table_name, "delete", victims)
        return len(victims)

    def select(self, table_name: str, **criteria: Any) -> List[Dict[str, Any]]:
        return self.table(table_name).select(**criteria)

    def exists(self, table_name: str, **criteria: Any) -> bool:
        return self.table(table_name).exists(**criteria)

"""Tests for the in-memory relational store."""

import pytest

from repro.db import Database, Table


class TestTable:
    def test_insert_and_select(self):
        table = Table("t", ["a", "b"])
        assert table.insert({"a": 1, "b": 2})
        assert table.select(a=1) == [{"a": 1, "b": 2}]

    def test_duplicate_insert_returns_false(self):
        table = Table("t", ["a"])
        assert table.insert({"a": 1})
        assert not table.insert({"a": 1})
        assert len(table) == 1

    def test_row_shape_enforced(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.insert({"a": 1})
        with pytest.raises(ValueError):
            table.insert({"a": 1, "b": 2, "c": 3})

    def test_select_multiple_criteria(self):
        table = Table("t", ["a", "b"])
        table.insert({"a": 1, "b": 1})
        table.insert({"a": 1, "b": 2})
        assert table.select(a=1, b=2) == [{"a": 1, "b": 2}]

    def test_select_all(self):
        table = Table("t", ["a"])
        table.insert({"a": 1})
        table.insert({"a": 2})
        assert len(table.select()) == 2

    def test_select_unknown_column(self):
        table = Table("t", ["a"])
        with pytest.raises(KeyError):
            table.select(z=1)

    def test_delete_returns_count(self):
        table = Table("t", ["a", "b"])
        table.insert({"a": 1, "b": 1})
        table.insert({"a": 1, "b": 2})
        table.insert({"a": 2, "b": 3})
        assert table.delete(a=1) == 2
        assert len(table) == 1

    def test_exists(self):
        table = Table("t", ["a"])
        table.insert({"a": 1})
        assert table.exists(a=1)
        assert not table.exists(a=2)

    def test_indexed_select_matches_scan(self):
        table = Table("t", ["a", "b"])
        for a in range(10):
            for b in range(10):
                table.insert({"a": a, "b": b})
        expected = sorted(map(tuple, (r.items() for r in table.select(a=3))))
        table.create_index("a")
        actual = sorted(map(tuple, (r.items() for r in table.select(a=3))))
        assert actual == expected

    def test_index_maintained_across_mutations(self):
        table = Table("t", ["a", "b"])
        table.create_index("a")
        table.insert({"a": 1, "b": 1})
        table.insert({"a": 1, "b": 2})
        table.delete(a=1, b=1)
        assert table.select(a=1) == [{"a": 1, "b": 2}]

    def test_index_on_unknown_column(self):
        with pytest.raises(KeyError):
            Table("t", ["a"]).create_index("z")

    def test_duplicate_index_creation_is_noop(self):
        table = Table("t", ["a"])
        table.create_index("a")
        table.insert({"a": 1})
        table.create_index("a")  # must not lose or duplicate entries
        assert table.select(a=1) == [{"a": 1}]

    def test_two_indexed_criteria_intersect(self):
        table = Table("t", ["a", "b", "c"])
        table.create_index("a")
        table.create_index("b")
        for a in range(4):
            for b in range(4):
                table.insert({"a": a, "b": b, "c": a * b})
        assert table.select(a=2, b=3) == [{"a": 2, "b": 3, "c": 6}]
        assert table.select(a=2, b=3, c=6) == [{"a": 2, "b": 3, "c": 6}]
        assert table.select(a=2, b=3, c=999) == []

    def test_indexed_miss_returns_empty(self):
        table = Table("t", ["a"])
        table.create_index("a")
        table.insert({"a": 1})
        assert table.select(a=42) == []

    def test_iteration(self):
        table = Table("t", ["a"])
        table.insert({"a": 1})
        assert list(table) == [{"a": 1}]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", ["a", "a"])

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table("t", [])


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table("t", ["a"])
        assert db.table_names == ["t"]
        assert db.table("t").columns == ("a",)

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("t", ["a"])
        with pytest.raises(ValueError):
            db.create_table("t", ["a"])

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            Database().table("ghost")

    def test_insert_select_delete_via_database(self):
        db = Database()
        db.create_table("t", ["a"])
        assert db.insert("t", a=1)
        assert db.exists("t", a=1)
        assert db.select("t", a=1) == [{"a": 1}]
        assert db.delete("t", a=1) == 1

    def test_listeners_see_inserts_and_deletes(self):
        db = Database()
        db.create_table("t", ["a"])
        log = []
        db.add_listener(lambda table, op, rows: log.append((table, op, rows)))
        db.insert("t", a=1)
        db.delete("t", a=1)
        assert log == [("t", "insert", [{"a": 1}]),
                       ("t", "delete", [{"a": 1}])]

    def test_duplicate_insert_does_not_notify(self):
        db = Database()
        db.create_table("t", ["a"])
        log = []
        db.insert("t", a=1)
        db.add_listener(lambda *args: log.append(args))
        db.insert("t", a=1)
        assert log == []

    def test_delete_notifies_per_row(self):
        db = Database()
        db.create_table("t", ["a", "b"])
        db.insert("t", a=1, b=1)
        db.insert("t", a=1, b=2)
        log = []
        db.add_listener(lambda *args: log.append(args))
        assert db.delete("t", a=1) == 2
        # One call per delete, naming every removed row.
        [(table, op, rows)] = log
        assert (table, op) == ("t", "delete")
        assert sorted(row["b"] for row in rows) == [1, 2]

    def test_unsubscribe(self):
        db = Database()
        db.create_table("t", ["a"])
        log = []
        unsubscribe = db.add_listener(lambda *args: log.append(args))
        unsubscribe()
        db.insert("t", a=1)
        assert log == []

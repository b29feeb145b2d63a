"""Self-indexing select and bulk insertion for the fact store.

The seed store answered every ``select`` with a full O(n) scan, which at
scale turned each credential validation into a walk over the whole table.
``Table.select`` now auto-indexes every queried column (one O(n) pass the
first time, O(1) hash probes after).  These tests pin the cost down as the
*size of the candidate bucket* a lookup scans, not wall-clock guesses.
"""

import pytest

from repro.db import Database
from repro.db.store import Table

N_ROWS = 500


def bucket(table, column, value):
    """The candidate rows an equality lookup on ``column`` scans."""
    return table._indexes[column].get(value, set())


def fill(table, count=N_ROWS):
    table.insert_many([
        {"user": f"u{index}", "group": f"g{index % 10}"}
        for index in range(count)])


@pytest.fixture
def table():
    table = Table("membership", ("user", "group"))
    fill(table)
    return table


class TestSelfIndexing:
    def test_first_select_builds_index_once(self, table):
        assert table.indexed_columns() == []
        table.select(group="g3")
        assert table.indexed_columns() == ["group"]
        index = table._indexes["group"]
        table.select(group="g7")
        assert table._indexes["group"] is index  # built once, reused

    def test_indexed_select_scans_only_the_bucket(self, table):
        rows = table.select(group="g3")
        assert len(rows) == N_ROWS // 10
        # The candidate pool is exactly the bucket, not the table.
        assert len(bucket(table, "group", "g3")) == N_ROWS // 10

    def test_point_lookup_scans_one_row(self, table):
        assert table.select(user="u42") == [{"user": "u42", "group": "g2"}]
        assert len(bucket(table, "user", "u42")) == 1

    def test_multi_column_criteria_intersect_buckets(self, table):
        rows = table.select(user="u42", group="g2")
        assert rows == [{"user": "u42", "group": "g2"}]
        assert set(table.indexed_columns()) == {"user", "group"}
        assert table.select(user="u42", group="g9") == []
        # Disjoint buckets: the intersection leaves nothing to scan.
        assert not bucket(table, "user", "u42") & bucket(table, "group", "g9")

    def test_unfiltered_select_still_full_scan(self, table):
        assert len(table.select()) == N_ROWS
        assert table.indexed_columns() == []  # no criteria, no index

    def test_unknown_column_raises(self, table):
        with pytest.raises(KeyError):
            table.select(nope="x")

    def test_index_maintained_across_mutation(self, table):
        table.select(group="g3")
        table.insert({"user": "extra", "group": "g3"})
        assert len(table.select(group="g3")) == N_ROWS // 10 + 1
        table.delete(user="extra")
        assert len(table.select(group="g3")) == N_ROWS // 10


class TestInsertMany:
    def test_returns_only_new_rows(self):
        table = Table("t", ("user", "group"))
        table.insert({"user": "u0", "group": "g0"})
        inserted = table.insert_many([
            {"user": "u0", "group": "g0"},  # duplicate
            {"user": "u1", "group": "g1"},
            {"user": "u1", "group": "g1"},  # duplicate within batch
            {"user": "u2", "group": "g2"},
        ])
        assert inserted == [{"user": "u1", "group": "g1"},
                            {"user": "u2", "group": "g2"}]
        assert len(table) == 3

    def test_maintains_existing_indexes(self, table):
        table.select(group="g3")
        table.insert_many([{"user": f"n{index}", "group": "g3"}
                           for index in range(5)])
        assert len(table.select(group="g3")) == N_ROWS // 10 + 5
        assert len(bucket(table, "group", "g3")) == N_ROWS // 10 + 5

    def test_validates_each_new_shape(self):
        table = Table("t", ("user", "group"))
        with pytest.raises(ValueError):
            table.insert_many([{"user": "u0", "group": "g0"},
                               {"user": "u1"}])  # missing column
        # Rows before the bad one landed; the batch stops at the error.
        assert len(table) == 1


class TestPutMany:
    def test_notifies_per_new_row_in_order(self):
        """One notification carries every new row, in input order."""
        db = Database()
        db.create_table("membership", ("user", "group"))
        db.insert("membership", user="u0", group="g0")
        seen = []
        db.add_listener(lambda table, op, row: seen.append((table, op, row)))
        count = db.put_many("membership", [
            {"user": "u0", "group": "g0"},  # pre-existing: no notification
            {"user": "u1", "group": "g1"},
            {"user": "u2", "group": "g2"},
        ])
        assert count == 2
        assert seen == [("membership", "insert", [
            {"user": "u1", "group": "g1"},
            {"user": "u2", "group": "g2"},
        ])]

    def test_matches_insert_loop_semantics(self):
        rows = [{"user": f"u{index}", "group": f"g{index % 3}"}
                for index in range(20)]
        bulk_db, loop_db = Database(), Database()
        events = {"bulk": [], "loop": []}
        for name, db in (("bulk", bulk_db), ("loop", loop_db)):
            db.create_table("membership", ("user", "group"))
            db.add_listener(
                lambda table, op, batch, name=name:
                events[name].extend((table, op, row) for row in batch))
        assert bulk_db.put_many("membership", rows) == len(rows)
        assert sum(loop_db.insert("membership", **row)
                   for row in rows) == len(rows)
        assert events["bulk"] == events["loop"]
        assert bulk_db.select("membership", group="g1") == \
            loop_db.select("membership", group="g1")

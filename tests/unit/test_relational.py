"""Unit tests for the mini relational engine."""

import pytest

from repro.relational import (
    Attribute,
    Database,
    IntegrityError,
    RelationSchema,
    SchemaError,
    Selection,
    Table,
    project,
    select,
)


def employee_schema():
    return RelationSchema(
        "employee", ["first_name", "last_name", "title", "reports_to"]
    )


class TestSchema:
    def test_attribute_types(self):
        assert Attribute("year", "integer").admits(3)
        assert not Attribute("year", "integer").admits("3")
        assert Attribute("year", "integer").admits(None)  # NULL fits

    def test_boolean_strictness(self):
        assert not Attribute("year", "integer").admits(True)
        assert Attribute("flag", "boolean").admits(True)

    def test_bad_attribute_name(self):
        with pytest.raises(SchemaError):
            Attribute("first name")

    def test_bad_attribute_type(self):
        with pytest.raises(SchemaError):
            Attribute("x", "varchar")

    def test_schema_positions(self):
        schema = employee_schema()
        assert schema.position("last_name") == 1
        assert schema.arity == 4
        with pytest.raises(SchemaError):
            schema.position("ghost")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            RelationSchema("r", ["a", "a"])

    def test_key_must_exist(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ["a"], key=["b"])

    def test_validate_tuple(self):
        schema = RelationSchema("r", [Attribute("n", "integer")])
        schema.validate_tuple((3,))
        with pytest.raises(SchemaError):
            schema.validate_tuple(("x",))
        with pytest.raises(SchemaError, match="arity"):
            schema.validate_tuple((1, 2))

    def test_with_and_without_attribute(self):
        schema = RelationSchema("r", ["a"])
        grown = schema.with_attribute("b")
        assert grown.attribute_names == ("a", "b")
        shrunk = grown.without_attribute("a")
        assert shrunk.attribute_names == ("b",)


class TestTable:
    def test_insert_positional_and_named(self):
        table = Table(RelationSchema("r", ["a", "b"]))
        table.insert("x", "y")
        table.insert(b="q", a="p")
        assert table.rows() == [("x", "y"), ("p", "q")]

    def test_insert_mixed_rejected(self):
        table = Table(RelationSchema("r", ["a", "b"]))
        with pytest.raises(SchemaError):
            table.insert("x", b="y")

    def test_key_uniqueness(self):
        table = Table(RelationSchema("r", ["a", "b"], key=["a"]))
        table.insert("k", "v1")
        with pytest.raises(IntegrityError):
            table.insert("k", "v2")

    def test_row_dicts(self):
        table = Table(RelationSchema("r", ["a"]))
        table.insert("x")
        assert list(table.row_dicts()) == [{"a": "x"}]

    def test_delete_where(self):
        table = Table(RelationSchema("r", [Attribute("n", "integer")]))
        table.insert_many([(1,), (2,), (3,)])
        removed = table.delete_where(lambda row: row["n"] > 1)
        assert removed == 2
        assert table.rows() == [(1,)]

    def test_add_attribute_pads_existing(self):
        table = Table(RelationSchema("r", ["a"]))
        table.insert("x")
        table.add_attribute("birthday")
        assert table.rows() == [("x", None)]
        table.insert("y", "1970-01-01")
        assert len(table) == 2

    def test_add_attribute_bad_default(self):
        table = Table(RelationSchema("r", ["a"]))
        table.insert("x")
        with pytest.raises(SchemaError):
            table.add_attribute(Attribute("n", "integer"), default="zero")
        # a rejected default leaves the table as it was
        assert table.schema.attribute_names == ("a",)
        assert table.rows() == [("x",)]
        assert table.version == 1

    def test_drop_attribute(self):
        table = Table(RelationSchema("r", ["a", "b"]))
        table.insert("x", "y")
        table.drop_attribute("a")
        assert table.schema.attribute_names == ("b",)
        assert table.rows() == [("y",)]


class TestQueries:
    @pytest.fixture
    def table(self):
        t = Table(
            RelationSchema(
                "student",
                ["first_name", "last_name", Attribute("year", "integer")],
            )
        )
        t.insert_many(
            [("Nick", "Naive", 3), ("Amy", "Ace", 1), ("Bo", "Best", 3)]
        )
        return t

    def test_select_equality(self, table):
        rows = list(select(table, [Selection("year", "=", 3)]))
        assert len(rows) == 2

    def test_select_conjunction(self, table):
        rows = list(
            select(
                table,
                [Selection("year", "=", 3), Selection("first_name", "=", "Bo")],
            )
        )
        assert rows == [("Bo", "Best", 3)]

    def test_select_ordering_ops(self, table):
        assert len(list(select(table, [Selection("year", ">", 1)]))) == 2
        assert len(list(select(table, [Selection("year", "<=", 3)]))) == 3

    def test_select_type_mismatch_empty(self, table):
        assert list(select(table, [Selection("year", ">", "one")])) == []

    def test_null_never_compares(self):
        t = Table(RelationSchema("r", [Attribute("n", "integer")]))
        t.insert(None)
        assert list(select(t, [Selection("n", ">", 0)])) == []
        assert list(select(t, [Selection("n", "=", None)])) == [(None,)]

    def test_unknown_operator(self):
        with pytest.raises(SchemaError):
            Selection("a", "~", 1)

    def test_project(self, table):
        rows = list(project(table, ["last_name"]))
        assert rows == [("Naive",), ("Ace",), ("Best",)]

    def test_project_selected_rows(self, table):
        selected = select(table, [Selection("year", "=", 3)])
        rows = list(project(table, ["first_name"], selected))
        assert rows == [("Nick",), ("Bo",)]


class TestDatabase:
    def test_catalog(self):
        db = Database("cs")
        db.create_table(employee_schema())
        assert db.has_table("employee")
        assert db.table_names() == ["employee"]
        with pytest.raises(SchemaError, match="already exists"):
            db.create_table(employee_schema())

    def test_missing_table(self):
        with pytest.raises(SchemaError, match="no table"):
            Database("cs").table("ghost")

    def test_drop_table(self):
        db = Database("cs")
        db.create_table(employee_schema())
        db.drop_table("employee")
        assert not db.has_table("employee")
        with pytest.raises(SchemaError):
            db.drop_table("employee")

    def test_load(self):
        db = Database("cs")
        db.create_table(RelationSchema("r", ["a"]))
        assert db.load("r", [("x",), ("y",)]) == 2
        assert len(db.table("r")) == 2

"""Unit tests for structural comparison, duplicate elimination and the
answer tail."""

import re
from pathlib import Path

import repro
from repro.oem import (
    OEMObject,
    SemanticOid,
    atom,
    eliminate_duplicates,
    is_subobject_set,
    obj,
    structural_hash,
    structural_key,
    structurally_equal,
)
from repro.oem.compare import finish


class TestStructuralKey:
    def test_atom_key_components(self):
        assert structural_key(atom("year", 3)) == ("year", "integer", 3)

    def test_set_key_order_insensitive(self):
        a = obj("p", atom("a", 1), atom("b", 2))
        b = obj("p", atom("b", 2), atom("a", 1))
        assert structural_key(a) == structural_key(b)

    def test_duplicate_members_collapse_in_key(self):
        once = obj("p", atom("a", 1))
        twice = obj("p", atom("a", 1), atom("a", 1))
        assert structural_key(once) == structural_key(twice)

    def test_nested_difference_detected(self):
        a = obj("p", obj("q", atom("a", 1)))
        b = obj("p", obj("q", atom("a", 2)))
        assert structural_key(a) != structural_key(b)


class TestStructurallyEqual:
    def test_same_object(self):
        o = atom("a", 1)
        assert structurally_equal(o, o)

    def test_label_type_value(self):
        assert structurally_equal(atom("a", 1), atom("a", 1))
        assert not structurally_equal(atom("a", 1), atom("a", 1.0))
        assert not structurally_equal(atom("a", 1), atom("b", 1))

    def test_atom_vs_set(self):
        assert not structurally_equal(atom("a", 1), obj("a"))

    def test_hash_consistent(self):
        a = obj("p", atom("a", 1))
        b = obj("p", atom("a", 1))
        assert structural_hash(a) == structural_hash(b)


class TestEliminateDuplicates:
    def test_keeps_first_occurrence(self):
        first = atom("a", 1, oid="&1")
        second = atom("a", 1, oid="&2")
        result = eliminate_duplicates([first, second])
        assert result == [first]
        assert result[0].oid.text == "&1"

    def test_distinct_objects_kept(self):
        objects = [atom("a", 1), atom("a", 2), atom("b", 1)]
        assert eliminate_duplicates(objects) == objects

    def test_empty(self):
        assert eliminate_duplicates([]) == []

    def test_nested_duplicates(self):
        a = obj("p", atom("x", 1), atom("y", 2))
        b = obj("p", atom("y", 2), atom("x", 1))
        assert len(eliminate_duplicates([a, b])) == 1


class TestIsSubobjectSet:
    def test_subset(self):
        small = [atom("a", 1)]
        large = [atom("a", 1), atom("b", 2)]
        assert is_subobject_set(small, large)
        assert not is_subobject_set(large, small)

    def test_empty_is_subset(self):
        assert is_subobject_set([], [atom("a", 1)])


class TestFinish:
    def test_deduplicates_then_fuses_keeping_first_positions(self):
        def person(*children):
            return OEMObject("p", children, "set", SemanticOid("p", (1,)))

        plain = atom("x", 1)
        answer = finish(
            [person(atom("a", 1)), plain, atom("x", 1), person(atom("b", 2))]
        )
        assert answer[1] is plain and len(answer) == 2
        assert answer[0] == obj("p", atom("a", 1), atom("b", 2))


#: The calls that deduplicate or fuse objects anywhere but in the answer
#: tail (``finish``), per module, each with why it is not ``finish``.
DEDUPS_BY_HAND = {
    "oem/compare.py": [
        "finish runs fuse_objects",
        "fuse_objects fuses a lone member's semantic-oid children",
        "a fused group's children are fused",
        "... and deduplicated",
    ],
    "msl/evaluate.py": ["the reference evaluate_rule"],
    "msl/compile.py": [
        "a head's set collapses duplicate members as it is built",
        "CompiledRule.build, the drop-in for the reference evaluate_rule",
    ],
    "msl/substitute.py": [
        "the reference head builder collapses a set's duplicate members"
    ],
}


def test_answers_are_deduplicated_and_fused_in_one_place():
    root = Path(repro.__file__).parent
    calls = re.compile(r"(?<!def )\b(?:eliminate_duplicates|fuse_objects)\(")
    found = {
        str(path.relative_to(root)): len(calls.findall(path.read_text()))
        for path in root.rglob("*.py")
    }
    assert {module: n for module, n in found.items() if n} == {
        module: len(reasons) for module, reasons in DEDUPS_BY_HAND.items()
    }

"""Unit tests for object identifiers (plain and semantic)."""

import threading

import pytest

from repro.msl.bindings import value_key
from repro.oem import Oid, OidGenerator, SemanticOid, fresh_oid


class TestOid:
    def test_text_equality(self):
        assert Oid("&p1") == Oid("&p1")
        assert Oid("&p1") != Oid("&p2")

    def test_string_comparison(self):
        assert Oid("&p1") == "&p1"

    def test_hashable(self):
        assert len({Oid("&a"), Oid("&a"), Oid("&b")}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Oid("&a").text = "&b"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Oid("")

    def test_str(self):
        assert str(Oid("&x")) == "&x"


class TestSemanticOid:
    def test_equality_by_functor_and_args(self):
        a = SemanticOid("person", ["Joe Chung"])
        b = SemanticOid("person", ["Joe Chung"])
        c = SemanticOid("person", ["Nick Naive"])
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_not_equal_to_plain_oid_with_same_text(self):
        semantic = SemanticOid("p", ["x"])
        plain = Oid(semantic.text)
        assert semantic != plain
        assert plain != semantic

    def test_text_rendering(self):
        assert SemanticOid("pub", ["T", 1996]).text == "pub('T', 1996)"

    def test_empty_functor_rejected(self):
        with pytest.raises(ValueError):
            SemanticOid("", ["x"])

    def test_multiple_args_order_matters(self):
        assert SemanticOid("f", [1, 2]) != SemanticOid("f", [2, 1])

    def test_booleans_are_not_numbers(self):
        # MSL's values_equal keeps true apart from 1; equal hashes are a
        # legal collision, not an equality
        assert SemanticOid("p", [1]) != SemanticOid("p", [True])
        assert SemanticOid("p", [1.0]) == SemanticOid("p", [1])
        assert len({SemanticOid("p", [1]), SemanticOid("p", [True])}) == 2

    def test_text_escapes_quotes_and_backslashes(self):
        # value_key keys an oid by its text, so equal texts would make
        # frame dedup conflate two different oids
        joined = SemanticOid("p", ["x', 'y"])
        split = SemanticOid("p", ["x", "y"])
        assert joined.text == "p('x\\', \\'y')"
        assert joined.text != split.text
        assert value_key(joined) != value_key(split)
        assert SemanticOid("p", ["a\\"]).text == "p('a\\\\')"


class TestOidGenerator:
    def test_unique_sequence(self):
        gen = OidGenerator("&t")
        assert [str(gen()) for _ in range(3)] == ["&t1", "&t2", "&t3"]

    def test_reset(self):
        gen = OidGenerator("&t")
        gen()
        gen.reset()
        assert str(gen()) == "&t1"

    def test_fresh_oid_unique(self):
        assert fresh_oid() != fresh_oid()

    def test_concurrent_construction_never_duplicates(self):
        # regression guard for parallel plan execution: constructor
        # nodes on several dispatcher workers share one generator
        gen = OidGenerator("&c")
        workers, per_worker = 8, 250
        buckets: list[list[str]] = [[] for _ in range(workers)]
        barrier = threading.Barrier(workers)

        def run(bucket: list) -> None:
            barrier.wait()
            for _ in range(per_worker):
                bucket.append(str(gen()))

        threads = [
            threading.Thread(target=run, args=(bucket,))
            for bucket in buckets
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        produced = [oid for bucket in buckets for oid in bucket]
        assert len(produced) == workers * per_worker
        assert len(set(produced)) == len(produced)

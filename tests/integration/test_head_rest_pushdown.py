"""Regression tests: pushdown into head-level ``| Rest`` variables.

A specification may write its head as ``<message {... | Rest}>`` (rest
splice) instead of ``<message {... Rest}>`` (bare variable).  Both are
pushdown targets for query conditions, and the pushed conditions must
land in the *tail* only — never in the instantiated head.
"""

import pytest

from repro.datasets import record_stream
from repro.mediator import Mediator
from repro.msl import parse_query, parse_rule
from repro.oem import atom, obj, parse_oem
from repro.wrappers import (
    OEMStoreWrapper,
    SourceRegistry,
    SQLiteOEMStoreWrapper,
)

from ..reference import canonical, reference_answer

SOURCE = """
<&m1, mail, set, {&f1,&s1,&x1}>
  <&f1, from, string, 'ann@cs'>
  <&s1, subject, string, 'hello'>
  <&x1, x_mailer, string, 'elm'>
;
<&m2, mail, set, {&f2,&s2,&l2}>
  <&f2, from, string, 'bob@cs'>
  <&s2, subject, string, 'meeting'>
  <&l2, labels, set, {&l2a}>
    <&l2a, label, string, 'work'>
;
"""

SPEC_REST = (
    "<message {<from F> <subject S> | Rest}> :-"
    " <mail {<from F> <subject S> | Rest}>@src"
)
SPEC_VARITEM = (
    "<message {<from F> <subject S> Rest}> :-"
    " <mail {<from F> <subject S> | Rest}>@src"
)


@pytest.fixture(params=[SPEC_REST, SPEC_VARITEM], ids=["head-rest", "head-varitem"])
def mediator(request):
    registry = SourceRegistry(OEMStoreWrapper("src", parse_oem(SOURCE)))
    return Mediator("m", request.param, registry)


class TestHeadRestEquivalence:
    def test_export_identical(self, mediator):
        view = mediator.export()
        assert len(view) == 2
        fields = {o.get("from") for o in view}
        assert fields == {"ann@cs", "bob@cs"}

    def test_query_on_explicit_item(self, mediator):
        (result,) = mediator.answer("M :- M:<message {<from 'ann@cs'>}>@m")
        assert result.get("x_mailer") == "elm"

    def test_query_pushed_into_rest(self, mediator):
        (result,) = mediator.answer("M :- M:<message {<x_mailer 'elm'>}>@m")
        assert result.get("from") == "ann@cs"

    def test_nested_condition_pushed_into_rest(self, mediator):
        (result,) = mediator.answer(
            "M :- M:<message {<labels {<label 'work'>}>}>@m"
        )
        assert result.get("from") == "bob@cs"

    def test_label_variable_reaches_rest_fields(self, mediator):
        labels = mediator.answer("<field L> :- <message {<L V>}>@m")
        found = {o.value for o in labels}
        assert {"from", "subject", "x_mailer", "labels"} <= found

    def test_head_never_carries_conditions(self, mediator):
        # the logical program's heads must be instantiable (no RestSpec
        # conditions survive into them)
        program = mediator.expander.expand(
            parse_query("M :- M:<message {<x_mailer 'elm'>}>@m")
        )
        for logical in program:
            for item in logical.rule.head:
                assert ":{" not in str(item)

    def test_query_rest_over_head_rest(self, mediator):
        # the query's own rest variable must absorb the head's leftovers
        result = mediator.answer(
            "<summary {<from F> | QR}> :- <message {<from F> | QR}>@m"
        )
        assert len(result) == 2
        (ann,) = [o for o in result if o.get("from") == "ann@cs"]
        assert {c.label for c in ann.children} == {
            "from",
            "subject",
            "x_mailer",
        }


# -- the cliff: a point query through a Rest-variable view ------------------

RECORDS = 2000
REST_VIEW = "<item {<key K> | R}> :- <rec {<key K> | R}>@big"
#: what the τ2 rules ship for ``<item {<key 17>}>`` and ``<item {<tag
#: 'tag_17_1'>}>``: the constant arrives in the Rest variable's
#: conditions, not in the set items (the first matches nothing — the
#: item already took the only ``key`` child — but has to look)
SHIPPED = {
    "<a X> :- X:<rec {<key K> | R:{<key 17>}}>@big": 0,
    "<a X> :- X:<rec {<key K> | R:{<tag 'tag_17_1'>}}>@big": 1,
}


def _sqlite_store():
    store = SQLiteOEMStoreWrapper("big")
    store.load_records(
        "rec", record_stream(RECORDS, payload_fields=("payload", "tag"))
    )
    return store


def _memory_store():
    return OEMStoreWrapper(
        "big",
        [
            obj("rec", *[atom(name, value) for name, value in row])
            for row in record_stream(
                RECORDS, payload_fields=("payload", "tag")
            )
        ],
    )


@pytest.fixture(params=[_sqlite_store, _memory_store], ids=["sqlite", "memory"])
def big(request):
    store = request.param()
    yield store
    if isinstance(store, SQLiteOEMStoreWrapper):
        store.close()


class TestRestViewPointQuery:
    @pytest.mark.parametrize("shipped", SHIPPED, ids=["key", "tag"])
    def test_shipped_rest_constant_narrows_to_one_candidate(
        self, big, shipped
    ):
        # a child matching the constant is necessary wherever the
        # constant arrived, so the store narrows on it: one candidate
        # examined, not the whole ``rec`` extent
        query = parse_rule(shipped)
        assert len(big.candidates(query)) == 1
        assert len(big.answer(query)) == SHIPPED[shipped]

    @pytest.mark.parametrize(
        "query",
        [
            "X :- X:<item {<key 17>}>@med",
            "X :- X:<item {<key 999999>}>@med",
            "X :- X:<item {<key 17> <tag 'tag_17_1'>}>@med",
            "X :- X:<item {<key 17> <tag 'tag_18_1'>}>@med",
        ],
        ids=["hit", "miss", "two-constants", "two-constants-miss"],
    )
    def test_answers_equal_the_reference(self, big, query):
        mediator = Mediator("med", REST_VIEW, SourceRegistry(big))
        assert canonical(mediator.answer(query)) == canonical(
            reference_answer(mediator, query)
        )

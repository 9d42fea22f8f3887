"""Property: the compiled matcher is bit-for-bit the interpretive one,
and the compiled head builder the reference one.

The equivalence contract of :mod:`repro.msl.compile`
(docs/performance.md): for every pattern, forest and rule, the compiled
closures produce the *same* solutions in the *same* order as the
reference matcher/evaluator — same binding environments, same
constructed objects (oids included, because the oid-generator call
sequences coincide), same errors.  Selectivity reordering inside
compiled set matchers must be invisible.  At the mediator level, where
the compiled matcher is the only one there is, whole answers are
checked against the planner-free reference of ``tests/reference.py``.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import (
    JOE_CHUNG_QUERY,
    MS1,
    YEAR3_QUERY,
    build_cs_database,
    build_whois_objects,
)
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.msl import (
    compile_pattern,
    evaluate_rule,
    evaluate_rule_compiled,
    match_against_forest,
    match_all,
    match_pattern,
    parse_rule,
)
from repro.msl.ast import (
    Const,
    Param,
    Pattern,
    PatternItem,
    RestSpec,
    SemOidTerm,
    SetPattern,
    Var,
    VarItem,
)
from repro.msl.bindings import Bindings
from repro.msl.compile import UNBOUND, compile_head_item
from repro.msl.errors import MSLError
from repro.msl.substitute import instantiate_head_item
from repro.oem.oid import Oid, OidGenerator, SemanticOid
from repro.reliability import (
    FaultInjectingSource,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.wrappers import OEMStoreWrapper, RelationalWrapper, SourceRegistry

from ..reference import canonical, reference_answer, reference_export
from .strategies import atom_values, labels, oem_forests, oem_objects

# -- pattern strategies (label-position variables, Rest, descendants) ----

label_terms = st.one_of(
    labels.map(Const),
    st.sampled_from(["L", "X"]).map(Var),  # label-position variables
)
value_vars = st.sampled_from(["X", "Y", "Z", "_"]).map(Var)


@st.composite
def match_patterns(draw, depth: int = 2) -> Pattern:
    label = draw(label_terms)
    choices = [value_vars, atom_values.map(Const)]
    if depth > 1:
        choices.append(set_patterns(depth))
    value = draw(st.one_of(*choices))
    object_var = draw(
        st.one_of(st.none(), st.sampled_from(["O", "_"]).map(Var))
    )
    type_term = draw(
        st.one_of(
            st.none(),
            st.sampled_from(["string", "int", "set"]).map(Const),
            st.just(Var("T")),
        )
    )
    return Pattern(
        label=label, value=value, type=type_term, object_var=object_var
    )


@st.composite
def set_patterns(draw, depth: int) -> SetPattern:
    items = tuple(
        PatternItem(
            draw(match_patterns(depth=depth - 1)),
            descendant=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    )
    rest = None
    if draw(st.booleans()):
        conditions = tuple(
            draw(
                st.lists(match_patterns(depth=1), min_size=0, max_size=1)
            )
        )
        rest = RestSpec(
            draw(st.sampled_from(["R", "_"]).map(Var)), conditions
        )
    return SetPattern(items, rest)


incoming_bindings = st.dictionaries(
    st.sampled_from(["X", "Y", "L"]), atom_values, max_size=2
).map(Bindings)


def env_keys(envs):
    """Order-sensitive canonical form of a Bindings list."""
    return [env.key() for env in envs]


def outcome_of(thunk):
    """(result, error) of a matcher call, errors canonicalised."""
    try:
        return thunk(), None
    except MSLError as exc:
        return None, (type(exc).__name__, str(exc))


# -- pattern-level equivalence ------------------------------------------


class TestCompiledPatternEquivalence:
    @given(pattern=match_patterns(), obj=oem_objects())
    @settings(max_examples=300, deadline=None)
    def test_match_pattern(self, pattern, obj):
        expected, expected_error = outcome_of(
            lambda: list(match_pattern(pattern, obj))
        )
        compiled = compile_pattern(pattern)
        observed, observed_error = outcome_of(lambda: compiled.match(obj))
        assert observed_error == expected_error
        if expected_error is None:
            assert env_keys(observed) == env_keys(expected)

    @given(
        pattern=match_patterns(),
        forest=oem_forests,
        bindings=incoming_bindings,
        any_level=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_match_against_forest(
        self, pattern, forest, bindings, any_level
    ):
        expected, expected_error = outcome_of(
            lambda: list(
                match_against_forest(
                    pattern, forest, bindings, any_level=any_level
                )
            )
        )
        compiled = compile_pattern(pattern)
        observed, observed_error = outcome_of(
            lambda: compiled.match_forest(
                forest, bindings, any_level=any_level
            )
        )
        assert observed_error == expected_error
        if expected_error is None:
            assert env_keys(observed) == env_keys(expected)

    @given(
        pattern=match_patterns(),
        forest=oem_forests,
        bindings=incoming_bindings,
    )
    @settings(max_examples=150, deadline=None)
    def test_match_all_dedup(self, pattern, forest, bindings):
        expected, expected_error = outcome_of(
            lambda: match_all(pattern, forest, bindings)
        )
        compiled = compile_pattern(pattern)
        observed, observed_error = outcome_of(
            lambda: compiled.match_all(forest, bindings)
        )
        assert observed_error == expected_error
        if expected_error is None:
            assert env_keys(observed) == env_keys(expected)


# -- rule-level equivalence ---------------------------------------------

RULE_TEXTS = [
    # plain field extraction
    "<found N> :- <rec {<a N>}>@s",
    # two direct items (injective assignment + selectivity reorder)
    "<pair N M> :- <rec {<a N> <b M>}>@s",
    # constant direct item reordered ahead of the variable one
    "<hit N> :- <rec {<a N> <b 2>}>@s",
    # Rest variable flowing into the head
    "<keep N R> :- <rec {<a N> | R}>@s",
    # rest-attached condition (non-consuming membership test)
    "<two N> :- <rec {<a N> | R:{<b 2>}}>@s",
    # descendant items at arbitrary depth
    "<deep V> :- <person {.. <name V>}>@s",
    # label-position variable
    "<lab L V> :- <rec {<L V>}>@s",
    # object variable + anonymous rest
    "<whole O> :- O:<rec {<a 1> | _}>@s",
    # comparison scheduled after its binding pattern
    "<small N> :- <rec {<a N>}>@s AND N < 3",
    # self-join through a shared variable
    "<join N> :- <rec {<a N>}>@s AND <rec {<b N>}>@s",
]


@st.composite
def record_forest(draw):
    """Flat records with duplicate field labels to stress injectivity."""
    objs = []
    from repro.oem import atom, obj

    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        fields = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["a", "b", "c"]),
                    st.integers(min_value=0, max_value=3),
                ),
                min_size=0,
                max_size=4,
            )
        )
        objs.append(
            obj("rec", *[atom(name, value) for name, value in fields])
        )
    return objs


class TestCompiledRuleEquivalence:
    @given(
        text=st.sampled_from(RULE_TEXTS),
        records=record_forest(),
        nested=oem_forests,
    )
    @settings(max_examples=200, deadline=None)
    def test_evaluate_rule(self, text, records, nested):
        rule = parse_rule(text)
        forest = records + nested
        forests = {"s": forest, None: forest}
        expected, expected_error = outcome_of(
            lambda: evaluate_rule(
                rule, forests, oidgen=OidGenerator("&v"), check=False
            )
        )
        observed, observed_error = outcome_of(
            lambda: evaluate_rule_compiled(
                rule, forests, oidgen=OidGenerator("&v"), check=False
            )
        )
        assert observed_error == expected_error
        if expected_error is None:
            # bit-for-bit: same objects, same order, same oid sequence
            assert [repr(o) for o in observed] == [
                repr(o) for o in expected
            ]


# -- head builders: compiled vs reference, in lockstep ------------------
#
# Rows bind the head's variables (and the lifted parameter ``$p``) by
# column; a column may be missing, or — on the frame side, where the
# builders read registers — hold UNBOUND.  A tuple cell is a set value.

HEAD_COLUMNS = ("A", "B", "C", "L", "$p")
head_vars = st.sampled_from(["A", "B", "C", "L", "_"]).map(Var)
# label and type variables: mostly L, which mostly holds a usable string
slot_vars = st.sampled_from(["L", "L", "L", "A", "_"]).map(Var)
# slot constants; an empty label or oid text is an error
head_strings = st.sampled_from(["hit", "name", "string", "integer", ""])
# usable as a label or type, so construction gets past those slots
usable = st.sampled_from(["hit", "string"])
head_cells = st.one_of(
    usable,
    usable,
    atom_values,
    st.none(),
    st.sampled_from(["&o1", "x', 'y"]).map(Oid),
    st.just(SemanticOid("f", [1])),
    oem_objects(max_depth=2),
    st.lists(oem_objects(max_depth=2), max_size=3).map(tuple),
)
head_oids = st.one_of(
    st.none(),
    st.none(),
    head_strings.map(Const),
    head_vars,
    st.lists(
        st.one_of(atom_values.map(Const), head_vars), max_size=2
    ).map(lambda args: SemOidTerm("f", tuple(args))),
)


@st.composite
def head_patterns(draw, depth: int = 2) -> Pattern:
    values = [
        atom_values.map(Const),
        head_vars,
        st.just(Param("p")),
    ]
    if depth > 1:
        values += [head_sets(depth), head_sets(depth)]
    return Pattern(
        label=draw(
            st.one_of(
                usable.map(Const),
                usable.map(Const),
                head_strings.map(Const),
                slot_vars,
            )
        ),
        value=draw(st.one_of(*values)),
        type=draw(
            st.one_of(
                st.none(), st.none(), head_strings.map(Const), slot_vars
            )
        ),
        oid=draw(head_oids),
    )


@st.composite
def head_sets(draw, depth: int) -> SetPattern:
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if draw(st.integers(0, 2)) == 0:
            items.append(VarItem(draw(head_vars)))  # a splice
        else:
            items.append(
                PatternItem(
                    draw(head_patterns(depth=depth - 1)),
                    descendant=draw(st.integers(0, 5)) == 0,
                )
            )
    rest = None
    if draw(st.booleans()):
        conditions = () if draw(st.integers(0, 5)) else (
            Pattern(Const("tag"), Var("A")),
        )
        rest = RestSpec(draw(head_vars), conditions)
    return SetPattern(tuple(items), rest)


def built(thunk, renumber=False):
    """``thunk()``'s objects (or error), canonicalised for comparison;
    with ``renumber`` the process-wide fresh oids become their order."""
    try:
        result = repr(thunk())
    except Exception as exc:  # every error must match, whatever its type
        result = (type(exc).__name__, str(exc))
    if renumber and isinstance(result, str):
        numbers = sorted({int(n) for n in re.findall(r"&_(\d+)", result)})
        rank = {str(n): str(i) for i, n in enumerate(numbers)}
        result = re.sub(r"&_(\d+)", lambda m: "&_" + rank[m[1]], result)
    return result


class TestCompiledHeadBuilderLockstep:
    @given(
        item=st.one_of(
            head_patterns(), head_patterns(), head_patterns(), head_vars
        ),
        cells=st.fixed_dictionaries(
            {
                name: st.one_of(usable, usable, head_cells)
                if name == "L"
                else head_cells
                for name in HEAD_COLUMNS
            }
        ),
        present=st.lists(
            st.integers(0, 3).map(bool), min_size=5, max_size=5
        ),
        frame=st.booleans(),
    )
    @example(  # construction-time label check, after the children
        item=Pattern(Const(""), SetPattern((PatternItem(
            Pattern(Const("hit"), Const(1))
        ),))),
        cells=dict.fromkeys(HEAD_COLUMNS, 1),
        present=[True] * 5,
        frame=False,
    )
    @settings(max_examples=1000, deadline=None)
    def test_compiled_builder_is_the_reference(
        self, item, cells, present, frame
    ):
        bound = {
            name: cells[name]
            for name, keep in zip(HEAD_COLUMNS, present)
            if keep
        }
        if frame:
            # a frame: every register, UNBOUND where nothing is bound
            index = {name: i for i, name in enumerate(HEAD_COLUMNS)}
            row = tuple(bound.get(name, UNBOUND) for name in HEAD_COLUMNS)
        else:
            index = tuple(bound)
            row = tuple(bound.values())
        build = compile_head_item(item, index)
        env = Bindings(bound)
        compiled_gen, reference_gen = OidGenerator("&v"), OidGenerator("&v")
        # same objects or the same error, after the same generator ticks
        assert built(lambda: build(row, compiled_gen)) == built(
            lambda: instantiate_head_item(item, env, reference_gen)
        )
        assert repr(compiled_gen()) == repr(reference_gen())
        # with no generator, fresh oids are allocated in the same order
        assert built(lambda: build(row, None), renumber=True) == built(
            lambda: instantiate_head_item(item, env, None), renumber=True
        )


# -- mediator level: the production matcher against the oracle -----------
#
# There is one production matcher, so there is no interpretive twin to
# run a mediator against; what the whole pipeline (expander, optimizer,
# plan, compiled matcher) is held to instead is the planner-free
# reference of tests/reference.py: evaluate_rule over the sources'
# whole exports.


def build_mediator(seed, fault_rate=0.0, **kwargs):
    """A fresh MS1 mediator with its own seeded fault schedule."""
    clock = ManualClock()
    registry = SourceRegistry()
    registry.register(
        FaultInjectingSource(
            OEMStoreWrapper("whois", build_whois_objects()),
            seed=seed,
            fault_rate=fault_rate,
            latency=0.05,
            clock=clock,
        )
    )
    registry.register(RelationalWrapper("cs", build_cs_database()))
    return Mediator(
        "med", MS1, registry, default_registry(), clock=clock, **kwargs
    )


class TestMediatorVsReference:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fault_rate=st.floats(min_value=0.0, max_value=0.3),
        query=st.sampled_from([JOE_CHUNG_QUERY, YEAR3_QUERY]),
    )
    @settings(max_examples=10, deadline=None)
    def test_masked_faults_equal_reference(
        self, seed, fault_rate, query
    ):
        # eight attempts mask every schedule drawn here, so the answer
        # is the whole reference answer and nothing is reported
        mediator = build_mediator(
            seed,
            fault_rate=fault_rate,
            resilience=ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=8, base_delay=0.01, jitter=0.0
                ),
                breaker_threshold=100,
            ),
        )
        observed = mediator.query(query)
        assert not observed.warnings
        assert canonical(observed) == canonical(
            reference_answer(build_mediator(seed), query)
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fault_rate=st.floats(min_value=0.0, max_value=0.6),
        query=st.sampled_from([JOE_CHUNG_QUERY, YEAR3_QUERY]),
    )
    @settings(max_examples=25, deadline=None)
    def test_degraded_run_within_reference(
        self, seed, fault_rate, query
    ):
        # no retries, degrade mode: a faulted call drops its rows and
        # says so — the answer never holds an object the reference
        # lacks, and is the whole reference when nothing was dropped
        mediator = build_mediator(
            seed, fault_rate=fault_rate, on_source_failure="degrade"
        )
        observed = mediator.query(query)
        expected = canonical(reference_answer(build_mediator(seed), query))
        assert canonical(observed) <= expected
        if not observed.warnings:
            assert canonical(observed) == expected

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_export_equals_reference(self, seed):
        mediator = build_mediator(seed)
        # a fresh mediator numbers its objects as the semantics create
        # them, so the export is the reference repr for repr — order
        # and mediator oids included
        assert [repr(o) for o in mediator.export()] == [
            repr(o)
            for o in reference_export(build_mediator(seed), "&med_")
        ]


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(pytest.main([__file__, "-q"]))

"""An external predicate resolved once behaves as one selected per call.

``ExternalRegistry.resolve`` picks the implementation for an
availability pattern once; ``evaluate`` is that call made for one row.
Both must answer what ``tests/reference.py::reference_evaluate`` — an
implementation selected for every call, then the post-filter loop —
answers, and raise the same errors with the same messages, over every
return shape an implementation may give.

``schedule_conditions`` orders a rule tail for the reference evaluator
and the compiled rules alike: every condition it orders must be ready
when it is reached, and what it cannot order must be exactly the
external calls no declared implementation can run.
"""

from hypothesis import given, settings, strategies as st

from repro.external import ExternalRegistry
from repro.msl.analysis import condition_variables
from repro.msl.ast import Comparison, Const, ExternalCall, PatternCondition, Var
from repro.msl.evaluate import schedule_conditions
from repro.msl.parser import parse_rule
from tests.reference import reference_evaluate

#: Values that compare equal across types (1, 1.0, True) and not.
values = st.sampled_from([1, 2, 1.0, True, "a", "b"])

#: What an implementation returns: a tuple (of any arity), an atom, an
#: iterable of tuples and atoms, a bool, None, or an exception.
shapes = st.one_of(
    st.tuples(st.just("tuple"), st.lists(values, max_size=3).map(tuple)),
    st.tuples(st.just("atom"), values),
    st.tuples(
        st.just("rows"),
        st.lists(
            st.one_of(values, st.lists(values, max_size=3).map(tuple)),
            max_size=3,
        ),
    ),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("none"), st.none()),
    st.tuples(st.just("raise"), st.none()),
)


def implementation(kind, payload):
    def function(*bound):
        if kind == "raise":
            raise RuntimeError(f"refused {bound!r}")
        if kind == "rows":
            return list(payload)  # a fresh list per call
        return payload

    return function


@st.composite
def cases(draw):
    arity = draw(st.integers(min_value=1, max_value=3))
    adornments = st.lists(
        st.sampled_from("bf"), min_size=arity, max_size=arity
    ).map(tuple)
    registry = ExternalRegistry()
    for index, (adornment, shape) in enumerate(
        draw(st.lists(st.tuples(adornments, shapes), min_size=1, max_size=3))
    ):
        registry.register_function(f"f{index}", implementation(*shape))
        registry.declare("p", adornment, f"f{index}")
    available = draw(
        st.lists(st.booleans(), min_size=arity, max_size=arity)
    )
    rows = draw(
        st.lists(
            st.tuples(
                *[values if given else st.none() for given in available]
            ).map(list),
            min_size=1,
            max_size=3,
        )
    )
    return registry, available, rows


def outcome(evaluate):
    try:
        return ("rows", list(evaluate()))
    except Exception as exc:
        return ("error", type(exc), str(exc))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_evaluate_is_the_reference(case):
    registry, available, rows = case
    for args in rows:
        assert outcome(
            lambda: registry.evaluate("p", args, available)
        ) == outcome(lambda: reference_evaluate(registry, "p", args, available))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_one_resolution_serves_every_row(case):
    registry, available, rows = case
    resolved = outcome(lambda: [registry.resolve("p", available)])
    for args in rows:
        expected = outcome(
            lambda: reference_evaluate(registry, "p", args, available)
        )
        if resolved[0] == "error":
            assert resolved == expected
        else:
            ((call,),) = resolved[1:]
            assert outcome(lambda: call(args)) == expected


# -- the condition schedule the oracle shares with compile.py -----------------

#: Declared implementations: predicate -> adornments (arity = length).
DECLARED = {"p": ("bf", "fb"), "q": ("bbf",), "r": ("b",), "s": ()}
ARITY = {"p": 2, "q": 3, "r": 1, "s": 2}
#: Variables only an external predicate's free position can bind.
EXTERNAL_ONLY = ("E", "F")


def _registry():
    registry = ExternalRegistry()
    registry.register_function("impl", lambda *args: [])
    for predicate, adornments in DECLARED.items():
        for adornment in adornments:
            registry.declare(predicate, tuple(adornment), "impl")
    return registry


def _selectable(call, bound) -> bool:
    """Has ``call`` a declared adornment whose bound positions are all
    available (a constant, or a variable bound by now)?"""
    available = [
        isinstance(arg, Const) or (isinstance(arg, Var) and arg.name in bound)
        for arg in call.args
    ]
    return any(
        len(adornment) == len(available)
        and all(ok or letter == "f" for ok, letter in zip(available, adornment))
        for adornment in DECLARED.get(call.name, ())
    )


@st.composite
def scheduled_rules(draw):
    """A rule text whose tail mixes patterns, comparisons over pattern
    variables, and external calls that may or may not be executable."""
    names = st.sampled_from("ABCD")
    patterns = draw(
        st.lists(st.lists(names, min_size=1, max_size=3), min_size=1,
                 max_size=3)
    )
    bound_by_patterns = sorted({name for fields in patterns for name in fields})
    tail = [
        "<rec {"
        + " ".join(f"<f{i} {name}>" for i, name in enumerate(fields))
        + f"}}>@src{index}"
        for index, fields in enumerate(patterns)
    ]
    operand = st.one_of(
        st.sampled_from(bound_by_patterns), st.sampled_from(["1", "'a'"])
    )
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        left, right = draw(operand), draw(operand)
        tail.append(f"{left} {draw(st.sampled_from(['=', '<', '!=']))} {right}")
    argument = st.one_of(
        st.sampled_from(bound_by_patterns),
        st.sampled_from(EXTERNAL_ONLY),
        st.just("7"),
    )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        predicate = draw(st.sampled_from(sorted(ARITY)))
        args = [draw(argument) for _ in range(ARITY[predicate])]
        tail.append(f"{predicate}({', '.join(args)})")
    order = draw(st.permutations(range(len(tail))))
    head = f"<out {{<v {bound_by_patterns[0]}>}}>"
    return head + " :- " + " AND ".join(tail[i] for i in order)


@given(text=scheduled_rules())
@settings(max_examples=300, deadline=None)
def test_every_scheduled_condition_is_ready_when_reached(text):
    rule = parse_rule(text)
    ordered, leftover = schedule_conditions(rule, _registry())
    assert sorted(map(str, ordered + leftover)) == sorted(map(str, rule.tail))
    bound: set[str] = set()
    for condition in ordered:
        if isinstance(condition, Comparison):
            assert condition_variables(condition) <= bound, text
        elif isinstance(condition, ExternalCall):
            assert _selectable(condition, bound), text
        else:
            assert isinstance(condition, PatternCondition)
        bound |= condition_variables(condition)
    # what is left is exactly the external calls no declared adornment
    # can run even with everything else bound, in tail order
    assert leftover == [
        condition
        for condition in rule.tail
        if isinstance(condition, ExternalCall)
        and not _selectable(condition, bound)
    ], text

"""An external predicate resolved once behaves as one selected per call.

``ExternalRegistry.resolve`` picks the implementation for an
availability pattern once; ``evaluate`` is that call made for one row.
Both must answer what ``tests/reference.py::reference_evaluate`` — an
implementation selected for every call, then the post-filter loop —
answers, and raise the same errors with the same messages, over every
return shape an implementation may give.
"""

from hypothesis import given, settings, strategies as st

from repro.external import ExternalRegistry
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

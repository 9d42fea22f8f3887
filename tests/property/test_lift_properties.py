"""Properties of constants: how they print, how text is scanned for
them, and how a rule's are lifted out and put back.

Three caches key on these: the answer cache and the dispatcher's
single-flight table on the *text* of a shipped query (so two constants
must never print alike), the plan cache on the text skeleton of a query
(so the scan must see exactly the literals the tokenizer sees), and the
plan and compile caches on the lifted template (so lifting must be
invertible).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.msl import MSLError, parse_pattern, parse_query, tokenize
from repro.msl.ast import (
    Comparison,
    Const,
    Pattern,
    PatternCondition,
    PatternItem,
    RestSpec,
    Rule,
    SemOidTerm,
    SetPattern,
    Var,
)
from repro.msl.lexer import scan_literals
from repro.msl.lift import lift, param_names, scan_shape, text_shape_is_liftable
from repro.msl.substitute import rule_params, substitute_params

# -- the printer -------------------------------------------------------------

#: Every kind of constant a rule can hold.  Non-finite floats are left
#: out: ``inf`` and ``nan`` print as words, which MSL text has no
#: numeric spelling for (no source value parses to one either).
constants = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["true", "false", "TRUE", "tRue", "fALSE", "and", "a\\b", "it's",
         "two\nlines", "\\", "'", "", "&p1", "$x", "1", "1.0", "-3",
         "¼", "x¼", "²"]  # numeric characters that start no word
    ),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)


class TestConstantsPrintAsThemselves:
    @given(constants)
    @settings(max_examples=400)
    def test_parse_of_str_is_the_constant(self, value):
        constant = Const(value)
        assert parse_pattern(f"<l {constant}>").value == constant

    @given(constants, constants)
    @settings(max_examples=400)
    def test_two_constants_print_alike_only_if_equal(self, left, right):
        if str(Const(left)) == str(Const(right)):
            assert Const(left) == Const(right)


# -- the literal scan --------------------------------------------------------

#: Text over an alphabet rich in what the scan could get wrong: digits
#: inside words, quotes inside comments, the minus of ``:-``, escapes.
msl_noise = st.lists(
    st.sampled_from(
        list("aXt_ 01.e-+'\"\\#/:<>{}&$,|@=!\n") + ["true", "false", ":-"]
    ),
    max_size=24,
).map("".join)


def tokenizer_literals(text):
    """What ``scan_literals`` claims to find, read off the tokenizer."""
    found = []
    for token in tokenize(text):
        if token.kind in ("string", "number"):
            found.append((token.pos, token.value))
        elif (
            token.kind == "word"
            and token.text[0] in "tf"
            and token.text.lower() in ("true", "false")
        ):
            found.append((token.pos, token.text[0] == "t"))
    return found


class TestScanSeesWhatTheTokenizerSees:
    @given(msl_noise)
    @settings(max_examples=1500)
    def test_same_literals_same_values_same_places(self, text):
        try:
            expected = tokenizer_literals(text)
        except MSLError:
            return  # text nobody memoizes: the scan only must not raise
        finally:
            skeleton, values = scan_literals(text)
        assert [(type(v), v) for v in values] == [
            (type(v), v) for _, v in expected
        ]
        # the skeleton is the text minus exactly those tokens
        assert skeleton.split("\0") == _without_literals(text, expected)

    def test_scan_never_raises_on_rejected_text(self):
        for text in ("'open", "a & b", "1.", "x -- 1", "\0", "'a\\"):
            scan_literals(text)


def _without_literals(text, expected):
    """The pieces of ``text`` between the tokenizer's literal tokens."""
    tokens = {token.pos: token for token in tokenize(text)}
    pieces, position = [], 0
    for start, _ in expected:
        pieces.append(text[position:start])
        position = start + len(tokens[start].text)
    pieces.append(text[position:])
    return pieces


# -- lifting -----------------------------------------------------------------

values = st.sampled_from([1, 1.0, True, "1", "true", "x", 2, "", False])
labels = st.sampled_from(["a", "b", "c"])


#: A semantic oid's arguments are values too (a bind join fills them).
semantic_oids = st.one_of(
    st.none(),
    st.lists(
        st.one_of(values.map(Const), st.just(Var("Y"))), min_size=1, max_size=2
    ).map(lambda args: SemOidTerm("p", tuple(args))),
)


@st.composite
def patterns(draw, depth=2):
    label = Const(draw(labels))
    oid = draw(semantic_oids)
    kinds = ["const", "var", "set"] if depth else ["const", "var"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return Pattern(label, Const(draw(values)), oid=oid)
    if kind == "var":
        return Pattern(
            label, Var(draw(st.sampled_from(["X", "Y", "_"]))), oid=oid
        )
    items = tuple(
        PatternItem(draw(patterns(depth - 1)))
        for _ in range(draw(st.integers(0, 3)))
    )
    rest = None
    if draw(st.booleans()):
        rest = RestSpec(
            Var("R"),
            tuple(
                draw(patterns(depth - 1))
                for _ in range(draw(st.integers(0, 2)))
            ),
        )
    return Pattern(label, SetPattern(items, rest), oid=oid)


@st.composite
def rules(draw):
    tail = [
        PatternCondition(draw(patterns()), "s")
        for _ in range(draw(st.integers(1, 2)))
    ]
    if draw(st.booleans()):
        tail.append(
            Comparison(Var("X"), draw(st.sampled_from(["=", "<", ">="])),
                       Const(draw(values)))
        )
    return Rule((Var("X"),), tuple(tail))


def strict(constants_):
    return [(type(value), value) for value in constants_]


class TestLift:
    @given(rules())
    @settings(max_examples=300)
    def test_substituting_the_constants_back_gives_the_rule(self, rule):
        template, constants_ = lift(rule)
        names = param_names(len(constants_))
        assert rule_params(template) == names
        assert substitute_params(template, dict(zip(names, constants_))) == rule
        if not constants_:
            assert template is rule

    @given(rules())
    @settings(max_examples=300)
    def test_equal_constants_share_a_parameter_type_strictly(self, rule):
        _, constants_ = lift(rule)
        assert len(set(strict(constants_))) == len(constants_)

    @given(rules())
    @settings(max_examples=200)
    def test_template_depends_on_structure_and_equalities_only(self, rule):
        """Renaming the constants injectively keeps the template."""
        template, constants_ = lift(rule)
        fresh = [f"k{i}" for i in range(len(constants_))]
        other = substitute_params(
            template, dict(zip(param_names(len(constants_)), fresh))
        )
        assert lift(other) == (template, tuple(fresh))

    def test_labels_oids_types_sources_and_heads_stay(self):
        rule = parse_query(
            "<out 'h'> :- <&o1 rec string {<k 1> <'quoted' 2>}>@s"
        )
        template, constants_ = lift(rule)
        assert constants_ == (1, 2)
        assert str(template) == (
            "<out h> :- <'&o1' rec string {<k $#0> <quoted $#1>}>@s"
        )

    def test_lifted_names_cannot_be_written(self):
        try:
            parse_query("X :- X:<a $#0>@s")
        except MSLError:
            return
        raise AssertionError("$#0 parsed: lifted names must be unspellable")


class TestTextShapes:
    def test_same_shape_different_constants_share_a_key(self):
        key_a, constants_a = scan_shape("X :- X:<item {<key 17>}>@med")
        key_b, constants_b = scan_shape("X :- X:<item {<key 'x'>}>@med")
        assert key_a == key_b
        assert (constants_a, constants_b) == ((17,), ("x",))
        assert text_shape_is_liftable(key_a)

    def test_semantic_oid_arguments_are_lifted(self):
        key_a, constants_a = scan_shape("X :- X:<&p('ann', 3) r {<k 3>}>@m")
        key_b, constants_b = scan_shape("X :- X:<&p('bob', 4) r {<k 4>}>@m")
        assert key_a == key_b and text_shape_is_liftable(key_a)
        assert (constants_a, constants_b) == (("ann", 3), ("bob", 4))

    def test_equality_pattern_is_part_of_the_key(self):
        same, _ = scan_shape("X :- X:<r {<a 1> <b 1>}>@m")
        different, _ = scan_shape("X :- X:<r {<a 1> <b 2>}>@m")
        strictly, _ = scan_shape("X :- X:<r {<a 1> <b 1.0>}>@m")
        assert same != different
        assert different == strictly  # 1 and 1.0 are two constants

    def test_a_literal_in_a_structure_slot_is_not_liftable(self):
        for text in (
            "X :- X:<5 5>@m",  # a number as a label
            "X :- X:<'a' joe>@m",  # a quoted label beside a bare-word value
            "<o 'h'> :- <a 1>@m",  # a constant in the head
            "X :- X:<a V>@m AND f(V, 3)",  # an external call's argument
            "X :- X:<true 1>@m",  # a boolean word as a label
        ):
            key, _ = scan_shape(text)
            assert not text_shape_is_liftable(key), text

    @given(rules())
    @settings(max_examples=200)
    def test_scan_agrees_with_parse_then_lift_when_liftable(self, rule):
        text = str(rule)
        key, scanned = scan_shape(text)
        assume(text_shape_is_liftable(key))
        template, lifted = lift(parse_query(text))
        assert strict(scanned) == strict(lifted)
        assert template == lift(rule)[0]

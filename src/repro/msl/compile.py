"""Compiled pattern matching: MSL rules lowered to Python closures.

The paper's MSI pipeline separates a one-time "compile the datamerge
program" phase from the per-query run phase.  This module exploits the
same split one level lower, inside pattern evaluation itself:

* every slot of a pattern is lowered to a specialized closure at
  view-definition time — constant tests are precomputed, variables are
  resolved to **integer registers** in a per-rule :class:`SlotLayout`;
* binding environments become fixed-width tuples (*frames*) with an
  :data:`UNBOUND` sentinel, so a bind is one tuple splice instead of a
  dict copy;
* set-pattern items are searched constants-first (most selective items
  prune the injective assignment earliest), with the child set tracked
  as a bitmask;
* compiled rules precompute the condition schedule
  (:func:`~repro.msl.evaluate.schedule_conditions`) and the head
  projection, and are memoized in a :class:`CompileCache`.

**Equivalence contract.**  This is the matcher every wrapper and
mediator runs; the interpretive :mod:`repro.msl.matcher` /
:mod:`repro.msl.evaluate` are its reference implementation, and the
two are bit-for-bit equivalent: same solutions, in the same order, same
errors, same oid-generator call sequence.  Reordering set items for
selectivity would normally permute solutions, so every matcher tags
each solution with a canonical *choice key* — the per-item
``(child_index, nested_key)`` fragments laid out in the pattern's
original item order — and sorts the per-object solutions by that key
whenever the search order differs from the written order.  Key shape is
fixed per pattern, so the tuple sort restores exactly the interpretive
enumeration order.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.msl.analysis import check_rule, condition_variables
from repro.msl.ast import (
    Comparison,
    Const,
    ExternalCall,
    Param,
    Pattern,
    PatternCondition,
    PatternItem,
    Rule,
    SemOidTerm,
    SetPattern,
    Term,
    Var,
    VarItem,
)
from repro.msl.bindings import (
    EMPTY_BINDINGS,
    Bindings,
    value_key,
    values_equal,
)
from repro.msl.errors import (
    MSLInstantiationError,
    MSLMatchError,
    MSLSemanticError,
)
from repro.msl.evaluate import (
    compare_values,
    schedule_conditions,
    unschedulable_error,
)
from repro.msl.lift import lift, param_names
from repro.msl.substitute import (
    head_variables,
    pattern_params,
    pattern_variables,
    rule_params,
)
from repro.oem.compare import eliminate_duplicates
from repro.oem.model import SET_TYPE, OEMError, OEMObject
from repro.oem.oid import Oid, OidGenerator, SemanticOid, fresh_oid
from repro.oem.traverse import descendants, walk

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.external.registry import ExternalRegistry

__all__ = [
    "UNBOUND",
    "SlotLayout",
    "CompiledPattern",
    "CompiledRule",
    "CompileCache",
    "compile_head_item",
    "compile_pattern",
    "compile_rule",
    "evaluate_rule_compiled",
]


class _Unbound:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbound>"


#: Register sentinel: the slot has no value yet.
UNBOUND = _Unbound()

_EMPTY: list = []
_NO_KEY: tuple = ()


def _bindings_from(mapping: dict) -> Bindings:
    """Wrap an owned dict as Bindings without the defensive copy."""
    env = Bindings.__new__(Bindings)
    object.__setattr__(env, "_map", mapping)
    return env


class SlotLayout:
    """Variable-name → register-index mapping for one rule or pattern.

    A template's ``$name`` parameters get registers too, after the
    variables' (indexed under their printed name, which no variable
    can have): a parameter is matched like a variable that is already
    bound, so the constants of a call are just the frame it starts
    from — :meth:`frame_for`.
    """

    __slots__ = ("names", "index", "width", "empty_frame", "params")

    def __init__(
        self, names: Sequence[str], params: Sequence[str] = ()
    ) -> None:
        self.names = tuple(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.params = tuple(
            (name, len(self.names) + i) for i, name in enumerate(params)
        )
        for name, register in self.params:
            self.index[f"${name}"] = register
        self.width = len(self.names) + len(self.params)
        self.empty_frame: tuple = (UNBOUND,) * self.width

    def register(self, name: str) -> int:
        return self.index[name]

    def frame_for(self, params: "Mapping[str, object] | None") -> tuple:
        """The empty frame with the parameter registers loaded."""
        if not self.params or not params:
            return self.empty_frame
        frame = list(self.empty_frame)
        for name, register in self.params:
            frame[register] = params.get(name, UNBOUND)
        return tuple(frame)

    def seed(self, bindings: Bindings) -> tuple:
        """A frame pre-loaded with the layout's share of ``bindings``."""
        if not len(bindings):
            return self.empty_frame
        frame = list(self.empty_frame)
        index = self.index
        for name, value in bindings.items():
            position = index.get(name)
            if position is not None:
                frame[position] = value
        return tuple(frame)

    def to_bindings(
        self, frame: tuple, base: Bindings = EMPTY_BINDINGS
    ) -> Bindings:
        """The environment a frame denotes, over incoming ``base``."""
        mapping = dict(base._map) if len(base) else {}
        for name, value in zip(self.names, frame):
            if value is not UNBOUND:
                mapping[name] = value
        return _bindings_from(mapping)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlotLayout({list(self.names)})"


def _bind(frame: tuple, register: int, value: object) -> tuple | None:
    """Bind one register; ``None`` on structural conflict."""
    current = frame[register]
    if current is UNBOUND:
        return frame[:register] + (value,) + frame[register + 1:]
    if current is value or values_equal(current, value):
        return frame
    return None


# ---------------------------------------------------------------------------
# slot compilation
# ---------------------------------------------------------------------------


def _param_error(name: str) -> MSLMatchError:
    return MSLMatchError(
        f"parameter ${name} in a pattern being matched; "
        f"instantiate the template first"
    )


def _compile_term_test(term: Term, layout: SlotLayout):
    """Lower one non-value slot term to ``(actual, frame) -> frame|None``."""
    if isinstance(term, Const):
        want = term.value
        if isinstance(want, str):
            # str equality agrees with values_equal for every actual type
            def test_str(actual, frame, _w=want):
                return frame if actual == _w else None

            return test_str

        def test_const(actual, frame, _w=want):
            return frame if values_equal(_w, actual) else None

        return test_const
    if isinstance(term, Var):
        if term.is_anonymous:
            return lambda actual, frame: frame
        register = layout.register(term.name)

        def test_var(actual, frame, _r=register):
            current = frame[_r]
            if current is UNBOUND:
                return frame[:_r] + (actual,) + frame[_r + 1:]
            if current is actual or values_equal(current, actual):
                return frame
            return None

        return test_var
    if isinstance(term, Param):
        name = term.name
        register = layout.index.get(str(term))

        def test_param(actual, frame, _n=name, _r=register):
            # a parameter register holds this call's constant; one
            # nobody loaded is a template being matched as it stands
            if _r is None or frame[_r] is UNBOUND:
                raise _param_error(_n)
            return frame if values_equal(frame[_r], actual) else None

        return test_param
    if isinstance(term, SemOidTerm):
        functor = term.functor
        arity = len(term.args)
        arg_tests = tuple(
            _compile_term_test(arg, layout) for arg in term.args
        )

        def test_semoid(
            actual, frame, _f=functor, _n=arity, _tests=arg_tests
        ):
            if not isinstance(actual, SemanticOid):
                return None
            if actual.functor != _f or len(actual.args) != _n:
                return None
            for test, arg_value in zip(_tests, actual.args):
                frame = test(arg_value, frame)
                if frame is None:
                    return None
            return frame

        return test_semoid
    message = f"cannot match slot term {term!r}"

    def test_unknown(actual, frame, _m=message):
        raise MSLMatchError(_m)

    return test_unknown


def _constant_weight(pattern: Pattern) -> int:
    """A selectivity score: how many constant tests gate this pattern."""
    weight = 0
    if isinstance(pattern.oid, (Const, SemOidTerm)):
        weight += 2
    if isinstance(pattern.label, Const):
        weight += 2
    if isinstance(pattern.type, Const):
        weight += 1
    value = pattern.value
    if isinstance(value, (Const, Param)):
        weight += 2  # a parameter is a constant by the time it is matched
    elif isinstance(value, SetPattern):
        for item in value.items:
            if isinstance(item, PatternItem):
                weight += _constant_weight(item.pattern)
    return weight


def _compile_set(setpat: SetPattern, layout: SlotLayout):
    """Lower a ``{...}`` pattern to a keyed set matcher closure."""
    var_item_message = None
    direct: list[Pattern] = []
    deep: list[Pattern] = []
    for item in setpat.items:
        if isinstance(item, VarItem):
            var_item_message = (
                f"bare variable {item.var} inside a set pattern is only"
                f" meaningful in rule heads"
            )
            break
        if isinstance(item, PatternItem):
            (deep if item.descendant else direct).append(item.pattern)

    if var_item_message is not None:
        def raise_var_item(obj, frame, _m=var_item_message):
            if obj.type != SET_TYPE:
                return _EMPTY
            raise MSLMatchError(_m)

        return raise_var_item

    # direct items: (original position, matcher, label prefilter), searched
    # most-constant-first; the choice key restores written-order solutions
    specs = []
    for position, pattern in enumerate(direct):
        matcher, label_const = _compile_matcher(pattern, layout)
        specs.append((position, matcher, label_const))
    ordered = sorted(
        specs, key=lambda spec: -_constant_weight(direct[spec[0]])
    )
    needs_sort = any(
        spec[0] != rank for rank, spec in enumerate(ordered)
    )
    ordered = tuple(ordered)
    n_direct = len(ordered)

    deep_matchers = tuple(
        _compile_matcher(pattern, layout)[0] for pattern in deep
    )
    n_deep = len(deep_matchers)

    has_rest = setpat.rest is not None
    rest_register = None
    rest_cond_matchers: tuple = ()
    if has_rest:
        if not setpat.rest.var.is_anonymous:
            rest_register = layout.register(setpat.rest.var.name)
        rest_cond_matchers = tuple(
            _compile_matcher(pattern, layout)[0]
            for pattern in setpat.rest.conditions
        )
    n_conds = len(rest_cond_matchers)

    if n_direct == 1 and not n_deep and not has_rest:
        # the hot shape — one pushed-down condition like {<name 'Joe'>}
        (_, only_matcher, only_label) = ordered[0]

        if only_label is not None:
            def match_single(obj, frame, _m=only_matcher, _l=only_label):
                if obj.type != SET_TYPE:
                    return _EMPTY
                solutions = []
                for child_index, child in enumerate(obj.value):
                    if child.label != _l:
                        continue
                    for found, nested in _m(child, frame):
                        solutions.append(
                            (found, ((child_index, nested),))
                        )
                return solutions

            return match_single

        def match_single_any(obj, frame, _m=only_matcher):
            if obj.type != SET_TYPE:
                return _EMPTY
            solutions = []
            for child_index, child in enumerate(obj.value):
                for found, nested in _m(child, frame):
                    solutions.append((found, ((child_index, nested),)))
            return solutions

        return match_single_any

    if n_direct == 1 and not n_deep and has_rest and not n_conds:
        # {<name N> | Rest} — one item, bare rest: the rest members are
        # simply the other children, in store order
        (_, only_matcher, only_label) = ordered[0]

        def match_single_rest(obj, frame, _m=only_matcher, _l=only_label):
            if obj.type != SET_TYPE:
                return _EMPTY
            children = obj.value
            solutions = []
            for child_index, child in enumerate(children):
                if _l is not None and child.label != _l:
                    continue
                for found, nested in _m(child, frame):
                    env = found
                    if rest_register is not None:
                        rest_members = tuple(
                            children[:child_index]
                            + children[child_index + 1:]
                        )
                        env = _bind(found, rest_register, rest_members)
                        if env is None:
                            continue
                    solutions.append((env, ((child_index, nested),)))
            return solutions

        return match_single_rest

    def match_set(obj, frame):
        if obj.type != SET_TYPE:
            return _EMPTY
        children = obj.value
        n_children = len(children)
        solutions: list = []
        fragments = [None] * n_direct
        deep_nodes = tuple(descendants(obj)) if n_deep else ()

        # the recursive helpers below take themselves as ``recur``
        # instead of closing over their own name: a closure that calls
        # itself is a reference cycle, and this runs once per matched
        # object — refcounting alone must be able to free a match

        def finish(frame, used, deep_fragments):
            base_key = tuple(fragments) + deep_fragments
            if not has_rest:
                solutions.append((frame, base_key))
                return
            rest_members = tuple(
                children[i]
                for i in range(n_children)
                if not (used >> i) & 1
            )
            env = frame
            if rest_register is not None:
                env = _bind(frame, rest_register, rest_members)
                if env is None:
                    return
            if not n_conds:
                solutions.append((env, base_key))
                return

            def assign_conditions(recur, index, cond_used, frame2, cond_frags):
                if index == n_conds:
                    solutions.append((frame2, base_key + cond_frags))
                    return
                matcher = rest_cond_matchers[index]
                for member_index, member in enumerate(rest_members):
                    if (cond_used >> member_index) & 1:
                        continue
                    for found, nested in matcher(member, frame2):
                        recur(
                            recur,
                            index + 1,
                            cond_used | (1 << member_index),
                            found,
                            cond_frags + ((member_index, nested),),
                        )

            assign_conditions(assign_conditions, 0, 0, env, ())

        def apply_deep(recur, index, frame, deep_fragments, used):
            if index == n_deep:
                finish(frame, used, deep_fragments)
                return
            matcher = deep_matchers[index]
            for node_index, node in enumerate(deep_nodes):
                for found, nested in matcher(node, frame):
                    recur(
                        recur,
                        index + 1,
                        found,
                        deep_fragments + ((node_index, nested),),
                        used,
                    )

        def assign(recur, index, used, frame):
            if index == n_direct:
                apply_deep(apply_deep, 0, frame, (), used)
                return
            position, matcher, label_const = ordered[index]
            for child_index in range(n_children):
                if (used >> child_index) & 1:
                    continue
                child = children[child_index]
                if label_const is not None and child.label != label_const:
                    continue
                for found, nested in matcher(child, frame):
                    fragments[position] = (child_index, nested)
                    recur(recur, index + 1, used | (1 << child_index), found)

        assign(assign, 0, 0, frame)
        if needs_sort and len(solutions) > 1:
            solutions.sort(key=_solution_key)
        return solutions

    return match_set


def _solution_key(solution: tuple) -> tuple:
    return solution[1]


def _compile_value_step(pattern: Pattern, layout: SlotLayout):
    """Lower the value slot to ``(obj, frame) -> [(frame, key), ...]``."""
    value = pattern.value
    if isinstance(value, SetPattern):
        return _compile_set(value, layout)
    if isinstance(value, Const):
        want = value.value
        if isinstance(want, str):
            def step_const_str(obj, frame, _w=want):
                if obj.type != SET_TYPE and obj.value == _w:
                    return [(frame, _NO_KEY)]
                return _EMPTY

            return step_const_str

        def step_const(obj, frame, _w=want):
            if obj.type != SET_TYPE and values_equal(_w, obj.value):
                return [(frame, _NO_KEY)]
            return _EMPTY

        return step_const
    if isinstance(value, Var):
        if value.is_anonymous:
            return lambda obj, frame: [(frame, _NO_KEY)]
        register = layout.register(value.name)

        def step_var(obj, frame, _r=register):
            # obj.value is the children tuple for sets, the atom otherwise
            bound = obj.value
            current = frame[_r]
            if current is UNBOUND:
                return [
                    (frame[:_r] + (bound,) + frame[_r + 1:], _NO_KEY)
                ]
            if current is bound or values_equal(current, bound):
                return [(frame, _NO_KEY)]
            return _EMPTY

        return step_var
    if isinstance(value, Param):
        name = value.name
        register = layout.index.get(str(value))

        def step_param(obj, frame, _n=name, _r=register):
            want = UNBOUND if _r is None else frame[_r]
            if want is UNBOUND:
                raise _param_error(_n)
            if obj.type != SET_TYPE and (
                obj.value == want
                if want.__class__ is str
                else values_equal(want, obj.value)
            ):
                return [(frame, _NO_KEY)]
            return _EMPTY

        return step_param
    message = f"cannot match value term {value!r}"

    def step_unknown(obj, frame, _m=message):
        raise MSLMatchError(_m)

    return step_unknown


def _compile_matcher(pattern: Pattern, layout: SlotLayout):
    """Lower a whole pattern; returns ``(match_keyed, label_const)``.

    ``match_keyed(obj, frame)`` returns the keyed solution list for one
    object; ``label_const`` is the pattern's string label constant (for
    caller-side prefiltering), or ``None``.
    """
    steps = []
    if pattern.oid is not None:
        if isinstance(pattern.oid, Const):
            text = str(pattern.oid.value)

            def step_oid_const(obj, frame, _t=text):
                return frame if obj.oid.text == _t else None

            steps.append(step_oid_const)
        else:
            oid_test = _compile_term_test(pattern.oid, layout)

            def step_oid(obj, frame, _t=oid_test):
                return _t(obj.oid, frame)

            steps.append(step_oid)

    label_const = None
    if isinstance(pattern.label, Const) and isinstance(
        pattern.label.value, str
    ):
        label_const = pattern.label.value
    label_test = _compile_term_test(pattern.label, layout)

    def step_label(obj, frame, _t=label_test):
        return _t(obj.label, frame)

    steps.append(step_label)

    if pattern.type is not None:
        type_test = _compile_term_test(pattern.type, layout)

        def step_type(obj, frame, _t=type_test):
            return _t(obj.type, frame)

        steps.append(step_type)

    if pattern.object_var is not None and not pattern.object_var.is_anonymous:
        register = layout.register(pattern.object_var.name)

        def step_object_var(obj, frame, _r=register):
            current = frame[_r]
            if current is UNBOUND:
                return frame[:_r] + (obj,) + frame[_r + 1:]
            if current is obj or values_equal(current, obj):
                return frame
            return None

        steps.append(step_object_var)

    value_step = _compile_value_step(pattern, layout)

    if len(steps) == 1 and label_const is not None:
        # the hottest shape: <label ...> — one string compare gates all
        def match_label_gated(obj, frame, _l=label_const, _v=value_step):
            if obj.label != _l:
                return _EMPTY
            return _v(obj, frame)

        return match_label_gated, label_const

    step_chain = tuple(steps)

    def match_keyed(obj, frame, _steps=step_chain, _v=value_step):
        for step in _steps:
            frame = step(obj, frame)
            if frame is None:
                return _EMPTY
        return _v(obj, frame)

    return match_keyed, label_const


# ---------------------------------------------------------------------------
# public compiled objects
# ---------------------------------------------------------------------------


class CompiledPattern:
    """One pattern lowered to closures over a :class:`SlotLayout`."""

    __slots__ = ("pattern", "layout", "match_keyed", "label_const")

    def __init__(
        self, pattern: Pattern, layout: SlotLayout | None = None
    ) -> None:
        self.pattern = pattern
        self.layout = layout or SlotLayout(
            sorted(pattern_variables(pattern)), pattern_params(pattern)
        )
        self.match_keyed, self.label_const = _compile_matcher(
            pattern, self.layout
        )

    def match_frames(self, obj: OEMObject, frame: tuple | None = None):
        """All solution frames for one object (choice keys dropped)."""
        if frame is None:
            frame = self.layout.empty_frame
        solutions = self.match_keyed(obj, frame)
        if not solutions:
            return _EMPTY
        return [found for found, _key in solutions]

    def match(
        self, obj: OEMObject, bindings: Bindings = EMPTY_BINDINGS
    ) -> list[Bindings]:
        """Drop-in equivalent of :func:`repro.msl.matcher.match_pattern`."""
        frame = self.layout.seed(bindings)
        return [
            self.layout.to_bindings(found, bindings)
            for found, _key in self.match_keyed(obj, frame)
        ]

    def match_forest(
        self,
        roots: Iterable[OEMObject],
        bindings: Bindings = EMPTY_BINDINGS,
        any_level: bool = False,
    ) -> list[Bindings]:
        """Equivalent of :func:`~repro.msl.matcher.match_against_forest`."""
        frame = self.layout.seed(bindings)
        candidates = walk(roots) if any_level else roots
        results: list[Bindings] = []
        layout = self.layout
        match_keyed = self.match_keyed
        for obj in candidates:
            for found, _key in match_keyed(obj, frame):
                results.append(layout.to_bindings(found, bindings))
        return results

    def match_all(
        self,
        roots: Iterable[OEMObject],
        bindings: Bindings = EMPTY_BINDINGS,
    ) -> list[Bindings]:
        """Equivalent of :func:`~repro.msl.matcher.match_all` (deduped)."""
        frame = self.layout.seed(bindings)
        names = self.layout.names
        fast = not len(bindings)
        seen: set[tuple] = set()
        results: list[Bindings] = []
        for obj in roots:
            for found, _key in self.match_keyed(obj, frame):
                if fast:
                    # layout names are sorted, so this is Bindings.key()
                    key = tuple(
                        (name, value_key(value))
                        for name, value in zip(names, found)
                        if value is not UNBOUND
                    )
                    if key not in seen:
                        seen.add(key)
                        results.append(self.layout.to_bindings(found))
                else:
                    env = self.layout.to_bindings(found, bindings)
                    key = env.key()
                    if key not in seen:
                        seen.add(key)
                        results.append(env)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledPattern({self.pattern})"


# ---------------------------------------------------------------------------
# compiled head instantiation
# ---------------------------------------------------------------------------
#
# The same compile/run split applied to virtual-object creation: a rule
# head is lowered once, per slot layout, to closures that read binding
# rows positionally — no per-row ``Bindings`` dict, no per-row AST
# dispatch, and (for the exact atom types) no re-validation inside
# ``OEMObject.__init__``.  This is the one production head builder:
# ``ConstructorNode`` builds every mediator result object with it, and
# :meth:`CompiledRule.build` every object a source or the
# materialization route derives.
# :func:`repro.msl.substitute.instantiate_head_item` is the reference
# the builders are checked against, and runs only in tests.
#
# Equivalence contract: same objects (labels, types, checked values),
# same oid-generator call sequence (label, oid tick, type, value, set
# children in written order), same duplicate elimination, same errors
# with the same messages after the same ticks.  Every head shape
# compiles: one whose reference behaviour is an error compiles to a
# builder that raises that error at that slot.

#: Exact Python types whose inferred OEM type and checked value are
#: knowable without running ``infer_type``/``_check_atom``.  Keyed by
#: exact type, so ``bool``-before-``int`` needs no ordering and
#: subclasses fall through to the reference constructor.
_ATOM_TYPE_NAMES: dict[type, str] = {
    str: "string",
    bool: "boolean",
    int: "integer",
    float: "real",  # float(v) is v for exact floats: no coercion needed
    bytes: "bytes",
    type(None): "null",
}

_object_setattr = object.__setattr__


def _fast_object(
    label: str, type_: str, value: object, oid: Oid | None
) -> OEMObject:
    """Construct an OEM object whose value is valid by construction: an
    atom of ``type_``, or a set of known OEM objects.  The label check
    and the late oid allocation are ``OEMObject.__init__``'s."""
    if not label:
        raise OEMError(f"label must be a non-empty string, got {label!r}")
    if oid is None:
        oid = fresh_oid()
    obj = OEMObject.__new__(OEMObject)
    _object_setattr(obj, "oid", oid)
    _object_setattr(obj, "label", label)
    _object_setattr(obj, "type", type_)
    _object_setattr(obj, "value", value)
    _object_setattr(obj, "_hash", None)
    _object_setattr(obj, "_skey", None)
    return obj


def _raise(message: str):
    """A reader or builder that raises the reference's error."""

    def fail(*_args, _m=message):
        raise MSLInstantiationError(_m)

    return fail


def _compile_slot_read(term: Term, index: Mapping[str, int], slot: str):
    """Accessor ``row -> slot value`` for a head slot term.

    It raises what the reference's ``_slot_atom`` raises: for a variable
    that is anonymous, outside the row layout or :data:`UNBOUND` in the
    row, for a parameter with no value, and for a term no slot holds.
    """
    if isinstance(term, Const):
        return lambda row, _v=term.value: _v
    if isinstance(term, Var):
        message = f"unbound variable {term} in head {slot} slot"
        position = None if term.is_anonymous else index.get(term.name)
    elif isinstance(term, Param):
        # a lifted constant rides in the row, in a column named as the
        # parameter prints (see ConstructorNode)
        message = f"no value supplied for parameter {term}"
        position = index.get(str(term))
    else:
        return _raise(f"invalid head {slot} term {term}")
    if position is None:
        return _raise(message)

    def read(row, _p=position, _m=message):
        value = row[_p]
        if value is UNBOUND:
            raise MSLInstantiationError(_m)
        return value

    return read


def _compile_string_slot(term: Term, index: Mapping[str, int], slot: str):
    """Accessor ``row -> str`` for a head label or type slot."""
    if isinstance(term, Const) and isinstance(term.value, str):
        return lambda row, _v=term.value: _v

    def read_string(row, _r=_compile_slot_read(term, index, slot), _s=slot):
        value = _r(row)
        if not isinstance(value, str):
            raise MSLInstantiationError(
                f"head {_s} evaluated to non-string {value!r}"
            )
        return value

    return read_string


def _compile_head_oid(term: Term | None, index: Mapping[str, int]):
    """Lower a head oid term to ``(row, oidgen) -> Oid | None``."""
    if term is None:
        def generated(row, oidgen):
            # with no generator the object allocates a fresh synthetic
            # oid when it is constructed, after its children
            return oidgen() if oidgen is not None else None

        return generated
    if isinstance(term, SemOidTerm):
        readers = tuple(
            (arg, _compile_slot_read(arg, index, "oid")) for arg in term.args
        )

        def semantic(row, oidgen, _readers=readers, _f=term.functor):
            args = []
            for arg, reader in _readers:
                value = reader(row)
                if isinstance(value, (OEMObject, tuple)):
                    raise MSLInstantiationError(
                        f"semantic oid argument {arg} bound to a non-atom"
                    )
                args.append(value)
            return SemanticOid(_f, args)

        return semantic

    def plain(
        row, oidgen, _r=_compile_slot_read(term, index, "oid"), _t=term
    ):
        value = _r(row)
        if isinstance(value, Oid):
            return value
        if isinstance(value, str):
            return Oid(value)
        raise MSLInstantiationError(
            f"head oid term {_t} bound to {value!r}"
        )

    return plain


def _compile_build_object(pattern: Pattern, index: Mapping[str, int]):
    """Lower a head pattern to ``(row, oidgen) -> OEMObject``.

    Slot evaluation order matches ``_build_object``: label, oid (the
    oid-generator tick), type, then value — with set children built in
    written order, each taking its own generator ticks.
    """
    get_label = _compile_string_slot(pattern.label, index, "label")
    build_oid = _compile_head_oid(pattern.oid, index)
    get_type = None
    if pattern.type is not None:
        get_type = _compile_string_slot(pattern.type, index, "type")
    value = pattern.value
    if isinstance(value, SetPattern):
        # members in written order: (None, build) for a built child or
        # an error, (var, position) for a spliced variable
        specs = []
        items: list = list(value.items)
        if value.rest is not None and value.rest.conditions:
            specs.append((None, _raise(
                "conditions on a Rest variable are not allowed in a rule"
                " head"
            )))
            items = []
        elif value.rest is not None:
            # head semantics: '{a b | R}' splices R's members in
            items.append(VarItem(value.rest.var))
        for item in items:
            if isinstance(item, PatternItem) and item.descendant:
                specs.append((None, _raise(
                    "a descendant item ('..') is not allowed in a rule head"
                )))
            elif isinstance(item, PatternItem):
                specs.append(
                    (None, _compile_build_object(item.pattern, index))
                )
            elif item.var.is_anonymous or item.var.name not in index:
                specs.append((None, _raise(
                    f"unbound variable {item.var} inside head braces"
                )))
            else:
                specs.append((item.var, index[item.var.name]))

        def build_set(
            row, oidgen, _gl=get_label, _go=build_oid, _gt=get_type,
            _specs=tuple(specs),
        ):
            label = _gl(row)
            oid = _go(row, oidgen)
            if _gt is not None:
                _gt(row)  # checked, then ignored: a set is a set
            children: list[OEMObject] = []
            for var, payload in _specs:
                if var is None:
                    children.append(payload(row, oidgen))
                    continue
                bound = row[payload]
                if isinstance(bound, tuple):
                    children.extend(bound)
                elif isinstance(bound, OEMObject):
                    children.append(bound)
                elif bound is UNBOUND:
                    raise MSLInstantiationError(
                        f"unbound variable {var} inside head braces"
                    )
                else:
                    raise MSLInstantiationError(
                        f"variable {var} inside head braces is bound to"
                        f" the atom {bound!r}; only objects and sets can"
                        f" be spliced in"
                    )
            return _fast_object(
                label, SET_TYPE, tuple(eliminate_duplicates(children)), oid
            )

        return build_set
    named = isinstance(value, Var) and not value.is_anonymous
    if not (named and value.name in index):
        # a constant, a parameter, or a shape whose reading raises
        def build_read(
            row, oidgen, _gl=get_label, _go=build_oid, _gt=get_type,
            _r=_compile_slot_read(value, index, "value"),
        ):
            label = _gl(row)
            oid = _go(row, oidgen)
            type_ = None if _gt is None else _gt(row)
            value = _r(row)
            if type_ is None:
                type_name = _ATOM_TYPE_NAMES.get(type(value))
                if type_name is not None:
                    return _fast_object(label, type_name, value, oid)
            return OEMObject(label, value, type_, oid)

        return build_read

    def build_var(
        row, oidgen, _gl=get_label, _go=build_oid, _gt=get_type,
        _p=index[value.name], _v=value,
    ):
        label = _gl(row)
        oid = _go(row, oidgen)
        type_ = None if _gt is None else _gt(row)
        bound = row[_p]
        if type_ is None:
            cls = type(bound)
            if cls is OEMObject:
                return _fast_object(label, SET_TYPE, (bound,), oid)
            if cls is not tuple:
                type_name = _ATOM_TYPE_NAMES.get(cls)
                if type_name is not None:
                    return _fast_object(label, type_name, bound, oid)
        # subclasses, Oids, declared types: reference dispatch
        if isinstance(bound, tuple):
            return OEMObject(label, bound, SET_TYPE, oid)
        if isinstance(bound, OEMObject):
            return OEMObject(label, (bound,), SET_TYPE, oid)
        if isinstance(bound, Oid):
            return OEMObject(label, bound.text, type_, oid)
        if bound is UNBOUND:
            raise MSLInstantiationError(
                f"unbound variable {_v} in head value slot"
            )
        return OEMObject(label, bound, type_, oid)

    return build_var


def compile_head_item(
    item: object, columns: "Sequence[str] | dict[str, int]"
):
    """Lower one rule-head item to ``build(row, oidgen) -> [OEMObject]``.

    ``columns`` names the positions of the binding rows the builder will
    read: the constructor's projected column layout, or a name →
    register mapping over a frame.  Every item compiles, and the builder
    reproduces :func:`repro.msl.substitute.instantiate_head_item`
    bit-for-bit, errors included; a variable outside ``columns``, or
    :data:`UNBOUND` in a row, is an unbound one.
    """
    index = columns if isinstance(columns, dict) else {
        name: i for i, name in enumerate(columns)
    }
    if isinstance(item, Var):
        if item.is_anonymous or item.name not in index:
            return _raise(f"unbound head variable {item}")

        def build_bare(row, oidgen, _p=index[item.name], _i=item):
            bound = row[_p]
            if isinstance(bound, OEMObject):
                return [bound]
            if isinstance(bound, tuple):
                return list(bound)
            if bound is UNBOUND:
                raise MSLInstantiationError(f"unbound head variable {_i}")
            raise MSLInstantiationError(
                f"head variable {_i} bound to atom {bound!r};"
                f" wrap it in a pattern to emit it as an object"
            )

        return build_bare

    def build_pattern(row, oidgen, _b=_compile_build_object(item, index)):
        return [_b(row, oidgen)]

    return build_pattern


class CompiledRule:
    """One rule lowered to a register machine over frames.

    ``evaluate`` replicates :func:`repro.msl.evaluate.evaluate_rule`
    bit-for-bit: same condition schedule, same solution order, same
    projection/dedup, same oid-generator call sequence, same errors.
    """

    __slots__ = (
        "rule",
        "registry",
        "layout",
        "steps",
        "leftover",
        "projection",
        "params",
        "template",
        "accepted",
        "carried",
        "builders",
    )

    def __init__(
        self, rule: Rule, registry: "ExternalRegistry | None" = None
    ) -> None:
        self.rule = rule
        self.registry = registry
        # the constants of one call, for a rule compiled as a template
        # (see bound()); a rule compiled as it stands has none
        self.params: "Mapping[str, object] | None" = None
        # the compiled rule the cache holds for this shape (bound()
        # twins point back at it), and what a wrapper remembers there:
        # the capability that checked and accepted the shape, if any,
        # and how it reads the head's columns out of a frame; and the
        # head builders (see build())
        self.template = self
        self.accepted: object = None
        self.carried: object = None
        self.builders: tuple | None = None
        names: set[str] = set(head_variables(rule.head))
        for condition in rule.tail:
            names |= condition_variables(condition)
        layout = SlotLayout(sorted(names), rule_params(rule))
        self.layout = layout

        ordered, leftover = schedule_conditions(rule, registry)
        self.leftover = tuple(leftover)
        steps = []
        for condition in ordered:
            if isinstance(condition, PatternCondition):
                steps.append(self._compile_pattern_step(condition, layout))
            elif isinstance(condition, ExternalCall):
                steps.append(self._compile_external_step(condition, layout))
            else:
                steps.append(
                    self._compile_comparison_step(condition, layout)
                )
        self.steps = tuple(steps)

        needed = head_variables(rule.head)
        self.projection = tuple(
            sorted((name, layout.index[name]) for name in needed)
        )

    @staticmethod
    def _compile_pattern_step(
        condition: PatternCondition, layout: SlotLayout
    ):
        compiled = CompiledPattern(condition.pattern, layout)
        match_keyed = compiled.match_keyed
        source = condition.source

        def step(frames, forests, registry, _m=match_keyed, _s=source):
            forest = forests.get(_s)
            if forest is None:
                raise MSLSemanticError(
                    f"no data supplied for source {_s!r}"
                )
            out = []
            append = out.append
            for frame in frames:
                for obj in forest:
                    for found, _key in _m(obj, frame):
                        append(found)
            return out

        return step

    @staticmethod
    def _compile_external_step(call: ExternalCall, layout: SlotLayout):
        # argument plan: ('const', value) | ('var', register) | ('skip',)
        specs = []
        for arg in call.args:
            if isinstance(arg, Const):
                specs.append(("const", arg.value))
            elif isinstance(arg, Var) and not arg.is_anonymous:
                specs.append(("var", layout.register(arg.name)))
            else:
                specs.append(("skip", None))
        specs_t = tuple(specs)
        name = call.name

        def step(frames, forests, registry, _specs=specs_t, _n=name):
            out = []
            for frame in frames:
                args: list[object] = []
                available: list[bool] = []
                for kind, payload in _specs:
                    if kind == "const":
                        args.append(payload)
                        available.append(True)
                    elif kind == "var":
                        bound = frame[payload]
                        if bound is UNBOUND:
                            args.append(None)
                            available.append(False)
                        else:
                            args.append(bound)
                            available.append(True)
                    else:
                        args.append(None)
                        available.append(False)
                for full in registry.evaluate(_n, args, available):
                    result = frame
                    for (kind, payload), value in zip(_specs, full):
                        if kind == "var":
                            result = _bind(result, payload, value)
                            if result is None:
                                break
                        elif kind == "const" and payload != value:
                            result = None
                            break
                    if result is not None:
                        out.append(result)
            return out

        return step

    @staticmethod
    def _compile_comparison_step(
        comparison: Comparison, layout: SlotLayout
    ):
        def accessor(term: Term):
            if isinstance(term, Const):
                value = term.value
                return lambda frame, _v=value: (True, _v)
            register = None
            if isinstance(term, Var) and not term.is_anonymous:
                register = layout.register(term.name)
            elif isinstance(term, Param):
                register = layout.index.get(str(term))
            if register is None:
                return lambda frame: (False, None)

            def read(frame, _r=register):
                value = frame[_r]
                if value is UNBOUND:
                    return False, None
                return True, value

            return read

        left = accessor(comparison.left)
        right = accessor(comparison.right)
        op = comparison.op

        def step(
            frames, forests, registry,
            _l=left, _r=right, _op=op, _c=comparison,
        ):
            out = []
            for frame in frames:
                left_ok, left_value = _l(frame)
                right_ok, right_value = _r(frame)
                if not (left_ok and right_ok):
                    raise MSLSemanticError(
                        f"comparison {_c} evaluated with unbound operand"
                    )
                if compare_values(_op, left_value, right_value):
                    out.append(frame)
            return out

        return step

    def evaluate(
        self,
        forests: Mapping[str | None, Sequence[OEMObject]],
        registry: "ExternalRegistry | None" = None,
        oidgen: OidGenerator | None = None,
        check: bool = True,
    ) -> list[OEMObject]:
        """Drop-in equivalent of :func:`repro.msl.evaluate.evaluate_rule`:
        :meth:`frames`, then :meth:`build`."""
        return self.build(self.frames(forests, registry, check), oidgen)

    def frames(
        self,
        forests: Mapping[str | None, Sequence[OEMObject]],
        registry: "ExternalRegistry | None" = None,
        check: bool = True,
    ) -> list[tuple]:
        """The bindings the head is built from: one frame per distinct
        projection onto the head variables (footnote 3), in solution
        order.  A head variable sits at ``layout.index[name]``."""
        if check:
            check_rule(self.rule)
        if registry is None:
            registry = self.registry
        frames: list[tuple] = [self.layout.frame_for(self.params)]
        for step in self.steps:
            frames = step(frames, forests, registry)
            if not frames:
                return []
        if self.leftover:
            raise unschedulable_error(self.leftover)
        projection = self.projection
        seen: set[tuple] = set()
        survivors: list[tuple] = []
        for frame in frames:
            key = tuple(
                (name, value_key(frame[register]))
                for name, register in projection
                if frame[register] is not UNBOUND
            )
            if key not in seen:
                seen.add(key)
                survivors.append(frame)
        return survivors

    def build(
        self, frames: Sequence[tuple], oidgen: OidGenerator | None = None
    ) -> list[OEMObject]:
        """One instantiation of the head per frame of :meth:`frames`,
        structural duplicates eliminated.  The head builders read the
        head variables' registers; they are compiled once, on the
        template (lifting leaves heads alone), for all its twins."""
        template = self.template
        builders = template.builders
        if builders is None:
            registers = dict(template.projection)
            builders = template.builders = tuple(
                compile_head_item(item, registers)
                for item in template.rule.head
            )
        generator = oidgen or OidGenerator("&v")
        objects: list[OEMObject] = []
        for frame in frames:
            for build in builders:
                objects.extend(build(frame, generator))
        return eliminate_duplicates(objects)

    def bound(self, rule: Rule, params: "Mapping[str, object]") -> "CompiledRule":
        """This compiled template as the compiled form of ``rule``, the
        rule it becomes under ``params``: the same steps, started from
        a frame holding the call's constants."""
        twin = CompiledRule.__new__(CompiledRule)
        twin.rule = rule
        twin.registry = self.registry
        twin.layout = self.layout
        twin.steps = self.steps
        twin.leftover = self.leftover
        twin.projection = self.projection
        twin.params = params
        twin.template = self
        return twin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledRule({self.rule})"


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------


class CompileCache:
    """Bounded memo of compiled rules and patterns (FIFO eviction).

    Both the mediator and each wrapper hold one: repeated queries (and
    every re-execution of a cached plan) skip compilation entirely, and
    so does a query of a shape seen before with other constants (see
    :meth:`rule`).  AST nodes are frozen dataclasses, so rules and
    patterns hash by structure, never by their text; an unhashable rule
    (never produced by the parser) simply bypasses the cache.
    """

    __slots__ = (
        "registry",
        "max_entries",
        "_rules",
        "_patterns",
        "_lock",
        "hits",
        "misses",
    )

    def __init__(
        self,
        registry: "ExternalRegistry | None" = None,
        max_entries: int = 512,
    ) -> None:
        self.registry = registry
        self.max_entries = max_entries
        self._rules: dict[Rule, CompiledRule] = {}
        self._patterns: dict[Pattern, CompiledPattern] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def rule(
        self, rule: Rule, compile: bool = True
    ) -> "CompiledRule | None":
        """The compiled form of ``rule``, compiled once per *shape*.

        The memo is keyed by the rule with its constants lifted out
        (:func:`repro.msl.lift.lift`; ``rule`` must not be a lifted
        template itself), so a query that differs from an earlier one
        only in its constants is a hit; what comes back is the shared
        compiled template bound to this rule's constants.  With
        ``compile=False`` a shape not seen before is not compiled (nor
        counted): the answer is ``None``.
        """
        try:
            template, constants = lift(rule)
            with self._lock:
                cached = self._rules.get(template)
                if cached is not None:
                    self.hits += 1
                elif not compile:
                    return None
                else:
                    self.misses += 1
        except TypeError:
            return CompiledRule(rule, self.registry) if compile else None
        if cached is None:
            cached = CompiledRule(template, self.registry)
            with self._lock:
                if len(self._rules) >= self.max_entries:
                    self._rules.pop(next(iter(self._rules)))
                self._rules[template] = cached
        if not constants:
            return cached
        if cached.leftover:
            # evaluating it can only raise, and the message quotes the
            # conditions: compile the rule as written
            return CompiledRule(rule, self.registry)
        return cached.bound(
            rule, dict(zip(param_names(len(constants)), constants))
        )

    def pattern(self, pattern: Pattern) -> CompiledPattern:
        try:
            with self._lock:
                cached = self._patterns.get(pattern)
                if cached is not None:
                    self.hits += 1
                    return cached
                self.misses += 1
        except TypeError:
            return CompiledPattern(pattern)
        compiled = CompiledPattern(pattern)
        with self._lock:
            if len(self._patterns) >= self.max_entries:
                self._patterns.pop(next(iter(self._patterns)))
            self._patterns[pattern] = compiled
        return compiled

    def stats(self) -> dict[str, int]:
        return {
            "rules": len(self._rules),
            "patterns": len(self._patterns),
            "hits": self.hits,
            "misses": self.misses,
        }


def compile_pattern(
    pattern: Pattern, layout: SlotLayout | None = None
) -> CompiledPattern:
    """Compile one pattern (convenience constructor)."""
    return CompiledPattern(pattern, layout)


def compile_rule(
    rule: Rule, registry: "ExternalRegistry | None" = None
) -> CompiledRule:
    """Compile one rule (convenience constructor)."""
    return CompiledRule(rule, registry)


def evaluate_rule_compiled(
    rule: Rule,
    forests: Mapping[str | None, Sequence[OEMObject]],
    registry: "ExternalRegistry | None" = None,
    oidgen: OidGenerator | None = None,
    check: bool = True,
    cache: CompileCache | None = None,
) -> list[OEMObject]:
    """Compiled drop-in for :func:`repro.msl.evaluate.evaluate_rule`."""
    compiled = cache.rule(rule) if cache is not None else CompiledRule(
        rule, registry
    )
    return compiled.evaluate(forests, registry, oidgen, check=check)

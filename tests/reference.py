"""A planner-free oracle for mediator answers: materialize, then match.

The interpretive evaluator (:func:`repro.msl.evaluate.evaluate_rule`) is
the reference implementation of MSL's semantics; no production path
outside :mod:`repro.msl` calls it.  The helpers here compute what a
mediator *should* answer without its view expander, optimizer, plan,
engine or compiled matcher: every specification rule evaluated over the
sources' whole exports, duplicates eliminated, semantic oids fused — the
shape of ``benchmarks/e2e/workloads.py::reference_export`` — and a query
then matched against that materialized view, its answer finished the
same way (an answer holds no two objects with one semantic oid).

Reference objects carry the reference's own oids, so comparisons go
through :func:`canonical`, which ignores oids and order.

:class:`OEMOnly` is the reference for the source protocol: a source
that answers every query with objects, which the mediator must then
match for their bindings itself.

:func:`reference_evaluate` is the reference for external predicates:
an implementation selected for every call, then the post-filter loop.
"""

from collections import Counter

from repro.external.registry import ExternalFunctionError, _normalise
from repro.mediator.fusion import fuse_objects, has_semantic_oids
from repro.msl.ast import PatternCondition
from repro.msl.evaluate import evaluate_rule
from repro.msl.parser import parse_query
from repro.oem.compare import eliminate_duplicates, structural_key
from repro.oem.oid import OidGenerator
from repro.wrappers import Source


class OEMOnly(Source):
    """``inner`` speaking OEM only: its ``answer`` and ``export``, and
    what planning reads (capability, schema facts)."""

    def __init__(self, inner: Source) -> None:
        self.inner = inner
        self.name = inner.name

    @property
    def capability(self):
        return self.inner.capability

    @property
    def schema_facts(self):
        return self.inner.schema_facts

    def answer(self, query):
        return self.inner.answer(query)

    def export(self):
        return self.inner.export()


def reference_evaluate(registry, predicate, args, available):
    """``registry.evaluate(predicate, args, available)`` with no
    resolution kept: :meth:`~ExternalRegistry.select` per call, then
    each result checked against the available arguments and filled in
    for the others."""
    impl = registry.select(predicate, available)
    call_args = [args[i] for i in impl.bound_positions]
    try:
        raw = impl.function(*call_args)
    except Exception as exc:
        raise ExternalFunctionError(
            f"external function {impl.function_name!r} raised: {exc}"
        ) from exc
    free = impl.free_positions
    for out in _normalise(raw, len(free), impl):
        full = list(args)
        ok = True
        for position, value in zip(free, out):
            if available[position]:
                if full[position] != value:
                    ok = False
                    break
            else:
                full[position] = value
        if ok:
            yield tuple(full)


def canonical(objects) -> Counter:
    """The answer as a multiset of structural keys: equal iff the
    answers hold the same objects up to oids and order."""
    return Counter(map(structural_key, objects))


def reference_export(mediator, oid_prefix: str = "&ref_") -> list:
    """The mediator's view, straight from the MSL semantics (pass the
    mediator's own ``oid_prefix`` to compare oids too)."""
    rules = mediator.specification.rules
    names = {
        condition.source
        for rule in rules
        for condition in rule.tail
        if isinstance(condition, PatternCondition)
    }
    forests = {
        name: list(mediator.sources.resolve(name).export()) for name in names
    }
    oidgen = OidGenerator(oid_prefix)
    objects: list = []
    for rule in rules:
        objects.extend(evaluate_rule(rule, forests, mediator.externals, oidgen))
    return _finished(objects)


def reference_answer(mediator, query: str) -> list:
    """``query`` (addressed to the mediator's view) over the reference
    export."""
    view = reference_export(mediator)
    return _finished(
        evaluate_rule(
            parse_query(query),
            {mediator.name: view, None: view},
            mediator.externals,
            OidGenerator("&ref_"),
        )
    )


def _finished(objects: list) -> list:
    """Duplicates eliminated, then semantic oids fused (footnote 9 and
    Section 2), as two separate steps."""
    objects = eliminate_duplicates(objects)
    if has_semantic_oids(objects):
        objects = fuse_objects(objects)
    return objects

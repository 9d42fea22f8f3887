"""Plan observability: the EXPLAIN ANALYZE recorder and report.

MedMaker §3.5 wants the optimizer to "build its own statistics
database that is based on results of previous queries"; this module is
the *observation* half of that loop.  A :class:`QueryInsight`
subscribes to the event stream of one operation
(:mod:`repro.mediator.events`) and records, per plan node — including
the constituents inside fused pipeline chains — the optimizer's
estimated cardinality next to the actual rows in/out, wall time, and
source-call latency, plus any mid-query misestimate events, the stage
re-rank decisions they triggered, and the whole-source exports a
materialized answer made.  :class:`AnalyzeReport` wraps a finished
insight together with the operation's answer: ``render()`` is the
annotated plan tree (with a misestimate-factor column) that
``--explain-analyze`` prints, ``to_dict()``/``to_json()`` the
structured export CI validates.

The module is deliberately import-light (plan nodes are duck-typed via
``estimated_rows`` / ``estimate_key`` / ``fusion_width``), so
:mod:`repro.obs` never imports the mediator layer.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterator, Sequence

__all__ = ["AnalyzeReport", "NodeObservation", "QueryInsight"]

#: Actual-vs-estimate floor: zero-row stages still produce a finite
#: q-error (mirrors ``repro.mediator.statistics.qerror``).
_FLOOR = 0.5


def q_error(estimated: float, actual: float) -> float:
    est = max(float(estimated), _FLOOR)
    act = max(float(actual), _FLOOR)
    return est / act if est >= act else act / est


class NodeObservation:
    """One plan node's (or fused constituent's) analyze record."""

    __slots__ = (
        "key",
        "kind",
        "description",
        "stage",
        "inputs",
        "parent",
        "constituents",
        "estimated_rows",
        "estimate_key",
        "calls",
        "rows_in",
        "rows_out",
        "seconds",
        "latency",
        "misestimates",
    )

    def __init__(
        self,
        key: str,
        kind: str,
        description: str,
        stage: int,
        inputs: Sequence[str] = (),
        parent: "str | None" = None,
        estimated_rows: "float | None" = None,
        estimate_key: "tuple[str, str, str] | None" = None,
    ) -> None:
        self.key = key
        self.kind = kind
        self.description = description
        self.stage = stage
        self.inputs = tuple(inputs)
        self.parent = parent
        self.constituents: list[str] = []
        self.estimated_rows = estimated_rows
        self.estimate_key = estimate_key
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        self.seconds = 0.0
        self.latency = 0.0
        self.misestimates = 0

    @property
    def qerror(self) -> "float | None":
        """max(est/act, act/est), or ``None`` without an estimate."""
        if self.estimated_rows is None or not self.calls:
            return None
        return q_error(self.estimated_rows, self.rows_out)

    def misestimate_factor(self) -> str:
        """The rendered misestimate column: ``2.4x under`` style.

        ``under`` means the optimizer *under*-estimated (actual
        exceeded the estimate), the direction that triggers mid-query
        re-ranking; ``over`` the reverse; ``-`` when the node carries
        no estimate or never ran.
        """
        error = self.qerror
        if error is None:
            return "-"
        if error < 1.05:
            return "1.0x"
        direction = (
            "under"
            if self.rows_out > (self.estimated_rows or 0.0)
            else "over"
        )
        return f"{error:.1f}x {direction}"

    def to_dict(self) -> dict[str, Any]:
        estimate = None
        if self.estimate_key is not None:
            source, label, kind = self.estimate_key
            estimate = {"source": source, "label": label, "kind": kind}
        return {
            "key": self.key,
            "kind": self.kind,
            "description": self.description,
            "stage": self.stage,
            "inputs": list(self.inputs),
            "parent": self.parent,
            "constituents": list(self.constituents),
            "estimated_rows": self.estimated_rows,
            "estimate": estimate,
            "calls": self.calls,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
            "source_seconds": self.latency,
            "qerror": self.qerror,
            "misestimates": self.misestimates,
        }


class QueryInsight:
    """Per-operation plan observation sink (thread-safe).

    ``explain_analyze`` subscribes one insight to its operation's event
    stream: every executed operator (fused constituents too) arrives as
    a ``plan-node`` / ``pipeline-stage`` event, misestimates and
    re-rank decisions as events of their own, whole-source exports as
    ``source-call`` events.  Leaf queries finish on pool workers, hence
    the lock.
    """

    kinds = frozenset(
        {"plan-node", "pipeline-stage", "source-call", "misestimate", "rerank"}
    )
    opens = frozenset()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.nodes: list[NodeObservation] = []
        self._by_id: dict[int, NodeObservation] = {}
        self.misestimates: list[dict[str, Any]] = []
        self.reranks: list[dict[str, Any]] = []
        self.exports: list[dict[str, Any]] = []
        self.plans = 0

    # -- plan registration -------------------------------------------------

    def attach_plan(self, plan: Any, params: Any = None) -> None:
        """Register every node of ``plan`` (fused constituents too),
        described as it runs under ``params`` when it is a template's.

        Nodes are keyed ``"3"`` in :meth:`PhysicalPlan.describe`'s
        numbering; the constituents of a fused pipeline get dotted keys
        (``"3.1"``, ``"3.2"`` ...) and consecutive stage numbers
        starting at the container's — the same numbering deadline
        slicing sees, so fused and unfused analyze output line up.
        ``export()``-style operations may attach several plans; keys
        then continue ``p2:3`` to stay unique.
        """
        nodes = plan.nodes()
        numbers = {id(node): i for i, node in enumerate(nodes, 1)}
        starts: dict[int, int] = {}
        for start, group in plan.stage_starts():
            for node in group:
                starts[id(node)] = start
        with self._lock:
            self.plans += 1
            prefix = f"p{self.plans}:" if self.plans > 1 else ""
            for node in nodes:
                key = f"{prefix}{numbers[id(node)]}"
                record = self._register(
                    node,
                    key=key,
                    stage=starts[id(node)],
                    inputs=tuple(
                        f"{prefix}{numbers[id(child)]}"
                        for child in node.inputs
                    ),
                    params=params,
                )
                constituents = getattr(node, "nodes", None)
                if constituents and getattr(node, "fusion_width", 1) > 1:
                    for offset, member in enumerate(constituents, 1):
                        child = self._register(
                            member,
                            key=f"{key}.{offset}",
                            stage=starts[id(node)] + offset - 1,
                            parent=key,
                            params=params,
                        )
                        record.constituents.append(child.key)

    def _register(
        self,
        node: Any,
        key: str,
        stage: int,
        inputs: Sequence[str] = (),
        parent: "str | None" = None,
        params: Any = None,
    ) -> NodeObservation:
        record = NodeObservation(
            key=key,
            kind=type(node).__name__,
            description=node.describe(params),
            stage=stage,
            inputs=inputs,
            parent=parent,
            estimated_rows=getattr(node, "estimated_rows", None),
            estimate_key=getattr(node, "estimate_key", None),
        )
        self.nodes.append(record)
        self._by_id[id(node)] = record
        return record

    # -- observation -------------------------------------------------------

    def end(self, event: Any) -> None:
        """Fold one engine event into the report."""
        kind = event.kind
        attributes = event.attributes
        record = self._by_id.get(id(event.subject))
        with self._lock:
            if kind == "source-call":
                if attributes.get("export"):
                    self.exports.append(
                        {
                            "source": event.name,
                            "objects": attributes["objects"],
                            "seconds": event.seconds,
                        }
                    )
            elif kind == "rerank":
                stage, before, after = event.subject
                self.reranks.append(
                    {
                        "stage": stage,
                        "before": [self._key_of(node) for node in before],
                        "after": [self._key_of(node) for node in after],
                    }
                )
            elif kind == "misestimate":
                if record is not None:
                    record.misestimates += 1
                self.misestimates.append(
                    self._misestimate(event.subject, record, attributes)
                )
            elif record is not None:
                record.calls += 1
                record.rows_in += event.rows_in
                record.rows_out += attributes["rows_out"]
                record.seconds += event.seconds
                record.latency += event.latency

    def _misestimate(
        self, node: Any, record: "NodeObservation | None", attributes: dict
    ) -> dict[str, Any]:
        """One mid-query misestimate event and what was done about it."""
        key = node.estimate_key
        action = "noted (no statistics bucket to correct)"
        if key is not None:
            action = (
                f"recorded {attributes['correction']:.1f}x correction for"
                f" {key[0]}/{key[1]}; undispatched stages re-rank"
                " against it"
            )
        estimated = attributes["estimated_rows"]
        actual = attributes["actual_rows"]
        return {
            "node": record.key if record is not None else None,
            "description": (
                type(node).__name__ if record is None else record.description
            ),
            "estimated_rows": float(estimated),
            "actual_rows": int(actual),
            "qerror": q_error(estimated, actual),
            "action": action,
        }

    def _key_of(self, node: Any) -> str:
        record = self._by_id.get(id(node))
        return record.key if record is not None else type(node).__name__

    # -- views -------------------------------------------------------------

    def tree(self) -> Iterator[tuple[int, NodeObservation]]:
        """``(indent, record)`` pairs: plan order, constituents nested."""
        for record in self.nodes:
            yield (1, record) if record.parent is not None else (0, record)


class AnalyzeReport:
    """One EXPLAIN ANALYZE result: the answer plus its insight."""

    def __init__(
        self,
        query: str,
        insight: QueryInsight,
        objects: Sequence[Any],
        warnings: Sequence[Any] = (),
        seconds: float = 0.0,
    ) -> None:
        self.query = query
        self.insight = insight
        self.objects = list(objects)
        self.warnings = list(warnings)
        self.seconds = seconds

    def to_dict(self) -> dict[str, Any]:
        report = {
            "version": 1,
            "query": self.query,
            "seconds": self.seconds,
            "result_objects": len(self.objects),
            "warnings": len(self.warnings),
            "nodes": [record.to_dict() for record in self.insight.nodes],
            "misestimates": list(self.insight.misestimates),
            "reranks": list(self.insight.reranks),
        }
        if self.insight.exports:
            # present only for answers computed over materialized views
            report["source_exports"] = list(self.insight.exports)
        return report

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def render(self, width: int = 52) -> str:
        """The annotated plan tree ``--explain-analyze`` prints."""
        lines = [
            f"-- explain analyze: {self.query} --",
            f"{len(self.objects)} object(s) in {self.seconds * 1e3:.1f}ms;"
            f" {len(self.warnings)} warning(s)",
            "",
        ]
        header = (
            f"{'node':<{width}} {'est':>8} {'actual':>8} {'miss':>12}"
            f" {'rows_in':>8} {'time':>9} {'source':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        if not self.insight.nodes:
            lines.append("(no physical plan: answered by materialization)")
        for indent, record in self.insight.tree():
            label = f"{'  ' * indent}[{record.key}] {record.description}"
            if len(label) > width:
                label = label[: width - 1] + "…"
            est = (
                f"{record.estimated_rows:.0f}"
                if record.estimated_rows is not None
                else "-"
            )
            actual = str(record.rows_out) if record.calls else "-"
            lines.append(
                f"{label:<{width}} {est:>8} {actual:>8}"
                f" {record.misestimate_factor():>12}"
                f" {record.rows_in:>8}"
                f" {record.seconds * 1e3:>7.1f}ms"
                f" {record.latency * 1e3:>7.1f}ms"
            )
        if self.insight.exports:
            lines.append("")
            lines.append("source exports (materialized):")
            for export in self.insight.exports:
                lines.append(
                    f"  {export['source']}: {export['objects']} object(s)"
                    f" in {export['seconds'] * 1e3:.1f}ms"
                )
        if self.insight.misestimates:
            lines.append("")
            lines.append("misestimate events:")
            for event in self.insight.misestimates:
                lines.append(
                    f"  [{event['node']}] estimated"
                    f" {event['estimated_rows']:.0f}, actual"
                    f" {event['actual_rows']}"
                    f" ({event['qerror']:.1f}x) -> {event['action']}"
                )
        if self.insight.reranks:
            lines.append("")
            lines.append("re-rank decisions:")
            for decision in self.insight.reranks:
                before = ", ".join(decision["before"])
                after = ", ".join(decision["after"])
                lines.append(
                    f"  stage {decision['stage']}:"
                    f" [{before}] -> [{after}]"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"AnalyzeReport({len(self.objects)} object(s),"
            f" {len(self.insight.nodes)} node(s))"
        )

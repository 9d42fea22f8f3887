"""Plan observability: the EXPLAIN ANALYZE recorder and report.

MedMaker §3.5 wants the optimizer to "build its own statistics
database that is based on results of previous queries"; this module is
the *observation* half of that loop.  A :class:`QueryInsight`
subscribes to the event stream of one operation
(:mod:`repro.mediator.events`) and records, per plan node, the
optimizer's estimated cardinality next to the actual rows in/out, wall
time, and source-call latency, plus the nodes whose actual rows
exceeded the estimate by more than :data:`MISESTIMATE_FACTOR`, and the
whole-source exports a materialized answer made.  :class:`AnalyzeReport`
wraps a finished insight together with the operation's answer:
``render()`` is the annotated plan tree (with a misestimate-factor column) that
``--explain-analyze`` prints, ``to_dict()``/``to_json()`` the
structured export CI validates.

:func:`q_error` and :data:`MISESTIMATE_FACTOR` are the one definition
of "how wrong was an estimate" and "wrong enough to count": this
report, the telemetry counter, the statistics database's q-error
windows and the plan cache's drift check all read them.

The module is deliberately import-light (plan nodes are duck-typed via
``estimated_rows`` / ``estimate_key``), so
:mod:`repro.obs` never imports the mediator layer.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Sequence

__all__ = [
    "AnalyzeReport",
    "MISESTIMATE_FACTOR",
    "NodeObservation",
    "QueryInsight",
    "q_error",
    "underestimated",
]

#: How far actual rows may exceed an estimate before the node counts as
#: misestimated — and how far a statistic a remembered plan was costed
#: with may drift before the plan is made again.
MISESTIMATE_FACTOR = 4.0

#: Actual-vs-estimate floor: zero-row stages still produce a finite
#: q-error.
_FLOOR = 0.5


def q_error(estimated: float, actual: float) -> float:
    """The symmetric estimate-error factor ``max(est/act, act/est)``.

    Both sides are floored at 0.5 so empty results (actual 0) against a
    small estimate read as a bounded factor instead of infinity.
    """
    est = max(float(estimated), _FLOOR)
    act = max(float(actual), _FLOOR)
    return est / act if est >= act else act / est


def underestimated(estimated: float, actual: float) -> bool:
    """Did ``actual`` rows exceed the (floored) estimate by more than
    :data:`MISESTIMATE_FACTOR`?"""
    return actual > max(estimated, _FLOOR) * MISESTIMATE_FACTOR


class NodeObservation:
    """One plan node's analyze record."""

    __slots__ = (
        "key",
        "kind",
        "description",
        "stage",
        "inputs",
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
        estimated_rows: "float | None" = None,
        estimate_key: "tuple[str, str, str] | None" = None,
    ) -> None:
        self.key = key
        self.kind = kind
        self.description = description
        self.stage = stage
        self.inputs = tuple(inputs)
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
        exceeded the estimate), the direction the ``misestimates`` list
        reports; ``over`` the reverse; ``-`` when the node carries no
        estimate or never ran.
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
    stream: every executed operator arrives as a ``plan-node`` event,
    held against its estimate as it arrives; whole-source exports
    arrive as ``source-call`` events.  Leaf queries finish on pool
    workers, hence the lock.
    """

    kinds = frozenset({"plan-node", "source-call"})
    opens = frozenset()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.nodes: list[NodeObservation] = []
        self._by_id: dict[int, NodeObservation] = {}
        self.misestimates: list[dict[str, Any]] = []
        self.exports: list[dict[str, Any]] = []
        self.plans = 0

    # -- plan registration -------------------------------------------------

    def attach_plan(self, plan: Any, params: Any = None) -> None:
        """Register every node of ``plan``, described as it runs under
        ``params`` when it is a template's.

        Nodes are keyed ``"3"`` in :meth:`PhysicalPlan.describe`'s
        numbering and carry the stage number deadline slicing sees.
        ``export()``-style operations may attach several plans; keys
        then continue ``p2:3`` to stay unique.
        """
        nodes = plan.nodes()
        numbers = {id(node): i for i, node in enumerate(nodes, 1)}
        stage_of = {
            id(node): stage
            for stage, group in enumerate(plan.stages(), 1)
            for node in group
        }
        with self._lock:
            self.plans += 1
            prefix = f"p{self.plans}:" if self.plans > 1 else ""
            for node in nodes:
                record = NodeObservation(
                    key=f"{prefix}{numbers[id(node)]}",
                    kind=type(node).__name__,
                    description=node.describe(params),
                    stage=stage_of[id(node)],
                    inputs=tuple(
                        f"{prefix}{numbers[id(child)]}"
                        for child in node.inputs
                    ),
                    estimated_rows=getattr(node, "estimated_rows", None),
                    estimate_key=getattr(node, "estimate_key", None),
                )
                self.nodes.append(record)
                self._by_id[id(node)] = record

    # -- observation -------------------------------------------------------

    def end(self, event: Any) -> None:
        """Fold one engine event into the report."""
        attributes = event.attributes
        if event.kind == "source-call":
            if attributes.get("export"):
                with self._lock:
                    self.exports.append(
                        {
                            "source": event.name,
                            "objects": attributes["objects"],
                            "seconds": event.seconds,
                        }
                    )
            return
        node = event.subject
        rows = attributes["rows_out"]
        estimated = node.estimated_rows
        record = self._by_id.get(id(node))
        with self._lock:
            if record is not None:
                record.calls += 1
                record.rows_in += event.rows_in
                record.rows_out += rows
                record.seconds += event.seconds
                record.latency += event.latency
            if estimated is not None and underestimated(estimated, rows):
                if record is not None:
                    record.misestimates += 1
                self.misestimates.append(
                    {
                        "node": record.key if record is not None else None,
                        "description": (
                            type(node).__name__
                            if record is None
                            else record.description
                        ),
                        "estimated_rows": float(estimated),
                        "actual_rows": int(rows),
                        "qerror": q_error(estimated, rows),
                    }
                )


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
            "version": 3,
            "query": self.query,
            "seconds": self.seconds,
            "result_objects": len(self.objects),
            "warnings": len(self.warnings),
            "nodes": [record.to_dict() for record in self.insight.nodes],
            "misestimates": list(self.insight.misestimates),
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
        for record in self.insight.nodes:
            label = f"[{record.key}] {record.description}"
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
            lines.append(
                f"misestimates (actual > {MISESTIMATE_FACTOR:g}x estimate):"
            )
            for entry in self.insight.misestimates:
                lines.append(
                    f"  [{entry['node']}] estimated"
                    f" {entry['estimated_rows']:.0f}, actual"
                    f" {entry['actual_rows']} ({entry['qerror']:.1f}x)"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"AnalyzeReport({len(self.objects)} object(s),"
            f" {len(self.insight.nodes)} node(s))"
        )

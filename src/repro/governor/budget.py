"""Query budgets, cooperative cancellation, and their runtime enforcer.

A :class:`QueryBudget` states what one datamerge run may consume: a
wall-clock deadline for the whole run, per-table and total ceilings on
intermediate :class:`~repro.mediator.tables.BindingTable` rows, a cap
on constructed result objects, a cap on external-function calls, and
shape limits (nesting depth, answer size) for incoming OEM answers.

The :class:`QueryGovernor` is the per-run enforcer.  It is consulted

* at every plan-node boundary (``DatamergeEngine.execute``),
* on every row admitted to a governed binding table,
* before every source call (``ExecutionContext.send_query``), and
* around every external-function call (``ExternalPredNode``),

and reads time through the same injectable
:class:`~repro.reliability.clock.Clock` as the reliability layer, so
deadline tests never sleep.  Enforcement follows one of two modes:

* ``strict`` — the first violation raises a structured
  :class:`BudgetExceeded` naming the budget, the plan node, and the
  observed value against the limit;
* ``truncate`` — the offending table is clipped, the run finishes, and
  a :class:`BudgetWarning` (one per budget and node) is attached to the
  result set, so callers can tell a complete answer from a clipped one.

A :class:`CancellationToken` rides along: ``token.cancel()`` from any
thread makes the next governor checkpoint raise
:class:`QueryCancelled` — cooperative cancellation, checked at the
same points as the budgets.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.reliability.clock import Clock, MonotonicClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.governor.sanitizer import AnswerSanitizer
    from repro.mediator.tables import BindingTable
    from repro.oem.model import OEMObject

__all__ = [
    "BudgetExceeded",
    "BudgetWarning",
    "CancellationToken",
    "QueryBudget",
    "QueryCancelled",
    "QueryGovernor",
]


class QueryCancelled(Exception):
    """The run's :class:`CancellationToken` was cancelled."""

    def __init__(self, reason: str = "query cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


class BudgetExceeded(Exception):
    """A strict-mode budget violation.

    Carries which budget was violated (``budget``), where
    (``node`` — the describing plan node, or ``None`` outside plan
    execution), and the observed value against the limit, so callers
    can react programmatically instead of parsing the message.
    """

    def __init__(
        self,
        budget: str,
        observed: float,
        limit: float,
        node: str | None = None,
    ) -> None:
        where = f" at node [{node}]" if node else ""
        super().__init__(
            f"query budget {budget!r} exceeded{where}:"
            f" observed {observed:g}, limit {limit:g}"
        )
        self.budget = budget
        self.observed = observed
        self.limit = limit
        self.node = node


@dataclass(frozen=True)
class BudgetWarning:
    """A truncate-mode note that part of the answer was clipped.

    Carried on :class:`~repro.client.result.ResultSet.warnings` next to
    the reliability layer's ``SourceWarning``s; an answer with budget
    warnings is *partial* — correct, but possibly missing results.
    """

    budget: str
    message: str
    node: str | None = None
    observed: float = 0
    limit: float = 0
    count: int = 1

    def signature(self) -> tuple:
        """Aggregation key: identical budget violations collapse."""
        return (type(self).__name__, self.budget, self.node)

    def render(self) -> str:
        where = f" at node [{self.node}]" if self.node else ""
        suffix = f" [x{self.count}]" if self.count > 1 else ""
        return f"budget {self.budget!r}{where}: {self.message}{suffix}"


@dataclass(frozen=True)
class QueryBudget:
    """Resource ceilings for one datamerge run.  ``None`` = unlimited.

    * ``deadline`` — wall-clock seconds for the whole run (engine time
      between source calls included, unlike ``RetryPolicy.deadline``
      which only bounds one retry loop);
    * ``max_rows_per_table`` — rows any single intermediate
      :class:`BindingTable` may hold (bounds one cross-product);
    * ``max_total_rows`` — intermediate rows materialized across the
      whole run (bounds overall memory);
    * ``max_result_objects`` — objects in the final answer;
    * ``max_external_calls`` — external-function invocations;
    * ``max_depth`` — OEM nesting depth accepted from a source answer;
    * ``max_answer_objects`` — total objects (sub-objects included)
      accepted per source answer.
    """

    deadline: float | None = None
    max_rows_per_table: int | None = None
    max_total_rows: int | None = None
    max_result_objects: int | None = None
    max_external_calls: int | None = None
    max_depth: int | None = None
    max_answer_objects: int | None = None

    def __post_init__(self) -> None:
        for name in (
            "deadline",
            "max_rows_per_table",
            "max_total_rows",
            "max_result_objects",
            "max_external_calls",
            "max_depth",
            "max_answer_objects",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def unlimited(self) -> bool:
        return all(
            getattr(self, f.name) is None
            for f in self.__dataclass_fields__.values()
        )

    def describe(self) -> str:
        """One-line summary for ``Mediator.explain``."""
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline:g}s")
        for name in (
            "max_rows_per_table",
            "max_total_rows",
            "max_result_objects",
            "max_external_calls",
            "max_depth",
            "max_answer_objects",
        ):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return ", ".join(parts) if parts else "unlimited"


class CancellationToken:
    """A thread-safe-enough flag for cooperative query cancellation.

    ``cancel()`` may be called from any thread (setting an attribute is
    atomic in CPython); the governor polls the token at node
    boundaries, row admissions, and source/external-call sites, and
    raises :class:`QueryCancelled` at the next checkpoint.
    """

    __slots__ = ("_cancelled", "_reason")

    def __init__(self) -> None:
        self._cancelled = False
        self._reason = "query cancelled"

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self, reason: str = "query cancelled") -> None:
        self._reason = reason
        self._cancelled = True

    def raise_if_cancelled(self) -> None:
        if self._cancelled:
            raise QueryCancelled(self._reason)


class QueryGovernor:
    """Per-run budget enforcement state.

    One governor lives for one user-visible mediator operation (a
    ``query``/``answer``/``export`` call, nested materialization
    included).  Counters are public so tests and benchmarks can assert
    exactly what a run consumed.
    """

    def __init__(
        self,
        budget: QueryBudget | None = None,
        mode: str = "strict",
        clock: Clock | None = None,
        token: CancellationToken | None = None,
        warnings: list | None = None,
        sanitizer: "AnswerSanitizer | None" = None,
    ) -> None:
        if mode not in ("strict", "truncate"):
            raise ValueError(
                f"mode must be 'strict' or 'truncate', got {mode!r}"
            )
        self.budget = budget or QueryBudget()
        self.mode = mode
        self.clock = clock or MonotonicClock()
        self.token = token or CancellationToken()
        self.warnings: list = warnings if warnings is not None else []
        self.sanitizer = sanitizer
        self.total_rows = 0
        self.external_calls = 0
        self.result_objects = 0
        self.rows_clipped = 0
        self._started: float | None = None
        self._expired = False
        # where the run is: (plan node, the constants its plan is bound
        # to); described only if a violation has to name it
        self._at: tuple | None = None
        self._warned: set[tuple] = set()
        # counters and warning bookkeeping must stay exact when the
        # parallel dispatcher admits rows from worker threads; RLock
        # because a guarded charge point may raise through _violation,
        # which also takes the lock
        self._mutex = threading.RLock()

    # -- run lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the deadline clock (idempotent across nested plans)."""
        if self._started is None:
            self._started = self.clock.now()

    @property
    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self.clock.now() - self._started

    @property
    def expired(self) -> bool:
        """True once a truncate-mode deadline overrun was recorded."""
        return self._expired

    def enter_node(self, node, params=None) -> None:
        """Node-boundary hook: remember where we are, then checkpoint."""
        self._at = (node, params)
        self.checkpoint()

    @property
    def _current_node(self) -> str | None:
        """The node the run is at, as violations and warnings name it."""
        if self._at is None:
            return None
        node, params = self._at
        return node.describe(params)

    # -- checkpoints -------------------------------------------------------

    def checkpoint(self) -> None:
        """Cooperative cancellation + deadline check (cheap)."""
        self.token.raise_if_cancelled()
        deadline = self.budget.deadline
        if (
            deadline is not None
            and not self._expired
            and self._started is not None
            and self.clock.now() - self._started > deadline
        ):
            self._violation("deadline", self.elapsed, deadline)

    def allow_source_call(self, source: str) -> bool:
        """May another query be shipped?  False once the run expired."""
        self.checkpoint()
        if self._expired:
            self._note_skip(
                "deadline", f"query to {source!r} skipped: deadline passed"
            )
            return False
        return True

    # -- charge points -----------------------------------------------------

    def admit_row(self, table: "BindingTable") -> bool:
        """May ``table`` take one more row?  Truncate mode returns False."""
        self.token.raise_if_cancelled()
        with self._mutex:
            if self._expired:
                self.rows_clipped += 1
                return False
            budget = self.budget
            rows = len(table.rows)
            if (
                budget.max_rows_per_table is not None
                and rows >= budget.max_rows_per_table
            ):
                self.rows_clipped += 1
                return self._violation(
                    "max_rows_per_table", rows + 1, budget.max_rows_per_table
                )
            if (
                budget.max_total_rows is not None
                and self.total_rows >= budget.max_total_rows
            ):
                self.rows_clipped += 1
                return self._violation(
                    "max_total_rows",
                    self.total_rows + 1,
                    budget.max_total_rows,
                )
            self.total_rows += 1
            return True

    def row_admitter(self, table: "BindingTable"):
        """A specialized fast-path appender for one governed ``table``.

        Bound once per table by ``BindingTable._appender``: limits,
        token and the row list are captured as locals so the per-row
        cost is a few compares instead of a method-call chain.
        Semantically identical to ``admit_row`` + ``rows.append``.
        """
        rows = table.rows
        append = rows.append
        token = self.token
        mutex = self._mutex
        per_table = self.budget.max_rows_per_table
        total_cap = self.budget.max_total_rows

        def add(row: tuple) -> None:
            if token._cancelled:
                token.raise_if_cancelled()
            with mutex:
                if self._expired:
                    self.rows_clipped += 1
                    return
                if per_table is not None and len(rows) >= per_table:
                    self.rows_clipped += 1
                    self._violation(
                        "max_rows_per_table", len(rows) + 1, per_table
                    )
                    return
                if total_cap is not None and self.total_rows >= total_cap:
                    self.rows_clipped += 1
                    self._violation(
                        "max_total_rows", self.total_rows + 1, total_cap
                    )
                    return
                self.total_rows += 1
                append(row)

        return add

    def charge_external_call(self) -> bool:
        """May one more external function be invoked?"""
        self.token.raise_if_cancelled()
        with self._mutex:
            if self._expired:
                return False
            limit = self.budget.max_external_calls
            if limit is not None and self.external_calls >= limit:
                return self._violation(
                    "max_external_calls", self.external_calls + 1, limit
                )
            self.external_calls += 1
            return True

    def charge_result_object(self) -> bool:
        """May one more result object be constructed?"""
        with self._mutex:
            limit = self.budget.max_result_objects
            if limit is not None and self.result_objects >= limit:
                return self._violation(
                    "max_result_objects", self.result_objects + 1, limit
                )
            self.result_objects += 1
            return True

    def enforce_result_limit(
        self, objects: "list[OEMObject]"
    ) -> "list[OEMObject]":
        """Final guard on the user-visible answer length.

        Covers the materialization paths (wildcards, recursion, type
        constraints) that never run a constructor node.
        """
        limit = self.budget.max_result_objects
        if limit is None or len(objects) <= limit:
            return objects
        self._at = None
        self._violation("max_result_objects", len(objects), limit)
        return objects[:limit]

    # -- answer sanitation -------------------------------------------------

    def sanitize_answer(
        self, source: str, objects: list, sink: list | None = None
    ) -> list:
        """Run ``objects`` — an answer's objects or its
        :class:`~repro.wrappers.base.BindingRows` — through the attached
        sanitizer, if any.

        Quarantine warnings go to ``sink`` (default: the governor's own
        warning list).  In strict sanitizer mode this raises
        ``MalformedAnswerError`` — a ``SourceError``, so degrade-mode
        mediators can still substitute an empty answer for the source.
        """
        if self.sanitizer is None:
            return objects
        clean, warnings = self.sanitizer.sanitize(source, objects)
        if warnings:
            (self.warnings if sink is None else sink).extend(warnings)
        return clean

    # -- bookkeeping -------------------------------------------------------

    def _violation(self, kind: str, observed: float, limit: float) -> bool:
        """Record one budget violation; strict raises, truncate clips."""
        if self.mode == "strict":
            raise BudgetExceeded(
                kind, observed, limit, node=self._current_node
            )
        with self._mutex:
            if kind == "deadline":
                self._expired = True
            key = (kind, self._current_node)
            if key in self._warned:
                return False
            self._warned.add(key)
            noun = {
                "deadline": "run exceeded its deadline; remaining work"
                " skipped",
                "max_rows_per_table": "intermediate table clipped",
                "max_total_rows": "intermediate rows clipped run-wide",
                "max_external_calls": "external calls skipped",
                "max_result_objects": "result objects clipped",
            }.get(kind, "budget exceeded")
            self.warnings.append(
                BudgetWarning(
                    budget=kind,
                    node=self._current_node,
                    observed=observed,
                    limit=limit,
                    message=f"{noun} (observed {observed:g},"
                    f" limit {limit:g}); answer may be partial",
                )
            )
        return False

    def _note_skip(self, kind: str, message: str) -> None:
        """A follow-on consequence of an earlier truncation (warn once)."""
        with self._mutex:
            key = (kind, "skip", self._current_node)
            if key in self._warned:
                return
            self._warned.add(key)
            self.warnings.append(
                BudgetWarning(
                    budget=kind, node=self._current_node, message=message
                )
            )

    def describe(self) -> str:
        """One-paragraph summary for ``Mediator.explain``."""
        sanitizer = (
            self.sanitizer.describe() if self.sanitizer else "off"
        )
        return (
            f"mode: {self.mode}; budget: {self.budget.describe()};"
            f" sanitizer: {sanitizer}"
        )

"""Lightweight execution profiler for the datamerge engine.

Records two families of counters while a plan runs:

* **per-node**: one row per physical plan node class/name — calls, rows
  produced, and wall-clock seconds spent in ``execute``;
* **per-pattern**: one row per carrier pattern matched against an OEM
  answer — objects inspected, matches produced, and seconds spent
  inside the matcher.

The profiler is owned by the :class:`~repro.mediator.mediator.Mediator`
and subscribes to every run's event stream (``plan-node`` and
``pattern-match`` events); it survives across
queries so ``explain()`` and ``health_snapshot()`` can report cumulative
hot spots.  All mutation goes through one lock, so the stage-parallel
executor can record from worker threads safely; the record calls are a
dict update and two adds, cheap enough to leave on by default.
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = ["Profiler"]


class Profiler:
    """Thread-safe per-node and per-pattern execution counters."""

    __slots__ = ("_lock", "_nodes", "_patterns")

    kinds = frozenset({"plan-node", "pattern-match"})
    opens = frozenset()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> [calls, rows, seconds]
        self._nodes: dict[str, list[float]] = {}
        # pattern text -> [objects, matches, seconds]
        self._patterns: dict[str, list[float]] = {}

    # -- recording ------------------------------------------------------

    def end(self, event) -> None:
        """One finished node run or pattern match off the event stream."""
        attributes = event.attributes
        if event.kind == "pattern-match":
            self.record_pattern(
                event.name,
                attributes["objects"],
                attributes["matches"],
                event.seconds,
            )
        else:
            self.record_node(
                event.name,
                attributes["rows_out"],
                event.seconds,
                event.latency,
            )

    def record_node(
        self, name: str, rows: int, seconds: float, latency: float = 0.0
    ) -> None:
        """One ``execute`` call of a plan node.

        ``latency`` is the source-call time that elapsed inside the
        node — it separates "slow because the source was slow" from
        "slow because the mediator worked", per node class.
        """
        with self._lock:
            entry = self._nodes.get(name)
            if entry is None:
                self._nodes[name] = [1, rows, seconds, latency]
            else:
                entry[0] += 1
                entry[1] += rows
                entry[2] += seconds
                entry[3] += latency

    def record_pattern(
        self, pattern: str, objects: int, matches: int, seconds: float
    ) -> None:
        """One batch of pattern-match attempts."""
        with self._lock:
            entry = self._patterns.get(pattern)
            if entry is None:
                self._patterns[pattern] = [objects, matches, seconds]
            else:
                entry[0] += objects
                entry[1] += matches
                entry[2] += seconds

    def reset(self) -> None:
        with self._lock:
            self._nodes.clear()
            self._patterns.clear()

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict[str, Mapping[str, Mapping[str, float]]]:
        """Counters as plain dicts (for ``health_snapshot``)."""
        with self._lock:
            nodes = {
                name: {
                    "calls": int(entry[0]),
                    "rows": int(entry[1]),
                    "seconds": entry[2],
                    "source_seconds": entry[3],
                }
                for name, entry in self._nodes.items()
            }
            patterns = {
                pattern: {
                    "objects": int(entry[0]),
                    "matches": int(entry[1]),
                    "seconds": entry[2],
                }
                for pattern, entry in self._patterns.items()
            }
        return {"nodes": nodes, "patterns": patterns}

    def render(self) -> str:
        """Human-readable report (the ``-- profile --`` explain section)."""
        snap = self.snapshot()
        lines: list[str] = []
        nodes = snap["nodes"]
        if nodes:
            lines.append("plan nodes (calls / rows / seconds):")
            for name in sorted(
                nodes, key=lambda n: -nodes[n]["seconds"]
            ):
                entry = nodes[name]
                line = (
                    f"  {name}: {entry['calls']} / {entry['rows']}"
                    f" / {entry['seconds']:.6f}"
                )
                if entry["source_seconds"]:
                    line += f" (source {entry['source_seconds']:.6f}s)"
                lines.append(line)
        patterns = snap["patterns"]
        if patterns:
            lines.append("patterns (objects / matches / seconds):")
            for pattern in sorted(
                patterns, key=lambda p: -patterns[p]["seconds"]
            ):
                entry = patterns[pattern]
                lines.append(
                    f"  {pattern}: {entry['objects']} / {entry['matches']}"
                    f" / {entry['seconds']:.6f}"
                )
        if not lines:
            return "no executions profiled"
        return "\n".join(lines)

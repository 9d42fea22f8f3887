#!/usr/bin/env python3
"""Machine-independent cost of one operation: calls, oids, objects,
garbage, blocks, SQL statements.

Wall-clock numbers move with the machine; these six do not, which
makes them the evidence for *where* a saving sits when a timed row
cannot say (EXPERIMENTS.md E14, E23 and E24 were first measured with
scratch copies of these counters):

* **calls per op** — Python and C function calls as ``cProfile`` counts
  them, on the calling thread (a worker pool's calls are not seen);
* **oids per op** — the calls of ``OidGenerator.__call__`` in the same
  profile: object ids minted, by the mediator or a source;
* **objects per op** — the calls of ``OEMObject.__init__`` and of the
  compiled builders' ``_fast_object`` in the same profile: OEM objects
  built, by the mediator or a source;
* **unreachable per op** — objects only the cycle collector can free
  (``gc.collect()`` after a run with the collector off): 0 means
  refcounting frees everything an operation allocates;
* **blocks per op** — growth of ``sys.getallocatedblocks()`` across
  the run, after a collection: what an operation leaves allocated;
* **statements per op** — SQL statements the workload's SQLite stores
  run, counted by each connection's trace callback on whichever thread
  runs them (a dispatcher pool's statements included, which cProfile
  does not see).

As a tool it measures the end-to-end suite's workloads
(``benchmarks/e2e/workloads.py``) at the suite's ``QUICK`` scale, and
then the materialization route, which no workload takes: a point query
on ``benchmarks/bench_recursive.py``'s transitive-closure view of a
16-edge chain, answered by exporting the whole closure (at most
``MATERIALIZATION_OPS`` operations: one takes ~0.1 s)::

    PYTHONPATH=src python tools/opcount.py                 # all five
    PYTHONPATH=src python tools/opcount.py --workload point_lookup --ops 1000

As a module it counts any zero-argument callable
(``tests/unit/test_plan_cache.py`` holds the warm point lookup and the
warm export to budgets with it).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import sys
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parents[1]

__all__ = [
    "profile_per_op",
    "unreachable_per_op",
    "blocks_per_op",
    "statements_per_op",
    "count",
    "workload_operation",
    "workload_stores",
    "materialization_operation",
]

MATERIALIZATION = "materialization"
MATERIALIZATION_QUERY = "P :- P:<path {<src 'n0'> <dst 'n1'>}>@tc"
MATERIALIZATION_OPS = 10


def profile_per_op(
    operation: Callable[[], object], ops: int
) -> tuple[float, float, float]:
    """Function calls (Python and C), oids minted and OEM objects built
    per ``operation()``, over ``ops``, from one ``cProfile`` run."""
    from repro.msl import compile as compiled
    from repro.oem.model import OEMObject
    from repro.oem.oid import OidGenerator

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for _ in range(ops):
            operation()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)

    def calls_of(*functions) -> int:
        return sum(
            stats.stats.get(
                (code.co_filename, code.co_firstlineno, code.co_name), (0, 0)
            )[1]
            for code in (function.__code__ for function in functions)
        )

    minted = calls_of(OidGenerator.__call__)
    built = calls_of(OEMObject.__init__, compiled._fast_object)
    # the loop's own range() and the disable() call are the only extras
    return (stats.total_calls - 1) / ops, minted / ops, built / ops


def unreachable_per_op(operation: Callable[[], object], ops: int) -> float:
    """Objects left for the cycle collector per ``operation()``."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ops):
            operation()
        return gc.collect() / ops
    finally:
        if was_enabled:
            gc.enable()


def blocks_per_op(operation: Callable[[], object], ops: int) -> float:
    """Allocated memory blocks an ``operation()`` leaves behind."""
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(ops):
        operation()
    gc.collect()
    return (sys.getallocatedblocks() - before) / ops


def statements_per_op(
    operation: Callable[[], object], ops: int, stores: Sequence = ()
) -> float:
    """SQL statements the SQLite ``stores`` run per ``operation()``."""
    executed: list[str] = []  # list.append is atomic across threads
    for store in stores:
        store._conn.set_trace_callback(executed.append)
    try:
        for _ in range(ops):
            operation()
    finally:
        for store in stores:
            store._conn.set_trace_callback(None)
    return len(executed) / ops


def count(
    operation: Callable[[], object],
    ops: int,
    warmup: int = 20,
    stores: Sequence = (),
) -> dict[str, float]:
    """All six counters for ``operation``, after ``warmup`` calls;
    statements are those of the SQLite ``stores``."""
    for _ in range(warmup):
        operation()
    calls, oids, objects = profile_per_op(operation, ops)
    return {
        "calls_per_op": round(calls, 1),
        "oids_per_op": round(oids, 1),
        "objects_per_op": round(objects, 1),
        "unreachable_per_op": round(unreachable_per_op(operation, ops), 3),
        "blocks_per_op": round(blocks_per_op(operation, ops), 2),
        "statements_per_op": round(
            statements_per_op(operation, ops, stores), 2
        ),
    }


def workload_operation(name: str, seed: int = 1996):
    """``(operation, workload)`` for one e2e workload at ``QUICK`` scale:
    each ``operation()`` draws the next request and runs it, checked;
    ``workload.close()`` releases what it built."""
    for path in (ROOT / "src", ROOT / "benchmarks" / "e2e"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    workload = workloads.WORKLOADS[name](seed, workloads.QUICK)
    workload.build()
    workload.derive_expected()

    def operation() -> None:
        request = workload.request()
        answer = workload.run(request)
        if len(answer) != workload.expected_count(request):
            raise AssertionError(
                f"{name}: {len(answer)} object(s) for request {request!r},"
                f" expected {workload.expected_count(request)}"
            )

    return operation, workload


def workload_stores(workload) -> list:
    """The SQLite stores a workload built (none for the export
    workloads)."""
    from repro.wrappers import SQLiteOEMStoreWrapper

    found = []
    for value in vars(workload).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, SQLiteOEMStoreWrapper):
                found.append(item)
    return found


def materialization_operation(length: int = 16):
    """One point query on the recursive view of ``bench_recursive``'s
    ``length``-edge chain, checked: the materialization route."""
    path = ROOT / "benchmarks"
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
    import bench_recursive

    mediator = bench_recursive.chain_mediator(length)

    def operation() -> None:
        answer = mediator.answer(MATERIALIZATION_QUERY)
        if len(answer) != 1:
            raise AssertionError(
                f"{MATERIALIZATION}: {len(answer)} object(s), expected 1"
            )

    return operation


def main(argv: list[str] | None = None) -> int:
    names = ["point_lookup", "view_export", "bib_fusion", "remote_probe"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=names + [MATERIALIZATION],
        help="workload to count (repeatable; default: all four, then"
        f" the {MATERIALIZATION} route)",
    )
    parser.add_argument(
        "--ops", type=int, default=200,
        help="operations per counter (default 200)",
    )
    parser.add_argument("--seed", type=int, default=1996)
    args = parser.parse_args(argv)
    for name in args.workload or names + [MATERIALIZATION]:
        if name == MATERIALIZATION:
            # informational: the route's cost, next to the workloads'
            ops = min(args.ops, MATERIALIZATION_OPS)
            row = count(materialization_operation(), ops, warmup=2)
            print(json.dumps({"route": name, "ops": ops, **row}))
            continue
        operation, workload = workload_operation(name, args.seed)
        try:
            row = count(operation, args.ops, stores=workload_stores(workload))
        finally:
            workload.close()
        print(json.dumps({"workload": name, "ops": args.ops, **row}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

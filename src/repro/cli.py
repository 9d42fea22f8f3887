"""Command-line interface: run a mediator from files.

Usage::

    python -m repro --spec med.msl --mediator med \\
        --source whois=whois.oem --source cs=cs.oem \\
        --query "JC :- JC:<cs_person {<name 'Joe Chung'>}>@med"

* ``--spec`` — an MSL specification file (rules + EXT declarations);
* ``--source NAME=FILE`` — an OEM data file served as source ``NAME``
  (repeatable); add ``:facts`` after the file to export schema facts;
* ``--query`` — an MSL query (repeatable); with no ``--query``, queries
  are read from stdin, one per line;
* ``--explain`` — print the logical program and physical plan instead
  of executing;
* ``--explain-analyze`` — execute each query while recording per-node
  estimated vs actual cardinality, then print the annotated plan tree
  (answers go to stdout first); ``--analyze-out FILE`` additionally
  writes one structured-JSON report per query as JSON lines;
* ``--stats-out FILE`` / ``--stats-in FILE`` — persist the adaptive
  statistics database (observed cardinalities, q-errors, source cost
  weights) to JSON after the run / warm-start it before the run;
* ``--export`` — materialize and print the whole view;
* ``--format`` — ``text`` (the paper's reference style, default),
  ``inline`` (one object per line), or ``python`` (dicts);
* ``--retries`` / ``--source-timeout`` — wrap every source access in
  the reliability layer (retry with backoff, per-source circuit
  breaker, post-hoc timeout detection);
* ``--adaptive-timeouts`` / ``--hedge`` / ``--hedge-delay`` —
  tail-latency resilience: latency-derived per-source timeouts with
  deadline slicing, and speculative duplicate calls for stragglers;
* ``--degrade`` — a source that stays unavailable contributes an empty
  answer instead of failing the query; warnings go to stderr;
* ``--deadline`` / ``--max-rows`` / ``--max-total-rows`` /
  ``--max-result-objects`` — per-query resource budgets, enforced by
  the query governor; ``--budget-mode truncate`` clips instead of
  aborting (warnings to stderr);
* ``--quarantine-malformed`` — drop malformed sub-objects from source
  answers instead of failing the query;
* ``--parallelism N`` — fan independent source queries out across N
  worker threads (default 1: sequential execution);
* ``--shard NAME=N:LABEL`` — re-register source ``NAME`` as N hash
  shards partitioned on direct-child ``LABEL``; the optimizer prunes
  shards from pushed-down constants and bind joins ship one batched
  semi-join filter per surviving shard;
* ``--no-semijoin`` — probe batch-capable sources once per tuple
  instead of shipping one batched semi-join filter per probe group;
* ``--cache N`` / ``--cache-ttl SECONDS`` — memoize up to N source
  answers (LRU), optionally expiring entries after SECONDS;
* ``--trace-out FILE`` / ``--metrics-out FILE`` — enable the telemetry
  subsystem and write, after the queries ran, the span trees as JSON
  lines and/or the metrics registry in Prometheus text format;
* ``--trace-sample-rate R`` — keep the span tree of each query with
  probability R (default 1.0; head-based, seeded);
* ``--slow-query-ms MS`` — always retain (and report on stderr) root
  spans of queries at least MS milliseconds long, sampled or not;
* ``--max-concurrent N`` / ``--queue-depth N`` — admission control:
  at most N queries execute at once (AIMD-adapted downward under
  latency pressure) with a bounded wait queue; excess load is shed
  with a structured rejection carrying a retry-after hint;
* ``--tenant NAME`` / ``--priority N`` — attribute this process's
  queries to a tenant quota and admit higher priorities first.

The CLI registers only OEM-file sources; programmatic users wanting
relational or custom wrappers use the library API directly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.client.result import ResultSet
from repro.exec.cache import AnswerCache
from repro.external.registry import default_registry
from repro.governor.budget import QueryBudget
from repro.mediator.mediator import Mediator
from repro.obs.exporters import JsonLinesExporter, PrometheusTextExporter
from repro.obs.telemetry import Telemetry
from repro.oem.parser import parse_oem
from repro.reliability.deadline import AdaptiveTimeoutConfig
from repro.reliability.hedging import HedgePolicy
from repro.reliability.policy import RetryPolicy
from repro.reliability.resilient import ResilienceConfig
from repro.serving.admission import AdmissionConfig, QueryRejected
from repro.wrappers.capability import BATCH_CAPABILITY
from repro.wrappers.oem_wrapper import OEMStoreWrapper
from repro.wrappers.registry import SourceRegistry
from repro.wrappers.sharding import (
    HashPartition,
    ShardedSource,
    partition_forest,
    shard_name,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "MedMaker: answer MSL queries over OEM sources through a"
            " declaratively specified mediator"
        ),
    )
    parser.add_argument(
        "--spec",
        required=True,
        help="MSL mediator specification file",
    )
    parser.add_argument(
        "--mediator",
        default="med",
        help="name of the mediator (default: med)",
    )
    parser.add_argument(
        "--source",
        action="append",
        default=[],
        metavar="NAME=FILE[:facts]",
        help=(
            "OEM data file registered as source NAME; ':facts' exports"
            " schema facts for rule pruning (repeatable)"
        ),
    )
    parser.add_argument(
        "--query",
        action="append",
        default=[],
        help="MSL query to answer (repeatable; default: read stdin)",
    )
    parser.add_argument(
        "--export",
        action="store_true",
        help="materialize and print the whole view",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the logical program and plan instead of executing",
    )
    parser.add_argument(
        "--explain-analyze",
        action="store_true",
        help=(
            "execute each query and print the annotated plan tree with"
            " estimated vs actual cardinality per node"
        ),
    )
    parser.add_argument(
        "--analyze-out",
        default=None,
        metavar="FILE",
        help=(
            "write one structured-JSON EXPLAIN ANALYZE report per"
            " query to FILE as JSON lines (needs --explain-analyze)"
        ),
    )
    parser.add_argument(
        "--stats-out",
        default=None,
        metavar="FILE",
        help=(
            "write the adaptive statistics snapshot (observed"
            " cardinalities, q-errors, source cost weights) to FILE"
            " as JSON after the queries ran"
        ),
    )
    parser.add_argument(
        "--stats-in",
        default=None,
        metavar="FILE",
        help=(
            "warm-start the optimizer from a statistics snapshot"
            " previously written with --stats-out"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "inline", "python"),
        default="text",
        help="output format for result objects",
    )
    parser.add_argument(
        "--push-mode",
        choices=("complete", "needed"),
        default="complete",
        help="pushdown enumeration mode (see docs/msl_reference.md)",
    )
    parser.add_argument(
        "--strategy",
        choices=("heuristic", "statistics", "exhaustive", "fetch_all"),
        default="heuristic",
        help="plan strategy",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry failed source calls up to N times with backoff",
    )
    parser.add_argument(
        "--source-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="treat source calls slower than SECONDS as failures",
    )
    parser.add_argument(
        "--adaptive-timeouts",
        action="store_true",
        help=(
            "derive per-source timeouts from observed latency"
            " percentiles (static --source-timeout is the cold-start"
            " fallback) and slice --deadline across plan stages"
        ),
    )
    parser.add_argument(
        "--hedge",
        action="store_true",
        help=(
            "issue a speculative duplicate source call when the first"
            " one straggles past its observed p95; first result wins"
        ),
    )
    parser.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "hedge after SECONDS instead of the adaptive p95-based"
            " delay (needs --hedge)"
        ),
    )
    parser.add_argument(
        "--degrade",
        action="store_true",
        help=(
            "answer with the remaining sources (plus warnings on"
            " stderr) when a source stays unavailable"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for each query run",
    )
    parser.add_argument(
        "--max-rows",
        type=int,
        default=None,
        metavar="N",
        help="cap each intermediate binding table at N rows",
    )
    parser.add_argument(
        "--max-total-rows",
        type=int,
        default=None,
        metavar="N",
        help="cap total intermediate rows across a run at N",
    )
    parser.add_argument(
        "--max-result-objects",
        type=int,
        default=None,
        metavar="N",
        help="cap the number of result objects at N",
    )
    parser.add_argument(
        "--budget-mode",
        choices=("strict", "truncate"),
        default="strict",
        help=(
            "strict: abort when a budget is exceeded; truncate: clip"
            " and finish with warnings (default: strict)"
        ),
    )
    parser.add_argument(
        "--quarantine-malformed",
        action="store_true",
        help=(
            "drop malformed sub-objects from source answers (with"
            " warnings on stderr) instead of failing the query"
        ),
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run independent source queries across N worker threads"
            " (default: 1, sequential)"
        ),
    )
    parser.add_argument(
        "--shard",
        action="append",
        default=[],
        metavar="NAME=N:LABEL",
        help=(
            "re-register source NAME as N hash shards partitioned on"
            " direct-child LABEL (repeatable); shard scans run in"
            " parallel and bind joins ship batched semi-join filters"
        ),
    )
    parser.add_argument(
        "--no-semijoin",
        action="store_true",
        help=(
            "ship one probe per tuple instead of batched semi-join"
            " filters to batch-capable sources"
        ),
    )
    parser.add_argument(
        "--cache",
        type=int,
        default=None,
        metavar="N",
        help="memoize up to N source answers (LRU)",
    )
    parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="expire cached source answers after SECONDS (needs --cache)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "enable telemetry and write all spans as JSON lines to"
            " FILE after the queries ran"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "enable telemetry and write the metrics registry in"
            " Prometheus text format to FILE after the queries ran"
        ),
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=1.0,
        metavar="R",
        help=(
            "keep each query's span tree with probability R in [0, 1]"
            " (default: 1.0)"
        ),
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "always retain queries at least MS milliseconds long and"
            " report them on stderr (enables telemetry)"
        ),
    )
    parser.add_argument(
        "--max-concurrent",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admit at most N concurrently executing queries; excess"
            " queries queue (see --queue-depth) or are shed with a"
            " structured rejection"
        ),
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "let up to N queries wait for an execution slot (needs"
            " --max-concurrent; default 32, 0 = shed immediately)"
        ),
    )
    parser.add_argument(
        "--tenant",
        default=None,
        metavar="NAME",
        help="attribute queries to tenant NAME for admission quotas",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        metavar="N",
        help=(
            "admission priority for this process's queries (higher"
            " admits first; default 0)"
        ),
    )
    return parser


def _load_sources(
    specs: Sequence[str], registry: SourceRegistry, stderr
) -> bool:
    for entry in specs:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            print(
                f"error: --source expects NAME=FILE[:facts], got {entry!r}",
                file=stderr,
            )
            return False
        export_facts = False
        if path.endswith(":facts"):
            export_facts = True
            path = path[: -len(":facts")]
        try:
            with open(path) as handle:
                objects = parse_oem(handle.read())
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=stderr)
            return False
        except Exception as exc:
            print(f"error: cannot parse {path}: {exc}", file=stderr)
            return False
        registry.register(
            OEMStoreWrapper(name, objects, export_facts=export_facts)
        )
    return True


def _apply_shards(shard_specs, registry, stderr) -> bool:
    """Replace loaded sources with hash-sharded versions (``--shard``)."""
    for entry in shard_specs:
        name, sep, rest = entry.partition("=")
        count_text, sep2, label = rest.partition(":")
        if (
            not sep
            or not sep2
            or not name
            or not label
            or not count_text.isdigit()
            or int(count_text) < 1
        ):
            print(
                f"error: --shard expects NAME=N:LABEL, got {entry!r}",
                file=stderr,
            )
            return False
        if name not in registry:
            print(
                f"error: --shard names unloaded source {name!r}"
                " (load it with --source first)",
                file=stderr,
            )
            return False
        base = registry.resolve(name)
        partition = HashPartition(label, int(count_text))
        forests = partition_forest(base.export(), partition)
        registry.deregister(name)
        shards = [
            OEMStoreWrapper(
                shard_name(name, index),
                forest,
                capability=BATCH_CAPABILITY,
            )
            for index, forest in enumerate(forests)
        ]
        registry.register(ShardedSource(name, shards, partition))
    return True


def _emit(objects, format_: str, stdout) -> None:
    results = (
        objects if isinstance(objects, ResultSet) else ResultSet(objects)
    )
    if format_ == "text":
        print(results.dump(), file=stdout)
    elif format_ == "inline":
        print(results.pretty(), file=stdout)
    else:
        for value in results.to_python():
            print(value, file=stdout)


def _iter_stdin_queries(stdin):
    """Queries from stdin: each non-empty line is one query."""
    for line in stdin:
        text = line.strip()
        if text:
            yield text


def main(
    argv: Sequence[str] | None = None,
    stdout=None,
    stderr=None,
    stdin=None,
) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        with open(args.spec) as handle:
            spec_text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {args.spec}: {exc}", file=stderr)
        return 2

    registry = SourceRegistry()
    if not _load_sources(args.source, registry, stderr):
        return 2
    if not _apply_shards(args.shard, registry, stderr):
        return 2

    if args.retries < 0:
        print("error: --retries must be non-negative", file=stderr)
        return 2
    if args.source_timeout is not None and args.source_timeout <= 0:
        print("error: --source-timeout must be positive", file=stderr)
        return 2
    resilience = None
    if (
        args.retries
        or args.source_timeout is not None
        or args.adaptive_timeouts
    ):
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=args.retries + 1),
            timeout=args.source_timeout,
            adaptive=(
                AdaptiveTimeoutConfig() if args.adaptive_timeouts else None
            ),
        )
    if args.hedge_delay is not None:
        if not args.hedge:
            print("error: --hedge-delay needs --hedge", file=stderr)
            return 2
        if args.hedge_delay <= 0:
            print("error: --hedge-delay must be positive", file=stderr)
            return 2
    hedge: "HedgePolicy | bool" = args.hedge
    if args.hedge and args.hedge_delay is not None:
        hedge = HedgePolicy(delay=args.hedge_delay)

    if args.deadline is not None and args.deadline <= 0:
        print("error: --deadline must be positive", file=stderr)
        return 2
    for flag, value in (
        ("--max-rows", args.max_rows),
        ("--max-total-rows", args.max_total_rows),
        ("--max-result-objects", args.max_result_objects),
    ):
        if value is not None and value <= 0:
            print(f"error: {flag} must be positive", file=stderr)
            return 2
    budget = None
    if (
        args.deadline is not None
        or args.max_rows is not None
        or args.max_total_rows is not None
        or args.max_result_objects is not None
    ):
        budget = QueryBudget(
            deadline=args.deadline,
            max_rows_per_table=args.max_rows,
            max_total_rows=args.max_total_rows,
            max_result_objects=args.max_result_objects,
        )

    if args.parallelism < 1:
        print("error: --parallelism must be at least 1", file=stderr)
        return 2
    if args.cache is not None and args.cache <= 0:
        print("error: --cache must be positive", file=stderr)
        return 2
    if args.cache_ttl is not None:
        if args.cache is None:
            print("error: --cache-ttl needs --cache", file=stderr)
            return 2
        if args.cache_ttl <= 0:
            print("error: --cache-ttl must be positive", file=stderr)
            return 2
    cache = None
    if args.cache is not None:
        cache = AnswerCache(max_entries=args.cache, ttl=args.cache_ttl)

    if args.explain and args.explain_analyze:
        print(
            "error: --explain-analyze conflicts with --explain"
            " (analyze executes the query; explain does not)",
            file=stderr,
        )
        return 2
    if args.analyze_out is not None and not args.explain_analyze:
        print("error: --analyze-out needs --explain-analyze", file=stderr)
        return 2
    stats_snapshot = None
    if args.stats_in is not None:
        try:
            with open(args.stats_in) as handle:
                stats_snapshot = json.load(handle)
        except OSError as exc:
            print(f"error: cannot read {args.stats_in}: {exc}", file=stderr)
            return 2
        except ValueError as exc:
            print(
                f"error: cannot parse {args.stats_in}: {exc}", file=stderr
            )
            return 2

    if not 0.0 <= args.trace_sample_rate <= 1.0:
        print("error: --trace-sample-rate must be in [0, 1]", file=stderr)
        return 2
    if args.slow_query_ms is not None and args.slow_query_ms < 0:
        print("error: --slow-query-ms must be non-negative", file=stderr)
        return 2
    # any observability flag switches the telemetry subsystem on
    telemetry = None
    if (
        args.trace_out is not None
        or args.metrics_out is not None
        or args.slow_query_ms is not None
    ):
        telemetry = Telemetry(
            trace_sample_rate=args.trace_sample_rate,
            slow_query_ms=args.slow_query_ms,
        )

    if args.max_concurrent is not None and args.max_concurrent < 1:
        print("error: --max-concurrent must be at least 1", file=stderr)
        return 2
    if args.queue_depth is not None:
        if args.max_concurrent is None:
            print("error: --queue-depth needs --max-concurrent", file=stderr)
            return 2
        if args.queue_depth < 0:
            print("error: --queue-depth must be non-negative", file=stderr)
            return 2
    if args.tenant is not None and not args.tenant.strip():
        print("error: --tenant must not be empty", file=stderr)
        return 2
    admission = None
    if args.max_concurrent is not None:
        admission = AdmissionConfig(
            max_concurrent=args.max_concurrent,
            max_queue_depth=(
                args.queue_depth if args.queue_depth is not None else 32
            ),
        )

    try:
        mediator = Mediator(
            args.mediator,
            spec_text,
            registry,
            default_registry(),
            push_mode=args.push_mode,
            strategy=args.strategy,
            on_source_failure="degrade" if args.degrade else "fail",
            resilience=resilience,
            budget=budget,
            budget_mode=args.budget_mode,
            on_malformed_answer=(
                "quarantine" if args.quarantine_malformed else "error"
            ),
            parallelism=args.parallelism,
            semijoin=not args.no_semijoin,
            cache=cache,
            hedge=hedge,
            telemetry=telemetry,
            admission=admission,
        )
    except Exception as exc:
        print(f"error: bad specification: {exc}", file=stderr)
        return 2

    if stats_snapshot is not None:
        try:
            mediator.restore_statistics(stats_snapshot)
        except Exception as exc:
            print(f"error: {args.stats_in}: {exc}", file=stderr)
            mediator.close()
            return 2

    def emit_warnings(results: ResultSet) -> None:
        for warning in results.warnings:
            print(f"warning: {warning.render()}", file=stderr)

    analyze_reports = []
    status = 0
    try:
        if args.export:
            results = ResultSet(mediator.export(), mediator.last_warnings)
            _emit(results, args.format, stdout)
            emit_warnings(results)

        queries = list(args.query)
        if not queries and not args.export:
            queries = list(_iter_stdin_queries(stdin))

        for query in queries:
            try:
                if args.explain:
                    print(mediator.explain(query), file=stdout)
                elif args.explain_analyze:
                    report = mediator.explain_analyze(
                        query, tenant=args.tenant, priority=args.priority
                    )
                    results = ResultSet(report.objects, report.warnings)
                    _emit(results, args.format, stdout)
                    print(report.render(), file=stdout)
                    emit_warnings(results)
                    analyze_reports.append(report)
                else:
                    results = mediator.query(
                        query, tenant=args.tenant, priority=args.priority
                    )
                    _emit(results, args.format, stdout)
                    emit_warnings(results)
            except QueryRejected as exc:
                print(f"error: {query!r}: {exc.render()}", file=stderr)
                status = 1
            except Exception as exc:
                print(f"error: {query!r}: {exc}", file=stderr)
                status = 1
    finally:
        # deterministic shutdown: no worker or hedge thread outlives
        # the invocation (telemetry export below needs no pool)
        mediator.close()

    if args.analyze_out is not None:
        try:
            with open(args.analyze_out, "w") as handle:
                for report in analyze_reports:
                    handle.write(
                        json.dumps(report.to_dict(), sort_keys=True) + "\n"
                    )
        except OSError as exc:
            print(
                f"error: cannot write {args.analyze_out}: {exc}", file=stderr
            )
            return 2
    if args.stats_out is not None:
        try:
            with open(args.stats_out, "w") as handle:
                json.dump(
                    mediator.statistics_snapshot(),
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
        except OSError as exc:
            print(
                f"error: cannot write {args.stats_out}: {exc}", file=stderr
            )
            return 2
    if args.slow_query_ms is not None:
        for span in mediator.telemetry.tracer.slow_queries:
            print(
                f"slow query ({span.duration * 1000.0:.1f}ms):"
                f" {span.name}",
                file=stderr,
            )
    if args.trace_out is not None:
        try:
            JsonLinesExporter().export_path(
                args.trace_out, tracer=mediator.telemetry.tracer
            )
        except OSError as exc:
            print(
                f"error: cannot write {args.trace_out}: {exc}", file=stderr
            )
            return 2
    if args.metrics_out is not None:
        try:
            PrometheusTextExporter().export_path(
                args.metrics_out, mediator.telemetry.metrics
            )
        except OSError as exc:
            print(
                f"error: cannot write {args.metrics_out}: {exc}", file=stderr
            )
            return 2
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

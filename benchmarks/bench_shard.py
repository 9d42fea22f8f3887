"""Experiment S7 — sharded source tier and semi-join shipping.

The question: on a probe-dominated bind join against a million-object
disk-backed source, what does the sharded tier buy?  Three mechanisms
compose:

* **semi-join shipping** — the bind join's U per-tuple probes collapse
  into one batched value filter per surviving shard, so the wire cost
  drops from O(tuples) to O(shards);
* **shard parallelism** — the surviving batches fan across the
  dispatcher's workers, so even the batched calls overlap;
* **indexed stores** — each shard is a :class:`SQLiteOEMStoreWrapper`,
  answering a batch with one indexed ``IN`` scan instead of a store
  scan.

Every source call carries injected wire latency (as in
``bench_parallel.py``), which is what makes the workload
probe-dominated: the unsharded per-tuple reference pays that latency
once per probe, the sharded runs once per batch.  Before any timing,
the sharded answer is asserted bit-for-bit (structural-key) equal to
the unsharded reference, and the probes-shipped counters are asserted
to prove O(shards) batches.  Numbers land in
``benchmarks/BENCH_shard.json``.

Scale knobs (env): ``BENCH_SHARD_OBJECTS`` (default 1,000,000 records
in the big source) and ``BENCH_SHARD_PROBES`` (default 48 driver
probes).
"""

import os
import time

from repro.datasets import probe_keys, record_stream, route_records
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.oem.builders import atom, obj
from repro.reliability import FaultInjectingSource
from repro.reliability.clock import MonotonicClock
from repro.wrappers import (
    HashPartition,
    OEMStoreWrapper,
    ShardedSource,
    SourceRegistry,
    SQLiteOEMStoreWrapper,
    shard_name,
)

OBJECTS = int(os.environ.get("BENCH_SHARD_OBJECTS", "1000000"))
PROBES = int(os.environ.get("BENCH_SHARD_PROBES", "48"))
LATENCY = 0.02  # real seconds slept per source call
PARALLELISM = 8
SHARD_COUNTS = (1, 4, 8)
SEED = 1996

SPEC = (
    "<hit {<k K> <p P>}> :- <probe {<key K>}>@driver"
    " AND <rec {<key K> <payload P>}>@big"
)
QUERY = "H :- H:<hit {}>@med"
JSON_FILE = "BENCH_shard.json"


def _canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def _load_unsharded(clock):
    store = SQLiteOEMStoreWrapper("big")
    start = time.perf_counter()
    store.load_records("rec", record_stream(OBJECTS, seed=SEED))
    seconds = time.perf_counter() - start
    return FaultInjectingSource(store, latency=LATENCY, clock=clock), seconds


def _load_sharded(shards, clock):
    partition = HashPartition("key", shards)
    stores = [
        SQLiteOEMStoreWrapper(shard_name("big", index))
        for index in range(shards)
    ]
    start = time.perf_counter()
    for index, batch in route_records(
        record_stream(OBJECTS, seed=SEED), partition, shards
    ):
        stores[index].load_records("rec", batch)
    seconds = time.perf_counter() - start
    wrapped = [
        FaultInjectingSource(store, latency=LATENCY, clock=clock)
        for store in stores
    ]
    return ShardedSource("big", wrapped, partition), seconds


def _mediator(big, keys, semijoin=True):
    registry = SourceRegistry()
    registry.register(
        OEMStoreWrapper(
            "driver", [obj("probe", atom("key", k)) for k in keys]
        )
    )
    registry.register(big)
    return Mediator(
        "med",
        SPEC,
        registry,
        default_registry(),
        parallelism=PARALLELISM,
        semijoin=semijoin,
    )


def _best_of(fn, rounds=2):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_shard_speedup_curve(artifact_sink, bench_json_sink):
    """Answer time and probes shipped vs shard count, 1M-object store."""
    clock = MonotonicClock()
    keys = probe_keys(PROBES, OBJECTS, seed=SEED)
    distinct = len(set(keys))

    reference_source, reference_load = _load_unsharded(clock)
    reference = _mediator(reference_source, keys, semijoin=False)
    expected = _canonical(reference.query(QUERY).objects())
    assert expected, "the probe workload must produce hits"
    baseline = _best_of(lambda: reference.query(QUERY))
    # the per-tuple reference ships one probe per distinct key
    reference_probes = reference.last_context.queries_sent.get("big", 0)
    assert reference_probes == distinct

    rows = [
        "shards   s/answer   speedup   probes-shipped   load-s",
        f"  none   {baseline:8.4f}     1.00x   {reference_probes:14d}"
        f"   {reference_load:6.1f}",
    ]
    curve = []
    speedups = {}
    for shards in SHARD_COUNTS:
        big, load_seconds = _load_sharded(shards, clock)
        mediator = _mediator(big, keys)
        # equivalence before timing: bit-for-bit (structural-key)
        # equal to the unsharded per-tuple reference
        assert _canonical(mediator.query(QUERY).objects()) == expected
        context = mediator.last_context
        # O(shards) batched filters, never O(tuples) probes
        assert 1 <= context.semijoin_batches <= shards
        assert context.semijoin_probes == distinct
        seconds = _best_of(lambda: mediator.query(QUERY))
        speedup = baseline / seconds
        speedups[shards] = speedup
        rows.append(
            f"{shards:6d}   {seconds:8.4f}   {speedup:6.2f}x"
            f"   {context.semijoin_batches:14d}   {load_seconds:6.1f}"
        )
        curve.append(
            {
                "shards": shards,
                "seconds_per_answer": round(seconds, 6),
                "speedup": round(speedup, 3),
                "batches_shipped": context.semijoin_batches,
                "probes_deduped": context.semijoin_probes,
                "probes_saved": context.semijoin_probes_saved,
                "load_seconds": round(load_seconds, 3),
            }
        )
        mediator.close()

    assert speedups[8] >= 3.0, (
        f"expected >= 3x at 8 shards, got {speedups[8]:.2f}x"
    )

    artifact_sink(
        "sharded semi-join speedup (1M-object SQLite store)",
        f"objects={OBJECTS} probes={PROBES} latency={LATENCY}s/call"
        f" parallelism={PARALLELISM}\n" + "\n".join(rows),
    )
    bench_json_sink(
        JSON_FILE,
        "speedup_curve",
        {
            "objects": OBJECTS,
            "probes": PROBES,
            "distinct_probes": distinct,
            "latency_per_call_s": LATENCY,
            "parallelism": PARALLELISM,
            "query": QUERY,
            "baseline_seconds": round(baseline, 6),
            "baseline_probes_shipped": reference_probes,
            "levels": curve,
        },
    )
    reference.close()

"""Property: sharding never changes what a query means.

The equivalence contract of the sharded source tier
(docs/performance.md): with deterministic shard stores, a run against
``ShardedSource`` — any shard count, any parallelism, semi-join
shipping on or off — produces the same
result objects (by structural key) as the unsharded single-wrapper
reference.  Faults absorbed by retries cannot perturb the answer, a
dead shard degrades to warnings plus the other shards' contribution,
and budgets clip identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import probe_keys
from repro.exec import AnswerCache
from repro.external.registry import default_registry
from repro.governor.budget import QueryBudget
from repro.mediator import Mediator
from repro.oem import structural_key
from repro.oem.builders import atom, obj
from repro.reliability import (
    FaultInjectingSource,
    ManualClock,
    ResilienceConfig,
    RetryPolicy,
)
from repro.wrappers import (
    BATCH_CAPABILITY,
    HashPartition,
    OEMStoreWrapper,
    ShardedSource,
    SourceRegistry,
    partition_forest,
    shard_name,
)

SPEC = (
    "<hit {<k K> <p P>}> :- <probe {<key K>}>@driver"
    " AND <rec {<key K> <payload P>}>@big"
)
QUERY = "H :- H:<hit {}>@med"


def canonical(objects):
    return sorted(repr(structural_key(o)) for o in objects)


def make_records(count, seed):
    return [
        obj("rec", atom("key", k), atom("payload", f"p{seed}_{k}"))
        for k in range(count)
    ]


def build_mediator(
    keys,
    records,
    shards=0,
    dead_shard=None,
    fault_rate=0.0,
    retries=False,
    **kwargs,
):
    """Driver + (possibly sharded, possibly faulty) big source."""
    clock = ManualClock()
    registry = SourceRegistry()
    registry.register(
        OEMStoreWrapper(
            "driver", [obj("probe", atom("key", k)) for k in keys]
        )
    )

    def decorate(wrapper, index):
        if dead_shard is not None and index == dead_shard:
            return FaultInjectingSource(wrapper, dead=True, clock=clock)
        if fault_rate:
            return FaultInjectingSource(
                wrapper, seed=index, fault_rate=fault_rate, clock=clock
            )
        return wrapper

    if shards == 0:
        registry.register(
            decorate(
                OEMStoreWrapper(
                    "big", records, capability=BATCH_CAPABILITY
                ),
                0,
            )
        )
    else:
        partition = HashPartition("key", shards)
        wrappers = [
            decorate(
                OEMStoreWrapper(
                    shard_name("big", index),
                    forest,
                    capability=BATCH_CAPABILITY,
                ),
                index,
            )
            for index, forest in enumerate(
                partition_forest(records, partition)
            )
        ]
        registry.register(ShardedSource("big", wrappers, partition))
    resilience = None
    if retries:
        # deep retry budget: fault_rate <= 0.3 over 8 attempts leaves
        # < 0.01% chance of a fault surfacing, so answers stay
        # schedule-independent
        resilience = ResilienceConfig(
            retry=RetryPolicy(
                max_attempts=8, base_delay=0.01, jitter=0.0
            ),
            breaker_threshold=1000,
        )
    return Mediator(
        "med",
        SPEC,
        registry,
        default_registry(),
        resilience=resilience,
        clock=clock,
        **kwargs,
    )


class TestShardedEqualsUnsharded:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.sampled_from([1, 2, 4, 8]),
        parallelism=st.sampled_from([1, 8]),
        semijoin=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_equivalence(self, seed, shards, parallelism, semijoin):
        keys = probe_keys(25, 60, seed=seed)
        records = make_records(60, seed)
        reference = build_mediator(keys, records, semijoin=False)
        expected = reference.query(QUERY)
        sharded = build_mediator(
            keys,
            records,
            shards=shards,
            parallelism=parallelism,
            semijoin=semijoin,
        )
        observed = sharded.query(QUERY)
        assert canonical(observed.objects()) == canonical(
            expected.objects()
        )
        assert not observed.warnings
        context = sharded.last_context
        if semijoin:
            # O(shards) batches, never O(tuples) probes
            assert 1 <= context.semijoin_batches <= shards
            assert context.semijoin_probes == len(set(keys))
        else:
            assert context.semijoin_batches == 0
        sharded.close()
        reference.close()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.sampled_from([2, 4]),
        with_cache=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_repeat_runs_with_cache(self, seed, shards, with_cache):
        keys = probe_keys(20, 40, seed=seed)
        records = make_records(40, seed)
        reference = build_mediator(keys, records, semijoin=False)
        expected = canonical(reference.query(QUERY).objects())
        sharded = build_mediator(
            keys,
            records,
            shards=shards,
            parallelism=4,
            cache=AnswerCache(max_entries=128) if with_cache else None,
        )
        for _ in range(2):  # second round exercises cached batches
            assert canonical(sharded.query(QUERY).objects()) == expected
        sharded.close()
        reference.close()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fault_rate=st.floats(min_value=0.0, max_value=0.3),
        shards=st.sampled_from([2, 4]),
        parallelism=st.sampled_from([1, 8]),
    )
    @settings(max_examples=10, deadline=None)
    def test_masked_fault_schedules(
        self, seed, fault_rate, shards, parallelism
    ):
        keys = probe_keys(15, 30, seed=seed)
        records = make_records(30, seed)
        reference = build_mediator(keys, records, semijoin=False)
        expected = canonical(reference.query(QUERY).objects())
        sharded = build_mediator(
            keys,
            records,
            shards=shards,
            fault_rate=fault_rate,
            retries=True,
            parallelism=parallelism,
        )
        assert canonical(sharded.query(QUERY).objects()) == expected
        sharded.close()
        reference.close()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.sampled_from([2, 4]),
        dead=st.integers(min_value=0, max_value=3),
        parallelism=st.sampled_from([1, 4]),
    )
    @settings(max_examples=10, deadline=None)
    def test_dead_shard_degrades_to_partial(
        self, seed, shards, dead, parallelism
    ):
        dead = dead % shards
        keys = probe_keys(20, 40, seed=seed)
        records = make_records(40, seed)
        healthy = build_mediator(keys, records, shards=shards)
        complete = canonical(healthy.query(QUERY).objects())
        degraded = build_mediator(
            keys,
            records,
            shards=shards,
            dead_shard=dead,
            on_source_failure="degrade",
            parallelism=parallelism,
        )
        results = degraded.query(QUERY)
        partial = canonical(results.objects())
        # the dead shard contributes nothing; everything else survives
        assert set(partial) <= set(complete)
        if partial != complete:
            assert any(
                w.source == shard_name("big", dead)
                for w in results.warnings
            )
        degraded.close()
        healthy.close()

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        shards=st.sampled_from([1, 4]),
        cap=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=10, deadline=None)
    def test_budget_truncation_is_shard_independent(
        self, seed, shards, cap
    ):
        keys = probe_keys(20, 40, seed=seed)
        records = make_records(40, seed)
        budget = QueryBudget(max_result_objects=cap)
        reference = build_mediator(
            keys,
            records,
            semijoin=False,
            budget=budget,
            budget_mode="truncate",
        )
        expected = reference.query(QUERY)
        sharded = build_mediator(
            keys,
            records,
            shards=shards,
            budget=budget,
            budget_mode="truncate",
        )
        observed = sharded.query(QUERY)
        # result order is input-row order on both paths, so the
        # truncated prefix is identical, not just same-sized
        assert canonical(observed.objects()) == canonical(
            expected.objects()
        )
        sharded.close()
        reference.close()

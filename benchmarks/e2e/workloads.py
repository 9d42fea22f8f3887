"""The four workloads: what each builds, asks, and expects.

Every workload is seeded, sees only generated inputs, and derives its
expected answers without the mediator's planner: the generator's own
ground truth for the two query workloads, and a reference export
computed by the interpretive :func:`~repro.msl.evaluate.evaluate_rule`
over the sources' whole extents for the two export workloads.

Why these four (one dominant layer each, see README.md):

* ``point_lookup`` — the source answers from its index in ~0.2 ms, so
  parse / expand / plan / fuse and the ``Mediator.answer`` facade are
  most of the op.  The view has no Rest variable because a pushed-down
  Rest condition makes :class:`SQLiteOEMStoreWrapper` scan the whole
  label extent.
* ``view_export`` — the paper's MS1: one ``whois`` scan, then one
  bind-join probe per person into ``cs``; the wrappers layer used as
  per-tuple probes.
* ``bib_fusion`` — two whole-extent scans, then mediator CPU: external
  predicate, head construction, duplicate elimination, object fusion.
* ``remote_probe`` — every source 10 ms away, four shards, staged
  executor with semi-join shipping; latency is source wait.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from time import perf_counter

from repro.datasets import (
    build_bibliography,
    build_scaled_scenario,
    record_stream,
    route_records,
)
from repro.external.registry import default_registry
from repro.mediator import Mediator
from repro.mediator.fusion import fuse_objects, has_semantic_oids
from repro.msl.ast import PatternCondition
from repro.msl.evaluate import evaluate_rule
from repro.oem.builders import atom, obj
from repro.oem.compare import eliminate_duplicates, structural_key
from repro.oem.oid import OidGenerator
from repro.oem.parser import parse_oem
from repro.oem.printer import to_text
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

from tracing import staged_answer, staged_export

POINT_SPEC = "<item {<key K> <payload P>}> :- <rec {<key K> <payload P>}>@big"
PROBE_SPEC = (
    "<hit {<b B> <k K> <p P>}> :- <probe {<batch B> <key K>}>@driver"
    " AND <rec {<key K> <payload P>}>@big"
)
SHARDS = 4
BATCH_KEYS = 64
SOURCE_LATENCY = 0.010  # seconds slept per remote source call
PARALLELISM = 4


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what the numbers are quoted at."""

    records: int  # rows in ``big`` (point_lookup, remote_probe)
    people: int  # persons in whois (view_export)
    papers: int  # papers across both bibliographies (bib_fusion)
    batches: int  # distinct probe batches held by ``driver``


FULL = Scale(records=50_000, people=150, papers=250, batches=256)
QUICK = Scale(records=4_000, people=60, papers=120, batches=16)


# -- answer checking --------------------------------------------------------


def _canonical(key) -> str:
    """Order-free text of a ``structural_key`` (frozenset order varies)."""
    if key[1] == "set":
        return f"{key[0]}{{{','.join(sorted(map(_canonical, key[2])))}}}"
    return f"{key[0]}:{key[1]}:{key[2]!r}"


def canonical_digest(objects) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for text in sorted(_canonical(structural_key(o)) for o in objects):
        digest.update(text.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def reference_export(mediator: Mediator) -> list:
    """The view by materialize-then-match: no expander, optimizer,
    plan or engine — just the MSL semantics over whole source extents."""
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
    oidgen = OidGenerator("&ref_")
    objects: list = []
    for rule in rules:
        objects.extend(evaluate_rule(rule, forests, mediator.externals, oidgen))
    objects = eliminate_duplicates(objects)
    if has_semantic_oids(objects):
        objects = fuse_objects(objects)
    return objects


def _fields(obj_) -> frozenset:
    return frozenset((child.label, child.value) for child in obj_.children)


def _payload(key: int) -> str:
    return f"payload_{key}_0"  # what record_stream generates for row `key`


# -- the workloads ----------------------------------------------------------


class Workload:
    """Set-up, one operation, and its expected answer.

    ``build`` is what ``setup_s`` times: everything up to the point
    where the first query could be sent.  ``derive_expected`` runs
    after it, untimed.
    """

    name = ""
    #: Set-ups per run (``setup_s`` is their median); more where cheap.
    setup_repeats = 5

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.mediator: Mediator | None = None

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.mediator is not None:
            self.mediator.close()
            self.mediator = None

    def derive_expected(self) -> None:
        """Compute the expected answers (nothing to do when the
        generator's own ground truth is the expectation)."""

    def request(self):
        """The next operation's input, drawn from the seeded stream."""
        return None

    def run(self, request) -> list:
        raise NotImplementedError

    def staged(self, request, recorder):
        """The same operation as a staged replay (tracing.py)."""
        raise NotImplementedError

    def expected_count(self, request) -> int:
        raise NotImplementedError

    def matches(self, request, objects) -> bool:
        """The full check: is ``objects`` exactly the expected answer?"""
        raise NotImplementedError

    def setup_layers(self) -> dict[str, float]:
        """Set-up's per-layer numbers, re-timed in isolation (traced run)."""
        raise NotImplementedError


class _QueryWorkload(Workload):
    def run(self, request) -> list:
        return self.mediator.answer(self.query_text(request))

    def staged(self, request, recorder):
        return staged_answer(self.mediator, self.query_text(request), recorder)

    def query_text(self, request) -> str:
        raise NotImplementedError


class _ExportWorkload(Workload):
    # in-memory scenarios build in tens of milliseconds
    setup_repeats = 25

    def _build_scenario(self):
        raise NotImplementedError

    def build(self) -> None:
        started = perf_counter()
        self.scenario = self._build_scenario()
        self.build_seconds = perf_counter() - started
        self.mediator = self.scenario.mediator

    def derive_expected(self) -> None:
        reference = reference_export(self.mediator)
        self.count = len(reference)
        self.digest = canonical_digest(reference)

    def run(self, request) -> list:
        return self.mediator.export()

    def staged(self, request, recorder):
        return staged_export(self.mediator, recorder)

    def expected_count(self, request) -> int:
        return self.count

    def matches(self, request, objects) -> bool:
        return canonical_digest(objects) == self.digest

    def _parsed_source(self):
        raise NotImplementedError

    def setup_layers(self) -> dict[str, float]:
        # the generators parse OEM text inside one opaque call; print
        # the parsed source's extent back out and time parsing that
        text = to_text(self._parsed_source().export())
        started = perf_counter()
        forest = parse_oem(text)
        seconds = perf_counter() - started
        nodes = sum(1 + len(top.children) for top in forest)
        return {
            "datasets.build_s": self.build_seconds,
            "oem.parser.objects_per_s": nodes / seconds,
            "wrappers.sqlite_wrapper.load_records_per_s": 0.0,
        }


class PointLookup(_QueryWorkload):
    name = "point_lookup"

    def build(self) -> None:
        self.store = SQLiteOEMStoreWrapper("big")
        started = perf_counter()
        self.store.load_records("rec", record_stream(self.scale.records))
        self.load_seconds = perf_counter() - started
        self.mediator = Mediator(
            "med", POINT_SPEC, SourceRegistry(self.store), default_registry()
        )

    def close(self) -> None:
        super().close()
        self.store.close()

    def request(self) -> int:
        return self.rng.randrange(self.scale.records)

    def query_text(self, key: int) -> str:
        return f"X :- X:<item {{<key {key}>}}>@med"

    def expected_count(self, key: int) -> int:
        return 1

    def matches(self, key: int, objects) -> bool:
        return [(o.label, _fields(o)) for o in objects] == [
            ("item", frozenset({("key", key), ("payload", _payload(key))}))
        ]

    def setup_layers(self) -> dict[str, float]:
        return _record_setup_layers(
            self.scale.records,
            self.load_seconds,
            lambda: sum(1 for _ in record_stream(self.scale.records)),
        )


class ViewExport(_ExportWorkload):
    name = "view_export"

    def _build_scenario(self):
        return build_scaled_scenario(self.scale.people, seed=self.seed)

    def _parsed_source(self):
        return self.scenario.whois


class BibFusion(_ExportWorkload):
    name = "bib_fusion"

    def _build_scenario(self):
        return build_bibliography(
            self.scale.papers, overlap_fraction=0.5, seed=self.seed
        )

    def _parsed_source(self):
        return self.scenario.webbib


class RemoteProbe(_QueryWorkload):
    name = "remote_probe"

    def _routed(self, partition):
        return route_records(
            record_stream(self.scale.records), partition, SHARDS
        )

    def build(self) -> None:
        clock = MonotonicClock()
        partition = HashPartition("key", SHARDS)
        self.stores = [
            SQLiteOEMStoreWrapper(shard_name("big", index))
            for index in range(SHARDS)
        ]
        started = perf_counter()
        for index, rows in self._routed(partition):
            self.stores[index].load_records("rec", rows)
        self.load_seconds = perf_counter() - started

        def remote(source):
            return FaultInjectingSource(
                source, latency=SOURCE_LATENCY, clock=clock
            )

        # the probe batches are part of the generated input: batch b is
        # BATCH_KEYS distinct keys, so every op returns BATCH_KEYS hits
        batch_rng = random.Random(self.seed)
        self.batches = [
            batch_rng.sample(range(self.scale.records), BATCH_KEYS)
            for _ in range(self.scale.batches)
        ]
        driver = OEMStoreWrapper(
            "driver",
            [
                obj("probe", atom("batch", batch), atom("key", key))
                for batch, keys in enumerate(self.batches)
                for key in keys
            ],
        )
        big = ShardedSource(
            "big", [remote(store) for store in self.stores], partition
        )
        self.mediator = Mediator(
            "med",
            PROBE_SPEC,
            SourceRegistry(remote(driver), big),
            default_registry(),
            parallelism=PARALLELISM,
            semijoin=True,
        )

    def close(self) -> None:
        super().close()
        for store in self.stores:
            store.close()

    def derive_expected(self) -> None:
        self.expected = [
            frozenset(
                frozenset({("b", batch), ("k", key), ("p", _payload(key))})
                for key in keys
            )
            for batch, keys in enumerate(self.batches)
        ]

    def request(self) -> int:
        return self.rng.randrange(self.scale.batches)

    def query_text(self, batch: int) -> str:
        return f"X :- X:<hit {{<b {batch}>}}>@med"

    def expected_count(self, batch: int) -> int:
        return BATCH_KEYS

    def matches(self, batch: int, objects) -> bool:
        return (
            all(o.label == "hit" for o in objects)
            and len(objects) == BATCH_KEYS
            and frozenset(_fields(o) for o in objects) == self.expected[batch]
        )

    def setup_layers(self) -> dict[str, float]:
        partition = HashPartition("key", SHARDS)
        return _record_setup_layers(
            self.scale.records,
            self.load_seconds,
            lambda: sum(len(rows) for _, rows in self._routed(partition)),
        )


def _record_setup_layers(records, load_seconds, generate) -> dict[str, float]:
    """Split a streaming load into generator time and store time."""
    started = perf_counter()
    generated = generate()
    build_seconds = perf_counter() - started
    assert generated == records
    return {
        "datasets.build_s": build_seconds,
        "oem.parser.objects_per_s": 0.0,
        "wrappers.sqlite_wrapper.load_records_per_s": records
        / max(load_seconds - build_seconds, 1e-9),
    }


WORKLOADS = {
    cls.name: cls for cls in (PointLookup, ViewExport, BibFusion, RemoteProbe)
}

"""Wrappers: the per-source translation layer of the TSIMMIS architecture."""

from repro.wrappers.base import Source, SourceError, Wrapper
from repro.wrappers.capability import (
    BATCH_CAPABILITY,
    Capability,
    CapabilityViolation,
    FULL_CAPABILITY,
)
from repro.wrappers.facts import SchemaFacts, pattern_satisfiable
from repro.wrappers.oem_wrapper import OEMStoreWrapper
from repro.wrappers.registry import SourceRegistry
from repro.wrappers.relational_wrapper import RelationalWrapper
from repro.wrappers.sharding import (
    HashPartition,
    RangePartition,
    SemiJoinFilter,
    SemiJoinQuery,
    ShardedSource,
    partition_forest,
    shard_name,
)
from repro.wrappers.sqlite_wrapper import SQLiteOEMStoreWrapper

__all__ = [
    "BATCH_CAPABILITY",
    "Capability",
    "CapabilityViolation",
    "FULL_CAPABILITY",
    "HashPartition",
    "OEMStoreWrapper",
    "RangePartition",
    "RelationalWrapper",
    "SQLiteOEMStoreWrapper",
    "SchemaFacts",
    "SemiJoinFilter",
    "SemiJoinQuery",
    "ShardedSource",
    "Source",
    "SourceError",
    "SourceRegistry",
    "partition_forest",
    "pattern_satisfiable",
    "shard_name",
    "Wrapper",
]

"""The source registry: name -> Source resolution for mediators.

Mediator specification tails name their sources (``@whois``, ``@cs``);
a registry resolves those names.  Mediators register themselves too, so
views can be layered (a mediator tail may say ``@other_med``), which is
how the TSIMMIS architecture stacks mediators above mediators
(Figure 1.1).
"""

from __future__ import annotations

from typing import Iterator

from repro.wrappers.base import Source, SourceError

__all__ = ["SourceRegistry"]


class SourceRegistry:
    """A mutable mapping of source names to :class:`Source` objects."""

    def __init__(self, *sources: Source) -> None:
        self._sources: dict[str, Source] = {}
        #: Counts registrations and deregistrations: a plan made against
        #: an earlier generation may name a source that has gone or
        #: changed, and is planned again.
        self.generation = 0
        for source in sources:
            self.register(source)

    def register(self, source: Source) -> None:
        """Register ``source`` under its own name (unique)."""
        if source.name in self._sources:
            raise SourceError(
                f"a source named {source.name!r} is already registered"
            )
        self._sources[source.name] = source
        self.generation += 1

    def deregister(self, name: str) -> None:
        if name not in self._sources:
            raise SourceError(f"no source named {name!r}")
        del self._sources[name]
        self.generation += 1

    def resolve(self, name: str | None) -> Source:
        """The source registered under ``name``.

        Shard-qualified names (``big#3``) resolve through the logical
        :class:`~repro.wrappers.sharding.ShardedSource` entry, so the
        execution layer addresses individual shards without each shard
        occupying a registry slot.
        """
        if name is None:
            raise SourceError(
                "a mediator tail condition lacks its @source annotation"
            )
        source = self._sources.get(name)
        if source is None:
            shard = self._resolve_shard(name)
            if shard is not None:
                return shard
            known = ", ".join(sorted(self._sources)) or "(none)"
            raise SourceError(
                f"no source named {name!r}; registered sources: {known}"
            )
        return source

    def _resolve_shard(self, name: str) -> Source | None:
        logical, sep, index = name.partition("#")
        if not sep or not index.isdigit():
            return None
        entry = self._sources.get(logical)
        shard_lookup = getattr(entry, "shard", None)
        if shard_lookup is None:
            return None
        return shard_lookup(int(index))

    def __contains__(self, name: str) -> bool:
        if name in self._sources:
            return True
        try:
            return self._resolve_shard(name) is not None
        except SourceError:
            return False

    def __iter__(self) -> Iterator[Source]:
        for name in sorted(self._sources):
            yield self._sources[name]

    def names(self) -> list[str]:
        return sorted(self._sources)

    def __len__(self) -> int:
        return len(self._sources)

    # -- registry-level operations ----------------------------------------

    def reset_all_counters(self) -> None:
        """Zero every registered source's counters in one call.

        Benchmarks used to walk the registry resetting wrappers one by
        one; this is the supported bulk operation (it also reaches
        mediators and reliability decorators, which forward the reset).
        """
        for source in self:
            source.reset_counters()

    def compile_cache_stats(self) -> list[tuple[str, dict[str, int]]]:
        """``(source name, {hits, misses, rules})`` of the compiled-rule
        memo each wrapper keeps for the queries shipped to it — shards
        under their qualified names, a decorated wrapper through its
        decorators' ``stats()``; sources without one are left out."""
        found = []
        for source in self:
            for member in getattr(source, "shards", (source,)):
                stats = member.stats()
                if "compile_rules" in stats:
                    found.append(
                        (
                            member.name,
                            {
                                "hits": stats["compile_hits"],
                                "misses": stats["compile_misses"],
                                "rules": stats["compile_rules"],
                            },
                        )
                    )
        return found

    def stats_snapshot(self) -> dict[str, dict[str, object]]:
        """Per-source operational stats, keyed by source name.

        Plain wrappers report query/object counters; sources wrapped in
        the reliability layer add attempts, failures and breaker state.
        """
        return {source.name: source.stats() for source in self}

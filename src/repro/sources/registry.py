"""Federation catalog: which source serves which record kind.

The query engine and the integration pipeline never talk to a concrete
source class — they resolve kinds through a :class:`SourceRegistry`,
which also aggregates traffic statistics across the federation for the
experiment reports.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import SourceError
from repro.sources.base import DataSource
from repro.sources.chaos import ChaosSource

#: Anything that speaks the uniform source dialect.
SourceLike = DataSource | ChaosSource


class SourceRegistry:
    """Maps record kinds to the (possibly wrapped) source serving them."""

    def __init__(self) -> None:
        self._by_kind: dict[str, SourceLike] = {}
        self._sources: list[SourceLike] = []

    def register(self, source: SourceLike) -> None:
        """Register *source* for every kind it serves.

        A kind served by two sources is a configuration error — the
        federation has exactly one authority per kind.
        """
        for kind in sorted(source.kinds()):
            if kind in self._by_kind:
                raise SourceError(
                    f"kind {kind!r} already served by "
                    f"{self._by_kind[kind].name!r}"
                )
            self._by_kind[kind] = source
        self._sources.append(source)

    def source_for(self, kind: str) -> SourceLike:
        try:
            return self._by_kind[kind]
        except KeyError:
            known = ", ".join(sorted(self._by_kind))
            raise SourceError(
                f"no source serves kind {kind!r} (known kinds: {known})"
            ) from None

    def kinds(self) -> frozenset[str]:
        return frozenset(self._by_kind)

    def sources(self) -> list[SourceLike]:
        return list(self._sources)

    # -- convenience passthroughs ----------------------------------------

    def fetch(self, kind: str, key: str) -> object | None:
        return self.source_for(kind).fetch(kind, key)

    def fetch_many(self, kind: str,
                   keys: Iterable[str]) -> dict[str, object]:
        return self.source_for(kind).fetch_many(kind, keys)

    def scan_keys(self, kind: str) -> list[str]:
        return self.source_for(kind).scan_keys(kind)

    # -- fleet statistics --------------------------------------------------

    def combined_stats(self) -> dict[str, float]:
        """Sum of traffic meters across every registered source."""
        totals = {
            "roundtrips": 0.0,
            "records_returned": 0.0,
            "keys_requested": 0.0,
            "virtual_latency_s": 0.0,
        }
        for source in self._sources:
            for key, value in source.stats.snapshot().items():
                totals[key] += value
        totals["virtual_latency_s"] = round(totals["virtual_latency_s"], 6)
        return totals

"""Similarity search structures: the popcount-ordered fingerprint index.

The Tanimoto bound ``T(a,b) >= t  ⇒  t*|a| <= |b| <= |a|/t`` (Swamidass
& Baldi 2007) means a library kept *sorted by popcount* can locate the
candidate band with two binary searches instead of testing every
fingerprint — turning the prefilter from a per-query scan into an
index lookup. This is what makes the prefilter pay off in wall time,
not just in candidate counts.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable

from repro.chem.fingerprint import Fingerprint, tanimoto
from repro.errors import ChemError


class FingerprintIndex:
    """An immutable-after-build popcount-ordered fingerprint library."""

    def __init__(self) -> None:
        self._popcounts: list[int] = []
        self._entries: list[tuple[str, Fingerprint]] = []
        self._by_key: dict[str, Fingerprint] = {}
        self._n_bits: int | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._by_key

    def add(self, key: str, fingerprint: Fingerprint) -> None:
        """Insert one fingerprint (keeps popcount order)."""
        if key in self._by_key:
            raise ChemError(f"duplicate fingerprint key {key!r}")
        if self._n_bits is None:
            self._n_bits = fingerprint.n_bits
        elif fingerprint.n_bits != self._n_bits:
            raise ChemError(
                f"fingerprint width {fingerprint.n_bits} does not match "
                f"index width {self._n_bits}"
            )
        position = bisect.bisect_right(self._popcounts,
                                       fingerprint.popcount)
        self._popcounts.insert(position, fingerprint.popcount)
        self._entries.insert(position, (key, fingerprint))
        self._by_key[key] = fingerprint

    def add_many(self,
                 items: Iterable[tuple[str, Fingerprint]]) -> None:
        for key, fingerprint in items:
            self.add(key, fingerprint)

    def get(self, key: str) -> Fingerprint | None:
        return self._by_key.get(key)

    # -- search -----------------------------------------------------------

    def candidate_band(self, probe: Fingerprint,
                       threshold: float) -> list[tuple[str, Fingerprint]]:
        """Entries whose popcount can possibly reach *threshold*.

        Two binary searches bound the band; entries outside it are
        never touched.
        """
        if not 0.0 < threshold <= 1.0:
            raise ChemError("threshold must be in (0, 1]")
        probe_bits = probe.popcount
        if probe_bits == 0:
            # An empty probe matches only empty fingerprints (T == 1).
            low_count, high_count = 0, 0
        else:
            low_count = threshold * probe_bits
            high_count = probe_bits / threshold
        start = bisect.bisect_left(self._popcounts, low_count)
        stop = bisect.bisect_right(self._popcounts, high_count)
        return self._entries[start:stop]

    def search(self, probe: Fingerprint,
               threshold: float) -> list[tuple[str, float]]:
        """All (key, similarity) pairs with Tanimoto >= *threshold*,
        strongest first (key as tie-break for determinism)."""
        matches = [
            (key, score)
            for key, fingerprint in self.candidate_band(probe, threshold)
            if (score := tanimoto(probe, fingerprint)) >= threshold
        ]
        matches.sort(key=lambda item: (-item[1], item[0]))
        return matches

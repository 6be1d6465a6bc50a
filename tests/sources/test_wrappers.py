"""Tests for the source registry, bare and wrapped sources alike."""

import pytest

from repro.errors import SourceError
from repro.faults import FaultSchedule
from repro.sources import (
    ChaosSource,
    LatencyModel,
    SimulatedClock,
    SourceRegistry,
    TableBackedSource,
)

EXACT = LatencyModel(base_s=0.1, per_item_s=0.0, jitter_fraction=0)


def _source(clock, n=20):
    tables = {"thing": {f"k{i}": f"v{i}" for i in range(n)}}
    return TableBackedSource("inner", clock, tables, latency=EXACT)


class TestRegistry:
    def test_kind_resolution(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(_source(clock))
        assert registry.fetch("thing", "k1") == "v1"
        assert "thing" in registry.kinds()

    def test_duplicate_kind_rejected(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(_source(clock))
        with pytest.raises(SourceError, match="already served"):
            registry.register(_source(clock))

    def test_unknown_kind(self):
        registry = SourceRegistry()
        with pytest.raises(SourceError, match="no source serves"):
            registry.fetch("mystery", "k")

    def test_combined_stats(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        source_a = _source(clock)
        tables = {"other": {"x": 1}}
        source_b = TableBackedSource("b", clock, tables, latency=EXACT)
        registry.register(source_a)
        registry.register(source_b)
        registry.fetch("thing", "k1")
        registry.fetch("other", "x")
        stats = registry.combined_stats()
        assert stats["roundtrips"] == 2

    def test_wrapped_source_registers(self):
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(ChaosSource(_source(clock), FaultSchedule()))
        assert registry.fetch("thing", "k2") == "v2"
        assert registry.combined_stats()["roundtrips"] == 1

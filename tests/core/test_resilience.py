"""End-to-end resilience: integrating over a flaky federation.

These tests verify the whole pipeline works when every source is
unreliable, and that the scheduler's retry ladder (``mode=
"concurrent"``) is what makes the difference.
"""

import pytest

from repro.core import IntegrationPipeline
from repro.errors import RateLimitError, SourceUnavailableError
from repro.sources import (
    ErrorBurst,
    FaultSchedule,
    FetchScheduler,
    LatencyModel,
    SourceRegistry,
    TokenBucket,
    wrap_registry,
)
from repro.sources.activity import LigandActivitySource
from repro.sources.annotation import AnnotationSource
from repro.sources.protein import ProteinStructureSource
from repro.sources.clock import SimulatedClock
from repro.workloads import DatasetConfig, build_dataset


def _world(seed: int = 61):
    return build_dataset(DatasetConfig(n_leaves=14, n_ligands=20,
                                       seed=seed))


def _flaky_registry(dataset, failure_rate: float) -> SourceRegistry:
    """The dataset's three sources, each failing at the given rate."""
    burst = FaultSchedule([ErrorBurst(0.0, 1e9,
                                      failure_rate=failure_rate)],
                          seed=dataset.config.seed)
    return wrap_registry(dataset.registry, burst)


def _retrying(registry: SourceRegistry,
              max_attempts: int) -> IntegrationPipeline:
    return IntegrationPipeline(
        registry, mode="concurrent",
        scheduler=FetchScheduler(registry, max_attempts=max_attempts))


class TestFlakyIntegration:
    def test_unprotected_integration_fails(self):
        dataset = _world()
        pipeline = IntegrationPipeline(_flaky_registry(dataset, 0.3),
                                       mode="per_item")
        with pytest.raises(SourceUnavailableError):
            # Per-item mode makes hundreds of calls; at 30% failure one
            # of them dies with near-certainty.
            pipeline.build_drugtree(dataset.tree)

    def test_retry_wrapped_integration_succeeds(self):
        dataset = _world()
        pipeline = _retrying(_flaky_registry(dataset, 0.3),
                             max_attempts=8)
        drugtree, result = pipeline.build_drugtree(dataset.tree)
        assert drugtree.binding_count == len(dataset.bindings)
        assert result.proteins == 14

    def test_retries_cost_latency(self):
        reliable, flaky = _world(), _world()
        _, clean = _retrying(reliable.registry, max_attempts=8,
                             ).build_drugtree(reliable.tree)
        pipeline = _retrying(_flaky_registry(flaky, 0.5), max_attempts=8)
        _, noisy = pipeline.build_drugtree(flaky.tree)
        # Every retry is one more request on the wire, and its timeout
        # one more wait, than the reliable world paid.
        assert noisy.roundtrips == clean.roundtrips
        assert pipeline.scheduler.stats.retries > 0
        assert noisy.virtual_latency_s > clean.virtual_latency_s

    def test_flaky_world_same_overlay_as_reliable(self):
        """Failures must never corrupt the result — only delay it."""
        reliable, flaky = _world(seed=62), _world(seed=62)
        clean_tree, _ = IntegrationPipeline(
            reliable.registry, mode="batched",
        ).build_drugtree(reliable.tree)
        noisy_tree, _ = _retrying(_flaky_registry(flaky, 0.25),
                                  max_attempts=10,
                                  ).build_drugtree(flaky.tree)
        for name in ("proteins", "ligands", "bindings"):
            clean_rows = sorted(map(repr,
                                    clean_tree.tables[name].scan_rows()))
            noisy_rows = sorted(map(repr,
                                    noisy_tree.tables[name].scan_rows()))
            assert clean_rows == noisy_rows


class TestRateLimitedIntegration:
    def _limited_registry(self, dataset) -> SourceRegistry:
        """The dataset's proteins behind a "5 calls per second" PDB."""
        clock = SimulatedClock()
        registry = SourceRegistry()
        registry.register(ProteinStructureSource(
            clock,
            [dataset.protein_source.fetch("protein", pid)
             for pid in dataset.family.protein_ids],
            latency=LatencyModel(base_s=0.01, jitter_fraction=0.0),
            rate_limit=TokenBucket(rate=5.0, burst=5),
        ))
        registry.register(LigandActivitySource(
            clock, [], [], latency=LatencyModel(jitter_fraction=0.0),
        ))
        registry.register(AnnotationSource(
            clock, [], latency=LatencyModel(jitter_fraction=0.0),
        ))
        return registry

    def test_rate_limited_source_with_batching(self):
        """Batched integration fits under a rate limit that per-item
        integration blows through."""
        dataset = build_dataset(DatasetConfig(n_leaves=12, n_ligands=15,
                                              seed=63))
        pipeline = IntegrationPipeline(self._limited_registry(dataset),
                                       mode="batched")
        drugtree, _ = pipeline.build_drugtree(dataset.tree)
        assert drugtree.protein_count == 12
        pipeline = IntegrationPipeline(self._limited_registry(dataset),
                                       mode="per_item")
        with pytest.raises(RateLimitError):
            pipeline.build_drugtree(dataset.tree)

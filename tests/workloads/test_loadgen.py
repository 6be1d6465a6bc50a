"""Tests for the open-loop load generator."""

import random
from collections import Counter

import pytest

from repro.errors import ServingError
from repro.workloads import LoadConfig, TenantLoad, ZipfSampler
from repro.workloads.loadgen import generate_load

CLADES = [f"clade_{i:04d}" for i in range(1, 13)]
PROTEINS = [f"P{i:05d}" for i in range(40)]


class TestZipfSampler:
    def test_rank_one_dominates(self):
        sampler = ZipfSampler(CLADES)
        rng = random.Random(0)
        counts = Counter(sampler.sample(rng) for _ in range(3000))
        assert counts[CLADES[0]] > counts[CLADES[-1]] * 3
        assert counts.most_common(1)[0][0] == CLADES[0]

    def test_empty_items_rejected(self):
        with pytest.raises(ServingError):
            ZipfSampler([])


class TestGenerateLoad:
    def test_open_loop_rate_roughly_matches_target(self):
        config = LoadConfig(tenants=(TenantLoad("a", 40.0),),
                            duration_s=30.0, seed=1)
        requests = generate_load(CLADES, PROTEINS, config)
        rate = len(requests) / config.duration_s
        assert 20.0 <= rate <= 60.0

    def test_arrivals_fit_the_interval(self):
        requests = generate_load(CLADES, PROTEINS, LoadConfig(seed=2))
        assert all(0.0 <= r.arrival_s < 60.0 for r in requests)

    def test_all_tenants_and_kinds_present(self):
        config = LoadConfig(tenants=(TenantLoad("a", 30.0),
                                     TenantLoad("b", 30.0)),
                            duration_s=30.0, seed=3)
        requests = generate_load(CLADES, PROTEINS, config)
        tenants = {r.tenant for r in requests}
        kinds = {r.kind for r in requests}
        assert tenants == {"a", "b"}
        assert kinds == {"render", "query", "details"}

    def test_requests_are_session_shaped(self):
        requests = generate_load(CLADES, PROTEINS,
                                 LoadConfig(seed=4, duration_s=30.0))
        sessions = Counter(r.session for r in requests)
        # Sessions carry multiple gestures, and every session id names
        # its tenant.
        assert max(sessions.values()) > 1
        assert all(key.startswith("default-u") for key in sessions)

    def test_deterministic_for_a_seed(self):
        config = LoadConfig(seed=9, duration_s=20.0)
        first = generate_load(CLADES, PROTEINS, config)
        second = generate_load(CLADES, PROTEINS, config)
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_load(CLADES, PROTEINS,
                              LoadConfig(seed=1, duration_s=20.0))
        second = generate_load(CLADES, PROTEINS,
                               LoadConfig(seed=2, duration_s=20.0))
        assert first != second

    def test_query_targets_are_dtql(self):
        requests = generate_load(CLADES, PROTEINS, LoadConfig(seed=5))
        queries = [r for r in requests if r.kind == "query"]
        assert queries
        assert all(r.target.startswith("SELECT") for r in queries)

    def test_needs_targets(self):
        with pytest.raises(ServingError):
            generate_load([], PROTEINS, LoadConfig())
        with pytest.raises(ServingError):
            generate_load(CLADES, [], LoadConfig())

"""Tests for the k-mer protein sequence search."""

import pytest

from repro.bio import KmerIndex, ProteinSequence, local_align
from repro.bio.simulate import birth_death_tree, evolve_sequences
from repro.errors import SequenceError


def _family(n=12, seed=5, length=80):
    tree = birth_death_tree(n, seed=seed)
    for node in tree.preorder():
        node.branch_length *= 0.2
    return evolve_sequences(tree, length=length, seed=seed + 1)


@pytest.fixture(scope="module")
def index():
    built = KmerIndex(k=3)
    built.add_many(_family())
    return built


class TestIndexConstruction:
    def test_size_and_membership(self, index):
        assert len(index) == 12
        assert "taxon_0000" in index
        assert "zz" not in index

    def test_duplicate_rejected(self, index):
        with pytest.raises(SequenceError, match="duplicate"):
            index.add(ProteinSequence("taxon_0000", "MKT"))

    def test_get(self, index):
        assert index.get("taxon_0001") is not None
        assert index.get("nope") is None

    def test_invalid_k(self):
        with pytest.raises(SequenceError):
            KmerIndex(k=0)


class TestCandidates:
    def test_self_always_candidate(self, index):
        query = index.get("taxon_0003")
        candidates = index.candidates(query)
        assert "taxon_0003" in candidates

    def test_shared_counts_bounded_by_kmer_count(self, index):
        query = index.get("taxon_0003")
        max_kmers = len(query) - index.k + 1
        for shared in index.candidates(query).values():
            assert 1 <= shared <= max_kmers

    def test_min_shared_filters(self, index):
        query = index.get("taxon_0003")
        loose = index.candidates(query, min_shared=1)
        strict = index.candidates(query, min_shared=20)
        assert set(strict) <= set(loose)

    def test_unrelated_sequence_few_candidates(self, index):
        noise = ProteinSequence("noise", "WWWWWWWWHHHHHHHHWWWWWWWW")
        candidates = index.candidates(noise, min_shared=2)
        assert len(candidates) <= 2

    def test_invalid_min_shared(self, index):
        with pytest.raises(SequenceError):
            index.candidates(index.get("taxon_0001"), min_shared=0)


class TestSearch:
    def test_self_is_top_hit(self, index):
        query = index.get("taxon_0005")
        hits = index.search(query, top_k=3)
        assert hits[0].seq_id == "taxon_0005"
        assert hits[0].identity == 1.0

    def test_ranked_by_score(self, index):
        hits = index.search(index.get("taxon_0002"), top_k=10)
        scores = [hit.score for hit in hits]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_respected(self, index):
        hits = index.search(index.get("taxon_0002"), top_k=4)
        assert len(hits) <= 4

    def test_filter_agrees_with_exhaustive_on_best_hit(self, index):
        """For in-family queries the true best hit must survive the
        k-mer filter: the one alignment against every sequence finds."""
        for seq_id in ("taxon_0001", "taxon_0004", "taxon_0008"):
            query = index.get(seq_id)
            filtered = index.search(query, top_k=1)
            score, best = min((-local_align(query, target).score,
                               target.seq_id) for target in _family())
            assert (filtered[0].seq_id, filtered[0].score) == (best, -score)

    def test_novel_family_member_found(self, index):
        """A mutated copy of a family member should hit its parent."""
        parent = index.get("taxon_0006")
        mutated = list(parent.residues)
        for position in range(0, len(mutated), 9):
            mutated[position] = "A" if mutated[position] != "A" else "G"
        query = ProteinSequence("novel", "".join(mutated))
        hits = index.search(query, top_k=3)
        assert any(hit.seq_id == "taxon_0006" for hit in hits)

    def test_validation(self, index):
        with pytest.raises(SequenceError):
            index.search(index.get("taxon_0001"), top_k=0)

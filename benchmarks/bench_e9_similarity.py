"""E9 — ligand similarity search: fingerprint prefilter ablation.

Top-K structural similarity queries with and without the popcount
prefilter, across thresholds. The prefilter exploits the Tanimoto
popcount bound ``t*|a| <= |b| <= |a|/t``; both paths must return
identical answers.

Expected shape: the prefilter wins by the candidate-reduction factor,
which grows with the threshold (stricter searches prune more); results
are always identical.
"""

from __future__ import annotations

import time

from repro.core import EngineConfig, QueryEngine
from repro.core.query.ast import Query, SimilarityFilter
from repro.workloads import TextTable, mean

THRESHOLDS = (0.5, 0.7, 0.9)
PROBES = 8


def test_e9_prefilter_ablation(benchmark, world_medium, report):
    dataset = world_medium
    drugtree = dataset.drugtree()
    probes = [ligand.smiles for ligand in dataset.ligands[:PROBES]]
    with_prefilter = QueryEngine(drugtree, EngineConfig(
        use_semantic_cache=False, use_fingerprint_prefilter=True,
    ))
    exhaustive = QueryEngine(drugtree, EngineConfig(
        use_semantic_cache=False, use_fingerprint_prefilter=False,
    ))

    def sweep():
        rows = []
        for threshold in THRESHOLDS:
            pre_candidates, pre_wall = [], []
            full_candidates, full_wall = [], []
            for smiles in probes:
                query = Query(select=("ligand_id",),
                              similar=SimilarityFilter(smiles, threshold))
                started = time.perf_counter()
                fast = with_prefilter.execute(query)
                pre_wall.append(time.perf_counter() - started)
                started = time.perf_counter()
                slow = exhaustive.execute(query)
                full_wall.append(time.perf_counter() - started)
                assert sorted(map(repr, fast.rows)) == \
                    sorted(map(repr, slow.rows))
                pre_candidates.append(fast.similarity_candidates)
                full_candidates.append(slow.similarity_candidates)
            rows.append((
                threshold,
                mean(full_candidates), mean(pre_candidates),
                mean(full_wall) * 1000, mean(pre_wall) * 1000,
            ))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["threshold", "candidates (exhaustive)", "candidates (prefilter)",
         "exhaustive ms", "prefilter ms"],
        title=f"E9  similarity search over "
              f"{world_medium.config.n_ligands} ligands "
              "(identical answers verified)",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    # Candidate reduction grows with threshold.
    reductions = [row[1] / max(row[2], 1) for row in rows]
    assert reductions == sorted(reductions)
    assert reductions[-1] > 1.5
    # Prefilter never examines more candidates.
    assert all(row[2] <= row[1] for row in rows)


def test_e9b_popcount_index_scaling(benchmark, report):
    """The popcount-ordered index vs brute force at library scale."""
    from repro.chem import FingerprintIndex, generate_library, tanimoto
    from repro.workloads import mean as _mean

    library = generate_library(600, seed=909)
    index = FingerprintIndex()
    index.add_many(
        (ligand.ligand_id, ligand.fingerprint) for ligand in library
    )
    probes = [ligand.fingerprint for ligand in library[:10]]

    def sweep():
        rows = []
        for threshold in THRESHOLDS:
            index_wall, brute_wall = [], []
            band_sizes = []
            for probe in probes:
                started = time.perf_counter()
                via_index = index.search(probe, threshold)
                index_wall.append(time.perf_counter() - started)
                band_sizes.append(
                    len(index.candidate_band(probe, threshold))
                )
                started = time.perf_counter()
                brute = sorted(
                    (ligand.ligand_id, score)
                    for ligand in library
                    if (score := tanimoto(probe,
                                          ligand.fingerprint))
                    >= threshold
                )
                brute_wall.append(time.perf_counter() - started)
                assert sorted(via_index) == brute
            rows.append((threshold, len(library),
                         _mean(band_sizes),
                         _mean(brute_wall) * 1000,
                         _mean(index_wall) * 1000))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["threshold", "library", "mean band size", "brute-force ms",
         "index ms"],
        title="E9b  popcount index vs brute force (600-ligand library, "
              "identical answers verified)",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    # The band shrinks with threshold and the index never examines
    # more than the library.
    bands = [row[2] for row in rows]
    assert bands == sorted(bands, reverse=True)
    assert all(band <= len(library) for band in bands)
    # At the strictest threshold the index should also win on wall.
    strictest = rows[-1]
    assert strictest[4] <= strictest[3]


def test_e9c_substructure_screen(benchmark, world_medium, report):
    """CONTAINING queries: the count screen vs searching every molecule."""
    from repro.core.query.ast import Query, SubstructureFilter

    dataset = world_medium
    drugtree = dataset.drugtree()
    fragments = ("c1ccccc1", "c1ccncc1", "C(=O)O", "C1CCNCC1",
                 "C(F)(F)F")
    screened_engine = QueryEngine(drugtree, EngineConfig(
        use_semantic_cache=False, use_substructure_screen=True,
    ))
    raw_engine = QueryEngine(drugtree, EngineConfig(
        use_semantic_cache=False, use_substructure_screen=False,
    ))

    # The first query over a world pays its lazily built state (~35 ms:
    # table statistics, ring perception cached per molecule); keep that
    # out of the first fragment's cells.
    warm_up = Query(select=("ligand_id",),
                    substructure=SubstructureFilter("CC"))
    screened_engine.execute(warm_up)
    raw_engine.execute(warm_up)

    def sweep():
        rows = []
        for fragment in fragments:
            query = Query(select=("ligand_id",),
                          substructure=SubstructureFilter(fragment))
            started = time.perf_counter()
            fast = screened_engine.execute(query)
            fast_ms = (time.perf_counter() - started) * 1000
            started = time.perf_counter()
            slow = raw_engine.execute(query)
            slow_ms = (time.perf_counter() - started) * 1000
            assert sorted(map(repr, fast.rows)) == \
                sorted(map(repr, slow.rows))
            rows.append((fragment, len(fast.rows),
                         slow.substructure_candidates,
                         fast.substructure_candidates,
                         slow_ms, fast_ms))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(
        ["fragment", "matches", "searches (raw)",
         "searches (screened)", "raw ms", "screened ms"],
        title=f"E9c  CONTAINING over "
              f"{world_medium.config.n_ligands} ligands "
              "(identical answers verified)",
    )
    for row in rows:
        table.add_row(*row)
    report(table)

    # The screen never adds searches and always preserves answers.
    for _, matches, raw_calls, screened_calls, _, _ in rows:
        assert matches <= screened_calls <= raw_calls


def test_e9_similarity_query_wall_time(benchmark, world_medium):
    dataset = world_medium
    drugtree = dataset.drugtree()
    engine = QueryEngine(drugtree, EngineConfig(
        use_semantic_cache=False,
    ))
    probe = dataset.ligands[0].smiles
    query = Query(select=("ligand_id", "smiles"),
                  similar=SimilarityFilter(probe, 0.7))
    benchmark(lambda: engine.execute(query))

"""Acceptance criteria, one test per criterion with a printed PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them all the same.
"""

import random
import resource
import shutil
import time
from pathlib import Path

from archetypes import ARCHETYPE_GENERATORS
from oracles import (
    DictVenueGraph,
    average_clustering_oracle,
    best_modularity_exhaustive,
    betweenness_oracle,
    cluster_sets,
    coauthorship_corpus,
    density_oracle,
    lcc_fraction_oracle,
    neighbors,
    random_test_graph,
    sw_score_matrix,
)
from venuenet.community import greedy_modularity_partition, read_partition
from venuenet.corpus import save_corpus
from venuenet.linkage import link_corpora, smith_waterman_similarities
from venuenet.metrics import (
    average_clustering_coefficient,
    betweenness_centrality,
    density,
    largest_component_fraction,
    pagerank,
)
from venuenet.networks import ThresholdRule, apply_threshold
from venuenet.pipeline import PipelineConfig, run_pipeline, STAGES
from venuenet.subgraphs import profile_venues
from venuenet.synth import (
    linkage_benchmark_corpora,
    planted_group_corpus,
    scale_corpus,
    split_for_linkage,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def test_metric_oracle_equivalence():
    """Betweenness, density, clustering, and LCC fraction match brute force
    on 200 seeded random graphs (n <= 12, mixed directed/undirected/weighted)
    within 1e-9, in under 30 seconds."""
    rng = random.Random(20090701)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        g, weighted = random_test_graph(rng, max_nodes=12)
        got_b = betweenness_centrality(g, weighted=weighted, normalized=False).values
        want_b = betweenness_oracle(g, weighted=weighted, normalized=False)
        for node in g.nodes:
            worst = max(worst, abs(got_b[node] - want_b[node]))
        worst = max(worst, abs(density(g) - density_oracle(g)))
        worst = max(
            worst, abs(average_clustering_coefficient(g) - average_clustering_oracle(g))
        )
        worst = max(
            worst, abs(largest_component_fraction(g) - lcc_fraction_oracle(g))
        )
    elapsed = time.perf_counter() - started
    report(
        "metric-oracle-equivalence",
        worst <= 1e-9 and elapsed < 30.0,
        f"max deviation {worst:.3e} over 200 graphs in {elapsed:.1f}s",
    )


def test_pagerank_fixed_point():
    """All-ones is the fixed point on strongly connected out-regular digraphs
    up to n = 50: every score within 1e-6 of 1.0, residual below tol."""
    worst = 0.0
    worst_residual = 0.0
    count = 0
    for n in range(2, 51):
        for k in {1, 2, 3, min(7, n - 1)}:
            if k < 1 or k > n - 1:
                continue
            g = DictVenueGraph(directed=True)
            names = [f"v{i:02d}" for i in range(n)]
            for i in range(n):
                for step in range(1, k + 1):
                    g.add_edge(names[i], names[(i + step) % n], 1.0)
            vector = pagerank(g.venue_graph(), d=0.85, tol=1e-8)
            count += 1
            worst = max(worst, max(abs(v - 1.0) for v in vector.values.values()))
            worst_residual = max(worst_residual, vector.residual)
            assert vector.converged
    report(
        "pagerank-fixed-point",
        worst <= 1e-6 and worst_residual < 1e-8,
        f"{count} out-regular digraphs, max |score-1| {worst:.2e}, max residual {worst_residual:.2e}",
    )


def test_smith_waterman_oracle_equality():
    """Optimized scorer, one batch as `link_corpora` calls it, equals the
    full-table DP oracle on 10,000 random string pairs of length <= 64,
    exactly."""
    rng = random.Random(424242)
    alphabet = "abcdefgh "
    pairs = []
    for _ in range(10_000):
        s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
        s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
        pairs.append((s1, s2))
    scores = smith_waterman_similarities(pairs)
    mismatches = sum(score != sw_score_matrix(s1, s2) for score, (s1, s2) in zip(scores, pairs))
    report("smith-waterman-oracle", mismatches == 0, f"{mismatches} mismatches in 10000 pairs")


def test_linkage_recall_and_precision():
    """On 1,000 planted duplicate pairs with corrupted titles and shared
    author last names, default thresholds recover >= 99% with <= 1% false
    matches in under 10 seconds."""
    meta, cite, truth = linkage_benchmark_corpora(n=1000, seed=11)
    started = time.perf_counter()
    matches = link_corpora(meta, cite)
    elapsed = time.perf_counter() - started
    accepted = {(m.left, m.right) for m in matches}
    recovered = len(accepted & truth)
    false_matches = len(accepted - truth)
    recall = recovered / len(truth)
    false_rate = false_matches / max(len(accepted), 1)
    report(
        "linkage-recall",
        recall >= 0.99 and false_rate <= 0.01 and elapsed < 10.0,
        f"recall {recall:.4f}, false rate {false_rate:.4f}, {elapsed:.1f}s",
    )


def test_modularity_criteria():
    """Two disjoint triangles give Q = 0.5 exactly; 100 planted two-clique
    graphs are split perfectly; greedy Q is within 0.05 of the exhaustive
    optimum for n <= 8."""
    g = DictVenueGraph()
    for a, b in [("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2"), ("b2", "b3"), ("b1", "b3")]:
        g.add_edge(a, b, 1.0)
    p = greedy_modularity_partition(g.venue_graph())
    exact_ok = p.q == 0.5 and cluster_sets(p) == {
        frozenset({"a1", "a2", "a3"}),
        frozenset({"b1", "b2", "b3"}),
    }

    rng = random.Random(1000)
    recovered = 0
    for _ in range(100):
        size_a, size_b = rng.randint(8, 12), rng.randint(8, 12)
        planted = DictVenueGraph()
        a = [f"a{i:02d}" for i in range(size_a)]
        b = [f"b{i:02d}" for i in range(size_b)]
        for grp in (a, b):
            for i in range(len(grp)):
                for j in range(i + 1, len(grp)):
                    planted.add_edge(grp[i], grp[j], 1.0)
        planted.add_edge(rng.choice(a), rng.choice(b), 1.0)
        partition = greedy_modularity_partition(planted.venue_graph())
        if cluster_sets(partition) == {frozenset(a), frozenset(b)}:
            recovered += 1

    gap = 0.0
    for _ in range(40):
        small, _ = random_test_graph(rng, max_nodes=8, directed=False, weighted=False)
        greedy_q = greedy_modularity_partition(small).q
        optimum = best_modularity_exhaustive(small)
        gap = max(gap, optimum - greedy_q)

    report(
        "modularity",
        exact_ok and recovered == 100 and gap <= 0.05,
        f"two-triangle Q exact: {exact_ok}, planted splits {recovered}/100, worst optimality gap {gap:.4f}",
    )


def test_end_to_end_fixture(tmp_path):
    """30 venues in 3 planted topic groups run through the full pipeline via
    record linkage; the partition equals the planted grouping, reruns are
    byte-identical, all inside 60 seconds."""
    started = time.perf_counter()
    corpus, truth = planted_group_corpus(groups=3, venues_per_group=10, papers_per_venue=12, seed=7)
    meta, cite = split_for_linkage(corpus)
    meta_path = tmp_path / "meta.jsonl"
    cite_path = tmp_path / "cite.jsonl"
    save_corpus(meta, meta_path)
    save_corpus(cite, cite_path)
    cfg = PipelineConfig(
        metadata_corpus=str(meta_path),
        citation_corpus=str(cite_path),
        out_dir=str(tmp_path / "out"),
        citation_min=2.0,
    )
    out_dir = Path(cfg.out_dir)

    manifest = run_pipeline(cfg)
    stages_ok = manifest.stage_names() == list(STAGES)

    partition = read_partition(out_dir / "partition.tsv")
    planted_sets = {}
    for venue, gi in truth.items():
        planted_sets.setdefault(gi, set()).add(venue)
    partition_ok = cluster_sets(partition) == {
        frozenset(m) for m in planted_sets.values()
    }

    def outputs() -> dict:  # every file but the run report, which holds the run's timings
        return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*")
                if p.is_file() and p.name != "run_report.json"}

    first = outputs()
    shutil.rmtree(out_dir)
    run_pipeline(cfg)
    second = outputs()
    identical = first == second and (out_dir / "run_report.json").is_file()

    elapsed = time.perf_counter() - started
    report(
        "end-to-end-fixture",
        stages_ok and partition_ok and identical and elapsed < 60.0,
        f"stages {stages_ok}, partition {partition_ok}, reruns identical {identical}, {elapsed:.1f}s",
    )


def test_archetype_classification():
    """Each archetype generator (n = 100, 50 seeds) is labeled as its own
    type in at least 95% of instances."""
    graphs = {f"{t}/{seed:02d}": gen(100, seed=seed) for t, gen in ARCHETYPE_GENERATORS.items() for seed in range(50)}
    rows = profile_venues(coauthorship_corpus(graphs), {})["coauthorship"]
    rates = {
        expected: sum(r.network_type == expected for r in rows if r.venue_key.startswith(expected + "/")) / 50
        for expected in ARCHETYPE_GENERATORS
    }
    report(
        "archetype-classification",
        all(rate >= 0.95 for rate in rates.values()),
        " ".join(f"{t}={r:.0%}" for t, r in sorted(rates.items())),
    )


def test_threshold_boundary_semantics():
    """Cosine edges at exactly 0.1 survive and 0.0999 do not; citation edges
    at 50 are dropped and 51 kept, bit-exactly."""
    knowledge = DictVenueGraph()
    knowledge.add_edge("a", "b", 0.1)
    knowledge.add_edge("a", "c", 0.0999)
    reduced_k = apply_threshold(knowledge.venue_graph(), ThresholdRule("cosine", 0.1))
    cosine_ok = "b" in neighbors(reduced_k, "a") and "c" not in neighbors(reduced_k, "a")

    citation = DictVenueGraph(directed=True)
    citation.add_edge("a", "b", 50.0)
    citation.add_edge("a", "c", 51.0)
    reduced_f = apply_threshold(citation.venue_graph(), ThresholdRule("citation", 50.0))
    citation_ok = "b" not in neighbors(reduced_f, "a") and "c" in neighbors(reduced_f, "a")

    report("threshold-semantics", cosine_ok and citation_ok, "boundaries 0.1/0.0999 and 50/51")


def test_scale_smoke(tmp_path):
    """100,000 publications across 1,000 venues run ingest through stats in
    under 5 minutes and within 4 GB of memory."""
    corpus = scale_corpus(venues=1000, papers_per_venue=100, seed=3)
    assert len(corpus.records) == 100_000
    corpus_path = tmp_path / "scale.jsonl"
    save_corpus(corpus, corpus_path)

    cfg = PipelineConfig(
        metadata_corpus=str(corpus_path),
        out_dir=str(tmp_path / "out"),
    )
    started = time.perf_counter()
    manifest = run_pipeline(cfg)
    elapsed = time.perf_counter() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)
    stages_ok = manifest.stage_names() == list(STAGES)
    report(
        "scale-smoke",
        stages_ok and elapsed < 300.0 and peak_gb < 4.0,
        f"{elapsed:.0f}s, peak rss {peak_gb:.2f} GB",
    )

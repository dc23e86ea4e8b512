import itertools
import random
import statistics
import tracemalloc

import pytest

from archetypes import ARCHETYPE_GENERATORS
from conftest import corpus_from_lines
from oracles import (
    CitationSubgraph,
    CoauthorshipSubgraph,
    DictVenueGraph,
    EmptySubgraphError,
    UnknownVenueError,
    coauthorship_corpus,
    components_dict,
    extract_citation_subgraph,
    extract_coauthorship_subgraph,
    local_clustering_by_sets,
    neighbors,
    profile_rows_per_venue,
    publication_citation_graph_loop,
    random_reference_corpus,
    record_ids,
    records_by_venue,
    rows_of,
    subgraph_profile,
)
from venuenet import metrics, subgraphs
from venuenet.graph import VenueGraph
from venuenet.subgraphs import (
    PROFILES_HEADER,
    ClassificationCuts,
    ProfileRow,
    SubgraphProfile,
    classify_network_type,
    profile_statistics,
    profile_venues,
    publication_citation_graph,
    read_profiles,
    write_profiles,
)
from venuenet.synth import scale_corpus


def profile_of(m1, m2, m3, m4):
    return SubgraphProfile(
        m1_density=m1,
        m2_avg_clustering=m2,
        m3_max_betweenness=m3,
        m4_lcc_fraction=m4,
        node_count=0,
        edge_count=0,
    )


class TestCoauthorshipExtraction:
    def test_clique_per_paper(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "T", "authors": ["A One", "B Two", "C Three"], "venue": "v1"}'
        )
        sg = extract_coauthorship_subgraph(corpus, "v1")
        assert sg.graph.node_count() == 3
        assert sg.graph.edge_count() == 3

    def test_disjoint_pairs(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "T", "authors": ["A One", "B Two"], "venue": "v1"}',
            '{"id": "p2", "title": "T", "authors": ["C Three", "D Four"], "venue": "v1"}',
        )
        sg = extract_coauthorship_subgraph(corpus, "v1")
        assert sg.graph.edge_count() == 2
        assert len(components_dict(sg.graph)) == 2

    def test_repeat_collaboration_accumulates(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "T", "authors": ["A One", "B Two"], "venue": "v1"}',
            '{"id": "p2", "title": "T", "authors": ["A One", "B Two"], "venue": "v1"}',
        )
        sg = extract_coauthorship_subgraph(corpus, "v1")
        assert neighbors(sg.graph, "A One")["B Two"] == 2.0

    def test_single_author_isolated_node(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "T", "authors": ["A One"], "venue": "v1"}'
        )
        sg = extract_coauthorship_subgraph(corpus, "v1")
        assert sg.graph.node_count() == 1
        assert sg.graph.edge_count() == 0

    def test_cross_venue_collaboration_excluded(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "T", "authors": ["A One", "B Two"], "venue": "v1"}',
            '{"id": "p2", "title": "T", "authors": ["A One", "B Two"], "venue": "v2"}',
        )
        sg = extract_coauthorship_subgraph(corpus, "v1")
        assert neighbors(sg.graph, "A One")["B Two"] == 1.0

    def test_unknown_venue(self):
        corpus = corpus_from_lines('{"id": "p1", "title": "T", "venue": "v1"}')
        with pytest.raises(UnknownVenueError):
            extract_coauthorship_subgraph(corpus, "nope")


class TestCitationExtraction:
    def test_induced_edge(self):
        corpus = corpus_from_lines(
            '{"id": "w1", "title": "T", "venue": "v1", "refs": ["p", "q"]}',
            '{"id": "p", "title": "P", "refs": ["q"]}',
            '{"id": "q", "title": "Q", "refs": []}',
        )
        sg = extract_citation_subgraph(corpus, "v1")
        assert sorted(sg.graph.nodes) == ["p", "q"]
        assert "q" in neighbors(sg.graph, "p")

    def test_no_citations_between_cited(self):
        corpus = corpus_from_lines(
            '{"id": "w1", "title": "T", "venue": "v1", "refs": ["p", "q"]}',
            '{"id": "p", "title": "P", "refs": []}',
            '{"id": "q", "title": "Q", "refs": []}',
        )
        sg = extract_citation_subgraph(corpus, "v1")
        assert sg.graph.node_count() == 2
        assert sg.graph.edge_count() == 0

    def test_edges_strictly_induced(self):
        # venue cites p, q, r; p->q, q->r exist; r->s leaves the set
        corpus = corpus_from_lines(
            '{"id": "w1", "title": "T", "venue": "v1", "refs": ["p", "q", "r"]}',
            '{"id": "p", "title": "P", "refs": ["q"]}',
            '{"id": "q", "title": "Q", "refs": ["r"]}',
            '{"id": "r", "title": "R", "refs": ["s"]}',
            '{"id": "s", "title": "S", "refs": []}',
        )
        sg = extract_citation_subgraph(corpus, "v1")
        assert sorted(sg.graph.nodes) == ["p", "q", "r"]
        assert sorted(sg.graph.edges()) == [("p", "q", 1.0), ("q", "r", 1.0)]

    def test_unresolved_references_are_not_nodes(self):
        corpus = corpus_from_lines(
            '{"id": "w1", "title": "T", "venue": "v1", "refs": ["p", "outside world"]}',
            '{"id": "p", "title": "P", "refs": []}',
        )
        sg = extract_citation_subgraph(corpus, "v1")
        assert sorted(sg.graph.nodes) == ["p"]

    def test_node_and_edge_sets_match_bruteforce(self):
        rng = random.Random(61)
        ids = [f"p{i:02d}" for i in range(25)]
        lines = []
        for i, pid in enumerate(ids):
            refs = rng.sample(ids, rng.randint(0, 5))
            refs = [r for r in refs if r != pid]
            lines.append(
                '{"id": "%s", "title": "T", "venue": "v%d", "refs": %s}'
                % (pid, i % 4, str(refs).replace("'", '"'))
            )
        corpus = corpus_from_lines(*lines)
        ids = record_ids(corpus)
        for venue in ["v0", "v1", "v2", "v3"]:
            sg = extract_citation_subgraph(corpus, venue)
            cited = set()
            for rec in corpus.records:
                if rec.venue_key == venue:
                    cited.update(t for t in rec.references if t in ids)
            assert set(sg.graph.nodes) == cited
            expected_edges = set()
            for a, b in itertools.permutations(sorted(cited), 2):
                if b in corpus.record(a).references:
                    expected_edges.add((a, b))
            assert {(u, v) for u, v, _ in sg.graph.edges()} == expected_edges


def profile_of_graph(g: VenueGraph) -> SubgraphProfile:
    """The profile profile_venues gives a venue whose co-authorship subgraph
    has the nodes and edges of g."""
    [row] = profile_venues(coauthorship_corpus({"v": g}), {})["coauthorship"]
    return row.profile


class TestProfiles:
    def test_triangle(self):
        g = DictVenueGraph()
        for a, b in [("x", "y"), ("y", "z"), ("x", "z")]:
            g.add_edge(a, b, 1.0)
        assert profile_of_graph(g.venue_graph()).as_tuple() == (1.0, 1.0, 0.0, 1.0)

    def test_star_five(self):
        g = DictVenueGraph()
        for i in range(4):
            g.add_edge("hub", f"leaf{i}", 1.0)
        p = profile_of_graph(g.venue_graph())
        assert p.m1_density == pytest.approx(0.4, abs=1e-12)
        assert p.m2_avg_clustering == 0.0
        assert p.m3_max_betweenness == 1.0
        assert p.m4_lcc_fraction == 1.0

    def test_two_isolated_nodes(self):
        g = DictVenueGraph()
        g.add_node("x")
        g.add_node("y")
        assert profile_of_graph(g.venue_graph()).as_tuple() == (0.0, 0.0, 0.0, 0.5)

    def test_empty_subgraph_error(self):
        # the per-venue oracle refuses an empty subgraph; profile_venues
        # gives such a venue no row
        with pytest.raises(EmptySubgraphError):
            subgraph_profile(CoauthorshipSubgraph(venue_key="v", graph=DictVenueGraph()))
        corpus = corpus_from_lines('{"id": "p1", "title": "T", "venue": "v1"}')
        assert profile_venues(corpus, {}) == {"coauthorship": [], "citation": []}

    def test_recompute_identical(self):
        g = ARCHETYPE_GENERATORS["Type3"](60, seed=5)
        assert profile_of_graph(g) == profile_of_graph(g)

    def test_directed_citation_profile_conventions(self):
        corpus = corpus_from_lines(
            '{"id": "w", "title": "T", "venue": "v", "refs": ["a", "b", "c"]}',
            '{"id": "a", "title": "A", "refs": ["b"]}',
            '{"id": "b", "title": "B", "refs": ["c"]}',
            '{"id": "c", "title": "C"}',
        )
        [row] = profile_venues(corpus, {})["citation"]
        p = row.profile
        assert p.m1_density == pytest.approx(2 / 6, abs=1e-12)  # directed density
        assert p.m4_lcc_fraction == 1.0  # weak components
        g = DictVenueGraph(directed=True)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        assert p == subgraph_profile(CitationSubgraph(venue_key="v", graph=g))


class TestClassification:
    def test_spec_profiles(self):
        assert classify_network_type(profile_of(0.01, 0.02, 0.01, 0.03)) == "Type1"
        assert classify_network_type(profile_of(0.15, 0.75, 0.05, 0.35)) == "Type2"
        assert classify_network_type(profile_of(0.20, 0.45, 0.85, 0.90)) == "Type4"

    def test_type3_band(self):
        assert classify_network_type(profile_of(0.10, 0.45, 0.30, 0.75)) == "Type3"

    def test_order_type4_wins_over_type3(self):
        assert classify_network_type(profile_of(0.30, 0.50, 0.90, 0.95)) == "Type4"

    def test_configurable_cuts(self):
        cuts = ClassificationCuts(very_low_max=0.2, low_max=0.4, medium_max=0.6, high_max=0.8)
        assert classify_network_type(profile_of(0.1, 0.7, 0.1, 0.3), cuts) == "Type2"

    def test_generators_label_correctly(self):
        graphs = {f"{t}/{seed}": gen(100, seed=seed) for t, gen in ARCHETYPE_GENERATORS.items() for seed in range(10)}
        rows = profile_venues(coauthorship_corpus(graphs), {})["coauthorship"]
        assert len(rows) == len(graphs)
        for expected in ARCHETYPE_GENERATORS:
            hits = sum(r.network_type == expected for r in rows if r.venue_key.startswith(expected + "/"))
            assert hits >= 9, f"{expected}: {hits}/10"


class TestStatistics:
    def _rows(self, values, kind="journal", metric_slot=0, ranks=None):
        rows = []
        for i, v in enumerate(values):
            metrics = [0.0, 0.0, 0.0, 0.0]
            metrics[metric_slot] = v
            rows.append(
                ProfileRow(
                    venue_key=f"v{i}",
                    kind=kind,
                    profile=profile_of(*metrics),
                    pagerank=None if ranks is None else ranks[i],
                )
            )
        return rows

    def test_identical_profiles_single_bin(self):
        report = profile_statistics(self._rows([0.5, 0.5, 0.5]), bins=10)
        hist = report.histograms["m1_density"]["all"]
        assert sum(b.mass for b in hist) == pytest.approx(1.0, abs=1e-9)
        assert [b.mass for b in hist if b.mass > 0] == [1.0]

    def test_two_values_two_bins(self):
        report = profile_statistics(self._rows([0.1, 0.9]), bins=10)
        hist = report.histograms["m1_density"]["all"]
        nonzero = [(b.lo, b.mass) for b in hist if b.mass > 0]
        assert nonzero == [(pytest.approx(0.1), 0.5), (pytest.approx(0.9), 0.5)]

    def test_histograms_sum_to_one(self):
        rng = random.Random(8)
        values = [rng.random() for _ in range(57)]
        report = profile_statistics(self._rows(values), bins=20)
        for metric, by_kind in report.histograms.items():
            for hist in by_kind.values():
                assert sum(b.mass for b in hist) == pytest.approx(1.0, abs=1e-9)

    def test_split_by_kind(self):
        rows = self._rows([0.2, 0.2], kind="journal") + self._rows([0.8], kind="conference")
        report = profile_statistics(rows, bins=10)
        assert set(report.histograms["m1_density"]) == {"all", "journal", "conference"}
        journal = report.histograms["m1_density"]["journal"]
        assert sum(b.mass for b in journal) == pytest.approx(1.0, abs=1e-9)

    def test_pagerank_bin_medians(self):
        rows = self._rows([0.2, 0.4, 0.9], metric_slot=3, ranks=[1.0, 1.0, 3.0])
        report = profile_statistics(rows, bins=10)
        medians = report.pagerank_medians["m4_lcc_fraction"]
        assert [rank for rank, _ in medians] == [1.0, 3.0]
        assert medians[0][1] == pytest.approx(0.3, abs=1e-12)
        assert medians[1][1] == 0.9

    @pytest.mark.parametrize("count", [1, 2, 7, 10, 57, 58])
    def test_medians_are_statistics_median_bit_for_bit(self, count):
        rng = random.Random(count)
        values = [rng.choice([rng.random(), 1 / 3, 0.1]) for _ in range(count)]
        report = profile_statistics(self._rows(values, ranks=[0.5] * count), bins=10)
        assert report.pagerank_medians["m1_density"] == [(0.5, statistics.median(values))]
        assert report.pagerank_medians["m1_density"][0][1].hex() == statistics.median(values).hex()

    def test_rows_without_pagerank_excluded_from_medians(self):
        rows = self._rows([0.2, 0.4], ranks=[1.0, None])
        report = profile_statistics(rows, bins=10)
        assert report.pagerank_medians["m1_density"] == [(1.0, 0.2)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            profile_statistics([])


class TestProfileIO:
    def test_round_trip(self, tmp_path):
        rows = {
            "coauthorship": [
                ProfileRow(
                    venue_key="v1",
                    kind="journal",
                    profile=profile_of(0.1, 0.2, 0.3, 0.4),
                    pagerank=1.25,
                    network_type="Type3",
                )
            ],
            "citation": [
                ProfileRow(
                    venue_key="v1",
                    kind="journal",
                    profile=profile_of(0.5, 0.6, 0.7, 0.8),
                    pagerank=None,
                    network_type="Type4",
                )
            ],
        }
        path = tmp_path / "profiles.tsv"
        write_profiles(rows, path)
        again = read_profiles(path)
        assert set(again) == {"coauthorship", "citation"}
        got = again["coauthorship"][0]
        assert got.venue_key == "v1"
        assert got.pagerank == 1.25
        assert got.network_type == "Type3"
        assert got.profile.as_tuple() == (0.1, 0.2, 0.3, 0.4)
        assert again["citation"][0].pagerank is None


def coauthorship_by_increments(records) -> DictVenueGraph:
    """The co-authorship graph built edge by edge, nodes and neighbours in the
    order met: the order extraction must keep."""
    g = DictVenueGraph(directed=False)
    for rec in records:
        names = sorted({a.full_name for a in rec.authors})
        for name in names:
            g.add_node(name)
        for x, y in itertools.combinations(names, 2):
            g.add_edge(x, y, neighbors(g, x).get(y, 0.0) + 1.0)
    return g


def citation_by_increments(corpus, records, citation_index) -> DictVenueGraph:
    ids = record_ids(corpus)
    cited = sorted({t for rec in records for t in rec.references if t in ids})
    g = DictVenueGraph(directed=True)
    for node in cited:
        g.add_node(node)
    for node in cited:
        for target in citation_index[node]:
            if target in cited:
                g.add_edge(node, target, neighbors(g, node).get(target, 0.0) + 1.0)
    return g


def adjacency_in_order(g: DictVenueGraph):
    return [(u, list(neighbors(g, u).items())) for u in g.nodes], g.edge_count()


TINY_LINES = (
    '{"venue_key": "solo", "name": "Solo", "kind": "journal"}',
    '{"id": "s1", "title": "T", "authors": ["Ann Alone"], "venue": "solo", "refs": ["c1"]}',
    '{"id": "d1", "title": "T", "authors": ["Bo Pair", "Cy Pair"], "venue": "duo", "refs": ["c1", "c2"]}',
    '{"id": "d2", "title": "T", "authors": ["Cy Pair", "Bo Pair"], "venue": "duo", "refs": ["c2", "c1", "raw"]}',
    '{"id": "t1", "title": "T", "authors": ["Di Tri", "Ed Tri", "Flo Tri"], "venue": "tri", "refs": ["c1", "c2", "c3"]}',
    '{"id": "t2", "title": "T", "authors": ["Gus Far"], "venue": "tri", "refs": ["c3", "t2"]}',
    '{"id": "n1", "title": "T", "authors": ["Hal None"], "venue": "none", "refs": ["raw"]}',
    '{"id": "c1", "title": "C", "authors": ["Ida Cite"], "venue": "cited", "refs": ["c2"]}',
    '{"id": "c2", "title": "C", "authors": ["Ida Cite"], "venue": "cited", "refs": ["c1", "c2"]}',
    '{"id": "c3", "title": "C", "authors": ["Ida Cite"], "venue": "cited", "refs": ["c2", "c2"]}',
)


EDGE_CASE_LINES = (
    # authors shared across venues, one named twice in a paper; va's
    # co-authorship graph has two components
    '{"id": "a1", "title": "T", "authors": ["Al X", "Bea Y", "Al X"], "venue": "va", "refs": ["a1", "b1", "raw"]}',
    '{"id": "a2", "title": "T", "authors": ["Dee W", "Cal Z"], "venue": "va", "refs": ["b2", "a1", "b2"]}',
    # self-citations, citations of other venues' records and of external keys
    '{"id": "b1", "title": "T", "authors": ["Cal Z", "Al X"], "venue": "vb", "refs": ["a2", "b1", "a1", "Raw"]}',
    '{"id": "b2", "title": "T", "authors": [], "venue": "vb", "refs": ["b1", "b2"]}',
    # an empty co-authorship family, then an empty citation family
    '{"id": "c1", "title": "T", "authors": [], "venue": "vc", "refs": ["a1", "a2"]}',
    '{"id": "d1", "title": "T", "authors": ["Eve V"], "venue": "vd", "refs": ["nowhere", "D1"]}',
    '{"id": "n1", "title": "T", "authors": ["Al X", "Eve V"], "refs": ["d1"]}',
)


def layered_diamond_graph(layers: int) -> VenueGraph:
    """A start node, `layers` layers of 3 nodes each linked to all of the
    next layer, and an end node: 3**layers shortest paths end to end."""
    g = DictVenueGraph()
    previous = ["start"]
    for layer in range(layers + 1):
        current = [f"l{layer:02d}.{k}" for k in range(3)] if layer < layers else ["end"]
        for u in previous:
            for v in current:
                g.add_edge(u, v, 1.0)
        previous = current
    return g.venue_graph()


class TestBatchedProfiles:
    """profile_venues measures each family on one block, the union of its
    venue subgraphs, with one betweenness run; every row must equal the
    profile of the venue's subgraph on its own."""

    CORPORA = {
        "scale": lambda: scale_corpus(40, 25, groups=8, seed=5),
        "tiny-scale": lambda: scale_corpus(60, 2, groups=6, seed=9),
        "tiny-lines": lambda: corpus_from_lines(*TINY_LINES),
        "edge-cases": lambda: corpus_from_lines(*EDGE_CASE_LINES),
    }

    def test_memory_follows_the_blocks(self):
        # Both families' arcs built from int32 arrays, each freed after its
        # last read, with no Python list of author occurrences or records,
        # and numpy clustering and betweenness: 6.5 MB above the corpus on
        # this one (lists and int64 temporaries: 10.6 MB).
        corpus = scale_corpus(2000, 10, seed=3)
        corpus.reference_index()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            profile_venues(corpus, {})
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_edge_cases(self):
        corpus = corpus_from_lines(*EDGE_CASE_LINES)
        rows = profile_venues(corpus, {})
        co = {r.venue_key: r.profile for r in rows["coauthorship"]}
        cit = {r.venue_key: r.profile for r in rows["citation"]}
        assert sorted(co) == ["va", "vb", "vd"] and sorted(cit) == ["va", "vb", "vc"]
        assert (co["va"].node_count, co["va"].edge_count, co["va"].m4_lcc_fraction) == (4, 2, 0.5)
        # vb cites a1, a2, b1 and b2, among which a1 -> b1, a2 -> b2 (twice),
        # a2 -> a1, b1 -> a2, b1 -> a1 and b2 -> b1; their self-citations are no arcs
        assert (cit["vb"].node_count, cit["vb"].edge_count) == (4, 6)
        assert rows_of(rows) == profile_rows_per_venue(corpus, {})

    def test_path_counts_past_int64_on_a_block(self):
        # the kernel moves path counts to Python integers past int64; the
        # other venues of the block must not notice
        assert 3**45 > 2**63
        graphs = {"a": layered_diamond_graph(2), "b": layered_diamond_graph(45), "c": layered_diamond_graph(3)}
        corpus = coauthorship_corpus(graphs)
        rows = profile_venues(corpus, {})
        assert rows_of(rows) == profile_rows_per_venue(corpus, {})
        assert [r.profile.node_count for r in rows["coauthorship"]] == [8, 137, 11]

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_extraction_keeps_builder_order(self, name):
        corpus = self.CORPORA[name]()
        index = publication_citation_graph_loop(corpus)
        for venue, records in records_by_venue(corpus).items():
            co = extract_coauthorship_subgraph(corpus, venue, records=records).graph
            assert adjacency_in_order(co) == adjacency_in_order(coauthorship_by_increments(records))
            cit = extract_citation_subgraph(corpus, venue, records=records).graph
            assert adjacency_in_order(cit) == adjacency_in_order(citation_by_increments(corpus, records, index))

    @pytest.mark.parametrize("seed", range(8))
    def test_reference_index_readers_equal_record_lookup_oracles(self, seed):
        corpus = random_reference_corpus(seed)  # self-citations, repeats, ids in upper case
        index = publication_citation_graph_loop(corpus)
        assert publication_citation_graph(corpus) == index
        for venue, records in records_by_venue(corpus).items():
            cit = extract_citation_subgraph(corpus, venue, records=records).graph
            assert adjacency_in_order(cit) == adjacency_in_order(citation_by_increments(corpus, records, index))
        # one venue is missing from the venue table: it is profiled all the same
        assert rows_of(profile_venues(corpus, {})) == profile_rows_per_venue(corpus, {})

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_block_holds_each_venue_graph_in_order(self, name):
        """Venue by venue, the block's nodes in name order with their
        neighbours in the venue graph's order, and the clustering in the
        order the graph met its nodes."""
        corpus = self.CORPORA[name]()
        by_venue = records_by_venue(corpus)
        for extract_block, extract in (
            (subgraphs.extract_coauthorship_subgraph, extract_coauthorship_subgraph),
            (subgraphs.extract_citation_subgraph, extract_citation_subgraph),
        ):
            block = extract_block(corpus)
            g = block.graph
            graphs = [extract(corpus, venue, by_venue[venue]).graph for venue in sorted(by_venue)]
            assert block.venues == [v for v, sg in zip(sorted(by_venue), graphs) if sg.node_count()]
            for i, sg in enumerate(sg for sg in graphs if sg.node_count()):
                lo, hi = block.bounds[i], block.bounds[i + 1]
                names = sorted(sg.nodes)
                local = {v: lo + k for k, v in enumerate(names)}
                assert [g.heads[g.indptr[local[u]] : g.indptr[local[u] + 1]].tolist() for u in names] == [
                    [local[v] for v in neighbors(sg, u)] for u in names
                ]
                assert g.indptr[hi] - g.indptr[lo] == sg.edge_count() * (1 if g.directed else 2)
                assert block.largest[i] == len(components_dict(sg)[0])
                clustering = local_clustering_by_sets(sg)
                assert block.clustering[lo:hi].tolist() == [clustering[v] for v in sg.nodes]
            assert g.indptr[-1] == len(g.heads) and g.node_count() == (block.bounds[-1] if block.venues else 0)

    # The default budget, one venue per batch, and a budget that splits
    # batches of venues (and the kernel's blocks) mid-component.
    @pytest.mark.parametrize("budget", [metrics.BRANDES_BLOCK_CELLS, 1, 300])
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_rows_equal_per_venue_profiles(self, name, budget, monkeypatch):
        corpus = self.CORPORA[name]()
        ranks = {venue: 1.0 + i / 8 for i, venue in enumerate(sorted(corpus.venue_table))}
        monkeypatch.setattr(metrics, "BRANDES_BLOCK_CELLS", budget)
        rows = profile_venues(corpus, ranks)
        monkeypatch.undo()
        assert rows_of(rows) == profile_rows_per_venue(corpus, ranks)  # M3 from each venue's graph alone
        if name == "tiny-lines":
            sizes = {r.venue_key: r.profile.node_count for r in rows["citation"]}
            assert sizes == {"cited": 2, "duo": 2, "solo": 1, "tri": 4}
            assert {r.venue_key: r.profile.node_count for r in rows["coauthorship"]} == {
                "cited": 1, "duo": 2, "none": 1, "solo": 1, "tri": 4,
            }


class TestReadProfilesErrors:
    @pytest.mark.parametrize("column", [3, 6, 7, 8, 10])
    def test_non_numeric_field_names_file_and_line(self, tmp_path, column):
        row = "v1\tjournal\tcitation\t0.1\t0.2\t0.3\t0.4\t3\t2\tType1\t0.5".split("\t")
        bad = list(row)
        bad[column] = "abc"
        path = tmp_path / "profiles.tsv"
        path.write_text(PROFILES_HEADER + "\n" + "\t".join(row) + "\n" + "\t".join(bad) + "\n")
        with pytest.raises(ValueError) as exc:
            read_profiles(path)
        assert str(exc.value).startswith(f"{path}: line 3: ") and "'abc'" in str(exc.value)

    @pytest.mark.parametrize("column", [3, 4, 5, 6, 10])
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, column, value):
        row = "v1\tjournal\tcitation\t0.1\t0.2\t0.3\t0.4\t3\t2\tType1\t0.5".split("\t")
        bad = list(row)
        bad[column] = value
        path = tmp_path / "profiles.tsv"
        path.write_text(PROFILES_HEADER + "\n" + "\t".join(row) + "\n" + "\t".join(bad) + "\n")
        with pytest.raises(ValueError) as exc:
            read_profiles(path)
        assert str(exc.value) == f"{path}: line 3: not a finite number: {value!r}"

    def test_wrong_header_names_file_and_line_1(self, tmp_path):
        path = tmp_path / "profiles.tsv"
        path.write_text("venue\tkind\n")
        with pytest.raises(ValueError, match="line 1: unexpected profiles header") as exc:
            read_profiles(path)
        assert str(exc.value).startswith(f"{path}: line 1: ")

import itertools
import random

import pytest

from conftest import corpus_from_lines
from oracles import publication_citation_graph_loop, random_reference_corpus, record_ids
from venuenet import metrics
from venuenet.graph import VenueGraph
from venuenet.subgraphs import (
    PROFILES_HEADER,
    ClassificationCuts,
    EmptySubgraphError,
    ProfileRow,
    SubgraphProfile,
    UnknownVenueError,
    classify_network_type,
    extract_citation_subgraph,
    extract_coauthorship_subgraph,
    profile_statistics,
    profile_venues,
    publication_citation_graph,
    read_profiles,
    subgraph_profile,
    write_profiles,
)
from venuenet.synth import ARCHETYPE_GENERATORS, scale_corpus


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
        assert len([c for c in _components(sg.graph)]) == 2

    def test_repeat_collaboration_accumulates(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "T", "authors": ["A One", "B Two"], "venue": "v1"}',
            '{"id": "p2", "title": "T", "authors": ["A One", "B Two"], "venue": "v1"}',
        )
        sg = extract_coauthorship_subgraph(corpus, "v1")
        assert sg.graph.neighbors("A One")["B Two"] == 2.0

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
        assert sg.graph.neighbors("A One")["B Two"] == 1.0

    def test_unknown_venue(self):
        corpus = corpus_from_lines('{"id": "p1", "title": "T", "venue": "v1"}')
        with pytest.raises(UnknownVenueError):
            extract_coauthorship_subgraph(corpus, "nope")


def _components(g):
    from venuenet.metrics import connected_components

    return connected_components(g)


class TestCitationExtraction:
    def test_induced_edge(self):
        corpus = corpus_from_lines(
            '{"id": "w1", "title": "T", "venue": "v1", "refs": ["p", "q"]}',
            '{"id": "p", "title": "P", "refs": ["q"]}',
            '{"id": "q", "title": "Q", "refs": []}',
        )
        sg = extract_citation_subgraph(corpus, "v1")
        assert sorted(sg.graph.nodes) == ["p", "q"]
        assert "q" in sg.graph.neighbors("p")

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
        assert sg.graph.sorted_edges() == [("p", "q", 1.0), ("q", "r", 1.0)]

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


class TestProfiles:
    def test_triangle(self):
        g = VenueGraph()
        for a, b in [("x", "y"), ("y", "z"), ("x", "z")]:
            g.add_edge(a, b, 1.0)
        from venuenet.subgraphs import CoauthorshipSubgraph

        p = subgraph_profile(CoauthorshipSubgraph(venue_key="v", graph=g))
        assert p.as_tuple() == (1.0, 1.0, 0.0, 1.0)

    def test_star_five(self):
        g = VenueGraph()
        for i in range(4):
            g.add_edge("hub", f"leaf{i}", 1.0)
        from venuenet.subgraphs import CoauthorshipSubgraph

        p = subgraph_profile(CoauthorshipSubgraph(venue_key="v", graph=g))
        assert p.m1_density == pytest.approx(0.4, abs=1e-12)
        assert p.m2_avg_clustering == 0.0
        assert p.m3_max_betweenness == 1.0
        assert p.m4_lcc_fraction == 1.0

    def test_two_isolated_nodes(self):
        g = VenueGraph()
        g.add_node("x")
        g.add_node("y")
        from venuenet.subgraphs import CoauthorshipSubgraph

        p = subgraph_profile(CoauthorshipSubgraph(venue_key="v", graph=g))
        assert p.as_tuple() == (0.0, 0.0, 0.0, 0.5)

    def test_empty_subgraph_error(self):
        from venuenet.subgraphs import CoauthorshipSubgraph

        with pytest.raises(EmptySubgraphError):
            subgraph_profile(CoauthorshipSubgraph(venue_key="v", graph=VenueGraph()))

    def test_recompute_identical(self):
        gen = ARCHETYPE_GENERATORS["Type3"]
        g = gen(60, seed=5)
        from venuenet.subgraphs import CoauthorshipSubgraph

        sg = CoauthorshipSubgraph(venue_key="v", graph=g)
        assert subgraph_profile(sg) == subgraph_profile(sg)

    def test_directed_citation_profile_conventions(self):
        g = VenueGraph(directed=True)
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        from venuenet.subgraphs import CitationSubgraph

        p = subgraph_profile(CitationSubgraph(venue_key="v", graph=g))
        assert p.m1_density == pytest.approx(2 / 6, abs=1e-12)  # directed density
        assert p.m4_lcc_fraction == 1.0  # weak components


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
        for expected, generator in ARCHETYPE_GENERATORS.items():
            hits = 0
            for seed in range(10):
                g = generator(100, seed=seed)
                from venuenet.subgraphs import CoauthorshipSubgraph

                profile = subgraph_profile(CoauthorshipSubgraph(venue_key="x", graph=g))
                if classify_network_type(profile) == expected:
                    hits += 1
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


def coauthorship_by_increments(records) -> VenueGraph:
    """The co-authorship graph built edge by edge through the graph's own
    builders: the node and neighbour order extraction must keep."""
    g = VenueGraph(directed=False)
    for rec in records:
        names = sorted({a.full_name for a in rec.authors})
        for name in names:
            g.add_node(name)
        for x, y in itertools.combinations(names, 2):
            g.add_edge(x, y, g.neighbors(x).get(y, 0.0) + 1.0)
    return g


def citation_by_increments(corpus, records, citation_index) -> VenueGraph:
    ids = record_ids(corpus)
    cited = sorted({t for rec in records for t in rec.references if t in ids})
    g = VenueGraph(directed=True)
    for node in cited:
        g.add_node(node)
    for node in cited:
        for target in citation_index[node]:
            if target in cited:
                g.add_edge(node, target, g.neighbors(node).get(target, 0.0) + 1.0)
    return g


def adjacency_in_order(g: VenueGraph):
    return [(u, list(g.neighbors(u).items())) for u in g.nodes], g.edge_count()


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


class TestBatchedProfiles:
    """profile_venues computes M3 for a whole family in one batched run over
    the union of the venue subgraphs; every row must equal the profile of the
    venue's subgraph on its own."""

    CORPORA = {
        "scale": lambda: scale_corpus(40, 25, groups=8, seed=5),
        "tiny-scale": lambda: scale_corpus(60, 2, groups=6, seed=9),
        "tiny-lines": lambda: corpus_from_lines(*TINY_LINES),
    }

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_extraction_keeps_builder_order(self, name):
        corpus = self.CORPORA[name]()
        index = publication_citation_graph_loop(corpus)
        for venue, records in corpus.records_by_venue().items():
            co = extract_coauthorship_subgraph(corpus, venue, records=records).graph
            assert adjacency_in_order(co) == adjacency_in_order(coauthorship_by_increments(records))
            cit = extract_citation_subgraph(corpus, venue, records=records).graph
            assert adjacency_in_order(cit) == adjacency_in_order(citation_by_increments(corpus, records, index))

    @pytest.mark.parametrize("seed", range(8))
    def test_reference_index_readers_equal_record_lookup_oracles(self, seed):
        corpus = random_reference_corpus(seed)  # self-citations, repeats, ids in upper case
        index = publication_citation_graph_loop(corpus)
        assert publication_citation_graph(corpus) == index
        for venue, records in corpus.records_by_venue().items():
            if venue in corpus.venue_table:
                cit = extract_citation_subgraph(corpus, venue, records=records).graph
                assert adjacency_in_order(cit) == adjacency_in_order(citation_by_increments(corpus, records, index))

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
        by_venue = corpus.records_by_venue()
        for family, extract in (
            ("coauthorship", lambda v: extract_coauthorship_subgraph(corpus, v)),
            ("citation", lambda v: extract_citation_subgraph(corpus, v)),
        ):
            expected = []
            for venue in sorted(by_venue):
                sg = extract(venue)
                if sg.graph.node_count():
                    profile = subgraph_profile(sg)  # M3 from this venue's graph alone
                    expected.append((venue, corpus.venue_kind(venue), profile, ranks.get(venue),
                                     classify_network_type(profile)))
            got = [(r.venue_key, r.kind, r.profile, r.pagerank, r.network_type) for r in rows[family]]
            assert got == expected
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

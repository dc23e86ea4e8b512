import math
import random
import tracemalloc

import pytest

from conftest import corpus_from_lines, saved_matrix_bytes
from oracles import (
    DictVenueGraph,
    citation_network_loop,
    coupling_json_dumps,
    coupling_matrix_loop,
    knowledge_network_loop,
    neighbors,
    random_reference_corpus,
    record_ids,
)
from venuenet import networks
from venuenet.community import ClusterPartition, project_to_cluster_network
from venuenet.exports import export_graph
from venuenet.graph import VenueGraph
from venuenet.linkage import MatchPair, attach_references
from venuenet.networks import (
    CouplingMatrix,
    ThresholdRule,
    apply_threshold,
    build_citation_network,
    build_coupling_matrix,
    build_knowledge_network,
    format_summary_table,
    summarize,
)
from venuenet.synth import scale_corpus


class TestCouplingMatrix:
    def test_two_venues_one_shared_external_key(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": ["shared classic"]}',
            '{"id": "p2", "title": "B", "venue": "v2", "refs": ["shared classic"]}',
        )
        m = build_coupling_matrix(corpus)
        assert m.venues == ["v1", "v2"]
        assert m.vectors["v1"] == {"shared classic": 1}
        assert m.vectors["v2"] == {"shared classic": 1}
        assert set(m.vectors["v1"]) | set(m.vectors["v2"]) == {"shared classic"}

    def test_venue_without_references_excluded(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": []}',
            '{"id": "p2", "title": "B", "venue": "v2", "refs": ["x y"]}',
        )
        m = build_coupling_matrix(corpus)
        assert m.venues == ["v2"]

    def test_counts_accumulate(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": ["r"]}',
            '{"id": "p2", "title": "B", "venue": "v1", "refs": ["r"]}',
        )
        m = build_coupling_matrix(corpus)
        assert m.vectors["v1"] == {"r": 2}
        assert m.publication_counts.tolist() == [2]

    def test_records_without_venue_skipped(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "refs": ["r"]}',
        )
        assert build_coupling_matrix(corpus).venues == []

    def test_resolved_vs_raw_keys(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": ["p2", "  Raw   String "]}',
            '{"id": "p2", "title": "B", "venue": "v2", "refs": ["x"]}',
        )
        m = build_coupling_matrix(corpus)
        assert m.vectors["v1"] == {"p2": 1, "raw string": 1}

    def test_json_round_trip(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": ["r", "r", "s"]}',
        )
        m = build_coupling_matrix(corpus)
        again = CouplingMatrix.from_json(saved_matrix_bytes(m).decode("utf-8"))
        assert again.venues == m.venues
        assert again.vectors == m.vectors
        assert again.publication_counts.tolist() == m.publication_counts.tolist()


class TestCosine:
    """The cosine of two venues is the weight of their edge in K, 0 where
    there is none."""

    def _matrix(self, vectors):
        return CouplingMatrix.from_vectors(venues=sorted(vectors), vectors=vectors)

    def _cosine(self, m, i, j):
        return neighbors(build_knowledge_network(m), i).get(j, 0.0)

    def test_identical_vectors_exact_one(self):
        m = self._matrix({"v1": {"a": 3, "b": 7}, "v2": {"a": 3, "b": 7}})
        assert self._cosine(m, "v1", "v2") == 1.0

    def test_disjoint_zero(self):
        m = self._matrix({"v1": {"a": 1}, "v2": {"b": 1}})
        assert self._cosine(m, "v1", "v2") == 0.0

    def test_half(self):
        m = self._matrix({"v1": {"a": 1, "b": 1}, "v2": {"b": 1, "c": 1}})
        assert self._cosine(m, "v1", "v2") == 0.5

    def test_undefined_venue(self):
        m = self._matrix({"v1": {"a": 1}})
        with pytest.raises(KeyError):
            self._cosine(m, "nope", "v1")

    def test_symmetry_and_range(self):
        rng = random.Random(12)
        keys = [f"k{i}" for i in range(10)]
        for _ in range(50):
            v1 = {k: rng.randint(1, 9) for k in rng.sample(keys, rng.randint(1, 8))}
            v2 = {k: rng.randint(1, 9) for k in rng.sample(keys, rng.randint(1, 8))}
            m = self._matrix({"v1": v1, "v2": v2})
            c12 = self._cosine(m, "v1", "v2")
            assert c12 == self._cosine(m, "v2", "v1")
            assert 0.0 <= c12 <= 1.0 + 1e-15

    def test_scale_invariance(self):
        rng = random.Random(13)
        keys = [f"k{i}" for i in range(8)]
        for _ in range(30):
            v1 = {k: rng.randint(1, 9) for k in rng.sample(keys, 5)}
            v2 = {k: rng.randint(1, 9) for k in rng.sample(keys, 5)}
            scale = rng.randint(2, 10)
            m1 = self._matrix({"v1": v1, "v2": v2})
            m2 = self._matrix({"v1": {k: c * scale for k, c in v1.items()}, "v2": v2})
            assert self._cosine(m1, "v1", "v2") == pytest.approx(self._cosine(m2, "v1", "v2"), abs=1e-12)


class TestKnowledgeNetwork:
    def test_shared_key_triangle(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": ["shared"]}',
            '{"id": "p2", "title": "B", "venue": "v2", "refs": ["shared"]}',
            '{"id": "p3", "title": "C", "venue": "v3", "refs": ["shared"]}',
        )
        g = build_knowledge_network(build_coupling_matrix(corpus))
        assert g.node_count() == 3
        assert g.edge_count() == 3
        for u, v, w in g.edges():
            assert w == 1.0
        assert g.nodes["v1"]["publication_count"] == 1

    def test_disjoint_venues_no_edge(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "refs": ["one"]}',
            '{"id": "p2", "title": "B", "venue": "v2", "refs": ["two"]}',
        )
        g = build_knowledge_network(build_coupling_matrix(corpus))
        assert g.node_count() == 2
        assert g.edge_count() == 0

    def test_single_venue(self):
        corpus = corpus_from_lines('{"id": "p1", "title": "A", "venue": "v1", "refs": ["r"]}')
        g = build_knowledge_network(build_coupling_matrix(corpus))
        assert g.node_count() == 1
        assert g.edge_count() == 0


def random_matrix(rng: random.Random, max_venues: int = 30, counts=(1, 1, 1, 2, 3)) -> CouplingMatrix:
    """Venues citing keys from a small pool, so that keys are shared, counts
    tie and some venues have a single key or nothing in common with any."""
    pool = [f"k{i}" for i in range(rng.randint(1, 40))]
    venues = [f"v{i:02d}" for i in range(rng.randint(0, max_venues))]
    vectors = {}
    for v in venues:
        keys = rng.sample(pool, rng.choice([1, 1, rng.randint(1, len(pool))]))
        if rng.random() < 0.15:
            keys = [f"only-{v}"]  # disjoint from every other venue
        vectors[v] = {k: rng.choice(counts) for k in keys}
    return CouplingMatrix.from_vectors(venues=venues, vectors=vectors, publication_counts={v: rng.randint(1, 9) for v in venues})


class TestKnowledgeKernel:
    """build_knowledge_network equals the per-key dictionary loop: same node
    order and attributes, same neighbour order, every weight bit equal."""

    def assert_equals_loop(self, m):
        want = knowledge_network_loop(m)
        got = build_knowledge_network(m)
        assert list(got.nodes.items()) == list(want.nodes.items())
        for node in want.nodes:
            assert list(neighbors(got, node).items()) == list(neighbors(want, node).items()), node
        assert got.edge_count() == want.edge_count()

    def test_seeded_random_matrices(self):
        rng = random.Random(5)
        for _ in range(120):
            self.assert_equals_loop(random_matrix(rng))

    def test_corpus_matrices(self):
        for venues, papers in ((40, 5), (60, 2)):
            self.assert_equals_loop(build_coupling_matrix(scale_corpus(venues, papers, seed=3)))

    def test_ties_single_keys_and_disjoint_vectors(self):
        m = CouplingMatrix.from_vectors(
            venues=["a", "b", "c", "d", "e"],
            vectors={
                "a": {"x": 2, "y": 2},
                "b": {"x": 2, "y": 2},  # a tie: cosine exactly 1
                "c": {"x": 1},  # a single key
                "d": {"z": 4},  # nothing in common with any venue
                "e": {"w": 1, "v": 1},
            },
            publication_counts={"a": 1, "b": 2},
        )
        self.assert_equals_loop(m)
        g = build_knowledge_network(m)
        assert neighbors(g, "a")["b"] == 1.0
        assert len(neighbors(g, "d")) == 0 and len(neighbors(g, "e")) == 0
        assert g.nodes["c"] == {"publication_count": 0}

    @pytest.mark.parametrize("empty_at", [(0.0,), (0.5,), (1.0,), (0.0, 0.5, 1.0), (0.0, 0.0, 0.0)])
    def test_empty_vectors_first_middle_and_last(self, empty_at):
        # The cluster projection passes an empty vector for a cluster whose
        # venues have no coupling vector; random_matrix never makes one.
        rng = random.Random(len(empty_at))
        fixed = [{"x": 1, "y": 2}, {"x": 3}, {"y": 1, "z": 1}, {"z": 2, "x": 1}, {"w": 1}]
        for vectors in [fixed] + [list(random_matrix(rng).vectors.values()) for _ in range(20)]:
            for at in empty_at:  # a fraction of the way along the vectors
                vectors.insert(round(at * len(vectors)), {})
            names = [f"v{i:03d}" for i in range(len(vectors))]  # the kernel sees the vectors in this order
            self.assert_equals_loop(CouplingMatrix.from_vectors(venues=names, vectors=dict(zip(names, vectors))))

    def test_memory_follows_one_row(self):
        # The block-wise product holds the entry arrays (int32), one block's
        # expansion and accumulator, and K's arcs are placed by row counts
        # (5.9 MB on this corpus; with int64 entry arrays and an argsort of
        # 2E arc keys, 10.2 MB); the chunked product, which kept every
        # expanded venue pair, peaked at 33 MB.
        m = build_coupling_matrix(scale_corpus(2000, 10, seed=3))
        tracemalloc.start()
        try:
            build_knowledge_network(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_memory_of_the_coupling_path(self, tmp_path):
        # Build, coupling.json, K and the cluster projection peak at 7.8 MB
        # together on this corpus, coupling.json streamed row by row (with
        # the whole text held at once and int64 temporaries, 12.8 MB; with
        # per-venue dicts, 15.9 MB).
        corpus = scale_corpus(2000, 10, seed=3)
        corpus.reference_index()
        venues = build_coupling_matrix(corpus).venues
        partition = ClusterPartition({v: f"c{i % 30}" for i, v in enumerate(venues) if i % 7}, q=0.0)  # every 7th loose
        tracemalloc.start()
        try:
            m = build_coupling_matrix(corpus)
            m.save(tmp_path / "coupling.json")
            build_knowledge_network(m)
            project_to_cluster_network(m, partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_no_venues_and_no_shared_keys(self):
        self.assert_equals_loop(CouplingMatrix.from_vectors(venues=[], vectors={}))
        self.assert_equals_loop(CouplingMatrix.from_vectors(venues=["a", "b"], vectors={"a": {"x": 1}, "b": {"y": 1}}))

    def test_unsorted_venue_list(self):
        # the rows come out in name order, whatever the order of the venues given
        rng = random.Random(8)
        for _ in range(20):
            m = random_matrix(rng)
            venues = list(m.venues)
            rng.shuffle(venues)
            pubs = dict(zip(m.venues, m.publication_counts.tolist()))
            self.assert_equals_loop(CouplingMatrix.from_vectors(venues=venues, vectors=m.vectors, publication_counts=pubs))

    @pytest.mark.parametrize("scale", [2**17, 2**33, 2**70])
    def test_python_integer_path(self, scale):
        # Squared norms past 2**63: int64 would wrap the norm products (and
        # at 2**33 the dots, at 2**70 the counts themselves).
        rng = random.Random(scale % 1000)
        for _ in range(20):
            m = random_matrix(rng, max_venues=12, counts=(scale, scale + 1, scale * 3 - 7, 1))
            self.assert_equals_loop(m)

    def test_norm_products_at_the_int64_boundary(self):
        # 3037000499**2 <= 2**63 - 1 < 3037000500**2: two equal vectors with
        # a norm either side, whose norm product is the largest there is
        for norm in (3037000499, 3037000500):
            vec, rest = {}, norm
            while rest:  # greedy sum of squares
                vec[f"k{len(vec)}"] = math.isqrt(rest)
                rest -= vec[f"k{len(vec) - 1}"] ** 2
            m = CouplingMatrix.from_vectors(venues=["a", "b"], vectors={"a": vec, "b": dict(vec)})
            assert sum(c * c for c in vec.values()) == norm
            self.assert_equals_loop(m)
            assert neighbors(build_knowledge_network(m), "a")["b"] == 1.0


class TestCouplingJson:
    def test_equals_json_dumps(self):
        rng = random.Random(2)
        for _ in range(60):
            m = random_matrix(rng)
            assert saved_matrix_bytes(m) == coupling_json_dumps(m)
            again = CouplingMatrix.from_json(saved_matrix_bytes(m).decode("utf-8"))
            assert (again.venues, again.vectors, again.publication_counts.tolist()) == (m.venues, m.vectors, m.publication_counts.tolist())

    def test_escaped_and_empty_parts(self):
        odd = ['q"uote', "back\\slash", "tab\tnew\nline\r", "caf\u00e9 \u2603", "ctl\x01", "\ud800", ""]
        m = CouplingMatrix.from_vectors(
            venues=odd + ["empty"],
            vectors={**{v: {k: i + 1 for i, k in enumerate(odd)} for v in odd}, "empty": {}},
            publication_counts={v: 7 for v in odd},
        )
        assert saved_matrix_bytes(m) == coupling_json_dumps(m)
        for empty in (CouplingMatrix.from_vectors(venues=[], vectors={}), CouplingMatrix.from_vectors(venues=["a"], vectors={"a": {}})):
            assert saved_matrix_bytes(empty) == coupling_json_dumps(empty)


class TestCitationNetwork:
    def test_single_citation(self):
        corpus = corpus_from_lines(
            '{"id": "a1", "title": "A", "venue": "A", "refs": ["b1"]}',
            '{"id": "b1", "title": "B", "venue": "B", "refs": []}',
        )
        g = build_citation_network(corpus)
        assert g.directed
        assert neighbors(g, "A")["B"] == 1.0

    def test_counts_aggregate(self):
        corpus = corpus_from_lines(
            '{"id": "a1", "title": "A", "venue": "A", "refs": ["b1"]}',
            '{"id": "a2", "title": "A2", "venue": "A", "refs": ["b1"]}',
            '{"id": "b1", "title": "B", "venue": "B", "refs": []}',
        )
        g = build_citation_network(corpus)
        assert neighbors(g, "A")["B"] == 2.0

    def test_mutual_citation_two_edges(self):
        corpus = corpus_from_lines(
            '{"id": "a1", "title": "A", "venue": "A", "refs": ["b1"]}',
            '{"id": "b1", "title": "B", "venue": "B", "refs": ["a1"]}',
        )
        g = build_citation_network(corpus)
        assert neighbors(g, "A")["B"] == 1.0
        assert neighbors(g, "B")["A"] == 1.0

    def test_self_citations_are_metadata(self):
        corpus = corpus_from_lines(
            '{"id": "a1", "title": "A", "venue": "A", "refs": ["a2", "b1"]}',
            '{"id": "a2", "title": "A2", "venue": "A", "refs": []}',
            '{"id": "b1", "title": "B", "venue": "B", "refs": []}',
        )
        g = build_citation_network(corpus)
        assert "A" not in neighbors(g, "A")
        assert g.nodes["A"]["self_citations"] == 1
        assert g.nodes["B"]["self_citations"] == 0

    def test_resolution_through_matches(self):
        corpus = corpus_from_lines(
            '{"id": "a1", "title": "A", "venue": "A", "refs": ["cx9"]}',
            '{"id": "b1", "title": "B", "venue": "B", "refs": []}',
        )
        cite = corpus_from_lines('{"source": "citation-corpus"}', '{"id": "cx9", "title": "B", "refs": []}')
        matches = [MatchPair(left="b1", right="cx9", jaccard=1.0, sw_similarity=1.0)]
        g = build_citation_network(attach_references(corpus, cite, matches))
        assert neighbors(g, "A")["B"] == 1.0
        assert build_citation_network(corpus).edge_count() == 0

    def test_total_weight_identity(self):
        # total edge weight == resolvable references minus within-venue citations
        rng = random.Random(31)
        venues = ["X", "Y", "Z"]
        lines = []
        ids = [f"p{i}" for i in range(30)]
        for i, pid in enumerate(ids):
            refs = rng.sample(ids, rng.randint(0, 4))
            refs = [r for r in refs if r != pid] + (["external thing"] if rng.random() < 0.5 else [])
            lines.append(
                '{"id": "%s", "title": "T", "venue": "%s", "refs": %s}'
                % (pid, venues[i % 3], str(refs).replace("'", '"'))
            )
        corpus = corpus_from_lines(*lines)
        ids = record_ids(corpus)
        g = build_citation_network(corpus)
        resolvable = 0
        within = 0
        for rec in corpus.records:
            for t in rec.references:
                if t in ids:
                    resolvable += 1
                    if corpus.record(t).venue_key == rec.venue_key:
                        within += 1
        assert sum(w for _, _, w in g.edges()) == resolvable - within


def adjacency_in_order(g: VenueGraph):
    return [(u, g.nodes[u], list(neighbors(g, u).items())) for u in g.nodes]


class TestBuildersOnTheReferenceIndex:
    """Coupling and F read the corpus's reference index; they must equal the
    per-reference record id loops they replaced."""

    CORPORA = [lambda s=s: random_reference_corpus(s) for s in range(10)] + [
        lambda: scale_corpus(30, 12, groups=5, seed=2),
        lambda: corpus_from_lines('{"id": "a", "title": "A"}'),
    ]

    @pytest.mark.parametrize("make", CORPORA)
    def test_coupling_matrix_equals_loop(self, make):
        corpus = make()
        m, expected = build_coupling_matrix(corpus), coupling_matrix_loop(corpus)
        assert m == expected
        assert saved_matrix_bytes(m) == saved_matrix_bytes(expected)

    @pytest.mark.parametrize("make", CORPORA)
    def test_citation_network_equals_loop(self, make):
        corpus = make()
        g, expected = build_citation_network(corpus), citation_network_loop(corpus)
        assert adjacency_in_order(g) == adjacency_in_order(expected)
        assert export_graph(g, "edge-tsv") == export_graph(expected, "edge-tsv")

    def test_in_corpus_id_shares_key_with_a_normalized_reference(self):
        corpus = corpus_from_lines(
            '{"id": "a1", "title": "A", "venue": "A", "refs": ["p1", " P1 "]}',
            '{"id": "b1", "title": "B", "venue": "B", "refs": ["P1"]}',
            '{"id": "p1", "title": "P", "venue": "C"}',
        )
        m = build_coupling_matrix(corpus)
        assert m.vectors == {"A": {"p1": 2}, "B": {"p1": 1}}
        # only the reference that is the record id resolves
        g = build_citation_network(corpus)
        assert list(g.edges()) == [("A", "C", 1.0)]


class TestThreshold:
    def _undirected(self, *weights):
        g = DictVenueGraph()
        for i, w in enumerate(weights):
            g.add_edge("hub", f"n{i}", w)
        return g

    def test_cosine_boundary_inclusive(self):
        g = self._undirected(0.1, 0.0999, 0.5).venue_graph()
        reduced = apply_threshold(g, ThresholdRule("cosine", 0.1))
        weights = sorted(w for _, _, w in reduced.edges())
        assert weights == [0.1, 0.5]

    def test_citation_boundary_exclusive(self):
        g = DictVenueGraph(directed=True)
        g.add_edge("a", "b", 50.0)
        g.add_edge("a", "c", 51.0)
        reduced = apply_threshold(g.venue_graph(), ThresholdRule("citation", 50.0))
        assert "b" not in neighbors(reduced, "a")
        assert neighbors(reduced, "a")["c"] == 51.0

    def test_identity_when_all_pass(self):
        g = self._undirected(0.5, 0.9).venue_graph()
        reduced = apply_threshold(g, ThresholdRule("cosine", 0.1))
        assert reduced == g

    def test_isolated_nodes_removed(self):
        g = self._undirected(0.05, 0.5)
        g.add_node("loner")
        reduced = apply_threshold(g.venue_graph(), ThresholdRule("cosine", 0.1))
        assert sorted(reduced.nodes) == ["hub", "n1"]

    def test_rule_graph_mismatch(self):
        with pytest.raises(ValueError, match="^cosine threshold applies to undirected graphs$"):
            apply_threshold(VenueGraph(directed=True), ThresholdRule("cosine", 0.1))
        with pytest.raises(ValueError, match="^citation threshold applies to directed graphs$"):
            apply_threshold(VenueGraph(directed=False), ThresholdRule("citation", 50))

    def test_pure_filter_never_alters_weights(self):
        rng = random.Random(41)
        g = DictVenueGraph()
        for i in range(30):
            g.add_edge(f"a{rng.randint(0, 9)}x", f"b{i}", rng.random())
        g = g.venue_graph()
        reduced = apply_threshold(g, ThresholdRule("cosine", 0.3))
        original = {(u, v): w for u, v, w in g.edges()}
        for u, v, w in reduced.edges():
            assert original[(u, v)] == w
        assert all(w >= 0.3 for _, _, w in reduced.edges())
        assert {(u, v) for u, v, _ in reduced.edges()} == {
            (u, v) for (u, v), w in original.items() if w >= 0.3
        }

    def test_nan_value_refused(self):
        for kind in ("cosine", "citation"):
            with pytest.raises(ValueError, match="got nan"):
                ThresholdRule(kind, float("nan"))

    def test_unknown_rule_kind(self):
        with pytest.raises(ValueError):
            ThresholdRule("weird", 1.0)


class TestSummarize:
    def test_triangle(self):
        g = DictVenueGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("b", "c", 1.0)
        g.add_edge("a", "c", 1.0)
        s = summarize(g.venue_graph())
        assert (s.nodes, s.edges, s.components) == (3, 3, 1)
        assert s.density == 1.0
        assert s.clustering_coefficient == 1.0

    def test_two_disjoint_edges(self):
        g = DictVenueGraph()
        g.add_edge("a", "b", 1.0)
        g.add_edge("c", "d", 1.0)
        s = summarize(g.venue_graph())
        assert s.components == 2
        assert s.density == pytest.approx(1 / 3, abs=1e-12)

    def test_empty_graph(self):
        s = summarize(VenueGraph())
        assert (s.nodes, s.edges, s.components, s.density, s.clustering_coefficient) == (
            0,
            0,
            0,
            0.0,
            0.0,
        )

    def test_table_formatting(self):
        g = DictVenueGraph()
        g.add_edge("a", "b", 1.0)
        g = g.venue_graph()
        table = format_summary_table({"K": summarize(g), "K'": summarize(g)})
        lines = table.strip().split("\n")
        assert lines[0].split() == ["Property", "K", "K'"]
        assert lines[1].startswith("Nodes")
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "density, shown",
        [(1.0, "100%"), (0.995, "100%"), (0.9949, "99%"), (0.5, "50%"), (0.0123, "1.2%"), (0.0, "0%"), (5e-7, "5e-05%")],
    )
    def test_density_percent(self, density, shown):
        # two significant digits, as before, except that 99.5% and up print
        # as 100% rather than 1e+02%
        summary = networks.NetworkSummary(nodes=2, edges=1, components=1, density=density, clustering_coefficient=0.0)
        assert dict(summary.rows())["Density"] == shown

    def test_complete_graph_table_reads_100_percent(self):
        g = DictVenueGraph()
        g.add_edge("a", "b", 1.0)
        g = g.venue_graph()
        assert "1e+02" not in format_summary_table({"K": summarize(g)})
        assert format_summary_table({"K": summarize(g)}).splitlines()[4].split() == ["Density", "100%"]

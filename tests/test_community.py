import random

import pytest

from oracles import (
    adopt_by_cosine_loop,
    best_modularity_exhaustive,
    cluster_network_loop,
    DictVenueGraph,
    cluster_sets,
    greedy_modularity_scan,
    modularity_pairsum_oracle,
    neighbors,
    random_test_graph,
)
from venuenet.community import (
    ClusterPartition,
    greedy_modularity_partition,
    modularity,
    project_to_cluster_network,
    read_domains,
    read_partition,
    write_partition,
)
from venuenet.exports import export_graph
from venuenet.graph import VenueGraph
from venuenet.metrics import connected_components
from venuenet.networks import (
    COSINE_MIN_DEFAULT,
    CouplingMatrix,
    ThresholdRule,
    apply_threshold,
    build_coupling_matrix,
    build_knowledge_network,
)
from venuenet.synth import scale_corpus


def two_triangles():
    g = DictVenueGraph()
    for a, b in [("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2"), ("b2", "b3"), ("b1", "b3")]:
        g.add_edge(a, b, 1.0)
    return g.venue_graph()


def path3():
    g = DictVenueGraph()
    g.add_edge("a", "b", 1.0)
    g.add_edge("b", "c", 1.0)
    return g.venue_graph()


class TestModularity:
    def test_single_cluster_is_zero(self):
        g = two_triangles()
        assignment = {v: "all" for v in g.nodes}
        assert modularity(g, assignment) == 0.0

    def test_two_triangles_split(self):
        g = two_triangles()
        assignment = {v: v[0] for v in g.nodes}
        assert modularity(g, assignment) == 0.5

    def test_singletons_on_path(self):
        g = path3()
        assignment = {v: v for v in g.nodes}
        q = modularity(g, assignment)
        assert q == pytest.approx(-0.375, abs=1e-12)
        assert q == pytest.approx(modularity_pairsum_oracle(g, assignment), abs=1e-12)

    def test_incomplete_assignment(self):
        g = path3()
        with pytest.raises(ValueError, match="^assignment misses 1 nodes, e.g. 'c'$"):
            modularity(g, {"a": "x", "b": "x"})

    def test_matches_pairsum_oracle_random(self):
        rng = random.Random(71)
        for _ in range(40):
            g, weighted = random_test_graph(rng, max_nodes=10, directed=False)
            labels = ["c0", "c1", "c2"]
            assignment = {v: rng.choice(labels) for v in g.nodes}
            assert modularity(g, assignment, weighted=weighted) == pytest.approx(
                modularity_pairsum_oracle(g, assignment, weighted=weighted), abs=1e-9
            )

    def test_q_independent_of_hash_seed(self, under_hash_seeds):
        script = """
import random
from oracles import DictVenueGraph
from venuenet.community import modularity
from venuenet.metrics import connected_components
rng = random.Random(1103)
nodes = [f"q{i:03d}" for i in range(300)]
g = DictVenueGraph()
for start in range(0, 300, 10):
    for x in range(start, start + 10):
        for y in range(x + 1, start + 10):
            g.add_edge(nodes[x], nodes[y], rng.uniform(0.1, 1.0))
print(repr(modularity(g.venue_graph(), {v: nodes[i // 10 * 10] for i, v in enumerate(nodes)})))
"""
        q0, q1 = under_hash_seeds(script)
        assert q0 == q1

    def test_unweighted_mode(self):
        g = DictVenueGraph()
        g.add_edge("a", "b", 5.0)
        g.add_edge("c", "d", 1.0)
        assignment = {"a": "x", "b": "x", "c": "y", "d": "y"}
        assert modularity(g.venue_graph(), assignment, weighted=False) == 0.5

    @pytest.mark.parametrize("n", [200, 800, 2000])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_networkx(self, n, weighted):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n + weighted)
        g = DictVenueGraph()
        nodes = [f"n{i:04d}" for i in range(n)]
        for v in nodes:
            g.add_node(v)
        for _ in range(2 * n):
            u, v = rng.sample(nodes, 2)
            g.add_edge(u, v, rng.uniform(0.1, 10.0))
        g = g.venue_graph()
        other = nx.Graph()
        other.add_nodes_from(nodes)
        other.add_weighted_edges_from(g.edges())
        weight = "weight" if weighted else None
        partitions = [
            {v: f"c{rng.randrange(12)}" for v in nodes},  # random: Q near 0 or below
            greedy_modularity_partition(g, weighted=weighted).assignment,
        ]
        for assignment in partitions:
            clusters: dict[str, set[str]] = {}
            for v, c in assignment.items():
                clusters.setdefault(c, set()).add(v)
            want = nx.community.modularity(other, clusters.values(), weight=weight)
            assert modularity(g, assignment, weighted=weighted) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestGreedyPartition:
    def test_two_triangles_exact(self):
        p = greedy_modularity_partition(two_triangles())
        assert p.q == 0.5
        clusters = cluster_sets(p)
        assert clusters == {frozenset({"a1", "a2", "a3"}), frozenset({"b1", "b2", "b3"})}

    def test_edgeless_graph_singletons(self):
        g = DictVenueGraph()
        for v in ["a", "b", "c"]:
            g.add_node(v)
        p = greedy_modularity_partition(g.venue_graph())
        assert p.q == 0.0
        assert p.cluster_count == 3

    def test_empty_graph(self):
        p = greedy_modularity_partition(VenueGraph())
        assert p.assignment == {}
        assert p.q == 0.0

    def test_planted_two_cliques_recovered(self):
        rng = random.Random(42)
        for _ in range(10):
            size_a, size_b = rng.randint(8, 12), rng.randint(8, 12)
            g = DictVenueGraph()
            a = [f"a{i:02d}" for i in range(size_a)]
            b = [f"b{i:02d}" for i in range(size_b)]
            for grp in (a, b):
                for i in range(len(grp)):
                    for j in range(i + 1, len(grp)):
                        g.add_edge(grp[i], grp[j], 1.0)
            g.add_edge(a[0], b[0], 1.0)
            p = greedy_modularity_partition(g.venue_graph())
            assert cluster_sets(p) == {frozenset(a), frozenset(b)}

    def test_directed_rejected(self):
        with pytest.raises(ValueError, match="^greedy modularity clustering expects an undirected graph$"):
            greedy_modularity_partition(VenueGraph(directed=True))

    def test_greedy_at_least_singletons_and_at_most_optimum(self):
        rng = random.Random(77)
        for _ in range(12):
            g, _ = random_test_graph(rng, max_nodes=7, directed=False, weighted=False)
            p = greedy_modularity_partition(g)
            singleton_q = modularity(g, {v: v for v in g.nodes})
            optimum = best_modularity_exhaustive(g)
            assert p.q >= singleton_q - 1e-12
            assert p.q <= optimum + 1e-9

    def test_incremental_q_matches_scratch_recompute(self):
        rng = random.Random(78)
        for _ in range(10):
            g, weighted = random_test_graph(rng, max_nodes=10, directed=False)
            trace = []
            greedy_modularity_partition(g, weighted=weighted, trace=trace)
            for assignment, q_tracked in trace:
                assert q_tracked == pytest.approx(
                    modularity(g, assignment, weighted=weighted), abs=1e-9
                )

    def test_deterministic_across_runs(self):
        rng = random.Random(79)
        g, _ = random_test_graph(rng, max_nodes=12, directed=False)
        p1 = greedy_modularity_partition(g)
        p2 = greedy_modularity_partition(g)
        assert p1.assignment == p2.assignment
        assert p1.q == p2.q

    def test_reported_q_is_recomputed_from_scratch(self):
        g = two_triangles()
        p = greedy_modularity_partition(g)
        assert p.q == modularity(g, p.assignment)

    def test_a_gain_q_absorbs_leaves_the_best_state(self):
        """Two 6-cliques and a pair joined by weight 1e-30: the pair's merge
        comes last, and its gain vanishes in q = 0.5. The partition is the
        state before it, the trace's last snapshot the state after it."""
        g = DictVenueGraph()
        for clique in ("a", "b"):
            for i in range(6):
                for j in range(i + 1, 6):
                    g.add_edge(f"{clique}{i}", f"{clique}{j}", 1.0)
        g.add_edge("y1", "y2", 1e-30)
        g = g.venue_graph()
        trace = []
        p = greedy_modularity_partition(g, trace=trace)
        assert p.assignment["y1"] != p.assignment["y2"]
        assert trace[-1][0]["y1"] == trace[-1][0]["y2"]
        assert trace[-1][1] == trace[-2][1] == 0.5
        assert p.q == modularity(g, p.assignment)
        assert p.assignment == greedy_modularity_scan(g).assignment


def random_weighted_graph(rng: random.Random, n: int, p: float, weight) -> VenueGraph:
    g = DictVenueGraph()
    nodes = [f"n{i:03d}" for i in range(n)]
    for v in nodes:
        g.add_node(v)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(nodes[i], nodes[j], weight())
    return g.venue_graph()


def planted_groups_graph(rng: random.Random, groups: int, size: int) -> VenueGraph:
    g = DictVenueGraph()
    nodes = [f"g{i:03d}" for i in range(groups * size)]
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            same = i // size == j // size
            if rng.random() < (0.7 if same else 0.03):
                g.add_edge(nodes[i], nodes[j], rng.choice((1.0, 2.0)) if same else 1.0)
    return g.venue_graph()


class TestHeapMatchesScan:
    """The heap-based merge loop picks exactly the merges of a full rescan:
    same trace (assignment and tracked Q after every merge), same partition."""

    def assert_same(self, g: VenueGraph, weighted: bool = True) -> dict:
        got_trace, want_trace, funnel = [], [], {}
        got = greedy_modularity_partition(g, weighted=weighted, trace=got_trace, funnel=funnel)
        want = greedy_modularity_scan(g, weighted=weighted, trace=want_trace)
        assert got_trace == want_trace
        assert got.assignment == want.assignment
        assert got.q == want.q
        assert funnel.get("merges", 0) == len(got_trace)
        return funnel

    def test_random_graphs(self):
        rng = random.Random(2004)
        for _ in range(40):
            g, weighted = random_test_graph(rng, max_nodes=30, directed=False)
            self.assert_same(g, weighted=weighted)
            self.assert_same(g, weighted=not weighted)
        for _ in range(20):
            g = random_weighted_graph(rng, rng.randint(5, 60), rng.uniform(0.05, 0.4), lambda: rng.uniform(0.01, 1.0))
            self.assert_same(g)

    def test_small_integer_weights_force_ties(self):
        rng = random.Random(2005)
        for _ in range(40):
            g = random_weighted_graph(rng, rng.randint(4, 40), rng.uniform(0.1, 0.5), lambda: float(rng.randint(1, 3)))
            self.assert_same(g)
            self.assert_same(g, weighted=False)

    def test_planted_groups(self):
        rng = random.Random(2006)
        for _ in range(10):
            self.assert_same(planted_groups_graph(rng, rng.randint(2, 8), rng.randint(3, 10)))

    def test_heap_rebuilds_keep_the_merges(self):
        # A connected graph of 240 nodes and about 4,000 edges: its merges
        # leave stale entries past twice the live pairs plus 1,024, so the
        # heap is rebuilt from the live pairs, and the merges stay the scan's.
        g = planted_groups_graph(random.Random(2007), 6, 40)
        assert len(connected_components(g)) == 1
        for weighted in (True, False):
            funnel = self.assert_same(g, weighted=weighted)
            assert funnel["heap_rebuilds"] >= 1, funnel
            assert funnel["heap_pops"] <= g.edge_count() + funnel["heap_pushes"]

    def test_knowledge_network_of_scale_corpus(self):
        knowledge = build_knowledge_network(build_coupling_matrix(scale_corpus(300, 10)))
        reduced = apply_threshold(knowledge, ThresholdRule("cosine", COSINE_MIN_DEFAULT))
        assert reduced.edge_count() > 1000
        self.assert_same(reduced)


class TestProjection:
    def _matrix(self, vectors, pubs=None):
        return CouplingMatrix.from_vectors(
            venues=sorted(vectors),
            vectors=vectors,
            publication_counts=pubs or {v: 1 for v in vectors},
        )

    def test_all_clustered_noop_assignment(self):
        m = self._matrix({"v1": {"a": 1}, "v2": {"a": 2}, "v3": {"b": 1}})
        p = ClusterPartition(assignment={"v1": "c1", "v2": "c1", "v3": "c2"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert projection.new_assignments == {}
        assert projection.unassigned == []
        assert sorted(projection.graph.nodes) == ["c1", "c2"]

    def test_unclustered_venue_assigned_to_best_cluster(self):
        m = self._matrix(
            {"v1": {"a": 3}, "v2": {"b": 2}, "loose": {"a": 1}}
        )
        p = ClusterPartition(assignment={"v1": "c1", "v2": "c2"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert projection.new_assignments == {"loose": "c1"}
        # adopted venue joins the aggregate
        assert projection.cluster_matrix.vectors["c1"] == {"a": 4}

    def test_zero_cosine_venue_reported_unassigned(self):
        m = self._matrix({"v1": {"a": 1}, "orphan": {"zzz": 1}})
        p = ClusterPartition(assignment={"v1": "c1"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert projection.unassigned == ["orphan"]
        assert "orphan" not in projection.new_assignments

    def test_tie_goes_to_smallest_cluster_id(self):
        m = self._matrix({"v1": {"a": 2}, "v2": {"a": 2}, "loose": {"a": 5}})
        p = ClusterPartition(assignment={"v1": "c2", "v2": "c1"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert projection.new_assignments == {"loose": "c1"}

    def test_disjoint_clusters_no_edge(self):
        m = self._matrix({"v1": {"a": 1}, "v2": {"b": 1}})
        p = ClusterPartition(assignment={"v1": "c1", "v2": "c2"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert projection.graph.edge_count() == 0

    def test_aggregate_mass_conservation(self):
        rng = random.Random(90)
        keys = [f"k{i}" for i in range(12)]
        vectors = {
            f"v{i}": {k: rng.randint(1, 5) for k in rng.sample(keys, rng.randint(1, 6))}
            for i in range(10)
        }
        m = self._matrix(vectors)
        assignment = {f"v{i}": f"c{i % 3}" for i in range(7)}  # v7..v9 un-clustered
        projection = project_to_cluster_network(m, ClusterPartition(assignment=assignment, q=0.0))
        member_of = dict(assignment)
        member_of.update(projection.new_assignments)
        for cluster in projection.cluster_matrix.venues:
            expected: dict[str, int] = {}
            for venue, assigned in member_of.items():
                if assigned != cluster:
                    continue
                for k, c in vectors[venue].items():
                    expected[k] = expected.get(k, 0) + c
            assert projection.cluster_matrix.vectors[cluster] == expected

    def test_cluster_graph_weights_are_cosine_of_aggregates(self):
        m = self._matrix({"v1": {"a": 1, "b": 1}, "v2": {"b": 1, "c": 1}})
        p = ClusterPartition(assignment={"v1": "c1", "v2": "c2"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert neighbors(projection.graph, "c1")["c2"] == 0.5

    def test_venue_count_attribute(self):
        m = self._matrix({"v1": {"a": 1}, "v2": {"a": 1}, "v3": {"a": 9}})
        p = ClusterPartition(assignment={"v1": "c1", "v2": "c1"}, q=0.0)
        projection = project_to_cluster_network(m, p)
        assert projection.graph.nodes["c1"]["venue_count"] == 3  # two members + adopted v3


class TestClusterNetworkKernel:
    """The cluster graph comes from the knowledge-network kernel; its edge
    TSV must equal the pairwise cosine loop's, byte for byte."""

    def _assert_equals_loop(self, m, p):
        projection = project_to_cluster_network(m, p)
        venue_counts = {cluster: projection.graph.nodes[cluster]["venue_count"] for cluster in projection.graph.nodes}
        expected = cluster_network_loop(projection.cluster_matrix, venue_counts)
        assert export_graph(projection.graph, "edge-tsv") == export_graph(expected, "edge-tsv")
        members = {}
        for venue, cluster in [*p.assignment.items(), *projection.new_assignments.items()]:
            members[cluster] = members.get(cluster, 0) + 1
        assert venue_counts == members

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_matrices(self, seed):
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(rng.randint(1, 30))]
        top = rng.choice([3, 1000, 1 << 40])  # 2^40 overflows int64 norm products
        vectors = {
            f"v{i:02d}": {k: rng.randint(1, top) for k in rng.sample(keys, rng.randint(0, len(keys)))}
            for i in range(rng.randint(1, 30))
        }
        m = CouplingMatrix.from_vectors(venues=sorted(vectors), vectors=vectors, publication_counts={v: rng.randint(0, 9) for v in vectors})
        clusters = rng.randint(1, 8)
        assignment = {v: f"c{rng.randrange(clusters)}" for v in vectors if rng.random() < 0.8}
        self._assert_equals_loop(m, ClusterPartition(assignment=assignment, q=0.0))

    def test_workload_shaped_corpus(self):
        m = build_coupling_matrix(scale_corpus(60, 8, groups=6, seed=4))
        k_prime = apply_threshold(build_knowledge_network(m), ThresholdRule("cosine", COSINE_MIN_DEFAULT))
        self._assert_equals_loop(m, greedy_modularity_partition(k_prime))


class TestAdoptionKernel:
    """Unclustered venues are adopted through the knowledge-network kernel;
    the adoptions (in order) and the unassigned venues must equal the
    per-pair cosine loop's."""

    def _assert_equals_loop(self, m, p):
        projection = project_to_cluster_network(m, p)
        new_assignments, unassigned = adopt_by_cosine_loop(m, p)
        assert list(projection.new_assignments.items()) == list(new_assignments.items())
        assert projection.unassigned == unassigned
        return projection

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_partitions_of_scale_corpora(self, seed):
        m = build_coupling_matrix(scale_corpus(120, 8, seed=seed))
        k = build_knowledge_network(m)
        for cut in (0.1, 0.3, 0.5, 0.7):
            self._assert_equals_loop(m, greedy_modularity_partition(apply_threshold(k, ThresholdRule("cosine", cut))))

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_matrices(self, seed):
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(rng.randint(1, 20))]
        top = rng.choice([3, 1000, 2**31 + 11, 1 << 40])  # past 2^31, and past int64 norm products
        venues = [f"v{i:02d}" for i in range(rng.randint(1, 30))]
        vectors = {}
        for venue in venues:
            sample = rng.sample(keys, rng.randint(1, len(keys)))
            if rng.random() < 0.2:
                sample = [f"only-{venue}"]  # orthogonal to every cluster
            vectors[venue] = {key: rng.randint(1, top) for key in sample}
        rng.shuffle(venues)
        # cluster ids of their own, or venue keys (of unclustered venues too)
        ids = [f"c{i}" for i in range(rng.randint(1, 6))] if seed % 2 else rng.sample(venues, min(len(venues), 4))
        assignment = {venue: rng.choice(ids) for venue in venues if rng.random() < 0.6}
        m = CouplingMatrix.from_vectors(venues=venues, vectors=vectors, publication_counts={v: 1 for v in venues})
        self._assert_equals_loop(m, ClusterPartition(assignment=assignment, q=0.0))

    def test_cluster_named_after_an_unclustered_venue(self):
        m = CouplingMatrix.from_vectors(venues=["a", "b", "c"], vectors={"a": {"x": 1}, "b": {"x": 2}, "c": {"y": 1}})
        projection = self._assert_equals_loop(m, ClusterPartition(assignment={"a": "b"}, q=0.0))
        assert projection.new_assignments == {"b": "b"}
        assert projection.unassigned == ["c"]
        assert projection.graph.nodes["b"]["venue_count"] == 2


class TestDomainComposition:
    def test_counts_and_uncategorized(self):
        from venuenet.community import cluster_domain_composition

        p = ClusterPartition(
            assignment={"v1": "c1", "v2": "c1", "v3": "c1", "v4": "c2"}, q=0.0
        )
        domains = {"v1": "Databases", "v2": "Databases", "v3": "AI"}
        composition = cluster_domain_composition(p, domains)
        assert composition == {
            "c1": {"Databases": 2, "AI": 1},
            "c2": {"uncategorized": 1},
        }


class TestDomainsTable:
    def test_header_and_comments_are_optional(self, tmp_path):
        path = tmp_path / "domains.tsv"
        for text in ["v1\tDatabases\nv2\tAI\n", "# labels\nvenue_key\tdomain\nv1\tDatabases\nv2\tAI"]:
            path.write_text(text)
            assert read_domains(path) == {"v1": "Databases", "v2": "AI"}

    def test_bad_rows_name_the_line(self, tmp_path):
        path = tmp_path / "domains.tsv"
        for text, line in [("v1\tDatabases\n\n", 2), ("\tAI\n", 1), ("v1\t#AI\n", 1), ("v1\tA\nv\u0085\tB\n", 2)]:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^{path}: line {line}: "):
                read_domains(path)


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        p = ClusterPartition(assignment={"v1": "c1", "v2": "c1", "v3": "c2"}, q=0.4375)
        path = tmp_path / "partition.tsv"
        write_partition(p, path)
        again = read_partition(path)
        assert again.assignment == p.assignment
        assert again.q == p.q

    def test_bad_rows_name_the_line(self, tmp_path):
        path = tmp_path / "partition.tsv"
        for text, line in [("# q=0.5\nvenue_key\tcluster_id\nv1\n", 3), ("# q=abc\n", 1), ("v1\tc1\tx\n", 1),
                           ("v1\tc1\nv2\t#c\n", 2), ("v1\tc\u2028\n", 1)]:
            path.write_text(text)
            with pytest.raises(ValueError, match=f"^{path}: line {line}: "):
                read_partition(path)

import random

import numpy as np
import pytest

from conftest import local_clustering
from oracles import (
    DictVenueGraph,
    average_clustering_oracle,
    betweenness_oracle,
    brandes_unweighted_loop,
    components_oracle,
    density_oracle,
    lcc_fraction_oracle,
    local_clustering_by_sets,
    neighbor_sets,
    neighbors,
    pagerank_loop,
    random_test_graph,
    undirected_view,
)
from venuenet import metrics
from venuenet.graph import VenueGraph
from venuenet.metrics import (
    average_clustering_coefficient,
    betweenness_centrality,
    connected_components,
    density,
    largest_component_fraction,
    left_sum,
    pagerank,
)
from venuenet.networks import ThresholdRule, apply_threshold


def graph_from_edges(edges, directed=False, nodes=()):
    g = DictVenueGraph(directed=directed)
    for n in nodes:
        g.add_node(n)
    for edge in edges:
        u, v, *w = edge
        g.add_edge(u, v, w[0] if w else 1.0)
    return g.venue_graph()


def path3():
    return graph_from_edges([("a", "b"), ("b", "c")])


def star(n):
    return graph_from_edges([("hub", f"leaf{i}") for i in range(n - 1)])


def complete(n):
    names = [f"k{i}" for i in range(n)]
    return graph_from_edges([(names[i], names[j]) for i in range(n) for j in range(i + 1, n)])


class TestGraphContainer:
    def test_undirected_edge_canonical(self):
        g = graph_from_edges([("b", "a", 2.0)])
        assert list(g.edges()) == [("a", "b", 2.0)]
        assert g.edge_count() == 1
        assert "b" in neighbors(g, "a") and "a" in neighbors(g, "b")

    def test_equality_stable_under_insertion_order(self):
        g1 = graph_from_edges([("a", "b"), ("b", "c")])
        g2 = graph_from_edges([("b", "c"), ("a", "b")])
        assert g1 == g2
        assert g1 != graph_from_edges([("a", "b"), ("b", "c", 2.0)])

    def test_reduced_copy(self):
        g = graph_from_edges([("a", "b"), ("b", "c", 0.5)], nodes=["d"])
        reduced = apply_threshold(g, ThresholdRule("cosine", 1.0))
        assert sorted(reduced.nodes) == ["a", "b"]
        assert reduced.edge_count() == 1
        assert apply_threshold(g, ThresholdRule("cosine", 0.5)) == graph_from_edges([("a", "b"), ("b", "c", 0.5)])


    def test_reduced_node_order_independent_of_hash_seed(self, under_hash_seeds):
        script = """
import random
from oracles import DictVenueGraph
from venuenet.metrics import average_clustering_coefficient
from venuenet.networks import ThresholdRule, apply_threshold
rng = random.Random(5)
nodes = [f"n{i:03d}" for i in range(300)]
g = DictVenueGraph()
for i in range(300):
    for j in range(i + 1, 300):
        if rng.random() < 0.05:
            g.add_edge(nodes[i], nodes[j], rng.choice((0.5, 1.0)))
g = g.venue_graph()
print(list(apply_threshold(g, ThresholdRule("cosine", 1.0)).nodes))
print(repr(average_clustering_coefficient(apply_threshold(g, ThresholdRule("cosine", 0.5)))))
"""
        run0, run1 = under_hash_seeds(script)
        assert run0 == run1

class TestDensity:
    def test_complete_graph(self):
        assert density(complete(4)) == 1.0

    def test_path(self):
        assert density(path3()) == pytest.approx(2 / 3, abs=1e-12)

    def test_single_node(self):
        g = DictVenueGraph()
        g.add_node("a")
        assert density(g.venue_graph()) == 0.0

    def test_directed(self):
        g = graph_from_edges([("a", "b"), ("b", "a"), ("b", "c")], directed=True)
        assert density(g) == pytest.approx(3 / 6, abs=1e-12)


class TestClustering:
    def test_triangle(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert average_clustering_coefficient(g) == 1.0

    def test_star(self):
        assert average_clustering_coefficient(star(4)) == 0.0

    def test_triangle_plus_pendant(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d")])
        values = local_clustering(g)
        assert values["a"] == pytest.approx(1 / 3, abs=1e-12)
        assert values["b"] == 1.0
        assert values["d"] == 0.0
        assert average_clustering_coefficient(g) == pytest.approx(7 / 12, abs=1e-12)

    def test_directed_symmetrized(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")], directed=True)
        assert average_clustering_coefficient(g) == 1.0


class TestComponents:
    def test_connected(self):
        assert largest_component_fraction(path3()) == 1.0

    def test_triangle_plus_isolates(self):
        g = graph_from_edges(
            [("a", "b"), ("b", "c"), ("a", "c")], nodes=["x", "y"]
        )
        assert largest_component_fraction(g) == pytest.approx(0.6, abs=1e-12)
        assert len(connected_components(g)) == 3

    def test_all_isolated(self):
        g = graph_from_edges([], nodes=["a", "b", "c", "d"])
        assert largest_component_fraction(g) == 0.25

    def test_empty_graph_error(self):
        with pytest.raises(ValueError, match="^largest_component_fraction is undefined on an empty graph$"):
            largest_component_fraction(VenueGraph())

    def test_directed_weak_components(self):
        g = graph_from_edges([("a", "b"), ("c", "b")], directed=True)
        assert len(connected_components(g)) == 1


class TestBetweenness:
    def test_path_center(self):
        raw = betweenness_centrality(path3(), normalized=False)
        assert raw.values == {"a": 0.0, "b": 1.0, "c": 0.0}
        norm = betweenness_centrality(path3(), normalized=True)
        assert norm.values["b"] == 1.0

    def test_complete_graph_all_zero(self):
        vector = betweenness_centrality(complete(5), normalized=False)
        assert all(v == 0.0 for v in vector.values.values())

    def test_star_center(self):
        g = star(4)
        raw = betweenness_centrality(g, normalized=False)
        assert raw.values["hub"] == 3.0
        assert all(raw.values[f"leaf{i}"] == 0.0 for i in range(3))
        norm = betweenness_centrality(g, normalized=True)
        assert norm.values["hub"] == 1.0

    def test_directed_pair_counting(self):
        g = graph_from_edges([("a", "b"), ("b", "c")], directed=True)
        raw = betweenness_centrality(g, normalized=False)
        assert raw.values["b"] == 1.0  # only the ordered pair (a, c)

    def test_matches_oracle_random(self):
        rng = random.Random(101)
        for _ in range(60):
            g, weighted = random_test_graph(rng, max_nodes=10)
            got = betweenness_centrality(g, weighted=weighted, normalized=False).values
            want = betweenness_oracle(g, weighted=weighted, normalized=False)
            for node in g.nodes:
                assert got[node] == pytest.approx(want[node], abs=1e-9)

    def test_uniform_weights_equal_unweighted(self):
        rng = random.Random(7)
        for _ in range(20):
            g, _ = random_test_graph(rng, max_nodes=9, weighted=False)
            uniform = DictVenueGraph(directed=g.directed)
            for v in g.nodes:
                uniform.add_node(v)
            for u, v, _ in g.edges():
                uniform.add_edge(u, v, 3.0)
            a = betweenness_centrality(g, weighted=False, normalized=False).values
            b = betweenness_centrality(uniform.venue_graph(), weighted=True, normalized=False).values
            assert a == b

    def test_permutation_equivariance(self):
        rng = random.Random(23)
        g, weighted = random_test_graph(rng, max_nodes=9)
        mapping = {v: f"z{9 - i}" for i, v in enumerate(sorted(g.nodes))}
        relabeled = DictVenueGraph(directed=g.directed)
        for v in g.nodes:
            relabeled.add_node(mapping[v])
        for u, v, w in g.edges():
            relabeled.add_edge(mapping[u], mapping[v], w)
        a = betweenness_centrality(g, weighted=weighted, normalized=True).values
        b = betweenness_centrality(relabeled.venue_graph(), weighted=weighted, normalized=True).values
        for v in g.nodes:
            assert a[v] == pytest.approx(b[mapping[v]], abs=1e-12)

    def test_nonpositive_weight_error(self):
        g = graph_from_edges([("a", "b")])
        g.arrays()[2][:] = -1.0  # corrupt both arcs directly; builders refuse this
        with pytest.raises(ValueError, match="^edge 'a'->'b' has non-positive weight -1.0$"):
            betweenness_centrality(g, weighted=True)

    def test_disconnected_pairs_contribute_zero(self):
        g = graph_from_edges([("a", "b"), ("b", "c")], nodes=["x"])
        raw = betweenness_centrality(g, normalized=False)
        assert raw.values["b"] == 1.0
        assert raw.values["x"] == 0.0


def random_adjacency(rng: random.Random, n: int, p: float, directed: bool) -> list[list[int]]:
    """Int adjacency lists with each pair linked with probability p, every
    list in shuffled order (neighbour order decides BFS order)."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n) if directed else range(i + 1, n):
            if i != j and rng.random() < p:
                adj[i].append(j)
                if not directed:
                    adj[j].append(i)
    for row in adj:
        rng.shuffle(row)
    return adj


def layered_diamond(layers: int, directed: bool) -> list[list[int]]:
    """Node 0, then `layers` layers of 3 nodes, each linked to every node of
    the next layer, then one last node: 3**layers shortest paths end to end."""
    adj: list[list[int]] = [[] for _ in range(3 * layers + 2)]
    previous = [0]
    for layer in range(layers + 1):
        current = [3 * layer + 1 + k for k in range(3)] if layer < layers else [3 * layers + 1]
        for u in previous:
            for v in current:
                adj[u].append(v)
                if not directed:
                    adj[v].append(u)
        previous = current
    return adj


class TestBatchedBrandes:
    """The source-batched kernel must equal the one-source-at-a-time loop
    bit for bit: same path counts, same float operations in the same order."""

    BUDGETS = (metrics.BRANDES_BLOCK_CELLS, 1, 7, 50)

    def assert_kernel_equals_loop(self, adj, monkeypatch):
        indptr = np.zeros(len(adj) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in adj], out=indptr[1:])
        heads = np.array([v for row in adj for v in row], dtype=np.int64)
        want = brandes_unweighted_loop(adj)
        for budget in self.BUDGETS:
            monkeypatch.setattr(metrics, "BRANDES_BLOCK_CELLS", budget)
            assert metrics._brandes_unweighted(indptr, heads).tolist() == want, budget

    def test_random_graphs(self, monkeypatch):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(0, 40)
            adj = random_adjacency(rng, n, rng.uniform(0.02, 0.9), directed=rng.random() < 0.5)
            self.assert_kernel_equals_loop(adj, monkeypatch)

    def test_small_and_disconnected_graphs(self, monkeypatch):
        for adj in (
            [],
            [[]],
            [[], []],
            [[1], [0]],
            [[1], []],  # directed 2-node
            [[1, 2], [0, 2], [0, 1], [], [5], [4], []],  # triangle, isolate, pair, isolate
            [[1, 2, 3, 4], [0], [0], [0], [0]],  # star: 4 DAG successors from the hub
            [[4, 1, 3, 2], [5], [5], [5], [5], []],  # directed fan-out and back in
        ):
            self.assert_kernel_equals_loop(adj, monkeypatch)

    def test_many_dag_successors(self, monkeypatch):
        # Two hubs joined through five middle nodes: from either hub every
        # middle node is a DAG successor, and each has two DAG predecessors
        # from the far side.
        adj = [[2, 3, 4, 5, 6], [6, 5, 4, 3, 2]] + [[0, 1] for _ in range(5)]
        self.assert_kernel_equals_loop(adj, monkeypatch)
        assert sum(len(row) >= 3 for row in adj) == 2

    @pytest.mark.parametrize("directed", [False, True])
    def test_path_counts_past_int64(self, directed, monkeypatch):
        # 3**45 end-to-end paths: past 2**53 (float) and 2**63 (int64).
        adj = layered_diamond(45, directed)
        assert 3**45 > 2**63
        self.assert_kernel_equals_loop(adj, monkeypatch)

    def test_betweenness_centrality_uses_loop_order(self):
        rng = random.Random(11)
        for _ in range(30):
            g, _ = random_test_graph(rng, max_nodes=20, weighted=False)
            nodes = sorted(g.nodes)
            index = {v: i for i, v in enumerate(nodes)}
            cb = brandes_unweighted_loop([[index[v] for v in neighbors(g, u)] for u in nodes])
            if not g.directed:
                cb = [x / 2.0 for x in cb]
            assert betweenness_centrality(g, normalized=False).values == dict(zip(nodes, cb))

    # Past brute-force sizes; 1.5 edges per node gives a giant component
    # plus small ones, 0.6 only small components (and keeps networkx quick).
    @pytest.mark.parametrize(
        "n, edges_per_node, directed",
        [(200, 1.5, False), (200, 1.5, True), (800, 1.5, True), (2000, 0.6, False)],
    )
    def test_matches_networkx(self, n, edges_per_node, directed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n + directed)
        g = DictVenueGraph(directed=directed)
        nodes = [f"n{i:04d}" for i in range(n)]
        for v in nodes:
            g.add_node(v)
        for _ in range(int(edges_per_node * n)):
            u, v = rng.sample(nodes, 2)
            g.add_edge(u, v, 1.0)
        g = g.venue_graph()
        other = nx.DiGraph() if directed else nx.Graph()
        other.add_nodes_from(nodes)
        other.add_edges_from((u, v) for u, v, _ in g.edges())
        got = betweenness_centrality(g, normalized=True).values
        want = nx.betweenness_centrality(other, normalized=True)
        for v in nodes:
            assert got[v] == pytest.approx(want[v], rel=1e-9, abs=1e-12)

    # Weights drawn from a continuous range, so no two path lengths tie and
    # the two Dijkstra implementations see the same shortest paths.
    @pytest.mark.parametrize(
        "n, edges_per_node, directed",
        [(200, 1.5, False), (200, 1.5, True), (800, 1.5, True), (2000, 0.6, False)],
    )
    def test_weighted_matches_networkx(self, n, edges_per_node, directed):
        nx = pytest.importorskip("networkx")
        rng = random.Random(7 * n + directed)
        g = DictVenueGraph(directed=directed)
        nodes = [f"n{i:04d}" for i in range(n)]
        for v in nodes:
            g.add_node(v)
        for _ in range(int(edges_per_node * n)):
            u, v = rng.sample(nodes, 2)
            g.add_edge(u, v, rng.uniform(0.1, 10.0))
        g = g.venue_graph()
        other = nx.DiGraph() if directed else nx.Graph()
        other.add_nodes_from(nodes)
        other.add_weighted_edges_from(((u, v, 1.0 / w) for u, v, w in g.edges()), weight="distance")
        got = betweenness_centrality(g, weighted=True, normalized=True).values
        want = nx.betweenness_centrality(other, normalized=True, weight="distance")
        for v in nodes:
            assert got[v] == pytest.approx(want[v], rel=1e-9, abs=1e-12)


class TestPagerank:
    def test_isolated_node(self):
        g = graph_from_edges([], directed=True, nodes=["a"])
        vector = pagerank(g, d=0.85)
        assert vector.values["a"] == pytest.approx(0.15, abs=1e-12)
        assert vector.converged

    def test_two_node_cycle(self):
        g = graph_from_edges([("a", "b"), ("b", "a")], directed=True)
        vector = pagerank(g, d=0.85)
        assert vector.values["a"] == pytest.approx(1.0, abs=1e-9)
        assert vector.values["b"] == pytest.approx(1.0, abs=1e-9)

    def test_out_regular_fixed_point(self):
        # circulant digraphs: node i -> i+1..i+k mod n, strongly connected, out-regular
        for n, k in [(3, 1), (5, 2), (8, 3), (12, 4)]:
            g = DictVenueGraph(directed=True)
            names = [f"v{i:02d}" for i in range(n)]
            for i in range(n):
                for step in range(1, k + 1):
                    g.add_edge(names[i], names[(i + step) % n], 1.0)
            vector = pagerank(g.venue_graph())
            for value in vector.values.values():
                assert value == pytest.approx(1.0, abs=1e-6)
            assert vector.residual < 1e-8

    def test_dangling_node_contributes_nothing(self):
        g = graph_from_edges([("a", "b")], directed=True)
        vector = pagerank(g, d=0.85)
        assert vector.values["a"] == pytest.approx(0.15, abs=1e-12)
        assert vector.values["b"] == pytest.approx(0.15 + 0.85 * 0.15, abs=1e-12)

    def test_mean_inside_envelope_on_strongly_connected(self):
        rng = random.Random(55)
        for _ in range(10):
            n = rng.randint(3, 20)
            g = DictVenueGraph(directed=True)
            names = [f"v{i:02d}" for i in range(n)]
            for i in range(n):  # a cycle guarantees strong connectivity
                g.add_edge(names[i], names[(i + 1) % n], 1.0)
            for _ in range(n):
                u, v = rng.sample(names, 2)
                if v not in neighbors(g, u):
                    g.add_edge(u, v, 1.0)
            vector = pagerank(g.venue_graph())
            mean = sum(vector.values.values()) / n
            assert 1 - 0.85 <= mean <= 1 + 0.85
            assert vector.residual < 1e-8

    def test_non_convergence_flagged(self):
        # asymmetric out-degrees keep scores moving for many iterations
        g = graph_from_edges(
            [("a", "b"), ("a", "c"), ("b", "a"), ("c", "b")], directed=True
        )
        vector = pagerank(g, tol=1e-15, max_iter=3)
        assert not vector.converged
        assert vector.iterations == 3
        assert vector.residual > 1e-15
        assert len(vector.values) == 3  # result still returned

    def test_equals_loop(self):
        # seeded digraphs with dangling and isolated nodes, inserted out of
        # name order, some stopped by max_iter before they converge
        rng = random.Random(31)
        graphs = [(VenueGraph(directed=True), 200, [])]  # empty
        for _ in range(60):
            names = [f"v{i:02d}" for i in range(rng.randint(1, 25))]
            rng.shuffle(names)
            g = DictVenueGraph(directed=True)
            for v in names:
                g.add_node(v)
            for _ in range(rng.randint(0, 3 * len(names)) if len(names) > 1 else 0):
                g.add_edge(*rng.sample(names, 2), 1.0)
            graphs.append((g.venue_graph(), rng.choice([1, 3, 200]), names))
        seen = set()
        for g, max_iter, inserted in graphs:
            want = pagerank_loop(g, d=0.85, tol=1e-10, max_iter=max_iter)
            got = pagerank(g, d=0.85, tol=1e-10, max_iter=max_iter)
            assert got == want
            assert list(got.values) == list(want.values)
            tails, heads = {u for u, _, _ in g.edges()}, {v for _, v, _ in g.edges()}
            cases = {
                "empty": not g.nodes,
                "dangling": heads - tails,
                "isolated": set(g.nodes) - tails - heads,
                "inserted out of name order": inserted != sorted(inserted),
                "stopped": not got.converged,
            }
            seen |= {case for case, present in cases.items() if present}
        assert seen == {"empty", "dangling", "isolated", "inserted out of name order", "stopped"}

    def test_undirected_rejected(self):
        with pytest.raises(ValueError, match="^pagerank requires a directed graph$"):
            pagerank(path3())

    def test_parameter_validation(self):
        g = graph_from_edges([], directed=True, nodes=["a"])
        with pytest.raises(ValueError):
            pagerank(g, d=1.0)
        with pytest.raises(ValueError):
            pagerank(g, tol=0.0)
        for max_iter in (0, -3):
            with pytest.raises(ValueError):
                pagerank(g, max_iter=max_iter)


class TestLeftSum:
    def test_adds_from_the_left_on_every_interpreter(self):
        # Python 3.12's compensated sum() gives 2.0 here, 3.11's and this one 0.0
        values = [0.1] * 10 + [1e16, 1.0, -1e16]
        assert left_sum(values) == 0.0
        total = 0.0
        for x in values:
            total += x
        assert left_sum(iter(values)) == total

    def test_empty_is_float_zero(self):
        assert left_sum([]) == 0.0 and isinstance(left_sum([]), float)


class TestClusteringByTriangles:
    def test_equal_to_neighbour_set_intersections(self):
        # every value bit for bit, in node order, and the mean summed from the left
        rng = random.Random(37)
        for _ in range(60):
            g, _ = random_test_graph(rng, max_nodes=25)
            want = local_clustering_by_sets(g)
            assert list(local_clustering(g).items()) == list(want.items())
            assert average_clustering_coefficient(g) == (left_sum(want.values()) / g.node_count() if want else 0.0)

    @pytest.mark.parametrize("budget", [1, 2, 7])
    def test_wedge_budgets(self, budget, monkeypatch):
        rng = random.Random(41)
        graphs = [random_test_graph(rng, max_nodes=20)[0] for _ in range(20)]
        want = [local_clustering(g) for g in graphs]
        monkeypatch.setattr(metrics, "WEDGE_BLOCK", budget)
        assert [local_clustering(g) for g in graphs] == want


class TestNeighborSets:
    def test_equal_to_the_symmetrized_copy(self):
        rng = random.Random(31)
        for _ in range(30):
            g, _ = random_test_graph(rng, max_nodes=15)
            und = undirected_view(g)
            sets = neighbor_sets(g)
            assert list(sets) == list(und.nodes)
            assert sets == {v: set(neighbors(und, v)) for v in und.nodes}
            # the same floats as clustering over the copy, summed in node order
            assert average_clustering_coefficient(g) == sum(local_clustering(und).values()) / g.node_count()


class TestBruteForceAgreement:
    def test_density_clustering_components_on_random_graphs(self):
        rng = random.Random(202)
        for _ in range(40):
            g, _ = random_test_graph(rng, max_nodes=25)
            assert density(g) == density_oracle(g)
            assert average_clustering_coefficient(g) == pytest.approx(
                average_clustering_oracle(g), abs=1e-12
            )
            assert connected_components(g) == components_oracle(g)
            assert largest_component_fraction(g) == lcc_fraction_oracle(g)

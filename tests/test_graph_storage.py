"""The compressed-row VenueGraph against the dict-of-dicts graph it replaced:
random edge lists built through both must agree on every order, every
weight bit, the metrics that walk the edges and the exported bytes."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import (
    DictVenueGraph,
    components_dict,
    greedy_modularity_dict,
    local_clustering_dict,
    modularity_dict,
    neighbors,
    threshold_dict,
)
from venuenet.community import greedy_modularity_partition, modularity
from venuenet.exports import FORMATS, export_graph
from venuenet.graph import GraphError, VenueGraph
from venuenet.metrics import connected_components, local_clustering
from venuenet.networks import ThresholdRule, apply_threshold

NAMES = ["a", "B", "c", "d2", "d10", "é", "z", "Zeta", "m n"]
WEIGHTS = st.one_of(
    st.sampled_from([0.1, 0.25, 0.3, 1.0, 2.0, 50.0, 51.0]),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def edge_lists(draw):
    """Nodes added alone or by their edges, in any order; edges repeated,
    reversed and reweighted."""
    directed = draw(st.booleans())
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("node"), st.sampled_from(NAMES), st.integers(0, 3)),
                st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES), WEIGHTS),
            ),
            max_size=40,
        )
    )
    return directed, steps


def build_both(directed, steps):
    g, d = VenueGraph(directed=directed), DictVenueGraph(directed=directed)
    for step in steps:
        if step[0] == "node":
            g.add_node(step[1], size=step[2])
            d.add_node(step[1], size=step[2])
        elif step[0] != step[1]:
            g.add_edge(*step)
            d.add_edge(*step)
    return g, d


def rows(g):
    if isinstance(g, DictVenueGraph):
        return [(u, attrs, list(g.neighbors(u).items())) for u, attrs in g.nodes.items()]
    return [(u, attrs, list(neighbors(g, u).items())) for u, attrs in g.nodes.items()]


SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(edge_lists())
def test_storage_orders_and_counts(case):
    g, d = build_both(*case)
    assert rows(g) == rows(d)
    assert list(g.edges()) == list(d.edges())
    assert g.sorted_edges() == d.sorted_edges()
    assert g.edge_count() == d.edge_count()
    assert g.node_count() == d.node_count()


@SETTINGS
@given(edge_lists(), st.data())
def test_walks_agree_bit_for_bit(case, data):
    g, d = build_both(*case)
    assert list(local_clustering(g).items()) == list(local_clustering_dict(d).items())
    assert connected_components(g) == components_dict(d)
    clusters = data.draw(st.lists(st.sampled_from("pqr"), min_size=len(g.nodes), max_size=len(g.nodes)))
    assignment = dict(zip(g.nodes, clusters))
    for weighted in (True, False):
        assert modularity(g, assignment, weighted).hex() == modularity_dict(d, assignment, weighted).hex()


@SETTINGS
@given(edge_lists(), st.booleans())
def test_cnm_trace_and_partition(case, weighted):
    g, d = build_both(False, case[1])
    got_trace, want_trace = [], []
    got = greedy_modularity_partition(g, weighted, got_trace)
    want = greedy_modularity_dict(d, weighted, want_trace)
    assert got_trace == want_trace
    assert got.assignment == want.assignment and got.q.hex() == want.q.hex()


@SETTINGS
@given(edge_lists(), st.sampled_from([0.1, 0.3, 1.0, 50.0, 0.0]))
def test_threshold_and_exports(case, value):
    g, d = build_both(*case)
    rule = ThresholdRule("citation" if g.directed else "cosine", value)
    reduced, want = apply_threshold(g, rule), threshold_dict(d, rule)
    assert rows(reduced) == rows(want)
    for graph, oracle in ((g, d), (reduced, want)):
        for fmt in FORMATS:
            assert export_graph(graph, fmt) == export_graph(oracle, fmt)


def test_threshold_boundaries():
    """An edge equal to cosine_min is kept; one equal to citation_min is not."""
    k = VenueGraph()
    k.add_edge("a", "b", 0.1)
    k.add_edge("b", "c", math.nextafter(0.1, 0))
    assert apply_threshold(k, ThresholdRule("cosine", 0.1)).sorted_edges() == [("a", "b", 0.1)]
    f = VenueGraph(directed=True)
    f.add_edge("a", "b", 50.0)
    f.add_edge("c", "a", math.nextafter(50.0, 51))
    assert apply_threshold(f, ThresholdRule("citation", 50.0)).sorted_edges() == [("c", "a", math.nextafter(50.0, 51))]


def test_builder_sets_and_keeps_places():
    g = VenueGraph()
    g.add_edge("b", "a", 1.0)
    g.add_edge("b", "c", 2.0)
    g.add_edge("a", "b", 3.0)  # the same edge, reversed: set, not added
    g.add_node("x")
    assert list(g.nodes) == ["b", "a", "c", "x"]
    assert list(neighbors(g, "b").items()) == [("a", 3.0), ("c", 2.0)]
    assert g.edge_count() == 2
    g.add_edge("x", "a", 0.5)  # after a read, the rows take new arcs at their ends
    assert list(neighbors(g, "a").items()) == [("b", 3.0), ("x", 0.5)]
    for bad in (("a", "a", 1.0), ("a", "b", 0.0), ("a", "b", math.nan)):
        with pytest.raises(GraphError):
            g.add_edge(*bad)

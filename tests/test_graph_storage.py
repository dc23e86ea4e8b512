"""The compressed-row VenueGraph against the dict-of-dicts graph it replaced:
random edge lists, built into a VenueGraph through the dict-of-dicts
builder's `venue_graph()`, must agree with the dicts put in name order on
every order, every weight bit, the metrics that walk the edges and the
exported bytes. And nothing read from a VenueGraph may depend on the order
its nodes and edges were given in."""

import copy
import json
import math
import re
import xml.etree.ElementTree as ET

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import local_clustering
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
from venuenet.exports import _GRAPHML_NS, FORMATS, export_graph, import_graph
from venuenet.graph import VenueGraph
from venuenet.metrics import betweenness_centrality, connected_components, pagerank
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
    """The VenueGraph the steps build, and the dict-of-dicts graph they
    build put in name order."""
    d = DictVenueGraph(directed=directed)
    for step in steps:
        if step[0] == "node":
            d.add_node(step[1], size=step[2])
        elif step[0] != step[1]:
            d.add_edge(*step)
    return d.venue_graph(), d.name_ordered()


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
    k = DictVenueGraph()
    k.add_edge("a", "b", 0.1)
    k.add_edge("b", "c", math.nextafter(0.1, 0))
    assert list(apply_threshold(k.venue_graph(), ThresholdRule("cosine", 0.1)).edges()) == [("a", "b", 0.1)]
    f = DictVenueGraph(directed=True)
    f.add_edge("a", "b", 50.0)
    f.add_edge("c", "a", math.nextafter(50.0, 51))
    assert list(apply_threshold(f.venue_graph(), ThresholdRule("citation", 50.0)).edges()) == [("c", "a", math.nextafter(50.0, 51))]


def test_builder_sets_in_name_order():
    d = DictVenueGraph()
    d.add_edge("b", "x", 1.0)
    d.add_edge("b", "a", 1.0)
    d.add_edge("a", "b", 3.0)  # the same edge, reversed: set, not added
    d.add_node("c")
    g = d.venue_graph()
    assert list(g.nodes) == ["a", "b", "c", "x"]
    assert list(neighbors(g, "b").items()) == [("a", 3.0), ("x", 1.0)]
    assert list(g.edges()) == [("a", "b", 3.0), ("b", "x", 1.0)]
    assert g.edge_count() == 2


def test_from_arcs_refuses_names_or_arcs_out_of_order():
    for names in (["b", "a"], ["a", "a"]):
        with pytest.raises(ValueError, match="^node names must be strictly ascending$"):
            VenueGraph.from_arcs(names, [], [], [], True)
    for tails, heads in (([0, 0], [2, 1]), ([1, 0], [2, 1]), ([0, 0], [1, 1])):
        with pytest.raises(ValueError, match=r"^arcs must be strictly ascending by \(tail, head\)$"):
            VenueGraph.from_arcs(["a", "b", "c"], tails, heads, [1.0, 2.0], True)
    g = VenueGraph.from_arcs(["a", "b", "c"], [0, 0, 1], [1, 2, 2], [1.0, 2.0, 3.0], True)
    assert list(g.edges()) == [("a", "b", 1.0), ("a", "c", 2.0), ("b", "c", 3.0)]


@st.composite
def insertion_orders(draw):
    """Distinct nodes and edges, each added once, in two orders: the second
    shuffled, with each undirected edge given either way round."""
    directed = draw(st.booleans())
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=len(NAMES)))
    pairs = [(u, v) for u in names for v in names if u < v or (directed and u != v)]
    edges = draw(st.lists(st.tuples(st.sampled_from(pairs), WEIGHTS), unique_by=lambda e: e[0])) if pairs else []
    steps = [("node", v, i) for i, v in enumerate(names)] + [(u, v, w) for (u, v), w in edges]
    shuffled = draw(st.permutations(steps))
    flips = draw(st.lists(st.booleans(), min_size=len(shuffled), max_size=len(shuffled)))
    shuffled = [(s[1], s[0], s[2]) if flip and s[0] != "node" and not directed else s for s, flip in zip(shuffled, flips)]
    return directed, steps, shuffled


def readings(g, assignment):
    """Everything the tests compare, floats as hex."""
    def hexes(values):
        return [(node, value.hex()) for node, value in values.items()]

    out = {
        "arrays": [a.tobytes() for a in g.arrays()],
        "edges": list(g.edges()),
        "nodes": list(g.nodes.items()),
        "clustering": hexes(local_clustering(g)),
        "components": connected_components(g),
        "modularity": [modularity(g, assignment, weighted).hex() for weighted in (True, False)],
        "betweenness": [hexes(betweenness_centrality(g, weighted).values) for weighted in (True, False)],
        "exports": [export_graph(g, fmt) for fmt in FORMATS],
    }
    if g.directed:
        rank = pagerank(g, tol=1e-12)
        out["pagerank"] = (hexes(rank.values), rank.iterations, rank.residual.hex())
    else:
        for weighted in (True, False):
            trace = []
            partition = greedy_modularity_partition(g, weighted, trace)
            out[f"cnm{weighted}"] = (trace, partition.assignment, partition.q.hex())
    return out


@SETTINGS
@given(insertion_orders(), st.data())
def test_insertion_order_does_not_matter(case, data):
    directed, steps, shuffled = case
    a, _ = build_both(directed, steps)
    b, _ = build_both(directed, shuffled)
    clusters = data.draw(st.lists(st.sampled_from("pqr"), min_size=len(a.nodes), max_size=len(a.nodes)))
    assignment = dict(zip(sorted(a.nodes), clusters))
    assert readings(b, assignment) == readings(a, assignment)


def document_units(g, fmt):
    """Each node and edge of the export of `g` in `fmt` as a unit (kind,
    names, text or element), and the function that makes a document of
    units given in any order."""
    data = export_graph(g, fmt).decode("utf-8")
    if fmt == "edge-tsv":
        header, *lines = data.splitlines(keepends=True)
        units = [("node", (line.split("\t")[1],), line) if line.startswith("#node\t")
                 else ("edge", tuple(line.split("\t")[:2]), line) for line in lines]
        return units, lambda units: (header + "".join(unit for _, _, unit in units)).encode()
    if fmt == "json":
        obj = json.loads(data)
        units = [("node", (node[0],), node) for node in obj["nodes"]] + [("edge", tuple(e[:2]), e) for e in obj["edges"]]
        return units, lambda units: json.dumps(
            {**obj, **{f"{kind}s": [unit for k, _, unit in units if k == kind] for kind in ("node", "edge")}}
        ).encode()
    root = ET.fromstring(data)
    graph = root.find(f"{{{_GRAPHML_NS}}}graph")
    units = [("node", (el.get("id"),), el) if el.tag.endswith("node") else ("edge", (el.get("source"), el.get("target")), el)
             for el in graph]

    def join(units):
        graph[:] = [unit for _, _, unit in units]
        return ET.tostring(root)

    return units, join


def reversed_unit(unit, fmt):
    """The edge `unit` with its source and target swapped."""
    _, (u, v), body = unit
    if fmt == "edge-tsv":
        body = "\t".join([v, u, body.split("\t")[2]])
    elif fmt == "json":
        body = [v, u, body[2]]
    else:
        body = copy.deepcopy(body)
        body.set("source", v)
        body.set("target", u)
    return "edge", (v, u), body


@SETTINGS
@given(insertion_orders(), st.sampled_from(FORMATS), st.data())
def test_readers_take_any_order_and_refuse_repeats(case, fmt, data):
    """An export with its nodes and edges shuffled reads back as the graph;
    with one of them given again later (an undirected edge the other way
    round), it is refused, naming the later one."""
    directed, steps, _ = case
    g, _ = build_both(directed, steps)
    units, join = document_units(g, fmt)
    units = data.draw(st.permutations(units))
    assert import_graph(join(units), fmt) == g
    if not units:
        return
    first = data.draw(st.integers(0, len(units) - 1))
    kind, names, _ = units[first]
    again = units[first] if kind == "node" or directed else reversed_unit(units[first], fmt)
    later = data.draw(st.integers(first + 1, len(units)))
    units.insert(later, again)
    if fmt == "edge-tsv":
        message = f"line {later + 2}: repeats line {first + 2}"
    elif kind == "node":
        message = f"node {names[0]!r}: repeats node {names[0]!r}"
    else:
        message = f"edge {again[1][0]!r} -> {again[1][1]!r}: repeats edge {names[0]!r} -> {names[1]!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        import_graph(join(units), fmt)

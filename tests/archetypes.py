"""Archetype graph generators mirroring the four structural network types
of the subgraph classification: seeded graphs whose profiles the classifier
must label with their type."""

import random

from oracles import DictVenueGraph
from venuenet.graph import VenueGraph


def _node(i: int) -> str:
    return f"n{i:03d}"


def _add_clique(g: DictVenueGraph, members: list[str]) -> None:
    for x in range(len(members)):
        for y in range(x + 1, len(members)):
            g.add_edge(members[x], members[y], 1.0)


def sparse_random_graph(n: int, seed: int, mean_degree: float = 0.8) -> VenueGraph:
    """Subcritical Erdos-Renyi graph: almost everything very low."""
    rng = random.Random(seed)
    g = DictVenueGraph(directed=False)
    for i in range(n):
        g.add_node(_node(i))
    p = mean_degree / max(n - 1, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(_node(i), _node(j), 1.0)
    return g.venue_graph()


def disconnected_cliques_graph(n: int, seed: int, size_range: tuple[int, int] = (5, 8)) -> VenueGraph:
    """Small fully-connected working groups with nothing between them."""
    rng = random.Random(seed)
    g = DictVenueGraph(directed=False)
    i = 0
    while i < n:
        size = min(rng.randint(*size_range), n - i)
        members = [_node(i + k) for k in range(size)]
        for m in members:
            g.add_node(m)
        _add_clique(g, members)
        i += size
    return g.venue_graph()


def bridged_components_graph(
    n: int, seed: int, connected_fraction: float = 0.72, size_range: tuple[int, int] = (6, 9)
) -> VenueGraph:
    """Several clusters bridged into one large body, plus a few stray groups.

    The connected part is a ring of cliques joined by single edges between
    distinct port nodes, so no single node dominates the shortest paths.
    """
    rng = random.Random(seed)
    g = DictVenueGraph(directed=False)
    target = int(round(n * connected_fraction))
    cliques: list[list[str]] = []
    i = 0
    while i < target:
        size = min(rng.randint(*size_range), target - i)
        if target - (i + size) == 1:  # avoid a dangling 1-clique in the ring
            size += 1
        members = [_node(i + k) for k in range(size)]
        for m in members:
            g.add_node(m)
        _add_clique(g, members)
        cliques.append(members)
        i += size
    for c in range(len(cliques)):
        here = cliques[c]
        there = cliques[(c + 1) % len(cliques)]
        if here is there:
            continue
        g.add_edge(here[-1], there[0], 1.0)
    while i < n:
        size = min(rng.randint(4, 7), n - i)
        members = [_node(i + k) for k in range(size)]
        for m in members:
            g.add_node(m)
        _add_clique(g, members)
        i += size
    return g.venue_graph()


def core_satellite_graph(
    n: int,
    seed: int,
    core_fraction: float = 0.25,
    core_density: float = 0.5,
    satellite_size_range: tuple[int, int] = (3, 5),
) -> VenueGraph:
    """A dense core plus small satellite groups, all docked at one gateway.

    The gateway sits on nearly every cross-group shortest path, which is what
    drives the maximum betweenness toward 1.
    """
    rng = random.Random(seed)
    g = DictVenueGraph(directed=False)
    hub = _node(0)
    g.add_node(hub)
    core_size = max(3, int(round(n * core_fraction)))
    core = [_node(i) for i in range(1, 1 + core_size)]
    for m in core:
        g.add_node(m)
        g.add_edge(hub, m, 1.0)
    for x in range(core_size):
        for y in range(x + 1, core_size):
            if rng.random() < core_density:
                g.add_edge(core[x], core[y], 1.0)
    i = 1 + core_size
    while i < n:
        size = min(rng.randint(*satellite_size_range), n - i)
        members = [_node(i + k) for k in range(size)]
        for m in members:
            g.add_node(m)
        _add_clique(g, members)
        g.add_edge(members[0], hub, 1.0)
        i += size
    return g.venue_graph()


ARCHETYPE_GENERATORS = {
    "Type1": sparse_random_graph,
    "Type2": disconnected_cliques_graph,
    "Type3": bridged_components_graph,
    "Type4": core_satellite_graph,
}

"""Weighted graph container used for all venue-level networks.

One class covers both flavours the toolkit needs: undirected similarity
networks and directed citation networks. Nodes are string keys with a free-form
attribute dict; edges carry a positive weight. Undirected edges are stored
symmetrically but reported once, with canonical (sorted) endpoint order.
"""

from __future__ import annotations

from typing import Any, Iterator


class GraphError(Exception):
    """Invalid graph construction or use."""


class VenueGraph:
    __slots__ = ("directed", "_nodes", "_adj", "_edge_count")

    def __init__(self, directed: bool = False):
        self.directed = directed
        self._nodes: dict[str, dict[str, Any]] = {}
        self._adj: dict[str, dict[str, float]] = {}
        self._edge_count = 0

    # -- construction -------------------------------------------------

    @classmethod
    def from_adjacency(cls, adj: dict[str, dict[str, float]], directed: bool) -> "VenueGraph":
        """A graph that takes ownership of `adj` (node -> neighbour -> weight,
        both directions of each undirected edge, every endpoint a key) as is:
        node and neighbour order stay as given, nothing is checked."""
        g = cls(directed=directed)
        g._nodes = {key: {} for key in adj}
        g._adj = adj
        arcs = sum(map(len, adj.values()))
        g._edge_count = arcs if directed else arcs // 2
        return g

    def add_node(self, key: str, /, **attrs: Any) -> None:
        if key not in self._nodes:
            self._nodes[key] = {}
            self._adj[key] = {}
        self._nodes[key].update(attrs)

    def add_edge(self, u: str, v: str, weight: float) -> None:
        """Set (not accumulate) the weight of edge u->v; adds missing nodes."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed")
        if not weight > 0:
            raise GraphError(f"edge weight must be > 0, got {weight!r}")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._edge_count += 1
        self._adj[u][v] = weight
        if not self.directed:
            self._adj[v][u] = weight

    # -- queries ------------------------------------------------------

    @property
    def nodes(self) -> dict[str, dict[str, Any]]:
        return self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, key: str) -> dict[str, float]:
        """Successors for directed graphs, all neighbors for undirected."""
        return self._adj[key]

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Each edge once; undirected edges with sorted endpoints."""
        if self.directed:
            for u, nbrs in self._adj.items():
                for v, w in nbrs.items():
                    yield (u, v, w)
        else:
            for u, nbrs in self._adj.items():
                for v, w in nbrs.items():
                    if u <= v:
                        yield (u, v, w)

    def sorted_edges(self) -> list[tuple[str, str, float]]:
        return sorted(self.edges())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VenueGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self._nodes == other._nodes
            and self.sorted_edges() == other.sorted_edges()
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<VenueGraph {kind} nodes={len(self._nodes)} edges={self._edge_count}>"

"""Weighted graph container used for all venue-level networks.

One class covers both flavours the toolkit needs: undirected similarity
networks and directed citation networks. Nodes are string keys with a free-form
attribute dict; edges carry a positive weight. Undirected edges are stored
symmetrically but reported once, with canonical (sorted) endpoint order.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Iterator


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

    def increment_edge(self, u: str, v: str, amount: float = 1.0) -> None:
        current = self._adj.get(u, {}).get(v, 0.0)
        self.add_edge(u, v, current + amount)

    # -- queries ------------------------------------------------------

    @property
    def nodes(self) -> dict[str, dict[str, Any]]:
        return self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        return self._edge_count

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adj.get(u, {})

    def weight(self, u: str, v: str) -> float:
        return self._adj[u][v]

    def neighbors(self, key: str) -> dict[str, float]:
        """Successors for directed graphs, all neighbors for undirected."""
        return self._adj[key]

    def degree(self, key: str) -> int:
        return len(self._adj[key])

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

    def total_edge_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    def undirected_view(self) -> "VenueGraph":
        """Symmetrized copy; antiparallel weights are summed. No-op copy if undirected."""
        g = VenueGraph(directed=False)
        for key, attrs in self._nodes.items():
            g.add_node(key, **attrs)
        if not self.directed:
            for u, v, w in self.edges():
                g.add_edge(u, v, w)
            return g
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                g.increment_edge(u, v, w)
        return g

    def subgraph(self, keys: Iterable[str]) -> "VenueGraph":
        keep = set(keys)
        g = VenueGraph(directed=self.directed)
        # sorted, not set order: node order feeds float sums such as the
        # average clustering coefficient, which must not depend on the hash seed
        for key in sorted(keep):
            g.add_node(key, **self._nodes[key])
        for u, v, w in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v, w)
        return g

    def copy(self) -> "VenueGraph":
        return self.subgraph(self._nodes)

    def fingerprint(self) -> str:
        """Stable content hash over nodes, attributes, and edges."""
        h = hashlib.sha256()
        h.update(b"directed" if self.directed else b"undirected")
        for key in sorted(self._nodes):
            h.update(key.encode())
            for name in sorted(self._nodes[key]):
                h.update(f"{name}={self._nodes[key][name]!r}".encode())
        for u, v, w in self.sorted_edges():
            h.update(f"{u}\t{v}\t{w!r}".encode())
        return h.hexdigest()[:16]

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

"""Weighted graph container used for all venue-level networks.

One class covers both flavours the toolkit needs: undirected similarity
networks and directed citation networks. Nodes are string keys with a free-form
attribute dict; edges carry a positive weight. The edges are stored once, as
compressed sparse rows: node i (the i-th of `nodes`) has the arcs
heads[indptr[i]:indptr[i + 1]] with their float64 weights. Undirected edges
are stored as two arcs but reported once, from their smaller endpoint name.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np


class GraphError(Exception):
    """Invalid graph construction or use."""


def arc_tails(indptr: np.ndarray) -> np.ndarray:
    """The tail of each arc of the rows `indptr` delimits."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


class VenueGraph:
    __slots__ = ("directed", "_nodes", "_indptr", "_heads", "_weights", "_pending")

    def __init__(self, directed: bool = False):
        self.directed = directed
        self._nodes: dict[str, dict[str, Any]] = {}
        self._indptr = np.zeros(1, dtype=np.int64)
        self._heads = np.zeros(0, dtype=np.int64)
        self._weights = np.zeros(0)
        self._pending: list[tuple[str, str, float]] = []  # arcs set by add_edge since the rows were built

    # -- construction -------------------------------------------------

    @classmethod
    def from_arcs(cls, names: list[str], tails, heads, weights, directed: bool, attrs=None) -> "VenueGraph":
        """The graph on `names`, in that order, whose arcs are (tails[k],
        heads[k]) of weights[k], node indices into `names`, tails ascending
        (an undirected edge given both ways). `attrs` lists each node's
        attribute dict. Nothing is checked."""
        g = cls(directed=directed)
        g._nodes = dict(zip(names, attrs if attrs is not None else [{} for _ in names]))
        tails = np.asarray(tails, dtype=np.int64)
        g._indptr = np.r_[0, np.cumsum(np.bincount(tails, minlength=len(names)))]
        g._heads = np.asarray(heads, dtype=np.int64)
        g._weights = np.asarray(weights, dtype=np.float64)
        return g

    def add_node(self, key: str, /, **attrs: Any) -> None:
        self._nodes.setdefault(key, {}).update(attrs)

    def add_edge(self, u: str, v: str, weight: float) -> None:
        """Set (not accumulate) the weight of edge u->v; adds missing nodes.
        A new arc goes to the end of its row; a set one keeps its place."""
        if u == v:
            raise GraphError(f"self-loop on {u!r} not allowed")
        if not weight > 0:
            raise GraphError(f"edge weight must be > 0, got {weight!r}")
        self.add_node(u)
        self.add_node(v)
        self._pending.append((u, v, weight))
        if not self.directed:
            self._pending.append((v, u, weight))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, heads, weights) of the rows, in node order; each row in
        the order its arcs were first set."""
        n = len(self._nodes)
        if self._pending or self._indptr.size <= n:
            tails, heads, weights = arc_tails(self._indptr), self._heads, self._weights
            if self._pending:
                index = dict(zip(self._nodes, range(n)))
                t, h, w = zip(*self._pending)
                self._pending = []
                tails = np.r_[tails, np.fromiter(map(index.__getitem__, t), dtype=np.int64, count=len(t))]
                heads = np.r_[heads, np.fromiter(map(index.__getitem__, h), dtype=np.int64, count=len(h))]
                weights = np.r_[weights, np.array(w, dtype=np.float64)]
                # each arc at its first place, with its last weight
                key = tails * n + heads
                order = np.argsort(key, kind="stable")
                bounds = np.flatnonzero(np.diff(key[order])) + 1
                first, last = order[np.r_[0, bounds]], order[np.r_[bounds - 1, key.size - 1]]
                place = np.argsort(first)
                tails, heads, weights = tails[first[place]], heads[first[place]], weights[last[place]]
                by_tail = np.argsort(tails, kind="stable")
                tails, heads, weights = tails[by_tail], heads[by_tail], weights[by_tail]
            self._indptr = np.r_[0, np.cumsum(np.bincount(tails, minlength=n))]
            self._heads, self._weights = heads, weights
        return self._indptr, self._heads, self._weights

    # -- queries ------------------------------------------------------

    @property
    def nodes(self) -> dict[str, dict[str, Any]]:
        return self._nodes

    def node_count(self) -> int:
        return len(self._nodes)

    def edge_count(self) -> int:
        arcs = int(self.arrays()[0][-1])
        return arcs if self.directed else arcs // 2

    def name_order(self) -> np.ndarray:
        """The node indices sorted by node name."""
        return np.array(sorted(range(len(self._nodes)), key=list(self._nodes).__getitem__), dtype=np.int64)

    def edge_arrays(self, by_name: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, weights) of each edge once, an undirected one from
        its smaller name: in row order, or sorted by (tail, head) names."""
        indptr, heads, weights = self.arrays()
        tails = arc_tails(indptr)
        rank = np.empty(len(self._nodes), dtype=np.int64)
        rank[self.name_order()] = np.arange(rank.size)
        if not self.directed:
            once = rank[tails] < rank[heads]
            tails, heads, weights = tails[once], heads[once], weights[once]
        if by_name:
            order = np.argsort(rank[tails] * rank.size + rank[heads])
            tails, heads, weights = tails[order], heads[order], weights[order]
        return tails, heads, weights

    def edges(self, by_name: bool = False) -> Iterator[tuple[str, str, float]]:
        """Each edge once as (u, v, weight), in the order of edge_arrays."""
        tails, heads, weights = self.edge_arrays(by_name)
        names = np.array(list(self._nodes), dtype=object)
        return zip(names[tails].tolist(), names[heads].tolist(), weights.tolist())

    def sorted_edges(self) -> list[tuple[str, str, float]]:
        return list(self.edges(by_name=True))

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
        return f"<VenueGraph {kind} nodes={len(self._nodes)} edges={self.edge_count()}>"

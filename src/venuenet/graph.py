"""Weighted graph container used for all venue-level networks.

One class covers both flavours the toolkit needs: undirected similarity
networks and directed citation networks. Nodes are string keys with a free-form
attribute dict; edges carry a positive weight. Nodes are kept sorted by name
and the edges are stored once, as compressed sparse rows: node i (the i-th of
`nodes`) has the arcs heads[indptr[i]:indptr[i + 1]], ascending, with their
float64 weights. Undirected edges are stored as two arcs but reported once,
from their smaller endpoint. A graph is built once, by `from_arcs` from
names and arcs in that order, and is not changed after.
"""

from __future__ import annotations

import operator
from typing import Any, Iterator

import numpy as np

from .arrays import arc_tails, row_offsets


class VenueGraph:
    __slots__ = ("directed", "_nodes", "_indptr", "_heads", "_weights")

    def __init__(self, directed: bool = False):
        """The empty graph; `from_arcs` builds any other."""
        self.directed = directed
        self._nodes: dict[str, dict[str, Any]] = {}
        self._indptr = np.zeros(1, dtype=np.int64)
        self._heads = np.zeros(0, dtype=np.int64)
        self._weights = np.zeros(0)

    # -- construction -------------------------------------------------

    @classmethod
    def from_arcs(cls, names: list[str], tails, heads, weights, directed: bool, attrs=None) -> "VenueGraph":
        """The graph on `names`, strictly ascending, whose arcs are (tails[k],
        heads[k]) of weights[k], node indices into `names`, strictly ascending
        as (tail, head) pairs (an undirected edge given both ways). `attrs`
        lists each node's attribute dict. Names or arcs out of that order
        raise ValueError; nothing else is checked. `tails` is read only to
        count each row's arcs, so it may be any integer array."""
        if not all(map(operator.lt, names, names[1:])):
            raise ValueError("node names must be strictly ascending")
        tails = np.asarray(tails)
        if tails.dtype.kind != "i":  # a list, empty or of Python integers
            tails = tails.astype(np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        step = tails[1:] > tails[:-1]
        step |= heads[1:] > heads[:-1]
        step &= tails[1:] >= tails[:-1]
        if not step.all():
            raise ValueError("arcs must be strictly ascending by (tail, head)")
        g = cls(directed=directed)
        g._nodes = dict(zip(names, attrs if attrs is not None else [{} for _ in names]))
        g._indptr = row_offsets(tails, len(names))
        g._heads = heads
        g._weights = np.asarray(weights, dtype=np.float64)
        return g

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, heads, weights) of the rows, in node order."""
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

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, weights) of each edge once, an undirected one from
        its smaller endpoint, in row order."""
        indptr, heads, weights = self.arrays()
        tails = arc_tails(indptr)
        if not self.directed:
            once = tails < heads
            tails, heads, weights = tails[once], heads[once], weights[once]
        return tails, heads, weights

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Each edge once as (u, v, weight), in the order of edge_arrays."""
        tails, heads, weights = self.edge_arrays()
        names = np.array(list(self._nodes), dtype=object)
        return zip(names[tails].tolist(), names[heads].tolist(), weights.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VenueGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.nodes == other.nodes
            and list(self.edges()) == list(other.edges())
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"<VenueGraph {kind} nodes={len(self._nodes)} edges={self.edge_count()}>"

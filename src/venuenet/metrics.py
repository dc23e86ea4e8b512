"""Core graph metrics: density, clustering, betweenness, PageRank, components.

Betweenness uses Brandes' accumulation (BFS for unit distances, Dijkstra with
distance = 1/weight otherwise). PageRank is the unnormalized recursive score
P(i) = (1 - d) + d * sum(P(j) / outdeg(j)) over predecessors j, iterated from
all-ones; dangling nodes contribute nothing to their (nonexistent) successors,
so scores hover around 1 instead of summing to 1.
"""

from __future__ import annotations

import functools
import heapq
import operator
from dataclasses import dataclass

import numpy as np

from .arrays import INT64_MAX, arc_tails, component_labels, concat_ranges, distinct, run_starts
from .exports import finite_float, read_table, write_table
from .graph import VenueGraph

DEFAULT_PAGERANK_D = 0.85
DEFAULT_PAGERANK_TOL = 1e-8
DEFAULT_PAGERANK_MAX_ITER = 200


@dataclass
class MetricVector:
    metric: str
    values: dict[str, float]
    converged: bool = True
    residual: float = 0.0
    iterations: int = 0

    def top(self) -> list[tuple[str, float]]:
        return sorted(self.values.items(), key=lambda kv: (-kv[1], kv[0]))

    def convergence_warning(self) -> str | None:
        """The warning to show when the iteration stopped before converging."""
        if self.converged:
            return None
        return f"{self.metric} did not converge (residual {self.residual:.3g})"


@dataclass(frozen=True)
class CSRGraph:
    """A graph on nodes 0..n-1 without names or weights: node i's successors (when
    undirected, its neighbours) are heads[indptr[i]:indptr[i + 1]], in adjacency order."""

    indptr: np.ndarray
    heads: np.ndarray
    directed: bool

    def node_count(self) -> int:
        return self.indptr.size - 1


def left_sum(values) -> float:
    """The floats added from the left on any Python (3.12's sum() compensates)."""
    return functools.reduce(operator.add, values, 0.0)


def density(g: VenueGraph) -> float:
    return edge_density(g.node_count(), g.edge_count(), g.directed)


def edge_density(n: int, edges: int, directed: bool) -> float:
    """Edges over the possible ones among n nodes."""
    return 0.0 if n <= 1 else (edges if directed else 2 * edges) / (n * (n - 1))


def average_clustering_coefficient(g: VenueGraph) -> float:
    n = g.node_count()
    return left_sum(csr_local_clustering(_csr(g)).tolist()) / n if n else 0.0


# Upper bound on the pairs of arcs one pass of csr_local_clustering checks.
WEDGE_BLOCK = 1 << 12


def csr_local_clustering(g: CSRGraph) -> np.ndarray:
    """Closed triads over centered triples of each node of `g` (0 where
    degree < 2; arcs taken undirected), from exact triangle counts (Latapy
    2008): with each edge oriented from its end of lower (degree, node) rank,
    a triangle is one closed pair of arcs out of its lowest node."""
    n = g.node_count()
    tails = arc_tails(g.indptr)
    kept = tails != g.heads
    keys = np.minimum(tails, g.heads)
    keys *= n
    keys += np.maximum(tails, g.heads, out=tails)
    del tails
    keys = distinct(keys[kept])
    del kept  # keys holds each edge once, direction ignored: no arc-sized array is needed after it
    lo, hi = np.divmod(keys, max(n, 1))
    degree = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    rank = np.argsort(np.argsort(degree, kind="stable"))
    up = rank[lo] < rank[hi]
    del rank
    low, high = np.where(up, lo, hi), np.where(up, hi, lo)
    del lo, hi, up
    order = np.argsort(low)
    low = low[order]
    high = high[order]
    del order
    after = np.searchsorted(low, low, side="right") - np.arange(low.size) - 1  # later arcs out of the node
    ends = np.cumsum(after)
    triangles = np.zeros(n, dtype=np.int64)
    start = 0
    while start < low.size:  # the pairs of arcs out of one node, at most WEDGE_BLOCK at a time
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - after[start] + WEDGE_BLOCK, side="right")))
        j, i = concat_ranges(np.arange(start + 1, stop + 1), after[start:stop])
        a, b = high[start + i], high[j]
        wedge = np.minimum(a, b) * n + np.maximum(a, b)
        closed = keys[np.minimum(np.searchsorted(keys, wedge), keys.size - 1)] == wedge
        triangles += np.bincount(np.concatenate((low[start + i][closed], a[closed], b[closed])), minlength=n)
        start = stop
    # a node's links, the ordered pairs of adjacent neighbours, are twice its triangles
    return np.where(degree > 1, 2 * triangles / np.maximum(degree * (degree - 1), 1), 0.0)


def connected_components(g: VenueGraph) -> list[set[str]]:
    """Weakly connected components (direction ignored), largest first."""
    csr = _csr(g)
    labels = component_labels(csr.node_count(), arc_tails(csr.indptr), csr.heads)
    components: dict[int, set[str]] = {}
    for node, label in zip(g.nodes, labels.tolist()):
        components.setdefault(label, set()).add(node)
    return sorted(components.values(), key=lambda c: (-len(c), min(c)))


def largest_component_fraction(g: VenueGraph) -> float:
    if g.node_count() == 0:
        raise ValueError("largest_component_fraction is undefined on an empty graph")
    return len(connected_components(g)[0]) / g.node_count()


# -- betweenness ---------------------------------------------------------


# Upper bound on the (source, node) cells one block of the unweighted kernel
# holds. A block's arrays grow with its cells and with the edges its frontiers
# expand, so the bound caps the kernel's memory on any graph.
BRANDES_BLOCK_CELLS = 8192


def _csr(g: VenueGraph) -> CSRGraph:
    indptr, heads, _ = g.arrays()
    return CSRGraph(indptr, heads, g.directed)


def _brandes_unweighted(indptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Brandes' accumulation over unit-length edges from every source of the
    graph whose node i has the successors heads[indptr[i]:indptr[i + 1]],
    in adjacency order.

    Sources are taken component by component (weakly connected), in
    ascending order inside each, and each source gets a row of array cells,
    one per node of its component. Blocks of consecutive rows holding at most
    BRANDES_BLOCK_CELLS cells (or one row, if it alone is larger) run their
    breadth-first searches level-synchronously. Path counts are exact
    integers, moved to Python integers before they could pass int64. The
    floats are those of the one-source-at-a-time loop, operation for
    operation: each delta[v] folds its DAG successors in descending BFS
    position (the loop's pop order) and each cb[w] folds its sources in
    ascending order, blocks one after another; numpy's unbuffered `add.at`
    applies its additions in index order.
    """
    n = indptr.size - 1
    if n == 0:
        return np.zeros(0)
    label = component_labels(n, arc_tails(indptr), heads)
    max_in = max(int(np.bincount(heads, minlength=1).max()), 1)

    # Sources by component, ascending inside each; `position` is a node's
    # offset inside its component's cells of a row.
    order = np.argsort(label, kind="stable")
    first = run_starts(label[order])
    size = np.diff(np.r_[first, n])
    row_first = np.repeat(first, size)  # row i is the source order[i]
    row_len = np.repeat(size, size)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n) - row_first

    cb = np.zeros(n)
    ends = np.cumsum(row_len)
    start = 0
    while start < n:
        base = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + BRANDES_BLOCK_CELLS, side="right")))
        rows = slice(start, stop)
        _accumulate_block(order[rows], row_first[rows], row_len[rows], order, position, indptr, heads, max_in, cb)
        start = stop
    return cb


def _accumulate_block(sources, row_first, row_len, order, position, indptr, heads, max_in, cb) -> None:
    """Add to cb the dependencies of one block's sources, row by row."""
    row_start = np.cumsum(row_len) - row_len
    cell_index, cell_row = concat_ranges(row_first, row_len)
    cell_node = order[cell_index]
    cell_base = row_start[cell_row]  # the first cell of the cell's row
    cells = cell_node.size
    dist = np.full(cells, -1, dtype=np.int64)
    sigma = np.zeros(cells, dtype=np.int64)
    rank = np.zeros(cells, dtype=np.int64)  # BFS position inside a level
    first_slot = np.full(cells, INT64_MAX, dtype=np.int64)  # first candidate naming the cell
    frontier = row_start + position[sources]
    dist[frontier] = 0
    sigma[frontier] = 1
    levels = []  # DAG edges (parent, child) into each level, latest child first
    level = 0
    while frontier.size:
        if sigma.dtype != object and int(sigma[frontier].max()) > INT64_MAX // max_in:
            sigma = sigma.astype(object)
        tails = cell_node[frontier]
        edge, owner = concat_ranges(indptr[tails], indptr[tails + 1] - indptr[tails])
        parent = frontier[owner]
        del owner  # the expansion arrays are the block's largest: drop each early
        child = position[heads[edge]]
        del edge
        child += cell_base[parent]
        # Every unvisited child joins the next level, so these are the DAG
        # edges into it. They come in (source, BFS position of parent,
        # adjacency) order: first occurrences give the level in BFS order.
        on_dag = dist[child] < 0
        parent, child = parent[on_dag], child[on_dag]
        slot = np.arange(child.size)
        np.minimum.at(first_slot, child, slot)
        frontier = child[first_slot[child] == slot]
        level += 1
        dist[frontier] = level
        rank[frontier] = np.arange(frontier.size)
        np.add.at(sigma, child, sigma[parent])
        # Only the order among one parent's children matters, and their
        # ranks are distinct, so an unstable sort will do.
        latest_first = np.argsort(rank[child])[::-1]
        parent, child = parent[latest_first], child[latest_first]
        levels.append((parent, child))

    sigma = sigma.astype(np.float64)
    delta = np.zeros(cells)
    for parent, child in reversed(levels):
        np.add.at(delta, parent, sigma[parent] * ((1.0 + delta[child]) / sigma[child]))
    reached = dist > 0
    np.add.at(cb, cell_node[reached], delta[reached])


def _brandes_weighted(adj: list[list[tuple[int, float]]]) -> list[float]:
    n = len(adj)
    cb = [0.0] * n
    inf = float("inf")
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int] | None] = [None] * n  # a node's list is made when it is reached
        sigma = [0] * n
        sigma[s] = 1
        settled = [False] * n
        seen = [inf] * n
        seen[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d_v, v = pop(heap)
            if settled[v]:
                continue
            settled[v] = True
            stack.append(v)
            sv = sigma[v]
            for w, length in adj[v]:
                if settled[w]:
                    continue
                d_w = d_v + length
                if d_w < seen[w]:
                    seen[w] = d_w
                    push(heap, (d_w, w))
                    sigma[w] = sv
                    preds[w] = [v]
                elif d_w == seen[w]:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(stack[1:]):  # stack[0] is s
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            cb[w] += delta[w]
    return cb


def betweenness_scale(n: int, directed: bool) -> float:
    """Factor that normalizes the betweenness of an n-node graph: one over
    the node pairs that exclude the node, (n-1)(n-2) ordered ones for
    directed graphs and half as many for undirected ones; 0 below 3 nodes."""
    pairs = (n - 1) * (n - 2)
    if not directed:
        pairs /= 2
    return 1.0 / pairs if pairs > 0 else 0.0


def betweenness_centrality(g: VenueGraph | CSRGraph, weighted: bool = False, normalized: bool = True) -> MetricVector | np.ndarray:
    """Shortest-path betweenness with endpoints excluded.

    Weighted mode turns edge weights into distances as 1/weight, so strong
    connections act as short paths. Normalization divides by the number of
    node pairs excluding the node itself: (n-1)(n-2) for directed graphs,
    (n-1)(n-2)/2 for undirected ones. A CSRGraph has neither weights nor
    names: its values come back as a float64 array in node order.
    """
    if isinstance(g, CSRGraph):
        nodes, cb = range(g.node_count()), _brandes_unweighted(g.indptr, g.heads)
    else:
        nodes = list(g.nodes)
        indptr, heads, weights = g.arrays()
        if weighted:
            bad = np.flatnonzero(~(weights > 0))
            if bad.size:
                arc = int(bad[0])
                u, v = nodes[np.searchsorted(indptr, arc, side="right") - 1], nodes[heads[arc]]
                raise ValueError(f"edge {u!r}->{v!r} has non-positive weight {weights[arc].item()!r}")
            arcs = list(zip(heads.tolist(), (1.0 / weights).tolist()))
            bounds = indptr.tolist()
            cb = np.array(_brandes_weighted([arcs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]), dtype=np.float64)
        else:
            cb = _brandes_unweighted(indptr, heads)

    if not g.directed:
        cb /= 2.0
    if normalized:
        cb *= betweenness_scale(len(nodes), g.directed)

    if isinstance(g, CSRGraph):
        return cb
    return MetricVector(metric="betweenness", values=dict(zip(nodes, cb.tolist())))


# -- PageRank ------------------------------------------------------------


def pagerank(
    g: VenueGraph,
    d: float = DEFAULT_PAGERANK_D,
    tol: float = DEFAULT_PAGERANK_TOL,
    max_iter: int = DEFAULT_PAGERANK_MAX_ITER,
) -> MetricVector:
    if not g.directed:
        raise ValueError("pagerank requires a directed graph")
    if not 0 < d < 1:
        raise ValueError(f"damping factor must be in (0, 1), got {d}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    nodes = list(g.nodes)
    indptr, heads, _ = g.arrays()
    n = len(nodes)
    out_deg = np.diff(indptr)
    # arcs grouped by head, each node's predecessors ascending: np.add.at adds
    # them in that order, from 0.0, as the recursive sum is defined
    by_head = np.argsort(heads, kind="stable")
    heads, tails = heads[by_head], arc_tails(indptr)[by_head]

    scores = np.ones(n)
    residual = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        total = np.zeros(n)
        np.add.at(total, heads, scores[tails] / out_deg[tails])
        new = (1.0 - d) + d * total
        residual = float(np.abs(new - scores).max(initial=0.0))
        scores = new
        if residual < tol:
            converged = True
            break

    return MetricVector(
        metric="pagerank",
        values=dict(zip(nodes, scores.tolist())),
        converged=converged if n else True,
        residual=residual,
        iterations=iterations if n else 0,
    )


# -- per-node TSV ----------------------------------------------------------


METRIC_HEADER = "node\t{}"  # formatted with the metric's name


def write_metric_tsv(vector: MetricVector, path) -> None:
    """`node<TAB><metric>` header, then one row per node, highest value first."""
    write_table(path, METRIC_HEADER.format(vector.metric), vector.top())


def read_metric_tsv(path, metric: str) -> dict[str, float]:
    """Per-node values of a file written by write_metric_tsv for `metric`:
    each node once, each value finite."""
    _, rows = read_table(path, METRIC_HEADER.format(metric), metric, key=("node",), parse={metric: finite_float})
    return dict(rows)

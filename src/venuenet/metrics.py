"""Core graph metrics: density, clustering, betweenness, PageRank, components.

Betweenness uses Brandes' accumulation (BFS for unit distances, Dijkstra with
distance = 1/weight otherwise). PageRank is the unnormalized recursive score
P(i) = (1 - d) + d * sum(P(j) / outdeg(j)) over predecessors j, iterated from
all-ones; dangling nodes contribute nothing to their (nonexistent) successors,
so scores hover around 1 instead of summing to 1.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .graph import VenueGraph

DEFAULT_PAGERANK_D = 0.85
DEFAULT_PAGERANK_TOL = 1e-8
DEFAULT_PAGERANK_MAX_ITER = 200


class MetricError(Exception):
    pass


class EmptyGraphError(MetricError):
    pass


class NonPositiveWeightError(MetricError):
    pass


@dataclass
class MetricVector:
    metric: str
    values: dict[str, float]
    converged: bool = True
    residual: float = 0.0
    iterations: int = 0

    def top(self, k: int | None = None) -> list[tuple[str, float]]:
        ranked = sorted(self.values.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked if k is None else ranked[:k]

    def max_value(self) -> float:
        return max(self.values.values()) if self.values else 0.0


def density(g: VenueGraph) -> float:
    n = g.node_count()
    if n <= 1:
        return 0.0
    possible = n * (n - 1)
    if not g.directed:
        return 2 * g.edge_count() / possible
    return g.edge_count() / possible


def local_clustering(g: VenueGraph) -> dict[str, float]:
    """Closed triads over centered triples per node; 0 where degree < 2.
    Directed graphs are symmetrized first."""
    und = g if not g.directed else g.undirected_view()
    nbr_sets = {v: set(und.neighbors(v)) for v in und.nodes}
    out: dict[str, float] = {}
    for v, nbrs in nbr_sets.items():
        k = len(nbrs)
        if k < 2:
            out[v] = 0.0
            continue
        links = 0
        for u in nbrs:
            links += len(nbrs & nbr_sets[u])
        out[v] = links / (k * (k - 1))  # each link double-counted vs k*(k-1)/2 pairs
    return out


def average_clustering_coefficient(g: VenueGraph) -> float:
    n = g.node_count()
    if n == 0:
        return 0.0
    values = local_clustering(g)
    return sum(values.values()) / n


def connected_components(g: VenueGraph) -> list[set[str]]:
    """Weakly connected components (direction ignored), largest first."""
    adj: dict[str, set[str]] = {v: set() for v in g.nodes}
    for u, v, _ in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            for nbr in adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    comp.add(nbr)
                    queue.append(nbr)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def component_count(g: VenueGraph) -> int:
    return len(connected_components(g))


def largest_component_fraction(g: VenueGraph) -> float:
    if g.node_count() == 0:
        raise EmptyGraphError("largest_component_fraction is undefined on an empty graph")
    return len(connected_components(g)[0]) / g.node_count()


# -- betweenness ---------------------------------------------------------


def _brandes_unweighted(nodes: list[str], adj: list[list[int]]) -> list[float]:
    n = len(nodes)
    cb = [0.0] * n
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0] * n
        sigma[s] = 1
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            dv = dist[v]
            sv = sigma[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                cb[w] += delta[w]
    return cb


def _brandes_weighted(nodes: list[str], adj: list[list[tuple[int, float]]]) -> list[float]:
    n = len(nodes)
    cb = [0.0] * n
    inf = float("inf")
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0] * n
        sigma[s] = 1
        settled = [False] * n
        seen = [inf] * n
        seen[s] = 0.0
        heap: list[tuple[float, int, int]] = [(0.0, s, s)]
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            d_v, _, v = pop(heap)
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
                    push(heap, (d_w, w, w))
                    sigma[w] = sv
                    preds[w] = [v]
                elif d_w == seen[w]:
                    sigma[w] += sv
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                cb[w] += delta[w]
    return cb


def betweenness_centrality(
    g: VenueGraph, weighted: bool = False, normalized: bool = True
) -> MetricVector:
    """Shortest-path betweenness with endpoints excluded.

    Weighted mode turns edge weights into distances as 1/weight, so strong
    connections act as short paths. Normalization divides by the number of
    node pairs excluding the node itself: (n-1)(n-2) for directed graphs,
    (n-1)(n-2)/2 for undirected ones.
    """
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)

    if weighted:
        adj_w: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u in nodes:
            row = adj_w[index[u]]
            for v, w in g.neighbors(u).items():
                if not w > 0:
                    raise NonPositiveWeightError(f"edge {u!r}->{v!r} has non-positive weight {w!r}")
                row.append((index[v], 1.0 / w))
        cb = _brandes_weighted(nodes, adj_w)
    else:
        adj_u: list[list[int]] = [[] for _ in range(n)]
        for u in nodes:
            adj_u[index[u]] = [index[v] for v in g.neighbors(u)]
        cb = _brandes_unweighted(nodes, adj_u)

    if not g.directed:
        cb = [x / 2.0 for x in cb]
    if normalized:
        pairs = (n - 1) * (n - 2)
        if not g.directed:
            pairs /= 2
        scale = 1.0 / pairs if pairs > 0 else 0.0
        cb = [x * scale for x in cb]

    return MetricVector(
        metric="betweenness",
        values={v: cb[index[v]] for v in nodes},
    )


# -- PageRank ------------------------------------------------------------


def pagerank(
    g: VenueGraph,
    d: float = DEFAULT_PAGERANK_D,
    tol: float = DEFAULT_PAGERANK_TOL,
    max_iter: int = DEFAULT_PAGERANK_MAX_ITER,
) -> MetricVector:
    if not g.directed:
        raise MetricError("pagerank requires a directed graph")
    if not 0 < d < 1:
        raise ValueError(f"damping factor must be in (0, 1), got {d}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out_deg = [len(g.neighbors(v)) for v in nodes]
    preds: list[list[int]] = [[] for _ in range(n)]
    for u in nodes:
        ui = index[u]
        for v in g.neighbors(u):
            preds[index[v]].append(ui)

    scores = [1.0] * n
    base = 1.0 - d
    residual = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        new = [0.0] * n
        residual = 0.0
        for i in range(n):
            total = 0.0
            for j in preds[i]:
                total += scores[j] / out_deg[j]
            value = base + d * total
            new[i] = value
            diff = value - scores[i]
            if diff < 0:
                diff = -diff
            if diff > residual:
                residual = diff
        scores = new
        if residual < tol:
            converged = True
            break

    return MetricVector(
        metric="pagerank",
        values={v: scores[index[v]] for v in nodes},
        converged=converged if n else True,
        residual=residual,
        iterations=iterations if n else 0,
    )


# -- per-node TSV ----------------------------------------------------------


def write_metric_tsv(vector: MetricVector, path) -> None:
    """`node<TAB><metric>` header, then one row per node, highest value first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"node\t{vector.metric}\n")
        for node, value in vector.top():
            fh.write(f"{node}\t{value!r}\n")


def read_metric_tsv(path, metric: str) -> dict[str, float]:
    """Per-node values of a file written by write_metric_tsv for `metric`.
    A wrong header or a malformed row raises ValueError naming its line."""
    values: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.rstrip("\n") != f"node\t{metric}":
            raise ValueError(f"{path}: line 1: expected header 'node<TAB>{metric}', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split("\t")
            try:
                if len(fields) != 2 or not fields[0]:
                    raise ValueError
                values[fields[0]] = float(fields[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: expected 'node<TAB>value', got {line!r}") from None
    return values

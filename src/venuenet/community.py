"""Greedy modularity clustering and cluster-level network projection.

The clustering is Clauset-Newman-Moore agglomeration: start from
singletons, repeatedly apply the merge with the largest modularity gain, stop
when no merge gains. Cluster ids are the lexicographically smallest member
venue key, which makes tie-breaking total and runs reproducible.

Merge candidates live in one max-heap of (-dQ, ci, cj) entries with ci < cj,
so the heap order is the selection rule itself: largest dQ first, ties to the
smallest pair. Stale entries are invalidated lazily: a popped entry is skipped
when a cluster is gone, the pair is no longer adjacent, or its dQ recomputed
now differs from the stored one. A merge changes only the dQ of pairs that
include the surviving cluster, so only those are pushed again. When stale
entries outnumber the live pairs, the heap is rebuilt from the live pairs
alone, so it stays live-sized. The merge sequence is the one a full rescan of
all pairs per merge would give.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import networks
from .arrays import arc_tails, concat_ranges, exact, row_offsets, run_starts
from .corpus import check_name
from .exports import read_table, write_table
from .graph import VenueGraph
from .networks import CouplingMatrix


@dataclass
class ClusterPartition:
    assignment: dict[str, str]  # venue key -> cluster id
    q: float

    @property
    def cluster_count(self) -> int:
        return len(set(self.assignment.values()))


def modularity(g: VenueGraph, assignment: dict[str, str], weighted: bool = True) -> float:
    """Newman modularity Q of a node-to-cluster assignment.

    Q = sum over clusters of (intra-cluster edge weight / m) minus
    (cluster degree sum / 2m) squared, with m the total edge weight.
    Defined as 0 on edgeless graphs. m and each cluster's sums add the edge
    weights from the left, edge by edge in row order, both ends of an edge
    in turn: the bits do not depend on the interpreter or the hash seed.
    """
    missing = [v for v in g.nodes if v not in assignment]
    if missing:
        raise ValueError(f"assignment misses {len(missing)} nodes, e.g. {missing[0]!r}")
    tails, heads, weights, m = _edge_weights(g, weighted)
    if m == 0:
        return 0.0
    clusters = sorted(set(assignment.values()))
    index = dict(zip(clusters, range(len(clusters))))
    cluster = np.fromiter((index[assignment[v]] for v in g.nodes), dtype=np.int64, count=g.node_count())
    cu, cv = cluster[tails], cluster[heads]
    intra = np.zeros(len(clusters))
    np.add.at(intra, cu[cu == cv], weights[cu == cv])
    degree_sum = np.zeros(len(clusters))
    np.add.at(degree_sum, np.stack((cu, cv), axis=1).ravel(), np.repeat(weights, 2))
    a = degree_sum / (2 * m)
    return math.fsum((intra / m - a * a).tolist())  # exact, so in any order


def _edge_weights(g: VenueGraph, weighted: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(tails, heads, weights) of each edge of `g` once, in row order, all
    weights 1.0 unless `weighted`, and m, their sum from the left. An m
    whose 2m^2 passes the float range raises ValueError."""
    tails, heads, weights = g.edge_arrays()
    if not weighted:
        weights = np.ones(weights.size)
    with np.errstate(over="ignore"):
        m = float(np.add.accumulate(weights)[-1]) if weights.size else 0.0
    if 2 * m * m == math.inf:  # the gains of CNM divide by it
        raise ValueError(f"the edge weights sum to {m!r}, past the float range of 2m^2")
    return tails, heads, weights, m


def greedy_modularity_partition(
    g: VenueGraph, weighted: bool = True, trace: list | None = None, funnel: dict | None = None
) -> ClusterPartition:
    """Agglomerate singleton clusters by best modularity gain.

    The merge candidate is the connected cluster pair with the largest
    dQ = w_between/m - S_i*S_j/(2m^2); ties go to the smallest (sorted)
    pair of cluster ids. Candidates come from a lazily invalidated max-heap
    (see the module docstring). Stops when no merge has dQ > 0 and returns the
    best-Q state seen. When `trace` is given, a snapshot (assignment copy,
    incrementally tracked Q) is appended after every merge. `funnel`, when
    given, receives the merges, the heap's pops, its pushes after the first
    heap and its rebuilds.
    """
    if g.directed:
        raise ValueError("greedy modularity clustering expects an undirected graph")
    nodes = list(g.nodes)
    if not nodes:
        return ClusterPartition(assignment={}, q=0.0)
    tails, heads, weights, m = _edge_weights(g, weighted)
    if m == 0:
        return ClusterPartition(assignment={v: v for v in nodes}, q=0.0)

    # cluster id = smallest member key; singletons to start. A node's degree
    # sum adds its row from the left.
    members: dict[str, list[str]] = {v: [v] for v in nodes}
    indptr, _, row_weights = g.arrays()
    degree = np.zeros(len(nodes))
    np.add.at(degree, arc_tails(indptr), row_weights if weighted else 1.0)
    degree_sum = dict(zip(nodes, degree.tolist()))
    assignment = {v: v for v in nodes}
    q = modularity(g, assignment, weighted=weighted)
    held = None  # a copy of the best state, while the merges after it leave q as it was
    two_m_sq = 2 * m * m

    # popping (-dQ, ci, cj) yields the largest dQ, ties to the smallest pair;
    # the heap starts as the edges in row order, ci < cj
    names = np.array(nodes, dtype=object)
    neg_gains = -(weights / m - degree[tails] * degree[heads] / two_m_sq)
    heap = list(zip(neg_gains.tolist(), names[tails].tolist(), names[heads].tolist()))
    del names, neg_gains, tails, heads, degree
    # `between` holds each edge both ways
    between: dict[str, dict[str, float]] = {v: {} for v in nodes}
    for (_, u, v), w in zip(heap, weights.tolist()):
        between[u][v] = between[v][u] = w
    del weights

    def gain(ci: str, cj: str) -> float:
        return between[ci][cj] / m - degree_sum[ci] * degree_sum[cj] / two_m_sq

    def stale(neg_gain: float, ci: str, cj: str) -> bool:
        return ci not in between or cj not in between[ci] or gain(ci, cj) != -neg_gain

    heapq.heapify(heap)
    live = len(heap)  # adjacent cluster pairs, each with an entry of its current dQ in the heap
    merges = pops = pushes = rebuilds = 0

    while heap:
        if len(heap) > 2 * live + 1024:  # mostly stale: keep the live pairs' entries alone
            heap = [entry for entry in heap if not stale(*entry)]
            heapq.heapify(heap)
            rebuilds += 1
        neg_gain, ci, cj = heapq.heappop(heap)
        pops += 1
        if stale(neg_gain, ci, cj):
            continue
        best_gain = -neg_gain
        if best_gain <= 0.0:
            break
        if q + best_gain != q:
            held = None
        elif held is None:
            held = dict(assignment)

        # ci < cj, so the merged cluster keeps id ci
        merges += 1
        live -= len(between[ci]) + len(between[cj]) - 1  # the pairs of either, the two's own once
        for venue in members[cj]:
            assignment[venue] = ci
        members[ci].extend(members[cj])
        degree_sum[ci] += degree_sum[cj]
        del between[ci][cj]
        for ck, w in between[cj].items():
            if ck == ci:
                continue
            between[ci][ck] = between[ci].get(ck, 0.0) + w
            link = between[ck]
            link[ci] = link.get(ci, 0.0) + w
            del link[cj]
        del between[cj]
        del members[cj]
        del degree_sum[cj]
        # only pairs that include ci changed their dQ
        live += len(between[ci])
        pushes += len(between[ci])
        for ck in between[ci]:
            a, b = (ci, ck) if ci < ck else (ck, ci)
            heapq.heappush(heap, (-gain(a, b), a, b))

        q += best_gain
        if trace is not None:
            trace.append((dict(assignment), q))

    if funnel is not None:
        funnel.update(merges=merges, heap_pops=pops, heap_pushes=pushes, heap_rebuilds=rebuilds)
    best = assignment if held is None else held
    return ClusterPartition(assignment=best, q=modularity(g, best, weighted=weighted))


@dataclass
class ClusterProjection:
    """Outcome of projecting a coupling matrix onto a partition."""

    cluster_matrix: CouplingMatrix
    new_assignments: dict[str, str]  # previously un-clustered venue -> cluster
    unassigned: list[str]  # venues orthogonal to every cluster
    graph: VenueGraph


def project_to_cluster_network(m: CouplingMatrix, p: ClusterPartition) -> ClusterProjection:
    """Aggregate coupling counts per cluster, adopt un-clustered venues, and
    build the cluster-level cosine network.

    Venues present in the matrix but missing from the partition are assigned
    to the cluster whose aggregate vector they are most cosine-similar to
    (ties to the smallest cluster id); venues orthogonal to every cluster stay
    unassigned. The cluster graph is computed over aggregates that include
    the adopted venues.
    """
    cluster_ids = sorted(set(p.assignment.values()))
    k = len(cluster_ids)
    position = dict(zip(cluster_ids, range(k)))
    cluster = np.fromiter((position.get(p.assignment.get(venue), -1) for venue in m.venues), dtype=np.int64, count=len(m.venues))
    loose = np.flatnonzero(cluster < 0)
    # Rows 0..k-1 are the clusters in id order, k.. the unclustered venues
    # in matrix order: a cluster may be named after an unclustered venue.
    lengths = np.diff(m.indptr)
    entries, _ = concat_ranges(m.indptr[loose], lengths[loose])
    indptr, key_ids, counts = _aggregate(cluster, k, m.indptr, m.key_ids, m.counts)
    indptr = np.r_[indptr, indptr[-1] + np.cumsum(lengths[loose])]
    key_ids, counts = np.r_[key_ids, m.key_ids[entries]], np.concatenate((counts, m.counts[entries]))
    best = np.full(loose.size, -1)  # each loose venue's cluster
    if loose.size and k:
        i, j, cos = networks.pair_cosines(indptr, key_ids, counts)
        adopt = (i < k) & (j >= k) & (cos > 0)
        i, j, cos = i[adopt], j[adopt], cos[adopt]
        # each loose venue's largest cosine, a tie to the smallest cluster id
        order = np.lexsort((i, -cos, j))
        first = order[run_starts(j[order])]
        best[j[first] - k] = i[first]
    new_assignments = {m.venues[v]: cluster_ids[c] for v, c in zip(loose.tolist(), best.tolist()) if c >= 0}
    unassigned = [m.venues[v] for v, c in zip(loose.tolist(), best.tolist()) if c < 0]

    indptr, key_ids, counts = _aggregate(np.r_[np.arange(k), best], k, indptr, key_ids, counts)
    cluster[loose] = best
    publications = exact(m.publication_counts[cluster >= 0], len(m.venues))
    pub_counts = np.zeros(k, dtype=publications.dtype)
    np.add.at(pub_counts, cluster[cluster >= 0], publications)
    cited = np.zeros(len(m.keys), dtype=bool)
    cited[key_ids] = True
    cluster_matrix = CouplingMatrix(
        venues=cluster_ids,
        keys=[m.keys[key] for key in np.flatnonzero(cited).tolist()],
        indptr=indptr,
        key_ids=(np.cumsum(cited) - 1)[key_ids],
        counts=counts,
        publication_counts=exact(pub_counts),
    )
    graph = networks.build_knowledge_network(cluster_matrix)
    for cluster_id, count in Counter([*p.assignment.values(), *new_assignments.values()]).items():
        graph.nodes[cluster_id]["venue_count"] = count
    return ClusterProjection(
        cluster_matrix=cluster_matrix,
        new_assignments=new_assignments,
        unassigned=unassigned,
        graph=graph,
    )


def _aggregate(group: np.ndarray, k: int, indptr: np.ndarray, key_ids: np.ndarray, counts: np.ndarray):
    """The rows (indptr, key_ids, counts) of the k groups: group g sums the
    counts of the rows r with group[r] == g (-1: none) key by key, by one
    sort of the (group, key) codes. Exact in any order: integer sums."""
    row_group = np.repeat(group, np.diff(indptr))
    kept = row_group >= 0
    width = int(key_ids.max(initial=0)) + 1
    codes = row_group[kept]
    del row_group
    codes *= width
    codes += key_ids[kept]
    order = np.argsort(codes)
    codes.sort()
    starts = run_starts(codes)
    values = exact(counts, counts.size)[kept]
    del kept
    sums = np.add.reduceat(values[order], starts)
    del values, order
    groups, keys = np.divmod(codes[starts], width)
    return row_offsets(groups, k), keys, exact(sums)


def cluster_domain_composition(
    p: ClusterPartition, domains: dict[str, str]
) -> dict[str, dict[str, int]]:
    """Per-cluster venue counts by domain label; venues absent from the
    domain table count as 'uncategorized'. Supports labeling clusters by
    their dominant domain without any manual step."""
    composition: dict[str, dict[str, int]] = {}
    for venue in sorted(p.assignment):
        cluster = p.assignment[venue]
        domain = domains.get(venue, "uncategorized")
        bucket = composition.setdefault(cluster, {})
        bucket[domain] = bucket.get(domain, 0) + 1
    return composition


PARTITION_HEADER = "venue_key\tcluster_id"
ASSIGNMENT_HEADER = "venue_key\tcluster_id\trule"
COMPOSITION_HEADER = "cluster_id\tdomain\tvenues"
DOMAINS_HEADER = "venue_key\tdomain"


def write_partition(p: ClusterPartition, path) -> None:
    rows = ((venue, p.assignment[venue]) for venue in sorted(p.assignment))
    write_table(path, PARTITION_HEADER, rows, comment=f"q={p.q!r} clusters={p.cluster_count}")


def write_assignment(p: ClusterPartition, projection: ClusterProjection, path) -> None:
    """Each venue with its cluster and the rule that placed it: `clustered` (in the partition), `best-cosine` (adopted by
    projection) or `unassigned` (blank cluster)."""
    adopted = projection.new_assignments
    rows = [(venue, p.assignment[venue], "clustered") for venue in sorted(p.assignment)]
    rows += [(venue, adopted[venue], "best-cosine") for venue in sorted(adopted)]
    rows += [(venue, "", "unassigned") for venue in projection.unassigned]
    write_table(path, ASSIGNMENT_HEADER, rows)


_venue_key = partial(check_name, what="venue key")


def read_partition(path) -> ClusterPartition:
    """The partition at `path`, its header optional and its Q read from a
    `# q=` comment: each venue once, with names `check_name` passes."""
    settings, rows = read_table(path, PARTITION_HEADER, "partition", key=("venue_key",),
                                parse={"venue_key": _venue_key, "cluster_id": _cluster_id, "q": float}, headerless=True)
    return ClusterPartition(assignment=dict(rows), q=settings.get("q", 0.0))


def _cluster_id(cluster: str) -> str:
    if not cluster:
        raise ValueError("empty cluster_id")
    return check_name(cluster, "cluster id")


def read_domains(path) -> dict[str, str]:
    """venue -> domain from the table at `path`, its header optional: each
    venue once, with names `check_name` passes."""
    _, rows = read_table(path, DOMAINS_HEADER, "domains", key=("venue_key",),
                         parse={"venue_key": _venue_key, "domain": partial(check_name, what="domain")}, headerless=True)
    return dict(rows)

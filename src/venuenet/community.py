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
include the surviving cluster, so only those are pushed again. The merge
sequence is the one a full rescan of all pairs per merge would give.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import networks
from .corpus import _UNCARRIED
from .graph import VenueGraph, arc_tails
from .networks import CouplingMatrix


class CommunityError(Exception):
    pass


class IncompleteAssignmentError(CommunityError):
    pass


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
        raise IncompleteAssignmentError(f"assignment misses {len(missing)} nodes, e.g. {missing[0]!r}")
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
    weights 1.0 unless `weighted`, and m, their sum from the left."""
    tails, heads, weights = g.edge_arrays()
    if not weighted:
        weights = np.ones(weights.size)
    return tails, heads, weights, float(np.add.accumulate(weights)[-1]) if weights.size else 0.0


def greedy_modularity_partition(
    g: VenueGraph, weighted: bool = True, trace: list | None = None
) -> ClusterPartition:
    """Agglomerate singleton clusters by best modularity gain.

    The merge candidate is the connected cluster pair with the largest
    dQ = w_between/m - S_i*S_j/(2m^2); ties go to the smallest (sorted)
    pair of cluster ids. Candidates come from a lazily invalidated max-heap
    (see the module docstring). Stops when no merge has dQ > 0 and returns the
    best-Q state seen. When `trace` is given, a snapshot (assignment copy,
    incrementally tracked Q) is appended after every merge.
    """
    if g.directed:
        raise CommunityError("greedy modularity clustering expects an undirected graph")
    nodes = list(g.nodes)
    if not nodes:
        return ClusterPartition(assignment={}, q=0.0)
    tails, heads, weights, m = _edge_weights(g, weighted)
    if m == 0:
        return ClusterPartition(assignment={v: v for v in nodes}, q=0.0)

    # cluster id = smallest member key; singletons to start. A node's degree
    # sum adds its row from the left; `between` holds each edge both ways.
    members: dict[str, list[str]] = {v: [v] for v in nodes}
    indptr, _, row_weights = g.arrays()
    degree = np.zeros(len(nodes))
    np.add.at(degree, arc_tails(indptr), row_weights if weighted else 1.0)
    degree_sum = dict(zip(nodes, degree.tolist()))
    us, vs = [nodes[i] for i in tails.tolist()], [nodes[i] for i in heads.tolist()]  # us[k] < vs[k]
    between: dict[str, dict[str, float]] = {v: {} for v in nodes}
    for u, v, w in zip(us, vs, weights.tolist()):
        between[u][v] = between[v][u] = w

    assignment = {v: v for v in nodes}
    q = modularity(g, assignment, weighted=weighted)
    best_q = q
    best_assignment = dict(assignment)
    two_m_sq = 2 * m * m

    def gain(ci: str, cj: str) -> float:
        return between[ci][cj] / m - degree_sum[ci] * degree_sum[cj] / two_m_sq

    # popping (-dQ, ci, cj) yields the largest dQ, ties to the smallest pair
    heap = list(zip((-(weights / m - degree[tails] * degree[heads] / two_m_sq)).tolist(), us, vs))
    heapq.heapify(heap)

    while heap:
        neg_gain, ci, cj = heapq.heappop(heap)
        if ci not in between or cj not in between[ci] or gain(ci, cj) != -neg_gain:
            continue
        best_gain = -neg_gain
        if best_gain <= 0.0:
            break

        # ci < cj, so the merged cluster keeps id ci
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
        for venue in members[ci]:
            assignment[venue] = ci
        # only pairs that include ci changed their dQ
        for ck in between[ci]:
            a, b = (ci, ck) if ci < ck else (ck, ci)
            heapq.heappush(heap, (-gain(a, b), a, b))

        q += best_gain
        if trace is not None:
            trace.append((dict(assignment), q))
        if q > best_q:
            best_q = q
            best_assignment = dict(assignment)

    return ClusterPartition(assignment=best_assignment, q=modularity(g, best_assignment, weighted=weighted))


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
    aggregates: dict[str, dict[str, int]] = {}
    for venue, cluster in p.assignment.items():
        _add_counts(aggregates.setdefault(cluster, {}), m.vectors.get(venue, {}))

    cluster_ids = sorted(aggregates)
    # Positions 0..k-1 are the clusters in id order, k.. the unclustered
    # venues: a cluster may be named after an unclustered venue.
    loose = [venue for venue in m.venues if venue not in p.assignment]
    k = len(cluster_ids)
    best_cos = [0.0] * len(loose)
    best: list[int | None] = [None] * len(loose)  # each loose venue's cluster position
    vectors = [aggregates[cluster] for cluster in cluster_ids] + [m.vectors[venue] for venue in loose]
    for i, j, cos in zip(*(a.tolist() for a in networks.pair_cosines(vectors))):
        # pairs come in ascending (i, j) order, so a tie keeps the smallest cluster id
        if i < k <= j and cos > best_cos[j - k]:
            best_cos[j - k], best[j - k] = cos, i
    new_assignments = {venue: cluster_ids[i] for venue, i in zip(loose, best) if i is not None}
    unassigned = [venue for venue, i in zip(loose, best) if i is None]

    for venue, cluster in new_assignments.items():
        _add_counts(aggregates[cluster], m.vectors[venue])

    members = {**p.assignment, **new_assignments}
    pub_counts = dict.fromkeys(cluster_ids, 0)
    for venue, cluster in members.items():
        pub_counts[cluster] += m.publication_counts.get(venue, 0)
    cluster_matrix = CouplingMatrix(cluster_ids, {c: aggregates[c] for c in cluster_ids}, pub_counts)
    graph = networks.build_knowledge_network(cluster_matrix)
    for cluster, count in Counter(members.values()).items():
        graph.nodes[cluster]["venue_count"] = count
    return ClusterProjection(
        cluster_matrix=cluster_matrix,
        new_assignments=new_assignments,
        unassigned=unassigned,
        graph=graph,
    )


def _add_counts(into: dict[str, int], vector: dict[str, int]) -> None:
    for key, count in vector.items():
        into[key] = into.get(key, 0) + count


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


def write_partition(p: ClusterPartition, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# q={p.q!r} clusters={p.cluster_count}\n")
        fh.write(PARTITION_HEADER + "\n")
        for venue in sorted(p.assignment):
            fh.write(f"{venue}\t{p.assignment[venue]}\n")


def write_assignment(p: ClusterPartition, projection: ClusterProjection, path) -> None:
    """Each venue with its cluster and the rule that placed it: `clustered` (in the partition), `best-cosine` (adopted by
    projection) or `unassigned` (blank cluster)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("venue_key\tcluster_id\trule\n")
        for venue in sorted(p.assignment):
            fh.write(f"{venue}\t{p.assignment[venue]}\tclustered\n")
        for venue in sorted(projection.new_assignments):
            fh.write(f"{venue}\t{projection.new_assignments[venue]}\tbest-cosine\n")
        for venue in projection.unassigned:
            fh.write(f"{venue}\t\tunassigned\n")


def read_partition(path) -> ClusterPartition:
    """The partition `path` holds. A row whose cluster id the cluster graph's
    artifacts cannot carry raises ValueError naming the id and its line, as
    a malformed row does: such an id holds a character a record id or venue
    key cannot hold (corpus.check_names), or starts with `#`."""
    assignment: dict[str, str] = {}
    q = 0.0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            try:
                if line.startswith("#"):
                    for token in line[1:].split():
                        if token.startswith("q="):
                            q = float(token[2:])
                elif line and line != PARTITION_HEADER:
                    fields = line.split("\t")
                    if len(fields) != 2:
                        raise ValueError(f"expected 2 tab-separated fields, got {len(fields)}")
                    venue, cluster = fields
                    bad = re.search(_UNCARRIED, cluster)
                    if bad:
                        raise ValueError(f"cluster id {cluster!r} holds {bad.group()!r}, which the output artifacts cannot carry")
                    if cluster.startswith("#"):
                        raise ValueError(f"cluster id {cluster!r} starts with '#', which an edge TSV would read as a comment")
                    assignment[venue] = cluster
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return ClusterPartition(assignment=assignment, q=q)

"""Independent brute-force oracles used to validate the optimized code paths.

These deliberately use different algorithms than the library: Floyd-Warshall
distances with direct path counting instead of Brandes, full-matrix alignment
DP and a one-cell-at-a-time banded row instead of the batched diagonal-row
scorer, pairwise modularity sums instead of
the cluster-aggregated form, exhaustive partition search, a full pair
rescan per merge instead of the heap-based greedy modularity loop, Brandes
one source at a time instead of the source-batched kernel, a per-key
dictionary loop instead of the row-wise sparse cosine product, PageRank
one node and one predecessor at a time instead of one array pass per
iteration, the
standard library's encoders instead of the direct JSON, corpus JSONL and
GraphML writers,
per-reference record id lookups instead of the corpus's reference index,
walks of the records instead of the corpus's columns (reference index and
counts, author index, id order and canonical JSONL), the linked corpus
rebuilt a record and a reference string at a time instead of remapping the
reference codes, a
pairwise cosine loop instead of the sparse product for the cluster network
and for adopting unclustered venues, a per-character scan instead of the
title token regex, each venue's subgraph built and measured on its own as a
dict-of-dicts graph instead of the per-family block, neighbour-set
intersections instead of triangle counts for local clustering, and the
dict-of-dicts graph with its edge walks (threshold, modularity, CNM set-up,
clustering and components) instead of the compressed rows, and a search of
each record's id and venue key instead of one search over all ids and one
over the venue table's keys, and per-canopy dicts of prefix tokens with
frozenset intersections instead of the integer sort-join of linkage blocking,
and the DBLP XML read one `iterparse` event at a time instead of as the
finished records of a tree builder fed by hand.
"""

from __future__ import annotations

import functools
import heapq
import io
import json
import math
import operator
import random
import re
import unicodedata
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, Sequence

import numpy as np

from venuenet import arrays, metrics
from venuenet.community import ClusterPartition, modularity
from venuenet.corpus import (
    _DBLP_KINDS,
    _UNCARRIED,
    METADATA_CORPUS,
    AuthorName,
    Corpus,
    MalformedEntryError,
    PublicationRecord,
    ReferenceIndex,
    VenueInfo,
    _Builder,
    _check_year,
    gc_paused,
    normalize_reference_key,
)
from venuenet.exports import _GRAPHML_NS, _attr_type, _format_attr
from venuenet.graph import VenueGraph
from venuenet.linkage import MatchPair, _min_overlap, jaccard_title_similarity, tokenize_title
from venuenet.metrics import MetricVector
from venuenet.networks import CouplingMatrix, ThresholdRule
from venuenet.subgraphs import DEFAULT_CUTS, SubgraphProfile, classify_network_type

INF = float("inf")


def sw_score_matrix(s1: str, s2: str, match: int = 2, mismatch: int = -1, gap: int = -1) -> float:
    """Full-table Smith-Waterman, normalized like the library scorer."""
    if not s1 or not s2:
        return 0.0
    n, m = len(s1), len(s2)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    best = 0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = table[i - 1][j - 1] + (match if s1[i - 1] == s2[j - 1] else mismatch)
            score = max(0, diag, table[i - 1][j] + gap, table[i][j - 1] + gap)
            table[i][j] = score
            if score > best:
                best = score
    return best / (match * min(n, m))


def banded_sw_best_loop(s1: str, s2: str, w: int, match: int = 2, mismatch: int = -1, gap: int = -1) -> int:
    """Best local alignment score over the cells -w <= i - j <= (n1 - n2) + w
    of the (n1 + 1) x (n2 + 1) table, n1 = len(s1) >= n2 = len(s2); cells
    outside the band read as 0. One row updated in place, one cell at a time,
    instead of the library's batched diagonal rows."""
    n2 = len(s2)
    row = [0] * (n2 + 1)
    best = 0
    lo_shift = len(s1) - n2 + w
    for i, a in enumerate(s1, 1):
        lo = i - lo_shift
        if lo < 1:
            lo = 1
        hi = i + w
        if hi > n2:
            hi = n2
        diag = row[lo - 1]
        left = 0
        j = lo
        for b in s2[lo - 1:hi]:
            up = row[j]
            score = diag + match if a == b else diag + mismatch
            diag = up
            up += gap
            if up > score:
                score = up
            left += gap
            if left > score:
                score = left
            if score < 0:
                score = 0
            elif score > best:
                best = score
            row[j] = left = score
            j += 1
    return best


def _distance_matrices(g: VenueGraph, weighted: bool):
    nodes = sorted(g.nodes)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    edge_len = [[INF] * n for _ in range(n)]
    for u in nodes:
        for v, w in neighbors(g, u).items():
            edge_len[idx[u]][idx[v]] = (1.0 / w) if weighted else 1.0
    dist = [row[:] for row in edge_len]
    for i in range(n):
        dist[i][i] = 0.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return nodes, edge_len, dist


def betweenness_oracle(g: VenueGraph, weighted: bool = False, normalized: bool = False) -> dict[str, float]:
    nodes, edge_len, dist = _distance_matrices(g, weighted)
    n = len(nodes)

    # sigma[s][t]: number of shortest s->t paths, built in distance order
    sigma = [[0] * n for _ in range(n)]
    for s in range(n):
        sigma[s][s] = 1
        order = sorted(range(n), key=lambda v: (dist[s][v], v))
        for w in order:
            if w == s or dist[s][w] == INF:
                continue
            count = 0
            for u in range(n):
                if edge_len[u][w] != INF and dist[s][u] + edge_len[u][w] == dist[s][w]:
                    count += sigma[s][u]
            sigma[s][w] = count

    result: dict[str, float] = {}
    for vi, v in enumerate(nodes):
        acc = 0.0
        for s in range(n):
            if s == vi or sigma[s][vi] == 0:
                continue
            for t in range(n):
                if t == vi or t == s or sigma[s][t] == 0:
                    continue
                if dist[s][vi] + dist[vi][t] == dist[s][t]:
                    acc += sigma[s][vi] * sigma[vi][t] / sigma[s][t]
        result[v] = acc

    if not g.directed:
        result = {v: x / 2.0 for v, x in result.items()}
    if normalized:
        pairs = (n - 1) * (n - 2)
        if not g.directed:
            pairs /= 2
        scale = 1.0 / pairs if pairs > 0 else 0.0
        result = {v: x * scale for v, x in result.items()}
    return result


def brandes_unweighted_loop(adj: list[list[int]]) -> list[float]:
    """Brandes' accumulation one source at a time over unit-length edges:
    the scalar reference the library's source-batched kernel must equal bit
    for bit (same float operations in the same order)."""
    n = len(adj)
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


def pagerank_loop(g: VenueGraph, d: float = 0.85, tol: float = 1e-8, max_iter: int = 200) -> MetricVector:
    """PageRank one node and one predecessor at a time: the scalar reference
    the library's array iteration must equal bit for bit (values, residual,
    iterations and convergence)."""
    nodes = sorted(g.nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    out_deg = [len(neighbors(g, v)) for v in nodes]
    preds: list[list[int]] = [[] for _ in range(n)]
    for u in nodes:
        ui = index[u]
        for v in neighbors(g, u):
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


def density_oracle(g: VenueGraph) -> float:
    nodes = sorted(g.nodes)
    n = len(nodes)
    if n <= 1:
        return 0.0
    count = 0
    for u in nodes:
        for v in nodes:
            if u != v and v in neighbors(g, u):
                count += 1
    return count / (n * (n - 1))  # undirected edges appear twice, matching 2|E|


def clustering_oracle(g: VenueGraph) -> dict[str, float]:
    und = undirected_view(g)
    nodes = sorted(und.nodes)
    out = {}
    for v in nodes:
        nbrs = sorted(neighbors(und, v))
        k = len(nbrs)
        if k < 2:
            out[v] = 0.0
            continue
        closed = 0
        for a in range(k):
            for b in range(a + 1, k):
                if nbrs[b] in neighbors(und, nbrs[a]):
                    closed += 1
        out[v] = closed / (k * (k - 1) / 2)
    return out


def neighbor_sets(g: VenueGraph) -> dict[str, set[str]]:
    """Each node's neighbours with edge direction ignored, in node order."""
    sets = {v: set(neighbors(g, v)) for v in g.nodes}
    if g.directed:
        for u in g.nodes:
            for v in neighbors(g, u):
                sets[v].add(u)
    return sets


def local_clustering_by_sets(g: VenueGraph) -> dict[str, float]:
    """Local clustering in node order from neighbour-set intersections: a
    node's links are the sizes of its set's intersections with its
    neighbours' sets, over k * (k - 1), the same int / int division as the
    triangle counts of metrics.local_clustering."""
    nbr_sets = neighbor_sets(g)
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


def average_clustering_oracle(g: VenueGraph) -> float:
    if g.node_count() == 0:
        return 0.0
    values = clustering_oracle(g)
    return sum(values.values()) / len(values)


def components_oracle(g: VenueGraph) -> list[set[str]]:
    nodes = sorted(g.nodes)
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v, _ in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[str, set[str]] = {}
    for v in nodes:
        groups.setdefault(find(v), set()).add(v)
    return sorted(groups.values(), key=lambda c: (-len(c), min(c)))


def lcc_fraction_oracle(g: VenueGraph) -> float:
    comps = components_oracle(g)
    return len(comps[0]) / g.node_count()


def modularity_pairsum_oracle(g: VenueGraph, assignment: dict[str, str], weighted: bool = True) -> float:
    """Q as the raw double sum over node pairs, (1/2m) * sum_ij (A_ij - k_i k_j / 2m)."""
    nodes = sorted(g.nodes)
    weight = {}
    for u, v, w in g.edges():
        w = w if weighted else 1.0
        weight[(u, v)] = weight.get((u, v), 0.0) + w
        weight[(v, u)] = weight.get((v, u), 0.0) + w
    two_m = sum(weight.values())
    if two_m == 0:
        return 0.0
    k = {v: 0.0 for v in nodes}
    for (u, _), w in weight.items():
        k[u] += w
    q = 0.0
    for u in nodes:
        for v in nodes:
            if assignment[u] != assignment[v]:
                continue
            a_uv = weight.get((u, v), 0.0)
            q += a_uv - k[u] * k[v] / two_m
    return q / two_m


def iter_partitions(items: list[str]):
    """All set partitions of `items` (Bell-number many; keep len(items) small)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in iter_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def best_modularity_exhaustive(g: VenueGraph, weighted: bool = True) -> float:
    nodes = sorted(g.nodes)
    best = -1.0
    for partition in iter_partitions(nodes):
        assignment = {}
        for ci, block in enumerate(partition):
            for v in block:
                assignment[v] = str(ci)
        q = modularity_pairsum_oracle(g, assignment, weighted=weighted)
        if q > best:
            best = q
    return best


DYADIC_WEIGHTS = (0.25, 0.5, 1.0, 2.0, 4.0)


def random_test_graph(
    rng: random.Random,
    max_nodes: int = 12,
    directed: bool | None = None,
    weighted: bool | None = None,
) -> tuple[VenueGraph, bool]:
    """Seeded random graph with dyadic weights so path sums are float-exact.

    Returns (graph, weighted_flag).
    """
    n = rng.randint(2, max_nodes)
    if directed is None:
        directed = rng.random() < 0.5
    if weighted is None:
        weighted = rng.random() < 0.5
    g = DictVenueGraph(directed=directed)
    nodes = [f"v{i:02d}" for i in range(n)]
    for v in nodes:
        g.add_node(v)
    p = rng.uniform(0.15, 0.6)
    for i in range(n):
        for j in range(n):
            if i == j or (not directed and j <= i):
                continue
            if rng.random() < p:
                w = rng.choice(DYADIC_WEIGHTS) if weighted else 1.0
                g.add_edge(nodes[i], nodes[j], w)
    return g.venue_graph(), weighted


def greedy_modularity_scan(
    g: VenueGraph, weighted: bool = True, trace: list | None = None
) -> ClusterPartition:
    """Greedy modularity agglomeration by a full rescan of every connected
    cluster pair on each merge: the reference for the library's heap-based
    merge loop, which must give the same trace and partition.

    The merge candidate is the connected cluster pair with the largest
    dQ = w_between/m - S_i*S_j/(2m^2); ties go to the smallest (sorted)
    pair of cluster ids. Stops when no merge has dQ > 0 and returns the
    best-Q state seen. When `trace` is given, a snapshot (assignment copy,
    incrementally tracked Q) is appended after every merge.
    """
    if g.directed:
        raise ValueError("greedy modularity clustering expects an undirected graph")
    nodes = sorted(g.nodes)
    if not nodes:
        return ClusterPartition(assignment={}, q=0.0)

    def wt(w: float) -> float:
        return w if weighted else 1.0

    m = sum(wt(w) for _, _, w in g.edges())
    if m == 0:
        return ClusterPartition(assignment={v: v for v in nodes}, q=0.0)

    # cluster id = smallest member key; singletons to start
    members: dict[str, list[str]] = {v: [v] for v in nodes}
    degree_sum: dict[str, float] = {v: sum(wt(w) for w in neighbors(g, v).values()) for v in nodes}
    intra: dict[str, float] = {v: 0.0 for v in nodes}
    between: dict[str, dict[str, float]] = {v: {} for v in nodes}
    for u, v, w in g.edges():
        between[u][v] = between[u].get(v, 0.0) + wt(w)
        between[v][u] = between[v].get(u, 0.0) + wt(w)

    assignment = {v: v for v in nodes}
    q = modularity(g, assignment, weighted=weighted)
    best_q = q
    best_assignment = dict(assignment)
    two_m_sq = 2 * m * m

    while True:
        best_gain = 0.0
        best_pair: tuple[str, str] | None = None
        for ci in sorted(between):
            row = between[ci]
            si = degree_sum[ci]
            for cj in row:
                if cj <= ci:
                    continue
                gain = row[cj] / m - si * degree_sum[cj] / two_m_sq
                if gain > best_gain or (
                    gain == best_gain
                    and best_pair is not None
                    and gain > 0.0
                    and (ci, cj) < best_pair
                ):
                    best_gain = gain
                    best_pair = (ci, cj)
        if best_pair is None or best_gain <= 0.0:
            break

        ci, cj = best_pair  # ci < cj, so the merged cluster keeps id ci
        members[ci].extend(members[cj])
        intra[ci] += intra[cj] + between[ci][cj]
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
        del intra[cj]
        del degree_sum[cj]
        for venue in members[ci]:
            assignment[venue] = ci

        q += best_gain
        if trace is not None:
            trace.append((dict(assignment), q))
        if q > best_q:
            best_q = q
            best_assignment = dict(assignment)

    return ClusterPartition(assignment=best_assignment, q=modularity(g, best_assignment, weighted=weighted))


def knowledge_network_loop(m: CouplingMatrix) -> VenueGraph:
    """The knowledge network by an inverted index over cited keys and a
    dictionary of pair dots, one key at a time: the reference for the
    library's sparse product, which must give the same graph (nodes,
    attributes, neighbour order and every weight bit)."""
    g = DictVenueGraph(directed=False)
    for venue, count in zip(m.venues, m.publication_counts.tolist()):
        g.add_node(venue, publication_count=count)

    by_key: dict[str, list[str]] = {}
    for venue in m.venues:
        for key in m.vectors[venue]:
            by_key.setdefault(key, []).append(venue)

    dots: dict[tuple[str, str], int] = {}
    for key, sharing in by_key.items():
        if len(sharing) < 2:
            continue
        for x in range(len(sharing)):
            vi = sharing[x]
            ci = m.vectors[vi][key]
            for y in range(x + 1, len(sharing)):
                vj = sharing[y]
                pair = (vi, vj) if vi <= vj else (vj, vi)
                dots[pair] = dots.get(pair, 0) + ci * m.vectors[vj][key]

    norms = {venue: sum(c * c for c in m.vectors[venue].values()) for venue in m.venues}
    for (vi, vj), dot in sorted(dots.items()):
        weight = dot / math.sqrt(norms[vi] * norms[vj])
        if weight > 0:
            g.add_edge(vi, vj, weight)
    return g.venue_graph()


def coupling_json_dumps(m: CouplingMatrix) -> bytes:
    """The bytes `CouplingMatrix.save` writes, through json's own
    (pure-Python, since indented) encoder."""
    obj = {
        "venues": m.venues,
        "vectors": {v: dict(sorted(m.vectors[v].items())) for v in sorted(m.vectors)},
        "publication_counts": dict(sorted(zip(m.venues, m.publication_counts.tolist()))),
    }
    return json.dumps(obj, sort_keys=True, indent=0).encode("utf-8")


def graphml_et(g: VenueGraph) -> bytes:
    """GraphML of `g` built as an ElementTree, indented by `ET.indent` and
    written by ElementTree: the bytes the library's direct writer must give
    wherever all text is XML 1.0 and no data text holds a CR."""
    root = ET.Element("graphml", xmlns=_GRAPHML_NS)
    attr_values: dict[str, list] = {}
    for attrs in g.nodes.values():
        for name, value in attrs.items():
            attr_values.setdefault(name, []).append(value)
    attr_types = {name: _attr_type(values) for name, values in sorted(attr_values.items())}

    key_ids: dict[str, str] = {}
    for i, (name, attr_type) in enumerate(sorted(attr_types.items())):
        key_id = f"d{i}"
        key_ids[name] = key_id
        ET.SubElement(
            root, "key", id=key_id, attrib={"for": "node", "attr.name": name, "attr.type": attr_type}
        )
    weight_key = f"d{len(key_ids)}"
    ET.SubElement(
        root,
        "key",
        id=weight_key,
        attrib={"for": "edge", "attr.name": "weight", "attr.type": "double"},
    )

    graph_el = ET.SubElement(
        root, "graph", edgedefault="directed" if g.directed else "undirected"
    )
    for node in sorted(g.nodes):
        node_el = ET.SubElement(graph_el, "node", id=node)
        for name in sorted(g.nodes[node]):
            data = ET.SubElement(node_el, "data", key=key_ids[name])
            data.text = _format_attr(g.nodes[node][name], attr_types[name])
    for u, v, w in sorted(g.edges()):
        edge_el = ET.SubElement(graph_el, "edge", source=u, target=v)
        data = ET.SubElement(edge_el, "data", key=weight_key)
        data.text = repr(w)

    ET.indent(root)
    buf = io.BytesIO()
    ET.ElementTree(root).write(buf, encoding="utf-8", xml_declaration=True)
    return buf.getvalue()


def record_rows(c: Corpus) -> dict[str, int]:
    """Each record id's position in `c.records`."""
    return {r.record_id: i for i, r in enumerate(c.records)}


def reference_index_walk(c: Corpus) -> dict[str, list]:
    """The reference index by one dictionary lookup per reference: a
    target's row when it names a record, else -1 - k for the k-th distinct
    normalized target met in record order."""
    rows = record_rows(c)
    venues = sorted({r.venue_key for r in c.records if r.venue_key is not None})
    external: dict[str, int] = {}
    targets, offsets = [], [0]
    for rec in c.records:
        for target in rec.references:
            if target in rows:
                targets.append(rows[target])
            else:
                targets.append(-1 - external.setdefault(normalize_reference_key(target), len(external)))
        offsets.append(len(targets))
    return {
        "venues": venues,
        "record_venue": [venues.index(r.venue_key) if r.venue_key is not None else -1 for r in c.records],
        "offsets": offsets,
        "targets": targets,
        "external_keys": list(external),
    }


def reference_counts_walk(c: Corpus) -> tuple[int, int]:
    """The number of references and of distinct targets, a record at a time."""
    return sum(len(r.references) for r in c.records), len({t for r in c.records for t in r.references})


def author_index_walk(c: Corpus) -> tuple[list[list[int]], list[str]]:
    """Each record's authors, one at a time, as positions in the sorted list
    of the corpus's distinct full names, and that list."""
    names = sorted({author.full_name for rec in c.records for author in rec.authors})
    position = {name: i for i, name in enumerate(names)}
    return [[position[author.full_name] for author in rec.authors] for rec in c.records], names


def id_order_walk(c: Corpus) -> list[int]:
    """The rows of `c.records`, sorted by record id."""
    return sorted(range(len(c.records)), key=lambda row: c.records[row].record_id)


def jsonl_lines_walk(c: Corpus) -> Iterator[str]:
    """The canonical JSONL lines, formatted a record at a time."""
    enc = encode_basestring_ascii
    yield f'{{"source": {enc(c.source)}}}\n'
    for key in sorted(c.venue_table):
        info = c.venue_table[key]
        yield f'{{"kind": {enc(info.kind)}, "name": {enc(info.name)}, "venue_key": {enc(key)}}}\n'
    for rec in c.records:
        authors = ", ".join([enc(a.full_name) for a in rec.authors])
        refs = ", ".join(map(enc, rec.references))
        venue = "" if rec.venue_key is None else f', "venue": {enc(rec.venue_key)}'
        year = "" if rec.year is None else f', "year": {rec.year}'
        yield (
            f'{{"authors": [{authors}], "id": {enc(rec.record_id)}, "refs": [{refs}], '
            f'"title": {enc(rec.title)}{venue}{year}}}\n'
        )


def linked_walk(meta: Corpus, matches: list[MatchPair], cite: Corpus) -> Corpus:
    """The linked corpus a record and a reference at a time: each matched
    metadata record takes its citation partner's references, and every
    target, carried or a record's own, that is a matched citation id becomes
    its metadata id, the smallest when several match it."""
    right_to_left = {}
    for pair in sorted(matches, key=lambda pair: pair.left, reverse=True):
        right_to_left[pair.right] = pair.left  # the smallest left id is set last
    cite_references = {rec.record_id: rec.references for rec in cite.records}
    carried = {pair.left: cite_references[pair.right] for pair in matches}
    records = [
        PublicationRecord(rec.record_id, rec.title, rec.authors, rec.venue_key, rec.year,
                          tuple(right_to_left.get(t, t) for t in carried.get(rec.record_id, rec.references)))
        for rec in meta.records
    ]
    return Corpus(records, meta.venue_table, meta.source)


def cluster_sets(p: ClusterPartition) -> set[frozenset[str]]:
    """The partition's clusters as sets of venues, ids ignored."""
    grouped: dict[str, set[str]] = {}
    for venue, cluster in p.assignment.items():
        grouped.setdefault(cluster, set()).add(venue)
    return set(map(frozenset, grouped.values()))


def record_ids(c: Corpus) -> set[str]:
    return {rec.record_id for rec in c.records}


def coupling_matrix_loop(c: Corpus) -> CouplingMatrix:
    """Coupling counts with one record id lookup per reference: a target
    that is a record id is its own key, any other its normalized form."""
    ids = record_ids(c)
    vectors: dict[str, dict[str, int]] = {}
    publication_counts: dict[str, int] = {}
    for rec in c.records:
        venue = rec.venue_key
        if venue is None:
            continue
        publication_counts[venue] = publication_counts.get(venue, 0) + 1
        if not rec.references:
            continue
        vec = vectors.setdefault(venue, {})
        for target in rec.references:
            key = target if target in ids else normalize_reference_key(target)
            vec[key] = vec.get(key, 0) + 1
    venues = sorted(vectors)
    return CouplingMatrix.from_vectors(
        venues=venues,
        vectors={v: vectors[v] for v in venues},
        publication_counts={v: publication_counts[v] for v in venues},
    )


def citation_network_loop(c: Corpus) -> VenueGraph:
    """F with one record id lookup per reference, built node by node and
    edge by edge in sorted order."""
    ids = record_ids(c)
    edge_counts: dict[tuple[str, str], int] = {}
    self_citations: dict[str, int] = {}
    publication_counts: dict[str, int] = {}
    for rec in c.records:
        src_venue = rec.venue_key
        if src_venue is None:
            continue
        publication_counts[src_venue] = publication_counts.get(src_venue, 0) + 1
        for target in rec.references:
            if target not in ids:
                continue
            dst_venue = c.record(target).venue_key
            if dst_venue is None:
                continue
            if dst_venue == src_venue:
                self_citations[src_venue] = self_citations.get(src_venue, 0) + 1
            else:
                pair = (src_venue, dst_venue)
                edge_counts[pair] = edge_counts.get(pair, 0) + 1

    g = DictVenueGraph(directed=True)
    for venue in sorted({v for pair in edge_counts for v in pair} | set(self_citations)):
        g.add_node(
            venue,
            publication_count=publication_counts.get(venue, 0),
            self_citations=self_citations.get(venue, 0),
        )
    for (src, dst), count in sorted(edge_counts.items()):
        g.add_edge(src, dst, float(count))
    return g.venue_graph()


def publication_citation_graph_loop(c: Corpus) -> dict[str, list[str]]:
    """Each record's in-corpus references other than itself, in order."""
    ids = record_ids(c)
    return {
        rec.record_id: [t for t in rec.references if t in ids and t != rec.record_id]
        for rec in c.records
    }


def cosine_of_vectors(a: dict[str, int], b: dict[str, int]) -> float:
    """Cosine of two count vectors: an exact integer dot over the smaller
    vector's keys, divided by the square root of the exact norm product."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = 0
    for key, count in a.items():
        other = b.get(key)
        if other is not None:
            dot += count * other
    if dot == 0:
        return 0.0
    norm_a = sum(c * c for c in a.values())
    norm_b = sum(c * c for c in b.values())
    return dot / math.sqrt(norm_a * norm_b)


def undirected_view(g: VenueGraph) -> VenueGraph:
    """Symmetrized copy of `g`: antiparallel weights are summed; an
    undirected graph is copied as it is."""
    und = DictVenueGraph(directed=False)
    for key, attrs in g.nodes.items():
        und.add_node(key, **attrs)
    for u, v, w in g.edges():
        current = neighbors(und, u).get(v, 0.0) if g.directed else 0.0
        und.add_edge(u, v, current + w)
    return und.venue_graph()


def adopt_by_cosine_loop(m: CouplingMatrix, p: ClusterPartition) -> tuple[dict[str, str], list[str]]:
    """The venues of `m` missing from `p`, each with the cluster whose
    aggregate vector it is most cosine-similar to (ties to the smallest
    cluster id), by one `cosine_of_vectors` call per venue and cluster; and
    the venues with no positive cosine to any cluster, in matrix order."""
    aggregates: dict[str, dict[str, int]] = {}
    for venue, cluster in p.assignment.items():
        into = aggregates.setdefault(cluster, {})
        for key, count in m.vectors.get(venue, {}).items():
            into[key] = into.get(key, 0) + count
    new_assignments: dict[str, str] = {}
    unassigned: list[str] = []
    for venue in m.venues:
        if venue in p.assignment:
            continue
        best_cluster, best_cos = None, 0.0
        for cluster in sorted(aggregates):
            cos = cosine_of_vectors(m.vectors[venue], aggregates[cluster])
            if cos > best_cos:
                best_cluster, best_cos = cluster, cos
        if best_cluster is None:
            unassigned.append(venue)
        else:
            new_assignments[venue] = best_cluster
    return new_assignments, unassigned


def cluster_network_loop(
    cluster_matrix: CouplingMatrix, venue_counts: dict[str, int]
) -> VenueGraph:
    """The cluster network by one `cosine_of_vectors` call per cluster
    pair, in sorted pair order."""
    clusters = cluster_matrix.venues
    graph = DictVenueGraph(directed=False)
    for cluster, publications in zip(clusters, cluster_matrix.publication_counts.tolist()):
        graph.add_node(cluster, venue_count=venue_counts.get(cluster, 0), publication_count=publications)
    for x in range(len(clusters)):
        for y in range(x + 1, len(clusters)):
            weight = cosine_of_vectors(cluster_matrix.vectors[clusters[x]], cluster_matrix.vectors[clusters[y]])
            if weight > 0:
                graph.add_edge(clusters[x], clusters[y], weight)
    return graph.venue_graph()


def tokenize_title_loop(title: str) -> frozenset[str]:
    """Title tokens by testing every character with `str.isalnum`."""
    cleaned = "".join(c if c.isalnum() else " " for c in title.lower())
    return frozenset(cleaned.split())


def last_name_key_nfkd(full_name: str) -> str:
    """`corpus.last_name_key` without its ASCII fast path: every last token
    is NFKD-folded and stripped of combining and non-ASCII characters."""
    stripped = full_name.strip().lower()
    if not stripped:
        return ""
    token = stripped.split()[-1]
    folded = unicodedata.normalize("NFKD", token)
    ascii_token = "".join(c for c in folded if not unicodedata.combining(c) and ord(c) < 128)
    return ascii_token if ascii_token else token


@dataclass(slots=True)
class Canopy:
    key: str
    left_members: list[str] = field(default_factory=list)
    right_members: list[str] = field(default_factory=list)


def canopy_partition(a: Corpus, b: Corpus) -> list[Canopy]:
    """Overlapping blocks keyed by author last name.

    A record joins one canopy per distinct author last-name key it carries.
    Only canopies populated from both corpora are returned, sorted by key.
    """
    buckets: dict[str, Canopy] = {}
    for corpus, side in ((a, "left"), (b, "right")):
        for rec in corpus.records:
            for key in sorted({author.last_name_key for author in rec.authors}):
                canopy = buckets.get(key)
                if canopy is None:
                    canopy = buckets[key] = Canopy(key=key)
                getattr(canopy, f"{side}_members").append(rec.record_id)
    return [
        buckets[key]
        for key in sorted(buckets)
        if buckets[key].left_members and buckets[key].right_members
    ]


def prefix_candidates_loop(
    canopies: list[Canopy],
    tokens_a: dict[str, frozenset[str]],
    tokens_b: dict[str, frozenset[str]],
    t: float,
) -> set[tuple[str, str]]:
    """Pairs sharing a canopy that may have Jaccard >= t > 0, by prefix and
    length filtering: inside each canopy the right records are indexed by
    their prefix tokens (rare first, ties by the token; an empty title's
    prefix is the non-token ""), and each left record probes its own."""
    freq = Counter(tok for side in (tokens_a, tokens_b) for toks in side.values() for tok in toks)
    rank = {tok: i for i, tok in enumerate(sorted(freq, key=lambda tok: (freq[tok], tok)))}

    def prefixes(tokens: dict[str, frozenset[str]]) -> dict[str, tuple[int, int, list[str]]]:
        out = {}
        for rid, toks in tokens.items():
            need = _min_overlap(t, len(toks))
            prefix = sorted(toks, key=rank.__getitem__)[: max(0, len(toks) - need + 1)] if toks else [""]
            out[rid] = (len(toks), need, prefix)
        return out

    left_info, right_info = prefixes(tokens_a), prefixes(tokens_b)
    pairs: set[tuple[str, str]] = set()
    for canopy in canopies:
        index: dict[str, list[str]] = defaultdict(list)
        for right in canopy.right_members:
            for tok in right_info[right][2]:
                index[tok].append(right)
        for left in canopy.left_members:
            size, need, prefix = left_info[left]
            for tok in prefix:
                for right in index.get(tok, ()):
                    right_size, right_need, _ = right_info[right]
                    if need <= right_size and right_need <= size:
                        pairs.add((left, right))
    return pairs


def linkage_candidates_loop(a: Corpus, b: Corpus, t: float) -> dict[tuple[str, str], float]:
    """Jaccard of each (left id, right id) candidate pair, in pair order: the
    prefix-filtered canopy pairs for t > 0, every canopy pair otherwise."""
    tokens_a = {r.record_id: tokenize_title(r.title) for r in a.records}
    tokens_b = {r.record_id: tokenize_title(r.title) for r in b.records}
    canopies = canopy_partition(a, b)
    if t > 0:
        pairs = prefix_candidates_loop(canopies, tokens_a, tokens_b, t)
    else:
        pairs = {(left, right) for c in canopies for left in c.left_members for right in c.right_members}
    return {pair: jaccard_title_similarity(tokens_a[pair[0]], tokens_b[pair[1]]) for pair in sorted(pairs)}


def random_reference_corpus(seed: int, records: int = 60) -> Corpus:
    """Seeded corpus whose references mix record ids (self-citations and
    repeats included), upper-cased record ids (external keys that normalize
    to a record id) and raw strings in several spellings. Some records have
    no venue, and one venue is missing from the venue table."""
    rng = random.Random(seed)
    ids = [f"p{i}" for i in range(records)]
    venues = [f"v{i}" for i in range(rng.randint(1, 6))]
    raw = ["classic book", "Classic  Book", " other work", "OTHER WORK", "p1 x"]
    recs = []
    for rid in ids:
        refs = []
        for _ in range(rng.randint(0, 6)):
            r = rng.random()
            if r < 0.5:
                refs.append(rng.choice(ids))
            elif r < 0.7:
                refs.append(rng.choice(ids).upper())
            else:
                refs.append(rng.choice(raw))
        recs.append(
            PublicationRecord(
                record_id=rid,
                title="T",
                authors=(),
                venue_key=rng.choice(venues + [None]),
                year=None,
                references=tuple(refs),
            )
        )
    return Corpus(records=recs, venue_table={v: VenueInfo(name=v) for v in venues[1:]})


def serialize_corpus_dumps(corpus: Corpus) -> bytes:
    """Canonical JSONL through `json.dumps(..., sort_keys=True)` per line:
    the bytes the library's direct corpus writer must give."""
    out = io.StringIO()
    out.write(json.dumps({"source": corpus.source}, sort_keys=True) + "\n")
    for key in sorted(corpus.venue_table):
        info = corpus.venue_table[key]
        out.write(json.dumps({"venue_key": key, "name": info.name, "kind": info.kind}, sort_keys=True) + "\n")
    for rec in corpus.records:
        obj: dict = {
            "id": rec.record_id,
            "title": rec.title,
            "authors": [a.full_name for a in rec.authors],
            "refs": list(rec.references),
        }
        if rec.venue_key is not None:
            obj["venue"] = rec.venue_key
        if rec.year is not None:
            obj["year"] = rec.year
        out.write(json.dumps(obj, sort_keys=True) + "\n")
    return out.getvalue().encode("utf-8")


@gc_paused
def parse_dblp_xml_events(stream, source: str = METADATA_CORPUS) -> Corpus:
    """The DBLP XML subset read one `iterparse` event at a time: each record
    as its end event comes, the root cleared on every end event (a root that
    is a record kept whole), and a syntax error raised once the events
    before it are read. The corpus or error `corpus.parse_dblp_xml` must
    give, byte for byte."""
    build = _Builder({})
    index = 0

    try:
        events = ET.iterparse(stream, events=("start", "end"))
        _, root = next(events)
        for event, elem in events:
            if event == "end" and root.tag not in _DBLP_KINDS:
                root.clear()
            if event == "start" or elem.tag not in _DBLP_KINDS:
                continue
            index += 1
            key = elem.get("key")
            position = f"element {index} ({elem.tag})"
            if not key:
                raise MalformedEntryError(position, "missing key attribute")
            position = f"element {index} (key={key})"
            build.row(key, position)

            title = elem.find("title")
            title = "".join("".join(title.itertext() if title is not None else ()).split("\n")).strip()
            if not title:
                raise MalformedEntryError(position, "missing title")
            year_text = elem.findtext("year")
            year = None
            if year_text:
                try:
                    year = int(year_text)
                except ValueError as exc:
                    raise MalformedEntryError(position, f"non-numeric year {year_text!r}") from exc
                year = _check_year(year, position)

            parts = key.split("/")
            venue_key = venue_info = None
            if len(parts) >= 3:
                venue_key = "/".join(parts[:2])
                venue_name = elem.findtext("journal") or elem.findtext("booktitle")
                venue_info = VenueInfo(name=venue_name or venue_key, kind=_DBLP_KINDS[elem.tag])

            cites = (c.text.strip() for c in elem.findall("cite") if c.text)
            refs = [text for text in cites if text and text != "..."]
            build.add(position, title, (a.text or "" for a in elem.findall("author")), venue_key, year, refs, venue_info)
    except ET.ParseError as exc:
        raise MalformedEntryError(f"line {exc.position[0]}", f"XML syntax error: {exc.msg if hasattr(exc, 'msg') else exc}") from exc
    except LookupError as exc:
        raise MalformedEntryError("line 1", str(exc)) from exc

    return build.fill(Corpus.__new__(Corpus), source)


# Characters that JSON must escape or that are easy to mishandle: quotes,
# backslashes, control characters, non-ASCII (BMP and astral) and lone
# surrogates. Only low ones: a high surrogate written before a low one would
# read back as the astral character the pair encodes.
AWKWARD_CHARS = '"\\/\x00\x01\x1f\x7f\t\n\r\x08\x0c \xe9\xdf\u2028\u4e2d\U0001f600\udc80\udfffab'


def random_jsonl_corpus(seed: int, records: int = 40) -> Corpus:
    """Seeded corpus that should read back equal from the file `save_corpus`
    writes: every string field mixes AWKWARD_CHARS, some records have no
    venue or no year, and every record's venue is in the venue table."""
    rng = random.Random(seed)

    def text(min_size: int = 0) -> str:
        return "".join(rng.choice(AWKWARD_CHARS) for _ in range(rng.randint(min_size, 8)))

    source = rng.choice(["metadata-corpus", "citation-corpus"])
    venues = {
        "v" + text(): VenueInfo(name=text(), kind=rng.choice(["journal", "conference", "unknown"]))
        for _ in range(rng.randint(0, 5))
    }
    ids = list(dict.fromkeys("p" + text() for _ in range(records)))
    authors = [AuthorName("n" + text()) for _ in range(10)]
    recs = [
        PublicationRecord(
            record_id=rid,
            title=text(),
            authors=tuple(rng.choice(authors) for _ in range(rng.randint(0, 4))),
            venue_key=rng.choice([*venues, None]),
            year=rng.choice([None, 1900, 1999, 2100]),
            references=tuple(rng.choice([rng.choice(ids), text(1)]) for _ in range(rng.randint(0, 5))),
        )
        for rid in ids
    ]
    return Corpus(records=recs, venue_table=venues, source=source)


def check_names_per_record(corpus: Corpus) -> None:
    """corpus.check_names, one record at a time: the first record whose id
    or venue key holds an uncarried character, or whose venue key starts
    with `#`, raises."""
    search = re.compile(_UNCARRIED).search
    for position, rec in enumerate(corpus.records, start=1):
        bad = search(rec.record_id) or search(rec.venue_key or "")
        if bad:
            what = "record id" if bad.string == rec.record_id else "venue key"
            raise MalformedEntryError(
                f"record {position} (id {rec.record_id!r})",
                f"{what} {bad.string!r} holds {bad.group()!r}, which the output artifacts cannot carry",
            )
        if (rec.venue_key or "").startswith("#"):
            raise MalformedEntryError(
                f"record {position} (id {rec.record_id!r})",
                f"venue key {rec.venue_key!r} starts with '#', which an edge TSV would read as a comment",
            )


# -- per-venue subgraphs ------------------------------------------------------


def references_of(index: ReferenceIndex, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The targets of `rows` in the reference index, row after row, and the row of each."""
    lengths = index.offsets[rows + 1] - index.offsets[rows]
    starts = np.repeat(index.offsets[rows] - np.cumsum(lengths) + lengths, lengths)
    return index.targets[starts + np.arange(starts.size)], np.repeat(rows, lengths)


def records_by_venue(c: Corpus) -> dict[str, list[PublicationRecord]]:
    """Each venue's records, in corpus order."""
    index: dict[str, list[PublicationRecord]] = {}
    for rec in c.records:
        if rec.venue_key is not None:
            index.setdefault(rec.venue_key, []).append(rec)
    return index


class UnknownVenueError(Exception):
    pass


class EmptySubgraphError(Exception):
    pass


@dataclass
class CoauthorshipSubgraph:
    venue_key: str
    graph: DictVenueGraph  # undirected; author full names as nodes


@dataclass
class CitationSubgraph:
    venue_key: str
    graph: DictVenueGraph  # directed; record ids of cited publications as nodes


def extract_coauthorship_subgraph(
    c: Corpus, venue_key: str, records: Sequence | None = None
) -> CoauthorshipSubgraph:
    """One venue's co-authorship graph as dicts: nodes and neighbours in
    first-seen order, as add_edge would insert them, a pair's weight counting
    the papers it shares. `records` optionally gives the venue's papers;
    without them a venue missing from the venue table raises."""
    if records is None:
        if venue_key not in c.venue_table:
            raise UnknownVenueError(f"unknown venue {venue_key!r}")
        records = [r for r in c.records if r.venue_key == venue_key]
    adj: dict[str, dict[str, float]] = {}
    for rec in records:
        names = sorted({a.full_name for a in rec.authors})
        for name in names:
            if name not in adj:
                adj[name] = {}
        for x, u in enumerate(names):
            nbrs = adj[u]
            for v in names[x + 1 :]:
                weight = nbrs.get(v)
                weight = 1.0 if weight is None else weight + 1.0
                nbrs[v] = weight
                adj[v][u] = weight
    return CoauthorshipSubgraph(venue_key=venue_key, graph=DictVenueGraph.from_adjacency(adj, directed=False))


def extract_citation_subgraph(c: Corpus, venue_key: str, records: Sequence | None = None) -> CitationSubgraph:
    """One venue's citation graph as dicts: the venue's reference targets
    that resolve to corpus records, in name order, and the corpus-wide
    citations among them, each node's in the order it cites them. `records`
    is as for extract_coauthorship_subgraph."""
    if records is None:
        if venue_key not in c.venue_table:
            raise UnknownVenueError(f"unknown venue {venue_key!r}")
        records = [r for r in c.records if r.venue_key == venue_key]
    index = c.reference_index()
    rows = record_rows(c)
    targets, _ = references_of(index, np.array([rows[r.record_id] for r in records], dtype=np.int64))
    names = {row: c.records[row].record_id for row in targets[targets >= 0].tolist()}
    nodes = np.array(sorted(names, key=names.__getitem__), dtype=np.int64)
    adj: dict[str, dict[str, float]] = {names[row]: {} for row in nodes.tolist()}
    targets, owners = references_of(index, nodes)
    cited = np.zeros(len(c.records) + 1, dtype=bool)  # the last slot stands for every external key
    cited[nodes] = True
    edge = cited[np.maximum(targets, -1)] & (targets != owners)
    for u, v in zip(owners[edge].tolist(), targets[edge].tolist()):
        nbrs, target = adj[names[u]], names[v]
        weight = nbrs.get(target)
        nbrs[target] = 1.0 if weight is None else weight + 1.0
    return CitationSubgraph(venue_key=venue_key, graph=DictVenueGraph.from_adjacency(adj, directed=True))


def subgraph_profile(sg: CoauthorshipSubgraph | CitationSubgraph) -> SubgraphProfile:
    """M1-M4 of one subgraph on its own, through the graph metrics: the
    clustering added in the order the graph met its nodes, the betweenness
    run on its nodes in name order with each row in the order met."""
    g = sg.graph
    n = g.node_count()
    if n == 0:
        raise EmptySubgraphError(f"venue {sg.venue_key!r} has an empty subgraph")
    return SubgraphProfile(
        m1_density=metrics.density(g),
        m2_avg_clustering=metrics.left_sum(local_clustering_dict(g).values()) / n,
        m3_max_betweenness=max(metrics.betweenness_centrality(dict_csr(g, sorted(g.nodes)), normalized=True)),
        m4_lcc_fraction=len(components_dict(g)[0]) / n,
        node_count=n,
        edge_count=g.edge_count(),
    )


def rows_of(rows: dict) -> dict[str, list[tuple]]:
    """profile_venues' rows as profile_rows_per_venue gives them."""
    return {
        family: [(r.venue_key, r.kind, r.profile, r.pagerank, r.network_type) for r in family_rows]
        for family, family_rows in rows.items()
    }


def profile_rows_per_venue(c: Corpus, ranks: dict[str, float], cuts=DEFAULT_CUTS) -> dict[str, list[tuple]]:
    """(venue, kind, profile, pagerank, type) of every venue with a non-empty
    subgraph, per family, each venue's subgraph extracted and measured alone."""
    rows: dict[str, list[tuple]] = {}
    for family, extract in (("coauthorship", extract_coauthorship_subgraph), ("citation", extract_citation_subgraph)):
        rows[family] = []
        for venue, records in sorted(records_by_venue(c).items()):
            sg = extract(c, venue, records)
            if sg.graph.node_count():
                profile = subgraph_profile(sg)
                rows[family].append((venue, c.venue_kind(venue), profile, ranks.get(venue), classify_network_type(profile, cuts)))
    return rows


def coauthorship_corpus(graphs: dict[str, VenueGraph]) -> Corpus:
    """A corpus whose co-authorship subgraph of venue v has the nodes and
    edges of graphs[v]: a two-author paper per edge and a one-author paper
    per node without edges (weights are not kept)."""
    recs = []
    for venue, g in graphs.items():
        papers = [(u, v) for u, v, _ in g.edges()] + [(v,) for v in g.nodes if not neighbors(g, v)]
        for i, names in enumerate(papers):
            recs.append(PublicationRecord(f"{venue}/{i}", "T", tuple(map(AuthorName, names)), venue, None, ()))
    return Corpus(records=recs, venue_table={v: VenueInfo(name=v) for v in graphs})


# -- the dict-of-dicts graph ---------------------------------------------------


def neighbors(g: VenueGraph | DictVenueGraph, key: str) -> dict[str, float]:
    """The successors (undirected: the neighbours) of `key` in `g` with their
    weights, in row order."""
    if isinstance(g, DictVenueGraph):
        return g.neighbors(key)
    indptr, heads, weights = g.arrays()
    names = list(g.nodes)
    i = dict(zip(names, range(len(names))))[key]
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    return dict(zip(map(names.__getitem__, heads[lo:hi].tolist()), weights[lo:hi].tolist()))


class DictVenueGraph:
    """The graph as node -> neighbour -> weight dicts, both directions of an
    undirected edge stored: the form the compressed rows replaced. An edge is
    set, not accumulated; nodes and rows keep the order they were met in,
    and `name_ordered()` gives the order VenueGraph keeps. `venue_graph()`
    builds its VenueGraph: the tests' one way to make a graph node by node
    and edge by edge."""

    def __init__(self, directed: bool = False):
        self.directed = directed
        self.nodes: dict[str, dict[str, Any]] = {}
        self._adj: dict[str, dict[str, float]] = {}
        self._edge_count = 0

    @classmethod
    def from_adjacency(cls, adj: dict[str, dict[str, float]], directed: bool) -> "DictVenueGraph":
        """The graph whose rows are `adj` (node -> neighbour -> weight, both
        directions of each undirected edge, every endpoint a key), in its order."""
        g = cls(directed)
        g.nodes = {v: {} for v in adj}
        g._adj = {v: dict(row) for v, row in adj.items()}
        g._edge_count = sum(map(len, adj.values())) // (1 if directed else 2)
        return g

    def add_node(self, key: str, /, **attrs: Any) -> None:
        if key not in self.nodes:
            self.nodes[key] = {}
            self._adj[key] = {}
        self.nodes[key].update(attrs)

    def add_edge(self, u: str, v: str, weight: float) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed")
        if not 0 < weight < math.inf:
            raise ValueError(f"edge weight must be finite and > 0, got {weight!r}")
        self.add_node(u)
        self.add_node(v)
        if v not in self._adj[u]:
            self._edge_count += 1
        self._adj[u][v] = weight
        if not self.directed:
            self._adj[v][u] = weight

    def node_count(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return self._edge_count

    def neighbors(self, key: str) -> dict[str, float]:
        return self._adj[key]

    def edges(self) -> Iterator[tuple[str, str, float]]:
        """Each edge once, an undirected one from its smaller name, in row order."""
        return ((u, v, w) for u, nbrs in self._adj.items() for v, w in nbrs.items() if self.directed or u <= v)

    def venue_graph(self) -> VenueGraph:
        """The VenueGraph of these nodes, attributes and edges, built once
        through `VenueGraph.from_arcs`."""
        names = sorted(self.nodes)
        index = dict(zip(names, range(len(names))))
        arcs = sorted((index[u], index[v], w) for u, row in self._adj.items() for v, w in row.items())
        tails, heads, weights = zip(*arcs) if arcs else ((), (), ())
        return VenueGraph.from_arcs(names, tails, heads, weights, self.directed, [dict(self.nodes[v]) for v in names])

    def name_ordered(self) -> "DictVenueGraph":
        """A copy with the nodes, and each row's neighbours, sorted by name."""
        g = DictVenueGraph(self.directed)
        g.nodes = {v: self.nodes[v] for v in sorted(self.nodes)}
        g._adj = {v: dict(sorted(self._adj[v].items())) for v in g.nodes}
        g._edge_count = self._edge_count
        return g


def left_sum_loop(values) -> float:
    return functools.reduce(operator.add, values, 0.0)


def threshold_dict(g: DictVenueGraph, rule: ThresholdRule) -> DictVenueGraph:
    """apply_threshold over the edge walk: the passing edges, added in
    sorted order to a copy holding their endpoints in sorted order."""
    if (rule.kind == "cosine") == g.directed:
        raise ValueError(f"{rule.kind} threshold does not apply")
    kept = [(u, v, w) for u, v, w in g.edges() if rule.keeps(w)]
    survivors = {u for u, _, _ in kept} | {v for _, v, _ in kept}
    reduced = DictVenueGraph(directed=g.directed)
    for key in sorted(survivors):
        reduced.add_node(key, **g.nodes[key])
    for u, v, w in sorted(kept):
        reduced.add_edge(u, v, w)
    return reduced


def modularity_dict(g: DictVenueGraph, assignment: dict[str, str], weighted: bool = True) -> float:
    """Q summed edge by edge into per-cluster dicts."""
    def wt(w: float) -> float:
        return w if weighted else 1.0

    m = left_sum_loop(wt(w) for _, _, w in g.edges())
    if m == 0:
        return 0.0
    intra: dict[str, float] = {}
    degree_sum: dict[str, float] = {}
    for u, v, w in g.edges():
        cu, cv = assignment[u], assignment[v]
        if cu == cv:
            intra[cu] = intra.get(cu, 0.0) + wt(w)
        degree_sum[cu] = degree_sum.get(cu, 0.0) + wt(w)
        degree_sum[cv] = degree_sum.get(cv, 0.0) + wt(w)
    terms = []
    for cluster in sorted(set(assignment.values())):
        a_c = degree_sum.get(cluster, 0.0) / (2 * m)
        terms.append(intra.get(cluster, 0.0) / m - a_c * a_c)
    return math.fsum(terms)


def greedy_modularity_dict(g: DictVenueGraph, weighted: bool = True, trace: list | None = None) -> ClusterPartition:
    """The heap-based greedy modularity loop set up by walking the dicts."""
    nodes = sorted(g.nodes)
    if not nodes:
        return ClusterPartition(assignment={}, q=0.0)

    def wt(w: float) -> float:
        return w if weighted else 1.0

    m = left_sum_loop(wt(w) for _, _, w in g.edges())
    if m == 0:
        return ClusterPartition(assignment={v: v for v in nodes}, q=0.0)
    members: dict[str, list[str]] = {v: [v] for v in nodes}
    degree_sum = {v: left_sum_loop(wt(w) for w in g.neighbors(v).values()) for v in nodes}
    between: dict[str, dict[str, float]] = {v: {} for v in nodes}
    for u, v, w in g.edges():
        between[u][v] = between[u].get(v, 0.0) + wt(w)
        between[v][u] = between[v].get(u, 0.0) + wt(w)
    assignment = {v: v for v in nodes}
    q = best_q = modularity_dict(g, assignment, weighted)
    best_assignment = dict(assignment)
    two_m_sq = 2 * m * m

    def gain(ci: str, cj: str) -> float:
        return between[ci][cj] / m - degree_sum[ci] * degree_sum[cj] / two_m_sq

    heap = [(-gain(ci, cj), ci, cj) for ci, row in between.items() for cj in row if ci < cj]
    heapq.heapify(heap)
    while heap:
        neg_gain, ci, cj = heapq.heappop(heap)
        if ci not in between or cj not in between[ci] or gain(ci, cj) != -neg_gain:
            continue
        if -neg_gain <= 0.0:
            break
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
        del between[cj], members[cj], degree_sum[cj]
        for venue in members[ci]:
            assignment[venue] = ci
        for ck in between[ci]:
            a, b = (ci, ck) if ci < ck else (ck, ci)
            heapq.heappush(heap, (-gain(a, b), a, b))
        q += -neg_gain
        if trace is not None:
            trace.append((dict(assignment), q))
        if q > best_q:
            best_q = q
            best_assignment = dict(assignment)
    return ClusterPartition(assignment=best_assignment, q=modularity_dict(g, best_assignment, weighted))


def dict_csr(g: DictVenueGraph, nodes: list[str] | None = None) -> metrics.CSRGraph:
    """`g` on nodes 0..n-1, the i-th of `nodes` (by default node order),
    each row in neighbour order."""
    nodes = list(g.nodes) if nodes is None else nodes
    index = {v: i for i, v in enumerate(nodes)}
    indptr = np.r_[0, np.cumsum([len(g.neighbors(u)) for u in nodes])].astype(np.int64)
    heads = np.array([index[v] for u in nodes for v in g.neighbors(u)], dtype=np.int64)
    return metrics.CSRGraph(indptr, heads, g.directed)


def local_clustering_dict(g: DictVenueGraph) -> dict[str, float]:
    return dict(zip(g.nodes, metrics.csr_local_clustering(dict_csr(g)).tolist()))


def components_dict(g: DictVenueGraph) -> list[set[str]]:
    csr = dict_csr(g)
    tails = np.repeat(np.arange(g.node_count()), np.diff(csr.indptr))
    components: dict[int, set[str]] = {}
    for node, label in zip(g.nodes, arrays.component_labels(g.node_count(), tails, csr.heads).tolist()):
        components.setdefault(label, set()).add(node)
    return sorted(components.values(), key=lambda c: (-len(c), min(c)))

"""Per-venue co-authorship and citation subgraphs, their structural profiles,
and the four-way network-type classification.

The co-authorship subgraph of a venue links authors who wrote a paper in that
venue together (a clique per paper, weights counting shared papers). The
citation subgraph takes every publication the venue's papers cite that
resolves inside the corpus and induces the publication-level citation edges
among them. Four metrics summarize either subgraph: density (M1), average
local clustering (M2), maximum normalized betweenness (M3), and the fraction
of nodes in the largest connected component (M4). Each family is measured
on one block, the disjoint union of every venue's subgraph of that family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import metrics
from .arrays import arc_tails, component_labels, concat_ranges, distinct, ids, row_offsets, run_starts, unique
from .corpus import VENUE_KINDS, Corpus
from .exports import finite_float, read_table, unit_float, write_table

TYPE_1 = "Type1"
TYPE_2 = "Type2"
TYPE_3 = "Type3"
TYPE_4 = "Type4"

METRIC_NAMES = ("m1_density", "m2_avg_clustering", "m3_max_betweenness", "m4_lcc_fraction")

DEFAULT_HISTOGRAM_BINS = 20


def publication_citation_graph(c: Corpus) -> dict[str, list[str]]:
    """Publication-level citation adjacency over in-corpus references."""
    index = c.reference_index()
    names = c.ids
    bounds = index.offsets.tolist()
    targets = index.targets.tolist()
    return {
        names[r]: [names[t] for t in targets[bounds[r] : bounds[r + 1]] if t >= 0 and t != r]
        for r in range(len(names))
    }


@dataclass(frozen=True)
class SubgraphBlock:
    """The disjoint union of one family's venue subgraphs. Venue i of `venues`
    (those with nodes, in name order) owns nodes bounds[i]:bounds[i + 1] of
    `graph` in name order, each with its neighbours in the order the venue's
    graph met them, and a largest component of largest[i] nodes. `clustering`
    holds the nodes' local clustering, each venue's in the order met."""

    venues: list[str]
    bounds: list[int]
    graph: metrics.CSRGraph
    largest: list[int]
    clustering: np.ndarray


def _block(venues: list[str], node_venue, tails, heads, first_seen, directed: bool) -> SubgraphBlock:
    """The block of nodes 0..n-1, grouped by venue, with the edges tails[k] -
    heads[k] in the order met (an undirected one once) and `first_seen`, the
    nodes in the order met."""
    n = node_venue.size
    sizes = np.bincount(component_labels(n, tails, heads), minlength=n)
    if not directed:  # each edge both ways round, in the order met
        tails, heads = np.stack((tails, heads), axis=1).ravel(), np.stack((heads, tails), axis=1).ravel()
    indptr = row_offsets(tails, n)
    # int64 heads: the Brandes kernel indexes with them, and ran slower on int32 ones
    graph = metrics.CSRGraph(indptr, heads[np.argsort(tails, kind="stable")].astype(np.int64), directed)
    del tails, heads
    starts = run_starts(node_venue)  # the nodes come grouped by venue
    return SubgraphBlock(
        venues=[venues[v] for v in node_venue[starts].tolist()],
        bounds=[*starts.tolist(), n],
        graph=graph,
        largest=np.maximum.reduceat(sizes, starts).tolist() if n else [],
        clustering=metrics.csr_local_clustering(graph)[first_seen],
    )


def extract_coauthorship_subgraph(c: Corpus) -> SubgraphBlock:
    """The co-authorship block: per venue, a node per author of one of its
    papers and an edge per pair of authors who wrote one of them together.
    A venue's graph meets its papers in corpus order, each paper's distinct
    authors in name order and their pairs in lexicographic order."""
    return _block(*_coauthorship_arcs(c), directed=False)


def _coauthorship_arcs(c: Corpus):
    """_block's arguments for co-authorship (a frame of its own, freed before
    the block is built). Only arrays hold an entry per author occurrence."""
    index = c.reference_index()
    offsets, author, distinct_authors = c.author_index()
    width = max(len(distinct_authors), 1)
    del distinct_authors
    record = arc_tails(offsets)
    del offsets
    # each paper's distinct authors in name order, papers with a venue only
    kept = index.record_venue[record] >= 0
    record *= width
    record += author
    del author
    record = distinct(record[kept])
    del kept
    record, author = np.divmod(record, width)
    keys = index.record_venue[record] * width
    keys += author
    del author
    node_keys, first, node = unique(keys)
    del keys
    node_venue = node_keys // width
    del node_keys
    # each pair (x, y), x before y in one paper, in the order met
    after = np.searchsorted(record, record, side="right") - np.arange(record.size) - 1
    del record
    y, x = concat_ranges(np.arange(1, after.size + 1), after)
    del after
    x = node[x]
    y = node[y]
    del node
    x, y = _first_met(x, y, node_venue.size)
    return index.venues, node_venue, x, y, np.lexsort((first, node_venue))


def extract_citation_subgraph(c: Corpus) -> SubgraphBlock:
    """The citation block: per venue, a node per corpus record its papers
    cite and an arc per citation among those records, in citation order."""
    return _block(*_citation_arcs(c), directed=True)


def _citation_arcs(c: Corpus):
    """As _coauthorship_arcs, for citation: only arrays hold an entry per
    record or per reference."""
    index = c.reference_index()
    n = len(c.ids)
    narrow = ids(n)
    by_name = c.id_order()
    rank = np.empty_like(by_name)
    rank[by_name] = np.arange(n, dtype=narrow)  # record ids in name order
    per_record = np.diff(index.offsets)
    owners = np.repeat(np.arange(n, dtype=narrow), per_record)
    targets = index.targets
    resolved = targets >= 0
    cited = resolved & np.repeat(index.record_venue >= 0, per_record)
    del per_record
    node_keys = index.record_venue[owners[cited]] * n
    node_keys += rank[targets[cited]]
    del cited
    node_keys = distinct(node_keys)
    node_venue, node_row = np.divmod(node_keys, max(n, 1))
    node_row = by_name[node_row]
    del by_name
    # each node's citations of another record, then those of a node of its venue
    resolved &= targets != owners
    cites = row_offsets(owners[resolved], n)
    del owners
    cited_rank = rank[targets[resolved]]
    del rank, resolved
    arc, tails = concat_ranges(cites[node_row], cites[node_row + 1] - cites[node_row])
    del cites, node_row
    keys = node_venue[tails] * n
    keys += cited_rank[arc]
    del cited_rank, arc
    heads = np.searchsorted(node_keys, keys)
    np.minimum(heads, node_keys.size - 1, out=heads)
    hit = node_keys[heads] == keys
    del keys
    nodes = ids(node_keys.size)
    tails, heads = _first_met(tails[hit].astype(nodes), heads[hit].astype(nodes), node_keys.size)
    return index.venues, node_venue, tails, heads, np.arange(node_keys.size)


def _first_met(tails, heads, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs tails[i] -> heads[i] in the order given, each once."""
    keys = tails * np.int64(n)
    keys += heads
    first = np.sort(unique(keys)[1])
    return tails[first], heads[first]


@dataclass(frozen=True)
class SubgraphProfile:
    m1_density: float
    m2_avg_clustering: float
    m3_max_betweenness: float
    m4_lcc_fraction: float
    node_count: int
    edge_count: int

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.m1_density, self.m2_avg_clustering, self.m3_max_betweenness, self.m4_lcc_fraction)


def subgraph_profile(block: SubgraphBlock, i: int, betweenness: np.ndarray) -> SubgraphProfile:
    """M1-M4 of venue i's subgraph in `block`, given the block's unnormalized
    betweenness (no path leaves a venue, and max(x) * scale == max(x * scale)
    for scale >= 0). M2 adds the clustering in the order the graph met it."""
    lo, hi = block.bounds[i], block.bounds[i + 1]
    n, directed = hi - lo, block.graph.directed
    edges = int(block.graph.indptr[hi] - block.graph.indptr[lo]) // (1 if directed else 2)
    return SubgraphProfile(
        m1_density=metrics.edge_density(n, edges, directed),
        m2_avg_clustering=metrics.left_sum(block.clustering[lo:hi].tolist()) / n,
        m3_max_betweenness=max(betweenness[lo:hi].tolist()) * metrics.betweenness_scale(n, directed),
        m4_lcc_fraction=block.largest[i] / n,
        node_count=n,
        edge_count=edges,
    )


@dataclass(frozen=True)
class ClassificationCuts:
    """Band boundaries on [0, 1]-scaled metrics.

    very low < very_low_max <= low < low_max <= medium < medium_max <=
    high < high_max <= very high.
    """

    very_low_max: float = 0.05
    low_max: float = 0.25
    medium_max: float = 0.6
    high_max: float = 0.85

    def band(self, value: float) -> str:
        if value < self.very_low_max:
            return "very_low"
        if value < self.low_max:
            return "low"
        if value < self.medium_max:
            return "medium"
        if value < self.high_max:
            return "high"
        return "very_high"


DEFAULT_CUTS = ClassificationCuts()


def classify_network_type(p: SubgraphProfile, cuts: ClassificationCuts = DEFAULT_CUTS) -> str:
    """Map a profile onto the four structural archetypes.

    Rules fire in order Type4, Type3, Type2, with Type1 as fallback, each
    keying on the bands that discriminate the archetype: a dense core with
    satellites shows extreme maximum betweenness and an almost complete
    largest component; a bridged body shows a large component without a
    dominating gateway; disconnected working groups show high clustering,
    low betweenness, and a modest largest component; everything else is
    sparse.
    """
    b2 = cuts.band(p.m2_avg_clustering)
    b3 = cuts.band(p.m3_max_betweenness)
    b4 = cuts.band(p.m4_lcc_fraction)
    if b3 == "very_high" and b4 == "very_high":
        return TYPE_4
    if b4 in ("high", "very_high") and b3 != "very_high":
        return TYPE_3
    if b2 in ("high", "very_high") and b3 in ("very_low", "low") and b4 in ("very_low", "low", "medium"):
        return TYPE_2
    return TYPE_1


@dataclass
class ProfileRow:
    venue_key: str
    kind: str  # journal | conference | unknown
    profile: SubgraphProfile
    pagerank: float | None = None
    network_type: str = ""


def profile_venues(c: Corpus, ranks: dict[str, float], cuts: ClassificationCuts = DEFAULT_CUTS) -> dict[str, list[ProfileRow]]:
    """Profile and classify the co-authorship and citation subgraphs of every
    venue with publications, keyed by family. A venue gets no row in a family
    whose subgraph is empty; `ranks` supplies each row's PageRank, if any.
    Each family's M3 comes from one betweenness run over its block."""
    by_family: dict[str, list[ProfileRow]] = {}
    for family, extract in (("coauthorship", extract_coauthorship_subgraph), ("citation", extract_citation_subgraph)):
        block = extract(c)
        betweenness = metrics.betweenness_centrality(block.graph, normalized=False)
        rows = by_family[family] = []
        for i, venue in enumerate(block.venues):
            profile = subgraph_profile(block, i, betweenness)
            network_type = classify_network_type(profile, cuts)
            rows.append(ProfileRow(venue, c.venue_kind(venue), profile, ranks.get(venue), network_type))
    return by_family


@dataclass
class HistogramBin:
    lo: float
    hi: float
    mass: float


@dataclass
class StatReport:
    bins: int
    histograms: dict[str, dict[str, list[HistogramBin]]]  # metric -> kind -> bins
    pagerank_medians: dict[str, list[tuple[float, float]]]  # metric -> (rank bin, median)


def _normalized_histogram(values: Sequence[float], bins: int) -> list[HistogramBin]:
    counts, edges = np.histogram(np.asarray(values, dtype=float), bins=bins, range=(0.0, 1.0))
    total = counts.sum()
    masses = counts / total if total else counts.astype(float)
    return [
        HistogramBin(lo=float(edges[i]), hi=float(edges[i + 1]), mass=float(masses[i]))
        for i in range(bins)
    ]


def _median(values: list) -> float:
    """The median of `values` as `statistics.median` computes it: the middle
    value once sorted, or half the sum of the two middle values."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def profile_statistics(rows: Iterable[ProfileRow], bins: int = DEFAULT_HISTOGRAM_BINS) -> StatReport:
    """Normalized metric histograms (overall and split by venue kind) and
    per-PageRank-bin metric medians. PageRank values are binned by rounding
    to two decimals; rows without a score are left out of the medians."""
    rows = list(rows)
    if not rows:
        raise ValueError("profile_statistics needs at least one profile")

    values = [r.profile.as_tuple() for r in rows]
    kinds = sorted({r.kind for r in rows})
    histograms: dict[str, dict[str, list[HistogramBin]]] = {}
    medians: dict[str, list[tuple[float, float]]] = {}
    for metric_index, metric in enumerate(METRIC_NAMES):
        column = [v[metric_index] for v in values]
        per_kind: dict[str, list[HistogramBin]] = {"all": _normalized_histogram(column, bins)}
        for kind in kinds:
            per_kind[kind] = _normalized_histogram([x for r, x in zip(rows, column) if r.kind == kind], bins)
        histograms[metric] = per_kind

        by_rank: dict[float, list[float]] = {}
        for r, x in zip(rows, column):
            if r.pagerank is not None:
                by_rank.setdefault(round(r.pagerank, 2), []).append(x)
        medians[metric] = [(rank, float(_median(ranked))) for rank, ranked in sorted(by_rank.items())]

    return StatReport(bins=bins, histograms=histograms, pagerank_medians=medians)


PROFILES_HEADER = "venue\tkind\tsubgraph\tm1_density\tm2_avg_clustering\tm3_max_betweenness\tm4_lcc_fraction\tnodes\tedges\ttype\tpagerank"
HISTOGRAMS_HEADER = "subgraph\tmetric\tvenue_kind\tbin_lo\tbin_hi\tmass"
MEDIANS_HEADER = "subgraph\tmetric\tpagerank_bin\tmedian"


def write_profiles(rows: dict[str, list[ProfileRow]], path) -> None:
    """rows maps subgraph family ('coauthorship' | 'citation') to profiles."""
    write_table(path, PROFILES_HEADER, (
        (r.venue_key, r.kind, family, *r.profile.as_tuple(), r.profile.node_count, r.profile.edge_count,
         r.network_type, r.pagerank)
        for family in sorted(rows)
        for r in sorted(rows[family], key=lambda r: r.venue_key)
    ))


def read_profiles(path) -> dict[str, list[ProfileRow]]:
    """The rows of a file written by write_profiles: each (subgraph, venue)
    pair once, a venue kind, a family and a network type as written, counts
    of at least 0, each metric in [0, 1] and each PageRank finite."""
    parse = {metric: partial(unit_float, what=metric) for metric in METRIC_NAMES}
    parse.update(kind=_one_of("kind", VENUE_KINDS), subgraph=_one_of("subgraph", ("coauthorship", "citation")),
                 type=_one_of("type", (TYPE_1, TYPE_2, TYPE_3, TYPE_4)),
                 nodes=partial(_count, what="nodes"), edges=partial(_count, what="edges"),
                 pagerank=lambda text: finite_float(text) if text else None)
    _, table = read_table(path, PROFILES_HEADER, "profiles", key=("subgraph", "venue"), parse=parse)
    rows: dict[str, list[ProfileRow]] = {}
    for venue, kind, family, m1, m2, m3, m4, nodes, edges, network_type, rank in table:
        profile = SubgraphProfile(m1, m2, m3, m4, node_count=nodes, edge_count=edges)
        rows.setdefault(family, []).append(ProfileRow(venue, kind, profile, pagerank=rank, network_type=network_type))
    return rows


def _one_of(what: str, values: tuple[str, ...]) -> Callable[[str], str]:
    """The reader of a `what` cell, which holds one of `values`."""
    def parse(text: str) -> str:
        if text not in values:
            raise ValueError(f"{what} must be one of {', '.join(values)}, got {text!r}")
        return text
    return parse


def _count(text: str, what: str) -> int:
    count = int(text)
    if count < 0:
        raise ValueError(f"{what} {text!r} is below 0")
    return count


def write_statistics(rows_by_family: dict[str, list[ProfileRow]], bins: int, histogram_path, medians_path) -> None:
    """Write the histograms and PageRank medians of every family with
    profiles, in family order. Both files get their header even when there
    are no profiles at all."""
    reports = {family: profile_statistics(rows, bins=bins) for family, rows in sorted(rows_by_family.items()) if rows}
    write_table(histogram_path, HISTOGRAMS_HEADER, (
        (family, metric, kind, b.lo, b.hi, b.mass)
        for family, report in reports.items() for metric in METRIC_NAMES
        for kind in sorted(report.histograms[metric]) for b in report.histograms[metric][kind]
    ))
    write_table(medians_path, MEDIANS_HEADER, (
        (family, metric, rank, median)
        for family, report in reports.items() for metric in METRIC_NAMES for rank, median in report.pagerank_medians[metric]
    ))

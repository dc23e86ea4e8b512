"""Per-venue co-authorship and citation subgraphs, their structural profiles,
and the four-way network-type classification.

The co-authorship subgraph of a venue links authors who wrote a paper in that
venue together (a clique per paper, weights counting shared papers). The
citation subgraph takes every publication the venue's papers cite that
resolves inside the corpus and induces the publication-level citation edges
among them. Four metrics summarize either subgraph: density (M1), average
local clustering (M2), maximum normalized betweenness (M3), and the fraction
of nodes in the largest connected component (M4).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import metrics
from .corpus import Corpus
from .graph import VenueGraph

TYPE_1 = "Type1"
TYPE_2 = "Type2"
TYPE_3 = "Type3"
TYPE_4 = "Type4"

METRIC_NAMES = ("m1_density", "m2_avg_clustering", "m3_max_betweenness", "m4_lcc_fraction")

DEFAULT_HISTOGRAM_BINS = 20


class SubgraphError(Exception):
    pass


class UnknownVenueError(SubgraphError):
    pass


class EmptySubgraphError(SubgraphError):
    pass


@dataclass
class CoauthorshipSubgraph:
    venue_key: str
    graph: VenueGraph  # undirected; author full names as nodes


@dataclass
class CitationSubgraph:
    venue_key: str
    graph: VenueGraph  # directed; record ids of cited publications as nodes


def publication_citation_graph(c: Corpus) -> dict[str, list[str]]:
    """Publication-level citation adjacency over in-corpus references."""
    index = c.reference_index()
    ids = [r.record_id for r in c.records]
    bounds = index.offsets.tolist()
    targets = index.targets.tolist()
    return {
        ids[r]: [ids[t] for t in targets[bounds[r] : bounds[r + 1]] if t >= 0 and t != r]
        for r in range(len(ids))
    }


def extract_coauthorship_subgraph(
    c: Corpus, venue_key: str, records: Sequence | None = None
) -> CoauthorshipSubgraph:
    """`records` optionally short-circuits the corpus scan with the venue's
    own publication list (as produced by Corpus.records_by_venue)."""
    if venue_key not in c.venue_table:
        raise UnknownVenueError(f"unknown venue {venue_key!r}")
    if records is None:
        records = [r for r in c.records if r.venue_key == venue_key]
    # Nodes and neighbours in first-seen order, as add_edge would insert
    # them; a pair's weight counts the papers it shares.
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
                weight = 1.0 if weight is None else weight + 1.0  # every 1.0 is one shared float
                nbrs[v] = weight
                adj[v][u] = weight
    return CoauthorshipSubgraph(venue_key=venue_key, graph=VenueGraph.from_adjacency(adj, directed=False))


def extract_citation_subgraph(c: Corpus, venue_key: str, records: Sequence | None = None) -> CitationSubgraph:
    """Induced citation graph over the publications the venue cites.

    The node set is exactly the venue's reference targets that resolve to
    corpus records; edges are the corpus-wide citations among that set.
    `records` optionally short-circuits the corpus scan with the venue's own
    publication list.
    """
    if venue_key not in c.venue_table:
        raise UnknownVenueError(f"unknown venue {venue_key!r}")
    if records is None:
        records = [r for r in c.records if r.venue_key == venue_key]
    index = c.reference_index()
    targets, _ = index.references_of(np.array([c.row(r.record_id) for r in records], dtype=np.int64))
    names = {row: c.records[row].record_id for row in targets[targets >= 0].tolist()}
    nodes = np.array(sorted(names, key=names.__getitem__), dtype=np.int64)
    adj: dict[str, dict[str, float]] = {names[row]: {} for row in nodes.tolist()}
    # nodes in name order, each one's neighbours in the order it cites them
    targets, owners = index.references_of(nodes)
    cited = np.zeros(len(c.records) + 1, dtype=bool)  # the last slot stands for every external key
    cited[nodes] = True
    edge = cited[np.maximum(targets, -1)] & (targets != owners)
    for u, v in zip(owners[edge].tolist(), targets[edge].tolist()):
        nbrs, target = adj[names[u]], names[v]
        weight = nbrs.get(target)
        nbrs[target] = 1.0 if weight is None else weight + 1.0
    return CitationSubgraph(venue_key=venue_key, graph=VenueGraph.from_adjacency(adj, directed=True))


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


def subgraph_profile(sg: CoauthorshipSubgraph | CitationSubgraph, m3: float | None = None) -> SubgraphProfile:
    """M1-M4 of one subgraph; `m3` is its maximum normalized betweenness when
    the caller has it already (profile_venues does, a batch of venues at once)."""
    g = sg.graph
    n = g.node_count()
    if n == 0:
        raise EmptySubgraphError(f"venue {sg.venue_key!r} has an empty subgraph")
    if m3 is None:
        m3 = metrics.betweenness_centrality(g, weighted=False, normalized=True).max_value()
    nbr_sets = metrics.neighbor_sets(g)
    return SubgraphProfile(
        m1_density=metrics.density(g),
        m2_avg_clustering=metrics.average_clustering_coefficient(g, nbr_sets),
        m3_max_betweenness=m3,
        m4_lcc_fraction=len(metrics.connected_components(g, nbr_sets)[0]) / n,
        node_count=n,
        edge_count=g.edge_count(),
    )


def max_betweenness(graphs: Sequence[VenueGraph]) -> list[float]:
    """M3 (maximum normalized betweenness) of each of `graphs`, all directed
    or all undirected, from one unnormalized betweenness run over their
    disjoint union, scaled per graph as `normalized=True` scales it. Union
    keys carry a fixed-width graph index prefix, so they cannot clash and
    sort inside a graph as the graph's own keys do: every value is the one
    the graph gets on its own."""
    if not graphs:
        return []
    width = len(str(len(graphs) - 1))
    union_adj: dict[str, dict[str, float]] = {}
    union_keys: list[list[str]] = []
    for i, g in enumerate(graphs):
        prefix = f"{i:0{width}d}"
        key = {v: prefix + v for v in g.nodes}
        for u, ku in key.items():
            nbrs = g.neighbors(u)
            union_adj[ku] = dict(zip(map(key.__getitem__, nbrs), nbrs.values()))
        union_keys.append(list(key.values()))
    union = VenueGraph.from_adjacency(union_adj, directed=graphs[0].directed)
    values = metrics.betweenness_centrality(union, weighted=False, normalized=False).values
    # scale >= 0 and rounding is monotone, so max(x * scale) == max(x) * scale
    return [
        max(map(values.__getitem__, keys)) * metrics.betweenness_scale(g.node_count(), g.directed)
        for g, keys in zip(graphs, union_keys)
    ]


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


def profile_venues(
    c: Corpus, ranks: dict[str, float], cuts: ClassificationCuts = DEFAULT_CUTS
) -> dict[str, list[ProfileRow]]:
    """Profile and classify the co-authorship and citation subgraphs of every
    venue with publications, keyed by family. A venue gets no row in a family
    whose subgraph is empty; `ranks` supplies each row's PageRank, if any.
    M3 comes from one batched betweenness run per batch of venues."""
    by_venue = c.records_by_venue()
    venues = sorted(by_venue)
    extractors = {
        "coauthorship": lambda v: extract_coauthorship_subgraph(c, v, records=by_venue[v]),
        "citation": lambda v: extract_citation_subgraph(c, v, records=by_venue[v]),
    }
    by_family: dict[str, list[ProfileRow]] = {}
    for family, extract in extractors.items():
        rows = by_family[family] = []
        for batch in _batches(sg for sg in map(extract, venues) if sg.graph.node_count()):
            for sg, m3 in zip(batch, max_betweenness([sg.graph for sg in batch])):
                profile = subgraph_profile(sg, m3)
                rows.append(
                    ProfileRow(
                        venue_key=sg.venue_key,
                        kind=c.venue_kind(sg.venue_key),
                        profile=profile,
                        pagerank=ranks.get(sg.venue_key),
                        network_type=classify_network_type(profile, cuts),
                    )
                )
    return by_family


def _batches(sgs: Iterable[CoauthorshipSubgraph | CitationSubgraph]):
    """Consecutive subgraphs in lists whose squared node counts sum to at
    most metrics.BRANDES_BLOCK_CELLS (a larger subgraph goes alone): each
    list's union fits one block of the batched betweenness kernel, and only
    one list of subgraphs and its union are held at a time."""
    batch: list = []
    cells = 0
    for sg in sgs:
        n = sg.graph.node_count()
        if batch and cells + n * n > metrics.BRANDES_BLOCK_CELLS:
            yield batch
            batch, cells = [], 0
        batch.append(sg)
        cells += n * n
    if batch:
        yield batch


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


def profile_statistics(rows: Iterable[ProfileRow], bins: int = DEFAULT_HISTOGRAM_BINS) -> StatReport:
    """Normalized metric histograms (overall and split by venue kind) and
    per-PageRank-bin metric medians. PageRank values are binned by rounding
    to two decimals; rows without a score are left out of the medians."""
    rows = list(rows)
    if not rows:
        raise ValueError("profile_statistics needs at least one profile")

    histograms: dict[str, dict[str, list[HistogramBin]]] = {}
    medians: dict[str, list[tuple[float, float]]] = {}
    for metric_index, metric in enumerate(METRIC_NAMES):
        all_values = [r.profile.as_tuple()[metric_index] for r in rows]
        per_kind: dict[str, list[HistogramBin]] = {"all": _normalized_histogram(all_values, bins)}
        for kind in sorted({r.kind for r in rows}):
            kind_values = [
                r.profile.as_tuple()[metric_index] for r in rows if r.kind == kind
            ]
            per_kind[kind] = _normalized_histogram(kind_values, bins)
        histograms[metric] = per_kind

        by_rank: dict[float, list[float]] = {}
        for r in rows:
            if r.pagerank is None:
                continue
            by_rank.setdefault(round(r.pagerank, 2), []).append(r.profile.as_tuple()[metric_index])
        medians[metric] = [
            (rank, float(statistics.median(values))) for rank, values in sorted(by_rank.items())
        ]

    return StatReport(bins=bins, histograms=histograms, pagerank_medians=medians)


PROFILES_HEADER = "venue\tkind\tsubgraph\tm1_density\tm2_avg_clustering\tm3_max_betweenness\tm4_lcc_fraction\tnodes\tedges\ttype\tpagerank"


def write_profiles(rows: dict[str, list[ProfileRow]], path) -> None:
    """rows maps subgraph family ('coauthorship' | 'citation') to profiles."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(PROFILES_HEADER + "\n")
        for family in sorted(rows):
            for r in sorted(rows[family], key=lambda r: r.venue_key):
                p = r.profile
                rank = "" if r.pagerank is None else repr(r.pagerank)
                fh.write(
                    f"{r.venue_key}\t{r.kind}\t{family}\t{p.m1_density!r}\t{p.m2_avg_clustering!r}"
                    f"\t{p.m3_max_betweenness!r}\t{p.m4_lcc_fraction!r}\t{p.node_count}"
                    f"\t{p.edge_count}\t{r.network_type}\t{rank}\n"
                )


def read_profiles(path) -> dict[str, list[ProfileRow]]:
    rows: dict[str, list[ProfileRow]] = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != PROFILES_HEADER:
            raise ValueError(f"unexpected profiles header: {header!r}")
        width = PROFILES_HEADER.count("\t") + 1
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} tab-separated fields, got {len(fields)}")
            venue, kind, family = fields[0], fields[1], fields[2]
            try:
                profile = SubgraphProfile(
                    m1_density=float(fields[3]),
                    m2_avg_clustering=float(fields[4]),
                    m3_max_betweenness=float(fields[5]),
                    m4_lcc_fraction=float(fields[6]),
                    node_count=int(fields[7]),
                    edge_count=int(fields[8]),
                )
                rank = float(fields[10]) if fields[10] else None
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            rows.setdefault(family, []).append(
                ProfileRow(
                    venue_key=venue,
                    kind=kind,
                    profile=profile,
                    pagerank=rank,
                    network_type=fields[9],
                )
            )
    return rows


def write_statistics(rows_by_family: dict[str, list[ProfileRow]], bins: int, histogram_path, medians_path) -> None:
    """Write the histograms and PageRank medians of every family with
    profiles, in family order. Both files get their header even when there
    are no profiles at all."""
    with open(histogram_path, "w", encoding="utf-8", newline="\n") as hist, open(
        medians_path, "w", encoding="utf-8", newline="\n"
    ) as med:
        hist.write("subgraph\tmetric\tvenue_kind\tbin_lo\tbin_hi\tmass\n")
        med.write("subgraph\tmetric\tpagerank_bin\tmedian\n")
        for family in sorted(rows_by_family):
            if not rows_by_family[family]:
                continue
            report = profile_statistics(rows_by_family[family], bins=bins)
            for metric in METRIC_NAMES:
                for kind in sorted(report.histograms[metric]):
                    for b in report.histograms[metric][kind]:
                        hist.write(f"{family}\t{metric}\t{kind}\t{b.lo!r}\t{b.hi!r}\t{b.mass!r}\n")
            for metric in METRIC_NAMES:
                for rank, median in report.pagerank_medians[metric]:
                    med.write(f"{family}\t{metric}\t{rank!r}\t{median!r}\n")

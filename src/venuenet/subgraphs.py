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
    adj: dict[str, list[str]] = {}
    for rec in c.records:
        targets = [t for t in rec.references if c.has_record(t) and t != rec.record_id]
        adj[rec.record_id] = targets
    return adj


def extract_coauthorship_subgraph(
    c: Corpus, venue_key: str, records: Sequence | None = None
) -> CoauthorshipSubgraph:
    """`records` optionally short-circuits the corpus scan with the venue's
    own publication list (as produced by Corpus.records_by_venue)."""
    if venue_key not in c.venue_table:
        raise UnknownVenueError(f"unknown venue {venue_key!r}")
    if records is None:
        records = [r for r in c.records if r.venue_key == venue_key]
    g = VenueGraph(directed=False)
    for rec in records:
        names = sorted({a.full_name for a in rec.authors})
        for name in names:
            g.add_node(name)
        for x in range(len(names)):
            for y in range(x + 1, len(names)):
                g.increment_edge(names[x], names[y], 1.0)
    return CoauthorshipSubgraph(venue_key=venue_key, graph=g)


def extract_citation_subgraph(
    c: Corpus,
    venue_key: str,
    citation_index: dict[str, list[str]] | None = None,
    records: Sequence | None = None,
) -> CitationSubgraph:
    """Induced citation graph over the publications the venue cites.

    The node set is exactly the venue's reference targets that resolve to
    corpus records; edges are the corpus-wide citations among that set.
    Precomputed `citation_index` / `records` avoid per-venue corpus scans.
    """
    if venue_key not in c.venue_table:
        raise UnknownVenueError(f"unknown venue {venue_key!r}")
    if citation_index is None:
        citation_index = publication_citation_graph(c)
    if records is None:
        records = [r for r in c.records if r.venue_key == venue_key]

    cited: set[str] = set()
    for rec in records:
        for target in rec.references:
            if c.has_record(target):
                cited.add(target)

    g = VenueGraph(directed=True)
    for node in sorted(cited):
        g.add_node(node)
    for node in sorted(cited):
        for target in citation_index.get(node, ()):
            if target in cited:
                g.increment_edge(node, target, 1.0)
    return CitationSubgraph(venue_key=venue_key, graph=g)


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


def subgraph_profile(sg: CoauthorshipSubgraph | CitationSubgraph) -> SubgraphProfile:
    g = sg.graph
    if g.node_count() == 0:
        raise EmptySubgraphError(f"venue {sg.venue_key!r} has an empty subgraph")
    betweenness = metrics.betweenness_centrality(g, weighted=False, normalized=True)
    return SubgraphProfile(
        m1_density=metrics.density(g),
        m2_avg_clustering=metrics.average_clustering_coefficient(g),
        m3_max_betweenness=betweenness.max_value(),
        m4_lcc_fraction=metrics.largest_component_fraction(g),
        node_count=g.node_count(),
        edge_count=g.edge_count(),
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


def profile_venues(
    c: Corpus, ranks: dict[str, float], cuts: ClassificationCuts = DEFAULT_CUTS
) -> dict[str, list[ProfileRow]]:
    """Profile and classify the co-authorship and citation subgraphs of every
    venue with publications, keyed by family. A venue gets no row in a family
    whose subgraph is empty; `ranks` supplies each row's PageRank, if any."""
    citation_index = publication_citation_graph(c)
    by_family: dict[str, list[ProfileRow]] = {"coauthorship": [], "citation": []}
    by_venue = c.records_by_venue()
    for venue in sorted(by_venue):
        records = by_venue[venue]
        for family, sg in (
            ("coauthorship", extract_coauthorship_subgraph(c, venue, records=records)),
            ("citation", extract_citation_subgraph(c, venue, citation_index, records=records)),
        ):
            if sg.graph.node_count() == 0:
                continue
            profile = subgraph_profile(sg)
            by_family[family].append(
                ProfileRow(
                    venue_key=venue,
                    kind=c.venue_kind(venue),
                    profile=profile,
                    pagerank=ranks.get(venue),
                    network_type=classify_network_type(profile, cuts),
                )
            )
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
            profile = SubgraphProfile(
                m1_density=float(fields[3]),
                m2_avg_clustering=float(fields[4]),
                m3_max_betweenness=float(fields[5]),
                m4_lcc_fraction=float(fields[6]),
                node_count=int(fields[7]),
                edge_count=int(fields[8]),
            )
            rank = float(fields[10]) if fields[10] else None
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

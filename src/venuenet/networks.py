"""Venue-level network construction.

Bibliographic coupling counts are aggregated per venue over full reference
lists, including references that resolve to nothing inside the corpus (those
still discriminate venues, e.g. citations into other disciplines). The
knowledge network weights venue pairs by cosine similarity of their coupling
vectors; the citation network counts inter-venue citations along references
that resolve to corpus records. Both read the corpus's reference index;
cross-corpus matches are resolved before, by `linkage`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import mul

import numpy as np

from . import metrics
from .corpus import Corpus
from .graph import VenueGraph, arc_tails

COSINE_MIN_DEFAULT = 0.1
CITATION_MIN_DEFAULT = 50.0

_INT64_MAX = int(np.iinfo(np.int64).max)


class NetworkError(Exception):
    pass


class ThresholdRuleError(NetworkError):
    """Threshold rule applied to a graph of the wrong directedness."""


@dataclass
class CouplingMatrix:
    """Sparse venue x cited-publication coupling counts.

    vectors[v][k] is the number of times venue v cites publication key k;
    keys are record ids for in-corpus targets and normalized raw strings
    otherwise. Venues with no citations at all are not represented.
    """

    venues: list[str]
    vectors: dict[str, dict[str, int]]
    publication_counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> bytes:
        """The bytes of `json.dumps(..., sort_keys=True, indent=0)` over the
        venues, vectors and publication counts, written directly: `indent`
        would force json's pure-Python encoder."""
        venues = "[\n" + ",\n".join(map(encode_basestring_ascii, self.venues)) + "\n]" if self.venues else "[]"
        top = {
            "publication_counts": _json_dict(self.publication_counts),
            "vectors": _json_dict({v: _json_dict(vec) for v, vec in self.vectors.items()}),
            "venues": venues,
        }
        return _json_dict(top).encode("ascii")

    @classmethod
    def from_json(cls, data: bytes) -> "CouplingMatrix":
        """The matrix `to_json` wrote; ValueError names what is malformed."""
        try:
            obj = json.loads(data.decode("utf-8"))
        except RecursionError:
            raise ValueError("coupling matrix JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("coupling matrix must be a JSON object")
        venues, vectors = obj.get("venues"), obj.get("vectors")
        counts = obj.get("publication_counts", {})
        if not isinstance(venues, list) or not all(isinstance(v, str) for v in venues) or len(set(venues)) != len(venues):
            raise ValueError("coupling matrix 'venues' must be a list of distinct strings")
        if not isinstance(vectors, dict) or not all(map(_is_count_map, vectors.values())):
            raise ValueError("coupling matrix 'vectors' must map venues to objects of integer counts")
        if not _is_count_map(counts):
            raise ValueError("coupling matrix 'publication_counts' must map venues to integers")
        missing = [v for v in venues if v not in vectors]
        if missing:
            raise ValueError(f"coupling matrix venue {missing[0]!r} has no vector")
        uncounted = [v for v, vec in vectors.items() if any(c < 1 for c in vec.values())]
        if uncounted:
            raise ValueError(f"coupling matrix venue {uncounted[0]!r} has a reference count below 1")
        negative = [v for v, c in counts.items() if c < 0]
        if negative:
            raise ValueError(f"coupling matrix venue {negative[0]!r} has a negative publication count")
        return cls(venues=venues, vectors=vectors, publication_counts=counts)


def _is_count_map(obj) -> bool:
    return isinstance(obj, dict) and all(type(c) is int for c in obj.values())


def _json_dict(d: dict) -> str:
    """`json.dumps(d, sort_keys=True, indent=0)` for string keys and values
    that are ints or JSON text already."""
    keys = sorted(d)
    if not keys:
        return "{}"
    items = map("{}: {}".format, map(encode_basestring_ascii, keys), map(d.__getitem__, keys))
    return "{\n" + ",\n".join(items) + "\n}"


def build_coupling_matrix(c: Corpus) -> CouplingMatrix:
    """Aggregate reference counts per venue over the full reference lists.

    Records without a venue are skipped; venues whose papers carry no
    references end up with empty vectors and are excluded from the matrix.
    An external key equal to a record id counts as that record's key.
    """
    index = c.reference_index()
    names = [r.record_id for r in c.records] + index.external_keys
    first: dict[str, int] = {}
    key_of = np.fromiter(map(first.setdefault, names, range(len(names))), dtype=np.int64, count=len(names))
    keys = key_of[np.where(index.targets >= 0, index.targets, len(c.records) - 1 - index.targets)]
    venue = np.repeat(index.record_venue, np.diff(index.offsets))
    cells, counts = np.unique(venue[venue >= 0] * len(names) + keys[venue >= 0], return_counts=True)
    cell_venue, cell_key = np.divmod(cells, len(names))
    active, starts = np.unique(cell_venue, return_index=True)
    bounds = [*starts.tolist(), cells.size]
    cell_names, counts = [names[k] for k in cell_key.tolist()], counts.tolist()
    publications = np.bincount(index.record_venue[index.record_venue >= 0], minlength=len(index.venues))
    venues = [index.venues[v] for v in active.tolist()]  # sorted, as venue ids are
    return CouplingMatrix(
        venues=venues,
        vectors={v: dict(zip(cell_names[lo:hi], counts[lo:hi])) for v, lo, hi in zip(venues, bounds, bounds[1:])},
        publication_counts={index.venues[v]: int(publications[v]) for v in active.tolist()},
    )


def build_knowledge_network(m: CouplingMatrix) -> VenueGraph:
    """Undirected venue graph weighted by coupling-vector cosine similarity.

    Every matrix venue becomes a node; venue pairs with orthogonal vectors
    simply carry no edge, and disjoint venues are never compared. Each weight
    is float(dot) / sqrt(float(n_i * n_j)) over exact integer dots and norms,
    the correctly rounded operations of `dot / math.sqrt(n_i * n_j)`.
    """
    names = sorted(m.venues)
    i, j, weights = pair_cosines([m.vectors[venue] for venue in names])
    tails, heads = np.r_[i, j], np.r_[j, i]
    arcs = np.argsort(tails * len(names) + heads)
    attrs = [{"publication_count": m.publication_counts.get(venue, 0)} for venue in names]
    return VenueGraph.from_arcs(names, tails[arcs], heads[arcs], np.r_[weights, weights][arcs], False, attrs)


def pair_cosines(vectors: list[dict[str, int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair i < j of `vectors` with a positive dot, ascending, and its
    cosine float(dot) / sqrt(float(n_i * n_j)) over exact integers."""
    norms = [sum(map(mul, vec.values(), vec.values())) for vec in vectors]
    # By Cauchy-Schwarz every partial dot is at most the largest norm and
    # every norm product at most its square: int64 holds them all or none.
    dtype = object if max(norms, default=0) ** 2 > _INT64_MAX else np.int64
    pairs, dots = _pair_dots(vectors, dtype)
    positive = dots > 0
    vi, vj = np.divmod(pairs[positive], len(vectors))
    norm = np.array(norms, dtype=dtype)
    cosines = dots[positive].astype(np.float64) / np.sqrt((norm[vi] * norm[vj]).astype(np.float64))
    return vi, vj, cosines


def _pair_dots(vectors: list[dict[str, int]], dtype) -> tuple[np.ndarray, np.ndarray]:
    """The dot product of every pair of vectors that share a key, as pair
    ids i * len(vectors) + j (i < j), ascending, and exact sums of `dtype`.

    Gustavson's row-wise sparse product over the key-sorted entries: vector
    i's entries expand to the later vectors sharing their key, the products
    add into one dense accumulator row, and the row's nonzero slots are read
    off and reset. Beside the entry arrays, memory follows one vector's
    expansion and the distinct pairs, not every expanded pair.
    """
    lengths = list(map(len, vectors))
    bounds = [0, *itertools.accumulate(lengths)]  # vector i's entries are bounds[i] .. bounds[i + 1] - 1
    # Entries sorted by key (a key's id is its first entry), vectors
    # ascending inside each key: the entry at sorted position p pairs with
    # the later vectors at p + 1 .. key_end[p] - 1.
    key_id: dict[str, int] = {}
    keys = itertools.chain.from_iterable(vectors)
    ids = np.fromiter(map(key_id.setdefault, keys, itertools.count()), dtype=np.int64, count=bounds[-1])
    count = np.fromiter(itertools.chain.from_iterable(map(dict.values, vectors)), dtype=dtype, count=bounds[-1])
    order = np.argsort(ids, kind="stable")
    owner = np.repeat(np.arange(len(vectors)), lengths)[order]
    sorted_count = count[order]
    starts = np.diff(ids[order], prepend=-1) != 0
    key_end = np.r_[np.flatnonzero(starts)[1:], ids.size][np.cumsum(starts) - 1]
    # Entry e, in vector order, sits at sorted position position[e] and has
    # partners[e] partners. Its products are numbered ends[e] - partners[e]
    # .. ends[e] - 1, in vector order, and product q pairs with the entry at
    # sorted position q + shift[e].
    position = np.empty_like(order)
    position[order] = np.arange(ids.size)
    partners = key_end[position] - position - 1
    ends = np.cumsum(partners)
    shift = position + 1 - (ends - partners)
    first = np.r_[0, ends][bounds].tolist()  # vector i's products are first[i] .. first[i + 1] - 1
    del ids, order, starts, key_end, position, ends  # the row loop reads only what is left

    row = np.zeros(len(vectors), dtype=dtype)
    pair_parts = [np.zeros(0, dtype=np.int64)]
    dot_parts = [np.zeros(0, dtype=dtype)]
    for i, (lo, hi, start, stop) in enumerate(zip(bounds, bounds[1:], first, first[1:])):
        span = partners[lo:hi]
        partner = np.arange(start, stop) + np.repeat(shift[lo:hi], span)
        np.add.at(row, owner[partner], np.repeat(count[lo:hi], span) * sorted_count[partner])
        j = np.flatnonzero(row)
        pair_parts.append(i * len(vectors) + j)
        dot_parts.append(row[j])
        row[j] = 0
    return np.concatenate(pair_parts), np.concatenate(dot_parts)


def build_citation_network(c: Corpus) -> VenueGraph:
    """Directed venue graph with inter-venue citation counts as weights.

    A reference counts when its target resolves to a corpus record. Within-venue
    citations become node metadata (`self_citations`), not edges; venues with
    no citation activity at all are left out.
    """
    index = c.reference_index()
    venues, record_venue = index.venues, index.record_venue
    targets = index.targets
    src = np.repeat(record_venue, np.diff(index.offsets))[targets >= 0]
    dst = record_venue[targets[targets >= 0]]
    live = (src >= 0) & (dst >= 0)
    src, dst = src[live], dst[live]
    self_citations = np.bincount(src[src == dst], minlength=len(venues))
    # venue ids follow venue names, so pair ids ascend as (source, target) names do
    pairs, counts = np.unique(src[src != dst] * len(venues) + dst[src != dst], return_counts=True)
    publications = np.bincount(record_venue[record_venue >= 0], minlength=len(venues))

    active = metrics._distinct(np.concatenate((np.flatnonzero(self_citations), *np.divmod(pairs, len(venues)))))
    attrs = [
        {"publication_count": int(publications[v]), "self_citations": int(self_citations[v])} for v in active.tolist()
    ]
    tails, heads = np.searchsorted(active, np.divmod(pairs, len(venues)))
    return VenueGraph.from_arcs([venues[v] for v in active.tolist()], tails, heads, counts, True, attrs)


@dataclass(frozen=True)
class ThresholdRule:
    """Edge filter: `cosine` keeps weight >= value on undirected graphs,
    `citation` keeps weight > value on directed graphs."""

    kind: str  # "cosine" | "citation"
    value: float

    def __post_init__(self):
        if self.kind not in ("cosine", "citation"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.value != self.value:
            raise ValueError(f"threshold value must be a number, got {self.value!r}")

    def keeps(self, weight):
        """Whether `weight` (or each of an array of weights) passes."""
        if self.kind == "cosine":
            return weight >= self.value
        return weight > self.value


def apply_threshold(g: VenueGraph, rule: ThresholdRule) -> VenueGraph:
    """Reduced copy keeping only edges passing the rule; nodes left isolated
    by the filtering are dropped. Weights are never altered."""
    if rule.kind == "cosine" and g.directed:
        raise ThresholdRuleError("cosine threshold applies to undirected graphs")
    if rule.kind == "citation" and not g.directed:
        raise ThresholdRuleError("citation threshold applies to directed graphs")

    indptr, heads, weights = g.arrays()
    kept = rule.keeps(weights)
    tails, heads, weights = arc_tails(indptr)[kept], heads[kept], weights[kept]
    alive = np.zeros(g.node_count(), dtype=bool)
    alive[tails] = alive[heads] = True
    place = np.cumsum(alive) - 1  # renumbers the survivors in order, so the rows stay sorted
    survivors = np.flatnonzero(alive).tolist()
    names, attrs = list(g.nodes), list(g.nodes.values())
    names, attrs = [names[i] for i in survivors], [dict(attrs[i]) for i in survivors]
    return VenueGraph.from_arcs(names, place[tails], place[heads], weights, g.directed, attrs)


@dataclass
class NetworkSummary:
    nodes: int
    edges: int
    components: int
    density: float
    clustering_coefficient: float

    ROW_NAMES = ("Nodes", "Edges", "Components", "Density", "Clustering coef.")

    def rows(self) -> list[tuple[str, str]]:
        percent = f"{self.density * 100:.2g}"
        return [
            ("Nodes", f"{self.nodes:,}"),
            ("Edges", f"{self.edges:,}"),
            ("Components", f"{self.components:,}"),
            ("Density", "100%" if percent == "1e+02" else f"{percent}%"),  # 99.5% and up round to 1e+02
            ("Clustering coef.", f"{self.clustering_coefficient:.3f}"),
        ]

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "components": self.components,
            "density": self.density,
            "clustering_coefficient": self.clustering_coefficient,
        }


def summarize(g: VenueGraph) -> NetworkSummary:
    return NetworkSummary(
        nodes=g.node_count(),
        edges=g.edge_count(),
        components=len(metrics.connected_components(g)),
        density=metrics.density(g),
        clustering_coefficient=metrics.average_clustering_coefficient(g),
    )


def format_summary_table(summaries: dict[str, NetworkSummary]) -> str:
    """Aligned text table with one column per network."""
    names = list(summaries)
    header = ["Property"] + names
    rows = [header]
    for i, row_name in enumerate(NetworkSummary.ROW_NAMES):
        row = [row_name] + [summaries[name].rows()[i][1] for name in names]
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"

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
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

import numpy as np

from . import metrics
from .arrays import INT64_MAX, arc_tails, distinct, exact, ids, run_starts
from .corpus import Corpus, check_name
from .exports import read_text
from .graph import VenueGraph

COSINE_MIN_DEFAULT = 0.1
CITATION_MIN_DEFAULT = 50.0


@dataclass
class CouplingMatrix:
    """Venue x cited-publication coupling counts as compressed sparse rows.

    Row i is venue venues[i], the venues in name order: the venue cites key
    keys[key_ids[e]] counts[e] times for e in indptr[i] .. indptr[i + 1] - 1,
    key ids ascending. `keys` are the distinct cited keys in name order:
    record ids for in-corpus targets, normalized raw strings otherwise.
    `indptr` and `key_ids` are int64; `counts` is int64, or object (Python
    integers) when a count passes int64. publication_counts[i] is venue i's
    number of publications, in the dtype rule of `counts`. A corpus venue
    with no citations at all has no row; a row may be empty (a cluster whose
    venues cite nothing). The arrays are read, never changed.
    """

    venues: list[str]
    keys: list[str]
    indptr: np.ndarray
    key_ids: np.ndarray
    counts: np.ndarray
    publication_counts: np.ndarray

    @classmethod
    def from_vectors(
        cls, venues: list[str], vectors: Mapping[str, Mapping[str, int]], publication_counts: Mapping[str, int] | None = None
    ) -> "CouplingMatrix":
        """The matrix whose rows are `venues` (in any order), venue v citing
        key k vectors[v][k] times; a venue missing from `publication_counts`
        has 0 publications."""
        venues = sorted(venues)
        rows = [vectors[venue] for venue in venues]
        keys = sorted(set().union(*rows))
        rank = dict(zip(keys, range(len(keys))))
        indptr = np.r_[0, np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)))]
        key_ids = np.fromiter(map(rank.__getitem__, itertools.chain.from_iterable(rows)), dtype=np.int64, count=indptr[-1])
        counts = exact(list(itertools.chain.from_iterable(row.values() for row in rows)))
        order = np.argsort(arc_tails(indptr) * len(keys) + key_ids)  # each row's keys in name order
        publications = publication_counts or {}
        return cls(
            venues=venues,
            keys=keys,
            indptr=indptr,
            key_ids=key_ids[order],
            counts=counts[order],
            publication_counts=exact([publications.get(venue, 0) for venue in venues]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingMatrix):
            return NotImplemented
        arrays = ("indptr", "key_ids", "counts", "publication_counts")
        return (self.venues, self.keys) == (other.venues, other.keys) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays
        )

    @cached_property
    def vectors(self) -> Mapping[str, Mapping[str, int]]:
        """venue -> {key: count}, a read-only view of the rows for readers of
        the dict form; each row's dict is built when it is first read."""
        bounds = self.indptr.tolist()
        return MappingProxyType({venue: _Row(self, lo, hi) for venue, lo, hi in zip(self.venues, bounds, bounds[1:])})

    def save(self, path) -> None:
        """Write the bytes of `json.dumps(..., sort_keys=True, indent=0)` over
        the venues, vectors and publication counts to `path`, row by row
        (`indent` would force json's pure-Python encoder, and hold the whole
        text). Rows and their entries are in name order already; each name
        is encoded once."""
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.writelines(self._json_parts())

    def _json_parts(self) -> Iterator[str]:
        venues = list(map(encode_basestring_ascii, self.venues))
        yield '{\n"publication_counts": ' + _json_object(venues, map(str, self.publication_counts.tolist()))
        if not venues:
            yield ',\n"vectors": {},\n"venues": []\n}'
            return
        keys = [key + ": " for key in map(encode_basestring_ascii, self.keys)]
        top = int(self.counts.max(initial=0))
        # each count's text made once, while there are fewer counts than entries
        numeral = list(map(str, range(top + 1))).__getitem__ if top <= self.counts.size else str
        bounds = self.indptr.tolist()
        separator = ',\n"vectors": {\n'
        for venue, lo, hi in zip(venues, bounds, bounds[1:]):
            entries = map(operator.add, map(keys.__getitem__, self.key_ids[lo:hi].tolist()),
                          map(numeral, self.counts[lo:hi].tolist()))
            yield separator + venue + (": {\n" + ",\n".join(entries) + "\n}" if hi > lo else ": {}")
            separator = ",\n"
        yield '\n},\n"venues": [\n' + ",\n".join(venues) + "\n]\n}"

    @classmethod
    def load(cls, path) -> "CouplingMatrix":
        """The matrix `save` wrote to the file `path`; ValueError names the file."""
        text = read_text(path)
        try:
            return cls.from_json(text)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "CouplingMatrix":
        """The matrix `save` wrote, as text; ValueError names what is malformed."""
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("coupling matrix JSON nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("coupling matrix must be a JSON object")
        venues, vectors = obj.get("venues"), obj.get("vectors")
        counts = obj.get("publication_counts", {})
        if not isinstance(venues, list) or not all(isinstance(v, str) for v in venues) or len(set(venues)) != len(venues):
            raise ValueError("coupling matrix 'venues' must be a list of distinct strings")
        for venue in venues:
            check_name(venue, "coupling matrix venue")
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
        listed = set(venues)
        for part, named in (("vector", vectors), ("publication count", counts)):
            unlisted = [v for v in named if v not in listed]
            if unlisted:
                raise ValueError(f"coupling matrix {part} of {unlisted[0]!r} names no venue of 'venues'")
        return cls.from_vectors(venues, vectors, counts)


class _Row(Mapping):
    """One row of a CouplingMatrix as a read-only key -> count mapping."""

    def __init__(self, m: CouplingMatrix, lo: int, hi: int):
        self._m, self._lo, self._hi = m, lo, hi

    def __len__(self) -> int:
        return self._hi - self._lo

    @cached_property
    def _items(self) -> dict[str, int]:
        m, lo, hi = self._m, self._lo, self._hi
        return dict(zip(map(m.keys.__getitem__, m.key_ids[lo:hi].tolist()), m.counts[lo:hi].tolist()))

    def __getitem__(self, key: str) -> int:
        return self._items[key]

    def __iter__(self):
        return iter(self._items)


def _is_count_map(obj) -> bool:
    return isinstance(obj, dict) and all(type(c) is int for c in obj.values())


def _json_object(keys: list[str], values) -> str:
    """`json.dumps(..., indent=0)` of an object whose keys, in order, are the
    JSON strings `keys` and whose values are the JSON texts `values`."""
    if not keys:
        return "{}"
    return "{\n" + ",\n".join(map("{}: {}".format, keys, values)) + "\n}"


def build_coupling_matrix(c: Corpus) -> CouplingMatrix:
    """Aggregate reference counts per venue over the full reference lists.

    Records without a venue are skipped; venues whose papers carry no
    references get no row. An external key equal to a record id counts as
    that record's key. One sort of the (venue, key rank) code of every
    reference gives the rows, their entries and the counts. The
    reference-sized arrays are worked in place, each dropped after its last
    read.
    """
    index = c.reference_index()
    records, slots = len(c.ids), len(c.ids) + len(index.external_keys)
    venue = np.repeat(index.record_venue, np.diff(index.offsets))
    kept = venue >= 0
    # Each reference's target as a slot: its record row, or records + k for
    # external key k. Only the cited slots are named and ranked.
    slot = index.targets[kept]
    venue = venue[kept]
    del kept
    np.subtract(records - 1, slot, out=slot, where=slot < 0)
    cited = np.zeros(slots, dtype=bool)
    cited[slot] = True
    cited = np.flatnonzero(cited).tolist()
    names = [c.ids[i] if i < records else index.external_keys[i - records] for i in cited]
    keys = sorted(set(names))  # by name: an external key equal to a record id is that record's key
    rank = np.zeros(slots, dtype=np.int64)
    rank[cited] = np.fromiter(map(dict(zip(keys, range(len(keys)))).__getitem__, names), dtype=np.int64, count=len(names))
    del cited, names
    codes = rank[slot]
    del rank, slot
    venue *= len(keys)
    codes += venue
    del venue
    codes.sort()
    starts = run_starts(codes)
    row_venue, key_ids = np.divmod(codes[starts], max(len(keys), 1))
    counts = np.diff(starts, append=codes.size)
    del codes, starts
    entries = np.bincount(row_venue, minlength=len(index.venues))
    del row_venue
    active = np.flatnonzero(entries)  # venue ids follow venue names
    publications = np.bincount(index.record_venue[index.record_venue >= 0], minlength=len(index.venues))
    return CouplingMatrix(
        venues=[index.venues[v] for v in active.tolist()],
        keys=keys,
        indptr=np.r_[0, np.cumsum(entries[active])],
        key_ids=key_ids,
        counts=counts,
        publication_counts=publications[active],
    )


def build_knowledge_network(m: CouplingMatrix) -> VenueGraph:
    """Undirected venue graph weighted by coupling-vector cosine similarity.

    Every matrix venue becomes a node; venue pairs with orthogonal vectors
    simply carry no edge, and disjoint venues are never compared. Each weight
    is float(dot) / sqrt(float(n_i * n_j)) over exact integer dots and norms,
    the correctly rounded operations of `dot / math.sqrt(n_i * n_j)`.

    The pairs i < j come in (i, j) order, so they are the upper arcs in
    order, and a stable sort by j gives the lower arcs (j, i) in order. Row
    r holds its lower arcs, then its upper arcs, each placed by row counts.
    """
    n = len(m.venues)
    i, j, weights = pair_cosines(m.indptr, m.key_ids, m.counts)
    lower_count, upper_count = np.bincount(j, minlength=n), np.bincount(i, minlength=n)
    # upper arc k follows the arcs of the rows before i[k] and row i[k]'s lower arcs
    upper = np.cumsum(lower_count)[i]
    upper += np.arange(i.size)
    # the k-th lower arc, of tail j, follows the upper arcs of the rows before j
    by_tail = np.argsort(j, kind="stable")
    lower = (np.cumsum(upper_count) - upper_count)[j[by_tail]]
    lower += np.arange(i.size)
    heads = np.empty(2 * i.size, dtype=np.int64)
    heads[upper] = j
    heads[lower] = i[by_tail]
    del i, j
    arc_weights = np.empty(heads.size)
    arc_weights[upper] = weights
    arc_weights[lower] = weights[by_tail]
    del weights, by_tail, upper, lower
    tails = np.repeat(np.arange(n, dtype=ids(n)), lower_count + upper_count)
    attrs = [{"publication_count": count} for count in m.publication_counts.tolist()]
    return VenueGraph.from_arcs(m.venues, tails, heads, arc_weights, False, attrs)


# A block of consecutive rows of the sparse product holds at most this many
# accumulator cells, or one row's if that alone is more,
PRODUCT_BLOCK_CELLS = 1 << 16
# and expands at most this many products, or one row's if that alone is more.
PRODUCT_BLOCK_TERMS = 1 << 15


def pair_cosines(indptr: np.ndarray, key_ids: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pair i < j of the sparse rows (indptr, key_ids, counts; key ids
    ascending in each row) that shares a key, in ascending order, and its
    cosine float(dot) / sqrt(float(n_i * n_j)) over exact integers. i and j
    are int32 while the row ids fit."""
    top = int(counts.max(initial=0))
    if counts.dtype != object and top * top * counts.size <= INT64_MAX:  # every partial sum of squares fits
        sums = np.zeros(counts.size + 1, dtype=np.int64)
        np.multiply(counts, counts, out=sums[1:])
    else:
        sums = np.r_[0, counts.astype(object) ** 2]
    np.cumsum(sums, out=sums)
    norms = np.diff(sums[indptr])
    del sums
    # By Cauchy-Schwarz every partial dot is at most the largest norm and
    # every norm product at most its square: int64 holds them all or none.
    dtype = object if max(norms.tolist(), default=0) ** 2 > INT64_MAX else np.int64
    pairs, dots = _pair_dots(indptr, key_ids, counts.astype(dtype, copy=False))
    n = indptr.size - 1
    vi, vj = np.divmod(pairs, n)
    del pairs
    vi, vj = vi.astype(ids(n), copy=False), vj.astype(ids(n), copy=False)
    norm = norms.astype(dtype)
    products = norm[vi]
    products *= norm[vj]
    cosines = dots.astype(np.float64)
    del dots
    roots = products.astype(np.float64)
    del products
    cosines /= np.sqrt(roots, out=roots)
    return vi, vj, cosines


def _pair_dots(indptr: np.ndarray, key_ids: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dot product of every pair of rows that share a key, as pair ids
    i * n + j (i < j, n rows), ascending, and exact sums of counts' dtype.

    Gustavson's row-wise sparse product over blocks of consecutive rows:
    each entry of a block expands to the later rows citing its key, the
    products add into one dense accumulator, and its nonzero cells are read
    off in order and reset. In a block of rows from `start`, row i's dot
    with a later row j adds into cell (i - start) * (n - start) + j - start.
    Beside the entry arrays (int32 while rows and entries fit), memory
    follows the two block bounds and the distinct pairs.
    """
    n = indptr.size - 1
    index = ids(max(n, key_ids.size))
    # Entries sorted stably by key, so rows ascend inside each key (a radix
    # sort while key ids fit 16 bits): entry e pairs with the entries at the
    # partners[e] sorted positions after its own. Its products are numbered
    # ends[e] - partners[e] .. ends[e] - 1, and product q pairs with the
    # entry at sorted position q + shift[e].
    order = np.argsort(key_ids.astype(np.min_scalar_type(int(key_ids.max(initial=0)))), kind="stable").astype(index)
    position = np.empty_like(order)
    position[order] = np.arange(order.size, dtype=index)
    partners = np.cumsum(np.bincount(key_ids)).astype(index)[key_ids]
    partners -= position
    partners -= 1
    ends = np.cumsum(partners, dtype=np.int64)
    shift = ends - partners
    np.subtract(position + 1, shift, out=shift)
    del position
    first = np.r_[0, ends][indptr]  # row i's products are first[i] .. first[i + 1] - 1
    del ends
    owner = arc_tails(indptr).astype(index)
    sorted_owner, sorted_count = owner[order], counts[order]
    del order

    cells = np.zeros(min(n * n, max(n, PRODUCT_BLOCK_CELLS)), dtype=counts.dtype)
    pair_parts = [np.zeros(0, dtype=np.int64)]
    dot_parts = [np.zeros(0, dtype=counts.dtype)]
    start = 0
    while start < n:
        width = n - start
        fit = int(np.searchsorted(first, first[start] + PRODUCT_BLOCK_TERMS, side="right")) - 1
        stop = min(n, start + max(1, PRODUCT_BLOCK_CELLS // width), max(start + 1, fit))
        lo, hi = indptr[start], indptr[stop]
        span = partners[lo:hi]
        partner = np.repeat(shift[lo:hi], span)
        partner += np.arange(first[start], first[stop])
        cell = np.repeat((owner[lo:hi].astype(np.int64) - start) * width - start, span)
        cell += sorted_owner[partner]
        products = np.repeat(counts[lo:hi], span)
        products *= sorted_count[partner]
        del partner
        np.add.at(cells, cell, products)
        del cell, products
        nonzero = np.flatnonzero(cells[: (stop - start) * width])
        i, j = np.divmod(nonzero, width)
        pair_parts.append((i + start) * n + j + start)
        dot_parts.append(cells[nonzero])
        cells[nonzero] = 0
        start = stop
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

    active = distinct(np.concatenate((np.flatnonzero(self_citations), *np.divmod(pairs, len(venues)))))
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
        raise ValueError("cosine threshold applies to undirected graphs")
    if rule.kind == "citation" and not g.directed:
        raise ValueError("citation threshold applies to directed graphs")

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

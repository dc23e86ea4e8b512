"""Cross-corpus record linkage.

Matching runs in three stages: canopy blocking on author last names, a cheap
Jaccard similarity over title token sets to discard clear non-matches, and an
expensive Smith-Waterman local alignment to confirm the survivors. Each left
(metadata) record keeps at most its single best right (citation) partner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .corpus import Corpus, PublicationRecord

DEFAULT_JACCARD_MIN = 0.5
DEFAULT_SW_MIN = 0.9
DEFAULT_SW_MATCH = 2
DEFAULT_SW_MISMATCH = -1
DEFAULT_SW_GAP = -1


@dataclass(frozen=True, slots=True)
class MatchPair:
    left: str
    right: str
    jaccard: float
    sw_similarity: float


@dataclass(slots=True)
class Canopy:
    key: str
    left_members: list[str] = field(default_factory=list)
    right_members: list[str] = field(default_factory=list)


def tokenize_title(title: str) -> frozenset[str]:
    """Lowercased word-token set: punctuation stripped, duplicates collapsed."""
    cleaned = "".join(c if c.isalnum() else " " for c in title.lower())
    return frozenset(cleaned.split())


def jaccard_title_similarity(t1: frozenset[str], t2: frozenset[str]) -> float:
    if not t1 and not t2:
        return 1.0
    inter = len(t1 & t2)
    if inter == 0:
        return 0.0
    return inter / (len(t1) + len(t2) - inter)


def smith_waterman_similarity(
    s1: str,
    s2: str,
    match: int = DEFAULT_SW_MATCH,
    mismatch: int = DEFAULT_SW_MISMATCH,
    gap: int = DEFAULT_SW_GAP,
) -> float:
    """Best local alignment score normalized by the maximum achievable score,
    match * min(len(s1), len(s2)). Empty operands score 0. Rolling two-row DP.
    """
    if not s1 or not s2:
        return 0.0
    if s1 == s2:
        return 1.0
    # iterate rows over the longer string so the rolling arrays stay short
    if len(s2) > len(s1):
        s1, s2 = s2, s1
    n2 = len(s2)
    prev = [0] * (n2 + 1)
    best = 0
    for a in s1:
        cur = [0] * (n2 + 1)
        for j in range(1, n2 + 1):
            score = prev[j - 1] + (match if a == s2[j - 1] else mismatch)
            up = prev[j] + gap
            if up > score:
                score = up
            left = cur[j - 1] + gap
            if left > score:
                score = left
            if score > 0:
                cur[j] = score
                if score > best:
                    best = score
        prev = cur
    return best / (match * n2)


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


def unmatchable_records(corpus: Corpus) -> list[str]:
    """Record ids that can never be blocked (no authors)."""
    return [r.record_id for r in corpus.records if not r.authors]


def _comparison_title(title: str) -> str:
    return " ".join(title.lower().split())


def link_corpora(
    a: Corpus,
    b: Corpus,
    jaccard_min: float = DEFAULT_JACCARD_MIN,
    sw_min: float = DEFAULT_SW_MIN,
    sw_match: int = DEFAULT_SW_MATCH,
    sw_mismatch: int = DEFAULT_SW_MISMATCH,
    sw_gap: int = DEFAULT_SW_GAP,
) -> list[MatchPair]:
    """Match records of corpus a (left) to corpus b (right).

    Every cross-corpus pair sharing a canopy is gated by Jaccard, confirmed by
    Smith-Waterman, then reduced to one best partner per left record (highest
    alignment score, ties to the lexicographically smallest right id).
    """
    tokens_a = {r.record_id: tokenize_title(r.title) for r in a.records}
    tokens_b = {r.record_id: tokenize_title(r.title) for r in b.records}
    titles_a = {r.record_id: _comparison_title(r.title) for r in a.records}
    titles_b = {r.record_id: _comparison_title(r.title) for r in b.records}

    pairs: set[tuple[str, str]] = set()
    for canopy in canopy_partition(a, b):
        for left in canopy.left_members:
            for right in canopy.right_members:
                pairs.add((left, right))

    best: dict[str, MatchPair] = {}
    for left, right in sorted(pairs):
        j = jaccard_title_similarity(tokens_a[left], tokens_b[right])
        if j < jaccard_min:
            continue
        s = smith_waterman_similarity(
            titles_a[left], titles_b[right], sw_match, sw_mismatch, sw_gap
        )
        if s < sw_min:
            continue
        candidate = MatchPair(left=left, right=right, jaccard=j, sw_similarity=s)
        incumbent = best.get(left)
        if (
            incumbent is None
            or candidate.sw_similarity > incumbent.sw_similarity
            or (
                candidate.sw_similarity == incumbent.sw_similarity
                and candidate.right < incumbent.right
            )
        ):
            best[left] = candidate
    return [best[left] for left in sorted(best)]


def right_to_left_ids(matches: list[MatchPair]) -> dict[str, str]:
    """Metadata id of each matched citation id; a right id matched by several
    left records goes to the smallest left id."""
    right_to_left: dict[str, str] = {}
    for pair in matches:
        if pair.right not in right_to_left or pair.left < right_to_left[pair.right]:
            right_to_left[pair.right] = pair.left
    return right_to_left


def attach_references(meta: Corpus, cite: Corpus, matches: list[MatchPair]) -> Corpus:
    """Carry reference lists from matched citation records onto the metadata
    corpus, rewriting targets that are themselves matched citation records to
    the corresponding metadata ids."""
    right_to_left = right_to_left_ids(matches)
    left_to_right = {pair.left: pair.right for pair in matches}

    records: list[PublicationRecord] = []
    for rec in meta.records:
        right_id = left_to_right.get(rec.record_id)
        if right_id is None:
            records.append(replace(rec))
            continue
        refs = tuple(
            right_to_left.get(target, target)
            for target in cite.record(right_id).references
        )
        records.append(replace(rec, references=refs))
    return Corpus(records=records, venue_table=dict(meta.venue_table), source=meta.source)


MATCHES_HEADER = "left_id\tright_id\tjaccard\tsw_similarity"


def write_matches(matches: list[MatchPair], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(MATCHES_HEADER + "\n")
        for pair in sorted(matches, key=lambda p: p.left):
            fh.write(f"{pair.left}\t{pair.right}\t{pair.jaccard!r}\t{pair.sw_similarity!r}\n")


def read_matches(path) -> list[MatchPair]:
    matches = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != MATCHES_HEADER:
            raise ValueError(f"unexpected matches header: {header!r}")
        for line in fh:
            left, right, j, s = line.rstrip("\n").split("\t")
            matches.append(MatchPair(left=left, right=right, jaccard=float(j), sw_similarity=float(s)))
    return matches

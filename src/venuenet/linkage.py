"""Cross-corpus record linkage.

Matching runs in three stages: canopy blocking on author last names, a cheap
Jaccard similarity over title token sets to discard clear non-matches, and an
expensive Smith-Waterman local alignment to confirm the survivors. Blocking
and prefix filtering, which skips the pairs that cannot pass the Jaccard gate,
are one sort-join over integer codes of last-name keys and title tokens. Each
left (metadata) record keeps at most its single best right (citation) partner.
"""

from __future__ import annotations

import math
import re
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .arrays import FirstSeenIds, arc_tails, concat_ranges, distinct
from .corpus import Corpus, normalize_reference_key
from .exports import read_table, unit_float, write_table

DEFAULT_JACCARD_MIN = 0.5
DEFAULT_SW_MIN = 0.9
# The one Smith-Waterman scoring: match +2, mismatch -1, gap -1.
SW_MATCH = 2
SW_MISMATCH = -1
SW_GAP = -1


@dataclass(frozen=True, slots=True)
class MatchPair:
    left: str
    right: str
    jaccard: float
    sw_similarity: float


# A token is a run of alphanumeric characters (str.isalnum): word
# characters other than the underscore.
_TOKEN = re.compile(r"[^\W_]+")


def tokenize_title(title: str) -> frozenset[str]:
    """Lowercased word-token set: punctuation stripped, duplicates collapsed."""
    return frozenset(_TOKEN.findall(title.lower()))


def jaccard_title_similarity(t1: frozenset[str], t2: frozenset[str]) -> float:
    if not t1 and not t2:
        return 1.0
    inter = len(t1 & t2)
    if inter == 0:
        return 0.0
    return inter / (len(t1) + len(t2) - inter)


# Half-width of the first alignment band; a second, certified pass widens it.
SW_BAND = 2
# Pairs scored per batch: enough to spread numpy's per-row cost, few enough
# that a batch of 60-character titles holds about 4 MB.
SW_CHUNK = 4096


def _code_columns(strings: list[str], starts: list[int], height: int) -> np.ndarray:
    """(height, len(strings)) int32 matrix whose column p holds the code
    points of strings[p] from row starts[p] on, spaces around them. Every
    str encodes, lone surrogates included."""
    text = "".join([(" " * start + s).ljust(height) for start, s in zip(starts, strings)])
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), "<i4")
    return codes.reshape(len(strings), height).T.copy()


def _banded_sw_best(s1s: list[str], s2s: list[str], w: np.ndarray) -> np.ndarray:
    """Best local alignment score of each pair (s1s[p], s2s[p]) over the
    cells -w[p] <= i - j <= (n1 - n2) + w[p] of its (n1 + 1) x (n2 + 1)
    table, n1 = len(s1) >= n2 = len(s2) >= 1; cells outside the band read
    as 0. Pairs whose band widths n1 - n2 + 2w + 1 share a power of two and
    whose lengths n1 share one run as one batch, so no pair is padded to more
    than twice its band or twice its length."""
    n1 = np.fromiter(map(len, s1s), np.int64, len(s1s))
    n2 = np.fromiter(map(len, s2s), np.int64, len(s2s))
    band_exp = np.frexp(n1 - n2 + 2 * w + 1)[1]
    rows_exp = np.frexp(n1)[1]
    order = np.lexsort((-n1, rows_exp, band_exp))
    cuts = np.flatnonzero(np.diff(band_exp[order]) | np.diff(rows_exp[order])) + 1
    best = np.empty(len(s1s), np.int64)
    for batch in np.split(order, cuts):
        best[batch] = _banded_sw_batch([s1s[k] for k in batch], [s2s[k] for k in batch], n1[batch], n2[batch], w[batch])
    return best


def _banded_sw_batch(s1s: list[str], s2s: list[str], n1: np.ndarray, n2: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`_banded_sw_best` of one batch whose pairs come longest s1 first; n1
    and n2 are their lengths.

    All pairs advance one table row at a time, each pair a column of the
    arrays. Cell (i, j) is stored at d = j - i + off, off = n1 - n2 + w, so a
    pair's band is d < n1 - n2 + 2w + 1 and the row above holds the diagonal
    and up neighbours at d and d + 1. s2 is laid out shifted down by off, so
    row i compares s1[i - 1] with one plain slice, and row i touches only the
    pairs with n1 >= i.
    """
    count = len(s1s)
    off = n1 - n2 + w
    band = off + w + 1
    width = int(band.max())
    rows = int(n1[0])
    s1_codes = _code_columns(s1s, [0] * count, rows)
    s2_codes = _code_columns(s2s, off.tolist(), rows + width - 1)
    # row k of s2_codes is column j = k - off + 1 of the table
    k = np.arange(rows + width - 1)[:, None]
    off_table = (k < off) | (k >= off + n2)
    live = np.searchsorted(-n1, -np.arange(rows), side="left")
    off_band = np.arange(width)[:, None] >= band
    ramp = np.arange(width)[:, None] * SW_GAP
    # the row above, overwritten in place by each new row; its row `width`
    # stays 0, the cell above a band's end
    above = np.zeros((width + 1, count), np.int64)
    up, step = np.empty((2, width, count), np.int64)
    best = np.zeros(count, np.int64)
    for r, p in enumerate(live.tolist()):
        score = above[:width, :p]
        np.add(above[1:, :p], SW_GAP, out=up[:, :p])
        np.equal(s2_codes[r : r + width, :p], s1_codes[r, :p], out=step[:, :p])
        step[:, :p] *= SW_MATCH - SW_MISMATCH
        score += step[:, :p]
        score += SW_MISMATCH
        np.maximum(score, up[:, :p], out=score)
        np.maximum(score, 0, out=score)
        # the left neighbour: score[d] = max(score[d], score[d - 1] + gap)
        # unrolls to d * gap + max(score[k] - k * gap for k <= d). Cells off
        # the table count as 0: with gap < 0 they feed no cell of the table,
        # and no cell of the table reads one past its end in the next row.
        np.copyto(score, 0, where=off_table[r : r + width, :p])
        score -= ramp
        np.maximum.accumulate(score, axis=0, out=score)
        score += ramp
        np.copyto(score, 0, where=off_band[:, :p])
        np.maximum(best[:p], score.max(axis=0), out=best[:p])
    return best


def smith_waterman_similarities(pairs: Iterable[tuple[str, str]]) -> list[float]:
    """`smith_waterman_similarity` of every pair, scored in batches of
    SW_CHUNK pairs, so the working set follows one batch, not the input."""
    pairs = iter(pairs)
    scores: list[float] = []
    while chunk := list(islice(pairs, SW_CHUNK)):
        scores += _similarities(chunk)
    return scores


def _similarities(pairs: list[tuple[str, str]]) -> list[float]:
    """`smith_waterman_similarities` of one batch."""
    scores = [0.0] * len(pairs)
    todo, longer, shorter = [], [], []
    for k, (s1, s2) in enumerate(pairs):
        if not s1 or not s2:
            continue
        if s1 == s2:
            scores[k] = 1.0
            continue
        # the table's rows run along the longer string
        if len(s2) > len(s1):
            s1, s2 = s2, s1
        todo.append(k)
        longer.append(s1)
        shorter.append(s2)
    if not todo:
        return scores
    n2 = np.fromiter(map(len, shorter), np.int64, len(shorter))
    best = _banded_sw_best(longer, shorter, np.full_like(n2, SW_BAND))
    redo = np.flatnonzero(best <= SW_MATCH * (n2 - SW_BAND - 1))
    if redo.size:
        best[redo] = _banded_sw_best(
            [longer[k] for k in redo], [shorter[k] for k in redo], n2[redo] - best[redo] // SW_MATCH
        )
    for k, b, n in zip(todo, best.tolist(), n2.tolist()):
        scores[k] = b / (SW_MATCH * n)
    return scores


def smith_waterman_similarity(s1: str, s2: str) -> float:
    """Best local alignment score normalized by the maximum achievable score,
    SW_MATCH * min(len(s1), len(s2)). Empty operands score 0.

    The score is exact. An alignment scores at most SW_MATCH per diagonal
    step, and one that leaves the band of half-width w makes at most
    n2 - w - 1 of them. So a banded best B above SW_MATCH * (n2 - w - 1) is
    the table's best; otherwise one more pass with w = n2 - B // SW_MATCH
    certifies itself.

    A call is a batch of one pair and pays the batch's fixed numpy cost for
    every table row (1 to 2 ms for a 60-character pair); score many
    pairs with one call of `smith_waterman_similarities`.
    """
    return smith_waterman_similarities([(s1, s2)])[0]


def unmatchable_records(corpus: Corpus) -> list[str]:
    """Record ids that can never be blocked (no authors)."""
    return [corpus.ids[row] for row in np.flatnonzero(np.diff(corpus.author_offsets) == 0).tolist()]


def _min_overlap(t: float, size: int) -> int:
    """Fewest tokens a title of `size` tokens shares with any partner whose
    Jaccard with it reaches t, as |x & y| >= t * |x | y| >= t * |x|. The product
    is shrunk by a relative 1e-9 before rounding up, so float error (in it or
    in the gate's rounded quotient) can only lower the result."""
    return math.ceil(t * size * (1.0 - 1e-9))


def _value_ids(values_per_record: Iterable[Collection[str]], ids: FirstSeenIds) -> tuple[np.ndarray, np.ndarray]:
    """The ids of each record's values, concatenated in record order, and
    how many each record has."""
    flat: list[int] = []
    counts: list[int] = []
    for values in values_per_record:
        counts.append(len(values))
        flat += map(ids.__getitem__, values)
    return np.array(flat, np.int64), np.array(counts, np.int64)


@dataclass
class _Side:
    """One corpus as linkage sees it: per record (by row) its distinct title
    token ids `tokens[starts[r]:starts[r] + sizes[r]]` and its distinct
    last-name key ids, and the rows in record-id order."""

    tokens: np.ndarray
    sizes: np.ndarray
    starts: np.ndarray
    keys: np.ndarray
    key_counts: np.ndarray
    by_id: np.ndarray

    @classmethod
    def of(cls, c: Corpus, token_ids: FirstSeenIds, key_ids: FirstSeenIds) -> "_Side":
        # one title's token set at a time: only the ids outlive it
        tokens, sizes = _value_ids(map(tokenize_title, c.titles), token_ids)
        # each distinct name's key once, then each record's distinct keys by one sort
        offsets, authors, distinct_authors = c.author_index()
        name_key = np.fromiter((key_ids[a.last_name_key] for a in distinct_authors), np.int64, len(distinct_authors))
        width = max(len(key_ids), 1)
        codes = distinct(arc_tails(offsets) * width + name_key[authors])
        keys, key_counts = codes % width, np.bincount(codes // width, minlength=offsets.size - 1)
        return cls(tokens, sizes, np.cumsum(sizes) - sizes, keys, key_counts, c.id_order().astype(np.int64))

    def key_rows(self) -> np.ndarray:
        """The row of each entry of `keys`."""
        return np.repeat(np.arange(self.key_counts.size), self.key_counts)

    def block_codes(self, rank: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """key * (T + 1) + token rank for every (last-name key, prefix token)
        of each record, T = len(rank), and the record's row. A record's prefix
        is its keep[r] lowest-ranked tokens; an empty title has one
        pseudo-token ranked T, which only empty titles share."""
        width = rank.size + 1
        empty = np.flatnonzero(self.sizes == 0)
        owner = np.concatenate((np.repeat(np.arange(self.sizes.size), self.sizes), empty))
        # each record's group stays in place, sorted by rank
        code = np.sort(owner * width + np.concatenate((rank[self.tokens], np.full(empty.size, rank.size))))
        counts = np.maximum(self.sizes, 1)
        owner = code // width
        prefix = code[np.arange(code.size) - (np.cumsum(counts) - counts)[owner] < keep[owner]] % width
        prefix_counts = np.minimum(keep, counts)
        key_rows = self.key_rows()
        token, entry = concat_ranges((np.cumsum(prefix_counts) - prefix_counts)[key_rows], prefix_counts[key_rows])
        return self.keys[entry] * width + prefix[token], key_rows[entry]


def _candidates(
    a: Corpus, b: Corpus, t: float, funnel: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows (left in a, right in b) of every pair sharing a last-name key
    whose titles may reach Jaccard t, in (left id, right id) order, and
    their Jaccard values (`jaccard_title_similarity`).

    With t > 0, prefix and length filtering leave a superset of the pairs
    that reach t. Tokens are ranked rare first (ties by the token). Two titles
    that share at least o tokens share one among the first |x| - o + 1 of
    each, so a record offers only its first |x| - _min_overlap(t, |x|) + 1
    tokens, and a pair also needs t * |x| <= |y| <= |x| / t. The pairs are one
    sort-join of the codes key * (T + 1) + token over the two sides. With
    t <= 0 (or NaN), pairs sharing no token pass, so the code is the key.
    """
    token_ids, key_ids = FirstSeenIds(), FirstSeenIds()
    left, right = _Side.of(a, token_ids, key_ids), _Side.of(b, token_ids, key_ids)
    if funnel is not None:
        shared = np.bincount(left.keys, minlength=len(key_ids)) * np.bincount(right.keys, minlength=len(key_ids))
        funnel["canopy_pairs"] = int(shared.sum())
    tokens = len(token_ids)
    if t > 0:
        names = list(token_ids)
        by_name = np.empty(tokens, np.int64)
        by_name[sorted(range(tokens), key=names.__getitem__)] = np.arange(tokens)
        order = np.lexsort((by_name, np.bincount(np.concatenate((left.tokens, right.tokens)), minlength=tokens)))
        rank = np.empty_like(order)
        rank[order] = np.arange(tokens)
        longest = max(left.sizes.max(initial=0), right.sizes.max(initial=0))
        need_of = np.array([_min_overlap(t, size) for size in range(longest + 1)], np.int64)
        need_left, need_right = need_of[left.sizes], need_of[right.sizes]
        left_codes, left_rows = left.block_codes(rank, np.maximum(left.sizes - need_left + 1, 0))
        right_codes, right_rows = right.block_codes(rank, np.maximum(right.sizes - need_right + 1, 0))
    else:
        left_codes, left_rows = left.keys, left.key_rows()
        right_codes, right_rows = right.keys, right.key_rows()
    order = np.argsort(right_codes, kind="stable")
    right_codes, right_rows = right_codes[order], right_rows[order]
    lo = np.searchsorted(right_codes, left_codes, "left")
    found, entry = concat_ranges(lo, np.searchsorted(right_codes, left_codes, "right") - lo)
    pair_left, pair_right = left_rows[entry], right_rows[found]
    if t > 0:
        fits = (need_left[pair_left] <= right.sizes[pair_right]) & (need_right[pair_right] <= left.sizes[pair_left])
        pair_left, pair_right = pair_left[fits], pair_right[fits]
    # pair ids ascend as (left id, right id) do
    left_pos, right_pos = np.empty_like(left.by_id), np.empty_like(right.by_id)
    left_pos[left.by_id] = np.arange(left_pos.size)
    right_pos[right.by_id] = np.arange(right_pos.size)
    pairs = distinct(left_pos[pair_left] * right_pos.size + right_pos[pair_right])
    pair_left, pair_right = left.by_id[pairs // right_pos.size], right.by_id[pairs % right_pos.size]
    return pair_left, pair_right, _jaccards(left, right, pair_left, pair_right, tokens + 1)


def _jaccards(left: _Side, right: _Side, pair_left: np.ndarray, pair_right: np.ndarray, width: int) -> np.ndarray:
    """`jaccard_title_similarity` of each pair, token ids below `width`: the
    union is the number of distinct (pair, token) codes, the intersection
    |x| + |y| - union, and two empty titles give 1.0."""
    left_token, left_pair = concat_ranges(left.starts[pair_left], left.sizes[pair_left])
    right_token, right_pair = concat_ranges(right.starts[pair_right], right.sizes[pair_right])
    codes = np.concatenate((left_pair * width + left.tokens[left_token], right_pair * width + right.tokens[right_token]))
    union = np.bincount(distinct(codes) // width, minlength=pair_left.size)
    inter = left.sizes[pair_left] + right.sizes[pair_right] - union
    return np.divide(inter, union, out=np.ones(union.size), where=union > 0)


def link_corpora(
    a: Corpus,
    b: Corpus,
    jaccard_min: float = DEFAULT_JACCARD_MIN,
    sw_min: float = DEFAULT_SW_MIN,
    funnel: dict | None = None,
) -> list[MatchPair]:
    """Match records of corpus a (left) to corpus b (right).

    Every cross-corpus pair sharing a last-name key whose titles can reach
    `jaccard_min` (see `_candidates`) is gated by Jaccard, confirmed by
    Smith-Waterman, then reduced to one best partner per left record (highest
    alignment score, ties to the lexicographically smallest right id).

    `funnel`, when given, receives the pair counts of each step in place:
    `canopy_pairs` (left x right records per shared key, so a pair sharing
    two keys counts twice), `candidates`, `jaccard_survivors`,
    `sw_confirmed` and `matches`.
    """
    pair_left, pair_right, jaccards = _candidates(a, b, jaccard_min, funnel)
    passed = ~(jaccards < jaccard_min)  # a NaN gate lets every pair through
    survivors = list(zip(pair_left[passed].tolist(), pair_right[passed].tolist()))
    scores = smith_waterman_similarities(
        (normalize_reference_key(a.titles[left]), normalize_reference_key(b.titles[right])) for left, right in survivors
    )

    best: dict[str, MatchPair] = {}
    confirmed = 0
    for (left, right), j, s in zip(survivors, jaccards[passed].tolist(), scores):
        if s < sw_min:
            continue
        confirmed += 1
        candidate = MatchPair(left=a.ids[left], right=b.ids[right], jaccard=j, sw_similarity=s)
        incumbent = best.get(candidate.left)
        if (
            incumbent is None
            or candidate.sw_similarity > incumbent.sw_similarity
            or (
                candidate.sw_similarity == incumbent.sw_similarity
                and candidate.right < incumbent.right
            )
        ):
            best[candidate.left] = candidate
    if funnel is not None:
        funnel.update(candidates=pair_left.size, jaccard_survivors=len(survivors), sw_confirmed=confirmed, matches=len(best))
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
    corpus, and rewrite every target, carried or a record's own, that is a
    matched citation id to its metadata id (the only place matches change
    where a reference points)."""
    return meta.linked(cite, {pair.left: pair.right for pair in matches}, right_to_left_ids(matches))


MATCHES_HEADER = "left_id\tright_id\tjaccard\tsw_similarity"


def write_matches(matches: list[MatchPair], path) -> None:
    rows = ((p.left, p.right, p.jaccard, p.sw_similarity) for p in sorted(matches, key=lambda p: p.left))
    write_table(path, MATCHES_HEADER, rows)


def read_matches(path) -> list[MatchPair]:
    """The pairs of a file written by write_matches: each left id at most
    once, a right id in every row, both scores in [0, 1]."""
    parse = {"right_id": _right_id, "jaccard": partial(unit_float, what="jaccard"),
             "sw_similarity": partial(unit_float, what="sw_similarity")}
    _, rows = read_table(path, MATCHES_HEADER, "matches", key=("left_id",), parse=parse)
    return [MatchPair(*row) for row in rows]


def _right_id(text: str) -> str:
    if not text:
        raise ValueError("empty right_id")
    return text

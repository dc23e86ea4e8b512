import json
import random
import string
import tracemalloc

import numpy as np
import pytest

from click.testing import CliRunner

from conftest import corpus_from_lines
from oracles import banded_sw_best_loop, extract_citation_subgraph, sw_score_matrix, tokenize_title_loop
import venuenet.corpus
from venuenet import linkage
from venuenet.cli import main
from venuenet.corpus import last_name_key, load_corpus
from venuenet.exports import load_graph
from venuenet.linkage import (
    DEFAULT_SW_MIN,
    SW_BAND,
    SW_MATCH,
    MatchPair,
    attach_references,
    jaccard_title_similarity,
    link_corpora,
    smith_waterman_similarities,
    smith_waterman_similarity,
    tokenize_title,
    unmatchable_records,
    write_matches,
)
from venuenet.networks import CouplingMatrix, build_citation_network, build_coupling_matrix
from venuenet.synth import linkage_benchmark_corpora

JACCARD_GATES = (0, 0.05, 0.1, 1 / 3, 0.5, 2 / 3, 0.7, 0.9, 1.0)


def make_corpus(entries, source):
    """entries: list of (id, title, [author names])"""
    lines = [
        '{"id": "%s", "title": "%s", "authors": %s}'
        % (rid, title, str(list(authors)).replace("'", '"'))
        for rid, title, authors in entries
    ]
    return corpus_from_lines(*lines, source=source)


def random_text(rng, length, alphabet=string.ascii_lowercase):
    return "".join(rng.choice(alphabet) for _ in range(length))


def with_typos(text, count, rng):
    """`count` single-character inserts, deletes or substitutions."""
    for _ in range(count):
        pos = rng.randrange(len(text) + 1)
        op = rng.choice(("insert", "delete", "substitute"))
        if op == "insert":
            text = text[:pos] + rng.choice(string.ascii_lowercase) + text[pos:]
        elif pos < len(text):
            text = text[:pos] + (rng.choice(string.ascii_lowercase) if op == "substitute" else "") + text[pos + 1 :]
    return text


def near_duplicate_pairs(rng, count, words_per_title=(4, 12)):
    """Title pairs shaped like the linkage workload's: a title of random
    words and a copy with up to six typos, or one shifted by as many inserts
    at the front as deletes at the back."""
    words = [random_text(rng, rng.randint(2, 9)) for _ in range(200)]
    pairs = []
    for _ in range(count):
        title = " ".join(rng.choice(words) for _ in range(rng.randint(*words_per_title)))
        if rng.random() < 0.8:
            other = with_typos(title, rng.randint(0, 6), rng)
        else:
            shift = rng.randint(0, 3)
            other = random_text(rng, shift) + title[: len(title) - shift]
        pairs.append((title, other))
    return pairs


def brute_force_link(a, b, jmin, smin, score=smith_waterman_similarity):
    """All cross pairs sharing any last-name key, gated and reduced to one
    best partner per left record like link_corpora, each pair scored alone
    by `score`."""
    best = {}
    for ra in a.records:
        keys_a = {au.last_name_key for au in ra.authors}
        for rb in b.records:
            if not keys_a & {au.last_name_key for au in rb.authors}:
                continue
            j = jaccard_title_similarity(tokenize_title(ra.title), tokenize_title(rb.title))
            if j < jmin:
                continue
            s = score(" ".join(ra.title.lower().split()), " ".join(rb.title.lower().split()))
            if s < smin:
                continue
            cur = best.get(ra.record_id)
            if cur is None or s > cur[1] or (s == cur[1] and rb.record_id < cur[0]):
                best[ra.record_id] = (rb.record_id, s, j)
    return [
        MatchPair(left=left, right=right, jaccard=j, sw_similarity=s)
        for left, (right, s, j) in sorted(best.items())
    ]


class TestTokenizer:
    def test_punctuation_and_case(self):
        assert tokenize_title("Mapping the Backbone of Science.") == frozenset(
            {"mapping", "the", "backbone", "of", "science"}
        )

    def test_duplicates_collapse(self):
        assert tokenize_title("data data data") == frozenset({"data"})

    def test_no_empty_tokens(self):
        assert tokenize_title("!!! ... ---") == frozenset()

    def test_underscore_and_unicode_separate_tokens(self):
        assert tokenize_title("snake_case Straße 2ⁿ Ⅻ") == frozenset({"snake", "case", "straße", "2ⁿ", "ⅻ"})

    def test_every_code_point_equals_character_scan(self):
        # Space-separated blocks: where the two disagree on a character, one
        # has a token holding it and the other has none, so the sets differ.
        for start in range(0, 0x110000, 256):
            title = " ".join(map(chr, range(start, min(start + 256, 0x110000))))
            assert tokenize_title(title) == tokenize_title_loop(title), hex(start)

    def test_random_mixed_strings_equal_character_scan(self):
        rng = random.Random(17)
        alphabet = string.ascii_letters + string.digits + string.punctuation + " \t_" + "éßİıǅⅫ²٣€—\u0301\u00a0"
        for _ in range(3000):
            title = "".join(rng.choice(alphabet) if rng.random() < 0.9 else chr(rng.randrange(0x110000))
                            for _ in range(rng.randrange(30)))
            assert tokenize_title(title) == tokenize_title_loop(title), repr(title)


class TestJaccard:
    def test_identical(self):
        t = tokenize_title("graph mining at scale")
        assert jaccard_title_similarity(t, t) == 1.0

    def test_disjoint(self):
        assert jaccard_title_similarity(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_half_overlap(self):
        # {a,b,c} vs {b,c,d}: 2 shared of 4 total
        assert jaccard_title_similarity(frozenset("abc"), frozenset("bcd")) == 0.5

    def test_both_empty(self):
        assert jaccard_title_similarity(frozenset(), frozenset()) == 1.0

    def test_symmetric(self):
        rng = random.Random(3)
        for _ in range(50):
            t1 = frozenset(rng.choices(string.ascii_lowercase, k=rng.randint(0, 8)))
            t2 = frozenset(rng.choices(string.ascii_lowercase, k=rng.randint(0, 8)))
            assert jaccard_title_similarity(t1, t2) == jaccard_title_similarity(t2, t1)


class TestSmithWaterman:
    def test_identical_strings(self):
        s = "venue level networks"
        assert smith_waterman_similarity(s, s) == 1.0
        assert sw_score_matrix(s, s) == 1.0

    def test_empty_operand(self):
        assert smith_waterman_similarity("", "data mining") == 0.0
        assert smith_waterman_similarity("data mining", "") == 0.0

    def test_against_oracle_example(self):
        expected = sw_score_matrix("data mining", "data minning")
        assert smith_waterman_similarity("data mining", "data minning") == expected
        assert 0.8 < expected < 1.0

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(9)
        alphabet = "abcdef "
        for _ in range(400):
            s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
            s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
            assert smith_waterman_similarity(s1, s2) == sw_score_matrix(s1, s2)

    def test_symmetric(self):
        rng = random.Random(10)
        for _ in range(100):
            s1 = "".join(rng.choice("abc") for _ in range(rng.randint(1, 30)))
            s2 = "".join(rng.choice("abc") for _ in range(rng.randint(1, 30)))
            assert smith_waterman_similarity(s1, s2) == smith_waterman_similarity(s2, s1)

    def test_range(self):
        rng = random.Random(11)
        for _ in range(100):
            s1 = "".join(rng.choice("ab") for _ in range(rng.randint(1, 20)))
            s2 = "".join(rng.choice("ab") for _ in range(rng.randint(1, 20)))
            value = smith_waterman_similarity(s1, s2)
            assert 0.0 <= value <= 1.0

    def test_near_duplicate_titles_match_oracle(self):
        rng = random.Random(12)
        words = [random_text(rng, rng.randint(2, 9)) for _ in range(200)]
        for _ in range(300):
            title = " ".join(rng.choice(words) for _ in range(rng.randint(4, 12)))
            typos = with_typos(title, rng.randint(0, 6), rng)
            shift = rng.randint(0, 3)  # as many inserts at the front as deletes at the back
            shifted = random_text(rng, shift) + title[: len(title) - shift]
            for other in (typos, shifted):
                assert smith_waterman_similarity(title, other) == sw_score_matrix(title, other), (title, other)

    def test_optimum_off_the_band_matches_oracle(self):
        rng = random.Random(13)
        cases = []
        for _ in range(40):
            x, y, z = (random_text(rng, rng.randint(lo, hi)) for lo, hi in ((8, 30), (10, 40), (5, 30)))
            cases += [
                (x + y, y + z),  # a suffix of one aligns with a prefix of the other
                (y + x, z + y),
                (random_text(rng, rng.randint(60, 120)) + with_typos(y, 2, rng) + x, y),
                (y[:4] * rng.randint(5, 15), y[1:4] * rng.randint(2, 8)),
                (random_text(rng, 150, "ab"), random_text(rng, rng.randint(1, 6), "ab")),
            ]
        for s1, s2 in cases:
            assert smith_waterman_similarity(s1, s2) == sw_score_matrix(s1, s2), (s1, s2)


class TestBatchKernel:
    """The batched diagonal-row kernel against the one-cell-at-a-time loop."""

    @staticmethod
    def oriented(pairs):
        return [(s1, s2) if len(s1) >= len(s2) else (s2, s1) for s1, s2 in pairs if s1 and s2]

    def assert_equals_loop(self, pairs, widths):
        s1s, s2s = (list(side) for side in zip(*pairs))
        got = linkage._banded_sw_best(s1s, s2s, np.array(widths))
        assert got.tolist() == [banded_sw_best_loop(s1, s2, w) for (s1, s2), w in zip(pairs, widths)]
        return got

    def test_equals_loop_at_the_first_the_certified_and_the_full_band(self):
        rng = random.Random(41)
        pairs = near_duplicate_pairs(rng, 150)
        for _ in range(60):
            alphabet = rng.choice(("ab", "abc ", string.ascii_lowercase + " "))
            pairs.append((random_text(rng, rng.randint(1, 70), alphabet), random_text(rng, rng.randint(1, 70), alphabet)))
        pairs = self.oriented(pairs)
        n2 = [len(s2) for _, s2 in pairs]
        first = self.assert_equals_loop(pairs, [SW_BAND] * len(pairs))
        self.assert_equals_loop(pairs, [n - b // SW_MATCH for n, b in zip(n2, first.tolist())])
        self.assert_equals_loop(pairs, n2)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_batches_and_bands_equal_loop(self, seed):
        rng = random.Random(seed)
        pairs = self.oriented(
            (random_text(rng, rng.randint(1, 40), "abcd "), random_text(rng, rng.randint(1, 40), "abcd "))
            for _ in range(rng.randint(1, 80))
        )
        self.assert_equals_loop(pairs, [rng.randint(0, len(s2) + 2) for _, s2 in pairs])

    def test_pair_scores_the_same_alone_and_in_a_shuffled_batch(self):
        rng = random.Random(43)
        pairs = near_duplicate_pairs(rng, 40) + [
            ("", ""), ("", "data"), ("data", ""), ("same title", "same title"), ("x", "y"), ("a", "a"),
            ("a" * 90, "a"), ("b", "ab" * 45), ("graph theory", "graph teory"),
        ]
        for _ in range(40):
            pairs.append((random_text(rng, rng.randint(0, 100), "abc "), random_text(rng, rng.randint(0, 12), "abc ")))
        rng.shuffle(pairs)
        alone = [smith_waterman_similarity(s1, s2) for s1, s2 in pairs]
        assert smith_waterman_similarities(pairs) == alone
        assert alone == [sw_score_matrix(s1, s2) for s1, s2 in pairs]
        assert smith_waterman_similarities([]) == []

    def test_code_points_of_surrogates_astral_characters_and_combining_marks(self):
        pairs = [
            ("\ud800", "\ud800"), ("a\ud800b", "a\udc00b"), ("x\udfffy z", "x\udfffy"),
            ("\U0001F600 smile", "\U0001F601 smile"), ("\U0001F600", "\U0001F600"),
            ("cafe\u0301 au lait", "caf\u00e9 au lait"), ("e\u0301\u0301", "e\u0301"),
            ("\x00 nul", "\x00 nul"), ("\uffff\U0010ffff", "\U0010ffff\uffff"),
        ]
        assert smith_waterman_similarities(pairs) == [sw_score_matrix(s1, s2) for s1, s2 in pairs]
        assert [smith_waterman_similarity(s1, s2) for s1, s2 in pairs] == [sw_score_matrix(s1, s2) for s1, s2 in pairs]

    @staticmethod
    def traced_peak(pairs):
        tracemalloc.start()
        try:
            smith_waterman_similarities(pairs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_follows_the_code_matrices(self):
        # 3,000 pairs of about 60 characters and one pair of 3,000 take
        # 1.8 MB: the int32 code matrices, the off-table mask and a few rows
        # of band cells per pair. Padding every second-pass band to the
        # widest (161 cells against a median of 13) took 8.3 MB, and padding
        # every title in a band's batch to the long one's length 90 MB.
        rng = random.Random(47)
        pairs = near_duplicate_pairs(rng, 3000, words_per_title=(8, 10))
        assert 55 <= sum(len(s1) for s1, _ in pairs) / len(pairs) <= 65
        long_title = random_text(rng, 3000)
        pairs.append((long_title, long_title[:1500] + "#" + long_title[1501:]))
        assert self.traced_peak(pairs) <= 5e6

    def test_memory_follows_one_batch(self):
        # three batches of pairs take 2.8 MB; scored as one batch, 13 MB
        rng = random.Random(53)
        pairs = near_duplicate_pairs(rng, 3 * linkage.SW_CHUNK, words_per_title=(8, 10))
        assert self.traced_peak(iter(pairs)) <= 5e6


def blocked_pairs(a, b, jaccard_min=0.0):
    """The (left id, right id) candidate pairs of `linkage._candidates`, in
    its order, and the funnel's canopy pair count."""
    funnel = {}
    left, right, _ = linkage._candidates(a, b, jaccard_min, funnel)
    ids = [(a.records[i].record_id, b.records[j].record_id) for i, j in zip(left.tolist(), right.tolist())]
    return ids, funnel["canopy_pairs"]


class TestCanopies:
    def test_shared_last_name(self):
        a = make_corpus([("a1", "Paper one", ["Michael Ley"])], "metadata-corpus")
        b = make_corpus([("b1", "Paper two", ["M. Ley"])], "citation-corpus")
        assert blocked_pairs(a, b) == ([("a1", "b1")], 1)

    def test_record_in_multiple_canopies(self):
        a = make_corpus([("a1", "Joint work", ["Michael Ley", "Ralf Klamma"])], "metadata-corpus")
        b = make_corpus(
            [("b1", "On Ley things", ["M. Ley"]), ("b2", "On Klamma things", ["R. Klamma"]),
             ("b3", "Joint work", ["R. Klamma", "M. Ley"])],
            "citation-corpus",
        )
        # b3 shares both keys: one candidate, two canopy pairs
        assert blocked_pairs(a, b) == ([("a1", "b1"), ("a1", "b2"), ("a1", "b3")], 4)

    def test_disjoint_names_no_canopies(self):
        a = make_corpus([("a1", "X", ["Alice Aa"])], "metadata-corpus")
        b = make_corpus([("b1", "X", ["Bob Bb"])], "citation-corpus")
        assert blocked_pairs(a, b) == ([], 0)
        assert blocked_pairs(a, b, 0.5) == ([], 0)

    def test_key_computed_once_per_distinct_name_of_each_side(self, monkeypatch):
        calls = []
        monkeypatch.setattr(venuenet.corpus, "last_name_key", lambda name: calls.append(name) or last_name_key(name))
        a = make_corpus([("a1", "Joint work", ["José Peña", "Alan Turing"]), ("a2", "More work", ["Alan Turing"]),
                         ("a3", "Solo work", ["José Peña", "José Peña"])], "metadata-corpus")
        b = make_corpus([("b1", "Joint work", ["Alan Turing", "Ada Lovelace"]), ("b2", "Other", ["Ada Lovelace"])],
                        "citation-corpus")
        assert blocked_pairs(a, b) == ([("a1", "b1"), ("a2", "b1")], 2)
        assert calls == ["Alan Turing", "José Peña", "Ada Lovelace", "Alan Turing"]

    def test_no_author_records_unmatchable(self):
        a = make_corpus([("a1", "X", [])], "metadata-corpus")
        b = make_corpus([("b1", "X", ["Bob Bb"])], "citation-corpus")
        assert blocked_pairs(a, b) == ([], 0)
        assert unmatchable_records(a) == ["a1"]
        assert unmatchable_records(b) == []


class TestLinkCorpora:
    def test_identical_pair(self):
        a = make_corpus([("a1", "Mapping the backbone of science", ["K. Borner"])], "metadata-corpus")
        b = make_corpus([("b1", "Mapping the backbone of science", ["K. Borner"])], "citation-corpus")
        matches = link_corpora(a, b)
        assert matches == [MatchPair(left="a1", right="b1", jaccard=1.0, sw_similarity=1.0)]

    def test_same_title_different_names_never_compared(self):
        a = make_corpus([("a1", "Same title entirely", ["Alice Aa"])], "metadata-corpus")
        b = make_corpus([("b1", "Same title entirely", ["Bob Bb"])], "citation-corpus")
        assert link_corpora(a, b) == []

    def test_trailing_punctuation_matches_and_jaccard_gates(self):
        a = make_corpus(
            [("a1", "Mapping the backbone of science", ["K. Borner"])], "metadata-corpus"
        )
        b = make_corpus(
            [
                ("b1", "Mapping the backbone of science.", ["K. Borner"]),
                ("b2", "Totally unrelated robot survey results", ["J. Borner"]),
            ],
            "citation-corpus",
        )
        # hand-checked gate values: identical token sets -> jaccard 1.0; the
        # unrelated title shares zero tokens -> 0.0 < 0.5 cut
        t1 = tokenize_title("Mapping the backbone of science")
        assert jaccard_title_similarity(t1, tokenize_title("Mapping the backbone of science.")) == 1.0
        assert jaccard_title_similarity(t1, tokenize_title("Totally unrelated robot survey results")) == 0.0
        matches = link_corpora(a, b)
        assert len(matches) == 1
        assert matches[0].right == "b1"
        assert matches[0].sw_similarity == 1.0  # full local alignment of the shorter title

    def test_one_best_per_left_with_tiebreak(self):
        a = make_corpus([("a1", "Exact same words", ["C. Dd"])], "metadata-corpus")
        b = make_corpus(
            [("b2", "Exact same words", ["C. Dd"]), ("b1", "Exact same words", ["C. Dd"])],
            "citation-corpus",
        )
        matches = link_corpora(a, b)
        assert len(matches) == 1
        assert matches[0].right == "b1"  # lexicographically smallest on ties

    def test_blocking_completeness_against_exhaustive(self):
        rng = random.Random(21)
        surnames = [f"Name{i}" for i in range(12)]
        words = [f"w{i}" for i in range(30)]

        def random_entries(prefix, count):
            return [
                (
                    f"{prefix}{i}",
                    " ".join(rng.choice(words) for _ in range(6)),
                    [f"A. {rng.choice(surnames)}" for _ in range(rng.randint(1, 2))],
                )
                for i in range(count)
            ]

        a = make_corpus(random_entries("a", 80), "metadata-corpus")
        b = make_corpus(random_entries("b", 80), "citation-corpus")
        assert link_corpora(a, b, jaccard_min=0.4, sw_min=0.5) == brute_force_link(a, b, 0.4, 0.5)

    @pytest.mark.parametrize("jmin", JACCARD_GATES)
    def test_candidates_match_all_pairs_on_benchmark_corpora(self, jmin):
        meta, cite, _ = linkage_benchmark_corpora(n=200)
        assert link_corpora(meta, cite, jaccard_min=jmin) == brute_force_link(meta, cite, jmin, DEFAULT_SW_MIN)

    @pytest.mark.parametrize("smin", (0.0, 0.5))
    @pytest.mark.parametrize("jmin", JACCARD_GATES)
    def test_candidates_match_all_pairs_with_empty_and_one_token_titles(self, jmin, smin):
        rng = random.Random(23)
        words = [random_text(rng, 2, "abcdef") * rng.randint(1, 2) for _ in range(12)]
        left, right = [], []
        for i in range(60):
            title = " ".join(rng.choice(words) for _ in range(rng.choice((0, 0, 1, 1, 2, 3, 4))))
            mangle = rng.choice(("copy", "join", "drop", "typo", "new"))
            if mangle == "join":  # a lost space: no shared token, a good alignment
                other = title.replace(" ", "", 1)
            elif mangle == "drop":
                other = " ".join(title.split()[1:])
            elif mangle == "typo" and title:
                other = with_typos(title, 1, rng)
            elif mangle == "new":
                other = " ".join(rng.choice(words) for _ in range(rng.randint(0, 3)))
            else:
                other = title
            left.append((f"a{i:02d}", title, [f"A. Name{rng.randrange(4)}"]))
            right.append((f"b{i:02d}", other, [f"B. Name{rng.randrange(4)}"]))
        a = make_corpus(left, "metadata-corpus")
        b = make_corpus(right, "citation-corpus")
        got = link_corpora(a, b, jaccard_min=jmin, sw_min=smin)
        assert got == brute_force_link(a, b, jmin, smin)
        if jmin == 0 and smin > 0:
            assert any(m.jaccard == 0.0 for m in got)
        if smin == 0:
            assert any(a.record(m.left).title == b.record(m.right).title == "" for m in got)

    @pytest.mark.parametrize("jmin", (0, 0.3))
    def test_titles_with_surrogates_astral_characters_and_combining_marks(self, jmin):
        # JSON's "\\ud800" decodes to a lone surrogate, which UTF-8 cannot
        # encode; ASCII-only JSON carries every title.
        rng = random.Random(29)
        alphabet = ["a", "b", "\u00e9", "e\u0301", "\u0301", "\ud800", "\udc01", "\U0001F600", "\U00010400"]
        words = ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))) for _ in range(15)]
        left, right = [], []
        for i in range(40):
            title = " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            other = title if rng.random() < 0.3 else " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
            left.append((f"a{i:02d}", json.dumps(title)[1:-1], [f"A. Name{rng.randrange(3)}"]))
            right.append((f"b{i:02d}", json.dumps(other)[1:-1], [f"B. Name{rng.randrange(3)}"]))
        a = make_corpus(left, "metadata-corpus")
        b = make_corpus(right, "citation-corpus")
        assert any("\ud800" in r.title for r in a.records) and any("\U0001F600" in r.title for r in b.records)
        got = link_corpora(a, b, jaccard_min=jmin, sw_min=0.5)
        assert got == brute_force_link(a, b, jmin, 0.5, score=sw_score_matrix)
        assert any(m.sw_similarity < 1.0 for m in got)

    def test_pair_exactly_at_the_gate_survives_float_rounding(self):
        # 0.55 * 100 is 55.00000000000001 in floats, but 55 of 100 tokens give 0.55
        words = [f"w{i}" for i in range(100)]
        a = make_corpus([("a1", " ".join(words), ["X. Same"])], "metadata-corpus")
        b = make_corpus([("b1", " ".join(words[:55]), ["X. Same"])], "citation-corpus")
        assert 0.55 * 100 > 55
        assert link_corpora(a, b, jaccard_min=0.55) == [MatchPair(left="a1", right="b1", jaccard=0.55, sw_similarity=1.0)]

    def test_threshold_monotonicity(self):
        rng = random.Random(33)
        words = [f"tok{i}" for i in range(12)]
        entries_a, entries_b = [], []
        for i in range(40):
            title = " ".join(rng.choice(words) for _ in range(5))
            entries_a.append((f"a{i}", title, ["X. Shared"]))
            entries_b.append((f"b{i}", " ".join(rng.choice(words) for _ in range(5)), ["X. Shared"]))
        a = make_corpus(entries_a, "metadata-corpus")
        b = make_corpus(entries_b, "citation-corpus")
        counts = []
        for jmin, smin in [(0.1, 0.1), (0.3, 0.3), (0.5, 0.5), (0.7, 0.7), (0.9, 0.9)]:
            counts.append(len(link_corpora(a, b, jaccard_min=jmin, sw_min=smin)))
        assert counts == sorted(counts, reverse=True)


class TestAttachReferences:
    def test_rewrites_matched_targets(self):
        meta = corpus_from_lines(
            '{"id": "m1", "title": "One", "authors": ["A B"], "venue": "v1"}',
            '{"id": "m2", "title": "Two", "authors": ["A B"], "venue": "v2"}',
        )
        cite = corpus_from_lines(
            '{"source": "citation-corpus"}',
            '{"id": "c1", "title": "One", "authors": ["A B"], "refs": ["c2", "ext thing"]}',
            '{"id": "c2", "title": "Two", "authors": ["A B"], "refs": []}',
        )
        matches = [
            MatchPair(left="m1", right="c1", jaccard=1.0, sw_similarity=1.0),
            MatchPair(left="m2", right="c2", jaccard=1.0, sw_similarity=1.0),
        ]
        linked = attach_references(meta, cite, matches)
        assert linked.record("m1").references == ("m2", "ext thing")
        assert linked.record("m2").references == ()
        assert linked.venue_table == meta.venue_table

    def test_unmatched_records_keep_own_references(self):
        meta = corpus_from_lines('{"id": "m1", "title": "One", "refs": ["keep me"]}')
        cite = corpus_from_lines('{"source": "citation-corpus"}', '{"id": "c9", "title": "Other"}')
        linked = attach_references(meta, cite, [])
        assert linked.record("m1").references == ("keep me",)


def _write_lines(path, *lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestOneResolutionRule:
    """A matched citation id is rewritten to its metadata id first; a target
    then resolves when it is a record id; otherwise it is an external key."""

    CITE = ('{"source": "citation-corpus"}', '{"id": "c2", "title": "Two"}')

    def _linked(self, *meta_lines):
        meta = corpus_from_lines(*meta_lines)
        cite = corpus_from_lines(*self.CITE)
        return attach_references(meta, cite, [MatchPair(left="m2", right="c2", jaccard=1.0, sw_similarity=1.0)])

    def _assert_points_at_m2(self, linked):
        assert linked.record("m1").references == ("m2",)
        assert list(build_citation_network(linked).edges()) == [("A", "B", 1.0)]
        assert build_coupling_matrix(linked).vectors["A"] == {"m2": 1}
        assert list(extract_citation_subgraph(linked, "A").graph.nodes) == ["m2"]

    def test_unmatched_record_own_reference_to_a_matched_citation_id(self):
        self._assert_points_at_m2(
            self._linked(
                '{"id": "m1", "title": "One", "venue": "A", "refs": ["c2"]}',
                '{"id": "m2", "title": "Two", "venue": "B"}',
            )
        )

    def test_matched_id_first_when_the_target_is_also_a_record_id(self):
        meta_lines = (
            '{"id": "m1", "title": "One", "venue": "A", "refs": ["c2"]}',
            '{"id": "m2", "title": "Two", "venue": "B"}',
            '{"id": "c2", "title": "Three", "venue": "C"}',
        )
        self._assert_points_at_m2(self._linked(*meta_lines))

    def test_attach_writes_the_linked_corpus_build_reads(self, tmp_path):
        meta = _write_lines(
            tmp_path / "meta.jsonl",
            '{"id": "m1", "title": "One", "venue": "A", "refs": ["c2", "c2"]}',
            '{"id": "m2", "title": "Two", "venue": "B", "refs": ["own ref"]}',
            '{"id": "c2", "title": "Three", "venue": "C"}',
        )
        cite = _write_lines(tmp_path / "cite.jsonl", *self.CITE[:1], '{"id": "c2", "title": "Two", "refs": ["c2"]}')
        pairs = [MatchPair(left="m2", right="c2", jaccard=1.0, sw_similarity=1.0)]
        matches, linked = tmp_path / "matches.tsv", tmp_path / "linked.jsonl"
        write_matches(pairs, matches)
        runner = CliRunner()
        args = ["attach", "--left", str(meta), "--right", str(cite), "--matches", str(matches), "--out", str(linked)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert load_corpus(linked) == attach_references(load_corpus(meta), load_corpus(cite), pairs)
        out, matrix = tmp_path / "f.tsv", tmp_path / "coupling.json"
        result = runner.invoke(main, ["build", str(linked), "--network", "citation", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert list(load_graph(out).edges()) == [("A", "B", 2.0)]
        assert load_graph(out).nodes["B"]["self_citations"] == 1
        result = runner.invoke(
            main, ["build", str(linked), "--network", "knowledge", "--out", str(tmp_path / "k.tsv"), "--matrix-out", str(matrix)]
        )
        assert result.exit_code == 0, result.output
        assert CouplingMatrix.from_json(matrix.read_text(encoding="utf-8")).vectors == {"A": {"m2": 2}, "B": {"m2": 1}}

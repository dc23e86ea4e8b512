"""Linkage blocking is one integer sort-join over last-name key and title
token ids. Its candidate pairs, their order and their Jaccard values must
equal those of the per-canopy prefix index it replaced, and the last-name
key's ASCII fast path must equal the NFKD fold."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import canopy_partition, last_name_key_nfkd, linkage_candidates_loop
from venuenet import linkage
from venuenet.corpus import CITATION_CORPUS, METADATA_CORPUS, AuthorName, Corpus, PublicationRecord, last_name_key
from venuenet.synth import linkage_benchmark_corpora

SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

GATES = (0.0, 0.3, 0.5, 1.0, math.nan)
# shared, rare and non-ASCII tokens; "Straße" and "STRASSE" stay two tokens
WORDS = ["graph", "graph", "mining", "of", "the", "été", "Straße", "STRASSE", "2ⁿ", "x", "y", "z", "data"]
# several spellings per key ("ley", "pena", "gruß"), and names with no letters left after folding
NAMES = ["Michael Ley", "M. LEY", "José Peña", "J. Pena", "Łukasz Gruß", "L. Gruß", "Ralf Klamma", "Madonna", "\uff2c\uff45\uff59", "X. Ø"]


@st.composite
def corpus_pairs(draw):
    """A left and a right corpus with unique ids in any order, empty titles
    and records without authors among them."""
    sides = []
    for source in (METADATA_CORPUS, CITATION_CORPUS):
        ids = draw(st.lists(st.text(alphabet="ab9é", min_size=1, max_size=4), unique=True, max_size=14))
        records = [
            PublicationRecord(
                rid,
                draw(st.lists(st.sampled_from(WORDS), max_size=6).map(" - ".join)),
                tuple(AuthorName(name) for name in draw(st.lists(st.sampled_from(NAMES), max_size=3))),
                None, None, (),
            )
            for rid in ids
        ]
        sides.append(Corpus(records=records, venue_table={}, source=source))
    return sides


def candidates(a, b, t, funnel=None):
    left, right, jaccards = linkage._candidates(a, b, t, funnel)
    ids = [(a.records[i].record_id, b.records[j].record_id) for i, j in zip(left.tolist(), right.tolist())]
    return list(zip(ids, jaccards.tolist()))


@SETTINGS
@given(corpus_pairs(), st.sampled_from(GATES))
def test_candidates_and_jaccards_equal_the_per_canopy_index(pair, t):
    a, b = pair
    funnel = {}
    assert candidates(a, b, t, funnel) == list(linkage_candidates_loop(a, b, t).items())
    assert funnel["canopy_pairs"] == sum(len(c.left_members) * len(c.right_members) for c in canopy_partition(a, b))


@pytest.mark.parametrize("t", (0.3, 0.5, 0.7, 0.9))
def test_candidates_equal_the_per_canopy_index_on_benchmark_corpora(t):
    meta, cite, _ = linkage_benchmark_corpora(n=600, last_name_pool=40)
    got = candidates(meta, cite, t)
    assert len(got) > 200
    assert got == list(linkage_candidates_loop(meta, cite, t).items())


# ASCII with blanks, combining marks, astral characters and lone surrogates
NAME_TEXT = st.text(alphabet=st.characters(exclude_categories=())) | st.text(
    alphabet=st.sampled_from(["a", "B", " ", "\t", "-", ".", "\u0301", "\u0308", "é", "ß", "İ", "\U0001D400", "\ud800", "\udfff"])
)


@SETTINGS
@given(NAME_TEXT)
def test_last_name_key_equals_the_nfkd_fold(name):
    assert last_name_key(name) == last_name_key_nfkd(name)

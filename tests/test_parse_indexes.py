"""The parsers hand `Corpus` the id -> row dict they build while reading.
A corpus so made must hold the same indexes as one rebuilt from its records
alone, and one object per distinct target, venue key and year. Its author index and id order
must equal a walk of its records."""

import gc
import io
import json
import tracemalloc
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import saved_bytes
from oracles import author_index_walk, id_order_walk
from venuenet.arrays import ids
from venuenet.corpus import (
    CORPUS_SOURCES,
    Corpus,
    normalize_reference_key,
    parse_dblp_xml,
    parse_jsonl,
    slice_by_year,
)
from venuenet.linkage import MatchPair, attach_references
from venuenet.synth import scale_corpus, split_for_linkage

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# raw citations: several normalize to one key, and "P1" to a record id's spelling
RAW_TARGETS = ["classic book", "Classic  Book", " other work", "P1", "x"]
HEADERS = [{"source": source} for source in CORPUS_SOURCES]
YEARS = [None, 1990, 1995, 2000]
VENUE_LINES = [{"venue_key": "v2", "kind": "journal"}, {"venue_key": "v9", "name": "Nine"}]


@st.composite
def jsonl_corpora(draw):
    """A JSONL corpus whose references point forward and back, repeat
    targets and mix in raw citations, with venue lines and source headers
    anywhere, one after the records included; and the source to parse it as."""
    ids = draw(st.lists(st.sampled_from(["p1", "p2", "p3", "p4"]) | st.text(min_size=1, max_size=3), unique=True, max_size=12))
    targets = st.sampled_from(ids + RAW_TARGETS)
    lines = []
    for rid in ids:
        rec = {"id": rid, "title": "T", "refs": draw(st.lists(targets, max_size=6))}
        venue = draw(st.sampled_from([None, "v1", "v2", "v3"]))
        if venue is not None:
            rec["venue"] = venue
        year = draw(st.sampled_from(YEARS))
        if year is not None:
            rec["year"] = year
        lines.append(rec)
    for extra in draw(st.lists(st.sampled_from(HEADERS + VENUE_LINES), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(HEADERS)))
    data = "".join(json.dumps(obj) + "\n" for obj in lines).encode("utf-8")
    return data, draw(st.sampled_from(CORPUS_SOURCES))


KEYS = ["journals/a/1", "journals/a/2", "conf/b/3", "conf/b/4", "journals/c/d/5", "x/6", "7"]
CITES = KEYS + ["...", " ", "Some Book", "some  book", " journals/a/1 "]


@st.composite
def dblp_corpora(draw):
    """A DBLP XML corpus: records with and without a venue prefix in their
    keys, citing one another in any order, raw strings and `...`."""
    parts = ["<dblp>"]
    for key in draw(st.lists(st.sampled_from(KEYS), unique=True)):
        tag = draw(st.sampled_from(["article", "inproceedings", "phdthesis"]))
        cites = "".join(f"<cite>{escape(c)}</cite>" for c in draw(st.lists(st.sampled_from(CITES), max_size=5)))
        year = draw(st.sampled_from(YEARS))
        year = "" if year is None else f"<year>{year}</year>"
        parts.append(f"<{tag} key={quoteattr(key)}><author>A B</author><title>T</title>{year}{cites}</{tag}>")
    parts.append("</dblp>")
    return "".join(parts).encode("utf-8")


def reference_index_loop(c: Corpus) -> dict[str, list]:
    """The reference index by one dictionary lookup per reference: a
    target's row when it names a record, else -1 - k for the k-th distinct
    normalized target met in record order."""
    rows = {r.record_id: i for i, r in enumerate(c.records)}
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


def assert_index_is_the_loops(c: Corpus) -> None:
    index, want = c.reference_index(), reference_index_loop(c)
    for name, value in want.items():
        got = getattr(index, name)
        assert (got if isinstance(got, list) else got.tolist()) == value, name
    refs = want["targets"]
    assert c.reference_counts() == (len(refs), len({t for r in c.records for t in r.references}))


def assert_one_object_per_value(parsed: Corpus) -> None:
    """Every distinct reference target, venue key and year of the records is
    one object."""
    for values in (
        [t for r in parsed.records for t in r.references],
        [r.venue_key for r in parsed.records if r.venue_key is not None],
        [r.year for r in parsed.records if r.year is not None],
    ):
        assert len({id(v) for v in values}) == len(set(values))


def assert_derived_corpora(parsed: Corpus) -> None:
    """A slice and a linked rewrite, built from records alone, index as the
    loop does."""
    assert_index_is_the_loops(slice_by_year(parsed, 1995))
    meta, cite = split_for_linkage(parsed)
    cite = parse_jsonl(io.BytesIO(saved_bytes(cite)), source=cite.source)
    matches = [MatchPair(r.record_id, "cx-" + r.record_id, 1.0, 1.0) for r in meta.records[::2]]
    assert_index_is_the_loops(attach_references(meta, cite, matches))


def assert_same_indexes(parsed: Corpus) -> None:
    rebuilt = Corpus(parsed.records, parsed.venue_table, parsed.source)
    assert list(parsed._rows.items()) == list(rebuilt._rows.items())
    got, want = parsed.reference_index(), rebuilt.reference_index()
    assert got.venues == want.venues
    assert got.external_keys == want.external_keys
    for name in ("record_venue", "offsets", "targets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


@SETTINGS
@given(jsonl_corpora())
def test_jsonl_parse_indexes_equal_the_rebuilt(case):
    data, source = case
    parsed = parse_jsonl(io.BytesIO(data), source=source)
    headers = [obj["source"] for obj in map(json.loads, data.splitlines()) if "source" in obj]
    assert parsed.source == (headers[-1] if headers else source)  # the last header names the corpus
    assert_one_object_per_value(parsed)
    counts = parsed.reference_counts()
    assert_same_indexes(parsed)
    assert parsed.reference_counts() == counts  # the same before and after the index is built
    assert_index_is_the_loops(parsed)
    assert_derived_corpora(parsed)


@SETTINGS
@given(dblp_corpora(), st.sampled_from(CORPUS_SOURCES))
def test_dblp_parse_indexes_equal_the_rebuilt(data, source):
    parsed = parse_dblp_xml(io.BytesIO(data), source=source)
    assert parsed.source == source
    assert_one_object_per_value(parsed)
    counts = parsed.reference_counts()
    assert_same_indexes(parsed)
    assert parsed.reference_counts() == counts
    assert_index_is_the_loops(parsed)
    assert_derived_corpora(parsed)


# names repeated in other case or spacing, non-ASCII ones and their ASCII folds
NAMES = ["Alan Turing", "alan turing", "Alan  Turing", " Alan Turing", "ALAN TURING", "José Peña", "Jose Pena",
         "Łukasz Gruß", "李 小龍", "Ada"]
# ids and generated names: no character that a record id or an XML text cannot carry
TEXT = "aAbé/#李 😀"


@st.composite
def authored_records(draw):
    """(id, author names) per record: records without authors, names
    repeated within one record and across records."""
    record_ids = draw(st.lists(st.text(TEXT, min_size=1, max_size=4).filter(str.strip), unique=True, max_size=12))
    names = st.sampled_from(NAMES) | st.text(TEXT, min_size=1, max_size=4).filter(str.strip)
    return [(rid, draw(st.lists(names, max_size=5))) for rid in record_ids]


def assert_author_index_is_the_walk(c: Corpus) -> None:
    offsets, authors, distinct = c.author_index()
    rows, names = author_index_walk(c)
    assert [a.full_name for a in distinct] == names
    assert authors.dtype == ids(len(names)) and offsets.dtype == np.int64
    assert offsets.tolist() == np.cumsum([0] + list(map(len, rows))).tolist()
    assert [authors[offsets[r] : offsets[r + 1]].tolist() for r in range(len(rows))] == rows
    assert c.id_order().tolist() == id_order_walk(c)


@SETTINGS
@given(authored_records())
@example([("p2", ["Alan Turing", "alan turing", "Alan Turing"]), ("p10", []), ("p1", ["José Peña", "Alan  Turing"]),
          ("Ž", ["李 小龍", "Alan Turing"])])
def test_author_index_and_id_order_equal_the_walk(records):
    lines = [json.dumps({"id": rid, "title": "T", "authors": names}) + "\n" for rid, names in records]
    assert_author_index_is_the_walk(parse_jsonl(io.BytesIO("".join(lines).encode("utf-8"))))
    parts = ["<dblp>"]
    for rid, names in records:
        authors = "".join(f"<author>{escape(name)}</author>" for name in names)
        parts.append(f"<article key={quoteattr(rid)}>{authors}<title>T</title></article>")
    dblp = parse_dblp_xml(io.BytesIO("".join(parts + ["</dblp>"]).encode("utf-8")))
    assert [[a.full_name for a in r.authors] for r in dblp.records] == [names for _, names in records]
    assert_author_index_is_the_walk(dblp)


def test_parse_retains_one_object_per_distinct_value():
    """What a parse of 15,000 records (105,000 references to about 4,500
    distinct targets) keeps alive: one string per distinct target, venue
    key and year, not one per occurrence (15.1 MB when each reference held
    its own string)."""
    data = saved_bytes(scale_corpus(150, 100, seed=1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_jsonl(io.BytesIO(data))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parsed.records) == 15_000
    assert retained <= 11 * 2**20, f"the parsed corpus retains {retained / 2**20:.1f} MB"

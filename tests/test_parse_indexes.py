"""A corpus is its columns. Every index read from them (the reference
index and counts, the author index, the id order and the canonical JSONL)
must equal a walk of the records, for a corpus parsed from JSONL or DBLP
XML, one made from records, a year slice, which shares its parent's tables,
and a linked rewrite. A run builds no PublicationRecord."""

import gc
import io
import json
import tracemalloc
from xml.sax.saxutils import escape, quoteattr

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import run_stage_chain, saved_bytes
from oracles import (
    author_index_walk,
    id_order_walk,
    jsonl_lines_walk,
    linked_walk,
    reference_counts_walk,
    reference_index_walk,
)
from test_golden_manifests import _jsonl, _linked
from venuenet.arrays import ids
from venuenet.corpus import (
    CITATION_CORPUS,
    CORPUS_SOURCES,
    AuthorName,
    Corpus,
    PublicationRecord,
    VenueInfo,
    _jsonl_lines,
    parse_dblp_xml,
    parse_jsonl,
    slice_by_year,
)
from venuenet.linkage import MatchPair, attach_references
from venuenet.pipeline import run_pipeline
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


def assert_columns_are_the_walks(c: Corpus) -> None:
    index, want = c.reference_index(), reference_index_walk(c)
    for name, value in want.items():
        got = getattr(index, name)
        assert (got if isinstance(got, list) else got.tolist()) == value, name
    assert c.reference_counts() == reference_counts_walk(c)
    assert_author_index_is_the_walk(c)
    assert "".join(_jsonl_lines(c)) == "".join(jsonl_lines_walk(c))


def assert_one_object_per_value(parsed: Corpus) -> None:
    """Every distinct reference target, venue key and author name of the
    records is one object."""
    for values in (
        [t for r in parsed.records for t in r.references],
        [r.venue_key for r in parsed.records if r.venue_key is not None],
        [a for r in parsed.records for a in r.authors],
    ):
        assert len({id(v) for v in values}) == len(set(values))


def assert_derived_corpora(parsed: Corpus) -> None:
    """The corpus made from its records, each year slice and a linked
    rewrite index as the walks do."""
    assert_columns_are_the_walks(Corpus(parsed.records, parsed.venue_table, parsed.source))
    for cutoff in YEARS[1:] + [2100]:
        sliced = slice_by_year(parsed, cutoff)
        assert sliced.targets is parsed.targets and sliced.authors is parsed.authors
        assert_columns_are_the_walks(sliced)
    meta, cite = split_for_linkage(parsed)
    cite = parse_jsonl(io.BytesIO(saved_bytes(cite)), source=cite.source)
    matches = [MatchPair(r.record_id, "cx-" + r.record_id, 1.0, 1.0) for r in meta.records[::2]]
    assert_columns_are_the_walks(attach_references(meta, cite, matches))


@SETTINGS
@given(jsonl_corpora())
def test_jsonl_parse_indexes_equal_the_rebuilt(case):
    data, source = case
    parsed = parse_jsonl(io.BytesIO(data), source=source)
    headers = [obj["source"] for obj in map(json.loads, data.splitlines()) if "source" in obj]
    assert parsed.source == (headers[-1] if headers else source)  # the last header names the corpus
    assert_one_object_per_value(parsed)
    assert_columns_are_the_walks(parsed)
    assert_derived_corpora(parsed)


@SETTINGS
@given(dblp_corpora(), st.sampled_from(CORPUS_SOURCES))
def test_dblp_parse_indexes_equal_the_rebuilt(data, source):
    parsed = parse_dblp_xml(io.BytesIO(data), source=source)
    assert parsed.source == source
    assert_one_object_per_value(parsed)
    assert_columns_are_the_walks(parsed)
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
    distinct targets) keeps alive: one string per distinct target and venue
    key, not one per occurrence (15.1 MB when each reference held its own
    string)."""
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


@st.composite
def record_corpora(draw):
    """A corpus made from records: targets that are record ids, repeated and
    raw ones, records without authors, venue or year, non-ASCII names, and
    a venue no venue-table entry names."""
    record_ids = draw(st.lists(st.sampled_from(["p1", "p2", "P1"]) | st.text(TEXT, min_size=1, max_size=3), unique=True,
                               max_size=12))
    targets = st.sampled_from(record_ids + RAW_TARGETS)
    records = [
        PublicationRecord(
            rid,
            draw(st.text(TEXT, max_size=3)),
            tuple(map(AuthorName, draw(st.lists(st.sampled_from(NAMES), max_size=4)))),
            draw(st.sampled_from([None, "v1", "v2", "vé"])),
            draw(st.sampled_from(YEARS)),
            tuple(draw(st.lists(targets, max_size=6))),
        )
        for rid in record_ids
    ]
    return Corpus(records, {"v1": VenueInfo("One", "journal"), "v2": VenueInfo("v2")}, draw(st.sampled_from(CORPUS_SOURCES)))


@SETTINGS
@given(record_corpora())
@example(Corpus([PublicationRecord("p2", "", (), None, 1995, ("p1", "x", "p1")),
                 PublicationRecord("p1", "Ü", (AuthorName("José Peña"),), "vé", None, ("X", "p2", "x"))], {}))
def test_columns_equal_the_walks(corpus):
    assert_columns_are_the_walks(corpus)
    assert_derived_corpora(corpus)
    parsed = parse_jsonl(io.BytesIO(saved_bytes(corpus)))
    assert parsed.records == corpus.records
    assert_columns_are_the_walks(parsed)


META_IDS, CITE_IDS = ["m1", "m2", "m3", "m4"], ["c1", "c2", "c3"]


def linked_case(meta_refs: dict, cite_refs: dict, pairs: list[tuple[str, str]]):
    """A metadata corpus, a citation corpus and matches, from each record's
    references and the (left, right) pairs."""
    meta = Corpus([PublicationRecord(rid, "T", (), None, None, tuple(refs)) for rid, refs in meta_refs.items()], {})
    cite = Corpus([PublicationRecord(rid, "T", (), None, None, tuple(refs)) for rid, refs in cite_refs.items()], {},
                  CITATION_CORPUS)
    return meta, cite, [MatchPair(left, right, 1.0, 1.0) for left, right in pairs]


@st.composite
def linked_cases(draw):
    """References to metadata ids, citation ids and raw strings on both
    sides, and matches of metadata records to citation records: a citation
    id matched twice, a carried list naming a matched citation id or empty,
    no matches."""
    targets = st.lists(st.sampled_from(META_IDS + CITE_IDS + ["raw", "Raw "]), max_size=5)
    meta_refs = {rid: draw(targets) for rid in draw(st.lists(st.sampled_from(META_IDS), unique=True))}
    cite_refs = {rid: draw(targets) for rid in draw(st.lists(st.sampled_from(CITE_IDS), unique=True))}
    lefts = draw(st.lists(st.sampled_from(sorted(meta_refs)), unique=True)) if meta_refs and cite_refs else []
    return linked_case(meta_refs, cite_refs, [(left, draw(st.sampled_from(sorted(cite_refs)))) for left in lefts])


@SETTINGS
@given(linked_cases())
# c1 matched by m2 and m1: m1 wins, for m3's own reference and m4's carried one
@example(linked_case({"m1": [], "m2": ["x"], "m3": ["c1"], "m4": []}, {"c1": [], "c2": ["c1", "y"]},
                     [("m2", "c1"), ("m1", "c1"), ("m4", "c2")]))
# c2 renamed onto m2, which m3's references and the table already hold; m1's carried list is empty
@example(linked_case({"m1": ["c2"], "m2": [], "m3": ["m2", "c2", "m2"]}, {"c1": [], "c2": ["c2"]},
                     [("m1", "c1"), ("m2", "c2")]))
@example(linked_case({"m1": ["c1", "raw"]}, {"c1": ["m1"]}, []))  # no matches
def test_linked_columns_equal_the_walk(case):
    """The linked corpus holds the columns a rebuild from the walk's records
    holds, each renamed target once."""
    meta, cite, matches = case
    linked, walk = attach_references(meta, cite, matches), linked_walk(meta, matches, cite)
    assert linked == walk
    assert len(set(linked.targets)) == len(linked.targets)
    assert linked.reference_counts() == reference_counts_walk(walk)
    assert_columns_are_the_walks(linked)


@pytest.mark.parametrize("pair, message", [
    (("m9", "c1"), "left_id 'm9' names no record of the left corpus"),
    (("m1", "c9"), "right_id 'c9' names no record of the right corpus"),
], ids=["left", "right"])
def test_attach_refuses_an_id_that_names_no_record(pair, message):
    meta, cite, matches = linked_case({"m1": []}, {"c1": []}, [pair])
    with pytest.raises(ValueError) as info:
        attach_references(meta, cite, matches)
    assert str(info.value) == message


@pytest.mark.parametrize("make", [_jsonl(30, 20, 1), _linked], ids=["jsonl", "linked-dblp"])
def test_a_run_builds_no_publication_record(make, tmp_path, monkeypatch):
    """Every stage, of the run and of the stage commands, reads the columns:
    a stage that walks the records again builds them, and fails this."""
    cfg = make(tmp_path)
    cfg.out_dir = str(tmp_path / "out")
    built = []
    init = PublicationRecord.__init__
    monkeypatch.setattr(PublicationRecord, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    run_pipeline(cfg)
    run_stage_chain(cfg, tmp_path / "cli")
    assert built == []

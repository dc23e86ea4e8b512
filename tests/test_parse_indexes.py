"""The parsers hand `Corpus` the id -> row dict and the flat reference
targets they build while reading. A corpus so made must hold the same
indexes as one rebuilt from its records alone."""

import io
import json
from xml.sax.saxutils import escape, quoteattr

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from venuenet.corpus import CORPUS_SOURCES, Corpus, parse_dblp_xml, parse_jsonl

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# raw citations: several normalize to one key, and "P1" to a record id's spelling
RAW_TARGETS = ["classic book", "Classic  Book", " other work", "P1", "x"]
HEADERS = [{"source": source} for source in CORPUS_SOURCES]
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
        parts.append(f"<{tag} key={quoteattr(key)}><author>A B</author><title>T</title>{cites}</{tag}>")
    parts.append("</dblp>")
    return "".join(parts).encode("utf-8")


def assert_same_indexes(parsed: Corpus) -> None:
    rebuilt = Corpus(parsed.records, parsed.venue_table, parsed.source)
    assert list(parsed._rows.items()) == list(rebuilt._rows.items())
    got, want = parsed.reference_index(), rebuilt.reference_index()
    assert parsed._targets is None  # consumed by the index, then dropped
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
    assert {r.source for r in parsed.records} <= {parsed.source}  # the last header names every record's source
    assert_same_indexes(parsed)


@SETTINGS
@given(dblp_corpora(), st.sampled_from(CORPUS_SOURCES))
def test_dblp_parse_indexes_equal_the_rebuilt(data, source):
    parsed = parse_dblp_xml(io.BytesIO(data), source=source)
    assert {r.source for r in parsed.records} <= {source}
    assert_same_indexes(parsed)

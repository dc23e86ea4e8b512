"""Hypothesis corpora for the per-family blocks: every profile row must equal
the one the per-venue oracles give the venue's subgraph on its own."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import profile_rows_per_venue, rows_of
from venuenet import metrics
from venuenet.corpus import AuthorName, Corpus, PublicationRecord, VenueInfo
from venuenet.subgraphs import profile_venues

AUTHORS = ["Ann A", "Bo B", "Cy C", "Di D", "Ed E", "Flo F", "Gus G", "Hal H"]
VENUES = ["v0", "v1", "v2", "v3"]


@st.composite
def corpora(draw):
    """Up to 24 records over four venues (or none). Authors come from one
    small pool, so venues share them, and a record may name one twice.
    References mix record ids (the record's own included), ids of records
    not in the corpus and raw strings."""
    count = draw(st.integers(0, 24))
    ids = [f"p{i:02d}" for i in range(count)]
    targets = st.sampled_from(ids + ["p99", "Raw Work", "raw  work"]) if ids else st.just("raw")
    records = [
        PublicationRecord(
            record_id=rid,
            title="T",
            authors=tuple(map(AuthorName, draw(st.lists(st.sampled_from(AUTHORS), max_size=5)))),
            venue_key=draw(st.sampled_from([*VENUES, None])),
            year=None,
            references=tuple(draw(st.lists(targets, max_size=6))),
        )
        for rid in ids
    ]
    return Corpus(records=records, venue_table={v: VenueInfo(name=v, kind="journal") for v in VENUES})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpora(), st.sampled_from([metrics.BRANDES_BLOCK_CELLS, 1, 5]), st.sampled_from([metrics.WEDGE_BLOCK, 1, 3]))
def test_block_rows_equal_per_venue_rows(corpus, cells, wedges):
    ranks = {"v1": 0.5, "v3": 2.0}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "BRANDES_BLOCK_CELLS", cells)
        patch.setattr(metrics, "WEDGE_BLOCK", wedges)
        rows = profile_venues(corpus, ranks)
    assert rows_of(rows) == profile_rows_per_venue(corpus, ranks)

import io
import json
import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import corpus_from_lines, saved_bytes
from oracles import (
    check_names_per_record,
    random_jsonl_corpus,
    random_reference_corpus,
    record_ids,
    record_rows,
    references_of,
    serialize_corpus_dumps,
)
from venuenet.corpus import (
    AuthorName,
    Corpus,
    CorpusError,
    DuplicateRecordIdError,
    MalformedEntryError,
    PublicationRecord,
    VenueInfo,
    check_names,
    last_name_key,
    normalize_reference_key,
    parse_dblp_xml,
    parse_jsonl,
    slice_by_year,
    validate_corpus,
)
from venuenet.synth import scale_corpus, split_for_linkage


class TestLastNameKey:
    def test_simple(self):
        assert last_name_key("Michael Ley") == "ley"

    def test_diacritics_folded(self):
        assert last_name_key("José Peña") == "pena"
        assert last_name_key("Łukasz Gruß") == "gruß" or last_name_key("Łukasz Gruß") == "gru"

    def test_single_token(self):
        assert last_name_key("Madonna") == "madonna"

    def test_case_and_whitespace_invariance(self):
        rng = random.Random(5)
        names = ["Michael Ley", "ada lovelace", "J. R. R. Tolkien", "Grace Murray Hopper"]
        for name in names:
            base = last_name_key(name)
            assert last_name_key(name.upper()) == base
            assert last_name_key("  " + name + "\t ") == base
            shuffled_case = "".join(
                c.upper() if rng.random() < 0.5 else c.lower() for c in name
            )
            assert last_name_key(shuffled_case) == base

    def test_empty_name_gives_empty_key(self):
        assert last_name_key("") == ""
        assert last_name_key("   ") == ""


# A line after a good one, and the reason the parser's own checks must give.
# The checks run in a fixed order, so a line with several faults (the last
# rows) always names the same one.
MALFORMED_LINES = [
    (b'{"id": "p1", "title": "A", "year": 1850}', 'year 1850 outside [1900, 2100]'),
    (b'{"id": "p1", "year": 2150}', 'year 2150 outside [1900, 2100]'),
    (b'{"id": "p1", "year": "1999"}', "year must be an integer, got '1999'"),
    (b'{"id": "p1", "year": 1999.0}', 'year must be an integer, got 1999.0'),
    (b'{"id": "p1", "year": true}', 'year must be an integer, got True'),
    (b'{"id": "p1", "year": NaN}', 'year must be an integer, got nan'),
    (b'{"id": "p1", "year": 1e400}', 'year must be an integer, got inf'),
    (b'{"id": "p1", "authors": ["  "]}', "empty or non-string author name '  '"),
    (b'{"id": "p1", "authors": ["Ada", ""]}', "empty or non-string author name ''"),
    (b'{"id": "p1", "authors": ["Ada", 7]}', 'empty or non-string author name 7'),
    (b'{"id": "p1", "authors": ["Ada", null]}', 'empty or non-string author name None'),
    (b'{"id": "p1", "authors": ["Ada", [1]]}', 'empty or non-string author name [1]'),
    (b'{"id": "p1", "authors": [{"a": 1}]}', "empty or non-string author name {'a': 1}"),
    (b'{"id": "p1", "authors": "Ada"}', "authors must be a list of names, got 'Ada'"),
    (b'{"id": "p1", "authors": {"name": "Ada"}}', "authors must be a list of names, got {'name': 'Ada'}"),
    (b'{"id": "p1", "authors": null}', 'authors must be a list of names, got None'),
    (b'{"venue_key": 7}', 'venue_key must be a non-empty string, got 7'),
    (b'{"venue_key": ""}', "venue_key must be a non-empty string, got ''"),
    (b'{"venue_key": "v", "name": 7}', 'venue name must be a string, got 7'),
    (b'{"venue_key": "v", "kind": ["x"]}', "venue kind must be one of journal, conference, unknown, got ['x']"),
    (b'{"venue_key": "v", "kind": "magazine"}', "venue kind must be one of journal, conference, unknown, got 'magazine'"),
    (b'{"id": "p1", "title": "\xff"}', 'invalid UTF-8 at byte 23'),
    (b'{"source": "elsewhere"}', "source must be one of metadata-corpus, citation-corpus, got 'elsewhere'"),
    (b'{"source": [1]}', 'source must be one of metadata-corpus, citation-corpus, got [1]'),
    (b'{"source": "bogus", "venue_key": 7}', 'venue_key must be a non-empty string, got 7'),
    (b'{"title": "A"}', "record missing 'id'"),
    (b'{}', "record missing 'id'"),
    (b'{"id": 7}', 'record id must be a non-empty string, got 7'),
    (b'{"id": ""}', "record id must be a non-empty string, got ''"),
    (b'{"id": null}', 'record id must be a non-empty string, got None'),
    (b'{"id": "p1", "title": 7}', 'title must be a string'),
    (b'{"id": "p1", "venue": 7}', 'venue must be a non-empty string or null, got 7'),
    (b'{"id": "p1", "venue": ""}', "venue must be a non-empty string or null, got ''"),
    (b'{"id": "p1", "refs": "x"}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p1", "refs": [""]}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p1", "refs": [7]}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p1", "refs": null}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p1", "refs": [["x"]]}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p1", "refs": {"a": 1}}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p1", "refs": ["x", null]}', 'refs must be a list of non-empty strings'),
    (b'[1, 2]', 'expected a JSON object'),
    (b'"str"', 'expected a JSON object'),
    (b'7', 'expected a JSON object'),
    (b'null', 'expected a JSON object'),
    (b'{"id": 7, "title": 7}', 'record id must be a non-empty string, got 7'),
    (b'{"id": "p9", "title": 7, "refs": 7}', 'title must be a string'),
    (b'{"id": "p9", "refs": 7, "authors": 7}', 'refs must be a list of non-empty strings'),
    (b'{"id": "p9", "authors": [7], "year": "x"}', 'empty or non-string author name 7'),
    (b'  \t{"id": "p1", "year": 0}  ', 'year 0 outside [1900, 2100]'),
]
# Lines json.loads rejects: the reason is json.loads's own message.
INVALID_JSON_LINES = [
    b'{not json',
    b'{"id": "p1"} trailing',
    b'{"id": "p1"}{"id": "p2"}',
    b'{"id": "p1"}, {"id": "p2"}',
    b'\xef\xbb\xbf{"id": "p1"}',
    b'{"id": "p1", "title": "A\x01"}',
    b'{"id": "p1", "title": "\\ud800"',
    b'{"id": "p1", "title": "A", }',
    b'{"id": "p1" "title": "A"}',
    b"{'id': 'p1'}",
    b'{"id": "p1", "title": "A}',
    b'{"id": "p1", "title": "\\x"}',
    b'{"id": "p1", "year": 1' + b"0" * 5000 + b"}",  # past the integer digit limit
]


@pytest.mark.parametrize("enabled", [True, False])
def test_dblp_parse_pauses_and_restores_the_gc(enabled):
    import gc

    class Stream(io.BytesIO):
        def read(self, *args):
            seen.append(gc.isenabled())  # while the records are built
            return super().read(*args)

    seen = []
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        xml = b'<dblp><article key="j/a/1"><title>T</title></article><article key="j/a/1"><title>U</title></article></dblp>'
        with pytest.raises(DuplicateRecordIdError):
            parse_dblp_xml(Stream(xml))
        assert gc.isenabled() is enabled
        assert seen and not any(seen)
    finally:
        gc.enable() if was else gc.disable()


class TestParseJsonl:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_callers_gc_state(self, enabled):
        import gc

        seen = []

        def lines():
            seen.append(gc.isenabled())  # while the records are built
            yield b'{"id": "p1", "title": "A"}\n'
            yield b'{"id": "p1", "title": "B"}\n'  # a duplicate id: the parse raises

        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert parse_jsonl([b'{"id": "p1", "title": "A"}\n']).records[0].record_id == "p1"
            assert gc.isenabled() is enabled
            with pytest.raises(DuplicateRecordIdError):
                parse_jsonl(lines())
            assert gc.isenabled() is enabled
            assert seen == [False]
        finally:
            gc.enable() if was else gc.disable()

    def test_empty_stream(self):
        corpus = parse_jsonl(io.BytesIO(b""))
        assert corpus.records == []
        assert corpus.venue_table == {}

    def test_single_record(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "authors": ["Michael Ley"], "venue": "v1", "year": 1995, "refs": []}'
        )
        assert len(corpus.records) == 1
        rec = corpus.records[0]
        assert rec.record_id == "p1"
        assert rec.title == "A"
        assert rec.year == 1995
        assert rec.venue_key == "v1"
        assert rec.authors[0].last_name_key == "ley"
        # venue auto-created so the table invariant holds
        assert "v1" in corpus.venue_table

    def test_duplicate_id(self):
        with pytest.raises(DuplicateRecordIdError) as exc:
            corpus_from_lines(
                '{"id": "p1", "title": "A", "authors": [], "refs": []}',
                '{"id": "p1", "title": "B", "authors": [], "refs": []}',
            )
        assert exc.value.record_id == "p1"
        assert str(exc.value) == "duplicate record id 'p1' at line 2"

    def test_malformed_lines_keep_message_and_line(self):
        for line, reason in MALFORMED_LINES:
            with pytest.raises(MalformedEntryError) as exc:
                parse_jsonl(io.BytesIO(b'{"id": "p0", "title": "A"}\n' + line + b"\n"))
            assert str(exc.value) == f"malformed entry at line 2: {reason}", line

    def test_invalid_json_reports_json_loads_message(self):
        for line in INVALID_JSON_LINES:
            with pytest.raises(ValueError) as loads_exc:
                json.loads(line.decode("utf-8").strip())
            with pytest.raises(MalformedEntryError) as exc:
                parse_jsonl(io.BytesIO(b'{"id": "p0", "title": "A"}\n' + line + b"\n"))
            reason = f"invalid JSON ({getattr(loads_exc.value, 'msg', loads_exc.value)})"
            assert str(exc.value) == f"malformed entry at line 2: {reason}", line

    def test_lines_are_decoded_one_at_a_time(self):
        # Decoded as one document, these three lines would read as three
        # objects, and the file would be misread without an error.
        with pytest.raises(MalformedEntryError) as exc:
            parse_jsonl(io.BytesIO(b'{"a":1\n"b":2}\n{"c":3}, {"d":4}\n'))
        assert exc.value.position == "line 1"

    def test_malformed_json_carries_line(self):
        with pytest.raises(MalformedEntryError) as exc:
            corpus_from_lines('{"id": "p1", "title": "A"}', "{not json")
        assert "line 2" in str(exc.value)

    def test_deeply_nested_json_carries_line(self):
        # json.loads raises RecursionError here, not JSONDecodeError
        with pytest.raises(MalformedEntryError) as exc:
            corpus_from_lines('{"id": "p1", "title": "A"}', "[" * 100_000)
        assert exc.value.position == "line 2"
        assert "nested" in exc.value.reason

    def test_year_out_of_range(self):
        with pytest.raises(MalformedEntryError):
            corpus_from_lines('{"id": "p1", "title": "A", "year": 1850}')
        with pytest.raises(MalformedEntryError):
            corpus_from_lines('{"id": "p1", "title": "A", "year": 2150}')

    def test_empty_author_rejected(self):
        with pytest.raises(MalformedEntryError):
            corpus_from_lines('{"id": "p1", "title": "A", "authors": ["  "]}')

    def test_author_names_interned_per_parse(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "authors": ["Ada Lovelace", "Alan Turing"]}',
            '{"id": "p2", "title": "B", "authors": ["Alan Turing", "Ada Lovelace"]}',
        )
        p1, p2 = corpus.records
        assert p1.authors[0] is p2.authors[1] and p1.authors[1] is p2.authors[0]
        assert p1.authors[0] == AuthorName("Ada Lovelace")
        assert p1.authors[0].last_name_key == "lovelace"

    def test_every_author_occurrence_checked(self):
        # a name seen before does not skip the check of a later bad entry
        for bad in ('""', '"  "', "7", "null"):
            with pytest.raises(MalformedEntryError) as exc:
                corpus_from_lines(
                    '{"id": "p1", "title": "A", "authors": ["Ada Lovelace"]}',
                    f'{{"id": "p2", "title": "B", "authors": ["Ada Lovelace", {bad}]}}',
                )
            assert exc.value.position == "line 2"

    def test_non_list_authors_rejected(self):
        for authors in ('"Ada"', '{"name": "Ada"}', "7"):
            with pytest.raises(MalformedEntryError) as exc:
                corpus_from_lines('{"id": "p0", "title": "A"}', f'{{"id": "p1", "title": "A", "authors": {authors}}}')
            assert exc.value.position == "line 2"

    def test_malformed_venue_line_or_bytes_carry_line(self):
        for bad in (
            b'{"venue_key": 7}',
            b'{"venue_key": ""}',
            b'{"venue_key": "v", "name": 7}',
            b'{"venue_key": "v", "kind": ["x"]}',
            b'{"venue_key": "v", "kind": "magazine"}',
            b'{"id": "p1", "title": "\xff"}',
        ):
            with pytest.raises(MalformedEntryError) as exc:
                parse_jsonl(io.BytesIO(b'{"id": "p0", "title": "A"}\n' + bad + b"\n"))
            assert exc.value.position == "line 2", bad

    def test_venue_metadata_line(self):
        corpus = corpus_from_lines(
            '{"venue_key": "v1", "name": "Journal of Tests", "kind": "journal"}',
            '{"id": "p1", "title": "A", "venue": "v1"}',
        )
        assert corpus.venue_table["v1"] == VenueInfo(name="Journal of Tests", kind="journal")

    def test_source_header(self):
        corpus = corpus_from_lines(
            '{"source": "citation-corpus"}',
            '{"id": "p1", "title": "A"}',
        )
        assert corpus.source == "citation-corpus"


class TestRoundTrip:
    def test_parse_serialize_parse_identical(self, small_corpus):
        data = saved_bytes(small_corpus)
        again = parse_jsonl(io.BytesIO(data))
        assert again == small_corpus
        assert saved_bytes(again) == data

    def test_round_trip_with_unicode_and_missing_fields(self):
        corpus = corpus_from_lines(
            '{"source": "citation-corpus"}',
            '{"id": "p1", "title": "Über Graphen", "authors": ["José Peña"], "refs": ["raw citation: Newman 2004"]}',
            '{"id": "p2", "title": "", "authors": [], "venue": "v9", "year": 2001, "refs": []}',
        )
        again = parse_jsonl(io.BytesIO(saved_bytes(corpus)))
        assert again == corpus


class TestCanonicalWriter:
    """The direct writer against `json.dumps(..., sort_keys=True)` per line."""

    def _check(self, corpus: Corpus) -> None:
        data = saved_bytes(corpus)
        assert data == serialize_corpus_dumps(corpus)
        assert parse_jsonl(io.BytesIO(data)) == corpus

    def test_awkward_strings_and_absent_fields(self):
        for seed in range(60):
            self._check(random_jsonl_corpus(seed))

    def test_workload_corpora(self):
        self._check(scale_corpus(150, 100, seed=1))
        self._check(scale_corpus(800, 10, seed=1))
        meta, cite = split_for_linkage(scale_corpus(60, 50, seed=1))
        self._check(meta)
        # as read from a DBLP file, the citation side names its venues too
        self._check(Corpus(cite.records, dict(meta.venue_table), cite.source))

    def test_empty_corpus(self):
        self._check(Corpus(records=[], venue_table={}))
        assert saved_bytes(Corpus(records=[], venue_table={})) == b'{"source": "metadata-corpus"}\n'


DBLP_SAMPLE = b"""<?xml version="1.0" encoding="UTF-8"?>
<dblp>
  <article key="journals/cacm/Knuth74" mdate="2011-01-01">
    <author>Donald E. Knuth</author>
    <title>Computer Programming as an Art.</title>
    <year>1974</year>
    <journal>Commun. ACM</journal>
    <cite>journals/cacm/Dijkstra68</cite>
    <cite>...</cite>
  </article>
  <inproceedings key="conf/vldb/Ley02">
    <author>Michael Ley</author>
    <title>The DBLP Computer Science Bibliography.</title>
    <year>2002</year>
    <booktitle>VLDB</booktitle>
  </inproceedings>
  <www key="homepages/x/Y"><title>ignored</title></www>
</dblp>
"""


class TestParseDblpXml:
    def test_subset_parse(self):
        corpus = parse_dblp_xml(io.BytesIO(DBLP_SAMPLE))
        assert len(corpus.records) == 2
        knuth = corpus.record("journals/cacm/Knuth74")
        assert knuth.venue_key == "journals/cacm"
        assert knuth.year == 1974
        assert knuth.authors[0].last_name_key == "knuth"
        assert knuth.references == ("journals/cacm/Dijkstra68",)  # "..." dropped
        assert corpus.venue_table["journals/cacm"].kind == "journal"
        ley = corpus.record("conf/vldb/Ley02")
        assert corpus.venue_table["conf/vldb"].kind == "conference"
        assert corpus.venue_table["conf/vldb"].name == "VLDB"
        assert ley.references == ()

    def test_author_names_interned_per_parse(self):
        xml = (
            b"<dblp>"
            b"<article key=\"journals/x/Y1\"><title>A</title><author>Ada Lovelace</author></article>"
            b"<article key=\"journals/x/Y2\"><title>B</title><author>Ada Lovelace</author><author></author></article>"
            b"</dblp>"
        )
        with pytest.raises(MalformedEntryError) as exc:
            parse_dblp_xml(io.BytesIO(xml))
        assert "journals/x/Y2" in str(exc.value)
        corpus = parse_dblp_xml(io.BytesIO(xml.replace(b"<author></author>", b"")))
        assert corpus.records[0].authors[0] is corpus.records[1].authors[0]

    def test_missing_title_is_malformed(self):
        bad = b"<dblp><article key=\"journals/x/Y1\"><year>2000</year></article></dblp>"
        with pytest.raises(MalformedEntryError) as exc:
            parse_dblp_xml(io.BytesIO(bad))
        assert "journals/x/Y1" in str(exc.value)

    def test_duplicate_key(self):
        bad = (
            b"<dblp>"
            b"<article key=\"journals/x/Y1\"><title>A</title></article>"
            b"<article key=\"journals/x/Y1\"><title>B</title></article>"
            b"</dblp>"
        )
        with pytest.raises(DuplicateRecordIdError):
            parse_dblp_xml(io.BytesIO(bad))

    def test_broken_xml_positions(self):
        with pytest.raises(MalformedEntryError):
            parse_dblp_xml(io.BytesIO(b"<dblp><article key='x/y/z'>"))

    def test_title_keeps_the_text_of_inline_markup(self):
        xml = (
            b"<dblp>"
            b"<article key=\"journals/x/Y1\"><title>On <i>k</i>-means and H<sub>2</sub>\nflows.</title></article>"
            b"<article key=\"journals/x/Y2\"><title><i>X</i></title></article>"
            b"</dblp>"
        )
        corpus = parse_dblp_xml(io.BytesIO(xml))
        assert [r.title for r in corpus.records] == ["On k-means and H2flows.", "X"]

    def test_memory_follows_one_record_not_the_file(self):
        """Every element but the records is skipped, and no finished element
        stays on the root: 80,000 `www` records beside 2,000 articles leave
        the parse's traced peak within 1 MB of the articles' alone."""
        import tracemalloc

        articles = "".join(
            f'<article key="journals/j/a{i}"><author>Ann Author{i % 50}</author><title>Title {i}</title>'
            f"<year>2000</year><cite>journals/j/a{i // 2}</cite></article>"
            for i in range(2000)
        )
        homes = "".join(
            f'<www key="homepages/x/{i}"><author>Bob {i}</author><title>Home Page</title><url>u{i}</url></www>'
            for i in range(80000)
        )
        peaks = []
        for xml in (f"<dblp>{articles}</dblp>", f"<dblp>{articles}{homes}</dblp>"):
            stream = io.BytesIO(xml.encode())
            tracemalloc.start()
            try:
                assert len(parse_dblp_xml(stream).records) == 2000
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20


def _check_message(check, corpus: Corpus) -> str | None:
    try:
        check(corpus)
    except CorpusError as exc:
        return str(exc)
    return None


class TestCheckNames:
    # one of each kind of character _UNCARRIED names, and the leading '#'
    BAD = ["\x00", "\t", "\n", "\x1f", "\x85", "\u2028", "\u2029", "\ud800", "\udfff", "\ufffe", "\uffff", "#"]

    @pytest.mark.parametrize("seed", range(60))
    def test_names_the_fault_the_per_record_scan_names(self, seed):
        rng = random.Random(seed)
        venues = [f"v {i}" for i in range(6)]  # spaces join the names searched, and are no fault
        records = [
            PublicationRecord(f"p {i}#", "T", (), rng.choice([*venues[:4], None]), None, ())
            for i in range(rng.randint(1, 30))
        ]
        for _ in range(rng.randint(0, 3)):
            bad = rng.choice(self.BAD)
            if rng.random() < 0.4:  # into a record id; a leading '#' is none of an id's faults
                row = rng.randrange(len(records))
                rid = records[row].record_id
                at = rng.randint(0, len(rid))
                records[row] = replace(records[row], record_id=rid[:at] + bad + rid[at:])
            else:  # into a venue key; venues[4:] are venue lines no record uses
                old = rng.choice(venues)
                at = 0 if bad == "#" else rng.randint(0, len(old))
                new = old[:at] + bad + old[at:]
                venues[venues.index(old)] = new
                records = [replace(r, venue_key=new) if r.venue_key == old else r for r in records]
        corpus = Corpus(records, {key: VenueInfo(key) for key in venues})
        assert _check_message(check_names, corpus) == _check_message(check_names_per_record, corpus)

    def test_a_venue_line_no_record_uses_is_no_fault(self):
        corpus = corpus_from_lines(
            '{"venue_key": "#v"}',
            '{"venue_key": "w\\u0001"}',
            '{"id": "p1", "venue": "v"}',
            '{"id": "p2", "venue": "v#"}',
        )
        check_names(corpus)
        corpus = corpus_from_lines('{"venue_key": "#v"}', '{"id": "p1", "venue": "v"}', '{"id": "p2", "venue": "#v"}')
        with pytest.raises(MalformedEntryError, match=r"^malformed entry at record 2 \(id 'p2'\): venue key '#v' starts"):
            check_names(corpus)


class TestValidation:
    def test_clean_fixture(self):
        corpus = corpus_from_lines(
            '{"venue_key": "v1", "name": "V1", "kind": "journal"}',
            '{"id": "p1", "title": "A", "authors": ["X Y"], "venue": "v1", "year": 2000, "refs": ["p2"]}',
            '{"id": "p2", "title": "B", "authors": ["X Y"], "venue": "v1", "year": 2000, "refs": []}',
            '{"id": "p3", "title": "C", "authors": ["X Y"], "venue": "v1", "year": 2000, "refs": ["p1"]}',
        )
        report = validate_corpus(corpus)
        assert report.is_clean()
        assert report.dangling_venue_keys == []
        assert report.empty_title_ids == []
        assert report.unresolved_reference_count == 0
        assert report.resolved_reference_count == 2

    def test_dangling_venue_named(self):
        rec = PublicationRecord(
            record_id="p1",
            title="A",
            authors=(),
            venue_key="vX",
            year=None,
            references=(),
        )
        corpus = Corpus(records=[rec], venue_table={}, source="metadata-corpus")
        report = validate_corpus(corpus)
        assert report.dangling_venue_keys == ["vX"]

    def test_external_references_counted_not_flagged(self):
        # three planted external references; they are unresolved, not errors
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A", "refs": ["ext one", "ext two"]}',
            '{"id": "p2", "title": "B", "refs": ["ext three", "p1"]}',
        )
        report = validate_corpus(corpus)
        assert report.unresolved_reference_count == 3
        assert report.resolved_reference_count == 1
        assert report.is_clean()

    def test_counts_records_without_venue_or_author(self):
        corpus = corpus_from_lines(
            '{"id": "p1", "title": "A"}',
            '{"id": "p2", "title": "B", "authors": ["X Y"], "venue": "v1"}',
        )
        report = validate_corpus(corpus)
        assert report.no_venue_count == 1
        assert report.no_author_count == 1

    def test_validation_does_not_mutate(self, small_corpus):
        before = saved_bytes(small_corpus)
        validate_corpus(small_corpus)
        assert saved_bytes(small_corpus) == before


class TestReferenceIndex:
    @pytest.mark.parametrize("seed", range(12))
    def test_equals_per_reference_lookup(self, seed):
        corpus = random_reference_corpus(seed)
        ids, rows = record_ids(corpus), record_rows(corpus)
        index = corpus.reference_index()
        assert corpus.reference_index() is index  # built once
        assert index.venues == sorted({r.venue_key for r in corpus.records} - {None})
        assert index.offsets[-1] == index.targets.size
        for row, rec in enumerate(corpus.records):
            venue = index.record_venue[row]
            assert (index.venues[venue] if venue >= 0 else None) == rec.venue_key
            targets = index.targets[index.offsets[row] : index.offsets[row + 1]].tolist()
            assert len(targets) == len(rec.references)
            for ref, t in zip(rec.references, targets):
                if ref in ids:
                    assert t == rows[ref]
                else:
                    assert t < 0 and index.external_keys[-1 - t] == normalize_reference_key(ref)
        assert len(set(index.external_keys)) == len(index.external_keys)
        report = validate_corpus(corpus)
        refs = [t for rec in corpus.records for t in rec.references]
        assert report.resolved_reference_count == sum(ref in ids for ref in refs)
        assert report.unresolved_reference_count == len(refs) - report.resolved_reference_count

    def test_references_of_rows(self):
        corpus = random_reference_corpus(3)
        index = corpus.reference_index()
        rows = np.array([5, 0, 5, 17], dtype=np.int64)
        targets, owners = references_of(index, rows)
        expected = [(t, r) for r in rows.tolist() for t in index.targets[index.offsets[r] : index.offsets[r + 1]].tolist()]
        assert list(zip(targets.tolist(), owners.tolist())) == expected
        targets, owners = references_of(index, np.zeros(0, dtype=np.int64))
        assert targets.size == owners.size == 0

    def test_empty_corpus(self):
        index = Corpus(records=[], venue_table={}).reference_index()
        assert index.targets.size == 0 and index.offsets.tolist() == [0] and index.venues == []


class TestSliceByYear:
    def _dated_corpus(self):
        return corpus_from_lines(
            '{"id": "p1", "title": "A", "venue": "v1", "year": 1990}',
            '{"id": "p2", "title": "B", "venue": "v2", "year": 1995}',
            '{"id": "p3", "title": "C", "venue": "v3", "year": 2000}',
            '{"id": "p4", "title": "D", "venue": "v3"}',
        )

    def test_cutoff_keeps_older_records(self):
        sliced = slice_by_year(self._dated_corpus(), 1995)
        assert [r.record_id for r in sliced.records] == ["p1", "p2"]
        assert set(sliced.venue_table) == {"v1", "v2"}

    def test_slice_shares_the_tables(self):
        corpus = self._dated_corpus()
        sliced = slice_by_year(corpus, 1995)
        assert sliced.records == corpus.records[:2]
        assert sliced.venue_keys is corpus.venue_keys and sliced.targets is corpus.targets
        assert sliced.authors is corpus.authors

    def test_cutoff_after_everything(self):
        corpus = self._dated_corpus()
        sliced = slice_by_year(corpus, 2099)
        assert [r.record_id for r in sliced.records] == ["p1", "p2", "p3"]

    def test_missing_year_always_excluded(self):
        sliced = slice_by_year(self._dated_corpus(), 2100)
        assert "p4" not in [r.record_id for r in sliced.records]

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            slice_by_year(self._dated_corpus(), 1500)

    def test_idempotent_and_monotone(self):
        rng = random.Random(17)
        lines = [
            f'{{"id": "p{i}", "title": "T{i}", "year": {rng.randint(1950, 2050)}}}'
            for i in range(40)
        ]
        corpus = corpus_from_lines(*lines)
        for _ in range(20):
            y1 = rng.randint(1950, 2050)
            y2 = rng.randint(1950, y1)
            once = slice_by_year(corpus, y2)
            twice = slice_by_year(slice_by_year(corpus, y1), y2)
            assert once == twice


class TestAuthorName:
    def test_derived_key_is_deterministic(self):
        a = AuthorName("Michael Ley")
        b = AuthorName("Michael Ley")
        assert a == b
        assert a.last_name_key == "ley"

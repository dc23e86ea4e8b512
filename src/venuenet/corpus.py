"""Publication corpus model, parsers, and time slicing.

Two input formats are supported:

* canonical JSONL: one JSON object per line. A record line looks like
  ``{"id": "p1", "title": "...", "authors": ["A B"], "venue": "v1",
  "year": 1995, "refs": ["p2", "raw citation string"]}``. Optional venue
  metadata lines ``{"venue_key": "v1", "name": "...", "kind": "journal"}``
  and ``{"source": "metadata-corpus"}`` header lines may appear; the last
  header names the corpus's source.
* a DBLP-style XML subset covering ``article`` and ``inproceedings``
  elements with key attribute, title, author, year, and journal/booktitle
  children. ``cite`` children become references.

Reference targets are plain strings: either the record id of another
publication (resolvable) or a raw citation string (kept as-is; references
may legitimately point at preprints or venues outside the corpus). A parse
keeps one object per distinct target, venue key, year and author name.
"""

from __future__ import annotations

import copy
import functools
import gc
import json
import re
import unicodedata
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .arrays import FirstSeenIds, concat_ranges, ids

YEAR_MIN = 1900
YEAR_MAX = 2100

JOURNAL = "journal"
CONFERENCE = "conference"
UNKNOWN_KIND = "unknown"
VENUE_KINDS = (JOURNAL, CONFERENCE, UNKNOWN_KIND)

METADATA_CORPUS = "metadata-corpus"
CITATION_CORPUS = "citation-corpus"
CORPUS_SOURCES = (METADATA_CORPUS, CITATION_CORPUS)


class CorpusError(ValueError):
    """Base class for corpus parsing and validation failures."""


class MalformedEntryError(CorpusError):
    def __init__(self, position: str, reason: str):
        super().__init__(f"malformed entry at {position}: {reason}")
        self.position = position
        self.reason = reason


class DuplicateRecordIdError(CorpusError):
    def __init__(self, record_id: str, position: str):
        super().__init__(f"duplicate record id {record_id!r} at {position}")
        self.record_id = record_id


def last_name_key(full_name: str) -> str:
    """Normalized last-name blocking key: lowercase, diacritics folded to
    ASCII, final whitespace-delimited token."""
    stripped = full_name.strip().lower()
    if not stripped:
        return ""
    token = stripped.split()[-1]
    if token.isascii():  # NFKD keeps ASCII, and no ASCII character combines
        return token
    folded = unicodedata.normalize("NFKD", token)
    ascii_token = "".join(c for c in folded if not unicodedata.combining(c) and ord(c) < 128)
    return ascii_token if ascii_token else token


@dataclass(frozen=True, slots=True)
class AuthorName:
    """An author by full name; a parse shares one AuthorName among all
    occurrences of a name."""

    full_name: str

    @property
    def last_name_key(self) -> str:
        return last_name_key(self.full_name)


@dataclass(slots=True)
class PublicationRecord:
    record_id: str
    title: str
    authors: tuple[AuthorName, ...]
    venue_key: str | None
    year: int | None
    references: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class VenueInfo:
    name: str
    kind: str = UNKNOWN_KIND


def normalize_reference_key(target: str) -> str:
    return " ".join(target.lower().split())


@dataclass(frozen=True)
class ReferenceIndex:
    """Every reference of a corpus resolved once. Record r (its row in
    `records`) has the targets targets[offsets[r]:offsets[r + 1]]: the row
    of the record a target names by id, or -1 - k for external_keys[k], the
    target normalized. record_venue[r] indexes the sorted `venues` (-1: none).
    """

    venues: list[str]
    record_venue: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    external_keys: list[str]


class Corpus:
    """A corpus as columns, row r holding its r-th record: `ids` and
    `titles`; row r's venue key venue_keys[venue[r]] (-1: none) and year
    years[r] (0: none); its references targets[c] for each code c of
    ref_codes[ref_offsets[r]:ref_offsets[r + 1]], and its authors
    authors[c] for each code c of author_codes[author_offsets[r]:
    author_offsets[r + 1]]. The three tables hold each distinct value once;
    a slice shares its parent's, and a linked corpus's targets are the
    renamed targets of two corpora, so they may hold values no row uses.
    `records` shows the rows as PublicationRecords. A corpus does not change
    once made."""

    def __init__(self, records: Iterable[PublicationRecord], venue_table: dict[str, VenueInfo], source: str = METADATA_CORPUS):
        build = _Builder(venue_table, fill_venues=False)
        for position, rec in enumerate(records, start=1):
            where = f"record {position}"
            build.row(rec.record_id, where)
            build.add(where, rec.title, [a.full_name for a in rec.authors], rec.venue_key, rec.year, rec.references)
        build.fill(self, source)

    @property
    def records(self) -> Sequence[PublicationRecord]:
        return _Records(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Corpus) and (self.source, self.venue_table, self.records) == (
            other.source, other.venue_table, other.records)

    def _derive(self, **columns) -> Corpus:
        """A corpus with this one's columns but `columns`, its reference
        index built anew, and its id -> row dict too if `columns` has ids."""
        derived = copy.copy(self)
        vars(derived).update(columns, _references=None)
        if "ids" in columns:
            derived._rows = dict(zip(derived.ids, range(len(derived.ids))))
        return derived

    def record(self, record_id: str) -> PublicationRecord:
        return self.records[self._rows[record_id]]

    def linked(self, cite: Corpus, partners: dict[str, str], rename: dict[str, str]) -> Corpus:
        """This corpus with the references of `cite`'s record partners[i] on
        each row whose id i `partners` names, and every target t, carried or
        a row's own, renamed to rename.get(t, t). Each target of the two
        tables is renamed once, and the new table holds each name once. A
        left id that is no row of this corpus, or a right id that is none of
        `cite`, is a ValueError naming it."""
        table = FirstSeenIds()
        names = [rename.get(t, t) for t in self.targets + cite.targets]
        code = np.fromiter(map(table.__getitem__, names), np.int32, len(names))
        rows = np.arange(len(self.ids))  # row r of cite is row len(self.ids) + r of the two
        for left, right in partners.items():
            row, partner = self._rows.get(left), cite._rows.get(right)
            if row is None or partner is None:
                side, name = ("left", left) if row is None else ("right", right)
                raise ValueError(f"{side}_id {name!r} names no record of the {side} corpus")
            rows[row] = len(self.ids) + partner
        offsets = np.r_[self.ref_offsets, cite.ref_offsets[1:] + self.ref_offsets[-1]]
        ref_offsets, ref_codes = _rows_of(offsets, np.r_[self.ref_codes, cite.ref_codes + len(self.targets)], rows)
        return self._derive(ref_offsets=ref_offsets, ref_codes=code[ref_codes], targets=list(table))

    def reference_counts(self) -> tuple[int, int]:
        """The number of references and of distinct reference targets."""
        return self.ref_codes.size, _used(self.ref_codes, len(self.targets)).size

    def reference_index(self) -> ReferenceIndex:
        """The index, built on first use. Every reader of the references
        reads it."""
        if self._references is None:
            venue_codes = sorted(_used(self.venue[self.venue >= 0], len(self.venue_keys)).tolist(), key=self.venue_keys.__getitem__)
            rank = np.full(len(self.venue_keys) + 1, -1, np.int64)  # its last entry ranks venue -1: none
            rank[venue_codes] = np.arange(len(venue_codes))
            # each distinct target resolved once, in the order the references first
            # name it: its row, or -1 - k for the k-th distinct normalized key naming no record
            codes, n = self.ref_codes, self.ref_codes.size
            first = np.full(len(self.targets), n, np.int64)
            np.minimum.at(first, codes, np.arange(n))
            seen = np.argsort(first, kind="stable")[: np.count_nonzero(first < n)]
            rows, external, resolved = self._rows, {}, []
            for target in map(self.targets.__getitem__, seen.tolist()):
                row = rows.get(target)
                resolved.append(-1 - external.setdefault(normalize_reference_key(target), len(external)) if row is None else row)
            row_of = np.zeros(len(self.targets), np.int64)
            row_of[seen] = resolved
            venues = list(map(self.venue_keys.__getitem__, venue_codes))
            self._references = ReferenceIndex(venues, rank[self.venue], self.ref_offsets, row_of[codes], list(external))
        return self._references

    def author_index(self) -> tuple[np.ndarray, np.ndarray, list[AuthorName]]:
        """Every record's authors as ids into the corpus's distinct authors in
        full-name order: record r (its row) has the authors
        distinct[authors[offsets[r]:offsets[r + 1]]], in its own order, as
        `(offsets, authors, distinct)`. Built on each call and not kept."""
        used = _used(self.author_codes, len(self.authors)).tolist()
        names = [self.authors[a].full_name for a in used]
        by_name = [used[i] for i in sorted(range(len(used)), key=names.__getitem__)]
        rank = np.zeros(len(self.authors), ids(len(by_name)))
        rank[by_name] = np.arange(len(by_name))
        return self.author_offsets, rank[self.author_codes], list(map(self.authors.__getitem__, by_name))

    def id_order(self) -> np.ndarray:
        """The rows in record-id order."""
        n = len(self.ids)
        # timsort (stable), which is quick on ids that come near name order already
        return np.argsort(np.fromiter(self.ids, object, n), kind="stable").astype(ids(n))

    def venue_kind(self, venue_key: str) -> str:
        info = self.venue_table.get(venue_key)
        return info.kind if info else UNKNOWN_KIND


def _row_lists(table: list, codes: np.ndarray, offsets: np.ndarray) -> Iterator[list]:
    """table[c] for the codes c of each row in turn, read through a
    memoryview, whose ints live one at a time."""
    values = map(table.__getitem__, memoryview(codes))
    return (list(islice(values, count)) for count in memoryview(np.diff(offsets)))


def _used(codes: np.ndarray, size: int) -> np.ndarray:
    """The codes below `size` that `codes` holds, ascending."""
    return np.flatnonzero(np.bincount(codes, minlength=size))


class _Records(Sequence):
    """A corpus's rows as PublicationRecords, each built when it is read."""

    def __init__(self, corpus: Corpus):
        self._corpus = corpus

    def __len__(self) -> int:
        return len(self._corpus.ids)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        return list(map(self._record, rows)) if isinstance(index, slice) else self._record(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __add__(self, other) -> list[PublicationRecord]:
        return [*self, *other]

    def _record(self, row: int) -> PublicationRecord:
        c = self._corpus
        authors = c.author_codes[c.author_offsets[row] : c.author_offsets[row + 1]].tolist()
        refs = c.ref_codes[c.ref_offsets[row] : c.ref_offsets[row + 1]].tolist()
        venue, year = int(c.venue[row]), int(c.years[row])
        return PublicationRecord(c.ids[row], c.titles[row], tuple(map(c.authors.__getitem__, authors)),
                                 c.venue_keys[venue] if venue >= 0 else None, year or None, tuple(map(c.targets.__getitem__, refs)))


class _Builder:
    """A corpus's columns, filled a record at a time, and what every way of
    making a corpus does alike: no record id twice, each distinct target,
    venue key and author name held once, names and years checked, and, with
    `fill_venues` (a parse), a `venue_table` entry for each venue key no
    venue line names.

    A record is `row`, then `add`; a parse checks its other fields in
    between, so its faults come in the order its format fixes."""

    def __init__(self, venue_table: dict[str, VenueInfo], fill_venues: bool = True):
        self.venue_table, self.fill_venues = venue_table, fill_venues
        self.rows, self.titles, self.venue_codes, self.venue, self.years = {}, [], {}, array("i"), array("h")
        # the codes go in lists, which take a record's codes quicker than arrays do
        self.names, self.author_codes, self.author_ends = {}, [], array("q", [0])
        self.targets, self.ref_codes, self.ref_ends = FirstSeenIds(), [], array("q", [0])

    def row(self, record_id: str, position: str) -> None:
        if record_id in self.rows:
            raise DuplicateRecordIdError(record_id, position)
        self.rows[record_id] = len(self.rows)

    def add(self, position: str, title: str, names: Iterable, venue_key: str | None, year: int | None,
            refs: Iterable[str], venue_info: VenueInfo | None = None) -> None:
        """The rest of the record: its names checked (each once) before its
        year. `venue_info` is the venue-table entry a parse makes for a venue
        key no venue line names (default: the key, of unknown kind)."""
        known, append = self.names, self.author_codes.append
        for name in names:
            if not isinstance(name, str):  # before the lookup: a list is no dict key
                raise MalformedEntryError(position, f"empty or non-string author name {name!r}")
            code = known.get(name)
            if code is None:
                if not name.strip():
                    raise MalformedEntryError(position, f"empty or non-string author name {name!r}")
                code = known[name] = len(known)
            append(code)
        if year is not None and (year.__class__ is not int or not YEAR_MIN <= year <= YEAR_MAX):
            _check_year(year, position)
        self.author_ends.append(len(self.author_codes))
        self.titles.append(title)
        venue = self.venue_codes.get(venue_key, -1)  # -1: none
        if venue < 0 and venue_key is not None:
            venue = self.venue_codes[venue_key] = len(self.venue_codes)
            if self.fill_venues and venue_key not in self.venue_table:
                self.venue_table[venue_key] = venue_info or VenueInfo(name=venue_key)
        self.venue.append(venue)
        self.years.append(year or 0)
        self.ref_codes += map(self.targets.__getitem__, refs)
        self.ref_ends.append(len(self.ref_codes))

    def fill(self, corpus: Corpus, source: str) -> Corpus:
        """`corpus` given the columns built, and returned."""
        vars(corpus).update(
            ids=list(self.rows), titles=self.titles, venue_keys=list(self.venue_codes),
            venue=np.frombuffer(self.venue, np.int32), years=np.frombuffer(self.years, np.int16),
            ref_offsets=np.frombuffer(self.ref_ends, np.int64), targets=list(self.targets),
            ref_codes=np.fromiter(self.ref_codes, np.int32, len(self.ref_codes)),
            author_offsets=np.frombuffer(self.author_ends, np.int64), authors=list(map(AuthorName, self.names)),
            author_codes=np.fromiter(self.author_codes, np.int32, len(self.author_codes)),
            venue_table=self.venue_table, source=source, _rows=self.rows, _references=None,
        )
        return corpus


@dataclass
class ValidationReport:
    record_count: int
    dangling_venue_keys: list[str]
    empty_title_ids: list[str]
    unresolved_reference_count: int
    resolved_reference_count: int
    no_venue_count: int
    no_author_count: int

    def is_clean(self) -> bool:
        return not self.dangling_venue_keys and not self.empty_title_ids


# -- parsing ------------------------------------------------------------


def _check_year(year, position: str) -> int:
    if not isinstance(year, int) or isinstance(year, bool):
        raise MalformedEntryError(position, f"year must be an integer, got {year!r}")
    if not YEAR_MIN <= year <= YEAR_MAX:
        raise MalformedEntryError(position, f"year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
    return year


# json's C scanner, called on a line directly: json.loads would add a type
# check, a BOM check and two whitespace matches around it per line. A line
# the scan does not take whole goes to json.loads, for its error message.
_scan_json = make_scanner(json.JSONDecoder())


def _all_strings(items: list) -> bool:
    try:
        "".join(items)  # str.join takes strings only; one C loop, no generator
    except TypeError:
        return False
    return True


def _loads(line: str, position: str):
    """json.loads(line), its failures as malformed entries with its message."""
    try:
        return json.loads(line)
    except RecursionError as exc:
        raise MalformedEntryError(position, "JSON nested too deeply") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise MalformedEntryError(position, f"invalid JSON ({getattr(exc, 'msg', exc)})") from exc


def _venue_line(obj: dict, position: str) -> tuple[str, VenueInfo]:
    key = obj["venue_key"]
    if not isinstance(key, str) or not key:
        raise MalformedEntryError(position, f"venue_key must be a non-empty string, got {key!r}")
    name = obj.get("name", key)
    if not isinstance(name, str):
        raise MalformedEntryError(position, f"venue name must be a string, got {name!r}")
    kind = obj.get("kind", UNKNOWN_KIND)
    if kind not in VENUE_KINDS:
        raise MalformedEntryError(position, f"venue kind must be one of {', '.join(VENUE_KINDS)}, got {kind!r}")
    return key, VenueInfo(name=name, kind=kind)


def gc_paused(func):
    """`func` with the cyclic garbage collector paused meanwhile, and the
    caller's collector state restored when it returns or raises: records
    hold no reference cycles, and the collector's passes over them would
    grow with the corpus."""

    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@gc_paused
def parse_jsonl(stream: BinaryIO | Iterable[bytes], source: str = METADATA_CORPUS) -> Corpus:
    """One JSON object per line: records, venue lines and source headers.
    The last source header, if any, names the corpus.

    Each line is decoded on its own; the first bad line raises with its
    number. The checks run in a fixed order, so a line with several faults
    always reports the same one."""
    build = _Builder({})
    venue_table = build.venue_table

    for lineno, raw in enumerate(stream, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise MalformedEntryError(f"line {lineno}", f"invalid UTF-8 at byte {exc.start}") from exc
        if not line:
            continue
        try:
            obj, end = _scan_json(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            obj = _loads(line, f"line {lineno}")
        if obj.__class__ is not dict:
            raise MalformedEntryError(f"line {lineno}", "expected a JSON object")

        if "id" not in obj:
            if "venue_key" in obj:
                key, info = _venue_line(obj, f"line {lineno}")
                venue_table[key] = info
            elif "source" in obj:
                header = obj["source"]
                if header not in CORPUS_SOURCES:
                    raise MalformedEntryError(
                        f"line {lineno}", f"source must be one of {', '.join(CORPUS_SOURCES)}, got {header!r}"
                    )
                source = header
            else:
                raise MalformedEntryError(f"line {lineno}", "record missing 'id'")
            continue

        position = f"line {lineno}"
        record_id = obj["id"]
        if record_id.__class__ is not str or not record_id:
            raise MalformedEntryError(position, f"record id must be a non-empty string, got {record_id!r}")
        build.row(record_id, position)

        title = obj.get("title", "")
        if title.__class__ is not str:
            raise MalformedEntryError(position, "title must be a string")
        venue_key = obj.get("venue")
        if venue_key is not None and (venue_key.__class__ is not str or not venue_key):
            raise MalformedEntryError(position, f"venue must be a non-empty string or null, got {venue_key!r}")
        refs = obj.get("refs", [])
        if refs.__class__ is not list or "" in refs or not _all_strings(refs):
            raise MalformedEntryError(position, "refs must be a list of non-empty strings")
        names = obj.get("authors", [])
        if names.__class__ is not list:
            raise MalformedEntryError(position, f"authors must be a list of names, got {names!r}")
        build.add(position, title, names, venue_key, obj.get("year"), refs)

    return build.fill(Corpus.__new__(Corpus), source)


_DBLP_KINDS = {"article": JOURNAL, "inproceedings": CONFERENCE}
# Bytes the XML parser takes at a time; the records they finish are read after each.
_XML_READ = 64 * 1024


def _nested(box) -> bool:
    """Whether a record lies deeper under `box` than its children: a few
    passes of ElementTree's C iterators, no Python code per element."""
    return any(len(box.findall(kind)) < len(list(box.iter(kind))) for kind in _DBLP_KINDS)


def _end_order(top, opened=frozenset()) -> Iterator:
    """The elements of the tree at `top`, each after its children (the
    order their end tags came in), but those in `opened`."""
    stack = [(top, iter(top))]
    while stack:
        elem, children = stack[-1]
        child = next(children, None)
        if child is not None:
            stack.append((child, iter(child)))
            continue
        stack.pop()
        if elem not in opened:
            yield elem


@gc_paused
def parse_dblp_xml(stream: BinaryIO, source: str = METADATA_CORPUS) -> Corpus:
    """Parse the supported DBLP export subset (article / inproceedings).

    Records at any depth are read in the order their end tags come, and
    every other element is skipped. The stream is fed to ElementTree's
    parser `_XML_READ` bytes at a time; after each read, the document
    element's finished children are read and dropped (a root that is a
    record keeps its children and is read last), so memory follows one
    read, not the file. On a syntax error, the records that ended before
    it are read first, so that a fault of theirs is the one raised."""
    import xml.etree.ElementTree as ET  # here, so that a JSONL run never imports it

    build = _Builder({})
    venue_table = build.venue_table
    index = 0

    def read(elems: Iterable) -> None:
        """Add the records among `elems`, numbering them on."""
        nonlocal index
        for elem in elems:
            kind = _DBLP_KINDS.get(elem.tag)
            if kind is None:
                continue
            index += 1
            key = elem.get("key")
            if not key:
                raise MalformedEntryError(f"element {index} ({elem.tag})", "missing key attribute")
            position = f"element {index} (key={key})"
            build.row(key, position)

            title = elem.find("title")
            if title is None:
                title = ""
            else:  # its whole text, inline markup (<i>, <sub>, ...) included
                title = ("".join(title.itertext()) if len(title) else title.text or "").replace("\n", "").strip()
            if not title:
                raise MalformedEntryError(position, "missing title")
            year_text = elem.findtext("year")
            year = None
            if year_text:
                try:
                    year = int(year_text)
                except ValueError as exc:
                    raise MalformedEntryError(position, f"non-numeric year {year_text!r}") from exc
                if not YEAR_MIN <= year <= YEAR_MAX:
                    _check_year(year, position)

            parts = key.split("/", 2)
            venue_key = venue_info = None
            if len(parts) == 3:
                venue_key = f"{parts[0]}/{parts[1]}"
                if venue_key not in venue_table:  # only a venue's first record names it
                    venue_name = elem.findtext("journal") or elem.findtext("booktitle")
                    venue_info = VenueInfo(name=venue_name or venue_key, kind=kind)

            refs = [text for c in elem.findall("cite") if (text := (c.text or "").strip()) and text != "..."]
            build.add(position, title, [a.text or "" for a in elem.findall("author")], venue_key, year, refs, venue_info)

    tb = ET.TreeBuilder()
    top = tb.start("", {})  # the document element becomes its one child
    parser = ET.XMLParser(target=tb)
    done = ET.Element("")
    error = None
    try:
        while data := stream.read(_XML_READ):
            parser.feed(data)
            if len(top) and top[0].tag not in _DBLP_KINDS:
                doc = top[0]
                done[:] = doc[:-1]  # its last child may still be open
                del doc[:-1]
                read(_end_order(done) if _nested(done) else done)
                del done[:]
        parser.close()
    except ET.ParseError as exc:
        error = exc
    except LookupError as exc:  # the XML declaration names an unknown encoding
        raise MalformedEntryError("line 1", str(exc)) from exc

    opened = set()
    if error is not None:
        while (elem := tb.end("")) is not top:  # closes the innermost open element
            opened.add(elem)
    read(_end_order(top, opened))
    if error is not None:
        raise MalformedEntryError(f"line {error.position[0]}", f"XML syntax error: {error.msg}") from error
    return build.fill(Corpus.__new__(Corpus), source)


def parse_corpus(stream: BinaryIO, format: str, source: str = METADATA_CORPUS) -> Corpus:
    """The corpus `stream` holds in `format`, its names checked (check_names)."""
    if format == "jsonl":
        corpus = parse_jsonl(stream, source=source)
    elif format == "dblp-xml":
        corpus = parse_dblp_xml(stream, source=source)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    check_names(corpus)
    return corpus


def _jsonl_lines(corpus: Corpus) -> Iterator[str]:
    """The canonical JSONL lines of `corpus`: the bytes `json.dumps(obj,
    sort_keys=True)` gives for each line's object, written directly. Keys
    come in sorted order, strings are ASCII-escaped by the C encoder (each
    distinct name and target once), and a record's `venue` and `year` are
    left out when absent."""
    enc = encode_basestring_ascii
    yield f'{{"source": {enc(corpus.source)}}}\n'
    venue_table = corpus.venue_table
    for key in sorted(venue_table):
        info = venue_table[key]
        yield f'{{"kind": {enc(info.kind)}, "name": {enc(info.name)}, "venue_key": {enc(key)}}}\n'
    authors = _row_lists([enc(a.full_name) for a in corpus.authors], corpus.author_codes, corpus.author_offsets)
    refs = _row_lists(list(map(enc, corpus.targets)), corpus.ref_codes, corpus.ref_offsets)
    venues = [f', "venue": {enc(key)}' for key in corpus.venue_keys] + [""]  # venue -1 reads the last: none
    rows = zip(corpus.ids, corpus.titles, memoryview(corpus.venue), memoryview(corpus.years), authors, refs)
    for record_id, title, venue, year, record_authors, record_refs in rows:
        year = f', "year": {year}' if year else ""
        yield (
            f'{{"authors": [{", ".join(record_authors)}], "id": {enc(record_id)}, '
            f'"refs": [{", ".join(record_refs)}], "title": {enc(title)}{venues[venue]}{year}}}\n'
        )


# What a name cannot hold (compiled on first use): C0 controls break TSV rows,
# U+0085, U+2028 and U+2029 end a line for `str.splitlines`, and XML 1.0 has no
# lone surrogates, U+FFFE or U+FFFF.
_UNCARRIED = "[\x00-\x1f\x85\u2028\u2029\ud800-\udfff\ufffe\uffff]"


def check_name(name: str, what: str, record_id: bool = False) -> str:
    """`name`, if the artifacts can carry it: ValueError, naming it as `what`,
    when it holds an `_UNCARRIED` character or, unless it is a `record_id`,
    starts with `#`, which the edge TSV reader takes for a comment. The one
    name rule, for corpora, partitions, coupling matrices and domain tables."""
    bad = re.search(_UNCARRIED, name)
    if bad:
        raise ValueError(f"{what} {name!r} holds {bad.group()!r}, which the output artifacts cannot carry")
    if name.startswith("#") and not record_id:
        raise ValueError(f"{what} {name!r} starts with '#', which an edge TSV would read as a comment")
    return name


def check_names(corpus: Corpus) -> None:
    """Raise MalformedEntryError, naming the record's id and 1-based
    position, for the first record whose id or venue key `check_name`
    refuses.

    One search over all ids and one over the venue table's keys (a space is
    no fault) find whether there is one; only then are the records scanned
    for it. Every record's venue key must be in the venue table, as the
    parsers leave it."""
    search = re.compile(_UNCARRIED).search
    keys = corpus.venue_table
    if not (search(" ".join(corpus.ids)) or search(" ".join(keys)) or any(key.startswith("#") for key in keys)):
        return
    for position, (record_id, venue) in enumerate(zip(corpus.ids, corpus.venue.tolist()), start=1):
        try:
            check_name(record_id, "record id", record_id=True)
            if venue >= 0:
                check_name(corpus.venue_keys[venue], "venue key")
        except ValueError as exc:
            raise MalformedEntryError(f"record {position} (id {record_id!r})", str(exc)) from None


def load_corpus(path) -> Corpus:
    """The canonical JSONL corpus at `path`, its names checked."""
    with open(path, "rb") as fh:
        return parse_corpus(fh, "jsonl")


def save_corpus(corpus: Corpus, path) -> None:
    """Canonical JSONL of `corpus`, streamed to `path` a line at a time;
    parsing the file gives `corpus` back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:  # the lines are ASCII
        fh.writelines(_jsonl_lines(corpus))


# -- validation and slicing ----------------------------------------------


def validate_corpus(corpus: Corpus) -> ValidationReport:
    """Report structural issues without mutating anything."""
    index = corpus.reference_index()
    resolved = int(np.count_nonzero(index.targets >= 0))
    return ValidationReport(
        record_count=len(corpus.ids),
        dangling_venue_keys=[venue for venue in index.venues if venue not in corpus.venue_table],
        empty_title_ids=[record_id for record_id, title in zip(corpus.ids, corpus.titles) if not title.strip()],
        unresolved_reference_count=index.targets.size - resolved,
        resolved_reference_count=resolved,
        no_venue_count=int(np.count_nonzero(index.record_venue < 0)),
        no_author_count=int(np.count_nonzero(np.diff(corpus.author_offsets) == 0)),
    )


def slice_by_year(corpus: Corpus, cutoff: int) -> Corpus:
    """Sub-corpus of records published up to and including the cutoff year.

    Records without a year are excluded; the venue table is restricted to
    venues still referenced by the surviving records. The slice shares
    `corpus`'s tables of venue keys, targets and authors.
    """
    if not YEAR_MIN <= cutoff <= YEAR_MAX:
        raise ValueError(f"cutoff {cutoff} outside [{YEAR_MIN}, {YEAR_MAX}]")
    kept = np.flatnonzero((corpus.years > 0) & (corpus.years <= cutoff))
    rows, venue = kept.tolist(), corpus.venue[kept]
    used_venues = set(map(corpus.venue_keys.__getitem__, _used(venue[venue >= 0], len(corpus.venue_keys)).tolist()))
    ref_offsets, ref_codes = _rows_of(corpus.ref_offsets, corpus.ref_codes, kept)
    author_offsets, author_codes = _rows_of(corpus.author_offsets, corpus.author_codes, kept)
    return corpus._derive(
        ids=list(map(corpus.ids.__getitem__, rows)), titles=list(map(corpus.titles.__getitem__, rows)),
        venue=venue, years=corpus.years[kept], ref_offsets=ref_offsets, ref_codes=ref_codes,
        author_offsets=author_offsets, author_codes=author_codes,
        venue_table={k: v for k, v in corpus.venue_table.items() if k in used_venues},
    )


def _rows_of(offsets: np.ndarray, codes: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The compressed rows `rows` of the compressed rows (offsets, codes)."""
    counts = offsets[rows + 1] - offsets[rows]
    entries, _ = concat_ranges(offsets[rows], counts)
    return np.r_[0, np.cumsum(counts)], codes[entries]

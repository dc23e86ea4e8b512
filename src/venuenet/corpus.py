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

import functools
import gc
import json
import re
import unicodedata
from dataclasses import InitVar, dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from json.scanner import make_scanner
from operator import attrgetter
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .arrays import ids

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


@dataclass
class Corpus:
    """`rows` (record id -> row) is the parser's, which builds it while it
    reads; without it, it is taken from `records`."""

    records: list[PublicationRecord]
    venue_table: dict[str, VenueInfo]
    source: str = METADATA_CORPUS
    rows: InitVar[dict[str, int] | None] = None

    def __post_init__(self, rows: dict[str, int] | None) -> None:
        self._rows: dict[str, int] = {r.record_id: i for i, r in enumerate(self.records)} if rows is None else rows
        self._references: ReferenceIndex | None = None

    def record(self, record_id: str) -> PublicationRecord:
        return self.records[self._rows[record_id]]

    def reference_counts(self) -> tuple[int, int]:
        """The number of references and of distinct reference targets."""
        per_record = list(map(attrgetter("references"), self.records))
        lengths = np.fromiter(map(len, per_record), np.int64, len(per_record))
        return int(lengths.sum()), len(set(chain.from_iterable(per_record)))

    def reference_index(self) -> ReferenceIndex:
        """The index, built on first use; the records must not change after.
        Every reader of the references reads it."""
        if self._references is None:
            venues = sorted({r.venue_key for r in self.records} - {None})
            venue_ids = {venue: i for i, venue in enumerate(venues)}
            per_record = list(map(attrgetter("references"), self.records))
            offsets = np.cumsum([0, *map(len, per_record)], dtype=np.int64)
            # each distinct target resolved once, in first-seen order and in place:
            # its row, or -1 - k for the k-th distinct normalized key naming no record
            codes = dict.fromkeys(chain.from_iterable(per_record))
            rows, external = self._rows, {}
            for target in codes:
                row = rows.get(target)
                if row is None:
                    row = -1 - external.setdefault(normalize_reference_key(target), len(external))
                codes[target] = row
            targets = map(codes.__getitem__, chain.from_iterable(per_record))
            self._references = ReferenceIndex(
                venues=venues,
                record_venue=np.array([venue_ids.get(r.venue_key, -1) for r in self.records], dtype=np.int64),
                offsets=offsets,
                targets=np.fromiter(targets, dtype=np.int64, count=int(offsets[-1])),
                external_keys=list(external),
            )
        return self._references

    def author_index(self) -> tuple[np.ndarray, np.ndarray, list[AuthorName]]:
        """Every record's authors as ids into the corpus's distinct authors in
        full-name order: record r (its row) has the authors
        distinct[authors[offsets[r]:offsets[r + 1]]], in its own order, as
        `(offsets, authors, distinct)`. Built on each call and not kept."""
        per_record = list(map(attrgetter("authors"), self.records))
        occurrences = list(chain.from_iterable(per_record))
        full = list(map(attrgetter("full_name"), occurrences))
        by_name = dict(zip(full, occurrences))  # one AuthorName per distinct full name
        del occurrences
        names = sorted(by_name)
        distinct = list(map(by_name.__getitem__, names))
        by_name.update(zip(names, range(len(names))))
        authors = np.fromiter(map(by_name.__getitem__, full), ids(len(names)), len(full))
        offsets = np.r_[0, np.cumsum(np.fromiter(map(len, per_record), np.int64, len(per_record)))]
        return offsets, authors, distinct

    def id_order(self) -> np.ndarray:
        """The rows in record-id order."""
        n = len(self.records)
        # timsort (stable), which is quick on ids that come near name order already
        record_ids = np.fromiter(map(attrgetter("record_id"), self.records), object, n)
        return np.argsort(record_ids, kind="stable").astype(ids(n))

    def venue_kind(self, venue_key: str) -> str:
        info = self.venue_table.get(venue_key)
        return info.kind if info else UNKNOWN_KIND


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


def _make_authors(names: Iterable[str], position: str, interned: dict[str, AuthorName]) -> tuple[AuthorName, ...]:
    """`interned` holds one AuthorName per distinct full name seen so far in
    the parse, so each name is checked and stored once."""
    authors = []
    for name in names:
        if not isinstance(name, str):  # before the lookup: a list is no dict key
            raise MalformedEntryError(position, f"empty or non-string author name {name!r}")
        author = interned.get(name)
        if author is None:
            if not name.strip():
                raise MalformedEntryError(position, f"empty or non-string author name {name!r}")
            author = interned[name] = AuthorName(name)
        authors.append(author)
    return tuple(authors)


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
    records: list[PublicationRecord] = []
    venue_table: dict[str, VenueInfo] = {}
    rows: dict[str, int] = {}
    distinct: dict[str, str] = {}  # one object per distinct reference target
    shared: dict = {}  # one object per distinct venue key and year
    interned: dict[str, AuthorName] = {}

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

        record_id = obj["id"]
        if record_id.__class__ is not str or not record_id:
            raise MalformedEntryError(f"line {lineno}", f"record id must be a non-empty string, got {record_id!r}")
        if record_id in rows:
            raise DuplicateRecordIdError(record_id, f"line {lineno}")
        rows[record_id] = len(records)

        title = obj.get("title", "")
        if title.__class__ is not str:
            raise MalformedEntryError(f"line {lineno}", "title must be a string")
        venue_key = obj.get("venue")
        if venue_key is not None:
            if venue_key.__class__ is not str or not venue_key:
                raise MalformedEntryError(f"line {lineno}", f"venue must be a non-empty string or null, got {venue_key!r}")
            venue_key = shared.setdefault(venue_key, venue_key)
        refs = obj.get("refs", [])
        if refs.__class__ is not list or "" in refs or not _all_strings(refs):
            raise MalformedEntryError(f"line {lineno}", "refs must be a list of non-empty strings")
        refs = tuple(map(distinct.setdefault, refs, refs))
        names = obj.get("authors", [])
        if names.__class__ is not list:
            raise MalformedEntryError(f"line {lineno}", f"authors must be a list of names, got {names!r}")
        authors = _make_authors(names, f"line {lineno}", interned)
        year = obj.get("year")
        if year is not None:
            if year.__class__ is not int or not YEAR_MIN <= year <= YEAR_MAX:
                _check_year(year, f"line {lineno}")
            year = shared.setdefault(year, year)

        records.append(PublicationRecord(record_id, title, authors, venue_key, year, refs))
        if venue_key is not None and venue_key not in venue_table:
            venue_table[venue_key] = VenueInfo(name=venue_key, kind=UNKNOWN_KIND)

    return Corpus(records, venue_table, source, rows=rows)


_DBLP_KINDS = {"article": JOURNAL, "inproceedings": CONFERENCE}


@gc_paused
def parse_dblp_xml(stream: BinaryIO, source: str = METADATA_CORPUS) -> Corpus:
    """Parse the supported DBLP export subset (article / inproceedings).
    Every other element is skipped. No element stays on the root once one
    ends (the parser holds the open ones; a root that is a record keeps its
    children), so memory follows one record, not the file."""
    import xml.etree.ElementTree as ET  # here, so that a JSONL run never imports it

    records: list[PublicationRecord] = []
    venue_table: dict[str, VenueInfo] = {}
    rows: dict[str, int] = {}
    distinct: dict[str, str] = {}  # one object per distinct reference target
    shared: dict = {}  # one object per distinct venue key and year
    interned: dict[str, AuthorName] = {}
    index = 0

    try:
        events = ET.iterparse(stream, events=("start", "end"))
        _, root = next(events)
        for event, elem in events:
            if event == "end" and root.tag not in _DBLP_KINDS:
                root.clear()
            if event == "start" or elem.tag not in _DBLP_KINDS:
                continue
            index += 1
            key = elem.get("key")
            position = f"element {index} ({elem.tag})"
            if not key:
                raise MalformedEntryError(position, "missing key attribute")
            position = f"element {index} (key={key})"
            if key in rows:
                raise DuplicateRecordIdError(key, position)
            rows[key] = len(records)

            title = elem.find("title")  # its whole text, inline markup (<i>, <sub>, ...) included
            title = "".join("".join(title.itertext() if title is not None else ()).split("\n")).strip()
            if not title:
                raise MalformedEntryError(position, "missing title")
            year_text = elem.findtext("year")
            year = None
            if year_text:
                try:
                    year = int(year_text)
                except ValueError as exc:
                    raise MalformedEntryError(position, f"non-numeric year {year_text!r}") from exc
                year = _check_year(year, position)
                year = shared.setdefault(year, year)

            venue_name = elem.findtext("journal") or elem.findtext("booktitle")
            parts = key.split("/")
            venue_key = None
            if len(parts) >= 3:
                venue_key = "/".join(parts[:2])
                venue_key = shared.setdefault(venue_key, venue_key)
                if venue_key not in venue_table:
                    venue_table[venue_key] = VenueInfo(name=venue_name or venue_key, kind=_DBLP_KINDS[elem.tag])

            cites = (c.text.strip() for c in elem.findall("cite") if c.text)
            refs = tuple(distinct.setdefault(text, text) for text in cites if text and text != "...")
            authors = _make_authors((a.text or "" for a in elem.findall("author")), position, interned)
            records.append(PublicationRecord(key, title, authors, venue_key, year, refs))
    except ET.ParseError as exc:
        raise MalformedEntryError(f"line {exc.position[0]}", f"XML syntax error: {exc.msg if hasattr(exc, 'msg') else exc}") from exc
    except LookupError as exc:  # the XML declaration names an unknown encoding
        raise MalformedEntryError("line 1", str(exc)) from exc

    return Corpus(records, venue_table, source, rows=rows)


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
    come in sorted order, strings are ASCII-escaped by the C encoder, and
    a record's `venue` and `year` are left out when absent."""
    enc = encode_basestring_ascii
    yield f'{{"source": {enc(corpus.source)}}}\n'
    venue_table = corpus.venue_table
    for key in sorted(venue_table):
        info = venue_table[key]
        yield f'{{"kind": {enc(info.kind)}, "name": {enc(info.name)}, "venue_key": {enc(key)}}}\n'
    for rec in corpus.records:
        authors = ", ".join([enc(a.full_name) for a in rec.authors])
        refs = ", ".join(map(enc, rec.references))
        venue = "" if rec.venue_key is None else f', "venue": {enc(rec.venue_key)}'
        year = "" if rec.year is None else f', "year": {int.__repr__(rec.year)}'
        yield (
            f'{{"authors": [{authors}], "id": {enc(rec.record_id)}, "refs": [{refs}], '
            f'"title": {enc(rec.title)}{venue}{year}}}\n'
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
    if not (search(" ".join(corpus._rows)) or search(" ".join(keys)) or any(key.startswith("#") for key in keys)):
        return
    for position, rec in enumerate(corpus.records, start=1):
        try:
            check_name(rec.record_id, "record id", record_id=True)
            if rec.venue_key is not None:
                check_name(rec.venue_key, "venue key")
        except ValueError as exc:
            raise MalformedEntryError(f"record {position} (id {rec.record_id!r})", str(exc)) from None


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
        record_count=len(corpus.records),
        dangling_venue_keys=[venue for venue in index.venues if venue not in corpus.venue_table],
        empty_title_ids=[r.record_id for r in corpus.records if not r.title.strip()],
        unresolved_reference_count=index.targets.size - resolved,
        resolved_reference_count=resolved,
        no_venue_count=int(np.count_nonzero(index.record_venue < 0)),
        no_author_count=sum(not r.authors for r in corpus.records),
    )


def slice_by_year(corpus: Corpus, cutoff: int) -> Corpus:
    """Sub-corpus of records published up to and including the cutoff year.

    Records without a year are excluded; the venue table is restricted to
    venues still referenced by the surviving records. The kept records are
    `corpus`'s own objects, not copies: no record changes after its parse.
    """
    if not YEAR_MIN <= cutoff <= YEAR_MAX:
        raise ValueError(f"cutoff {cutoff} outside [{YEAR_MIN}, {YEAR_MAX}]")
    kept = [r for r in corpus.records if r.year is not None and r.year <= cutoff]
    used_venues = {r.venue_key for r in kept if r.venue_key is not None}
    venue_table = {k: v for k, v in corpus.venue_table.items() if k in used_venues}
    return Corpus(records=kept, venue_table=venue_table, source=corpus.source)

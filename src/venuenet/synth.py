"""Synthetic corpora: corpus builders with planted ground truth for
benchmarking linkage, clustering, and the full pipeline.
"""

from __future__ import annotations

import random
import string
from dataclasses import replace

from .corpus import (
    CITATION_CORPUS,
    METADATA_CORPUS,
    AuthorName,
    Corpus,
    PublicationRecord,
    VenueInfo,
)


# -- synthetic corpora ----------------------------------------------------

_FIRST_NAMES = (
    "Ada", "Alan", "Edsger", "Grace", "Barbara", "Donald", "John", "Leslie",
    "Judea", "Frances", "Niklaus", "Tony", "Robin", "Shafi", "Silvio", "Manuel",
)


def _surname(rng: random.Random) -> str:
    length = rng.randint(5, 8)
    first = rng.choice(string.ascii_uppercase)
    rest = "".join(rng.choice("aeioubcdfglmnprstvz") for _ in range(length - 1))
    return first + rest


def _word(rng: random.Random) -> str:
    length = rng.randint(4, 8)
    return "".join(rng.choice("aeioubcdfghklmnprstvwyz") for _ in range(length))


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add(_word(rng))
    return sorted(words)


def planted_group_corpus(
    groups: int = 3,
    venues_per_group: int = 10,
    papers_per_venue: int = 12,
    refs_per_paper: int = 6,
    pool_size: int = 40,
    classic_refs: int = 2,
    authors_per_venue: int = 8,
    seed: int = 7,
) -> tuple[Corpus, dict[str, int]]:
    """Corpus with planted topic groups: intra-group coupling dominates.

    Papers of a venue draw external references from the group's private key
    pool and cite the group's "classic" in-corpus papers, so both the
    knowledge and citation networks cluster along the planted groups.
    Returns the corpus and the venue -> group-index truth map.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 400)
    surnames = [_surname(rng) for _ in range(groups * venues_per_group * 3)]

    records: list[PublicationRecord] = []
    venue_table: dict[str, VenueInfo] = {}
    truth: dict[str, int] = {}
    classics: dict[int, list[str]] = {gi: [] for gi in range(groups)}

    venue_authors: dict[str, list[str]] = {}
    for gi in range(groups):
        for vi in range(venues_per_group):
            venue = f"g{gi}v{vi:02d}"
            kind = "journal" if vi % 2 == 0 else "conference"
            venue_table[venue] = VenueInfo(name=f"Venue {venue.upper()}", kind=kind)
            truth[venue] = gi
            venue_authors[venue] = [
                f"{rng.choice(_FIRST_NAMES)} {rng.choice(surnames)}"
                for _ in range(authors_per_venue)
            ]

    pools = {
        gi: [f"ext:g{gi}:k{j:03d}" for j in range(pool_size)] for gi in range(groups)
    }
    # first paper of each venue acts as a group classic
    for gi in range(groups):
        for vi in range(venues_per_group):
            classics[gi].append(f"g{gi}v{vi:02d}p000")

    for gi in range(groups):
        for vi in range(venues_per_group):
            venue = f"g{gi}v{vi:02d}"
            for pi in range(papers_per_venue):
                record_id = f"{venue}p{pi:03d}"
                title = " ".join(rng.choice(vocab) for _ in range(rng.randint(7, 11)))
                author_count = rng.randint(1, 3)
                names = rng.sample(venue_authors[venue], author_count)
                refs = rng.sample(pools[gi], min(refs_per_paper, pool_size))
                cite_targets = [t for t in classics[gi] if t != record_id]
                refs += rng.sample(cite_targets, min(classic_refs, len(cite_targets)))
                records.append(
                    PublicationRecord(
                        record_id=record_id,
                        title=title,
                        authors=tuple(AuthorName(n) for n in names),
                        venue_key=venue,
                        year=1990 + (pi % 20),
                        references=tuple(refs),
                    )
                )

    return Corpus(records=records, venue_table=venue_table, source=METADATA_CORPUS), truth


def split_for_linkage(corpus: Corpus, prefix: str = "cx-") -> tuple[Corpus, Corpus]:
    """Split a self-contained corpus into a metadata side (no references) and
    a citation side (prefixed ids, full references) for exercising linkage."""
    meta_records = [replace(r, references=()) for r in corpus.records]
    cite_records = []
    ids = {r.record_id for r in corpus.records}
    for r in corpus.records:
        refs = tuple(prefix + t if t in ids else t for t in r.references)
        cite_records.append(
            replace(r, record_id=prefix + r.record_id, references=refs)
        )
    meta = Corpus(records=meta_records, venue_table=dict(corpus.venue_table), source=METADATA_CORPUS)
    cite = Corpus(records=cite_records, venue_table={}, source=CITATION_CORPUS)
    return meta, cite


def _corrupt_token(token: str, rng: random.Random) -> str:
    letters = string.ascii_lowercase
    pos = rng.randrange(len(token))
    op = rng.choice(("substitute", "delete", "insert"))
    if op == "substitute":
        replacement = rng.choice([c for c in letters if c != token[pos]])
        return token[:pos] + replacement + token[pos + 1 :]
    if op == "delete" and len(token) > 1:
        return token[:pos] + token[pos + 1 :]
    return token[:pos] + rng.choice(letters) + token[pos:]


def linkage_benchmark_corpora(
    n: int = 1000,
    seed: int = 11,
    last_name_pool: int = 300,
    title_tokens: tuple[int, int] = (8, 12),
    max_corrupted_tokens: int = 2,
) -> tuple[Corpus, Corpus, set[tuple[str, str]]]:
    """Metadata corpus plus a duplicated citation corpus whose titles carry
    up to `max_corrupted_tokens` single-character token typos. Author last
    names are drawn from a shared pool so canopies collide across records.
    Returns both corpora and the set of planted (left, right) pairs."""
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 3000)
    surnames = [_surname(rng) for _ in range(last_name_pool)]

    titles: set[str] = set()
    meta_records = []
    cite_records = []
    truth: set[tuple[str, str]] = set()
    for i in range(n):
        while True:
            title = " ".join(rng.choice(vocab) for _ in range(rng.randint(*title_tokens)))
            if title not in titles:
                titles.add(title)
                break
        authors = tuple(
            AuthorName(f"{rng.choice(_FIRST_NAMES)} {rng.choice(surnames)}")
            for _ in range(rng.randint(1, 3))
        )
        left_id = f"m{i:04d}"
        right_id = f"c{i:04d}"
        meta_records.append(
            PublicationRecord(
                record_id=left_id,
                title=title,
                authors=authors,
                venue_key=None,
                year=2000,
                references=(),
            )
        )
        tokens = title.split()
        corrupt_count = rng.choice((0, 1, 1, 2, 2))
        corrupt_count = min(corrupt_count, max_corrupted_tokens)
        for pos in rng.sample(range(len(tokens)), corrupt_count):
            tokens[pos] = _corrupt_token(tokens[pos], rng)
        cite_records.append(
            PublicationRecord(
                record_id=right_id,
                title=" ".join(tokens),
                authors=authors,
                venue_key=None,
                year=2000,
                references=(),
            )
        )
        truth.add((left_id, right_id))

    meta = Corpus(records=meta_records, venue_table={}, source=METADATA_CORPUS)
    cite = Corpus(records=cite_records, venue_table={}, source=CITATION_CORPUS)
    return meta, cite, truth


def scale_corpus(
    venues: int = 1000,
    papers_per_venue: int = 100,
    groups: int = 30,
    pool_size: int = 120,
    pool_refs: int = 5,
    classic_refs: int = 2,
    hub_venues_per_group: int = 3,
    classics_per_hub: int = 10,
    authors_per_venue: int = 30,
    seed: int = 3,
) -> Corpus:
    """Large benchmark corpus with group structure sized for throughput runs.

    Each group's papers cite "classic" papers hosted by a few hub venues, so
    inter-venue citation counts concentrate enough to survive thresholding,
    while external-pool references give dense intra-group coupling.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 2000)
    surnames = [_surname(rng) for _ in range(2000)]

    venue_keys = [f"v{vi:04d}" for vi in range(venues)]
    group_of = {venue_keys[vi]: vi % groups for vi in range(venues)}
    venue_table = {
        key: VenueInfo(name=f"Venue {key.upper()}", kind="journal" if vi % 2 == 0 else "conference")
        for vi, key in enumerate(venue_keys)
    }
    pools = {gi: [f"ext:g{gi:02d}:k{j:03d}" for j in range(pool_size)] for gi in range(groups)}

    hubs: dict[int, list[str]] = {gi: [] for gi in range(groups)}
    for key in venue_keys:
        gi = group_of[key]
        if len(hubs[gi]) < hub_venues_per_group:
            hubs[gi].append(key)
    classics = {
        gi: [f"{hub}p{pi:03d}" for hub in hubs[gi] for pi in range(classics_per_hub)]
        for gi in range(groups)
    }

    records: list[PublicationRecord] = []
    for key in venue_keys:
        gi = group_of[key]
        pool = pools[gi]
        group_classics = classics[gi]
        authors = [
            f"{rng.choice(_FIRST_NAMES)} {rng.choice(surnames)}" for _ in range(authors_per_venue)
        ]
        for pi in range(papers_per_venue):
            record_id = f"{key}p{pi:03d}"
            refs = rng.sample(pool, pool_refs)
            refs += rng.sample([t for t in group_classics if t != record_id], classic_refs)
            names = rng.sample(authors, rng.randint(2, 3))
            records.append(
                PublicationRecord(
                    record_id=record_id,
                    title=" ".join(rng.choice(vocab) for _ in range(7)),
                    authors=tuple(AuthorName(n) for n in names),
                    venue_key=key,
                    year=1980 + (pi % 30),
                    references=tuple(refs),
                )
            )

    return Corpus(records=records, venue_table=venue_table, source=METADATA_CORPUS)

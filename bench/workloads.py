"""Seeded inputs for the benchmark workloads.

Every workload starts from `venuenet.synth.scale_corpus`, built from the
benchmark seed, and is written to disk by the benchmark's own writers (JSONL,
and DBLP XML for the linked pair), so the program under test only ever sees
the generated files. The generator also keeps a plain view of what it wrote
(`Rec` tuples) for the output checks, which recompute from that view rather
than from program code.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

GROUPS = 30  # scale_corpus default: venue i belongs to group i % GROUPS


@dataclass(frozen=True)
class Workload:
    name: str
    venues: int
    papers_per_venue: int
    linked: bool = False  # split into a metadata and a citation corpus, as DBLP XML
    citation_min: float | None = None  # None keeps the program default
    slice_years: tuple[int, ...] = ()
    q_hashseed: bool = False  # also run the cross-process modularity check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scale-15k",
            venues=150,
            papers_per_venue=100,
            q_hashseed=True,
        ),
        Workload(
            name="linked-pair",
            venues=60,
            papers_per_venue=50,
            linked=True,
            citation_min=5.0,
            slice_years=(1990, 2000),
        ),
        Workload(
            name="many-venues",
            venues=800,
            papers_per_venue=10,
            citation_min=0.0,
        ),
    )
}


@dataclass(frozen=True)
class Rec:
    """One written record, as the program should read it back."""

    id: str
    title: str
    authors: tuple[str, ...]
    venue: str
    year: int
    refs: tuple[str, ...]


@dataclass
class Inputs:
    workload: Workload
    config_path: Path
    meta: list[Rec]
    cite: list[Rec] = field(default_factory=list)  # linked workload only
    planted: set[tuple[str, str]] = field(default_factory=set)  # (meta id, cite id)

    @property
    def publications(self) -> int:
        return len(self.meta) + len(self.cite)

    def group_of(self, venue: str) -> int:
        """Planted group of a venue key (`v0012` or `journals/v0012`)."""
        return int(venue.rsplit("/", 1)[-1][1:]) % GROUPS


def _typo(title: str, count: int, rng: random.Random) -> str:
    """Apply `count` one-character typos (substitute, delete or insert) to
    distinct tokens of the title."""
    tokens = title.split()
    for pos in rng.sample(range(len(tokens)), count):
        token = tokens[pos]
        i = rng.randrange(len(token))
        op = rng.randrange(3)
        if op == 0:
            token = token[:i] + rng.choice(string.ascii_lowercase.replace(token[i], "")) + token[i + 1 :]
        elif op == 1 and len(token) > 1:
            token = token[:i] + token[i + 1 :]
        else:
            token = token[:i] + rng.choice(string.ascii_lowercase) + token[i:]
        tokens[pos] = token
    return " ".join(tokens)


def _write_jsonl(path: Path, recs: list[Rec], venue_kinds: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"source": "metadata-corpus"}) + "\n")
        for venue in sorted(venue_kinds):
            line = {"venue_key": venue, "name": f"Venue {venue.upper()}", "kind": venue_kinds[venue]}
            fh.write(json.dumps(line) + "\n")
        for r in recs:
            line = {"id": r.id, "title": r.title, "authors": list(r.authors), "venue": r.venue,
                    "year": r.year, "refs": list(r.refs)}
            fh.write(json.dumps(line) + "\n")


def _write_dblp_xml(path: Path, recs: list[Rec], venue_kinds: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('<?xml version="1.0" encoding="utf-8"?>\n<dblp>\n')
        for r in recs:
            tag, venue_tag = (
                ("article", "journal") if venue_kinds[r.venue] == "journal" else ("inproceedings", "booktitle")
            )
            parts = [f"<{tag} key={quoteattr(r.id)}>"]
            parts += [f"<author>{escape(a)}</author>" for a in r.authors]
            parts.append(f"<title>{escape(r.title)}</title><year>{r.year}</year>")
            parts.append(f"<{venue_tag}>Venue {escape(r.venue.upper())}</{venue_tag}>")
            parts += [f"<cite>{escape(t)}</cite>" for t in r.refs]
            parts.append(f"</{tag}>\n")
            fh.write("".join(parts))
        fh.write("</dblp>\n")


def _write_config(path: Path, w: Workload, corpora: list[Path]) -> None:
    lines = ["schema = venuenet-config/1", f"metadata_corpus = {corpora[0]}"]
    if w.linked:
        lines += [f"citation_corpus = {corpora[1]}", "corpus_format = dblp-xml"]
    if w.citation_min is not None:
        lines.append(f"citation_min = {w.citation_min!r}")
    if w.slice_years:
        lines.append("slice_years = " + ",".join(str(y) for y in w.slice_years))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _recs(records, key=lambda rid: rid, title=lambda t: t) -> list[Rec]:
    return [
        Rec(key(r.record_id), title(r.title), tuple(a.full_name for a in r.authors), key(r.venue_key), r.year,
            tuple(key(t) for t in r.references))
        for r in records
    ]


def generate(w: Workload, seed: int, work: Path) -> Inputs:
    """Build the workload's corpora from `seed` and write them under `work`."""
    from venuenet.synth import scale_corpus, split_for_linkage

    corpus = scale_corpus(venues=w.venues, papers_per_venue=w.papers_per_venue, groups=GROUPS, seed=seed)
    kinds = {key: info.kind for key, info in corpus.venue_table.items()}
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.txt"
    if not w.linked:
        recs = _recs(corpus.records)
        path = work / "corpus.jsonl"
        _write_jsonl(path, recs, kinds)
        _write_config(config, w, [path])
        return Inputs(w, config, meta=recs)

    # DBLP record keys carry the venue as their two-segment prefix:
    # journals/v0012/v0012p003 (metadata) and journals/v0012/cx-v0012p003 (citation).
    meta_corpus, cite_corpus = split_for_linkage(corpus)
    prefix = {v: ("journals/" if k == "journal" else "conf/") + v for v, k in kinds.items()}
    keys = dict(prefix)
    for r in meta_corpus.records + cite_corpus.records:
        keys[r.record_id] = f"{prefix[r.venue_key]}/{r.record_id}"
    rng = random.Random(seed + 1_000_003)
    meta = _recs(meta_corpus.records, lambda k: keys.get(k, k))
    cite = _recs(cite_corpus.records, lambda k: keys.get(k, k), lambda t: _typo(t, rng.randrange(3), rng))
    venue_kinds = {prefix[v]: k for v, k in kinds.items()}
    paths = [work / "metadata.xml", work / "citation.xml"]
    _write_dblp_xml(paths[0], meta, venue_kinds)
    _write_dblp_xml(paths[1], cite, venue_kinds)
    _write_config(config, w, paths)
    planted = {(m.id, c.id) for m, c in zip(meta, cite)}
    return Inputs(w, config, meta=meta, cite=cite, planted=planted)


def write_q_hashseed_input(work: Path) -> tuple[Path, Path]:
    """A fixed weighted graph of 30 planted groups and its planted partition,
    in the program's edge-TSV and partition formats. It does not depend on
    the benchmark seed, so the cross-process Q comparison gives the same
    answer in every run."""
    rng = random.Random(1103)
    groups, size = 30, 10
    nodes = [f"q{i:03d}" for i in range(groups * size)]
    work.mkdir(parents=True, exist_ok=True)
    graph, partition = work / "knowledge.tsv", work / "partition.tsv"
    with open(graph, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# venuenet-graph directed=false\n")
        for node in nodes:
            fh.write(f"#node\t{node}\t{{}}\n")
        for g in range(groups):
            members = nodes[g * size : (g + 1) * size]
            for x in range(size):
                for y in range(x + 1, size):
                    fh.write(f"{members[x]}\t{members[y]}\t{rng.uniform(0.1, 1.0)!r}\n")
    with open(partition, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("venue_key\tcluster_id\n")
        for i, node in enumerate(nodes):
            fh.write(f"{node}\t{nodes[(i // size) * size]}\n")
    return graph, partition

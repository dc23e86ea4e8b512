import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from venuenet.corpus import parse_jsonl, save_corpus
from venuenet.metrics import CSRGraph, csr_local_clustering


def corpus_from_lines(*lines: str, source: str = "metadata-corpus"):
    data = "\n".join(lines).encode("utf-8")
    return parse_jsonl(io.BytesIO(data), source=source)


def local_clustering(g) -> dict[str, float]:
    """`csr_local_clustering` of the VenueGraph `g`, by node name in node order."""
    indptr, heads, _ = g.arrays()
    return dict(zip(g.nodes, csr_local_clustering(CSRGraph(indptr, heads, g.directed)).tolist()))


def write_dblp(corpus, path: Path) -> None:
    """`corpus` as DBLP XML: each record an `article` keyed
    `journals/<venue>/<id>`, its references to records rewritten to keys."""
    key = {r.record_id: f"journals/{r.venue_key}/{r.record_id}" for r in corpus.records}
    parts = ["<dblp>"]
    for r in corpus.records:
        authors = "".join(f"<author>{escape(a.full_name)}</author>" for a in r.authors)
        cites = "".join(f"<cite>{escape(key.get(t, t))}</cite>" for t in r.references)
        parts.append(f"<article key={quoteattr(key[r.record_id])}>{authors}<title>{escape(r.title)}</title>"
                     f"<year>{r.year}</year>{cites}</article>")
    path.write_text("".join(parts + ["</dblp>"]), encoding="utf-8")


def run_stage_chain(cfg, d: Path) -> None:
    """Write under `d`, one stage command at a time, the artifacts `venuenet
    run` writes for `cfg` that have a stage command, with the default cuts of
    `subgraphs`: a two-corpus config links and attaches, and builds from the
    linked corpus, and each slice year is sliced, built and thresholded."""
    from click.testing import CliRunner

    from venuenet.cli import main

    d.mkdir()
    meta = corpus = d / "corpus_metadata.jsonl"
    steps = [["ingest", cfg.metadata_corpus, "--format", cfg.corpus_format, "--out", meta]]
    if cfg.citation_corpus:
        cite, matches, corpus = d / "corpus_citation.jsonl", d / "matches.tsv", d / "linked.jsonl"
        steps += [
            ["ingest", cfg.citation_corpus, "--format", cfg.corpus_format, "--source", "citation-corpus", "--out", cite],
            ["link", "--left", meta, "--right", cite, "--jaccard-min", cfg.jaccard_min, "--sw-min", cfg.sw_min, "--out", matches],
            ["attach", "--left", meta, "--right", cite, "--matches", matches, "--out", corpus],
        ]
    steps += [
        ["build", corpus, "--network", "knowledge", "--matrix-out", d / "coupling.json", "--out", d / "knowledge_full.tsv"],
        ["build", corpus, "--network", "citation", "--out", d / "citation_full.tsv"],
        ["threshold", d / "knowledge_full.tsv", "--rule", "cosine", "--min", cfg.cosine_min, "--out", d / "knowledge.tsv"],
        ["threshold", d / "citation_full.tsv", "--rule", "citation", "--min", cfg.citation_min, "--out", d / "citation.tsv"],
        ["cluster", "--graph", d / "knowledge.tsv", "--out", d / "partition.tsv"],
        ["project", "--matrix", d / "coupling.json", "--partition", d / "partition.tsv", "--out", d / "cluster_graph.tsv",
         "--assignment-out", d / "cluster_assignment.tsv"],
        ["metrics", "--graph", d / "citation.tsv", "--metric", "betweenness", "--weighted", "--out", d / "betweenness.tsv"],
        ["metrics", "--graph", d / "citation.tsv", "--metric", "pagerank", "--d", cfg.pagerank_d, "--tol", cfg.pagerank_tol,
         "--max-iter", cfg.pagerank_max_iter, "--out", d / "pagerank.tsv"],
        ["subgraphs", corpus, "--pagerank", d / "pagerank.tsv", "--out", d / "profiles.tsv"],
        ["stats", "--profiles", d / "profiles.tsv", "--bins", cfg.histogram_bins, "--out", d / "histograms.tsv",
         "--medians-out", d / "medians.tsv"],
    ]
    for year in cfg.slice_years:
        sliced, snapshot = d / f"linked_{year}.jsonl", d / "snapshots" / str(year)
        snapshot.mkdir(parents=True)
        steps += [
            ["slice", corpus, "--year", year, "--out", sliced],
            ["build", sliced, "--network", "knowledge", "--out", snapshot / "knowledge_full.tsv"],
            ["threshold", snapshot / "knowledge_full.tsv", "--rule", "cosine", "--min", cfg.cosine_min,
             "--out", snapshot / "knowledge.tsv"],
        ]
    runner = CliRunner()
    for step in steps:
        result = runner.invoke(main, list(map(str, step)))
        assert result.exit_code == 0, (step, result.output)


def saved_bytes(corpus) -> bytes:
    """The canonical JSONL that `save_corpus` writes for `corpus`."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        save_corpus(corpus, path)
        return path.read_bytes()


def saved_matrix_bytes(m) -> bytes:
    """The coupling.json that `CouplingMatrix.save` writes for `m`."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "coupling.json"
        m.save(path)
        return path.read_bytes()


@pytest.fixture
def small_corpus():
    """Three venues, five papers, mixed internal and external references."""
    return corpus_from_lines(
        '{"venue_key": "v1", "name": "Journal One", "kind": "journal"}',
        '{"venue_key": "v2", "name": "Conf Two", "kind": "conference"}',
        '{"venue_key": "v3", "name": "Journal Three", "kind": "journal"}',
        '{"id": "p1", "title": "Graph mining basics", "authors": ["Ada Lovelace", "Alan Turing"], "venue": "v1", "year": 1990, "refs": ["p3", "ext shared classic"]}',
        '{"id": "p2", "title": "More graph mining", "authors": ["Ada Lovelace"], "venue": "v1", "year": 1995, "refs": ["p3", "ext shared classic"]}',
        '{"id": "p3", "title": "Foundations", "authors": ["Grace Hopper"], "venue": "v2", "year": 1985, "refs": ["ext other work"]}',
        '{"id": "p4", "title": "Applications", "authors": ["Grace Hopper", "Alan Turing"], "venue": "v2", "year": 2000, "refs": ["p1", "ext shared classic"]}',
        '{"id": "p5", "title": "Unrelated topic", "authors": ["John McCarthy"], "venue": "v3", "year": 2000, "refs": ["ext niche reference"]}',
    )


@pytest.fixture
def under_hash_seeds():
    """Run a Python snippet in fresh interpreters with PYTHONHASHSEED 0 and 1
    and return their stdout, so a test can require identical output. The
    snippet can import the tests' modules too."""
    here = Path(__file__).parent
    path = [str(here.parent / "src"), str(here)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)

    def run(script: str) -> list[str]:
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, path)))
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        return outputs

    return run

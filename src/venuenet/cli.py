"""Command line interface.

Exit codes: 0 on success, 1 on input errors (unreadable, unwritable or
malformed files, bad parameters: any OSError or ValueError a command raises),
2 on pipeline stage failures.
"""

from __future__ import annotations

import gc
import sys

import click
from click.core import ParameterSource

from . import community, linkage, metrics, networks, subgraphs
from .corpus import (
    CORPUS_SOURCES,
    METADATA_CORPUS,
    load_corpus,
    parse_corpus,
    save_corpus,
    slice_by_year,
    validate_corpus,
)
from .exports import FORMATS, load_graph, write_graph, write_table
from .pipeline import PipelineConfig, RunManifest, StageError, check_unit_interval, run_pipeline


def _fail_input(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _warn(message: str | None) -> None:
    if message:
        click.echo(f"warning: {message}", err=True)


def _report(manifest: RunManifest, verbose: bool) -> None:
    """Print a run's stage timings (with `verbose`) and its warnings on stderr."""
    if verbose:
        for timing in manifest.timings:
            click.echo(timing.describe(), err=True)
    for warning in manifest.warnings:
        _warn(warning)


class _Commands(click.Group):
    """The command group: an input error, any OSError or ValueError a
    command raises, exits 1 with its message and no traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            _fail_input(str(exc))


@click.group(cls=_Commands)
def main() -> None:
    """Build, cluster, rank, and classify venue-level publication networks."""


@main.command()
@click.argument("input_path", type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["jsonl", "dblp-xml"]), default="jsonl")
@click.option("--source", type=click.Choice(CORPUS_SOURCES), default=METADATA_CORPUS)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def ingest(input_path: str, fmt: str, source: str, out: str) -> None:
    """Parse a corpus file and write it in canonical JSONL form."""
    with open(input_path, "rb") as fh:
        corpus = parse_corpus(fh, fmt, source=source)
    save_corpus(corpus, out)
    report = validate_corpus(corpus)
    click.echo(
        f"ingested {report.record_count} records, {len(corpus.venue_table)} venues; "
        f"{report.unresolved_reference_count} unresolved / {report.resolved_reference_count} resolved references"
    )
    if not report.is_clean():
        click.echo(
            f"warning: {len(report.dangling_venue_keys)} dangling venues, "
            f"{len(report.empty_title_ids)} empty titles",
            err=True,
        )


@main.command(name="slice")
@click.argument("corpus_path", type=click.Path(dir_okay=False))
@click.option("--year", required=True, type=int)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def slice_cmd(corpus_path: str, year: int, out: str) -> None:
    """Keep only records published up to and including YEAR."""
    corpus = load_corpus(corpus_path)
    sliced = slice_by_year(corpus, year)
    save_corpus(sliced, out)
    click.echo(f"kept {len(sliced.ids)} of {len(corpus.ids)} records")


@main.command()
@click.option("--left", required=True, type=click.Path(dir_okay=False))
@click.option("--right", required=True, type=click.Path(dir_okay=False))
@click.option("--jaccard-min", default=linkage.DEFAULT_JACCARD_MIN, show_default=True)
@click.option("--sw-min", default=linkage.DEFAULT_SW_MIN, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def link(left: str, right: str, jaccard_min: float, sw_min: float, out: str) -> None:
    """Match records of the left (metadata) corpus to the right (citation) one."""
    check_unit_interval("jaccard_min", jaccard_min)
    check_unit_interval("sw_min", sw_min)
    a = load_corpus(left)
    b = load_corpus(right)
    matches = linkage.link_corpora(a, b, jaccard_min=jaccard_min, sw_min=sw_min)
    linkage.write_matches(matches, out)
    unmatchable = len(linkage.unmatchable_records(a)) + len(linkage.unmatchable_records(b))
    click.echo(f"{len(matches)} match pairs written ({unmatchable} records unmatchable: no authors)")


@main.command()
@click.option("--left", required=True, type=click.Path(dir_okay=False))
@click.option("--right", required=True, type=click.Path(dir_okay=False))
@click.option("--matches", "matches_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def attach(left: str, right: str, matches_path: str, out: str) -> None:
    """Carry the matched citation records' references onto the metadata corpus."""
    meta, cite = load_corpus(left), load_corpus(right)
    matches = linkage.read_matches(matches_path)
    for column, named, corpus, path in (("left_id", {p.left for p in matches}, meta, left),
                                        ("right_id", {p.right for p in matches}, cite, right)):
        unknown = sorted(named.difference(corpus.ids))
        if unknown:
            raise ValueError(f"{matches_path}: {column} {unknown[0]!r} names no record of {path}")
    save_corpus(linkage.attach_references(meta, cite, matches), out)
    click.echo(f"{len(matches)} metadata records took their citation partner's references")


@main.command()
@click.argument("corpus_path", type=click.Path(dir_okay=False))
@click.option("--network", type=click.Choice(["knowledge", "citation"]), required=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--matrix-out", type=click.Path(dir_okay=False), help="Also write the coupling matrix (knowledge only).")
def build(corpus_path: str, network: str, out: str, matrix_out: str | None) -> None:
    """Build the knowledge (undirected cosine) or citation (directed count) network."""
    if matrix_out and network == "citation":
        raise ValueError("--matrix-out does not apply to --network citation")
    corpus = load_corpus(corpus_path)
    if network == "knowledge":
        matrix = networks.build_coupling_matrix(corpus)
        graph = networks.build_knowledge_network(matrix)
        if matrix_out:
            matrix.save(matrix_out)
    else:
        graph = networks.build_citation_network(corpus)
    write_graph(graph, out)
    click.echo(networks.format_summary_table({network: networks.summarize(graph)}), nl=False)


@main.command()
@click.argument("graph_path", type=click.Path(dir_okay=False))
@click.option("--rule", type=click.Choice(["cosine", "citation"]), required=True)
@click.option("--min", "value", type=float, default=None, help="Threshold value (defaults: cosine 0.1, citation 50).")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def threshold(graph_path: str, rule: str, value: float | None, out: str) -> None:
    """Filter edges by threshold and drop nodes left isolated."""
    graph = load_graph(graph_path)
    if value is None:
        value = networks.COSINE_MIN_DEFAULT if rule == "cosine" else networks.CITATION_MIN_DEFAULT
    reduced = networks.apply_threshold(graph, networks.ThresholdRule(rule, value))
    write_graph(reduced, out)
    summaries = {"full": networks.summarize(graph), "reduced": networks.summarize(reduced)}
    click.echo(networks.format_summary_table(summaries), nl=False)


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--unweighted", is_flag=True, help="Ignore edge weights when clustering.")
@click.option("--domains", "domains_path", type=click.Path(dir_okay=False), help="venue_key<TAB>domain table for composition output.")
@click.option("--composition-out", type=click.Path(dir_okay=False), help="Write per-cluster domain composition TSV.")
def cluster(graph_path: str, out: str, unweighted: bool, domains_path: str | None, composition_out: str | None) -> None:
    """Greedy modularity clustering of an undirected graph."""
    if domains_path and not composition_out:
        raise ValueError("--domains is only read with --composition-out")
    domains = community.read_domains(domains_path) if domains_path else {}
    graph = load_graph(graph_path)
    try:
        partition = community.greedy_modularity_partition(graph, weighted=not unweighted)
    except ValueError as exc:  # the graph's fault: name it
        raise ValueError(f"{graph_path}: {exc}") from None
    community.write_partition(partition, out)
    if composition_out:
        composition = community.cluster_domain_composition(partition, domains)
        rows = ((cluster, *item) for cluster in sorted(composition) for item in sorted(composition[cluster].items()))
        write_table(composition_out, community.COMPOSITION_HEADER, rows)
    click.echo(f"{partition.cluster_count} clusters, Q={partition.q:.4f}")


@main.command()
@click.option("--matrix", "matrix_path", required=True, type=click.Path(dir_okay=False))
@click.option("--partition", "partition_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--assignment-out", type=click.Path(dir_okay=False))
def project(matrix_path: str, partition_path: str, out: str, assignment_out: str | None) -> None:
    """Aggregate coupling to cluster level and build the cluster network."""
    matrix = networks.CouplingMatrix.load(matrix_path)
    partition = community.read_partition(partition_path)
    projection = community.project_to_cluster_network(matrix, partition)
    write_graph(projection.graph, out)
    if assignment_out:
        community.write_assignment(partition, projection, assignment_out)
    click.echo(
        f"{len(projection.new_assignments)} venues assigned to clusters, "
        f"{len(projection.unassigned)} left unassigned"
    )


# The options each metric reads; any other given on the command line is refused.
_METRIC_OPTIONS = {
    "density": (),
    "clustering": (),
    "betweenness": ("normalized", "weighted", "out"),
    "pagerank": ("damping", "tol", "max_iter", "out"),
    "lcc": (),
}


@main.command(name="metrics")
@click.option("--graph", "graph_path", required=True, type=click.Path(dir_okay=False))
@click.option("--metric", type=click.Choice(list(_METRIC_OPTIONS)), required=True)
@click.option("--d", "damping", default=metrics.DEFAULT_PAGERANK_D, show_default=True)
@click.option("--tol", default=metrics.DEFAULT_PAGERANK_TOL, show_default=True)
@click.option("--max-iter", default=metrics.DEFAULT_PAGERANK_MAX_ITER, show_default=True)
@click.option("--normalized/--no-normalized", default=True, show_default=True)
@click.option("--weighted/--unweighted", default=False, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), help="Write per-node TSV (betweenness, pagerank).")
def metrics_cmd(
    graph_path: str,
    metric: str,
    damping: float,
    tol: float,
    max_iter: int,
    normalized: bool,
    weighted: bool,
    out: str | None,
) -> None:
    """Compute a graph metric; per-node metrics print sorted descending."""
    ctx = click.get_current_context()
    for param in ctx.command.params:
        given = ctx.get_parameter_source(param.name) is ParameterSource.COMMANDLINE
        if given and not param.required and param.name not in _METRIC_OPTIONS[metric]:
            raise ValueError(f"{'/'.join(param.opts + param.secondary_opts)} does not apply to --metric {metric}")
    graph = load_graph(graph_path)
    if metric == "density":
        click.echo(repr(metrics.density(graph)))
        return
    if metric == "clustering":
        click.echo(repr(metrics.average_clustering_coefficient(graph)))
        return
    if metric == "lcc":
        click.echo(repr(metrics.largest_component_fraction(graph)))
        return
    if metric == "betweenness":
        vector = metrics.betweenness_centrality(graph, weighted=weighted, normalized=normalized)
    else:
        vector = metrics.pagerank(graph, d=damping, tol=tol, max_iter=max_iter)
        _warn(vector.convergence_warning())
    if out:
        metrics.write_metric_tsv(vector, out)
        click.echo(f"wrote {len(vector.values)} rows")
    else:
        click.echo("\n".join(f"{node}\t{value!r}" for node, value in vector.top()))


@main.command(name="subgraphs")
@click.argument("corpus_path", type=click.Path(dir_okay=False))
@click.option("--pagerank", "pagerank_path", type=click.Path(dir_okay=False), help="Per-venue PageRank TSV to join in.")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def subgraphs_cmd(corpus_path: str, pagerank_path: str | None, out: str) -> None:
    """Profile and classify per-venue co-authorship and citation subgraphs."""
    corpus = load_corpus(corpus_path)
    ranks = metrics.read_metric_tsv(pagerank_path, "pagerank") if pagerank_path else {}
    rows = subgraphs.profile_venues(corpus, ranks)
    subgraphs.write_profiles(rows, out)
    click.echo(f"profiled {sum(len(v) for v in rows.values())} subgraphs")


@main.command()
@click.option("--profiles", "profiles_path", required=True, type=click.Path(dir_okay=False))
@click.option("--bins", default=subgraphs.DEFAULT_HISTOGRAM_BINS, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Histogram TSV path.")
@click.option("--medians-out", required=True, type=click.Path(dir_okay=False))
def stats(profiles_path: str, bins: int, out: str, medians_out: str) -> None:
    """Normalized metric histograms and per-PageRank medians from profiles."""
    if bins < 1:
        raise ValueError(f"histogram_bins must be >= 1, got {bins}")
    rows = subgraphs.read_profiles(profiles_path)
    subgraphs.write_statistics(rows, bins, out, medians_out)
    click.echo(f"wrote statistics for {sum(len(v) for v in rows.values())} profiles")


@main.command()
@click.argument("graph_path", type=click.Path(dir_okay=False))
@click.option("--in-format", type=click.Choice(list(FORMATS)), default="edge-tsv", show_default=True)
@click.option("--format", "fmt", type=click.Choice(list(FORMATS)), required=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def export(graph_path: str, in_format: str, fmt: str, out: str) -> None:
    """Re-serialize a graph into GraphML, edge TSV, or JSON."""
    graph = load_graph(graph_path, in_format)
    write_graph(graph, out, fmt)
    click.echo(f"wrote {fmt} with {graph.node_count()} nodes, {graph.edge_count()} edges")


@main.command()
@click.option("--config", "config_path", type=click.Path(dir_okay=False), help="Pipeline config file.")
@click.option("--corpus", "corpus_path", type=click.Path(dir_okay=False), help="Self-contained corpus (overrides config).")
@click.option("--left", type=click.Path(dir_okay=False), help="Metadata corpus.")
@click.option("--right", type=click.Path(dir_okay=False), help="Citation corpus.")
@click.option("--out-dir", type=click.Path(file_okay=False), help="Output directory (overrides config).")
@click.option("--cosine-min", type=float, default=None, help="Knowledge-network threshold (overrides config).")
@click.option("--citation-min", type=float, default=None, help="Citation-network threshold (overrides config).")
@click.option("--verbose", is_flag=True, help="Print each stage's wall time, CPU time and peak RSS on stderr.")
def run(
    config_path: str | None,
    corpus_path: str | None,
    left: str | None,
    right: str | None,
    out_dir: str | None,
    cosine_min: float | None,
    citation_min: float | None,
    verbose: bool,
) -> None:
    """Run the full pipeline and write a manifest of hashed artifacts and a
    run report (run_report.json) of what each stage cost."""
    cfg = PipelineConfig.load(config_path) if config_path else PipelineConfig()
    if corpus_path:
        cfg.metadata_corpus = corpus_path
        cfg.citation_corpus = ""
    if left:
        cfg.metadata_corpus = left
    if right:
        cfg.citation_corpus = right
    if out_dir:
        cfg.out_dir = out_dir
    if cosine_min is not None:
        cfg.cosine_min = cosine_min
    if citation_min is not None:
        cfg.citation_min = citation_min
    try:
        manifest = run_pipeline(cfg)
    except StageError as exc:
        _report(exc.manifest, verbose)
        click.echo(f"error: {exc}", err=True)
        if exc.stage == "ingest" and isinstance(exc.cause, (OSError, ValueError)):
            sys.exit(1)
        sys.exit(2)
    _report(manifest, verbose)
    stages = ", ".join(manifest.stage_names())
    click.echo(f"pipeline complete: {stages}")
    click.echo(f"manifest: {cfg.out_dir}/manifest.json")


def entry() -> None:
    """`main` as a process: the objects alive when it ends are frozen, so
    the interpreter exits without a collection that walks them."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()

"""End-to-end pipeline: ingest, link, build, threshold, cluster, project,
metrics, subgraphs, stats. One configuration in, a manifest of hashed
artifacts out; reruns with identical config and inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from time import perf_counter, process_time

from . import community, linkage, metrics, networks, subgraphs
from .corpus import YEAR_MAX, YEAR_MIN, Corpus, gc_paused, parse_corpus, save_corpus, validate_corpus
from .exports import export_graph, read_text, write_graph, write_text  # noqa: F401 (bench/tracing.py wraps export_graph and write_graph here)
from .graph import VenueGraph
from .subgraphs import DEFAULT_CUTS, ClassificationCuts, ProfileRow

CONFIG_SCHEMA = "venuenet-config/1"
MANIFEST_SCHEMA = "venuenet-manifest/1"
REPORT_SCHEMA = "venuenet-run-report/1"

STAGES = (
    "ingest",
    "link",
    "build",
    "threshold",
    "cluster",
    "project",
    "metrics",
    "subgraphs",
    "stats",
)


class PipelineError(Exception):
    pass


class ConfigError(PipelineError, ValueError):
    pass


class StageError(PipelineError):
    def __init__(self, stage: str, cause: Exception, manifest: "RunManifest"):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.manifest = manifest


def check_unit_interval(name: str, value: float) -> None:
    """The range rule of the similarity thresholds: 0 <= value <= 1 (NaN fails)."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass
class PipelineConfig:
    metadata_corpus: str = ""
    citation_corpus: str = ""  # empty: single self-contained corpus
    corpus_format: str = "jsonl"
    jaccard_min: float = linkage.DEFAULT_JACCARD_MIN
    sw_min: float = linkage.DEFAULT_SW_MIN
    cosine_min: float = networks.COSINE_MIN_DEFAULT
    citation_min: float = networks.CITATION_MIN_DEFAULT
    pagerank_d: float = metrics.DEFAULT_PAGERANK_D
    pagerank_tol: float = metrics.DEFAULT_PAGERANK_TOL
    pagerank_max_iter: int = metrics.DEFAULT_PAGERANK_MAX_ITER
    cut_very_low: float = DEFAULT_CUTS.very_low_max
    cut_low: float = DEFAULT_CUTS.low_max
    cut_medium: float = DEFAULT_CUTS.medium_max
    cut_high: float = DEFAULT_CUTS.high_max
    histogram_bins: int = subgraphs.DEFAULT_HISTOGRAM_BINS
    slice_years: tuple[int, ...] = ()
    out_dir: str = "out"

    def classification_cuts(self) -> ClassificationCuts:
        return ClassificationCuts(
            very_low_max=self.cut_very_low,
            low_max=self.cut_low,
            medium_max=self.cut_medium,
            high_max=self.cut_high,
        )

    def validate(self) -> None:
        if not self.metadata_corpus:
            raise ConfigError("metadata_corpus is required")
        for path in (self.metadata_corpus, self.citation_corpus):
            if path and not Path(path).is_file():
                raise ConfigError(f"corpus file not found: {path}")
        if self.corpus_format not in ("jsonl", "dblp-xml"):
            raise ConfigError(f"unknown corpus_format {self.corpus_format!r}")
        for name in ("jaccard_min", "sw_min", "cosine_min"):
            check_unit_interval(name, getattr(self, name))
        if not self.citation_min >= 0:  # NaN fails
            raise ConfigError(f"citation_min must be >= 0, got {self.citation_min}")
        if not 0.0 < self.pagerank_d < 1.0:
            raise ConfigError(f"pagerank_d must be in (0, 1), got {self.pagerank_d}")
        if not self.pagerank_tol > 0:
            raise ConfigError(f"pagerank_tol must be > 0, got {self.pagerank_tol}")
        if self.pagerank_max_iter < 1:
            raise ConfigError(f"pagerank_max_iter must be >= 1, got {self.pagerank_max_iter}")
        cuts = (self.cut_very_low, self.cut_low, self.cut_medium, self.cut_high)
        if not all(0.0 < c < 1.0 for c in cuts) or sorted(cuts) != list(cuts) or len(set(cuts)) != 4:
            raise ConfigError(f"classification cuts must be strictly increasing in (0, 1), got {cuts}")
        if self.histogram_bins < 1:
            raise ConfigError(f"histogram_bins must be >= 1, got {self.histogram_bins}")
        for i, year in enumerate(self.slice_years):
            if not YEAR_MIN <= year <= YEAR_MAX:
                raise ConfigError(f"slice year {year} outside [{YEAR_MIN}, {YEAR_MAX}]")
            if year in self.slice_years[:i]:
                raise ConfigError(f"slice year {year} is listed twice")
        if not self.out_dir:
            raise ConfigError("out_dir is required")

    def to_dict(self) -> dict:
        return {
            f.name: (list(getattr(self, f.name)) if f.name == "slice_years" else getattr(self, f.name))
            for f in fields(self)
        }

    def to_text(self) -> str:
        lines = [f"schema = {CONFIG_SCHEMA}"]
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "slice_years":
                value = ",".join(str(y) for y in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        write_text(path, self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        values: dict[str, str] = {}
        line_of: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line {lineno} is not 'key = value': {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in line_of:
                raise ConfigError(f"config key {key!r} on line {lineno} repeats line {line_of[key]}")
            line_of[key] = lineno
            values[key] = value.strip()
        schema = values.pop("schema", CONFIG_SCHEMA)
        if schema != CONFIG_SCHEMA:
            raise ConfigError(f"unsupported config schema {schema!r}")

        kwargs: dict = {}
        by_name = {f.name: f for f in fields(cls)}
        for key, value in values.items():
            if key not in by_name:
                raise ConfigError(f"unknown config key {key!r}")
            kind = by_name[key].type
            try:
                if key == "slice_years":
                    kwargs[key] = tuple(int(v) for v in value.split(",") if v.strip()) if value else ()
                elif kind == "float":
                    kwargs[key] = float(value)
                elif kind == "int":
                    kwargs[key] = int(value)
                else:
                    kwargs[key] = value
            except ValueError as exc:
                raise ConfigError(f"config key {key!r} has invalid value {value!r}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            text = read_text(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls.from_text(text)


@dataclass
class StageRecord:
    name: str
    outputs: list[dict] = field(default_factory=list)


@dataclass
class StageTiming:
    """What one completed stage cost: wall time (`perf_counter`), the
    process's CPU time (`process_time`), and the process's own peak RSS so
    far (`_peak_rss_mb`)."""

    name: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None

    def describe(self) -> str:
        rss = "n/a" if self.peak_rss_mb is None else f"{self.peak_rss_mb:.1f} MB"
        return f"stage {self.name}: wall {self.wall_s:.3f} s, cpu {self.cpu_s:.3f} s, peak rss {rss}"


def _peak_rss_mb() -> float | None:
    """The process's own peak RSS: VmHWM where /proc/self/status has it (on
    Linux, ru_maxrss carries the launching process's peak across exec), else
    ru_maxrss, else None."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / (1 << 10)  # kB
    except OSError:
        pass
    try:
        import resource  # on first use, so that importing venuenet stays as fast
    except ImportError:  # Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere


@dataclass
class RunManifest:
    """The stages run and their hashed outputs. `warnings` (for the user;
    the CLI prints them), `timings`, `ingest` (per ingested corpus, its
    record, reference and distinct target counts), `linkage` (the pair
    counts along the linkage funnel, in two-corpus runs), `coupling` (the
    matrix's venues, keys and entries), `networks` (the nodes and edges of
    each network before and after its threshold), `cluster` (the merges and
    the heap's pops, pushes and rebuilds of the clustering; none for an
    edgeless K') and `projection` (the clustered, adopted and unassigned
    venues) go to run_report.json, never to manifest.json, which must not
    change between identical runs."""

    config: dict
    stages: list[StageRecord] = field(default_factory=list)
    failed_stage: str | None = None
    warnings: list[str] = field(default_factory=list)
    timings: list[StageTiming] = field(default_factory=list)
    ingest: dict[str, dict[str, int]] = field(default_factory=dict)
    linkage: dict[str, int] = field(default_factory=dict)
    coupling: dict[str, int] = field(default_factory=dict)
    networks: dict[str, dict] = field(default_factory=dict)
    cluster: dict[str, int] = field(default_factory=dict)
    projection: dict[str, int] = field(default_factory=dict)

    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]

    def to_dict(self) -> dict:
        out = {
            "schema": MANIFEST_SCHEMA,
            "config": self.config,
            "stages": [{"name": s.name, "outputs": s.outputs} for s in self.stages],
        }
        if self.failed_stage is not None:
            out["failed_stage"] = self.failed_stage
        return out

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    def report_dict(self) -> dict:
        """The run report: per completed stage its timing, the ingest,
        linkage, coupling, network, cluster and projection counts, then
        warnings."""
        out = {
            "schema": REPORT_SCHEMA,
            "stages": [asdict(t) for t in self.timings],
            "ingest": self.ingest,
            "linkage": self.linkage,
            "coupling": self.coupling,
            "networks": self.networks,
            "cluster": self.cluster,
            "projection": self.projection,
            "warnings": list(self.warnings),
        }
        if self.failed_stage is not None:
            out["failed_stage"] = self.failed_stage
        return out

    def save_report(self, path) -> None:
        write_text(path, json.dumps(self.report_dict(), sort_keys=True, indent=2) + "\n")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """Mutable state threaded through the pipeline stages."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.out_dir = Path(cfg.out_dir)
        self.manifest = RunManifest(config=cfg.to_dict())
        # the stage products, each dropped after its last reader (_RELEASED_AFTER) but `linked`
        self.meta: Corpus | None = None
        self.cite: Corpus | None = None
        self.linked: Corpus | None = None
        self.coupling: networks.CouplingMatrix | None = None
        self.knowledge: VenueGraph | None = None
        self.citation: VenueGraph | None = None
        self.knowledge_reduced: VenueGraph | None = None
        self.citation_reduced: VenueGraph | None = None
        self.partition: community.ClusterPartition | None = None
        self.pagerank: metrics.MetricVector | None = None
        self.profiles: dict[str, list[ProfileRow]] | None = None

    def record(self, stage: str, *paths: Path) -> None:
        rec = StageRecord(name=stage)
        for path in paths:
            rec.outputs.append(
                {
                    "path": str(path.relative_to(self.out_dir)),
                    "sha256": _sha256(path),
                    "bytes": path.stat().st_size,
                }
            )
        self.manifest.stages.append(rec)


def _ingest_counts(corpus: Corpus) -> dict[str, int]:
    references, distinct = corpus.reference_counts()
    return {"records": len(corpus.ids), "references": references, "distinct_targets": distinct}


def _stage_ingest(run: _Run) -> None:
    cfg = run.cfg
    with open(cfg.metadata_corpus, "rb") as fh:
        run.meta = parse_corpus(fh, cfg.corpus_format, source="metadata-corpus")
    run.manifest.ingest["metadata"] = _ingest_counts(run.meta)
    out = run.out_dir / "corpus_metadata.jsonl"
    save_corpus(run.meta, out)
    report = validate_corpus(run.meta)
    report_path = run.out_dir / "validation_metadata.json"
    write_text(report_path, json.dumps(asdict(report), sort_keys=True, indent=2) + "\n")
    outputs = [out, report_path]

    if cfg.citation_corpus:
        with open(cfg.citation_corpus, "rb") as fh:
            run.cite = parse_corpus(fh, cfg.corpus_format, source="citation-corpus")
        run.manifest.ingest["citation"] = _ingest_counts(run.cite)
        cite_out = run.out_dir / "corpus_citation.jsonl"
        save_corpus(run.cite, cite_out)
        outputs.append(cite_out)
    run.record("ingest", *outputs)


def _stage_link(run: _Run) -> None:
    cfg = run.cfg
    matches = []
    if run.cite is not None:
        matches = linkage.link_corpora(
            run.meta, run.cite, jaccard_min=cfg.jaccard_min, sw_min=cfg.sw_min, funnel=run.manifest.linkage
        )
    path = run.out_dir / "matches.tsv"
    linkage.write_matches(matches, path)
    run.record("link", path)
    # last, so that the parsed corpora and the linked one are alive together only here
    run.linked = run.meta if run.cite is None else linkage.attach_references(run.meta, run.cite, matches)


def _size(g: VenueGraph) -> dict[str, int]:
    return {"nodes": g.node_count(), "edges": g.edge_count()}


def _stage_build(run: _Run) -> None:
    run.coupling = m = networks.build_coupling_matrix(run.linked)
    run.manifest.coupling = {"venues": len(m.venues), "keys": len(m.keys), "entries": int(m.indptr[-1])}
    coupling_path = run.out_dir / "coupling.json"
    m.save(coupling_path)
    run.knowledge = networks.build_knowledge_network(m)
    run.citation = networks.build_citation_network(run.linked)
    run.manifest.networks.update(K=_size(run.knowledge), F=_size(run.citation))
    k_path = run.out_dir / "knowledge_full.tsv"
    f_path = run.out_dir / "citation_full.tsv"
    write_graph(run.knowledge, k_path)
    write_graph(run.citation, f_path)
    run.record("build", coupling_path, k_path, f_path)


def _write_reduced(reduced: VenueGraph, full: VenueGraph, full_path: Path, path: Path) -> bool:
    """Write `reduced`, a subgraph of `full` (written to `full_path`), to
    `path`, and whether it is `full`. Equal node and edge counts mean they
    are one graph, with one edge TSV and summary (every graph holds its nodes
    and rows in name order), so the file is then a copy."""
    same = _size(reduced) == _size(full)
    if same:
        shutil.copyfile(full_path, path)
    else:
        write_graph(reduced, path)
    return same


def _stage_threshold(run: _Run) -> None:
    cfg = run.cfg
    summaries, reduced_graphs = {}, []
    for name, full, rule, stem in (
        ("K", run.knowledge, networks.ThresholdRule("cosine", cfg.cosine_min), "knowledge"),
        ("F", run.citation, networks.ThresholdRule("citation", cfg.citation_min), "citation"),
    ):
        reduced = networks.apply_threshold(full, rule)
        run.manifest.networks[name + "'"] = _size(reduced)
        summaries[name] = networks.summarize(full)
        same = _write_reduced(reduced, full, run.out_dir / f"{stem}_full.tsv", run.out_dir / f"{stem}.tsv")
        summaries[name + "'"] = summaries[name] if same else networks.summarize(reduced)
        reduced_graphs.append(reduced)
    run.knowledge_reduced, run.citation_reduced = reduced_graphs
    summaries = dict(sorted(summaries.items()))  # the table's columns: F, F', K, K'
    table_path = run.out_dir / "network_summary.txt"
    write_text(table_path, networks.format_summary_table(summaries))
    json_path = run.out_dir / "network_summary.json"
    write_text(json_path, json.dumps({k: asdict(v) for k, v in summaries.items()}, sort_keys=True, indent=2) + "\n")
    run.record("threshold", run.out_dir / "knowledge.tsv", run.out_dir / "citation.tsv", table_path, json_path)


def _stage_cluster(run: _Run) -> None:
    run.partition = community.greedy_modularity_partition(run.knowledge_reduced, funnel=run.manifest.cluster)
    path = run.out_dir / "partition.tsv"
    community.write_partition(run.partition, path)
    run.record("cluster", path)


def _stage_project(run: _Run) -> None:
    projection = community.project_to_cluster_network(run.coupling, run.partition)
    run.manifest.projection = {
        "clustered": len(run.partition.assignment),
        "adopted": len(projection.new_assignments),
        "unassigned": len(projection.unassigned),
    }
    graph_path = run.out_dir / "cluster_graph.tsv"
    write_graph(projection.graph, graph_path)
    assign_path = run.out_dir / "cluster_assignment.tsv"
    community.write_assignment(run.partition, projection, assign_path)

    assignment = run.partition.assignment
    # K' is released after this stage, so no later reader sees the tags
    for venue, attrs in run.knowledge_reduced.nodes.items():
        attrs["cluster"] = assignment.get(venue, "")
    graphml_path = run.out_dir / "knowledge_clustered.graphml"
    write_graph(run.knowledge_reduced, graphml_path, "graphml")
    run.record("project", graph_path, assign_path, graphml_path)


def _stage_metrics(run: _Run) -> None:
    cfg = run.cfg
    betweenness = metrics.betweenness_centrality(
        run.citation_reduced, weighted=True, normalized=True
    )
    run.pagerank = metrics.pagerank(
        run.citation_reduced, d=cfg.pagerank_d, tol=cfg.pagerank_tol, max_iter=cfg.pagerank_max_iter
    )
    b_path = run.out_dir / "betweenness.tsv"
    p_path = run.out_dir / "pagerank.tsv"
    metrics.write_metric_tsv(betweenness, b_path)
    metrics.write_metric_tsv(run.pagerank, p_path)
    warning = run.pagerank.convergence_warning()
    if warning:
        run.manifest.warnings.append(warning)
    run.record("metrics", b_path, p_path)


def _stage_subgraphs(run: _Run) -> None:
    run.profiles = subgraphs.profile_venues(
        run.linked, run.pagerank.values, run.cfg.classification_cuts()
    )
    path = run.out_dir / "profiles.tsv"
    subgraphs.write_profiles(run.profiles, path)
    run.record("subgraphs", path)


def _stage_stats(run: _Run) -> None:
    hist_path = run.out_dir / "histograms.tsv"
    med_path = run.out_dir / "medians.tsv"
    subgraphs.write_statistics(run.profiles, run.cfg.histogram_bins, hist_path, med_path)
    run.record("stats", hist_path, med_path)


def _stage_snapshots(run: _Run) -> None:
    from .corpus import slice_by_year

    cfg = run.cfg
    outputs = []
    for year in cfg.slice_years:
        year_dir = run.out_dir / "snapshots" / str(year)
        year_dir.mkdir(parents=True, exist_ok=True)
        sliced = slice_by_year(run.linked, year)
        coupling = networks.build_coupling_matrix(sliced)
        knowledge = networks.build_knowledge_network(coupling)
        reduced = networks.apply_threshold(
            knowledge, networks.ThresholdRule("cosine", cfg.cosine_min)
        )
        run.manifest.networks.setdefault("snapshots", {})[str(year)] = {"K": _size(knowledge), "K'": _size(reduced)}
        full_path = year_dir / "knowledge_full.tsv"
        reduced_path = year_dir / "knowledge.tsv"
        write_graph(knowledge, full_path)
        _write_reduced(reduced, knowledge, full_path, reduced_path)
        outputs.extend([full_path, reduced_path])
    run.record("snapshots", *outputs)


_STAGE_FUNCS = {
    "ingest": _stage_ingest,
    "link": _stage_link,
    "build": _stage_build,
    "threshold": _stage_threshold,
    "cluster": _stage_cluster,
    "project": _stage_project,
    "metrics": _stage_metrics,
    "subgraphs": _stage_subgraphs,
    "stats": _stage_stats,
    "snapshots": _stage_snapshots,
}


# The _Run fields each stage reads for the last time: the stage loop drops
# them when the stage ends, so a stage product lives until its last reader.
# `linked` stays, for the optional snapshots stage.
_RELEASED_AFTER = {
    "link": ("meta", "cite"),
    "threshold": ("knowledge", "citation"),
    "project": ("coupling", "knowledge_reduced", "partition"),
    "metrics": ("citation_reduced",),
    "subgraphs": ("pagerank",),
    "stats": ("profiles",),
}


@gc_paused
def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute all stages, writing artifacts, manifest.json and
    run_report.json under cfg.out_dir.

    Any stage failure aborts the run; the raised StageError names the stage
    and carries the manifest of stages completed so far, which is also written
    to disk with its report. The cyclic collector stays paused for the whole
    run: the stages build few reference cycles, and a full collection would
    walk every record of the corpora.
    """
    cfg.validate()
    run = _Run(cfg)
    run.out_dir.mkdir(parents=True, exist_ok=True)
    cfg.save(run.out_dir / "config.txt")

    def save() -> None:
        run.manifest.save(run.out_dir / "manifest.json")
        run.manifest.save_report(run.out_dir / "run_report.json")

    stage_list = list(STAGES)
    if cfg.slice_years:
        stage_list.append("snapshots")
    for stage in stage_list:
        wall, cpu = perf_counter(), process_time()
        try:
            _STAGE_FUNCS[stage](run)
        except Exception as exc:
            run.manifest.failed_stage = stage
            save()
            raise StageError(stage, exc, run.manifest) from exc
        for name in _RELEASED_AFTER.get(stage, ()):
            setattr(run, name, None)
        run.manifest.timings.append(StageTiming(stage, perf_counter() - wall, process_time() - cpu, _peak_rss_mb()))

    save()
    return run.manifest

"""Per-layer spans and counts for one in-process `run_pipeline` call.

The tracer wraps the program's public functions from outside, at the names
their callers look up (`venuenet.pipeline.parse_corpus`,
`venuenet.linkage.smith_waterman_similarity`, ...), and restores them on
`uninstall`. Nothing in the program changes. Spans nest on a stack; a span's
self time is its duration minus the durations of its direct children, so the
self times of all spans add up to the root span's wall time.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from collections import Counter
from time import perf_counter

MIB = float(1 << 20)


def _betweenness_span(tracer: "Tracer") -> str:
    # Subgraph profiles call betweenness unweighted on each venue subgraph;
    # the metrics stage calls it weighted on F'.
    if any(tracer.spans[i][0] == "subgraphs.profile" for i in tracer.stack):
        return "metrics.betweenness_subgraph"
    return "metrics.betweenness_fprime"


def _on_parse(counts, args, result):
    counts["corpus.records_parsed"] += len(result.records)
    counts["corpus.parse_bytes"] += os.fstat(args[0].fileno()).st_size


def _on_threshold(counts, args, result):
    kind = "networks.kprime_edges" if args[1].kind == "cosine" else "networks.fprime_edges"
    counts[kind] += result.edge_count()


def _on_cluster(counts, args, result):
    # CNM only merges while Q rises, so the last state is the best one and
    # every merge removes one cluster.
    counts["community.merges"] += args[0].node_count() - result.cluster_count


# (module, attribute, span name or function of the tracer, count hook)
WRAPS = (
    ("venuenet.pipeline", "parse_corpus", "corpus.parse", _on_parse),
    ("venuenet.pipeline", "save_corpus", "corpus.serialize", None),
    ("venuenet.pipeline", "validate_corpus", "corpus.validate", None),
    ("venuenet.corpus", "slice_by_year", "corpus.slice", None),
    ("venuenet.linkage", "link_corpora", "linkage.link",
     lambda c, a, r: c.update({"linkage.matches": len(r)})),
    ("venuenet.linkage", "smith_waterman_similarity", "linkage.sw", None),
    ("venuenet.linkage", "attach_references", "linkage.attach", None),
    ("venuenet.networks", "build_coupling_matrix", "networks.coupling",
     lambda c, a, r: c.update({"networks.coupling_nnz": sum(len(v) for v in r.vectors.values())})),
    ("venuenet.networks", "build_knowledge_network", "networks.knowledge", None),
    ("venuenet.networks", "build_citation_network", "networks.citation", None),
    ("venuenet.networks", "apply_threshold", "networks.threshold", _on_threshold),
    ("venuenet.networks", "summarize", "networks.summarize", None),
    ("venuenet.community", "greedy_modularity_partition", "community.cluster", _on_cluster),
    ("venuenet.community", "modularity", "community.modularity", None),
    ("venuenet.community", "project_to_cluster_network", "community.project", None),
    ("venuenet.metrics", "betweenness_centrality", _betweenness_span,
     lambda c, a, r: c.update({"metrics.brandes_sources": a[0].node_count()})),
    ("venuenet.metrics", "pagerank", "metrics.pagerank",
     lambda c, a, r: c.update({"metrics.pagerank_iterations": r.iterations})),
    ("venuenet.metrics", "average_clustering_coefficient", "metrics.clustering", None),
    ("venuenet.metrics", "connected_components", "metrics.components", None),
    ("venuenet.subgraphs", "publication_citation_graph", "subgraphs.extract", None),
    ("venuenet.subgraphs", "extract_coauthorship_subgraph", "subgraphs.extract", None),
    ("venuenet.subgraphs", "extract_citation_subgraph", "subgraphs.extract", None),
    ("venuenet.subgraphs", "subgraph_profile", "subgraphs.profile",
     lambda c, a, r: c.update({"subgraphs.nodes_total": r.node_count})),
    ("venuenet.subgraphs", "profile_statistics", "subgraphs.stats", None),
    ("venuenet.pipeline", "write_graph", "exports.write",
     lambda c, a, r: c.update({"exports.bytes_written": os.path.getsize(a[1])})),
    ("venuenet.pipeline", "export_graph", "exports.write",
     lambda c, a, r: c.update({"exports.bytes_written": len(r)})),
)
# Counted on every call but not timed: there are hundreds of thousands.
COUNTED = (("venuenet.linkage", "jaccard_title_similarity", "linkage.jaccard_calls"),)

ROOT = "pipeline"

# Per-layer metrics reported from a trace: name -> unit.
PER_LAYER = {
    "corpus.parse_s": "s",
    "corpus.parse_mb_per_s": "MB/s",
    "corpus.records_parsed": "count",
    "corpus.serialize_s": "s",
    "corpus.validate_s": "s",
    "corpus.slice_s": "s",
    "linkage.link_s": "s",
    "linkage.sw_s": "s",
    "linkage.jaccard_calls": "count",
    "linkage.sw_calls": "count",
    "linkage.matches": "count",
    "linkage.sw_yield": "ratio",
    "linkage.attach_s": "s",
    "networks.coupling_s": "s",
    "networks.knowledge_s": "s",
    "networks.citation_s": "s",
    "networks.threshold_s": "s",
    "networks.summarize_s": "s",
    "networks.coupling_nnz": "count",
    "networks.kprime_edges": "count",
    "networks.fprime_edges": "count",
    "community.cluster_s": "s",
    "community.merges": "count",
    "community.modularity_s": "s",
    "community.project_s": "s",
    "metrics.betweenness_fprime_s": "s",
    "metrics.betweenness_subgraph_s": "s",
    "metrics.brandes_sources": "count",
    "metrics.pagerank_s": "s",
    "metrics.pagerank_iterations": "count",
    "metrics.clustering_s": "s",
    "metrics.components_s": "s",
    "subgraphs.extract_s": "s",
    "subgraphs.profile_self_s": "s",
    "subgraphs.profiles": "count",
    "subgraphs.nodes_total": "count",
    "subgraphs.stats_s": "s",
    "exports.write_s": "s",
    "exports.bytes_written": "bytes",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}
# Span name -> self-time metric, where it is not "<span>_s".
SELF_METRIC = {ROOT: "pipeline.self_s", "subgraphs.profile": "subgraphs.profile_self_s"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn, hook=None):
        """`fn` wrapped so that each call records a span and feeds `hook`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(self) if callable(name) else name
            index = len(self.spans)
            self.spans.append([span_name, self.stack[-1] if self.stack else -1, 0.0, 0.0])
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index][2:] = (start, end)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def counted(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module_name: str, attr: str, replacement) -> None:
        module = importlib.import_module(module_name)
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for module_name, attr, name, hook in WRAPS:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch(module_name, attr, self.span(name, original, hook))
        for module_name, attr, counter in COUNTED:
            original = getattr(importlib.import_module(module_name), attr)
            self._patch(module_name, attr, self.counted(counter, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, list[float]] = {}
        for (name, _, start, end), children in zip(self.spans, child_time):
            totals.setdefault(name, []).append(end - start - children)
        return {name: math.fsum(values) for name, values in totals.items()}

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def root_wall(self) -> float:
        roots = [end - start for name, parent, start, end in self.spans if parent < 0]
        if len(roots) != 1 or self.spans[0][0] != ROOT:
            raise ValueError(f"expected one {ROOT!r} root span, found {len(roots)}")
        return roots[0]

    def metrics(self, untraced_wall: float) -> dict[str, float]:
        """Every per-layer metric; time metrics are self times in seconds."""
        selfs = self.self_times()
        unknown = {SELF_METRIC.get(n, n + "_s") for n in selfs} - set(PER_LAYER)
        if unknown:
            raise ValueError(f"spans without a metric: {sorted(unknown)}")
        out = {name: 0.0 for name, unit in PER_LAYER.items() if unit == "s"}
        for name, value in selfs.items():
            out[SELF_METRIC.get(name, name + "_s")] = value
        for name, unit in PER_LAYER.items():
            if unit in ("count", "bytes"):
                out[name] = self.counts[name]
        out["linkage.sw_calls"] = self.span_count("linkage.sw")
        out["subgraphs.profiles"] = self.span_count("subgraphs.profile")
        parse_s = selfs.get("corpus.parse", 0.0)
        out["corpus.parse_mb_per_s"] = self.counts["corpus.parse_bytes"] / MIB / parse_s if parse_s else 0.0
        sw_calls = out["linkage.sw_calls"]
        out["linkage.sw_yield"] = out["linkage.matches"] / sw_calls if sw_calls else 0.0
        out["trace.overhead_s"] = self.root_wall() - untraced_wall
        return out

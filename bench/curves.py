"""Scaling curves of the two superlinear kernels, as a one-off record.

    python3 bench/curves.py

Run from the repository root. For each venue count in VENUES it builds K' from
`synth.scale_corpus(venues, 10 papers)` and times `greedy_modularity_partition`
on it (`community.cluster_s`, self time); for each count in DUPLICATES it times
`link_corpora` on `synth.linkage_benchmark_corpora(n)` (`linkage.link_s` and
`linkage.sw_s`). The largest sizes take minutes. This is not part of the gated
benchmark runs and checks no outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import tracing

SRC = Path.cwd() / "src"
VENUES = (1000, 2000, 4000)
DUPLICATES = (1000, 2000, 4000)


def _traced(module, name: str, *args) -> tracing.Tracer:
    """Call `module.name(*args)` with the tracer installed, so the call itself
    is traced too."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.span(tracing.ROOT, getattr(module, name))(*args)
    finally:
        tracer.uninstall()
    return tracer


def cluster_point(venues: int) -> dict:
    from venuenet import community, networks, synth

    corpus = synth.scale_corpus(venues=venues, papers_per_venue=10, seed=3)
    kprime = networks.apply_threshold(
        networks.build_knowledge_network(networks.build_coupling_matrix(corpus)),
        networks.ThresholdRule("cosine", networks.COSINE_MIN_DEFAULT),
    )
    tracer = _traced(community, "greedy_modularity_partition", kprime)
    selfs = tracer.self_times()
    return {"venues": venues, "kprime_edges": kprime.edge_count(),
            "community.merges": tracer.counts["community.merges"],
            "community.cluster_s": selfs["community.cluster"]}


def linkage_point(duplicates: int) -> dict:
    from venuenet import linkage, synth

    meta, cite, _ = synth.linkage_benchmark_corpora(n=duplicates)
    tracer = _traced(linkage, "link_corpora", meta, cite)
    selfs = tracer.self_times()
    return {"duplicates": duplicates, "linkage.jaccard_calls": tracer.counts["linkage.jaccard_calls"],
            "linkage.sw_calls": tracer.span_count("linkage.sw"), "linkage.matches": tracer.counts["linkage.matches"],
            "linkage.link_s": selfs["linkage.link"], "linkage.sw_s": selfs.get("linkage.sw", 0.0)}


def main() -> int:
    for n in VENUES:
        print(json.dumps(cluster_point(n)), flush=True)
    for n in DUPLICATES:
        print(json.dumps(linkage_point(n)), flush=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "venuenet").is_dir():
        print(f"curves: no src/venuenet under {Path.cwd()}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())

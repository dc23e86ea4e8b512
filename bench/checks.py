"""Output checks for one `venuenet run` output directory.

Each check compares the artifacts with a computation made here, apart from
the program, or with a property the method must have. None compares with a
stored copy of earlier output. The checks read only the written files and the
generator's own view of the inputs (`workloads.Inputs`).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from workloads import Inputs, Rec

# Program defaults the workloads do not override (README "Defaults").
COSINE_MIN = 0.1
CITATION_MIN = 50.0
PAGERANK_D = 0.85
PAGERANK_TOL = 1e-8
PAGERANK_SLACK = 10  # fixed-point residual allowed, in multiples of the tolerance
RECALL_MIN = 0.99
STAGES = ["ingest", "link", "build", "threshold", "cluster", "project", "metrics", "subgraphs", "stats"]


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def artifact_hashes(out: Path, slices: bool) -> dict[str, str]:
    """Verify every path, size and SHA-256 in manifest.json against the file
    on disk; return path -> sha256."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    _require("failed_stage" not in manifest, f"failed stage {manifest.get('failed_stage')}")
    names = [stage["name"] for stage in manifest["stages"]]
    _require(names == STAGES + (["snapshots"] if slices else []), f"stages {names}")
    hashes = {}
    for stage in manifest["stages"]:
        for entry in stage["outputs"]:
            data = (out / entry["path"]).read_bytes()
            _require(len(data) == entry["bytes"], f"{entry['path']}: size differs from manifest")
            _require(hashlib.sha256(data).hexdigest() == entry["sha256"], f"{entry['path']}: sha256 differs from manifest")
            hashes[entry["path"]] = entry["sha256"]
    return hashes


def read_graph(path: Path) -> tuple[set[str], dict[tuple[str, str], float]]:
    """Edge TSV: header, `#node` lines, then source/target/weight rows."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines[0].startswith("# venuenet-graph"), f"{path.name}: no graph header")
    nodes, edges = set(), {}
    for line in lines[1:]:
        if line.startswith("#node\t"):
            nodes.add(line.split("\t")[1])
        elif line and not line.startswith("#"):
            u, v, w = line.split("\t")
            edges[(u, v)] = float(w)
    return nodes, edges


def read_partition(out: Path) -> tuple[dict[str, str], float]:
    assignment, q = {}, None
    for line in (out / "partition.tsv").read_text(encoding="utf-8").splitlines():
        if line.startswith("# q="):
            q = float(line.split()[1][2:])
        elif line and not line.startswith(("#", "venue_key\t")):
            venue, cluster = line.split("\t")
            assignment[venue] = cluster
    _require(q is not None, "partition.tsv has no q")
    return assignment, q


def _tsv_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]


def linked_records(inputs: Inputs, out: Path) -> list[Rec]:
    """The corpus the networks are built from: the metadata records, each
    matched one carrying its citation partner's references, with targets
    that are matched citation records rewritten to their metadata ids."""
    if not inputs.cite:
        return inputs.meta
    right_to_left, left_to_right = {}, {}
    for left, right, *_ in _tsv_rows(out / "matches.tsv"):
        left_to_right[left] = right
        if right not in right_to_left or left < right_to_left[right]:
            right_to_left[right] = left
    cite_refs = {r.id: r.refs for r in inputs.cite}
    return [
        replace(r, refs=tuple(right_to_left.get(t, t) for t in cite_refs[left_to_right[r.id]]))
        if r.id in left_to_right
        else r
        for r in inputs.meta
    ]


def check_partition_groups(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    assignment, _ = read_partition(out)
    kprime_nodes, _ = read_graph(out / "knowledge.tsv")
    _require(assignment and set(assignment) == kprime_nodes, "partition does not cover K'")
    groups_of_cluster, clusters_of_group = defaultdict(set), defaultdict(set)
    for venue, cluster in assignment.items():
        groups_of_cluster[cluster].add(inputs.group_of(venue))
        clusters_of_group[inputs.group_of(venue)].add(cluster)
    mixed = sum(len(g) > 1 for g in groups_of_cluster.values())
    split = sum(len(c) > 1 for c in clusters_of_group.values())
    _require(not mixed and not split, f"{mixed} clusters mix groups, {split} groups are split")


def check_modularity(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    assignment, q = read_partition(out)
    _, edges = read_graph(out / "knowledge.tsv")
    m = math.fsum(edges.values())
    intra, degree = defaultdict(list), defaultdict(list)
    for (u, v), w in edges.items():
        if assignment[u] == assignment[v]:
            intra[assignment[u]].append(w)
        degree[assignment[u]].append(w)
        degree[assignment[v]].append(w)
    expected = math.fsum(
        math.fsum(intra[c]) / m - (math.fsum(degree[c]) / (2 * m)) ** 2 for c in sorted(set(assignment.values()))
    )
    _require(abs(q - expected) <= 1e-12, f"q={q!r}, recomputed {expected!r}")


def check_thresholds(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    w = inputs.workload
    citation_min = CITATION_MIN if w.citation_min is None else w.citation_min
    pairs = [("knowledge_full.tsv", "knowledge.tsv", lambda x: x >= COSINE_MIN),
             ("citation_full.tsv", "citation.tsv", lambda x: x > citation_min)]
    pairs += [(f"snapshots/{y}/knowledge_full.tsv", f"snapshots/{y}/knowledge.tsv", pairs[0][2]) for y in w.slice_years]
    for full_name, reduced_name, keeps in pairs:
        _, full = read_graph(out / full_name)
        nodes, reduced = read_graph(out / reduced_name)
        _require(reduced, f"{reduced_name} has no edges")
        _require(set(reduced) == {e for e, x in full.items() if keeps(x)}, f"{reduced_name}: wrong edge set")
        _require(all(full[e] == x for e, x in reduced.items()), f"{reduced_name}: weights differ from {full_name}")
        _require(nodes == {v for e in reduced for v in e}, f"{reduced_name}: isolated nodes")


def check_cosine_sample(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    ids = {r.id for r in recs}
    vectors: dict[str, Counter] = defaultdict(Counter)
    for r in recs:
        for t in r.refs:
            vectors[r.venue][t if t in ids else " ".join(t.lower().split())] += 1
    nodes, edges = read_graph(out / "knowledge_full.tsv")
    venues = sorted(vectors)
    _require(set(venues) == nodes, "K nodes differ from the venues that cite")
    sample = venues[:: max(1, len(venues) // 40)]
    keys = sorted(set().union(*(vectors[v] for v in sample)))
    column = {k: i for i, k in enumerate(keys)}
    counts = np.zeros((len(sample), len(keys)), dtype=np.int64)
    for row, venue in enumerate(sample):
        for key, count in vectors[venue].items():
            counts[row, column[key]] = count
    dots = counts @ counts.T
    for x, y in combinations(range(len(sample)), 2):
        cosine = dots[x, y] / np.sqrt(float(dots[x, x] * dots[y, y]))
        got = edges.get((sample[x], sample[y]), 0.0)
        _require(abs(got - cosine) <= 1e-12, f"K weight {sample[x]}-{sample[y]} is {got!r}, cosine {cosine!r}")


def check_pagerank(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    nodes, edges = read_graph(out / "citation.tsv")
    ranks = {node: float(value) for node, value in _tsv_rows(out / "pagerank.tsv")}
    _require(set(ranks) == nodes, "pagerank.tsv nodes differ from F'")
    outdeg = Counter(u for u, _ in edges)
    inflow = defaultdict(list)
    for u, v in edges:
        inflow[v].append(ranks[u] / outdeg[u])
    residual = max(abs((1 - PAGERANK_D) + PAGERANK_D * math.fsum(inflow[i]) - ranks[i]) for i in nodes)
    _require(residual <= PAGERANK_SLACK * PAGERANK_TOL, f"PageRank fixed-point residual {residual!r}")


def check_matches(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    found = [(row[0], row[1]) for row in _tsv_rows(out / "matches.tsv")]
    if not inputs.cite:
        _require(not found, "matches without a citation corpus")
        return
    wrong = sorted(set(found) - inputs.planted)
    _require(not wrong, f"{len(wrong)} matches are not planted pairs, e.g. {wrong[:1]}")
    _require(len(found) >= RECALL_MIN * len(inputs.planted), f"recall {len(found)}/{len(inputs.planted)}")


def check_histograms(inputs: Inputs, out: Path, recs: list[Rec]) -> None:
    masses = defaultdict(list)
    for family, metric, kind, _, _, mass in _tsv_rows(out / "histograms.tsv"):
        masses[(family, metric, kind)].append(float(mass))
    _require(masses, "histograms.tsv is empty")
    bad = [key for key, values in masses.items() if abs(math.fsum(values) - 1.0) > 1e-9]
    _require(not bad, f"histogram masses do not sum to 1 for {bad[:3]}")


def _expected_profile(nx, g) -> tuple[float, float, float, float]:
    n = g.number_of_nodes()
    components = nx.weakly_connected_components(g) if g.is_directed() else nx.connected_components(g)
    return (
        nx.density(g),
        nx.average_clustering(g.to_undirected() if g.is_directed() else g),
        max(nx.betweenness_centrality(g, normalized=True).values()),
        max(len(c) for c in components) / n,
    )


def check_profiles_networkx(inputs: Inputs, out: Path, recs: list[Rec]) -> str | None:
    try:
        import networkx as nx
    except ImportError:
        return "networkx not installed, profile sample skipped"
    rows = {(r[0], r[2]): tuple(float(x) for x in r[3:7]) for r in _tsv_rows(out / "profiles.tsv")}
    ids = {r.id: r for r in recs}
    by_venue = defaultdict(list)
    for r in recs:
        by_venue[r.venue].append(r)
    venues = sorted(by_venue)
    for venue in venues[:: max(1, len(venues) // 6)]:
        coauthors = nx.Graph()
        for r in by_venue[venue]:
            names = sorted(set(r.authors))
            coauthors.add_nodes_from(names)
            coauthors.add_edges_from(combinations(names, 2))
        cited = {t for r in by_venue[venue] for t in r.refs if t in ids}
        citations = nx.DiGraph()
        citations.add_nodes_from(cited)
        citations.add_edges_from((s, t) for s in cited for t in ids[s].refs if t in cited and t != s)
        for family, g in (("coauthorship", coauthors), ("citation", citations)):
            got = rows.get((venue, family))
            if g.number_of_nodes() == 0:
                _require(got is None, f"profile row for empty {family} subgraph of {venue}")
                continue
            _require(got is not None, f"no {family} profile for {venue}")
            expected = _expected_profile(nx, g)
            _require(
                all(abs(a - b) <= 1e-9 for a, b in zip(got, expected)),
                f"{family} profile of {venue}: {got} vs networkx {expected}",
            )
    return None


CHECKS = (
    check_partition_groups,
    check_modularity,
    check_thresholds,
    check_cosine_sample,
    check_pagerank,
    check_matches,
    check_histograms,
    check_profiles_networkx,
)


def check_outputs(inputs: Inputs, out: Path) -> tuple[list[str], list[str]]:
    """Run every check on one output directory; return (failures, notes)."""
    failures, notes = [], []
    try:
        recs = linked_records(inputs, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"linked_records: {exc!r}"], notes
    for check in CHECKS:
        try:
            note = check(inputs, out, recs)
        except (CheckError, OSError, KeyError, ValueError) as exc:
            failures.append(f"{check.__name__}: {exc}")
        else:
            if note:
                notes.append(note)
    return failures, notes

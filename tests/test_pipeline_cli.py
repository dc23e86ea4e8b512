import json
import os
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import pytest
from click.testing import CliRunner

from venuenet import community, linkage, metrics, pipeline, subgraphs
from venuenet.cli import main
from venuenet.community import read_partition
from venuenet.corpus import save_corpus
from venuenet.exports import load_graph
from venuenet.linkage import MATCHES_HEADER
from venuenet.networks import ThresholdRule, apply_threshold, summarize
from conftest import run_stage_chain, write_dblp
from test_golden_manifests import _linked
from oracles import cluster_sets, graphml_et, record_ids
from venuenet.subgraphs import PROFILES_HEADER, write_profiles
from venuenet.pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    run_pipeline,
    STAGES,
)
from venuenet.synth import planted_group_corpus, scale_corpus, split_for_linkage


@pytest.fixture(scope="module")
def planted():
    corpus, truth = planted_group_corpus(
        groups=3, venues_per_group=4, papers_per_venue=6, pool_size=25, seed=7
    )
    return corpus, truth


def fixture_config(tmp_path: Path, corpus_path: Path, **overrides) -> PipelineConfig:
    cfg = PipelineConfig(
        metadata_corpus=str(corpus_path),
        out_dir=str(tmp_path / "out"),
        citation_min=2.0,
        pagerank_tol=1e-10,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def planted_member_sets(truth):
    groups = {}
    for venue, gi in truth.items():
        groups.setdefault(gi, set()).add(venue)
    return {frozenset(m) for m in groups.values()}


class TestConfig:
    def test_text_round_trip(self):
        cfg = PipelineConfig(
            metadata_corpus="a.jsonl",
            citation_corpus="b.jsonl",
            slice_years=(1990, 1995),
            cosine_min=0.2,
            out_dir="results",
        )
        again = PipelineConfig.from_text(cfg.to_text())
        assert again == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = PipelineConfig(metadata_corpus="x.jsonl", out_dir="o", sw_min=0.85)
        path = tmp_path / "cfg.txt"
        cfg.save(path)
        assert PipelineConfig.load(path) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_text("schema = venuenet-config/1\nmystery = 1\n")

    def test_bad_schema_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_text("schema = other/9\n")

    def test_unreadable_values_exit_1_naming_the_key(self, tmp_path):
        for key, value in [("pagerank_max_iter", "2.5"), ("cosine_min", "high"), ("slice_years", "1990, x")]:
            path = tmp_path / "cfg.txt"
            path.write_text(f"schema = venuenet-config/1\n{key} = {value}\n")
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.load(path)
            result = CliRunner().invoke(main, ["run", "--config", str(path)])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # not an escaped traceback
            assert result.stderr.splitlines() == [f"error: config key {key!r} has invalid value {value!r}"]

    def test_non_utf8_config_exits_1_naming_file_and_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"schema = venuenet-config/1\nmetadata_corpus = \xff.jsonl\n")
        message = f"{path}: line 2: invalid UTF-8 at byte 45"
        with pytest.raises(ConfigError) as info:
            PipelineConfig.load(path)
        assert str(info.value) == message
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an escaped traceback
        assert result.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_repeated_key_exits_1_naming_both_lines(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "p1", "title": "T"}\n')
        path = tmp_path / "cfg.txt"
        path.write_text(f"schema = venuenet-config/1\nmetadata_corpus = {corpus}\ncosine_min = 0.2\n# 0.5?\n cosine_min=0.5\n")
        message = "config key 'cosine_min' on line 5 repeats line 3"
        with pytest.raises(ConfigError, match=message):
            PipelineConfig.load(path)
        result = CliRunner().invoke(main, ["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "out").exists()

    def test_validation_errors(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "p1", "title": "T"}\n')
        ok = PipelineConfig(metadata_corpus=str(corpus), out_dir="o")
        ok.validate()
        for attr, bad in [
            ("jaccard_min", 1.5),
            ("sw_min", -0.1),
            ("cosine_min", 2.0),
            ("citation_min", -1.0),
            ("citation_min", float("nan")),
            ("pagerank_d", 1.0),
            ("pagerank_tol", 0.0),
            ("pagerank_max_iter", 0),
            ("histogram_bins", 0),
            ("cut_very_low", 0.9),
            ("slice_years", (1492,)),
        ]:
            cfg = PipelineConfig(metadata_corpus=str(corpus), out_dir="o")
            setattr(cfg, attr, bad)
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_repeated_slice_year(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "p1", "title": "T"}\n')
        cfg = PipelineConfig(metadata_corpus=str(corpus), out_dir=str(tmp_path / "o"), slice_years=(2000, 1990, 2000))
        with pytest.raises(ConfigError, match="slice year 2000 is listed twice"):
            cfg.validate()
        cfg.save(tmp_path / "run.cfg")
        result = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "run.cfg")])
        assert result.exit_code == 1
        assert "slice year 2000" in result.output
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_file(self):
        cfg = PipelineConfig(metadata_corpus="does-not-exist.jsonl", out_dir="o")
        with pytest.raises(ConfigError):
            cfg.validate()


class TestRunPipeline:
    def test_all_stages_present_and_outputs_exist(self, tmp_path, planted):
        corpus, truth = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        cfg = fixture_config(tmp_path, corpus_path)
        manifest = run_pipeline(cfg)

        assert manifest.stage_names() == list(STAGES)
        assert len(manifest.stages) == 9
        out_dir = Path(cfg.out_dir)
        for stage in manifest.stages:
            assert stage.outputs, f"stage {stage.name} has no outputs"
            for output in stage.outputs:
                path = out_dir / output["path"]
                assert path.is_file()
                assert path.stat().st_size == output["bytes"]
        manifest_file = json.loads((out_dir / "manifest.json").read_text())
        assert manifest_file["schema"] == "venuenet-manifest/1"
        assert [s["name"] for s in manifest_file["stages"]] == list(STAGES)

    def test_partition_matches_planted_groups(self, tmp_path, planted):
        corpus, truth = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        cfg = fixture_config(tmp_path, corpus_path)
        run_pipeline(cfg)
        partition = read_partition(Path(cfg.out_dir) / "partition.tsv")
        got = cluster_sets(partition)
        assert got == planted_member_sets(truth)

    def test_reruns_byte_identical(self, tmp_path, planted):
        import shutil

        corpus, truth = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        cfg = fixture_config(tmp_path, corpus_path)
        cfg.out_dir = str(tmp_path / "rerun")
        out_dir = Path(cfg.out_dir)

        def outputs() -> dict:
            # every file but the run report, which holds the run's timings
            assert (out_dir / "run_report.json").is_file()
            return {
                p.relative_to(out_dir): p.read_bytes()
                for p in out_dir.rglob("*")
                if p.is_file() and p.name != "run_report.json"
            }

        run_pipeline(cfg)
        first = outputs()
        shutil.rmtree(out_dir)
        run_pipeline(cfg)
        second = outputs()
        assert set(first) == set(second)
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between reruns"

    def test_two_corpus_mode_links_and_builds(self, tmp_path, planted):
        corpus, truth = planted
        meta, cite = split_for_linkage(corpus)
        meta_path = tmp_path / "meta.jsonl"
        cite_path = tmp_path / "cite.jsonl"
        save_corpus(meta, meta_path)
        save_corpus(cite, cite_path)
        cfg = fixture_config(tmp_path, meta_path, citation_corpus=str(cite_path))
        manifest = run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)

        matches = (out_dir / "matches.tsv").read_text().splitlines()
        assert len(matches) - 1 == len(corpus.records)  # every record recovered
        # linked references reproduce the self-contained citation network
        citation = load_graph(out_dir / "citation_full.tsv")
        assert citation.directed
        assert citation.edge_count() > 0
        partition = read_partition(out_dir / "partition.tsv")
        assert cluster_sets(partition) == planted_member_sets(truth)

    def test_snapshot_series(self, tmp_path, planted):
        corpus, truth = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        cfg = fixture_config(tmp_path, corpus_path, slice_years=(1995, 2000))
        manifest = run_pipeline(cfg)
        assert manifest.stage_names() == list(STAGES) + ["snapshots"]
        out_dir = Path(cfg.out_dir)
        for year in (1995, 2000):
            assert (out_dir / "snapshots" / str(year) / "knowledge.tsv").is_file()

    @pytest.mark.parametrize("cosine_min", [0.0, 0.1, 0.6])
    def test_k_prime_outputs_equal_recomputation(self, tmp_path, planted, cosine_min):
        # the K' summary and the clustered GraphML are written without a
        # copy of K' (and with K's summary when K' = K): same bytes as
        # recomputing them from knowledge.tsv and partition.tsv
        corpus, _ = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        cfg = fixture_config(tmp_path, corpus_path, cosine_min=cosine_min)
        run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)
        reduced = load_graph(out_dir / "knowledge.tsv")
        summaries = json.loads((out_dir / "network_summary.json").read_text())
        assert summaries["K'"] == asdict(summarize(reduced))
        if cosine_min == 0.0:
            assert summaries["K'"] == summaries["K"]
        tagged = load_graph(out_dir / "knowledge.tsv")
        partition = read_partition(out_dir / "partition.tsv")
        for venue in tagged.nodes:
            tagged.nodes[venue]["cluster"] = partition.assignment.get(venue, "")
        assert (out_dir / "knowledge_clustered.graphml").read_bytes() == graphml_et(tagged)

    def test_stage_failure_reports_stage_and_partial_manifest(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken json\n")
        cfg = PipelineConfig(metadata_corpus=str(bad), out_dir=str(tmp_path / "out"))
        with pytest.raises(StageError) as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "ingest"
        assert exc.value.manifest.stage_names() == []
        saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert saved["failed_stage"] == "ingest"
        report = json.loads((tmp_path / "out" / "run_report.json").read_text())
        assert report["failed_stage"] == "ingest" and report["stages"] == []


class TestRunReport:
    def test_report_lists_the_manifest_stages_with_costs(self, tmp_path, planted):
        corpus, _ = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        cfg = fixture_config(tmp_path, corpus_path, slice_years=(1995,), pagerank_max_iter=1)
        manifest = run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)
        report = json.loads((out_dir / "run_report.json").read_text())
        assert report["schema"] == "venuenet-run-report/1"
        assert [s["name"] for s in report["stages"]] == manifest.stage_names() == list(STAGES) + ["snapshots"]
        for stage in report["stages"]:
            assert set(stage) == {"name", "wall_s", "cpu_s", "peak_rss_mb"}
            assert stage["wall_s"] >= 0 and stage["cpu_s"] >= 0
            assert stage["peak_rss_mb"] is None or stage["peak_rss_mb"] > 0
        assert report["warnings"] == manifest.warnings and len(report["warnings"]) == 1  # PageRank stopped early
        assert report["linkage"] == {}  # one corpus: nothing linked
        # the report is not an artifact: the manifest neither hashes nor names it
        assert "run_report.json" not in (out_dir / "manifest.json").read_text()

    def test_report_counts_the_network_funnels(self, tmp_path, planted):
        corpus, _ = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        # a venue below the cosine threshold that projection adopts, and one it leaves unassigned
        extra = [
            {"id": "weak1", "title": "W", "venue": "zz-weak", "year": 2000, "refs": [corpus.records[0].references[0], "w1", "w2", "w3", "w4"]},
            {"id": "alone1", "title": "A", "venue": "zz-alone", "year": 2000, "refs": ["only here"]},
        ]
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in extra)
        cfg = fixture_config(tmp_path, corpus_path, slice_years=(1995, 2005))
        run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)
        report = json.loads((out_dir / "run_report.json").read_text())

        def size(path):  # the node lines and the edge rows of an edge TSV
            rows = path.read_text().splitlines()[1:]
            nodes = sum(row.startswith("#node\t") for row in rows)
            return {"nodes": nodes, "edges": len(rows) - nodes}

        files = {"K": "knowledge_full.tsv", "K'": "knowledge.tsv", "F": "citation_full.tsv", "F'": "citation.tsv"}
        expected = {name: size(out_dir / file) for name, file in files.items()}
        expected["snapshots"] = {
            str(year): {"K": size(out_dir / "snapshots" / str(year) / "knowledge_full.tsv"),
                        "K'": size(out_dir / "snapshots" / str(year) / "knowledge.tsv")}
            for year in (1995, 2005)
        }
        assert report["networks"] == expected
        assert expected["K'"]["edges"] < expected["K"]["edges"] and expected["F'"]["edges"] < expected["F"]["edges"]

        matrix = json.loads((out_dir / "coupling.json").read_text())
        vectors = matrix["vectors"].values()
        assert report["coupling"] == {
            "venues": len(matrix["venues"]), "keys": len(set().union(*vectors)), "entries": sum(map(len, vectors)),
        }
        rules = [row.split("\t")[2] for row in (out_dir / "cluster_assignment.tsv").read_text().splitlines()[1:]]
        assert report["projection"] == {
            "clustered": rules.count("clustered"), "adopted": rules.count("best-cosine"), "unassigned": rules.count("unassigned"),
        }
        assert report["projection"] == {"clustered": expected["K'"]["nodes"], "adopted": 1, "unassigned": 1}
        # counts, not artifacts: the manifest neither hashes nor holds them
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == {"schema", "config", "stages"}
        assert not {"entries", "edges", "adopted"} & set((out_dir / "manifest.json").read_text().replace('"', " ").split())

    def test_report_counts_each_ingested_corpus(self, tmp_path, planted):
        corpus, _ = planted
        meta, cite = split_for_linkage(corpus)
        paths = {"metadata": tmp_path / "meta.jsonl", "citation": tmp_path / "cite.jsonl"}
        save_corpus(meta, paths["metadata"])
        save_corpus(cite, paths["citation"])
        cfg = fixture_config(tmp_path, paths["metadata"], citation_corpus=str(paths["citation"]))
        run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)
        report = json.loads((out_dir / "run_report.json").read_text())
        expected = {}
        for role, c in (("metadata", meta), ("citation", cite)):
            refs = [t for r in c.records for t in r.references]
            expected[role] = {"records": len(c.records), "references": len(refs), "distinct_targets": len(set(refs))}
        assert report["ingest"] == expected
        assert expected["citation"]["references"] > expected["citation"]["distinct_targets"] > 0
        for path in (out_dir / "manifest.json", out_dir / "validation_metadata.json"):
            assert "distinct_targets" not in path.read_text()

    def test_report_counts_the_linkage_funnel(self, tmp_path, planted, monkeypatch):
        corpus, _ = planted
        meta, cite = split_for_linkage(corpus)
        save_corpus(meta, tmp_path / "meta.jsonl")
        save_corpus(cite, tmp_path / "cite.jsonl")
        cfg = fixture_config(tmp_path, tmp_path / "meta.jsonl", citation_corpus=str(tmp_path / "cite.jsonl"))
        link, build = pipeline._STAGE_FUNCS["link"], pipeline._STAGE_FUNCS["build"]
        indexed, parsed, held = [], [], []

        def watched_link(run):
            indexed.append(run.cite._references)
            parsed.extend([weakref.ref(run.meta), weakref.ref(run.cite)])
            link(run)

        def watched_build(run):
            held.append((run.meta, run.cite, [corpus() for corpus in parsed], len(run.linked.records)))
            build(run)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "link", watched_link)
        monkeypatch.setitem(pipeline._STAGE_FUNCS, "build", watched_build)
        run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)
        funnel = json.loads((out_dir / "run_report.json").read_text())["linkage"]
        steps = ["canopy_pairs", "candidates", "jaccard_survivors", "sw_confirmed", "matches"]
        assert list(funnel) == sorted(steps)
        counts = [funnel[step] for step in steps]
        assert counts == sorted(counts, reverse=True) and counts[-1] > 0
        assert counts[-1] == len((out_dir / "matches.tsv").read_text().splitlines()) - 1
        assert "canopy_pairs" not in (out_dir / "manifest.json").read_text()
        # nothing indexes the citation corpus's references: ingest only counts them
        assert indexed == [None]
        # after link only the linked corpus is alive; the parsed two are freed
        assert held == [(None, None, [None, None], len(meta.records))]

    def test_report_counts_the_clustering(self, tmp_path, planted):
        corpus, _ = planted
        save_corpus(corpus, tmp_path / "fixture.jsonl")
        cfg = fixture_config(tmp_path, tmp_path / "fixture.jsonl")
        run_pipeline(cfg)
        out_dir = Path(cfg.out_dir)
        funnel = json.loads((out_dir / "run_report.json").read_text())["cluster"]
        assert list(funnel) == ["heap_pops", "heap_pushes", "heap_rebuilds", "merges"]
        partition = read_partition(out_dir / "partition.tsv")
        # CNM merges only while Q rises: each merge joins two clusters of the last state
        assert funnel["merges"] == len(partition.assignment) - partition.cluster_count > 0
        edges = load_graph(out_dir / "knowledge.tsv").edge_count()
        assert funnel["merges"] <= funnel["heap_pops"] <= edges + funnel["heap_pushes"]
        assert "heap_pops" not in (out_dir / "manifest.json").read_text()

    def test_stage_products_are_released_after_their_last_reader(self, tmp_path, planted, monkeypatch):
        """Each field of pipeline._RELEASED_AFTER is None when every later
        stage starts; the coupling matrix, the partition and PageRank are
        freed then, not only unreferenced."""
        corpus, _ = planted
        meta, cite = split_for_linkage(corpus)
        save_corpus(meta, tmp_path / "meta.jsonl")
        save_corpus(cite, tmp_path / "cite.jsonl")
        cfg = fixture_config(tmp_path, tmp_path / "meta.jsonl", citation_corpus=str(tmp_path / "cite.jsonl"),
                             slice_years=(1995,))
        released = pipeline._RELEASED_AFTER
        fields = {name for names in released.values() for name in names}
        alive, products = {}, {}

        def watch(stage, func):
            def watched(run):
                alive[stage] = {name for name in fields if getattr(run, name) is not None}
                alive[stage] |= {name for name, ref in products.items() if ref() is not None}
                func(run)
                for name in ("coupling", "partition", "pagerank"):
                    if name not in products and getattr(run, name) is not None:
                        products[name] = weakref.ref(getattr(run, name))
            return watched

        for stage, func in list(pipeline._STAGE_FUNCS.items()):
            monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, watch(stage, func))
        run_pipeline(cfg)
        order = [*STAGES, "snapshots"]
        assert list(alive) == order
        for i, stage in enumerate(order):
            gone = {name for earlier in order[:i] for name in released.get(earlier, ())}
            assert not alive[stage] & gone, stage
        assert set(products) == {"coupling", "partition", "pagerank"}
        assert {"coupling", "partition"} <= alive["project"] and "pagerank" in alive["subgraphs"]
        assert all(ref() is None for ref in products.values())

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status to read VmHWM from")
    def test_report_peak_rss_is_the_runs_own(self, tmp_path):
        # On Linux a child's ru_maxrss starts at the peak of the process that
        # launched it: started from one holding 120 MB, the run must still
        # report its own peak.
        save_corpus(scale_corpus(venues=12, papers_per_venue=10, seed=5), tmp_path / "corpus.jsonl")
        launcher = (
            "import resource, subprocess, sys\n"
            "ballast = b'x' * (120 << 20)  # written, so resident\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss >> 10)\n"
            "sys.exit(subprocess.run([sys.executable, '-m', 'venuenet.cli', *sys.argv[1:]]).returncode)\n"
        )
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))
        out_dir = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-c", launcher, "run", "--corpus", str(tmp_path / "corpus.jsonl"), "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.splitlines()[0]) >= 100  # MB held by the launcher
        peaks = [stage["peak_rss_mb"] for stage in json.loads((out_dir / "run_report.json").read_text())["stages"]]
        assert len(peaks) == len(STAGES) and all(0 < peak < 100 for peak in peaks), peaks

    def test_verbose_prints_each_stage_and_leaves_manifest_alone(self, tmp_path, planted):
        corpus, _ = planted
        corpus_path = tmp_path / "fixture.jsonl"
        save_corpus(corpus, corpus_path)
        out_dir = tmp_path / "out"
        args = ["run", "--corpus", str(corpus_path), "--out-dir", str(out_dir), "--citation-min", "2"]
        manifests, stderrs = [], []
        for extra in ([], ["--verbose"]):
            result = CliRunner().invoke(main, args + extra)
            assert result.exit_code == 0, result.output
            manifests.append((out_dir / "manifest.json").read_bytes())
            stderrs.append(result.stderr.splitlines())
        assert manifests[0] == manifests[1]
        assert stderrs[0] == []
        assert [line.split(":")[0] for line in stderrs[1]] == [f"stage {name}" for name in STAGES]


class TestCli:
    def _write_fixture(self, tmp_path):
        corpus, truth = planted_group_corpus(
            groups=2, venues_per_group=3, papers_per_venue=5, pool_size=20, seed=13
        )
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        return path

    def test_ingest_build_threshold_cluster_flow(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)

        result = runner.invoke(
            main, ["ingest", str(corpus_path), "--format", "jsonl", "--out", str(tmp_path / "c.jsonl")]
        )
        assert result.exit_code == 0, result.output

        result = runner.invoke(
            main,
            [
                "build",
                str(tmp_path / "c.jsonl"),
                "--network",
                "knowledge",
                "--out",
                str(tmp_path / "k.tsv"),
                "--matrix-out",
                str(tmp_path / "m.json"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "knowledge" in result.output

        result = runner.invoke(
            main,
            ["threshold", str(tmp_path / "k.tsv"), "--rule", "cosine", "--min", "0.1", "--out", str(tmp_path / "kp.tsv")],
        )
        assert result.exit_code == 0, result.output

        result = runner.invoke(
            main, ["cluster", "--graph", str(tmp_path / "kp.tsv"), "--out", str(tmp_path / "p.tsv")]
        )
        assert result.exit_code == 0, result.output
        assert "clusters" in result.output

        result = runner.invoke(
            main,
            [
                "project",
                "--matrix",
                str(tmp_path / "m.json"),
                "--partition",
                str(tmp_path / "p.tsv"),
                "--out",
                str(tmp_path / "cg.tsv"),
            ],
        )
        assert result.exit_code == 0, result.output

    def test_metrics_and_export_commands(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        runner.invoke(main, ["ingest", str(corpus_path), "--out", str(tmp_path / "c.jsonl")])
        runner.invoke(
            main,
            ["build", str(tmp_path / "c.jsonl"), "--network", "citation", "--out", str(tmp_path / "f.tsv")],
        )

        result = runner.invoke(main, ["metrics", "--graph", str(tmp_path / "f.tsv"), "--metric", "pagerank"])
        assert result.exit_code == 0, result.output

        result = runner.invoke(main, ["metrics", "--graph", str(tmp_path / "f.tsv"), "--metric", "density"])
        assert result.exit_code == 0

        result = runner.invoke(
            main,
            ["export", str(tmp_path / "f.tsv"), "--format", "graphml", "--out", str(tmp_path / "f.graphml")],
        )
        assert result.exit_code == 0, result.output
        assert load_graph(tmp_path / "f.graphml", "graphml") == load_graph(tmp_path / "f.tsv")

    def test_subgraphs_and_stats_commands(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        runner.invoke(main, ["ingest", str(corpus_path), "--out", str(tmp_path / "c.jsonl")])
        result = runner.invoke(
            main,
            ["subgraphs", str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "profiles.tsv")],
        )
        assert result.exit_code == 0, result.output

        result = runner.invoke(
            main,
            [
                "stats",
                "--profiles",
                str(tmp_path / "profiles.tsv"),
                "--bins",
                "10",
                "--out",
                str(tmp_path / "hist.tsv"),
                "--medians-out",
                str(tmp_path / "med.tsv"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "hist.tsv").read_text().startswith("subgraph\tmetric")

    def test_ingest_source_names_the_corpus(self, tmp_path):
        corpus, _ = planted_group_corpus(groups=2, venues_per_group=2, papers_per_venue=3, seed=13)
        write_dblp(corpus, tmp_path / "c.xml")
        heads = {}
        for source in ("metadata-corpus", "citation-corpus"):
            out = tmp_path / f"{source}.jsonl"
            args = ["ingest", str(tmp_path / "c.xml"), "--format", "dblp-xml", "--source", source, "--out", str(out)]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            heads[source] = out.read_text().splitlines()[0]
        assert heads == {source: json.dumps({"source": source}) for source in heads}

    def test_metrics_no_normalized_writes_raw_betweenness(self, tmp_path):
        (tmp_path / "path.tsv").write_text("# venuenet-graph directed=true\na\tb\t1.0\nb\tc\t1.0\nc\td\t1.0\n")
        values = {}
        for flag in ("--normalized", "--no-normalized"):
            out = tmp_path / f"{flag}.tsv"
            args = ["metrics", "--graph", str(tmp_path / "path.tsv"), "--metric", "betweenness", flag, "--out", str(out)]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            values[flag] = metrics.read_metric_tsv(out, "betweenness")
        # b lies on a->c and a->d, c on a->d and b->d; 4 nodes give (n-1)(n-2) = 6 ordered pairs
        assert values["--no-normalized"] == {"a": 0.0, "b": 2.0, "c": 2.0, "d": 0.0}
        assert values["--normalized"] == {"a": 0.0, "b": 2.0 / 6, "c": 2.0 / 6, "d": 0.0}

    def test_run_cosine_min_overrides_the_threshold(self, tmp_path, planted):
        corpus, _ = planted
        save_corpus(corpus, tmp_path / "fixture.jsonl")
        reduced = {}
        for name, extra in (("default", []), ("raised", ["--cosine-min", "0.7"])):
            out = tmp_path / name
            args = ["run", "--corpus", str(tmp_path / "fixture.jsonl"), "--out-dir", str(out), "--citation-min", "2"]
            result = CliRunner().invoke(main, args + extra)
            assert result.exit_code == 0, result.output
            reduced[name] = load_graph(out / "knowledge.tsv")
        full = load_graph(tmp_path / "raised" / "knowledge_full.tsv")
        assert reduced["raised"] == apply_threshold(full, ThresholdRule("cosine", 0.7))
        assert reduced["default"] == apply_threshold(full, ThresholdRule("cosine", 0.1)) != reduced["raised"]

    def test_stats_on_zero_profiles_writes_headers(self, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        write_profiles({}, profiles)
        hist, med = tmp_path / "hist.tsv", tmp_path / "med.tsv"
        result = CliRunner().invoke(
            main, ["stats", "--profiles", str(profiles), "--out", str(hist), "--medians-out", str(med)]
        )
        assert result.exit_code == 0, result.output
        assert hist.read_text() == "subgraph\tmetric\tvenue_kind\tbin_lo\tbin_hi\tmass\n"
        assert med.read_text() == "subgraph\tmetric\tpagerank_bin\tmedian\n"

    def test_stats_bad_input_exits_1_with_one_error_line(self, tmp_path):
        header = PROFILES_HEADER + "\n"
        short = tmp_path / "short.tsv"
        short.write_text(header + "v1\tjournal\tcitation\t0.1\n")
        one_row = tmp_path / "one.tsv"
        one_row.write_text(header + "v1\tjournal\tcitation\t0.1\t0.2\t0.3\t0.4\t3\t2\tdense\t0.5\n")
        no_rows = tmp_path / "none.tsv"
        no_rows.write_text(header)
        for path, bins, expected in [
            (short, "10", "line 2"),
            (one_row, "0", "histogram_bins must be >= 1, got 0"),
            (no_rows, "0", "histogram_bins must be >= 1, got 0"),
        ]:
            result = CliRunner().invoke(
                main,
                ["stats", "--profiles", str(path), "--bins", bins,
                 "--out", str(tmp_path / "h.tsv"), "--medians-out", str(tmp_path / "m.tsv")],
            )
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit)
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("error: ") and expected in result.stderr

    def test_stats_non_numeric_field_exits_1_naming_the_line(self, tmp_path):
        path = tmp_path / "profiles.tsv"
        path.write_text(PROFILES_HEADER + "\nv1\tjournal\tcitation\tabc\t0.2\t0.3\t0.4\t3\t2\tType1\t0.5\n")
        result = CliRunner().invoke(
            main, ["stats", "--profiles", str(path), "--out", str(tmp_path / "h.tsv"), "--medians-out", str(tmp_path / "m.tsv")]
        )
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith(f"error: {path}: line 2: ") and "'abc'" in result.stderr

    def test_link_thresholds_range_checked(self, tmp_path):
        left, right = tmp_path / "left.jsonl", tmp_path / "right.jsonl"
        left.write_text('{"id": "a1", "title": "Graph mining basics", "authors": ["Ada Lovelace"]}\n')
        right.write_text('{"id": "b1", "title": "Unrelated words entirely", "authors": ["Ada Lovelace"]}\n')
        out = tmp_path / "matches.tsv"
        for jaccard, sw, expected in [
            ("nan", "-5", "jaccard_min must be in [0, 1], got nan"),
            ("0.5", "-5", "sw_min must be in [0, 1], got -5.0"),
            ("1.5", "0.5", "jaccard_min must be in [0, 1], got 1.5"),
            ("0.5", "nan", "sw_min must be in [0, 1], got nan"),
        ]:
            result = CliRunner().invoke(
                main,
                ["link", "--left", str(left), "--right", str(right), "--jaccard-min", jaccard, "--sw-min", sw, "--out", str(out)],
            )
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.stderr == f"error: {expected}\n"
            assert not out.exists()
        result = CliRunner().invoke(main, ["link", "--left", str(left), "--right", str(right), "--out", str(out)])
        assert result.exit_code == 0, result.output

    def test_subgraphs_bad_pagerank_file_exits_1_naming_the_line(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        short = tmp_path / "short.tsv"
        short.write_text("node\tpagerank\ng0v00\t1.5\ng0v01\n")
        wrong = tmp_path / "wrong.tsv"
        wrong.write_text("node\tbetweenness\ng0v00\t0.5\n")
        for path, expected in [
            (tmp_path / "missing.tsv", "missing.tsv"),
            (short, "line 3"),
            (wrong, "line 1"),
        ]:
            result = runner.invoke(
                main, ["subgraphs", str(corpus_path), "--pagerank", str(path), "--out", str(tmp_path / "p.tsv")]
            )
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)  # not an escaped traceback
            assert len(result.stderr.splitlines()) == 1
            assert result.stderr.startswith("error: ") and expected in result.stderr

    def test_malformed_jsonl_exits_1_with_line(self, tmp_path):
        runner = CliRunner()
        for i, bad in enumerate(
            [
                b'{"venue_key": 7}',
                b'{"venue_key": "v", "name": 7, "kind": ["x"]}',
                b'{"id": "p1", "title": "caf\xe9"}',
                b'{"source": 7}',
                b"[" * 100_000,
            ]
        ):
            path = tmp_path / f"bad{i}.jsonl"
            path.write_bytes(b'{"id": "p0", "title": "A", "venue": "v"}\n' + bad + b"\n")
            for args in (
                ["ingest", str(path), "--out", str(tmp_path / "c.jsonl")],
                ["run", "--corpus", str(path), "--out-dir", str(tmp_path / "out")],
            ):
                result = runner.invoke(main, args)
                assert result.exit_code == 1, (bad, args[0], result.output)
                assert isinstance(result.exception, SystemExit)
                assert result.stderr.startswith("error: ") and len(result.stderr.splitlines()) == 1
                assert "malformed entry at line 2" in result.stderr

    def test_run_warns_when_pagerank_does_not_converge(self, tmp_path):
        corpus_path = tmp_path / "cycle.jsonl"  # F: a -> b -> c -> a and a -> c
        corpus_path.write_text(
            '{"id": "p1", "title": "One", "authors": ["A"], "venue": "a", "refs": ["p2"]}\n'
            '{"id": "p2", "title": "Two", "authors": ["B"], "venue": "b", "refs": ["p3"]}\n'
            '{"id": "p3", "title": "Three", "authors": ["C"], "venue": "c", "refs": ["p1"]}\n'
            '{"id": "p4", "title": "Four", "authors": ["A"], "venue": "a", "refs": ["p3"]}\n'
        )
        runner = CliRunner()
        out_dir = tmp_path / "out"
        cfg = PipelineConfig(metadata_corpus=str(corpus_path), out_dir=str(out_dir), citation_min=0.0)
        cfg.save(tmp_path / "config.txt")
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "config.txt")])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

        cfg.pagerank_max_iter = 1
        cfg.save(tmp_path / "config.txt")
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "config.txt")])
        assert result.exit_code == 0, result.output
        assert result.stderr.startswith("warning: pagerank did not converge (residual ")
        assert len(result.stderr.splitlines()) == 1
        # the warning stays out of the manifest: the same config run
        # in-process, where nothing prints it, writes the same bytes
        warned = (out_dir / "manifest.json").read_bytes()
        manifest = run_pipeline(cfg)
        assert manifest.warnings == [result.stderr.removeprefix("warning: ").rstrip("\n")]
        assert (out_dir / "manifest.json").read_bytes() == warned

    def test_slice_command(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        result = runner.invoke(
            main, ["slice", str(corpus_path), "--year", "1995", "--out", str(tmp_path / "s.jsonl")]
        )
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("bad", ["v\t1", "v\n1", "v\r1", "\x01", "v\x1f", "v\x85", "v\u2028", "v\u2029", "\ud800", "v\udfff", "v\ufffe", "v\uffff"])
    def test_ids_and_venue_keys_the_artifacts_cannot_carry_exit_1(self, tmp_path, bad):
        runner = CliRunner()
        good = tmp_path / "good.jsonl"
        good.write_text('{"id": "p0", "title": "A", "venue": "v", "refs": ["x"]}\n')
        for field in ("id", "venue"):
            record = {"id": "p1", "title": "B", "venue": "w", "refs": ["x"], field: bad}
            path = tmp_path / f"bad-{field}.jsonl"
            path.write_text(good.read_text() + json.dumps(record) + "\n")  # ASCII: json escapes every such character
            for args in (
                ["ingest", str(path), "--out", str(tmp_path / "c.jsonl")],
                ["run", "--corpus", str(path), "--out-dir", str(tmp_path / "out")],
                ["run", "--left", str(good), "--right", str(path), "--out-dir", str(tmp_path / "out2")],
            ):
                result = runner.invoke(main, args)
                assert result.exit_code == 1, (args[0], result.output)
                assert isinstance(result.exception, SystemExit)
                lines = result.stderr.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
                assert f"record 2 (id {record['id']!r})" in lines[0] and repr(bad) in lines[0], lines[0]
        assert not (tmp_path / "c.jsonl").exists()

    def test_venue_key_with_a_leading_hash_exits_1(self, tmp_path):
        # the edge TSV reader would take its rows for comments
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p0", "title": "A", "venue": "y", "refs": ["x"]}\n'
                        '{"id": "p1", "title": "B", "venue": "#x", "refs": ["x"]}\n')
        for args in (
            ["ingest", str(path), "--out", str(tmp_path / "c2.jsonl")],
            ["build", str(path), "--network", "knowledge", "--out", str(tmp_path / "k.tsv")],
            ["run", "--corpus", str(path), "--out-dir", str(tmp_path / "out")],
        ):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 1, (args[0], result.output)
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("error: ") and "record 2 (id 'p1')" in result.stderr, result.stderr
            assert "'#x' starts with '#'" in result.stderr
        assert not (tmp_path / "k.tsv").exists()

    def test_export_refuses_names_edge_tsv_cannot_carry(self, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text('{"format": "venuenet-graph/1", "directed": false, "nodes": [["\\ud800", {}], ["b", {}]], '
                         '"edges": [["\\ud800", "b", 1.0]]}')
        out = tmp_path / "g.tsv"
        result = CliRunner().invoke(main, ["export", str(graph), "--in-format", "json", "--format", "edge-tsv", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: node '\\ud800'") and len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_export_refuses_text_xml_cannot_carry(self, tmp_path):
        graph = tmp_path / "g.tsv"
        graph.write_text("# venuenet-graph directed=false\na\x01\tb\t1.0\n")
        out = tmp_path / "g.graphml"
        result = CliRunner().invoke(main, ["export", str(graph), "--format", "graphml", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: node 'a\\x01'") and len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_run_command_and_exit_codes(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        result = runner.invoke(
            main,
            ["run", "--corpus", str(corpus_path), "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "manifest.json").is_file()

        # input error: missing corpus -> 1
        result = runner.invoke(main, ["run", "--corpus", str(tmp_path / "nope.jsonl")])
        assert result.exit_code == 1

        # input error: malformed corpus via ingest -> 1
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{nope\n")
        result = runner.invoke(main, ["ingest", str(broken), "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 1

        # pagerank on an undirected graph is an input error -> 1
        runner.invoke(main, ["ingest", str(corpus_path), "--out", str(tmp_path / "c.jsonl")])
        runner.invoke(
            main,
            ["build", str(tmp_path / "c.jsonl"), "--network", "knowledge", "--out", str(tmp_path / "k.tsv")],
        )
        result = runner.invoke(main, ["metrics", "--graph", str(tmp_path / "k.tsv"), "--metric", "pagerank"])
        assert result.exit_code == 1

    def test_nan_thresholds_exit_1_naming_the_value(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        graph_path, out = tmp_path / "k.tsv", tmp_path / "out.tsv"
        runner.invoke(main, ["build", str(corpus_path), "--network", "knowledge", "--out", str(graph_path)])
        for args in (
            ["threshold", str(graph_path), "--rule", "cosine", "--min", "nan", "--out", str(out)],
            ["threshold", str(graph_path), "--rule", "citation", "--min", "nan", "--out", str(out)],
        ):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert isinstance(result.exception, SystemExit)
            assert result.stderr == "error: threshold value must be a number, got nan\n"
            assert not out.exists()
        cfg = PipelineConfig(metadata_corpus=str(corpus_path), out_dir=str(tmp_path / "run"), citation_min=float("nan"))
        cfg.save(tmp_path / "cfg.txt")
        result = runner.invoke(main, ["run", "--config", str(tmp_path / "cfg.txt")])
        assert result.exit_code == 1
        assert result.stderr == "error: citation_min must be >= 0, got nan\n"
        assert not (tmp_path / "run").exists()

    @staticmethod
    def _collections_during(stage, cfg, monkeypatch):
        """The generations of the collections that start from `stage` until
        the next stage begins, where the run stops, or until the run returns
        after its last stage."""
        import gc

        collections = []

        def hook(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        order = [*STAGES, "snapshots"] if cfg.slice_years else list(STAGES)
        func = pipeline._STAGE_FUNCS[stage]
        after = None if stage == order[-1] else order[order.index(stage) + 1]

        def watched(run):
            gc.callbacks.append(hook)
            func(run)

        def stop(run):  # the window ends here: a collection set off by `stage` comes before the next stage
            gc.callbacks.remove(hook)
            raise RuntimeError("stop")

        monkeypatch.setitem(pipeline._STAGE_FUNCS, stage, watched)
        if after is not None:
            monkeypatch.setitem(pipeline._STAGE_FUNCS, after, stop)
        was = gc.isenabled()
        gc.enable()
        try:
            if after is None:
                run_pipeline(cfg)
            else:
                with pytest.raises(StageError) as info:
                    run_pipeline(cfg)
                assert info.value.stage == after
        finally:
            if hook in gc.callbacks:
                gc.callbacks.remove(hook)
            if not was:
                gc.disable()
        return collections

    def test_ingest_runs_no_collection(self, tmp_path, monkeypatch):
        corpus = tmp_path / "c.jsonl"
        save_corpus(scale_corpus(venues=20, papers_per_venue=20, seed=3), corpus)
        cfg = PipelineConfig(metadata_corpus=str(corpus), out_dir=str(tmp_path / "out"))
        assert self._collections_during("ingest", cfg, monkeypatch) == []

    def test_link_runs_no_collection(self, tmp_path, monkeypatch):
        meta, cite = split_for_linkage(scale_corpus(venues=20, papers_per_venue=20, seed=3))
        save_corpus(meta, tmp_path / "meta.jsonl")
        save_corpus(cite, tmp_path / "cite.jsonl")
        cfg = PipelineConfig(metadata_corpus=str(tmp_path / "meta.jsonl"), citation_corpus=str(tmp_path / "cite.jsonl"),
                             out_dir=str(tmp_path / "out"))
        assert self._collections_during("link", cfg, monkeypatch) == []

    @pytest.mark.parametrize("stage", [*STAGES[2:], "snapshots"])
    def test_later_stages_run_no_collection(self, tmp_path, monkeypatch, stage):
        corpus = tmp_path / "c.jsonl"
        save_corpus(scale_corpus(venues=20, papers_per_venue=20, seed=3), corpus)
        cfg = PipelineConfig(metadata_corpus=str(corpus), slice_years=(1995,), out_dir=str(tmp_path / "out"))
        assert self._collections_during(stage, cfg, monkeypatch) == []

    def test_run_leaves_the_freeze_count_as_it_found_it(self, tmp_path):
        import gc

        cfg = PipelineConfig(metadata_corpus=str(self._write_fixture(tmp_path)), out_dir=str(tmp_path / "out"))
        gc.freeze()
        try:
            run_pipeline(cfg)  # first, so that any frozen object the run releases is gone before the count
            frozen = gc.get_freeze_count()
            assert frozen > 0
            run_pipeline(cfg)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_collector_as_it_found_it(self, tmp_path, monkeypatch, enabled):
        import gc

        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"id": "p1"}\n{nope\n')
        good = PipelineConfig(metadata_corpus=str(self._write_fixture(tmp_path)), out_dir=str(tmp_path / "good"))
        bad = PipelineConfig(metadata_corpus=str(broken), out_dir=str(tmp_path / "bad"))
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            run_pipeline(good)
            assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
            with pytest.raises(StageError) as info:
                run_pipeline(bad)
            assert info.value.stage == "ingest"
            assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
            monkeypatch.setitem(pipeline._STAGE_FUNCS, "metrics", lambda run: 1 / 0)
            with pytest.raises(StageError) as info:
                run_pipeline(good)
            assert info.value.stage == "metrics"
            assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
        finally:
            gc.enable() if was else gc.disable()

    def test_main_freezes_nothing_and_entry_freezes_at_exit(self, tmp_path, monkeypatch):
        import gc

        from venuenet.cli import entry

        result = CliRunner().invoke(main, ["run", "--corpus", str(self._write_fixture(tmp_path)), "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(sys, "argv", ["venuenet", "--help"])
        try:
            with pytest.raises(SystemExit) as info:
                entry()
            assert info.value.code == 0
            assert gc.get_freeze_count() > 0  # the process exits without walking them
        finally:
            gc.unfreeze()

    def test_ingest_dblp_xml(self, tmp_path):
        xml = (
            '<?xml version="1.0"?><dblp>'
            '<article key="journals/cacm/A1"><author>Ann Author</author>'
            "<title>On Things.</title><year>1999</year><journal>CACM</journal></article>"
            '<inproceedings key="conf/vldb/B2"><author>Bob Builder</author>'
            "<title>Of Stuff.</title><year>2001</year><booktitle>VLDB</booktitle></inproceedings>"
            "</dblp>"
        )
        xml_path = tmp_path / "dblp.xml"
        xml_path.write_text(xml)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["ingest", str(xml_path), "--format", "dblp-xml", "--out", str(tmp_path / "c.jsonl")],
        )
        assert result.exit_code == 0, result.output
        assert "2 records" in result.output

    def test_cluster_domain_composition_output(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        runner.invoke(main, ["ingest", str(corpus_path), "--out", str(tmp_path / "c.jsonl")])
        runner.invoke(
            main,
            ["build", str(tmp_path / "c.jsonl"), "--network", "knowledge", "--out", str(tmp_path / "k.tsv")],
        )
        domains = tmp_path / "domains.tsv"
        domains.write_text("g0v00\tDatabases\ng0v01\tDatabases\n")
        result = runner.invoke(
            main,
            [
                "cluster",
                "--graph",
                str(tmp_path / "k.tsv"),
                "--out",
                str(tmp_path / "p.tsv"),
                "--domains",
                str(domains),
                "--composition-out",
                str(tmp_path / "comp.tsv"),
            ],
        )
        assert result.exit_code == 0, result.output
        text = (tmp_path / "comp.tsv").read_text()
        assert text.startswith("cluster_id\tdomain\tvenues")
        assert "Databases" in text

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--d", "1.5", "damping factor"),
            ("--d", "nan", "damping factor"),
            ("--tol", "0", "tolerance"),
            ("--tol", "nan", "tolerance"),
            ("--max-iter", "0", "max_iter"),
            ("--max-iter", "-3", "max_iter"),
        ],
    )
    def test_pagerank_bad_parameters_exit_1(self, tmp_path, option, value, message):
        graph = tmp_path / "f.tsv"
        graph.write_text("# venuenet-graph directed=true\na\tb\t1.0\n")
        out = tmp_path / "pagerank.tsv"
        args = ["metrics", "--graph", str(graph), "--metric", "pagerank", option, value, "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and message in result.stderr and len(result.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "options, refused",
        [
            (["--metric", "pagerank", "--no-normalized", "--weighted"], "--normalized/--no-normalized"),
            (["--metric", "density", "--no-normalized", "--d", "0.5"], "--d"),
            (["--metric", "betweenness", "--max-iter", "5"], "--max-iter"),
            (["--metric", "lcc", "--unweighted"], "--weighted/--unweighted"),
            (["--metric", "clustering", "--out", "x.tsv"], "--out"),
        ],
    )
    def test_metrics_refuses_options_its_metric_does_not_read(self, tmp_path, options, refused):
        graph = tmp_path / "f.tsv"
        graph.write_text("# venuenet-graph directed=true\na\tb\t1.0\n")
        result = CliRunner().invoke(main, ["metrics", "--graph", str(graph), *options])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {refused} does not apply to --metric {options[1]}\n"

    def test_build_refuses_matrix_out_for_citation(self, tmp_path):
        corpus, matrix = tmp_path / "c.jsonl", tmp_path / "m.json"
        corpus.write_text(CORPUS_OK)
        args = ["build", str(corpus), "--network", "citation", "--matrix-out", str(matrix), "--out", str(tmp_path / "f.tsv")]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == "error: --matrix-out does not apply to --network citation\n"
        assert not matrix.exists() and not (tmp_path / "f.tsv").exists()

    def test_cluster_domains_errors_exit_1(self, tmp_path):
        graph = tmp_path / "k.tsv"
        graph.write_text("# venuenet-graph directed=false\na\tb\t1.0\n")
        domains = tmp_path / "domains.tsv"
        domains.write_bytes(b"a\tDatabases\nb\tArt\xff\n")
        args = ["cluster", "--graph", str(graph), "--out", str(tmp_path / "p.tsv"), "--domains", str(domains)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.stderr == "error: --domains is only read with --composition-out\n"
        result = CliRunner().invoke(main, args + ["--composition-out", str(tmp_path / "comp.tsv")])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {domains}: line 2: invalid UTF-8 at byte 17\n"
        assert not (tmp_path / "p.tsv").exists() and not (tmp_path / "comp.tsv").exists()

    def test_run_with_config_file(self, tmp_path):
        runner = CliRunner()
        corpus_path = self._write_fixture(tmp_path)
        cfg = PipelineConfig(
            metadata_corpus=str(corpus_path),
            out_dir=str(tmp_path / "out"),
            citation_min=2.0,
        )
        cfg_path = tmp_path / "cfg.txt"
        cfg.save(cfg_path)
        result = runner.invoke(main, ["run", "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert "pipeline complete" in result.output


TSV_HEADER = "# venuenet-graph directed=false\n"
TSV_DIRECTED = "# venuenet-graph directed=true\n"
GRAPHML_HEAD = '<graphml xmlns="http://graphml.graphdrawing.org/xmlns"><graph edgedefault="undirected">'
GRAPHML_TAIL = "</graph></graphml>"
PARTITION_OK = "venue_key\tcluster_id\nv1\tv1\n"
MATRIX_OK = '{"venues": ["v1"], "vectors": {"v1": {"k": 1}}}'
PROFILE_OK = "v1\tjournal\tcitation\t0.1\t0.2\t0.3\t0.4\t3\t2\tType1\t0.5\n"
CORPUS_OK = '{"id": "p1", "title": "T", "venue": "v1"}\n'


def profile_with(column: str, value: str) -> str:
    """A profiles table whose second row, on line 3, holds `value` in `column`."""
    fields = PROFILE_OK.replace("v1", "v2").rstrip("\n").split("\t")
    fields[PROFILES_HEADER.split("\t").index(column)] = value
    return PROFILES_HEADER + "\n" + PROFILE_OK + "\t".join(fields) + "\n"


# (case, command, {file name: content}, the file and position the error must name)
READER_CASES = [
    ("tsv-deep-node-attrs", "threshold", {"g.tsv": TSV_HEADER + "#node\tv1\t" + "[" * 100_000 + "\n"}, "g.tsv", "line 2"),
    ("tsv-non-object-node-attrs", "threshold", {"g.tsv": TSV_HEADER + "#node\tv1\t[1]\n"}, "g.tsv", "line 2"),
    ("tsv-self-loop", "threshold", {"g.tsv": TSV_HEADER + "a\tb\t1.0\na\ta\t1.0\n"}, "g.tsv", "line 3"),
    ("tsv-negative-weight", "threshold", {"g.tsv": TSV_HEADER + "a\tb\t-1\n"}, "g.tsv", "line 2"),
    ("tsv-nan-weight", "threshold", {"g.tsv": TSV_HEADER + "a\tb\tnan\n"}, "g.tsv", "line 2"),
    ("tsv-short-row", "threshold", {"g.tsv": TSV_HEADER + "a\tb\n"}, "g.tsv", "line 2"),
    # an infinite weight would make Q NaN: each reader refuses it, naming the line or edge
    ("tsv-inf-weight", "threshold", {"g.tsv": TSV_HEADER + "a\tb\tinf\nb\tc\t1.0\n"}, "g.tsv", "line 2: edge weight must be finite"),
    ("tsv-inf-weight-cluster", "cluster", {"g.tsv": TSV_HEADER + "b\tc\t1.0\na\tb\tinf\n"}, "g.tsv", "line 3: edge weight must be finite"),
    ("json-graph-inf-weight", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": false, "nodes": [], "edges": [["a", "b", Infinity]]}'},
     "g.json", "edge 'a' -> 'b': edge weight must be finite"),
    ("graphml-inf-weight", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("<graph ", '<key id="d0" for="edge" attr.name="weight" attr.type="double"/><graph ')
      + '<edge source="a" target="b"><data key="d0">-inf</data></edge>' + GRAPHML_TAIL}, "g.graphml", "edge 'a' -> 'b': edge weight must be finite"),
    # finite weights whose sum is not (Q would be NaN), or whose 2m^2 is not (every gain would be NaN)
    ("tsv-weights-past-float-range", "cluster", {"g.tsv": TSV_HEADER + "a\tb\t1e308\nb\tc\t1e308\n"}, "g.tsv", "past the float range"),
    ("tsv-weights-squared-past-float-range", "cluster", {"g.tsv": TSV_HEADER + "a\tb\t1e200\nb\tc\t1e200\n"}, "g.tsv",
     "sum to 2e+200, past the float range of 2m^2"),
    # node names the edge-TSV writer refuses: a row starting with '#' is a comment
    ("tsv-hash-target", "threshold", {"g.tsv": TSV_HEADER + "a\tb\t1.0\na\t#b\t1.0\n"}, "g.tsv", "line 3: node '#b'"),
    ("tsv-hash-node-line", "threshold", {"g.tsv": TSV_HEADER + "#node\t#x\t{}\n"}, "g.tsv", "line 2: node '#x'"),
    # each node and edge once, both directions of an undirected edge one edge: a repeat is a damaged file
    ("tsv-undirected-edge-both-ways", "threshold", {"g.tsv": TSV_HEADER + "a\tb\t1.0\nb\ta\t2.0\n"}, "g.tsv",
     "line 3: repeats line 2"),
    ("tsv-directed-edge-twice", "threshold-citation", {"g.tsv": TSV_DIRECTED + "a\tb\t1.0\na\tb\t5.0\n"}, "g.tsv",
     "line 3: repeats line 2"),
    ("tsv-node-line-twice", "threshold",
     {"g.tsv": TSV_HEADER + '#node\ta\t{"x": 1}\na\tb\t1.0\n#node\ta\t{"x": 2}\n'}, "g.tsv", "line 4: repeats line 2"),
    ("json-graph-node-twice", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": false, "nodes": [["a", {"x": 1}], ["a", {"y": 2}]], "edges": []}'},
     "g.json", "node 'a': repeats node 'a'"),
    ("json-graph-edge-both-ways", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": false, "nodes": [], "edges": [["a", "b", 1.0], ["b", "a", 3.0]]}'},
     "g.json", "edge 'b' -> 'a': repeats edge 'a' -> 'b'"),
    ("graphml-node-twice", "export-graphml", {"g.graphml": GRAPHML_HEAD + '<node id="a"/><node id="a"/>' + GRAPHML_TAIL},
     "g.graphml", "node 'a': repeats node 'a'"),
    ("graphml-edge-twice", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("<graph ", '<key id="d0" for="edge" attr.name="weight" attr.type="double"/><graph ')
      + '<edge source="a" target="b"><data key="d0">1.0</data></edge>'
      + '<edge source="b" target="a"><data key="d0">2.0</data></edge>' + GRAPHML_TAIL},
     "g.graphml", "edge 'b' -> 'a': repeats edge 'a' -> 'b'"),
    ("graphml-node-data-twice", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("<graph ", '<key id="d0" for="node" attr.name="n" attr.type="long"/><graph ')
      + '<node id="a"><data key="d0">1</data><data key="d0">2</data></node>' + GRAPHML_TAIL},
     "g.graphml", "node 'a': attribute 'n' is given twice"),
    ("graphml-edge-weight-twice", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("<graph ", '<key id="d0" for="edge" attr.name="weight" attr.type="double"/><graph ')
      + '<edge source="a" target="b"><data key="d0">1.0</data><data key="d0">5.0</data></edge>' + GRAPHML_TAIL},
     "g.graphml", "edge 'a' -> 'b': attribute 'weight' is given twice"),
    # a key id declared twice, an object key given twice, a boolean weight: each read one way before
    ("graphml-key-id-twice", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("<graph ", '<key id="d0" for="node" attr.name="x" attr.type="long"/>'
                                        '<key id="d0" for="node" attr.name="y" attr.type="string"/><graph ')
      + '<node id="a"><data key="d0">1</data></node>' + GRAPHML_TAIL}, "g.graphml", "<key id='d0'>: the id is declared twice"),
    ("json-graph-directed-twice", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": true, "directed": false, "nodes": [], "edges": []}'},
     "g.json", "key 'directed' is given twice"),
    ("json-graph-bool-weight", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": false, "nodes": [], "edges": [["a", "b", true]]}'},
     "g.json", "edge 'a' -> 'b': weight must be a number, got true"),
    # the direction is read from exactly one field, and only its two values are taken
    ("tsv-header-directed-yes", "threshold", {"g.tsv": "# venuenet-graph directed=yes\na\tb\t1.0\n"}, "g.tsv",
     "line 1: the header must be"),
    ("tsv-header-directed-twice", "threshold-citation",
     {"g.tsv": "# venuenet-graph directed=true directed=false\na\tb\t1.0\n"}, "g.tsv", "line 1: the header must be"),
    ("json-graph-directed-missing", "export", {"g.json": '{"format": "venuenet-graph/1", "nodes": [], "edges": []}'},
     "g.json", "'directed' must be true or false, got None"),
    ("json-graph-directed-string", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": "true", "nodes": [], "edges": []}'},
     "g.json", "'directed' must be true or false, got 'true'"),
    ("graphml-edgedefault-capitalized", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("undirected", "Directed") + GRAPHML_TAIL},
     "g.graphml", "<graph edgedefault='Directed'>: must be 'directed' or 'undirected'"),
    ("graphml-edgedefault-missing", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace(' edgedefault="undirected"', "") + GRAPHML_TAIL},
     "g.graphml", "<graph edgedefault=None>: must be 'directed' or 'undirected'"),
    ("json-graph-nodes-not-a-list", "export",
     {"g.json": '{"format": "venuenet-graph/1", "directed": false, "nodes": 5, "edges": []}'}, "g.json", "'nodes'"),
    ("matrix-deep", "project", {"m.json": "[" * 100_000, "p.tsv": PARTITION_OK}, "m.json", "nested too deeply"),
    ("matrix-venues-not-a-list", "project",
     {"m.json": '{"venues": 5, "vectors": {}}', "p.tsv": PARTITION_OK}, "m.json", "'venues'"),
    ("matrix-top-level-list", "project", {"m.json": "[1, 2]", "p.tsv": PARTITION_OK}, "m.json", "JSON object"),
    ("matrix-empty-object", "project", {"m.json": "{}", "p.tsv": PARTITION_OK}, "m.json", "'venues'"),
    ("matrix-invalid-json", "project", {"m.json": '{"venues": [}', "p.tsv": PARTITION_OK}, "m.json", "line 1"),
    ("matrix-negative-counts", "project",
     {"m.json": '{"venues": ["a", "b"], "vectors": {"a": {"x": -1}, "b": {"x": -1}}, "publication_counts": {"a": -3}}',
      "p.tsv": "venue_key\tcluster_id\na\ta\n"}, "m.json", "venue 'a'"),
    ("matrix-zero-count", "project",
     {"m.json": '{"venues": ["v1", "v2"], "vectors": {"v1": {"k": 1}, "v2": {"k": 0}}}', "p.tsv": PARTITION_OK},
     "m.json", "venue 'v2'"),
    ("matrix-vector-of-no-venue", "project",
     {"m.json": '{"venues": ["v1"], "vectors": {"v1": {"k": 1}, "v2": {"k": 1}}}', "p.tsv": PARTITION_OK},
     "m.json", "vector of 'v2' names no venue"),
    ("matrix-negative-publication-count", "project",
     {"m.json": MATRIX_OK[:-1] + ', "publication_counts": {"v1": -1}}', "p.tsv": PARTITION_OK}, "m.json", "venue 'v1'"),
    ("partition-short-row", "project", {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "v2\n"}, "p.tsv", "line 3"),
    # cluster ids the cluster graph cannot carry: an edge TSV comment, a control character
    ("partition-cluster-id-hash", "project",
     {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "v2\t#x\n"}, "p.tsv", "line 3: cluster id '#x' starts with '#'"),
    ("partition-cluster-id-control", "project",
     {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "v2\tc\x01\n"}, "p.tsv", "line 3: cluster id 'c\\x01' holds"),
    # each venue once, with a non-empty key and cluster id: the last row no longer silently wins
    ("partition-repeated-venue", "project",
     {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "v1\tv2\n"}, "p.tsv", "line 3: venue_key 'v1' repeats line 2"),
    ("partition-empty-cluster-id", "project", {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "v2\t\n"}, "p.tsv", "line 3: empty cluster_id"),
    ("partition-empty-venue-key", "project", {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "\tv1\n"}, "p.tsv", "line 3: empty venue_key"),
    # venue names the artifacts cannot carry: the reader refuses them by the corpora's name rule
    ("matrix-venue-tab", "project", {"m.json": '{"venues": ["a\\tb"], "vectors": {"a\\tb": {"k": 1}}}', "p.tsv": PARTITION_OK},
     "m.json", "coupling matrix venue 'a\\tb' holds '\\t'"),
    ("matrix-venue-line-separator", "project",
     {"m.json": '{"venues": ["a\\u2028"], "vectors": {"a\\u2028": {"k": 1}}}', "p.tsv": PARTITION_OK},
     "m.json", "coupling matrix venue 'a\\u2028' holds '\\u2028'"),
    ("partition-venue-key-line-separator", "project",
     {"m.json": MATRIX_OK, "p.tsv": PARTITION_OK + "v\u2028\tv1\n"}, "p.tsv", "line 3: venue key 'v\\u2028' holds"),
    # the domains table: two fields a line, each venue once, LF line ends
    ("domains-no-tab", "cluster-domains", {"g.tsv": TSV_HEADER + "a\tb\t1.0\n", "d.tsv": "a\tDatabases\nb Art\n"},
     "d.tsv", "line 2: expected 2 tab-separated fields, got 1"),
    ("domains-three-fields", "cluster-domains", {"g.tsv": TSV_HEADER + "a\tb\t1.0\n", "d.tsv": "a\tDatabases\nb\tArt\tx\n"},
     "d.tsv", "line 2: expected 2 tab-separated fields, got 3"),
    ("domains-repeated-venue", "cluster-domains", {"g.tsv": TSV_HEADER + "a\tb\t1.0\n", "d.tsv": "a\tDatabases\na\tArt\n"},
     "d.tsv", "line 2: venue_key 'a' repeats line 1"),
    ("domains-crlf", "cluster-domains",
     {"g.tsv": TSV_HEADER + "a\tb\t1.0\n", "d.tsv": "a\tDatabases\r\nb\tArt\r\n"}, "d.tsv", "line 1: domain 'Databases\\r' holds '\\r'"),
    ("matches-missing-file", "attach", {"c.jsonl": '{"id": "p1", "title": "T"}\n'}, "m.tsv", "No such file"),
    ("matches-two-field-row", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\na\tb\n"}, "m.tsv", "line 2"),
    ("matches-nan-jaccard", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\na\tb\tnan\t1.0\n"}, "m.tsv",
     "line 2: not a finite number: 'nan'"),
    ("matches-inf-sw-similarity", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\na\tb\t1.0\t1.0\nc\td\t1.0\tinf\n"}, "m.tsv",
     "line 3: not a finite number: 'inf'"),
    ("matches-repeated-left-id", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\na\tb\t1.0\t1.0\na\tc\t1.0\t1.0\n"}, "m.tsv",
     "line 3: left_id 'a' repeats line 2"),
    # link writes a right id in every row and both scores in [0, 1]
    ("matches-empty-right-id", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\np2\t\t1.0\t1.0\n"}, "m.tsv",
     "line 2: empty right_id"),
    ("matches-jaccard-above-1", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\na\tb\t1.0\t1.0\nc\td\t2.5\t1.0\n"}, "m.tsv",
     "line 3: jaccard '2.5' is outside [0, 1]"),
    ("matches-sw-similarity-below-0", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\na\tb\t1.0\t-7.0\n"}, "m.tsv",
     "line 2: sw_similarity '-7.0' is outside [0, 1]"),
    # link writes only ids of the two corpora it read: attach refuses an id that names no record of its corpus
    ("matches-unknown-left-id", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\np1\tp1\t1.0\t1.0\np9\tp1\t1.0\t1.0\n"}, "m.tsv",
     "left_id 'p9' names no record of"),
    ("matches-unknown-right-id", "attach",
     {"c.jsonl": '{"id": "p1", "title": "T"}\n', "m.tsv": MATCHES_HEADER + "\np1\tp9\t1.0\t1.0\n"}, "m.tsv",
     "right_id 'p9' names no record of"),
    ("graphml-truncated", "export-graphml", {"g.graphml": "<graphml"}, "g.graphml", "line 1, column 0"),
    ("graphml-undeclared-data-key", "export-graphml",
     {"g.graphml": GRAPHML_HEAD + '<node id="a"><data key="d9">x</data></node>' + GRAPHML_TAIL}, "g.graphml", "node 'a'"),
    ("graphml-non-utf8", "export-graphml",
     {"g.graphml": (GRAPHML_HEAD + "\n<node id='a'/>").encode() + b"\xff" + GRAPHML_TAIL.encode()}, "g.graphml", "line 2"),
    ("graphml-long-holds-text", "export-graphml",
     {"g.graphml": GRAPHML_HEAD.replace("<graph ", '<key id="d0" for="node" attr.name="n" attr.type="long"/><graph ')
      + '<node id="a"><data key="d0">x</data></node>' + GRAPHML_TAIL}, "g.graphml", "node 'a'"),
    # byte 0xff on line 3 of each graph and matrix format: the one decoder names the file, line and byte
    ("tsv-non-utf8", "threshold",
     {"g.tsv": (TSV_HEADER + "a\tb\t1.0\nb\t").encode() + b"\xff\t1.0\n"}, "g.tsv", "line 3: invalid UTF-8 at byte 42"),
    ("graphml-non-utf8-line-3", "export-graphml",
     {"g.graphml": (GRAPHML_HEAD + "\n<node id='a'/>\n<node id='").encode() + b"\xff'/>" + GRAPHML_TAIL.encode()},
     "g.graphml", "line 3: invalid UTF-8 at byte 113"),
    ("json-graph-non-utf8", "export",
     {"g.json": b'{"format": "venuenet-graph/1",\n"directed": false,\n"nodes": [["\xff", {}]], "edges": []}'},
     "g.json", "line 3: invalid UTF-8 at byte 62"),
    ("matrix-non-utf8", "project",
     {"m.json": b'{"venues": ["v1"],\n"vectors": {"v1": {"k": 1}},\n"publication_counts": {"\xff": 0}}',
      "p.tsv": PARTITION_OK}, "m.json", "line 3: invalid UTF-8 at byte 72"),
    ("profiles-wrong-header", "stats", {"p.tsv": "venue\tkind\n" + PROFILE_OK}, "p.tsv", "line 1"),
    # a NaN or infinite value would silently empty a histogram bin or make a PageRank bin
    ("profiles-nan-metric", "stats",
     {"p.tsv": PROFILES_HEADER + "\n" + PROFILE_OK.replace("0.2", "nan")}, "p.tsv", "line 2: not a finite number: 'nan'"),
    ("profiles-inf-pagerank", "stats",
     {"p.tsv": PROFILES_HEADER + "\n" + PROFILE_OK + PROFILE_OK.replace("0.5", "inf")}, "p.tsv", "line 3: not a finite"),
    ("profiles-repeated-pair", "stats", {"p.tsv": PROFILES_HEADER + "\n" + PROFILE_OK + PROFILE_OK}, "p.tsv",
     "line 3: subgraph 'citation', venue 'v1' repeats line 2"),
    # values write_profiles never writes: each would be counted into a histogram or a median
    *[(f"profiles-{column}-{value}", "stats", {"p.tsv": profile_with(column, value)}, "p.tsv", f"line 3: {message}")
      for column, value, message in [
          ("kind", "banana", "kind must be one of journal, conference, unknown, got 'banana'"),
          ("subgraph", "foo", "subgraph must be one of coauthorship, citation, got 'foo'"),
          ("type", "Type5", "type must be one of Type1, Type2, Type3, Type4, got 'Type5'"),
          ("nodes", "-1", "nodes '-1' is below 0"),
          ("edges", "-2", "edges '-2' is below 0"),
          ("m1_density", "1.5", "m1_density '1.5' is outside [0, 1]"),
          ("m2_avg_clustering", "7.0", "m2_avg_clustering '7.0' is outside [0, 1]"),
          ("m3_max_betweenness", "-0.1", "m3_max_betweenness '-0.1' is outside [0, 1]"),
          ("m4_lcc_fraction", "1.0000001", "m4_lcc_fraction '1.0000001' is outside [0, 1]"),
      ]],
    ("pagerank-wrong-header", "subgraphs", {"c.jsonl": CORPUS_OK, "r.tsv": "node\tbetweenness\nv1\t0.5\n"}, "r.tsv", "line 1"),
    ("pagerank-nan", "subgraphs", {"c.jsonl": CORPUS_OK, "r.tsv": "node\tpagerank\nv1\tnan\n"}, "r.tsv", "line 2"),
    ("pagerank-inf", "subgraphs",
     {"c.jsonl": CORPUS_OK, "r.tsv": "node\tpagerank\nv1\t0.5\nv2\t-Infinity\n"}, "r.tsv", "line 3"),
    ("pagerank-repeated-node", "subgraphs",
     {"c.jsonl": CORPUS_OK, "r.tsv": "node\tpagerank\nv1\t0.5\nv1\t0.7\n"}, "r.tsv", "line 3: node 'v1' repeats line 2"),
]
READER_ARGS = {
    "threshold": ["threshold", "{g.tsv}", "--rule", "cosine", "--out", "{out.tsv}"],
    "threshold-citation": ["threshold", "{g.tsv}", "--rule", "citation", "--min", "3", "--out", "{out.tsv}"],
    "cluster": ["cluster", "--graph", "{g.tsv}", "--out", "{out.tsv}"],
    "cluster-domains": ["cluster", "--graph", "{g.tsv}", "--out", "{out.tsv}", "--domains", "{d.tsv}",
                        "--composition-out", "{comp.tsv}"],
    "export": ["export", "{g.json}", "--in-format", "json", "--format", "edge-tsv", "--out", "{out.tsv}"],
    "project": ["project", "--matrix", "{m.json}", "--partition", "{p.tsv}", "--out", "{out.tsv}"],
    "attach": ["attach", "--left", "{c.jsonl}", "--right", "{c.jsonl}", "--matches", "{m.tsv}", "--out", "{out.tsv}"],
    "export-graphml": ["export", "{g.graphml}", "--in-format", "graphml", "--format", "json", "--out", "{out.tsv}"],
    "stats": ["stats", "--profiles", "{p.tsv}", "--out", "{out.tsv}", "--medians-out", "{medians.tsv}"],
    "subgraphs": ["subgraphs", "{c.jsonl}", "--pagerank", "{r.tsv}", "--out", "{out.tsv}"],
}


@pytest.mark.parametrize("case, command, files, bad_file, position", READER_CASES, ids=[c[0] for c in READER_CASES])
def test_stage_readers_exit_1_naming_file_and_position(tmp_path, case, command, files, bad_file, position):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    args = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in READER_ARGS[command]]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # not an escaped traceback
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert str(tmp_path / bad_file) in lines[0] and position in lines[0], lines[0]
    assert not (tmp_path / "out.tsv").exists()


# Each command with an output option, its inputs well formed and its output
# {out}, a path below an existing file, which no command can write. `metrics
# --out` of a scalar metric is refused before that, as it would write nothing.
WRITER_FILES = {
    "c.jsonl": '{"id": "p1", "title": "T", "authors": ["Ann Lee"], "venue": "v1", "year": 1999}\n',
    "g.tsv": TSV_HEADER + "a\tb\t1.0\n",
    "f.tsv": "# venuenet-graph directed=true\na\tb\t1.0\n",
    "m.json": MATRIX_OK,
    "p.tsv": PARTITION_OK,
    "profiles.tsv": PROFILES_HEADER + "\n" + PROFILE_OK,
    "matches.tsv": MATCHES_HEADER + "\n",
    "file": "",
}
WRITER_ARGS = {
    "ingest": ["ingest", "{c.jsonl}", "--out", "{out}"],
    "slice": ["slice", "{c.jsonl}", "--year", "2000", "--out", "{out}"],
    "link": ["link", "--left", "{c.jsonl}", "--right", "{c.jsonl}", "--out", "{out}"],
    "attach": ["attach", "--left", "{c.jsonl}", "--right", "{c.jsonl}", "--matches", "{matches.tsv}", "--out", "{out}"],
    "build": ["build", "{c.jsonl}", "--network", "knowledge", "--out", "{out}"],
    "threshold": ["threshold", "{g.tsv}", "--rule", "cosine", "--out", "{out}"],
    "cluster": ["cluster", "--graph", "{g.tsv}", "--out", "{out}"],
    "project": ["project", "--matrix", "{m.json}", "--partition", "{p.tsv}", "--out", "{out}"],
    "metrics": ["metrics", "--graph", "{f.tsv}", "--metric", "pagerank", "--out", "{out}"],
    "metrics-density": ["metrics", "--graph", "{g.tsv}", "--metric", "density", "--out", "{out}"],
    "subgraphs": ["subgraphs", "{c.jsonl}", "--out", "{out}"],
    "stats": ["stats", "--profiles", "{profiles.tsv}", "--out", "{out}", "--medians-out", "{medians.tsv}"],
    "export": ["export", "{g.tsv}", "--format", "json", "--out", "{out}"],
    "run": ["run", "--corpus", "{c.jsonl}", "--out-dir", "{out}"],
}


@pytest.mark.parametrize("command", WRITER_ARGS)
def test_unwritable_outputs_exit_1_naming_the_path(tmp_path, command):
    for name, content in WRITER_FILES.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    out = tmp_path / "file" / "x"
    args = [str(out) if a == "{out}" else str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in WRITER_ARGS[command]]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception  # not an escaped traceback
    lines = result.stderr.splitlines()
    named = "--out does not apply to --metric density" if command == "metrics-density" else str(out)
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], result.stderr


def test_run_exits_2_on_a_stage_failure_and_1_on_an_ingest_input_error(tmp_path):
    corpus, out = tmp_path / "c.jsonl", tmp_path / "out"
    corpus.write_text(CORPUS_OK)
    (out / "matches.tsv").mkdir(parents=True)  # the link stage cannot write its table
    result = CliRunner().invoke(main, ["run", "--corpus", str(corpus), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage 'link' failed: "), result.stderr
    corpus.write_text("{nope\n")
    result = CliRunner().invoke(main, ["run", "--corpus", str(corpus), "--out-dir", str(tmp_path / "out2")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage 'ingest' failed: malformed entry at line 1: "), result.stderr


class TestStageByStageCli:
    ARTIFACTS = (
        "corpus_metadata.jsonl",
        "coupling.json",
        "knowledge_full.tsv",
        "citation_full.tsv",
        "knowledge.tsv",
        "citation.tsv",
        "partition.tsv",
        "cluster_graph.tsv",
        "cluster_assignment.tsv",
        "betweenness.tsv",
        "pagerank.tsv",
        "profiles.tsv",
        "histograms.tsv",
        "medians.tsv",
    )

    def _corpus(self, tmp_path: Path) -> Path:
        """A synth corpus whose F' is non-empty at the default citation
        threshold, plus a weakly coupled venue (adopted by best cosine) and a
        venue that shares no reference (unassigned), both of unknown kind."""
        corpus = scale_corpus(24, 80, groups=6)
        ids = record_ids(corpus)
        shared = next(t for t in corpus.records[0].references if t in ids)
        path = tmp_path / "corpus.jsonl"
        save_corpus(corpus, path)
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(3):
                weak = {"id": f"weak{i}", "title": f"Weak {i}", "authors": ["Wen Weak", f"Co Author{i}"],
                        "venue": "x-weak", "year": 2001, "refs": [shared] + [f"weak raw {i} {j}" for j in range(20)]}
                lone = {"id": f"lone{i}", "title": f"Lone {i}", "authors": ["Lou Lone"],
                        "venue": "x-lone", "year": 2002, "refs": [f"lone raw {i}"]}
                fh.write(json.dumps(weak) + "\n" + json.dumps(lone) + "\n")
        return path

    def test_cli_chain_reproduces_run_artifacts(self, tmp_path):
        runner = CliRunner()
        corpus = self._corpus(tmp_path)
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--corpus", str(corpus), "--out-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        rules = [line.split("\t")[2] for line in (run_dir / "cluster_assignment.tsv").read_text().splitlines()[1:]]
        assert {"clustered", "best-cosine", "unassigned"} <= set(rules)
        assert (run_dir / "pagerank.tsv").read_text().count("\n") > 1

        d = tmp_path / "cli"
        d.mkdir()
        steps = [
            ["ingest", str(corpus), "--out", d / "corpus_metadata.jsonl"],
            ["build", d / "corpus_metadata.jsonl", "--network", "knowledge", "--matrix-out", d / "coupling.json", "--out", d / "knowledge_full.tsv"],
            ["build", d / "corpus_metadata.jsonl", "--network", "citation", "--out", d / "citation_full.tsv"],
            ["threshold", d / "knowledge_full.tsv", "--rule", "cosine", "--out", d / "knowledge.tsv"],
            ["threshold", d / "citation_full.tsv", "--rule", "citation", "--out", d / "citation.tsv"],
            ["cluster", "--graph", d / "knowledge.tsv", "--out", d / "partition.tsv"],
            ["project", "--matrix", d / "coupling.json", "--partition", d / "partition.tsv", "--out", d / "cluster_graph.tsv", "--assignment-out", d / "cluster_assignment.tsv"],
            ["metrics", "--graph", d / "citation.tsv", "--metric", "betweenness", "--weighted", "--out", d / "betweenness.tsv"],
            ["metrics", "--graph", d / "citation.tsv", "--metric", "pagerank", "--out", d / "pagerank.tsv"],
            ["subgraphs", d / "corpus_metadata.jsonl", "--pagerank", d / "pagerank.tsv", "--out", d / "profiles.tsv"],
            ["stats", "--profiles", d / "profiles.tsv", "--out", d / "histograms.tsv", "--medians-out", d / "medians.tsv"],
        ]
        for step in steps:
            result = runner.invoke(main, [str(arg) for arg in step])
            assert result.exit_code == 0, (step[0], result.output)

        differing = [name for name in self.ARTIFACTS if (d / name).read_bytes() != (run_dir / name).read_bytes()]
        assert differing == []

    def test_cli_chain_reproduces_linked_run_artifacts(self, tmp_path):
        """The golden DBLP XML pair, with two slice years and a citation
        threshold of 5: the chain through `attach` writes every artifact
        of the run that a stage command writes."""
        cfg = _linked(tmp_path)
        cfg.out_dir = str(tmp_path / "run")
        cfg.save(tmp_path / "run.cfg")
        result = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "run.cfg")])
        assert result.exit_code == 0, result.output
        run_dir, d = Path(cfg.out_dir), tmp_path / "cli"
        assert (run_dir / "matches.tsv").read_text().count("\n") > 1
        run_stage_chain(cfg, d)

        snapshots = [f"snapshots/{year}/{name}" for year in cfg.slice_years for name in ("knowledge_full.tsv", "knowledge.tsv")]
        names = ("corpus_citation.jsonl", "matches.tsv", *self.ARTIFACTS, *snapshots)
        differing = [name for name in names if (d / name).read_bytes() != (run_dir / name).read_bytes()]
        assert differing == []


class TestTableRoundTrip:
    def test_tables_read_back_write_the_same_bytes(self, tmp_path, planted):
        """Every table the stage commands read back, from a linked run with
        year slices, reads through its reader and writes the same bytes."""
        corpus, _ = planted
        meta, cite = split_for_linkage(corpus)
        save_corpus(meta, tmp_path / "meta.jsonl")
        save_corpus(cite, tmp_path / "cite.jsonl")
        years = sorted({r.year for r in corpus.records})
        cfg = fixture_config(tmp_path, tmp_path / "meta.jsonl", citation_corpus=str(tmp_path / "cite.jsonl"),
                             slice_years=(years[len(years) // 2], years[-1]))
        cfg.save(tmp_path / "run.cfg")
        result = CliRunner().invoke(main, ["run", "--config", str(tmp_path / "run.cfg")])
        assert result.exit_code == 0, result.output
        out = Path(cfg.out_dir)
        tables = {
            "matches.tsv": (linkage.read_matches, linkage.write_matches),
            "partition.tsv": (read_partition, community.write_partition),
            "profiles.tsv": (subgraphs.read_profiles, write_profiles),
        }
        for metric in ("betweenness", "pagerank"):
            read = lambda path, metric=metric: metrics.MetricVector(metric, metrics.read_metric_tsv(path, metric))
            tables[f"{metric}.tsv"] = (read, metrics.write_metric_tsv)
        for name, (read, write) in tables.items():
            assert (out / name).read_text().count("\n") > 1, name  # a header and rows
            write(read(out / name), tmp_path / name)
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name


class TestRunAcrossHashSeeds:
    def test_artifact_hashes_equal_under_two_hash_seeds(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(scale_corpus(30, 12, groups=6, seed=4), corpus)
        src = str(Path(__file__).parent.parent / "src")
        hashes = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}"
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))
            done = subprocess.run(
                [sys.executable, "-m", "venuenet.cli", "run", "--corpus", str(corpus), "--out-dir", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            manifest = json.loads((out / "manifest.json").read_text())
            hashes.append([(s["name"], o["path"], o["sha256"]) for s in manifest["stages"] for o in s["outputs"]])
        assert len(hashes[0]) >= 14
        assert hashes[0] == hashes[1]

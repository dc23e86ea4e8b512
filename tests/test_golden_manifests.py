"""Every artifact byte of four seeded runs, pinned: `venuenet run` on each
golden corpus must write the sha256 that tests/golden_manifests.json records
for every output of its manifest.json. Each corpus runs twice, with
PYTHONHASHSEED pinned to 0 and to 1: both runs must give its golden hashes,
so an output that follows the order of a set or a dict of strings fails
every time, not by chance.

A change that alters an artifact on purpose rewrites the file with

    VENUENET_UPDATE_GOLDEN=1 python -m pytest -q tests/test_golden_manifests.py

and says which artifact changed and why. The file records the numpy and
Python it was made with; a mismatch names them beside the running ones.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_dblp
from venuenet.corpus import save_corpus
from venuenet.pipeline import PipelineConfig
from venuenet.synth import scale_corpus, split_for_linkage

GOLDEN = Path(__file__).parent / "golden_manifests.json"
UPDATE = os.environ.get("VENUENET_UPDATE_GOLDEN") == "1"


def _jsonl(venues, papers, seed, **settings):
    def write(work: Path) -> PipelineConfig:
        save_corpus(scale_corpus(venues, papers, seed=seed), work / "corpus.jsonl")
        return PipelineConfig(metadata_corpus=str(work / "corpus.jsonl"), **settings)

    return write


def _linked(work: Path) -> PipelineConfig:
    meta, cite = split_for_linkage(scale_corpus(60, 50, seed=1))
    write_dblp(meta, work / "meta.xml")
    write_dblp(cite, work / "cite.xml")
    return PipelineConfig(metadata_corpus=str(work / "meta.xml"), citation_corpus=str(work / "cite.xml"),
                          corpus_format="dblp-xml", citation_min=5.0, slice_years=(1990, 2000))


# the largest first, so that the smaller corpora are built while it runs
CORPORA = {
    "scale-1000x100-seed3": _jsonl(1000, 100, 3),
    "scale-150x100-seed1": _jsonl(150, 100, 1),
    "scale-800x10-seed1-citation0": _jsonl(800, 10, 1, citation_min=0.0),
    "linked-60x50-seed1-dblp": _linked,
}
# the hash seeds every corpus runs under
SEEDS = ("0", "1")


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The out directory and `venuenet run` process of each corpus and hash
    seed: the corpora built one after another, run side by side."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    started = {}
    for name, build in CORPORA.items():
        work = tmp_path_factory.mktemp(name)
        cfg = build(work)
        for seed in SEEDS:
            cfg.out_dir = str(work / f"out-{seed}")
            cfg.save(work / f"config-{seed}.txt")
            command = [sys.executable, "-m", "venuenet.cli", "run", "--config", str(work / f"config-{seed}.txt")]
            process = subprocess.Popen(command, env=dict(env, PYTHONHASHSEED=seed), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            started[name, seed] = (work / f"out-{seed}", process)
    yield started
    for _, process in started.values():
        process.kill()
        process.communicate()


def _hashes(out: Path) -> dict[str, str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {o["path"]: o["sha256"] for stage in manifest["stages"] for o in stage["outputs"]}


def _made_with() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def _finished(runs, name: str, seed: str) -> dict[str, str]:
    out, process = runs[name, seed]
    _, stderr = process.communicate(timeout=300)
    assert process.returncode == 0, stderr.decode()
    return _hashes(out)


def _assert_golden(name: str, hashes: dict[str, str]) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = golden["corpora"][name]
    differ = sorted(path for path in expected.keys() | hashes.keys() if expected.get(path) != hashes.get(path))
    assert not differ, (
        f"{name}: artifacts differ from {GOLDEN.name}: {', '.join(differ)} "
        f"(file made with {golden['made_with']}, running {_made_with()})"
    )


@pytest.mark.parametrize("name", CORPORA)
def test_run_artifacts_match_the_golden_hashes(runs, name):
    hashes = _finished(runs, name, SEEDS[0])
    if UPDATE:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {"corpora": {}}
        golden["made_with"] = _made_with()
        golden["corpora"][name] = hashes
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    _assert_golden(name, hashes)


@pytest.mark.parametrize("name", CORPORA)
def test_run_under_a_second_hash_seed_matches_the_golden_hashes(runs, name):
    _assert_golden(name, _finished(runs, name, SEEDS[1]))

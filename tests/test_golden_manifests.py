"""Every artifact byte of five seeded runs, pinned: `venuenet run` on each
golden corpus must write the sha256 that tests/golden_manifests.json records
for every output of its manifest.json. Each corpus runs in three
environments, and each run must give its golden hashes:

- PYTHONHASHSEED pinned to 0, the run the file is written from;
- PYTHONHASHSEED pinned to 1, so an output that follows the order of a set
  or a dict of strings fails every time, not by chance;
- hash seed 0 with NPY_DISABLE_CPU_FEATURES naming every CPU feature numpy
  dispatches to and finds on this CPU, so a result that depends on the SIMD
  kernels numpy picks (another CPU's) fails here. It is skipped when numpy
  finds none.

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
    "scale-150x100-seed5-slices": _jsonl(150, 100, 5, slice_years=tuple(range(1990, 2010))),  # spans 1980-2009
    "scale-800x10-seed1-citation0": _jsonl(800, 10, 1, citation_min=0.0),
    "linked-60x50-seed1-dblp": _linked,
}


def _dispatched_features() -> list[str]:
    """The CPU features numpy dispatches to at run time and finds on this
    CPU: with them all disabled, numpy runs its build's baseline kernels."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [feature for feature in umath.__cpu_dispatch__ if umath.__cpu_features__.get(feature)]


REDUCED_SIMD = " ".join(_dispatched_features())
# the environments every corpus runs in; the first writes the golden file
ENVIRONMENTS = {
    "hashseed-0": {"PYTHONHASHSEED": "0"},
    "hashseed-1": {"PYTHONHASHSEED": "1"},
}
if REDUCED_SIMD:
    ENVIRONMENTS["reduced-simd"] = {"PYTHONHASHSEED": "0", "NPY_DISABLE_CPU_FEATURES": REDUCED_SIMD}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The out directory and `venuenet run` process of each corpus and
    environment: the corpora built one after another, run side by side."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    started = {}
    for name, build in CORPORA.items():
        work = tmp_path_factory.mktemp(name)
        cfg = build(work)
        for where, variables in ENVIRONMENTS.items():
            cfg.out_dir = str(work / f"out-{where}")
            cfg.save(work / f"config-{where}.txt")
            command = [sys.executable, "-m", "venuenet.cli", "run", "--config", str(work / f"config-{where}.txt")]
            process = subprocess.Popen(command, env=dict(env, **variables), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            started[name, where] = (work / f"out-{where}", process)
    yield started
    for _, process in started.values():
        process.kill()
        process.communicate()


def _hashes(out: Path) -> dict[str, str]:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    return {o["path"]: o["sha256"] for stage in manifest["stages"] for o in stage["outputs"]}


def _made_with() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def _finished(runs, name: str, where: str) -> dict[str, str]:
    out, process = runs[name, where]
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
    hashes = _finished(runs, name, "hashseed-0")
    if UPDATE:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {"corpora": {}}
        golden["made_with"] = _made_with()
        golden["corpora"][name] = hashes
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return
    _assert_golden(name, hashes)


@pytest.mark.parametrize("name", CORPORA)
def test_run_under_a_second_hash_seed_matches_the_golden_hashes(runs, name):
    _assert_golden(name, _finished(runs, name, "hashseed-1"))


@pytest.mark.skipif(not REDUCED_SIMD, reason="numpy dispatches to no CPU feature beyond its baseline here")
@pytest.mark.parametrize("name", CORPORA)
def test_run_on_baseline_simd_matches_the_golden_hashes(runs, name):
    _assert_golden(name, _finished(runs, name, "reduced-simd"))


@pytest.mark.skipif(not REDUCED_SIMD, reason="numpy dispatches to no CPU feature beyond its baseline here")
def test_reduced_simd_environment_disables_the_features():
    """numpy reads NPY_DISABLE_CPU_FEATURES, so the runs above ran without
    the features it names."""
    here = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(here), str(here.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    script = "from test_golden_manifests import _dispatched_features\nprint(_dispatched_features())"
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, **ENVIRONMENTS["reduced-simd"], PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]

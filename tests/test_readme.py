"""The README's Python API note, its Quickstart run as written, and its table headers."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import venuenet
from venuenet import community, linkage, metrics, subgraphs

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """`python args` in a fresh interpreter that imports this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done


def test_all_lists_the_documented_modules():
    note = next(line for line in README.splitlines() if line.startswith("Python API:"))
    assert venuenet.__all__ == sorted(set(re.findall(r"`venuenet\.(\w+)", note)))


def test_import_loads_no_submodule(tmp_path):
    script = (
        "import sys\n"
        "import venuenet\n"
        "print(sorted(m for m in sys.modules if m.startswith('venuenet.')))\n"
        "from venuenet import *\n"
        "print(corpus.save_corpus.__module__, synth.__name__)\n"
    )
    lines = run_python(["-c", script], tmp_path).stdout.splitlines()
    assert lines == ["[]", "venuenet.corpus venuenet.synth"]


def test_quickstart_runs_as_written(tmp_path):
    section = README.split("\n## Quickstart\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    script = re.search(r'^python3 -c "\n(.*?)^"$', block, re.S | re.M).group(1)
    run_python(["-c", script], tmp_path)
    assert (tmp_path / "fixture.jsonl").is_file()
    command = next(line for line in block.splitlines() if line.startswith("venuenet run "))
    done = run_python(["-m", "venuenet.cli", *shlex.split(command)[1:]], tmp_path)
    assert "pipeline complete" in done.stdout
    # the files the block's `cat` lines show
    shown = [shlex.split(line)[1] for line in block.splitlines() if line.startswith("cat ")]
    assert shown and all((tmp_path / name).stat().st_size > 0 for name in shown)


def test_documented_table_headers_are_the_code_headers():
    """Each table the README's "TSV tables" list documents, named by its
    first code span, has the columns of its writer's header constant."""
    section = README.split("**TSV tables.**", 1)[1].split("\n\n**", 1)[0]
    items = [" ".join(item.split()) for item in section.split("\n- ")[1:]]
    documented = {m.group(1): m.group(2).split() for m in (re.match(r"`([^`]+)`[^:]*: `([^`]+)`", i) for i in items)}
    headers = {
        "matches.tsv": linkage.MATCHES_HEADER,
        "partition.tsv": community.PARTITION_HEADER,
        "cluster_assignment.tsv": community.ASSIGNMENT_HEADER,
        "betweenness.tsv": metrics.METRIC_HEADER.format("betweenness"),
        "pagerank.tsv": metrics.METRIC_HEADER.format("pagerank"),
        "profiles.tsv": subgraphs.PROFILES_HEADER,
        "histograms.tsv": subgraphs.HISTOGRAMS_HEADER,
        "medians.tsv": subgraphs.MEDIANS_HEADER,
        "cluster --composition-out": community.COMPOSITION_HEADER,
        "cluster --domains": community.DOMAINS_HEADER,
    }
    assert documented == {name: header.split("\t") for name, header in headers.items()}


def test_bash_blocks_name_the_defined_commands_and_options():
    """Every `venuenet <command> ... --<option>` line of the README's bash
    blocks names a command of `cli.main` and only options it defines."""
    from venuenet.cli import main

    blocks = re.findall(r"^```bash\n(.*?)^```", README, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("venuenet ")]
    assert len(lines) > 10
    undefined = []
    for line in lines:
        words = shlex.split(line, comments=True)
        command = main.commands.get(words[1])
        if command is None:
            undefined.append((words[1], None))
            continue
        defined = {opt for param in command.params for opt in param.opts + param.secondary_opts}
        undefined += [(words[1], word) for word in words[2:] if word.startswith("--") and word.split("=")[0] not in defined]
    assert undefined == []

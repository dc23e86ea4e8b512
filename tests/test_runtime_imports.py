"""The runtime stays on the standard library, click and numpy: anything
else (scipy, networkx, hypothesis, ...) may serve only tests and benchmarks."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import venuenet
from conftest import write_dblp
from venuenet import pipeline
from venuenet.corpus import save_corpus
from venuenet.pipeline import PipelineConfig
from venuenet.synth import scale_corpus, split_for_linkage

RUNTIME_PACKAGES = {"click", "numpy", "venuenet"}


def test_modules_import_only_stdlib_click_and_numpy():
    sources = sorted(Path(venuenet.__file__).parent.rglob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | RUNTIME_PACKAGES
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] not in allowed]
    assert found == []


def _run_cli(args: list[str], modules: str) -> list[str]:
    """The loaded modules whose names satisfy the Python expression
    `modules` over `m`, after `venuenet.cli` runs `args` in a fresh process
    (only imports it, for no arguments)."""
    script = ("import sys\nfrom venuenet.cli import main\nif sys.argv[1:]: main(sys.argv[1:], standalone_mode=False)\n"
              f"print(sorted(m for m in sys.modules if {modules}))")
    src = str(Path(venuenet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert not args or "pipeline complete" in done.stdout
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_run_does_not_import_numpy_ma(tmp_path):
    """numpy.ma costs about 10 ms to import; no stage needs it (np.union1d
    and np.unique without return arguments import it under numpy 2.4)."""
    corpus = scale_corpus(venues=12, papers_per_venue=10, seed=5)
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    meta, cite = split_for_linkage(corpus)
    write_dblp(meta, tmp_path / "meta.xml")
    write_dblp(cite, tmp_path / "cite.xml")
    dblp = PipelineConfig(metadata_corpus=str(tmp_path / "meta.xml"), citation_corpus=str(tmp_path / "cite.xml"),
                          corpus_format="dblp-xml", slice_years=(1995,), out_dir=str(tmp_path / "out-dblp"))
    dblp.save(tmp_path / "dblp.cfg")
    for args in (["--corpus", str(tmp_path / "corpus.jsonl"), "--out-dir", str(tmp_path / "out-jsonl")],
                 ["--config", str(tmp_path / "dblp.cfg")]):
        assert _run_cli(["run", *args], "m.split('.')[:2] == ['numpy', 'ma']") == []


def test_cli_and_jsonl_run_do_not_import_statistics_or_xml(tmp_path):
    """statistics (with the fractions and decimal modules it loads) and
    xml.etree cost a few milliseconds a start: the medians are computed
    directly, and only the DBLP XML and GraphML readers import ElementTree."""
    save_corpus(scale_corpus(venues=12, papers_per_venue=10, seed=5), tmp_path / "corpus.jsonl")
    modules = "m in ('statistics', 'fractions', 'decimal') or m.startswith('xml.etree')"
    assert _run_cli([], modules) == []
    run = ["run", "--corpus", str(tmp_path / "corpus.jsonl"), "--out-dir", str(tmp_path / "out")]
    assert _run_cli(run, modules) == []


def _calls_and_imports(path: Path) -> tuple[set[str], set[str]]:
    """Names of the functions and methods `path` calls, and every module it
    imports or imports from, as absolute names (`venuenet.linkage` for
    `from . import linkage` or `from .linkage import x` in the package)."""
    calls, imports = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            calls.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
        elif isinstance(node, ast.Import):
            imports.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["venuenet" if node.level else "", node.module]))
            imports.add(module)
            imports.update(f"{module}.{alias.name}" for alias in node.names)
    return calls, imports


def test_references_resolve_in_one_place():
    """Only corpus.py asks whether a target is a record id (the others read
    its reference index), only linkage.py applies the matched-id rewrite,
    and the networks do not depend on linkage."""
    found = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        calls, imports = _calls_and_imports(path)
        if "has_record" in calls and path.name != "corpus.py":
            found.append((path.name, "has_record"))
        if "right_to_left_ids" in calls and path.name != "linkage.py":
            found.append((path.name, "right_to_left_ids"))
        if path.name == "networks.py" and "venuenet.linkage" in imports:
            found.append((path.name, "imports linkage"))
    assert found == []


# A corpus's private state: its id -> row dict, its derived copies and its
# reference index. Only corpus.py reads them; linkage calls Corpus.linked.
CORPUS_PRIVATE = {"_rows", "_derive", "_references"}


def test_only_corpus_reads_a_corpus_private_state():
    found = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        if path.name != "corpus.py":
            found += [(path.name, node.lineno, node.attr)
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
                      if isinstance(node, ast.Attribute) and node.attr in CORPUS_PRIVATE]
    assert found == []


def test_one_name_rule():
    """Only corpus.py names the characters no name may hold, and only its
    parsers run the corpus check: every other reader of names calls
    corpus.check_name."""
    found = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        if path.name == "corpus.py":
            continue
        calls, _ = _calls_and_imports(path)
        if "_UNCARRIED" in path.read_text(encoding="utf-8"):
            found.append((path.name, "_UNCARRIED"))
        if "check_names" in calls:
            found.append((path.name, "check_names"))
    assert found == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    """No module of the package imports a `_`-prefixed name from another
    one, or reads `module._name` through a package module it imported: a
    primitive two modules share lives in a module of its own (arrays.py)."""
    found = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # local names bound to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "venuenet"):
                if node.module in (None, "venuenet"):  # from . import x
                    modules.update(alias.asname or alias.name for alias in node.names)
                found += [(path.name, node.lineno, alias.name) for alias in node.names if _private(alias.name)]
            elif isinstance(node, ast.Import):
                modules.update(alias.asname for alias in node.names if alias.asname and alias.name.startswith("venuenet."))
        found += [
            (path.name, node.lineno, f"{node.value.id}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and _private(node.attr)
        ]
    assert found == []


GUARDED_MODULES = ("arrays","graph", "networks", "community", "metrics", "subgraphs", "corpus", "linkage", "exports", "pipeline")


def _definitions(tree: ast.Module):
    """(definition, is a method) of each top-level function and class, and
    of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item, True


def _references(tree: ast.Module):
    """(name, line, is an attribute) of each name, attribute and string
    constant: a string names what bench/tracing.py wraps by attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False


def test_every_definition_has_a_caller():
    """Every top-level function, class and public method of the core modules
    is referenced from the program or the benchmark outside its own body, or
    is public API in venuenet.__all__. A method counts as referenced only as
    an attribute (`.row`), so that a local variable of its name does not."""
    package = Path(venuenet.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "bench"
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in [*package.glob("*.py"), *bench.glob("*.py")]}
    references = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for module in GUARDED_MODULES:
        path = package / f"{module}.py"
        for node, method in _definitions(trees[path]):
            if node.name in venuenet.__all__:
                continue
            body = range(node.lineno, node.end_lineno + 1)
            if not any(
                name == node.name and (attribute or not method) and (where != path or line not in body)
                for where, refs in references.items()
                for name, line, attribute in refs
            ):
                unused.append(f"{module}.{node.name}")
    assert unused == []


# The only builtin sum() calls in the package, each adding integers. Python
# 3.12 made sum() of floats compensated, so a float sum would give other bits
# on other interpreters; float sums go through metrics.left_sum.
INTEGER_SUMS = {
    ("cli.py", "subgraphs_cmd"),  # profile count
    ("cli.py", "stats"),  # profile count
}


class _SumCalls(ast.NodeVisitor):
    """(file, innermost enclosing function) of each builtin sum() call."""

    def __init__(self, filename: str):
        self.filename, self.scope, self.sites = filename, "<module>", []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.sites.append((self.filename, self.scope))
        self.generic_visit(node)


def test_builtin_sum_only_at_integer_sites():
    sites = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        visitor = _SumCalls(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        sites += visitor.sites
    assert sorted(sites) == sorted(INTEGER_SUMS)


# numpy hands these to BLAS, whose kernels (and their summation order) vary
# with the CPU, the BLAS build and its thread count, so a float result could
# differ between machines. Every product in the package is an elementwise
# operation or a reduction numpy runs itself.
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def test_no_blas_routed_operation():
    """No `@` anywhere in the package, no attribute named in BLAS_NAMES (a
    function, a method or `np.linalg`), and no call or import of one."""
    found = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in BLAS_NAMES:
                found.append((path.name, node.lineno, node.func.id))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                found += [(path.name, node.lineno, name) for name in names if BLAS_NAMES & set(name.split("."))]
    assert found == []


# The one UTF-8 decode of an input: exports.decode_text for every file but a
# corpus, and parse_jsonl's per-line decode of a streamed JSONL corpus.
DECODE_SITES = {("exports.py", "decode_text"), ("corpus.py", "parse_jsonl")}


class _DecodeCalls(_SumCalls):
    """(file, innermost enclosing function) of each `.decode(...)` call."""

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "decode":
            self.sites.append((self.filename, self.scope))
        self.generic_visit(node)


def test_utf8_decoded_in_one_place():
    sites = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        visitor = _DecodeCalls(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        sites += visitor.sites
    assert sorted(sites) == sorted(DECODE_SITES)


# The only functions that set the cyclic collector's policy: the pause that
# each parse and each run_pipeline call takes, and the freeze at process exit.
COLLECTOR_SITES = {("corpus.py", "gc_paused"), ("cli.py", "entry")}


class _CollectorCalls(ast.NodeVisitor):
    """(file, outermost enclosing function) of each gc.disable, gc.enable,
    gc.freeze and gc.unfreeze call."""

    def __init__(self, filename: str):
        self.filename, self.scope, self.sites = filename, "<module>", []

    def visit_FunctionDef(self, node):
        outer = self.scope
        if outer == "<module>":
            self.scope = node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("disable", "enable", "freeze", "unfreeze")
                and isinstance(func.value, ast.Name) and func.value.id == "gc"):
            self.sites.append((self.filename, self.scope))
        self.generic_visit(node)


def test_collector_policy_set_in_one_place():
    sites = []
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        visitor = _CollectorCalls(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        sites += visitor.sites
    assert set(sites) == COLLECTOR_SITES


# The program's exception classes: the corpus errors, which name the entry,
# and the pipeline's, which tell a config error from a stage failure. Every
# other input error is a plain ValueError (or an OSError).
EXCEPTION_CLASSES = {"CorpusError", "MalformedEntryError", "DuplicateRecordIdError",
                     "PipelineError", "ConfigError", "StageError"}


def _names(node) -> list[str]:
    """The class names an except clause or a class's bases list."""
    if isinstance(node, ast.Tuple):
        return [name for item in node.elts for name in _names(item)]
    return [node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "<bare>")]


def test_input_errors_have_one_rule():
    """Only EXCEPTION_CLASSES derive from an exception, and cli.py's except
    clauses name only OSError, ValueError and StageError: the command group
    turns any OSError or ValueError into exit 1 in one place."""
    classes, caught = set(), set()
    for path in sorted(Path(venuenet.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                name.endswith(("Error", "Exception")) for base in node.bases for name in _names(base)
            ):
                classes.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and path.name == "cli.py":
                caught.update(_names(node.type))
    assert classes == EXCEPTION_CLASSES
    assert caught <= {"OSError", "ValueError", "StageError"}


def test_stage_table_names_what_each_stage_reads_and_makes():
    """For each stage of `pipeline._STAGE_FUNCS`, in run order: its
    function's parameters after `run` are its declared reads, every product
    it reads an earlier stage returns, and every product it returns (the
    keys of the dict each of its `return`s builds) a later stage reads,
    `snapshots` included, so no stage computes a product nobody reads."""
    tree = ast.parse(Path(pipeline.__file__).read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    table = list(pipeline._STAGE_FUNCS.items())
    assert [stage for stage, _ in table] == [*pipeline.STAGES, "snapshots"]
    made = set()
    for i, (stage, (func, reads)) in enumerate(table):
        assert list(inspect.signature(func).parameters)[1:] == list(reads), stage
        assert set(reads) <= made, stage
        returns = [node.value for node in ast.walk(defs[func.__name__]) if isinstance(node, ast.Return)]
        assert returns and all(isinstance(value, ast.Dict) for value in returns), stage
        makes = {ast.literal_eval(key) for value in returns for key in value.keys}
        assert makes <= {name for _, (_, later) in table[i + 1:] for name in later}, stage
        made |= makes

"""The runtime stays on the standard library, click and numpy: anything
else (scipy, networkx, hypothesis, ...) may serve only tests and benchmarks."""

import ast
import sys
from pathlib import Path

import venuenet

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

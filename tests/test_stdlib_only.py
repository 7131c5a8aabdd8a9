"""The runtime imports only the standard library and declustr itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "declustr").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib_or_declustr(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    foreign = sorted(roots - sys.stdlib_module_names - {"declustr"})
    assert not foreign, f"{path.name} imports {foreign}"


def test_importing_the_cli_leaves_hashlib_dataclasses_and_inspect_unloaded():
    # Each costs every process milliseconds. hashlib, about 3.5 ms, is imported by
    # the fill that needs it; dataclasses, which imports inspect, ast and dis, and
    # compiles each class's methods at import, is replaced by declustr._record.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, declustr.cli; print(sorted(sys.modules))"],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = set(ast.literal_eval(done.stdout))
    assert "declustr.cli" in loaded
    assert not loaded & {"hashlib", "dataclasses", "inspect"}

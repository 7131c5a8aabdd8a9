"""The same bytes on every supported CPython (`requires-python >= 3.10`).

Each case runs `interpreter_probe.py` under one pyenv interpreter and under
the suite's own, and compares the two JSON objects. The golden, README and
digest tests pin the suite's own interpreter's bytes, so equal objects pin
the other's too. A missing interpreter is skipped by name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PROBE = TESTS / "interpreter_probe.py"


def _probe(python) -> dict:
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [str(python), str(PROBE)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def own_bytes() -> dict:
    return _probe(sys.executable)


def test_probe_covers_the_readme_fills_and_sweep(own_bytes):
    assert len(own_bytes["cli"]) == 9 * 3
    assert all(code == 0 for code, _ in own_bytes["cli"].values())
    assert len(own_bytes["fill digests"]) == 4
    assert "passed=28" in own_bytes["s=2 sweep"]
    assert "total=120, passed=120" in own_bytes["s=2 sweep rdp7"]


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_same_bytes_on_every_supported_cpython(version, own_bytes):
    found = sorted(Path.home().glob(f".pyenv/versions/{version}.*/bin/python3"))
    if not found:
        pytest.skip(f"CPython {version} not found")
    assert _probe(found[-1]) == own_bytes

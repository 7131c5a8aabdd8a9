"""Golden bytes for the command line: stdout, stderr and exit code of every case.

Each subcommand runs in each of table, csv and json on a set of small inputs
(balanced, unbalanced `single` and `rotations` families, delta=1 rotated
layouts, RS(5,3) sweeps, an empty --fail, --out). --help and the usage error
for a missing required flag are pinned for every subcommand as well. Files a
case writes with --out are pinned too.

Every case runs in a fresh directory that holds the inputs under relative
names, so no output depends on where the suite runs. To regenerate the data
file after an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import shutil
import sys
from pathlib import Path

import pytest

from declustr import (
    build_layout,
    complete_design,
    design_from_json,
    design_to_json,
    group_family,
    hadamard_3design,
    rdp_code,
    rotate_layout,
    rs_code,
    serialize_layout,
)
from declustr.cli import run

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
FORMATS = ("table", "csv", "json")

RDP3 = "--code rdp --p 3"
RS41 = "--code rs --k 4 --delta 1"
RS53 = "--code rs --k 5 --delta 3"

# Commands run once per format; each gets "--format FORMAT" appended.
FORMATTED = [
    "design validate --file design.json",
    "design validate --file bibd.json",
    "design validate --file bad.json",
    "design validate --file garbage.json",
    "design validate --file missing.json",
    "design complete --n 6 --k 4 --t 3",
    "design complete --n 7 --k 5 --t 4 --out complete.json",
    "design complete --n 4 --k 5 --t 3",
    "design hadamard --n 8",
    "design hadamard --n 16 --out hadamard.json",
    "design hadamard --n 12",
    "design reduce --file design.json --s 2",
    "design reduce --file design.json --s 2 --out reduced.json",
    "design reduce --file design.json --s 4",
    f"group build {RDP3}",
    f"group build {RDP3} --family single",
    f"group build {RDP3} --family rotations",
    f"group build {RS53}",
    f"group build {RS41} --family single",
    "group build --code rdp",
    "group build --code rs --k 5",
    f"group verify {RDP3}",
    f"group verify {RDP3} --family single",
    f"group verify {RDP3} --family rotations",
    f"group verify {RDP3} --max-s 1",
    f"group verify {RDP3} --max-s 5",
    f"group verify {RS53}",
    f"group verify {RS41} --family single",
    f"layout build --design design.json {RDP3}",
    f"layout build --design design.json {RDP3} --out built.json",
    f"layout build --design design.json {RDP3} --family single",
    f"layout build --design d754.json {RS53} --family rotations",
    f"layout build --design bibd.json {RS41} --family single --out d1.json",
    "layout build --design design.json --code rs --k 5 --delta 2",
    "layout rotate --layout d1single.json",
    "layout rotate --layout d1single.json --out rotated.json",
    "layout rotate --layout layout.json",
    "layout inspect --layout layout.json",
    "layout inspect --layout single.json",
    "layout inspect --layout rotations.json",
    "layout inspect --layout d1single.json",
    "layout inspect --layout d1rotated.json",
    "layout inspect --layout rs53.json",
    "layout inspect --layout garbage.json",
    "analyze workload --layout layout.json --fail 0,1",
    "analyze workload --layout layout.json --fail 3",
    "analyze workload --layout layout.json --fail ''",
    "analyze workload --layout single.json --fail 0,1",
    "analyze workload --layout rotations.json --fail 2,5",
    "analyze workload --layout d1rotated.json --fail 1",
    "analyze workload --layout rs53.json --fail 0,1,2",
    "analyze workload --layout layout.json --fail a,b",
    "analyze workload --layout layout.json --fail 0,1,2",
    "analyze workload --layout layout.json --fail 8",
    "analyze tradeoff --n 20 --fixture fig13",
    "analyze tradeoff --n 20 --row 4:1 --row 10:4",
    "analyze tradeoff --n 20 --row 10:4 --row 3:1",
    "analyze tradeoff --n 9 --row 4:1 --row 5:3",
    "analyze tradeoff --n 20",
    "analyze tradeoff --n 20 --fixture fig13 --row 10:4",
    "analyze tradeoff --n 20 --row 10",
    "analyze tradeoff --n 20 --row 2:1",
    f"analyze counterexample --design design.json {RDP3} --family single --fail 0,1",
    f"analyze counterexample --design design.json {RDP3} --fail 0,1",
    f"analyze counterexample --design design.json {RDP3} --family rotations --fail 4",
    f"analyze counterexample --design design.json {RDP3} --fail ''",
    f"analyze counterexample --design bibd.json {RS41} --family single --fail 0",
    f"analyze counterexample --design d754.json {RS53} --fail 0,1,2",
    f"analyze counterexample --design design.json {RDP3} --fail 0,1,2",
    "simulate --layout layout.json --fail 0,1",
    "simulate --layout layout.json --fail 3 --seed 7",
    "simulate --layout layout.json --fail ''",
    "simulate --layout single.json --fail 0,1",
    "simulate --layout d1rotated.json --fail 2",
    "simulate --layout layout.json --exhaustive 2 --seed 7",
    "simulate --layout layout.json --exhaustive 1",
    "simulate --layout layout.json --exhaustive 0",
    "simulate --layout single.json --exhaustive 2",
    "simulate --layout rotations.json --exhaustive 1",
    "simulate --layout d1rotated.json --exhaustive 1",
    "simulate --layout rs53.json --exhaustive 3",
    "simulate --layout rs53.json --fail 0,3,6 --seed 5",
    "simulate --layout layout.json",
    "simulate --layout layout.json --fail 3 --exhaustive 1",
    "simulate --layout layout.json --exhaustive 3",
    "simulate --layout missing.json --fail 0",
]

SUBCOMMANDS = [
    "design validate",
    "design complete",
    "design hadamard",
    "design reduce",
    "group build",
    "group verify",
    "layout build",
    "layout rotate",
    "layout inspect",
    "analyze workload",
    "analyze tradeoff",
    "analyze counterexample",
    "simulate",
]

# Commands run as they are: help text and argparse usage errors.
PLAIN = (
    ["", "--help", "bogus", "design", "design --help", "group --help",
     "layout --help", "analyze --help", "design validate --format yaml",
     "group build --code rdp --p 3 --family zigzag",
     "analyze tradeoff --n 20 --fixture nope"]
    + [f"{command} --help" for command in SUBCOMMANDS]
    + SUBCOMMANDS
)

CASES = [f"{command} --format {fmt}" for command in FORMATTED for fmt in FORMATS] + PLAIN

# Files a case may write with --out.
OUTPUTS = ("complete.json", "hadamard.json", "reduced.json", "built.json", "d1.json",
           "rotated.json")


def write_inputs(directory: Path) -> None:
    """The files the cases read, under the relative names they use."""
    design = hadamard_3design(8)
    bibd = json.loads((DATA / "design_2_5_4_3.json").read_text())
    d754 = complete_design(7, 5, 4)
    rdp3 = rdp_code(3)
    d1single = build_layout(group_family(rs_code(4, 1), "single"), design_from_json(bibd))
    layouts = {
        "layout.json": build_layout(group_family(rdp3, "full"), design),
        "single.json": build_layout(group_family(rdp3, "single"), design),
        "rotations.json": build_layout(group_family(rdp3, "rotations"), design),
        "d1single.json": d1single,
        "d1rotated.json": rotate_layout(d1single),
        "rs53.json": build_layout(group_family(rs_code(5, 3), "full"), d754),
    }
    bad = design_to_json(design)
    bad["lambda"] = 2
    files = {
        "design.json": json.dumps(design_to_json(design), indent=2) + "\n",
        "bibd.json": json.dumps(bibd, indent=2) + "\n",
        "d754.json": json.dumps(design_to_json(d754), indent=2) + "\n",
        "bad.json": json.dumps(bad) + "\n",
        "garbage.json": "this is not json\n",
        **{name: serialize_layout(layout) for name, layout in layouts.items()},
    }
    for name, text in files.items():
        (directory / name).write_text(text)


def invoke(case: str, workdir: Path) -> dict:
    """Run one case in workdir; return its exit code, stdout, stderr and --out files."""
    out, err = io.StringIO(), io.StringIO()
    previous = Path.cwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(shlex.split(case))
    finally:
        os.chdir(previous)
    written = {
        name: (workdir / name).read_text() for name in OUTPUTS if (workdir / name).exists()
    }
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


def test_every_subcommand_runs_in_every_format():
    for command in SUBCOMMANDS:
        ran = {case.rsplit(" ", 1)[1] for case in CASES[: len(FORMATTED) * 3]
               if case.startswith(command + " ")}
        assert ran == set(FORMATS), command


@pytest.mark.parametrize("case", CASES)
def test_cli_bytes_match_golden(case, inputs, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for path in inputs.iterdir():
        shutil.copy(path, tmp_path / path.name)
    assert invoke(case, tmp_path) == golden[case]


def regenerate() -> None:
    import tempfile

    os.environ["COLUMNS"] = "80"
    records = {}
    with tempfile.TemporaryDirectory() as base:
        inputs = Path(base) / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        for i, case in enumerate(CASES):
            workdir = Path(base) / f"case{i}"
            shutil.copytree(inputs, workdir)
            records[case] = invoke(case, workdir)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()

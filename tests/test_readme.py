"""The README's command transcripts, replayed through the CLI.

Every fenced block line that starts with `$ declustr` is a command (a
trailing backslash continues it on the next line); the lines up to the next
blank line or command are its expected stdout. A block with a `...` line
shows a selection: its other lines must appear, whole and in order. Commands
run in order in one directory, so later ones read the files earlier ones
wrote.
"""

from __future__ import annotations

import re
import shlex
from itertools import takewhile
from pathlib import Path

from declustr import build_layout, group_family, hadamard_3design, rdp_code
from declustr.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def transcript() -> list[tuple[list[str], list[str]]]:
    """(argv, expected stdout lines) for each `$ declustr` command in README.md."""
    commands = []
    expected = None
    in_block = False
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line.startswith("```"):
            in_block, expected = not in_block, None
        elif in_block and line.startswith("$ declustr "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines)
            expected = []
            commands.append((shlex.split(command)[1:], expected))
        elif not line:
            expected = None
        elif expected is not None:
            expected.append(line)
    return commands


def matches(actual: list[str], expected: list[str]) -> bool:
    """Equal line by line; with a `...` line, the other lines appear whole and in order."""
    if "..." not in expected:
        return actual == expected
    remaining = iter(actual)
    return all(line in remaining for line in expected if line != "...")


def test_readme_has_the_walkthrough():
    names = [" ".join(argv[:2]) for argv, _ in transcript()]
    assert names == [
        "design hadamard", "design validate", "layout build", "layout inspect",
        "analyze workload", "simulate --layout", "group verify",
        "analyze counterexample", "analyze tradeoff",
    ]


def test_readme_transcript_matches_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, expected in transcript():
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert matches(out.splitlines(), expected), (argv, out)


def test_ellipsis_elides_lines_but_keeps_order():
    assert matches(["a", "b", "c", "d"], ["...", "b", "d"])
    assert not matches(["a", "b", "c", "d"], ["...", "d", "b"])
    assert not matches(["a", "bb"], ["...", "b"])
    assert not matches(["a", "b"], ["a"])


def test_readme_names_every_memo_and_no_other():
    # The "Memos" bullet names each memo a group or layout is built with: a
    # memo added or removed has to update the README with it.
    lines = iter(README.read_text().splitlines())
    bullet = [next(line for line in lines if line.startswith("- Memos:"))]
    bullet += takewhile(lambda line: line.startswith("  "), lines)
    named = set(re.findall(r"`(_\w+)`", " ".join(bullet)))
    group = group_family(rdp_code(3), "full")
    layout = build_layout(group, hadamard_3design(8))
    memos = {name for record in (group, layout) for name in vars(record) if name.startswith("_")}
    assert memos and named == memos

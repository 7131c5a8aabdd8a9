"""Print, as one JSON object, the bytes this interpreter makes: every
`$ declustr` command of the README transcript in table, csv and json, the
sha256 of the four pinned fills, and two s=2 sweeps: RDP p=3 on 3-(8,4,1)
and RDP p=7 on hadamard16, whose programs peel.

Needs no pytest, so any supported CPython can run it:
    PYTHONPATH=src python tests/interpreter_probe.py
`tests/test_interpreters.py` compares its output across interpreters.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from declustr import (
    balance_horizontal_code,
    build_layout,
    complete_design,
    design_from_json,
    exhaustive_verify,
    group_family,
    hadamard_3design,
    materialize,
    rdp_code,
    rs_code,
)
from declustr.cli import run
from test_readme import transcript

DESIGN_3_8_4_1 = Path(__file__).resolve().parent / "data" / "design_3_8_4_1.json"


def cli_outputs() -> dict:
    """Exit code and stdout of each README command in each format, run in
    order in one temp dir."""
    outputs, home = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, _ in transcript():
                for form in ("table", "csv", "json"):
                    command, out = [*argv, "--format", form], io.StringIO()
                    with redirect_stdout(out):
                        code = run(command)
                    outputs[" ".join(command)] = [code, out.getvalue()]
        finally:
            os.chdir(home)
    return outputs


def fill_digests() -> list[str]:
    """sha256 of seed 7's fill of the layouts `test_materialize_bytes_are_pinned` pins."""
    reference = design_from_json(json.loads(DESIGN_3_8_4_1.read_text()))
    layouts = [
        build_layout(balance_horizontal_code(rdp_code(3)), reference),
        build_layout(group_family(rs_code(6, 2), "full"), complete_design(9, 6, 3)),
        build_layout(group_family(rs_code(5, 3), "full"), complete_design(7, 5, 4)),
        build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3)),
    ]
    fills = (materialize(layout, 7).disks for layout in layouts)
    return [hashlib.sha256(b"".join(disks)).hexdigest() for disks in fills]


def main() -> None:
    layout = build_layout(balance_horizontal_code(rdp_code(3)), hadamard_3design(8))
    rdp7 = build_layout(group_family(rdp_code(7), "full"), hadamard_3design(16))
    probe = {
        "cli": cli_outputs(),
        "fill digests": fill_digests(),
        "s=2 sweep": repr(exhaustive_verify(layout, 2, seed=7)),
        "s=2 sweep rdp7": repr(exhaustive_verify(rdp7, 2, seed=7)),
    }
    sys.stdout.write(json.dumps(probe, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()

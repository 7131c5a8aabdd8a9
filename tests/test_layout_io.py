"""The file writer and the cost of saving and loading a layout.

dump_json must give exactly the bytes of json.dumps(obj, indent=2) plus a
newline for any payload, and layouts keep the bytes they were saved with.
Saving and loading decide at C level, so the Python calls they make do not
grow with the number of blocks.
"""

import hashlib
import json
import random
import re
import sys

import pytest
from constructions import orbit_design

from declustr import (
    build_layout,
    complete_design,
    deserialize_layout,
    group_family,
    hadamard_3design,
    rdp_code,
    rs_code,
    serialize_layout,
)
from declustr.designs import dump_json

STRINGS = (
    "", "a", "disk", "lambda", "é", "日本語", " ", "😀", '"', "\\", "\n\t", "\x00\x1f",
    '", "', "[", "]", "[1, 2]", "{}", "%d", "%s %%", ": ", "null",
)
NUMBERS = (
    0, 1, -1, 7, 255, 2**64, -(10**30), 10**100, 0.5, -0.0, 1e300, -1e-300,
    float("nan"), float("inf"), float("-inf"),
)
SCALARS = NUMBERS + STRINGS + (True, False, None)
KEYS = STRINGS + (0, -3, 2.5, True, False, None)


def _int_rows(rng):
    """A list of int lists, equal-length or else spoiled in one way."""
    width = rng.randint(0, 5)
    rows = [[rng.choice((0, 1, 9, -4, 2**70, -(2**70), 12345)) for _ in range(width)]
            for _ in range(rng.randint(1, 4))]
    spoil = rng.randrange(8)
    row = rng.choice(rows)
    if spoil == 0 and row:
        row[rng.randrange(len(row))] = rng.choice((True, False))
    elif spoil == 1:
        row.append(3)  # ragged, unless there is one row
    elif spoil == 2:
        rows.append([])
    elif spoil == 3 and row:
        row[rng.randrange(len(row))] = rng.choice(([], [1, 2], [[3]], 1.5, "7", None))
    elif spoil == 4:
        rows[rows.index(row)] = tuple(row)
    return rows


def _payload(rng, depth):
    kind = rng.randrange(9) if depth else 0
    if kind == 0:
        return rng.choice(SCALARS)
    if kind in (1, 2):
        return _int_rows(rng)
    width = rng.randint(0, 4)
    items = [_payload(rng, depth - 1) for _ in range(width)]
    if kind in (3, 4):
        return items
    if kind == 5:
        return tuple(items)
    if kind in (6, 7):
        return {rng.choice(STRINGS) + str(i): item for i, item in enumerate(items)}
    return {rng.choice(KEYS): item for item in items}


def test_dump_json_gives_the_bytes_of_json_dumps_indent_2():
    rng = random.Random("dump_json")
    for _ in range(20_000):
        payload = _payload(rng, rng.randint(0, 3))
        assert dump_json(payload) == json.dumps(payload, indent=2) + "\n", payload


@pytest.mark.parametrize("depth", [1, 400, 900, 5000])
def test_dump_json_matches_json_dumps_on_deep_nesting(depth):
    payload = [7]
    for _ in range(depth):
        payload = [payload]
    try:
        want = json.dumps(payload, indent=2) + "\n"
    except RecursionError:
        with pytest.raises(RecursionError):
            dump_json(payload)
    else:
        assert dump_json(payload) == want


@pytest.mark.parametrize("make", [
    lambda: {1: {2, 3}},
    lambda: [object()],
    lambda: {(1, 2): 3},
    lambda: (lambda cycle: cycle.append(cycle) or cycle)([[1]]),
], ids=["set", "object", "tuple key", "cycle"])
def test_dump_json_refuses_what_json_dumps_refuses(make):
    with pytest.raises(Exception) as want:
        json.dumps(make(), indent=2)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        dump_json(make())


# sha256 and length of serialize_layout's text, taken with the json.dumps
# writer this one replaced.
SAVED = {
    "pgl(19) k=4 + rs(4,2) full": (
        lambda: (orbit_design(19, (0, 1, 2, 3)), rs_code(4, 2), "full"),
        191713, "17790834ec27fddf36aadc438eb80605df600a2dba3d27fbda7c0d68ebd08582",
    ),
    "pgl(19) k=5 + rs(5,2) rotations": (
        lambda: (orbit_design(19, (0, 1, 3, 5, 6)), rs_code(5, 2), "rotations"),
        91192, "4d4467f88024a9e3a9ff2cb8828e79cb35392a4c7cfb1213b02783a9c30a3f8a",
    ),
    "complete(12,6,3) + rs(6,2) full": (
        lambda: (complete_design(12, 6, 3), rs_code(6, 2), "full"),
        138794, "8aa836b51ca9f4aae2395e180a3370475bcb85f2fcc396a42904d1472a7e74c5",
    ),
    "hadamard(16) + rdp(7) single": (
        lambda: (hadamard_3design(16), rdp_code(7), "single"),
        6022, "a038b17b5cdaaf84422698f25e0be889e2b8fb72a1056112f6386b9f5ab53729",
    ),
}


@pytest.mark.parametrize("name", SAVED)
def test_layouts_save_to_the_bytes_json_dumps_wrote(name):
    make, size, digest = SAVED[name]
    design, code, family = make()
    text = serialize_layout(build_layout(group_family(code, family), design))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (size, digest)


def _round_trip_calls(design) -> int:
    """Python-level calls one save and load of an rs(4,2) layout makes, warm."""
    layout = build_layout(group_family(rs_code(4, 2), "full"), design)

    def round_trip():
        return deserialize_layout(serialize_layout(layout))

    assert round_trip() == layout
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        round_trip()
    finally:
        sys.setprofile(None)
    return calls


def test_save_and_load_make_as_many_python_calls_for_any_block_count():
    # 495 and 1,820 blocks: the per-block work all runs at C level.
    small, large = complete_design(12, 4, 3), complete_design(16, 4, 3)
    assert (len(small.blocks), len(large.blocks)) == (495, 1820)
    assert _round_trip_calls(small) == _round_trip_calls(large)

"""Loading a saved layout checks its placements once.

check_fields has already taken only exact ints, so placements equal to the
design's sorted blocks are those blocks, and DeclusteredLayout skips its own
placement pass; placements in any other order still go through it.
"""

import json

import pytest

from declustr import (
    InvariantError,
    build_layout,
    complete_design,
    deserialize_layout,
    group_family,
    hadamard_3design,
    rdp_code,
    rotate_layout,
    rs_code,
    serialize_layout,
)
from declustr import layout as layout_module


def _loads_counting_placement_passes(text, monkeypatch):
    """The layout text loads to, and how often `_holds_blocks` ran."""
    calls = []
    holds_blocks = layout_module._holds_blocks

    def counted(placements, blocks):
        calls.append(placements)
        return holds_blocks(placements, blocks)

    monkeypatch.setattr(layout_module, "_holds_blocks", counted)
    return deserialize_layout(text), len(calls)


@pytest.mark.parametrize("make", [
    lambda: build_layout(group_family(rs_code(4, 2), "full"), complete_design(6, 4, 3)),
    lambda: build_layout(group_family(rdp_code(3), "single"), hadamard_3design(8)),
], ids=["rs complete(6,4,3)", "rdp hadamard8"])
def test_built_layouts_load_without_a_placement_pass(make, monkeypatch):
    layout = make()
    loaded, passes = _loads_counting_placement_passes(serialize_layout(layout), monkeypatch)
    assert loaded == layout
    assert loaded.placements is loaded.design.blocks
    assert passes == 0


def test_rotated_layouts_load_with_one_placement_pass(monkeypatch):
    single = build_layout(group_family(rs_code(4, 1), "single"), complete_design(5, 4, 2))
    layout = rotate_layout(single)
    loaded, passes = _loads_counting_placement_passes(serialize_layout(layout), monkeypatch)
    assert loaded == layout
    assert passes == 1


def test_swapped_placements_are_still_refused():
    layout = build_layout(group_family(rs_code(4, 2), "full"), complete_design(6, 4, 3))
    obj = json.loads(serialize_layout(layout))
    placements = obj["placements"]
    placements[0], placements[1] = placements[1], placements[0]
    with pytest.raises(InvariantError, match=r"^placement 0 disks \(0, 1, 2, 4\) do not match block \(0, 1, 2, 3\)$"):
        deserialize_layout(json.dumps(obj))

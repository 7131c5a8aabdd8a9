"""Placing group instances on disks: geometry, rotation, serialization."""

import json
import random
from types import SimpleNamespace

import pytest

from declustr import (
    DeclusteredLayout,
    balance_horizontal_code,
    build_layout,
    complete_design,
    deserialize_layout,
    layout_geometry,
    rdp_code,
    reduce_design,
    rotate_layout,
    rs_code,
    serialize_layout,
    single_arrangement_group,
    validate_design,
)
from declustr.errors import (
    FormatError,
    InvariantError,
    MismatchError,
    ParamError,
)
from declustr import designs, erasure_codes
from declustr import layout as layout_module
from declustr import parity_groups
from declustr.cli import run
from declustr.layout import placement_indices
from conftest import GROUPS_PER_DISK_3_8_4_1, REFERENCE_BLOCKS_3_8_4_1


def simple_parity_layout(bibd_design):
    return build_layout(single_arrangement_group(rs_code(4, 1)), bibd_design)


# ----------------------------------------------------------------- build

def test_reference_layout_geometry(reference_layout):
    assert reference_layout.n == 8
    assert len(reference_layout.placements) == 14
    assert reference_layout.units_per_disk == 7
    assert reference_layout.rows_per_disk == 168
    geometry = layout_geometry(reference_layout)
    assert geometry.rows_per_disk == 168
    assert geometry.column_units_per_disk == 7
    assert geometry.parity_units_per_disk == (84,) * 8
    assert geometry.parity_uniform
    assert geometry.data_disks == 4
    assert geometry.parity_disks == 4


def test_groups_stack_in_block_order(reference_layout):
    for disk, groups in GROUPS_PER_DISK_3_8_4_1.items():
        assert tuple(index for index, _ in reference_layout.stacks[disk]) == groups


@pytest.mark.parametrize("disk", [True, 1.5, "1", 8, 99, -1])
def test_check_index_rejects_bad_disks(reference_layout, disk):
    with pytest.raises(ParamError, match=r"^disk must be an int in 0\.\.7, got "):
        designs.check_ints(disk=disk, low=0, high=reference_layout.n - 1)


def walked_bits(mask):
    """Naive bit walk: the indices of the set bits of mask, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_placement_indices_match_a_bit_walk():
    # 1,710 is the largest placement count perfbench builds (3-(20,4,6)).
    rng = random.Random("placement_indices")
    masks = [0, 1 << 1709, (1 << 1710) - 1] + [1 << i for i in range(70)]
    masks += [rng.getrandbits(rng.randrange(1, 1711)) for _ in range(200)]
    layout = SimpleNamespace(indices=tuple(range(1710)))  # all it reads of a layout
    for mask in masks:
        assert list(placement_indices(layout, mask)) == walked_bits(mask), hex(mask)


def test_columns_map_to_sorted_block_elements(reference_layout):
    for placement, block in zip(
        reference_layout.placements, reference_layout.design.blocks
    ):
        assert placement == block
        assert list(placement) == sorted(placement)


def test_single_parity_goes_on_largest_disk(bibd_design):
    layout = simple_parity_layout(bibd_design)
    for placement in layout.placements:
        assert placement[-1] == max(placement)
    # the block on disks 1..4 keeps its data on 1, 2, 3 and parity on 4
    assert layout.placements[-1] == (1, 2, 3, 4)


def test_entry_conservation_between_views(reference_layout, bibd_design):
    for layout in (reference_layout, simple_parity_layout(bibd_design)):
        m = layout.group.m
        blocks = len(layout.placements)
        assert layout.rows_per_disk * layout.n == m * layout.group.k * blocks


def test_degenerate_single_block_layout():
    layout = build_layout(
        balance_horizontal_code(rdp_code(3)), complete_design(4, 4, 3)
    )
    assert len(layout.placements) == 1
    assert layout.units_per_disk == 1
    assert layout.rows_per_disk == layout.group.m == 24
    assert layout_geometry(layout).parity_disks == 2


def test_reduced_design_feeds_lower_strength_group(reference_design):
    pairs = reduce_design(reference_design, 2)
    layout = build_layout(single_arrangement_group(rs_code(4, 1)), pairs)
    assert layout.units_per_disk == 7


def test_build_rejects_size_mismatch(reference_design):
    with pytest.raises(MismatchError):
        build_layout(balance_horizontal_code(rs_code(5, 2)), reference_design)


@pytest.mark.parametrize(
    "change, error, message",
    [
        ({"n": 9}, InvariantError, "layout n=9 but design has n=8"),
        ({"n": 8.0}, InvariantError, "layout n=8.0 but design has n=8"),
        (
            {"group": balance_horizontal_code(rs_code(5, 2))},
            MismatchError,
            "group size k=5 does not match design block size k=4",
        ),
        ({"placements": REFERENCE_BLOCKS_3_8_4_1[1:]}, InvariantError, "13 placements for 14 blocks"),
        # Read once: a generator is counted as given, not after a check has consumed it.
        (
            {"placements": (disks for disks in REFERENCE_BLOCKS_3_8_4_1[1:])},
            InvariantError,
            "13 placements for 14 blocks",
        ),
        # Placement 0 equal to block 1: a layout reconstruction_workload once
        # reported as non-uniform, and whose saved file the loader refused.
        (
            {"placements": REFERENCE_BLOCKS_3_8_4_1[1:2] + REFERENCE_BLOCKS_3_8_4_1[1:]},
            InvariantError,
            "placement 0 disks (0, 1, 4, 5) do not match block (0, 1, 2, 3)",
        ),
        (
            {"placements": ((0, 1, 1, 3),) + REFERENCE_BLOCKS_3_8_4_1[1:]},
            InvariantError,
            "placement 0 disks (0, 1, 1, 3) do not match block (0, 1, 2, 3)",
        ),
        (
            {"placements": ((3, 2, 1, 0),) + REFERENCE_BLOCKS_3_8_4_1[1:] + ((0, 1, 2, 8),)},
            InvariantError,
            "15 placements for 14 blocks",
        ),
        (
            {"placements": ((False, 1, 2, 3),) + REFERENCE_BLOCKS_3_8_4_1[1:]},
            InvariantError,
            "placement 0 disks (False, 1, 2, 3) do not match block (0, 1, 2, 3)",
        ),
        (
            {"placements": ((0, 1, 2, 3.0),) + REFERENCE_BLOCKS_3_8_4_1[1:]},
            InvariantError,
            "placement 0 disks (0, 1, 2, 3.0) do not match block (0, 1, 2, 3)",
        ),
    ],
    ids=[
        "n", "float-n", "k", "too-few", "too-few-generator", "other-block", "repeated-disk", "too-many",
        "bool-disk", "float-disk",
    ],
)
def test_layout_checks_itself_when_built(reference_layout, change, error, message):
    fields = {name: getattr(reference_layout, name) for name in ("n", "design", "group", "placements")}
    with pytest.raises(error) as info:
        DeclusteredLayout(**{**fields, **change})
    assert str(info.value) == message


def test_build_rejects_strength_mismatch(reference_design, bibd_design):
    with pytest.raises(MismatchError):
        build_layout(single_arrangement_group(rs_code(4, 1)), reference_design)
    with pytest.raises(MismatchError):
        build_layout(balance_horizontal_code(rdp_code(3)), bibd_design)


# ---------------------------------------------------------------- rotate

def test_rotation_balances_parity_units(bibd_design):
    layout = simple_parity_layout(bibd_design)
    before = layout_geometry(layout)
    assert not before.parity_uniform
    assert before.parity_units_per_disk == (0, 0, 0, 1, 4)
    rotated = rotate_layout(layout)
    after = layout_geometry(rotated)
    assert after.parity_units_per_disk == (5,) * 5
    assert after.rows_per_disk == 20
    assert rotated.design.lam == 15
    assert len(rotated.placements) == 25
    assert after.parity_disks == before.parity_disks


def test_rotation_shifts_placements_without_reordering_columns(bibd_design):
    layout = simple_parity_layout(bibd_design)
    rotated = rotate_layout(layout)
    blocks = len(layout.placements)
    for shift in range(5):
        for index, placement in enumerate(layout.placements):
            shifted = rotated.placements[shift * blocks + index]
            assert shifted == tuple((d + shift) % 5 for d in placement)


def test_double_rotation_keeps_uniform_counts(bibd_design):
    rotated = rotate_layout(simple_parity_layout(bibd_design))
    twice = rotate_layout(rotated)
    geometry = layout_geometry(twice)
    assert geometry.parity_uniform
    assert geometry.parity_disks == layout_geometry(rotated).parity_disks


def test_rotation_rejects_multi_parity_layouts(reference_layout):
    with pytest.raises(ParamError):
        rotate_layout(reference_layout)


def test_degenerate_rotation_on_n_equals_k():
    layout = build_layout(
        single_arrangement_group(rs_code(4, 1)), complete_design(4, 4, 2)
    )
    rotated = rotate_layout(layout)
    geometry = layout_geometry(rotated)
    assert geometry.parity_units_per_disk == (1,) * 4


# ------------------------------------------------------------- round trip

def test_serialize_round_trip(reference_layout):
    again = deserialize_layout(serialize_layout(reference_layout))
    assert again.placements == reference_layout.placements
    assert again.design == reference_layout.design
    assert again.group.family == reference_layout.group.family
    assert again.group.extended_rows == reference_layout.group.extended_rows


def test_rotated_layout_round_trip(bibd_design):
    rotated = rotate_layout(simple_parity_layout(bibd_design))
    again = deserialize_layout(serialize_layout(rotated))
    assert again.placements == rotated.placements
    assert again.design.lam == 15


def test_serialize_refuses_custom_families(reference_layout):
    from declustr import ParityGroup

    custom = ParityGroup(
        code=reference_layout.group.code,
        extended_rows=reference_layout.group.extended_rows[:2],
    )
    hacked = build_layout(custom, reference_layout.design)
    with pytest.raises(FormatError):
        serialize_layout(hacked)


def test_deserialize_rejects_bad_json():
    with pytest.raises(FormatError):
        deserialize_layout("{not json")


def test_deserialize_rejects_missing_fields(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    del obj["group"]
    with pytest.raises(FormatError):
        deserialize_layout(json.dumps(obj))


def test_deserialize_warns_on_unknown_fields(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["note"] = "x"
    with pytest.warns(UserWarning, match="note"):
        again = deserialize_layout(json.dumps(obj))
    assert again.placements == reference_layout.placements


def test_deserialize_rejects_point_beyond_n(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["design"]["blocks"][0] = [0, 1, 2, 8]
    with pytest.raises(InvariantError):
        deserialize_layout(json.dumps(obj))


def test_deserialize_rejects_duplicate_disk_in_placement(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["placements"][0] = [0, 1, 1, 3]
    with pytest.raises(InvariantError):
        deserialize_layout(json.dumps(obj))


@pytest.mark.parametrize("placement", [[False, 1, 2, 3], [0, True, 2, 3], [0, 1, 2, "3"], [0, 1, 2, 3.0]])
def test_deserialize_rejects_non_integer_disks(reference_layout, placement):
    # JSON false/true are Python bools, which pass isinstance(..., int) and
    # compare equal to 0/1, so without a type check they would match block 0.
    obj = json.loads(serialize_layout(reference_layout))
    obj["placements"][0] = placement
    with pytest.raises(FormatError, match="placements"):
        deserialize_layout(json.dumps(obj))


def test_deserialize_rejects_placement_block_mismatch(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["placements"][0] = [0, 1, 2, 4]
    with pytest.raises(InvariantError):
        deserialize_layout(json.dumps(obj))


def test_deserialize_rejects_wrong_disk_count(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["n"] = 9
    with pytest.raises(InvariantError):
        deserialize_layout(json.dumps(obj))


def test_deserialize_rejects_broken_design_coverage(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["design"]["lambda"] = 2
    with pytest.raises(InvariantError):
        deserialize_layout(json.dumps(obj))


def test_deserialize_rejects_unknown_group(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = {"code": "evenodd", "p": 3}
    with pytest.raises(FormatError):
        deserialize_layout(json.dumps(obj))
    obj["group"] = {"code": "rdp", "p": 3, "family": "zigzag"}
    with pytest.raises(FormatError):
        deserialize_layout(json.dumps(obj))


def test_deserialize_rejects_strength_mismatch(reference_layout, bibd_design):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = {"code": "rs", "k": 4, "delta": 1}
    with pytest.raises(InvariantError):
        deserialize_layout(json.dumps(obj))


@pytest.mark.parametrize("raw", [b"\xff\xfe\x80", b'{"n": 8, "design": "\xe9"}'])
def test_deserialize_rejects_undecodable_bytes(raw):
    with pytest.raises(FormatError, match="not valid JSON"):
        deserialize_layout(raw)


@pytest.mark.parametrize(
    "group, field",
    [
        ({"code": "rdp", "p": 3.0}, "p"),
        ({"code": "rdp", "p": True}, "p"),
        ({"code": "rs", "k": 4.0, "delta": 2}, "k"),
        ({"code": "rs", "k": 4, "delta": "2"}, "delta"),
        ({"code": "rs", "k": 4, "delta": None}, "delta"),
    ],
)
def test_deserialize_rejects_non_integer_code_parameters(reference_layout, group, field):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = group
    with pytest.raises(FormatError, match=f"'{field}' must be an integer"):
        deserialize_layout(json.dumps(obj))


@pytest.mark.parametrize(
    "group",
    [{"code": "rdp", "p": 31}, {"code": "rs", "k": 6, "delta": 2}, {"code": "rs", "k": 4, "delta": 1}],
    ids=["prime-31", "rs-k6", "rs-delta1"],
)
def test_deserialize_checks_the_fit_before_building_the_family(monkeypatch, reference_layout, group):
    # The RDP p=31 family alone is 2*C(32,2) = 992 arrangements; a group that
    # does not fit the design is refused before any is built.
    calls = []
    for module, name in [(layout_module, "group_family"), (parity_groups, "_all_arrangements")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real: calls.append(a) or real(*a))
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = group
    with pytest.raises(InvariantError, match="does not fit"):
        deserialize_layout(obj)
    assert calls == []
    assert deserialize_layout(serialize_layout(reference_layout)) == reference_layout
    assert len(calls) == 2


def test_deserialize_refuses_a_huge_parameter_before_testing_it(monkeypatch, reference_layout):
    # Trial division takes sqrt(p) steps: 10**12 + 39, a prime, took 0.1 s.
    def refuse(p):
        raise AssertionError(f"is_prime({p}) called")

    monkeypatch.setattr(erasure_codes, "is_prime", refuse)
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = {"code": "rdp", "p": 10**12 + 39}
    with pytest.raises(FormatError, match="p = 1000000000039 as a code parameter exceeds"):
        deserialize_layout(obj)
    obj["group"] = {"code": "rs", "k": 4, "delta": 10**6 + 1}
    with pytest.raises(FormatError, match="delta = 1000001 as a code parameter exceeds"):
        deserialize_layout(obj)


def test_layout_inspect_refuses_a_group_that_does_not_fit(capsys, tmp_path, reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = {"code": "rdp", "p": 31}
    path = tmp_path / "p31.json"
    path.write_text(json.dumps(obj))
    code = run(["layout", "inspect", "--layout", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: group (k=32, delta=2) does not fit a 3-(8,4,1) design\n"


@pytest.mark.parametrize(
    "group, message",
    [
        ([], "group descriptor must be a JSON object, got list"),
        ({"p": 3}, "group descriptor object is missing fields: code"),
        ({"code": "rdp"}, "group descriptor object is missing fields: p"),
        ({"code": "rs", "k": 4}, "group descriptor object is missing fields: delta"),
        ({"code": ["rdp"], "p": 3}, "group descriptor field 'code' must be one of rdp, rs, got ['rdp']"),
        (
            {"code": "rdp", "p": 3, "family": "zigzag"},
            "group descriptor field 'family' must be one of full, single, rotations, got 'zigzag'",
        ),
        ({"code": "rdp", "p": 4}, "bad group descriptor: rdp needs a prime p >= 3, got 4"),
        # Past float range, where the primality test once raised OverflowError:
        # now refused by the parameter bound before the code is built.
        (
            {"code": "rdp", "p": 10**400},
            f"bad group descriptor: p = {10**400} as a code parameter exceeds the limit of 1000000",
        ),
    ],
    ids=["list", "no-code", "no-p", "no-delta", "list-code", "bad-family", "p-not-prime", "p-huge"],
)
def test_deserialize_names_the_bad_descriptor_field(reference_layout, group, message):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"] = group
    with pytest.raises(FormatError) as info:
        deserialize_layout(obj)
    assert str(info.value) == message


def test_deserialize_warns_on_unknown_descriptor_keys(reference_layout):
    obj = json.loads(serialize_layout(reference_layout))
    obj["group"]["k"] = 4
    with pytest.warns(UserWarning, match="ignoring unknown group descriptor fields: k"):
        again = deserialize_layout(obj)
    assert again == reference_layout


def test_descriptor_keys_follow_the_code_table(reference_layout, bibd_design):
    assert json.loads(serialize_layout(reference_layout))["group"] == {"code": "rdp", "p": 3}
    rotated = rotate_layout(simple_parity_layout(bibd_design))
    assert list(json.loads(serialize_layout(rotated))["group"].items()) == [
        ("code", "rs"), ("k", 4), ("delta", 1), ("family", "single"),
    ]


@pytest.mark.parametrize(
    "argv", [("layout", "inspect", "--layout"), ("design", "validate", "--file")]
)
def test_integers_python_will_not_parse_are_a_one_line_error(capsys, tmp_path, argv):
    # json.loads raises a plain ValueError for an integer over 4,300 digits.
    with pytest.raises(FormatError, match="not valid JSON"):
        deserialize_layout('{"n": ' + "1" * 5000 + "}")
    path = tmp_path / "long_int.json"
    path.write_text('{"n": ' + "1" * 5000 + "}")
    code = run([*argv, str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "not valid JSON" in err and err.count("\n") == 1

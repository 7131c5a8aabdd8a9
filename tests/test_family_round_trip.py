"""A group's family is read off its rows, and layouts round-trip through JSON.

Every builder's group reports its builder's name, before and after a layout
file round trip; any other rows, such as a subset or a reordering of a
family's rows, report "custom" and have no serialized form.
"""

import random

import pytest

from declustr import (
    ParityGroup,
    balance_horizontal_code,
    build_layout,
    complete_design,
    deserialize_layout,
    group_family,
    hadamard_3design,
    rdp_code,
    reconstruction_workload,
    rotate_layout,
    rs_code,
    serialize_layout,
)
import declustr.parity_groups as parity_groups
from declustr.errors import FormatError
from declustr.parity_groups import FAMILIES

# Each code over a design it fits: block size k and strength delta + 1.
CASES = {
    "rdp3": (lambda: rdp_code(3), lambda: hadamard_3design(8)),
    "rdp5": (lambda: rdp_code(5), lambda: complete_design(7, 6, 3)),
    "rs4-1": (lambda: rs_code(4, 1), lambda: complete_design(5, 4, 2)),
    "rs4-2": (lambda: rs_code(4, 2), lambda: hadamard_3design(8)),
    "rs5-3": (lambda: rs_code(5, 3), lambda: complete_design(6, 5, 4)),
}


def _mutants(rows, rng, count):
    """count random subsets and reorderings of rows, each a non-empty tuple."""
    for _ in range(count):
        picked = list(rows)
        rng.shuffle(picked)
        if rng.random() < 0.5:
            picked = picked[: rng.randint(1, len(picked))]
        yield tuple(picked)


@pytest.mark.parametrize("case", CASES)
def test_layouts_round_trip_and_families_come_from_their_rows(case):
    make_code, make_design = CASES[case]
    code, design = make_code(), make_design()
    rng = random.Random(f"family-{case}")
    named = {group_family(code, family).extended_rows: family for family in FAMILIES}
    assert len(named) == len(FAMILIES)
    for family in FAMILIES:
        layout = build_layout(group_family(code, family), design)
        layouts = [layout, rotate_layout(layout)] if code.delta == 1 else [layout]
        for built in layouts:
            again = deserialize_layout(serialize_layout(built))
            assert again == built
            assert again.group.family == built.group.family == family
        for rows in _mutants(layout.group.extended_rows, rng, 12):
            group = ParityGroup(code, rows)
            assert group.family == named.get(rows, "custom")
            if group.family == "custom":
                with pytest.raises(FormatError, match="has no serialized form"):
                    serialize_layout(build_layout(group, design))


def test_rows_of_the_full_family_are_full_and_fewer_are_custom():
    # A caller once labelled any rows "full": three of RS(4,2)'s twelve then
    # saved as the full family, reloaded as a different group, and
    # reconstruction_workload raised UnbalancedGroup from the closed form.
    code, design = rs_code(4, 2), hadamard_3design(8)
    rows = balance_horizontal_code(code).extended_rows
    full = build_layout(ParityGroup(code, rows), design)
    assert full.group.family == "full"
    report = reconstruction_workload(full, [0])
    assert report.uniform and report.closed_form == report.reads[1] == 24
    assert deserialize_layout(serialize_layout(full)) == full

    partial = build_layout(ParityGroup(code, rows[:3]), design)
    assert partial.group.family == "custom"
    report = reconstruction_workload(partial, [0])
    assert report.closed_form is None and not report.uniform
    with pytest.raises(FormatError, match="family 'custom' has no serialized form"):
        serialize_layout(partial)
    with pytest.raises(TypeError):
        ParityGroup(code, rows[:3], family="full")


def test_a_family_is_its_rows_in_order():
    # RS(4,1)'s full family puts P1 at positions 0..3; the rotations put it
    # at 3, 0, 1, 2. The same rows in the other order are the other family.
    code = rs_code(4, 1)
    rows = balance_horizontal_code(code).extended_rows
    assert ParityGroup(code, rows[-1:] + rows[:-1]).family == "rotations"
    assert ParityGroup(code, rows[-1:]).family == "single"


def test_group_family_builds_a_family_once(monkeypatch):
    # .family on a group_family group once ran the builder again: building an
    # RS(4,2) layout, one query, one round trip and one save of the loaded
    # layout made 4 builds where the two groups need 2.
    builds = []
    build = parity_groups._all_arrangements

    def counting(k, delta):
        builds.append((k, delta))
        return build(k, delta)

    monkeypatch.setattr(parity_groups, "_all_arrangements", counting)
    layout = build_layout(group_family(rs_code(4, 2), "full"), hadamard_3design(8))
    assert reconstruction_workload(layout, [0, 1]).closed_form == 44
    loaded = deserialize_layout(serialize_layout(layout))
    assert serialize_layout(loaded) == serialize_layout(layout)
    assert builds == [(4, 2)] * 2


CODES = [rdp_code(3), rdp_code(5)] + [rs_code(k, d) for k in range(2, 7) for d in range(1, k)]


@pytest.mark.parametrize("code", CODES, ids=lambda c: f"rdp{c.p}" if c.kind == "rdp" else f"rs{c.k}-{c.delta}")
def test_a_cached_family_name_is_the_one_its_rows_read_as(code):
    for family in FAMILIES:
        group = group_family(code, family)
        assert group.family == ParityGroup(code, group.extended_rows).family == family

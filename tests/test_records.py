"""The record classes' shared semantics: construction, equality, hashing,
assignment and repr, pinned over every public record and the CLI's Result."""

from __future__ import annotations

import pytest

from declustr import (
    ArrangementCounts,
    BalanceReport,
    CounterexampleReport,
    DeclusteredLayout,
    Design,
    DesignParams,
    DiskArray,
    HorizontalCode,
    IOStats,
    LayoutGeometry,
    ParityGroup,
    ReconstructionPlan,
    SetResult,
    TradeoffRow,
    UnitProvenance,
    VerifySummary,
    WorkloadReport,
    arrangement_counts,
    balance_horizontal_code,
    build_layout,
    counterexample_report,
    exhaustive_verify,
    fail_and_reconstruct,
    layout_geometry,
    materialize,
    rdp_code,
    reconstruction_plan,
    reconstruction_workload,
    reduce_design,
    rotate_layout,
    rs_code,
    serialize_layout,
    single_arrangement_group,
    tradeoff_table,
    unit_provenance,
    validate_design,
    verify_balance,
)
from declustr.cli import Result

from conftest import REFERENCE_BLOCKS_3_8_4_1


def _reference():
    design = validate_design(REFERENCE_BLOCKS_3_8_4_1, t=3, n=8, k=4, lam=1)
    layout = build_layout(balance_horizontal_code(rdp_code(3)), design)
    array = materialize(layout, seed=1)
    summary = exhaustive_verify(layout, 1)
    return {
        HorizontalCode: layout.group.code,
        ParityGroup: layout.group,
        DesignParams: design.params,
        Design: design,
        DeclusteredLayout: layout,
        LayoutGeometry: layout_geometry(layout),
        WorkloadReport: reconstruction_workload(layout, {0}),
        TradeoffRow: tradeoff_table(8, [(4, 1)])[0],
        CounterexampleReport: counterexample_report(layout.group, design, {0}),
        ReconstructionPlan: reconstruction_plan(layout.group, (0,)),
        ArrangementCounts: arrangement_counts(layout.group, 0, 1),
        BalanceReport: verify_balance(layout.group, 2),
        DiskArray: array,
        IOStats: fail_and_reconstruct(array, {0})[1],
        SetResult: summary.results[0],
        VerifySummary: summary,
        UnitProvenance: unit_provenance(layout, 0, 0),
        Result: Result({"n": 8}, "n", [[8]], ["n  8"], 1),
    }


REFERENCE = _reference()

# Each record's fields in order. The ones after "|" are left out of repr.
FIELDS = {
    HorizontalCode: "kind k delta r",
    ParityGroup: "code extended_rows",
    DesignParams: "t n k lam",
    Design: "params blocks",
    DeclusteredLayout: "n design group placements",
    LayoutGeometry: "rows_per_disk column_units_per_disk parity_units_per_disk parity_uniform "
                    "data_disks parity_disks",
    WorkloadReport: "failed reads uniform closed_form fraction",
    TradeoffRow: "k lam pct_one_failure pct_two_failures parity_disks depth_over_m",
    CounterexampleReport: "failed n block_count labels accessed units_accessed entries_read "
                          "uniform_units uniform_entries",
    ReconstructionPlan: "lost reads | delta rows columns",
    ArrangementCounts: "r_dq r_pq r_qp",
    BalanceReport: "c1 c2 c3 c4 taus",
    DiskArray: "layout disks",
    IOStats: "reads writes",
    SetResult: "failed recovered min_reads max_reads",
    VerifySummary: "s total passed results min_reads max_reads uniform",
    UnitProvenance: "block_index extended_row inner_row label",
    Result: "json header rows table code",
}

MUTABLE = {DiskArray, BalanceReport}

# Memos: filled by queries, never part of a record's value.
MEMOS = {ParityGroup: ("_plans",), DeclusteredLayout: ("_closed_forms",)}


def _fields(cls):
    shown, _, hidden = FIELDS[cls].partition("|")
    return shown.split(), hidden.split()


def _values(cls):
    shown, hidden = _fields(cls)
    names = shown + hidden
    return names, [getattr(REFERENCE[cls], name) for name in names]


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:  # a field holds a dict or list
        return type(exc)


def test_every_record_is_covered():
    import declustr

    exported = (getattr(declustr, name) for name in declustr.__all__)
    records = {cls for cls in exported if isinstance(cls, type) and not issubclass(cls, Exception)}
    assert records == set(FIELDS) - {Result}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    names, values = _values(cls)
    keywords = dict(zip(names, values))
    made = cls(*values)
    assert made == cls(**keywords) == REFERENCE[cls]
    assert not made != cls(**keywords)

    # A missing, extra, unknown or repeated argument is a TypeError.
    for bad_args, bad_kwargs in [
        ((), {name: value for name, value in keywords.items() if name != names[0]}),
        ((*values, None), {}),
        ((), {**keywords, "extra": None}),
        (values[:1], keywords),
    ]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)

    # Equal only within the class: a record is no tuple, and equals no tuple of its values.
    assert not isinstance(made, tuple)
    assert made != tuple(values) and made != object()

    if cls in MUTABLE:
        assert type(made).__hash__ is None
        with pytest.raises(TypeError):
            hash(made)
        setattr(made, names[0], values[0])
        assert made == REFERENCE[cls]
    else:
        assert type(made).__hash__ is not None
        assert _hash(made) == _hash(cls(**keywords))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(made, name, values[0])
            with pytest.raises(AttributeError):
                delattr(made, name)
        assert made == REFERENCE[cls]

    shown, hidden = _fields(cls)
    assert repr(made) == f"{cls.__name__}({', '.join(f'{name}={keywords[name]!r}' for name in shown)})"
    for name in hidden + list(MEMOS.get(cls, ())):
        assert f"{name}=" not in repr(made)


def test_a_field_default_fills_a_missing_argument():
    assert Result({}, "h", [], []) == Result({}, "h", [], [], 0)
    assert Result(json={}, header="h", rows=[], table=[]).code == 0
    with pytest.raises(TypeError):
        Result({}, "h", [], code=1)


def test_repr_reads_as_a_call():
    assert repr(rdp_code(5)) == "HorizontalCode(kind='rdp', k=6, delta=2, r=4)"
    assert repr(HorizontalCode("rdp", 4, 2, 2)) == "HorizontalCode(kind='rdp', k=4, delta=2, r=2)"
    plan = reconstruction_plan(balance_horizontal_code(rdp_code(3)), (0, 1))
    assert repr(plan) == f"ReconstructionPlan(lost=(0, 1), reads={plan.reads!r})"


@pytest.mark.parametrize("cls", sorted(MEMOS, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_filled_memos_take_no_part_in_value(cls):
    names, values = _values(cls)
    fresh = cls(*values)
    used = REFERENCE[cls]
    # The reference group and layout have answered queries: their memos are filled.
    reconstruction_plan(used.group if cls is DeclusteredLayout else used, (1,))
    reconstruction_workload(REFERENCE[DeclusteredLayout], {1, 2})
    assert any(getattr(used, memo) for memo in MEMOS[cls])
    assert not any(getattr(fresh, memo) for memo in MEMOS[cls])
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
    # Each instance has memos of its own.
    assert all(getattr(fresh, memo) is not getattr(used, memo) for memo in MEMOS[cls])


def _rotated_layout():
    """A layout whose placements are not its design's blocks: each rotated
    placement keeps its column order."""
    design = reduce_design(REFERENCE[Design], 2)
    return rotate_layout(build_layout(single_arrangement_group(rs_code(4, 1)), design))


@pytest.mark.parametrize("make", [lambda: REFERENCE[DeclusteredLayout], _rotated_layout],
                         ids=["blocks", "rotated"])
def test_every_placement_form_builds_the_same_layout(make):
    layout = make()
    n, design, group, placements = layout.n, layout.design, layout.group, layout.placements
    text = serialize_layout(layout)
    forms = {
        "tuple": tuple(tuple(list(disks)) for disks in placements),
        "list of lists": [list(disks) for disks in placements],
        "iterator of lists": (list(disks) for disks in placements),
    }
    for form, given in forms.items():
        made = DeclusteredLayout(n, design, group, given)
        assert made == layout and hash(made) == hash(layout), form
        assert serialize_layout(made) == text, form
        assert all(type(disks) is tuple for disks in made.placements), form
        # Placements equal to the blocks are stored as the blocks themselves.
        assert (made.placements is design.blocks) == (placements == design.blocks), form


def test_every_disk_form_builds_the_same_array():
    array = REFERENCE[DiskArray]
    forms = {
        "tuple": tuple(map(bytearray, array.disks)),
        "list": list(map(bytearray, array.disks)),
        "generator": (bytearray(disk) for disk in array.disks),
    }
    for form, given in forms.items():
        made = DiskArray(array.layout, given)
        assert made == array and type(made.disks) is list, form

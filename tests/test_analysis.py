"""Workload enumeration, closed forms, trade-off rows, display rounding."""

from decimal import ROUND_HALF_UP, Decimal, getcontext
from fractions import Fraction
from itertools import combinations

import pytest

from declustr import (
    TRADEOFF_LAMBDA_PRESETS,
    balance_horizontal_code,
    build_layout,
    closed_form_workload,
    complete_design,
    counterexample_report,
    layout_geometry,
    rdp_code,
    reconstruction_workload,
    round_half_up,
    rs_code,
    single_arrangement_group,
    tradeoff_table,
)
from declustr.errors import ParamError, TooManyFailures

from constructions import complement_design, orbit_design, paley_hadamard, sqs20


# ------------------------------------------------------------- enumeration

def test_single_failures_read_48_everywhere(reference_layout):
    for disk in range(8):
        report = reconstruction_workload(reference_layout, {disk})
        assert report.uniform
        assert set(report.reads.values()) == {48}
        assert report.closed_form == 48
        assert report.fraction == Fraction(2, 7)


def test_double_failures_read_88_everywhere(reference_layout):
    for failed in combinations(range(8), 2):
        report = reconstruction_workload(reference_layout, failed)
        assert report.uniform
        assert set(report.reads.values()) == {88}
        assert report.closed_form == 88
        assert report.fraction == Fraction(88, 168) == Fraction(11, 21)


def test_no_failures_reads_nothing(reference_layout):
    report = reconstruction_workload(reference_layout, ())
    assert set(report.reads.values()) == {0}
    assert report.uniform
    assert report.fraction == 0
    assert report.closed_form is None


def test_reads_cover_only_survivors(reference_layout):
    report = reconstruction_workload(reference_layout, {3, 6})
    assert sorted(report.reads) == [0, 1, 2, 4, 5, 7]


def test_too_many_failures_rejected(reference_layout):
    with pytest.raises(TooManyFailures):
        reconstruction_workload(reference_layout, {0, 1, 2})


def test_unknown_disk_rejected(reference_layout):
    with pytest.raises(ParamError):
        reconstruction_workload(reference_layout, {8})
    # True == 1, but a flag is not a disk number.
    with pytest.raises(ParamError):
        reconstruction_workload(reference_layout, [True])


def test_unbalanced_family_shows_uneven_reads(reference_design):
    layout = build_layout(single_arrangement_group(rdp_code(3)), reference_design)
    report = reconstruction_workload(layout, {0, 1})
    assert not report.uniform
    assert report.closed_form is None
    assert report.fraction is None


# ------------------------------------------------------------ closed forms

def test_closed_form_composition(reference_layout):
    params = reference_layout.design.params
    group = reference_layout.group
    assert closed_form_workload(params, group, 1) == 3 * 16
    assert closed_form_workload(params, group, 2) == 1 * 24 + 2 * 2 * 16


def test_closed_form_matches_enumeration_on_larger_fixture():
    design = complete_design(10, 4, 3)
    layout = build_layout(balance_horizontal_code(rs_code(4, 2)), design)
    for s in (1, 2):
        expected = closed_form_workload(design.params, layout.group, s)
        for failed in combinations(range(10), s):
            report = reconstruction_workload(layout, failed)
            assert report.uniform
            assert set(report.reads.values()) == {expected}


def test_closed_form_full_read_when_not_declustered():
    design = complete_design(4, 4, 3)
    layout = build_layout(balance_horizontal_code(rdp_code(3)), design)
    assert closed_form_workload(design.params, layout.group, 2) == 24
    report = reconstruction_workload(layout, {0, 1})
    assert set(report.reads.values()) == {24}
    assert report.fraction == 1


@pytest.mark.parametrize(
    "params_args,code,s",
    [
        ((2, 5, 4, 3), ("rs", 4, 2), 2),  # s > t-1
        ((3, 8, 4, 1), ("rs", 4, 1), 2),  # s > delta
        ((3, 8, 4, 1), ("rs", 5, 2), 1),  # k mismatch
    ],
)
def test_closed_form_rejects_unsupported_inputs(params_args, code, s):
    from declustr import DesignParams

    params = DesignParams(*params_args)
    group = balance_horizontal_code(
        rdp_code(code[1]) if code[0] == "rdp" else rs_code(*code[1:])
    )
    with pytest.raises(ParamError):
        closed_form_workload(params, group, s)


@pytest.mark.parametrize("s", [2.0, 1.0, True, "2"])
def test_closed_form_rejects_non_int_sizes(reference_layout, s):
    with pytest.raises(ParamError):
        closed_form_workload(reference_layout.design.params, reference_layout.group, s)


def test_fraction_formulas():
    row = tradeoff_table(8, [(4, 1)])[0]
    assert row.pct_one_failure == 100 * Fraction(2, 7)
    assert row.pct_two_failures == 100 * Fraction(22, 42)
    assert tradeoff_table(20, [(10, 1)])[0].pct_one_failure == 100 * Fraction(8, 19)
    with pytest.raises(ParamError):
        tradeoff_table(4, [(5, 1)])


# ---------------------------------------------------------------- tradeoff

def test_tradeoff_reference_rows():
    rows = tradeoff_table(20, [(3, 1), (10, 4), (20, 1)])
    by_k = {row.k: row for row in rows}
    assert round_half_up(by_k[3].pct_one_failure) == "5.3"
    assert round_half_up(by_k[3].pct_two_failures) == "10.5"
    assert round_half_up(by_k[3].parity_disks) == "13.3"
    assert by_k[3].depth_over_m == 171
    assert round_half_up(by_k[10].pct_one_failure) == "42.1"
    assert round_half_up(by_k[10].pct_two_failures) == "67.8"
    assert by_k[10].parity_disks == 4
    assert by_k[10].depth_over_m == 19
    assert round_half_up(by_k[20].pct_one_failure) == "94.7"
    assert by_k[20].pct_two_failures == 100
    assert by_k[20].depth_over_m == 1


def test_tradeoff_k10_row_is_the_paley_layouts_workload():
    # fig13's k = 10 row, built: the Paley Hadamard 3-(20,10,4) with RS(10,2), full family.
    design = paley_hadamard(19)
    assert len(design.blocks) == 38 and design.params.lam == TRADEOFF_LAMBDA_PRESETS["fig13"][10]
    layout = build_layout(balance_horizontal_code(rs_code(10, 2)), design)
    (row,) = tradeoff_table(20, [(10, 4)])
    assert reconstruction_workload(layout, {0}).fraction * 100 == row.pct_one_failure == Fraction(800, 19)
    assert reconstruction_workload(layout, {0, 1}).fraction * 100 == row.pct_two_failures == Fraction(11600, 171)
    assert layout.rows_per_disk / layout.group.m == row.depth_over_m == 19
    assert layout_geometry(layout).parity_disks == row.parity_disks


def test_tradeoff_k5_row_is_the_pgl_orbit_layouts_workload():
    # fig13's k = 5 row, built: the PGL(2,19) orbit 3-(20,5,6) with RS(5,2), full family.
    design = orbit_design(19, (0, 1, 3, 5, 6))
    assert len(design.blocks) == 684 and design.params.lam == TRADEOFF_LAMBDA_PRESETS["fig13"][5]
    layout = build_layout(balance_horizontal_code(rs_code(5, 2)), design)
    (row,) = tradeoff_table(20, [(5, 6)])
    assert reconstruction_workload(layout, {0}).fraction * 100 == row.pct_one_failure == Fraction(300, 19)
    assert reconstruction_workload(layout, {0, 1}).fraction * 100 == row.pct_two_failures == Fraction(1700, 57)
    assert layout.rows_per_disk / layout.group.m == row.depth_over_m == 171
    assert layout_geometry(layout).parity_disks == row.parity_disks


# Base blocks of PGL(2,19) orbits at fig13's lambda, stabilizers of order 12, 6, 24 and
# 18 for k = 6..9; k = 11..15 take the complements of the k = 9..5 orbits.
FIG13_BASES = {
    5: (0, 1, 3, 5, 6),
    6: (0, 1, 2, 3, 11, 19),
    7: (0, 1, 2, 3, 9, 11, 19),
    8: (0, 1, 2, 5, 12, 13, 15, 19),
    9: (0, 1, 2, 3, 5, 6, 16, 17, 19),
}


def _fig13_design(k: int):
    if k in (3, 17, 18, 19, 20):  # lambda = C(17, k - 3)
        return complete_design(20, k, 3)
    if k in (4, 16):
        return sqs20() if k == 4 else complement_design(sqs20())
    if k in FIG13_BASES:
        return orbit_design(19, FIG13_BASES[k])
    return complement_design(orbit_design(19, FIG13_BASES[20 - k]))


@pytest.mark.parametrize("k", [3, 4, 6, 7, 8, 9, *range(11, 21)])
def test_tradeoff_row_is_the_built_layouts_workload(k):
    # fig13's other rows, built at the preset lambda with RS(k,2), full family.
    lam = TRADEOFF_LAMBDA_PRESETS["fig13"][k]
    design = _fig13_design(k)
    assert design.params.lam == lam
    layout = build_layout(balance_horizontal_code(rs_code(k, 2)), design)
    (row,) = tradeoff_table(20, [(k, lam)])
    assert reconstruction_workload(layout, {0}).fraction * 100 == row.pct_one_failure
    assert reconstruction_workload(layout, {0, 1}).fraction * 100 == row.pct_two_failures
    assert layout.rows_per_disk / layout.group.m == row.depth_over_m
    assert layout_geometry(layout).parity_disks == row.parity_disks


def test_tradeoff_values_are_exact_rationals():
    (row,) = tradeoff_table(20, [(5, 6)])
    assert row.pct_one_failure == Fraction(100 * 3, 19)
    assert row.pct_two_failures == Fraction(100 * 3 * 34, 19 * 18)
    assert row.parity_disks == Fraction(40, 5)
    assert row.depth_over_m == Fraction(6 * 19 * 18, 4 * 3)


def test_tradeoff_monotonicity():
    preset = TRADEOFF_LAMBDA_PRESETS["fig13"]
    rows = tradeoff_table(20, sorted(preset.items()))
    assert len(rows) == 18
    for before, after in zip(rows, rows[1:]):
        assert after.pct_one_failure > before.pct_one_failure
        assert after.pct_two_failures > before.pct_two_failures
        assert after.parity_disks < before.parity_disks


def test_tradeoff_rejects_bad_rows():
    with pytest.raises(ParamError):
        tradeoff_table(20, [(2, 1)])
    with pytest.raises(ParamError):
        tradeoff_table(20, [(21, 1)])
    with pytest.raises(ParamError):
        tradeoff_table(20, [(5, 0)])
    with pytest.raises(ParamError, match="pairs"):
        tradeoff_table(20, 5)
    with pytest.raises(ParamError, match="pairs"):
        tradeoff_table(20, [(3,)])


@pytest.mark.parametrize(
    "n,rows,name",
    [
        (20, [(5.0, 1)], "k"),
        (20.0, [(5, 1)], "n"),
        ("20", [(5, 1)], "n"),
        (True, [(5, 1)], "n"),
        (20, [(5, 1.5)], "lam"),
        (20, [(5, True)], "lam"),
        (True, [], "n"),
        ("x", [], "n"),
    ],
    ids=[
        "float k", "float n", "str n", "bool n", "float lam", "bool lam",
        "bool n no rows", "str n no rows",
    ],
)
def test_tradeoff_refuses_non_int_sizes(n, rows, name):
    with pytest.raises(ParamError, match=f"^{name} must be an int"):
        tradeoff_table(n, rows)


# ---------------------------------------------------------------- rounding

@pytest.mark.parametrize(
    "value,decimals,expected",
    [
        (Fraction(1, 2), 1, "0.5"),
        (Fraction(3, 20), 1, "0.2"),  # 0.15 rounds up, not to even
        (Fraction(1, 4), 1, "0.3"),
        (Fraction(1, 8), 2, "0.13"),
        (Fraction(5, 2), 0, "3"),
        (Fraction(100), 1, "100.0"),
        (Fraction(1, 16), 1, "0.1"),
        (0, 1, "0.0"),
        (7, 0, "7"),
    ],
)
def test_round_half_up_examples(value, decimals, expected):
    assert round_half_up(value, decimals) == expected


def test_round_half_up_matches_decimal_oracle():
    getcontext().prec = 50
    for den in range(1, 26):
        for num in range(0, 201):
            exact = Decimal(num) / Decimal(den)
            for decimals in (0, 1, 2):
                quantum = Decimal(1).scaleb(-decimals)
                expected = str(exact.quantize(quantum, rounding=ROUND_HALF_UP))
                assert round_half_up(Fraction(num, den), decimals) == expected


def test_round_half_up_rejects_negatives():
    with pytest.raises(ParamError):
        round_half_up(Fraction(-1, 2))
    for value in (None, "x", float("nan"), float("inf")):
        with pytest.raises(ParamError, match="^display rounding expects a rational value"):
            round_half_up(value)
    for decimals in (None, 1.5, True):
        with pytest.raises(ParamError, match="^decimals must be an int"):
            round_half_up(Fraction(1, 3), decimals)
    # Refused before 10**decimals is computed, or printed past 4,300 digits.
    for decimals in (2**70, 5000):
        with pytest.raises(ParamError, match=f"^decimals = {decimals} digits exceeds the limit"):
            round_half_up(1.25, decimals)
    # A whole part past 4,300 digits once leaked str()'s ValueError; 1,000 digits render.
    with pytest.raises(ParamError, match="^the whole part = 16610 bits exceeds the limit"):
        round_half_up(10**5000)
    assert round_half_up(10**999) == "1" + "0" * 999 + ".0"


# ---------------------------------------------------------- counterexample

def test_single_arrangement_concentrates_load(reference_design):
    group = single_arrangement_group(rdp_code(3))
    report = counterexample_report(group, reference_design, {0, 1})
    assert report.units_accessed == {2: 5, 3: 5, 4: 5, 5: 5, 6: 1, 7: 1}
    assert not report.uniform_units
    assert not report.uniform_entries


def test_single_arrangement_labels_and_flags(reference_design):
    group = single_arrangement_group(rdp_code(3))
    report = counterexample_report(group, reference_design, {0, 1})
    # block 0 is (0,1,2,3): data on 0,1,2 and parities on 2,3 per D,D,P1,P2
    assert report.labels[0, 0] == "D"
    assert report.labels[0, 2] == "P1"
    assert report.labels[0, 3] == "P2"
    # failed disks' units are part of every touched instance
    assert report.accessed[0, 0] and report.accessed[0, 1]
    # block 7 is (4,5,6,7): untouched by failures of disks 0 and 1
    assert not report.accessed[7, 4]


def test_balanced_family_spreads_load_uniformly(reference_design):
    group = balance_horizontal_code(rdp_code(3))
    report = counterexample_report(group, reference_design, {0, 1})
    assert report.uniform_entries
    assert set(report.entries_read.values()) == {88}
    assert set(report.units_accessed.values()) == {5}
    assert all(label == "mixed" for label in report.labels.values())


def test_single_arrangement_uneven_for_single_failure(reference_design):
    group = single_arrangement_group(rdp_code(3))
    report = counterexample_report(group, reference_design, {5})
    assert not report.uniform_entries

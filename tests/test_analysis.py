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
    double_failure_fraction,
    rdp_code,
    reconstruction_workload,
    round_half_up,
    rs_code,
    single_arrangement_group,
    single_failure_fraction,
    tradeoff_table,
)
from declustr.errors import ParamError, TooManyFailures


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
    assert single_failure_fraction(8, 4) == Fraction(2, 7)
    assert double_failure_fraction(8, 4) == Fraction(22, 42)
    assert single_failure_fraction(20, 10) == Fraction(8, 19)
    with pytest.raises(ParamError):
        single_failure_fraction(4, 5)


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


@pytest.mark.parametrize(
    "function,args,name",
    [
        (tradeoff_table, (20, [(5.0, 1)]), "k"),
        (tradeoff_table, (20.0, [(5, 1)]), "n"),
        (tradeoff_table, ("20", [(5, 1)]), "n"),
        (tradeoff_table, (20, [(5, 1.5)]), "lam"),
        (tradeoff_table, (20, [(5, True)]), "lam"),
        (single_failure_fraction, (8, 4.0), "k"),
        (double_failure_fraction, (True, 4), "n"),
    ],
    ids=["float k", "float n", "str n", "float lam", "bool lam", "single float k", "double bool n"],
)
def test_tradeoff_refuses_non_int_sizes(function, args, name):
    with pytest.raises(ParamError, match=f"^{name} must be an int"):
        function(*args)


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

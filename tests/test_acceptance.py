"""Acceptance gate: the ten headline checks, one printed verdict line each.

Every test prints `criterion N: PASS/FAIL - <what it checked>` so a plain
pytest -s run reads as a checklist. All comparisons are exact: integers,
Fractions, or strings after the documented half-up display rounding.
"""

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

from declustr import (
    TRADEOFF_LAMBDA_PRESETS,
    balance_horizontal_code,
    build_layout,
    complete_design,
    count_lambda,
    counterexample_report,
    exhaustive_verify,
    fail_and_reconstruct,
    group_family,
    hadamard_3design,
    materialize,
    rdp_code,
    reconstruction_plan,
    reconstruction_workload,
    rs_code,
    single_arrangement_group,
    tradeoff_table,
    verify_balance,
)
from declustr.cli import run

# Printed 20-disk trade-off reference: (k, lambda, pct one failure,
# pct two failures, parity disks, depth/m). Frozen input/output pairs;
# the lambda column is externally chosen data, not computed here.
TRADEOFF_REFERENCE = (
    (3, 1, 5.3, 10.5, 13.3, 171),
    (4, 1, 10.5, 20.5, 10.0, 57),
    (5, 6, 15.8, 29.8, 8.0, 171),
    (6, 10, 21.1, 38.6, 6.7, 171),
    (7, 35, 26.3, 46.8, 5.7, 399),
    (8, 14, 31.6, 54.4, 5.0, 114),
    (9, 28, 36.8, 61.4, 4.4, 171),
    (10, 4, 42.1, 67.8, 4.0, 19),
    (11, 55, 47.4, 73.7, 3.6, 209),
    (12, 55, 52.6, 78.9, 3.3, 171),
    (13, 286, 57.9, 83.6, 3.1, 741),
    (14, 182, 63.2, 87.7, 2.9, 399),
    (15, 273, 68.4, 91.2, 2.7, 513),
    (16, 140, 73.7, 94.2, 2.5, 228),
    (17, 680, 78.9, 96.5, 2.4, 969),
    (18, 136, 84.2, 98.2, 2.2, 171),
    (19, 17, 89.5, 99.4, 2.1, 19),
    (20, 1, 94.7, 100.0, 2.0, 1),
)


@contextmanager
def verdict(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_tradeoff_rows_match_reference(capsys):
    with verdict(1, "20-disk trade-off table matches all 18 frozen rows"):
        code = run(
            ["analyze", "tradeoff", "--n", "20", "--fixture", "fig13",
             "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 18
        for line, expected in zip(lines[1:], TRADEOFF_REFERENCE):
            k, lam, pct1, pct2, parity, depth = line.split(",")
            assert int(k) == expected[0]
            assert int(lam) == expected[1]
            assert float(pct1) == expected[2]
            assert float(pct2) == expected[3]
            assert float(parity) == expected[4]
            assert int(depth) == expected[5]


def test_criterion_2_reference_layout_geometry(reference_layout):
    with verdict(2, "8-disk layout has 14 groups, 7 units/disk, M=168"):
        assert len(reference_layout.placements) == 14
        assert reference_layout.units_per_disk == 7
        assert reference_layout.rows_per_disk == 168


def test_criterion_3_uniform_reads_for_every_failure_set(reference_layout):
    with verdict(3, "all 8 single and 28 double failures read 48/88 per disk"):
        for disk in range(8):
            report = reconstruction_workload(reference_layout, {disk})
            assert set(report.reads.values()) == {48}
            assert report.closed_form == 48
        for failed in combinations(range(8), 2):
            report = reconstruction_workload(reference_layout, failed)
            assert set(report.reads.values()) == {88}
            assert report.closed_form == 88


def test_criterion_4_read_fractions_are_exact():
    with verdict(4, "read fractions equal 2/7 and 22/42 exactly"):
        n, k = 8, 4
        assert Fraction(48, 168) == Fraction(2, 7) == Fraction(k - 2, n - 1)
        assert (
            Fraction(88, 168)
            == Fraction(22, 42)
            == Fraction((k - 2) * (2 * n - k - 1), (n - 1) * (n - 2))
        )


def test_criterion_5_k6_group_read_share():
    with verdict(5, "balanced k=6 group reads 4/5 of survivors: 24 of 30 rows"):
        group = balance_horizontal_code(rdp_code(5))
        assert group.k == 6
        assert len(group.extended_rows) == 30
        report = verify_balance(group, 2)
        assert Fraction(report.taus[1], group.m) == Fraction(4, 5)
        k = group.k
        assert k * (k - 1) - (k - 2) - 1 - 1 == k * (k - 2) == 24
        for col in range(1, 6):
            assert reconstruction_plan(group, (0,)).reads[col] == 24


def test_criterion_6_unbalanced_counterexamples(reference_design):
    with verdict(6, "skewed families concentrate load: 5-vs-1 units, 5-vs-4 rows"):
        single = single_arrangement_group(rdp_code(3))
        report = counterexample_report(single, reference_design, {0, 1})
        assert report.units_accessed[4] == 5
        assert report.units_accessed[6] == 1

        cyclic = group_family(rdp_code(5), "rotations")
        balance = verify_balance(cyclic, 1)
        assert reconstruction_plan(cyclic, (0,)).reads[1] == 5
        assert reconstruction_plan(cyclic, (0,)).reads[5] == 4


def test_criterion_7_byte_exact_recovery_matches_predictions(reference_layout):
    with verdict(7, "every failure set of size <= 2 recovers bytes exactly and "
                    "measured I/O equals the enumeration"):
        array = materialize(reference_layout, 7)
        sets = [(d,) for d in range(8)] + list(combinations(range(8), 2))
        for failed in sets:
            rebuilt, stats = fail_and_reconstruct(array, failed)
            assert rebuilt.disks == array.disks
            predicted = reconstruction_workload(reference_layout, failed)
            assert stats.reads == predicted.reads
            assert stats.writes == {disk: 168 for disk in failed}


def test_criterion_8_three_parity_generalization():
    with verdict(8, "strength-4 design + 3-parity group sweeps s=1,2,3 "
                    "uniformly with exact recovery"):
        design = complete_design(7, 5, 4)
        assert design.lam == 3  # smallest complete strength-4 case on 7 points
        layout = build_layout(balance_horizontal_code(rs_code(5, 3)), design)
        expected_reads = {1: 300, 2: 480, 3: 630}
        for s in (1, 2, 3):
            summary = exhaustive_verify(layout, s, seed=11)
            assert summary.total == comb(7, s)
            assert summary.passed == summary.total
            assert summary.uniform
            assert summary.reads_per_disk == expected_reads[s]


def test_criterion_9_block_counting_matches_closed_form(
    reference_design, bibd_design
):
    with verdict(9, "exhaustive (Y,Z) block counting matches count_lambda on "
                    "every fixture"):
        fixtures = [reference_design, bibd_design]
        for n in range(2, 9):
            for k in range(1, n + 1):
                for t in range(1, k + 1):
                    fixtures.append(complete_design(n, k, t))
        fixtures.append(hadamard_3design(8))
        fixtures.append(hadamard_3design(16))

        for design in fixtures:
            n, t = design.n, design.t
            masks = [
                sum(1 << point for point in block) for block in design.blocks
            ]
            for i in range(t + 1):
                for j in range(t + 1 - i):
                    expected = count_lambda(design.params, i, j)
                    for inside in combinations(range(n), i):
                        y_mask = sum(1 << point for point in inside)
                        rest = [p for p in range(n) if p not in inside]
                        for avoid in combinations(rest, j):
                            z_mask = sum(1 << point for point in avoid)
                            got = sum(
                                1
                                for mask in masks
                                if mask & y_mask == y_mask and mask & z_mask == 0
                            )
                            assert got == expected


def test_criterion_10_lambda_column_is_input_not_derived():
    with verdict(10, "minimal-lambda column is external data; only formula "
                     "columns are computed"):
        preset = TRADEOFF_LAMBDA_PRESETS["fig13"]
        assert sorted(preset) == list(range(3, 21))
        # mid-range k needs far smaller lambda than the all-subsets
        # construction provides, so the preset cannot be derived here
        differs = {k for k in preset if preset[k] != comb(17, k - 3)}
        assert differs == set(range(4, 17))
        # the formula columns consume lambda as given: same k, doubled
        # lambda leaves the percentage/parity columns alone and doubles depth
        low, high = tradeoff_table(20, [(10, 4), (10, 8)])
        assert low.pct_one_failure == high.pct_one_failure
        assert low.pct_two_failures == high.pct_two_failures
        assert low.parity_disks == high.parity_disks
        assert high.depth_over_m == 2 * low.depth_over_m

"""Arrangement families and the four balance conditions."""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from declustr import (
    DATA,
    ParityGroup,
    arrangement_counts,
    balance_horizontal_code,
    cyclic_rotation_group,
    group_family,
    parity_label,
    rdp_code,
    reconstruction_plan,
    rs_code,
    single_arrangement_group,
    tau,
    verify_balance,
)
import declustr.parity_groups as parity_groups
from declustr.errors import ParamError, UnbalancedGroup

P1, P2 = parity_label(1), parity_label(2)


def delta_two_codes(k_values):
    for k in k_values:
        yield rs_code(k, 2)
        if k >= 4:
            try:
                yield rdp_code(k - 1)
            except ParamError:  # k-1 not prime
                pass


# ------------------------------------------------------------ enumeration

@pytest.mark.parametrize(
    "code_args,rows,m",
    [
        (("rdp", 3), 12, 24),
        (("rdp", 5), 30, 120),
        (("rs", 5, 2), 20, 20),
    ],
)
def test_full_family_sizes(code_args, rows, m):
    code = rdp_code(code_args[1]) if code_args[0] == "rdp" else rs_code(*code_args[1:])
    group = balance_horizontal_code(code)
    assert len(group.extended_rows) == rows
    assert group.m == m
    assert group.m == code.r * factorial(code.delta) * comb(code.k, code.delta)


def test_full_family_rows_are_distinct_and_complete():
    group = balance_horizontal_code(rs_code(4, 2))
    rows = set(group.extended_rows)
    assert len(rows) == len(group.extended_rows) == 12
    assert rows == {
        row
        for row in permutations((DATA, DATA, P1, P2))
    }


def test_arrangements_are_lexicographic_by_position_then_parity():
    group = balance_horizontal_code(rs_code(3, 2))
    assert group.extended_rows == (
        (P1, P2, DATA),
        (P2, P1, DATA),
        (P1, DATA, P2),
        (P2, DATA, P1),
        (DATA, P1, P2),
        (DATA, P2, P1),
    )


class _Enumerated(Exception):
    """Raised by a patched combinations/permutations: the family was being built."""


def test_full_family_is_refused_from_the_arrangement_count(monkeypatch):
    # 3!*C(255,3) rows of 255 labels would take about 33 GiB. The budget is
    # checked from the label count alone; enumeration is patched to fail, so
    # a missing or late check fails at once instead of building the family.
    def enumerated(*args):
        raise _Enumerated

    monkeypatch.setattr(parity_groups, "combinations", enumerated)
    monkeypatch.setattr(parity_groups, "permutations", enumerated)
    with pytest.raises(ParamError, match=(
        r"^building 3!\*C\(255,3\)\*255 = 4178636550 labels exceeds the limit of 1000000$"
    )):
        balance_horizontal_code(rs_code(255, 3))
    with pytest.raises(ParamError, match=r"2!\*C\(1010,2\)\*1010 = 1029280900 labels"):
        group_family(rdp_code(1009), "full")
    # Fewer than 10**6 rows, but each of 102 labels: over the limit.
    with pytest.raises(ParamError, match=r"2!\*C\(102,2\)\*102 = 1050804 labels"):
        balance_horizontal_code(rdp_code(101))
    # 2!*C(98,2)*98 = 931,588 labels are within the limit: enumeration starts.
    with pytest.raises(_Enumerated):
        balance_horizontal_code(rdp_code(97))
    # The other families hold k rows at most and are never refused.
    assert len(group_family(rs_code(255, 3), "rotations").extended_rows) == 255


# ---------------------------------------------------------------- balance

@pytest.mark.parametrize("code", list(delta_two_codes(range(3, 9))), ids=str)
def test_full_families_are_balanced(code):
    group = balance_horizontal_code(code)
    report = verify_balance(group, 2)
    assert (report.c1, report.c2, report.c3, report.c4) == (True,) * 4
    assert report.balanced


@pytest.mark.parametrize("code", list(delta_two_codes(range(3, 9))), ids=str)
def test_tau_closed_forms_for_two_parities(code):
    group = balance_horizontal_code(code)
    k, m = group.k, group.m
    assert tau(group, 1) * (k - 1) == m * (k - 2)
    assert tau(group, 2) == m
    assert Fraction(tau(group, 1), m) == Fraction(k - 2, k - 1)


def test_single_loss_reads_k_times_k_minus_two_extended_rows():
    group = balance_horizontal_code(rdp_code(5))
    report = verify_balance(group, 1)
    k = group.k
    for column in range(1, k):
        assert reconstruction_plan(group, (0,)).reads[column] == k * (k - 2) == 24
    assert len(group.extended_rows) == 30


@pytest.mark.parametrize("k", [4, 5, 6])
def test_three_parity_full_families_are_balanced(k):
    group = balance_horizontal_code(rs_code(k, 3))
    report = verify_balance(group, 3)
    assert report.balanced
    for s in (1, 2, 3):
        assert report.taus[s] == tau(group, s)
        assert report.taus[s] is not None


def test_verify_balance_rejects_bad_max_s():
    group = balance_horizontal_code(rs_code(4, 2))
    with pytest.raises(ParamError):
        verify_balance(group, 0)
    with pytest.raises(ParamError):
        verify_balance(group, 3)


@pytest.mark.parametrize(
    "rows",
    [
        (("D", "P1"),),
        (("D", "P1", "P1", "P2"),),
        (("D", "D", "P1", 2),),
        (),
        (5,),
        (["D", "D", "P1", "P2"],),
        5,
    ],
)
def test_verify_balance_and_tau_refuse_malformed_arrangements(rows):
    # A short row would index out of range in the parity tally, and a
    # misplaced label would go unnoticed by reconstruction_workload and
    # materialize, so ParityGroup refuses it when built: verify_balance and tau never see it.
    with pytest.raises(ParamError, match="arrangement"):
        ParityGroup(code=rs_code(4, 2), extended_rows=rows)


def test_parity_group_needs_a_code():
    with pytest.raises(ParamError, match="needs a HorizontalCode, got None"):
        ParityGroup(code=None, extended_rows=(("D", "D", "P1", "P2"),))


# ----------------------------------------------------- arrangement counts

@pytest.mark.parametrize("k,expected", [(3, (1, 1, 1)), (4, (2, 1, 1)), (6, (4, 1, 1))])
def test_arrangement_counts_full_family(k, expected):
    group = balance_horizontal_code(rs_code(k, 2))
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            counts = arrangement_counts(group, i, j)
            assert (counts.r_dq, counts.r_pq, counts.r_qp) == expected
            assert counts.r_dq == k - 2


def test_arrangement_counts_need_two_parities():
    group = balance_horizontal_code(rs_code(5, 3))
    with pytest.raises(ParamError):
        arrangement_counts(group, 0, 1)


def test_arrangement_counts_need_distinct_columns():
    group = balance_horizontal_code(rs_code(5, 2))
    with pytest.raises(ParamError):
        arrangement_counts(group, 2, 2)


@pytest.mark.parametrize("i,j", [(True, 2), (1.0, 2), (0, "1"), (0, 5), (-1, 0)])
def test_arrangement_counts_need_int_columns_in_range(i, j):
    group = balance_horizontal_code(rs_code(5, 2))
    with pytest.raises(ParamError):
        arrangement_counts(group, i, j)


# ------------------------------------------------------ unbalanced fixtures

def test_single_arrangement_fails_uniformity_and_parity_spread():
    group = single_arrangement_group(rdp_code(5))
    report = verify_balance(group, 2)
    assert report.c1 and report.c2
    assert not report.c3
    assert not report.c4
    assert not report.balanced


def test_cyclic_rotations_spread_parity_but_stay_nonuniform():
    group = cyclic_rotation_group(rdp_code(5))
    report = verify_balance(group, 1)
    assert report.c4
    assert not report.c3
    assert reconstruction_plan(group, (0,)).reads[1] == 5
    assert reconstruction_plan(group, (0,)).reads[5] == 4


def test_tau_undefined_for_unbalanced_family():
    group = cyclic_rotation_group(rdp_code(5))
    with pytest.raises(UnbalancedGroup):
        tau(group, 1)


def test_tau_rejects_out_of_range_sizes():
    group = balance_horizontal_code(rs_code(4, 2))
    with pytest.raises(ParamError):
        tau(group, 0)
    with pytest.raises(ParamError):
        tau(group, 3)


@pytest.mark.parametrize("size", [1.0, "1", True, 2.0, None])
def test_failure_sizes_must_be_ints(size):
    group = balance_horizontal_code(rs_code(4, 2))
    with pytest.raises(ParamError):
        tau(group, size)
    with pytest.raises(ParamError):
        verify_balance(group, size)


def test_unbalanced_tau_keeps_raising():
    group = cyclic_rotation_group(rdp_code(5))
    for _ in range(2):
        with pytest.raises(UnbalancedGroup):
            tau(group, 1)


# ----------------------------------------------------------------- misc

def test_group_family_dispatch():
    code = rdp_code(3)
    assert group_family(code, "full").family == "full"
    assert group_family(code, "single").extended_rows == (
        (DATA, DATA, P1, P2),
    )
    assert len(group_family(code, "rotations").extended_rows) == 4
    with pytest.raises(ParamError):
        group_family(code, "zigzag")


def test_a_group_is_a_code_and_its_rows():
    # The family name is derived from the rows, so no caller can set it.
    group = balance_horizontal_code(rdp_code(3))
    assert ParityGroup(group.code, group.extended_rows) == group
    assert ParityGroup(code=group.code, extended_rows=group.extended_rows) == group
    with pytest.raises(TypeError):
        ParityGroup(group.code, group.extended_rows, family="full")
    with pytest.raises(TypeError):
        ParityGroup(group.code, group.extended_rows, "full")
    for family in ("zigzag", ["full"], None):
        with pytest.raises(ParamError, match="unknown arrangement family"):
            group_family(rdp_code(3), family)


def test_rotation_family_rows_are_rotations():
    group = cyclic_rotation_group(rs_code(4, 2))
    assert group.extended_rows == (
        (DATA, DATA, P1, P2),
        (P2, DATA, DATA, P1),
        (P1, P2, DATA, DATA),
        (DATA, P1, P2, DATA),
    )


@pytest.mark.parametrize("family", list(parity_groups.FAMILIES))
@pytest.mark.parametrize(
    "code", [rs_code(5, 2), rs_code(5, 3), rdp_code(5)], ids=["rs5-2", "rs5-3", "rdp5"]
)
def test_tau_reads_the_enumeration_verify_balance_made(code, family, monkeypatch):
    group = group_family(code, family)
    report = verify_balance(group, code.delta)
    lookups = []
    plan = parity_groups.reconstruction_plan
    monkeypatch.setattr(
        parity_groups, "reconstruction_plan", lambda g, lost: lookups.append(lost) or plan(g, lost)
    )
    for s in range(1, code.delta + 1):
        try:
            want = tau(group, s)
        except UnbalancedGroup:
            want = None
        assert report.taus[s] == want, s
    assert lookups == []

"""Reconstruction-workload accounting for declustered layouts.

Workload is counted the way the balance conditions define it: when a group
instance loses columns, every surviving column of that instance is either
read in full (all r rows of an extended row whose label the reconstruction
rule names) or left untouched. Enumeration takes the affected instances as
one placement bit mask per lost-position tuple (`layout.losses`) and applies
the group's memoized plan once per mask (`layout.survivor_reads`, which the
simulator shares); the closed form combines the design's block-counting
numbers with the group's per-instance read counts, memoized per failure
size, in one sum for every s <= min(delta, t-1), and must agree exactly.

All arithmetic is in exact integers and Fractions; rounding happens only in
display helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .designs import Design, DesignParams, _check_ints, count_lambda
from .errors import ParamError
from .layout import (
    DeclusteredLayout,
    build_layout,
    check_failed,
    losses,
    placement_indices,
    survivor_reads,
)
from .parity_groups import ParityGroup, reconstruction_plan, tau
from .simulator import DiskArray, fail_and_reconstruct

#: Named (k -> lambda) tables for the trade-off report. The "fig13" preset is
#: fixture data: the smallest published design index for each k at n=20,
#: taken from a design-table handbook. This package does not construct those
#: designs; the preset exists so the trade-off report can be reproduced.
TRADEOFF_LAMBDA_PRESETS = {
    "fig13": {
        3: 1, 4: 1, 5: 6, 6: 10, 7: 35, 8: 14, 9: 28, 10: 4, 11: 55,
        12: 55, 13: 286, 14: 182, 15: 273, 16: 140, 17: 680, 18: 136,
        19: 17, 20: 1,
    },
}


@dataclass(frozen=True)
class WorkloadReport:
    """Per-surviving-disk read counts for one failure set."""

    failed: frozenset[int]
    reads: dict[int, int]
    uniform: bool
    closed_form: int | None
    fraction: Fraction | None


@dataclass(frozen=True)
class TradeoffRow:
    """One k row of the declustering trade-off report, exact rationals."""

    k: int
    lam: int
    pct_one_failure: Fraction
    pct_two_failures: Fraction
    parity_disks: Fraction
    depth_over_m: Fraction


@dataclass(frozen=True)
class CounterexampleReport:
    """Column-unit access table for one failure set, instance by instance.

    labels maps (block index, disk) to the label held there, or "mixed" when
    the group's arrangements disagree at that position. accessed marks units
    that participate in reconstruction (read on survivors, rebuilt on failed
    disks). The tallies cover surviving disks only.
    """

    failed: frozenset[int]
    n: int
    block_count: int
    labels: dict[tuple[int, int], str]
    accessed: dict[tuple[int, int], bool]
    units_accessed: dict[int, int]
    entries_read: dict[int, int]
    uniform_units: bool
    uniform_entries: bool


def reconstruction_workload(layout: DeclusteredLayout, failed) -> WorkloadReport:
    """Count units read per surviving disk, by exhaustive enumeration.

    When a two-parity group of the fully stacked family loses 1 <= s < t
    disks, the closed form for s is attached for comparison; the fraction
    field is the uniform per-disk count over the disk size.
    """
    group = layout.group
    failed = check_failed(layout, failed)
    reads = survivor_reads(layout, failed, losses(layout, failed))
    counts = set(reads.values())
    uniform = len(counts) <= 1
    fraction = (
        Fraction(counts.pop(), layout.rows_per_disk) if uniform and reads else None
    )
    closed_form = None
    # closed_form_workload covers every s <= min(delta, t-1) of any balanced
    # group, but it is attached only at delta=2 for now: attaching it at other
    # delta would change the CLI's golden bytes and the benchmark's analyze
    # oracle. s < t holds on every build_layout layout (t = delta+1) and keeps
    # a hand-built layout over a weaker design from raising.
    if 0 < len(failed) < layout.design.t and group.delta == 2 and group.family == "full":
        closed_form = closed_form_workload(layout.design.params, group, len(failed))
    return WorkloadReport(
        failed=failed,
        reads=reads,
        uniform=uniform,
        closed_form=closed_form,
        fraction=fraction,
    )


def measured_matches_predicted(array: DiskArray, failed) -> bool:
    """True iff simulated reads equal the enumeration's predicted counts."""
    _, stats = fail_and_reconstruct(array, failed)
    return stats.reads == reconstruction_workload(array.layout, failed).reads


def closed_form_workload(params: DesignParams, group: ParityGroup, s: int) -> int:
    """Units read per surviving disk after s failures, from block counting alone.

    An instance holding the survivor and exactly j of the s failed disks
    reads tau_j entries from the survivor's column, and lambda_{j+1}^{(s-j)}
    blocks hold the survivor and a given j of the failed disks but none of
    the other s-j. So the survivor reads
    sum_{j=1..s} C(s,j) * lambda_{j+1}^{(s-j)} * tau_j, which needs
    s <= min(delta, t-1). tau raises UnbalancedGroup when the group's
    arrangement family has no single tau_j.
    """
    top = min(group.delta, params.t - 1)
    if isinstance(s, bool) or not isinstance(s, int) or not 1 <= s <= top:
        raise ParamError(
            f"closed-form workload needs an int s in 1..min(delta, t-1) = {top}, "
            f"got s={s!r} with delta={group.delta}, t={params.t}"
        )
    if group.k != params.k:
        raise ParamError(
            f"group size k={group.k} does not match design block size k={params.k}"
        )
    return sum(
        comb(s, j) * count_lambda(params, j + 1, s - j) * tau(group, j)
        for j in range(1, s + 1)
    )


def single_failure_fraction(n: int, k: int) -> Fraction:
    """Per-disk fraction read after one failure: (k-2)/(n-1)."""
    _check_tradeoff_params(n, k)
    return Fraction(k - 2, n - 1)


def double_failure_fraction(n: int, k: int) -> Fraction:
    """Per-disk fraction read after two failures: (k-2)(2n-k-1)/((n-1)(n-2))."""
    _check_tradeoff_params(n, k)
    return Fraction((k - 2) * (2 * n - k - 1), (n - 1) * (n - 2))


def _check_tradeoff_params(n: int, k: int):
    _check_ints(n=n, k=k)
    if not 3 <= k <= n:
        raise ParamError(f"need 3 <= k <= n, got k={k}, n={n}")


def tradeoff_table(n: int, rows) -> list[TradeoffRow]:
    """Evaluate the trade-off columns for each (k, lambda) pair, exactly.

    Per-disk read fractions after one and two failures are returned as
    percentages; parity_disks is 2n/k (two-parity groups); depth_over_m is
    the per-disk column-unit count lambda*(n-1)(n-2)/((k-1)(k-2)).
    """
    table = []
    for k, lam in rows:
        _check_tradeoff_params(n, k)
        _check_ints(lam=lam)
        if lam < 1:
            raise ParamError(f"lambda must be >= 1, got {lam}")
        table.append(
            TradeoffRow(
                k=k,
                lam=lam,
                pct_one_failure=100 * single_failure_fraction(n, k),
                pct_two_failures=100 * double_failure_fraction(n, k),
                parity_disks=Fraction(2 * n, k),
                depth_over_m=Fraction(lam * (n - 1) * (n - 2), (k - 1) * (k - 2)),
            )
        )
    return table


def round_half_up(value, decimals: int = 1) -> str:
    """Render a nonnegative rational to fixed decimals, ties rounding up.

    Built on integer arithmetic; float formatting and round() (ties to even)
    both disagree with the required display on .5 boundaries.
    """
    frac = Fraction(value)
    if frac < 0:
        raise ParamError(f"display rounding expects nonnegative values, got {frac}")
    if decimals < 0:
        raise ParamError(f"decimals must be >= 0, got {decimals}")
    num = frac.numerator * 10**decimals
    den = frac.denominator
    q = (2 * num + den) // (2 * den)
    if decimals == 0:
        return str(q)
    digits = str(q).rjust(decimals + 1, "0")
    return f"{digits[:-decimals]}.{digits[-decimals:]}"


def counterexample_report(
    group: ParityGroup, design: Design, failed
) -> CounterexampleReport:
    """Tabulate which column-units each disk touches for one failure set.

    Works for any arrangement family, balanced or not; unbalanced families
    show up as unequal per-disk tallies.
    """
    layout = build_layout(group, design)
    failed = check_failed(layout, failed)
    placements, affected = layout.placements, losses(layout, failed)
    label_at = []
    for pos in range(group.k):
        seen = {row[pos] for row in group.extended_rows}
        label_at.append(seen.pop() if len(seen) == 1 else "mixed")
    labels: dict[tuple[int, int], str] = {}
    accessed: dict[tuple[int, int], bool] = {}
    for index, placement in enumerate(placements):
        for pos, disk in enumerate(placement):
            labels[index, disk] = label_at[pos]
            accessed[index, disk] = disk in failed
    units_accessed = {d: 0 for d in range(layout.n) if d not in failed}
    for lost, mask in affected.items():
        for positions in reconstruction_plan(group, lost).by_rows.values():
            for index in placement_indices(mask):
                placement = placements[index]
                for pos in positions:
                    accessed[index, placement[pos]] = True
                    units_accessed[placement[pos]] += 1
    entries_read = survivor_reads(layout, failed, affected)
    return CounterexampleReport(
        failed=failed,
        n=layout.n,
        block_count=len(layout.placements),
        labels=labels,
        accessed=accessed,
        units_accessed=units_accessed,
        entries_read=entries_read,
        uniform_units=len(set(units_accessed.values())) <= 1,
        uniform_entries=len(set(entries_read.values())) <= 1,
    )

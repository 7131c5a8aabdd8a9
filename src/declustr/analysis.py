"""Reconstruction-workload accounting for declustered layouts.

Workload is counted the way the balance conditions define it: when a group
instance loses columns, every surviving column of that instance is either
read in full (all r rows of an extended row whose label the reconstruction
rule names) or left untouched. Enumeration takes the affected instances as
one placement bit mask per lost-position tuple (`layout.losses`) and applies
the group's memoized plan once per mask (`layout.survivor_reads`, which the
simulator shares); the closed form combines the design's block-counting
numbers with the group's per-instance read counts, memoized per failure
size, in one sum for every s <= min(delta, t-1), and must agree exactly. A
query attaches it from the layout's memo, one entry per failure size.

All arithmetic is in exact integers and Fractions; rounding happens only in
display helpers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from . import _stats
from ._record import record
from .designs import Design, DesignParams, check_budget, check_ints, count_lambda
from .errors import ParamError, shown
from .layout import (
    DeclusteredLayout,
    build_layout,
    check_failed,
    losses,
    placement_indices,
    survivor_reads,
)
from .parity_groups import ParityGroup, tau

# Most decimals round_half_up renders, refused before it computes 10**decimals, and most
# bits of its whole part (3,011 digits): with both, under the 4,300 digits Python prints.
MAX_DECIMALS, MAX_WHOLE_BITS = 1000, 10_000

#: Named (k -> lambda) tables for the trade-off report. The "fig13" preset is
#: fixture data: the smallest published design index for each k at n=20,
#: taken from a design-table handbook. complete_design builds five of those
#: designs (k = 3 and 17..20), and the test suite builds all 18.
TRADEOFF_LAMBDA_PRESETS = {
    "fig13": {
        3: 1, 4: 1, 5: 6, 6: 10, 7: 35, 8: 14, 9: 28, 10: 4, 11: 55,
        12: 55, 13: 286, 14: 182, 15: 273, 16: 140, 17: 680, 18: 136,
        19: 17, 20: 1,
    },
}


@record(frozen=True)
class WorkloadReport:
    """Per-surviving-disk read counts for one failure set."""

    failed: frozenset[int]
    reads: dict[int, int]
    uniform: bool
    closed_form: int | None
    fraction: Fraction | None


@record(frozen=True)
class TradeoffRow:
    """One k row of the declustering trade-off report, exact rationals."""

    k: int
    lam: int
    pct_one_failure: Fraction
    pct_two_failures: Fraction
    parity_disks: Fraction
    depth_over_m: Fraction


@record(frozen=True)
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

    The enumeration is the query's only work: its lost groups are split
    through the group's memo of extended lost tuples (`layout._split`) and
    tallied through the group's memo of plans (`survivor_reads`). When a
    two-parity group of the fully stacked family loses 1 <= s < t disks,
    the closed form for s is attached for comparison, taken from the
    layout's memo of one per failure size; the fraction field is the
    uniform per-disk count over the disk size.
    """
    if rec := _stats.recorder:
        rec.start()
    group = layout.group
    failed = check_failed(layout, failed)
    reads = survivor_reads(layout, failed, losses(layout, failed))
    if rec:
        rec.mark("layout.tally_s")
    counts = set(reads.values())
    uniform = len(counts) <= 1
    fraction = (
        Fraction(counts.pop(), layout.rows_per_disk) if uniform and reads else None
    )
    # closed_form_workload covers every s <= min(delta, t-1) of any balanced
    # group, but it is attached only at delta=2 for now: attaching it at other
    # delta would change the CLI's golden bytes and the benchmark's analyze
    # oracle. s < t holds on every build_layout layout (t = delta+1) and keeps
    # a hand-built layout over a weaker design from raising.
    s, closed_forms = len(failed), layout._closed_forms
    if s not in closed_forms:
        attached = 0 < s < layout.design.t and group.delta == 2 and group.family == "full"
        closed_forms[s] = closed_form_workload(layout.design.params, group, s) if attached else None
    if rec:
        rec.mark("analysis.closed_form_s")
        rec.end("analysis.workload_s")
    return WorkloadReport(
        failed=failed,
        reads=reads,
        uniform=uniform,
        closed_form=closed_forms[s],
        fraction=fraction,
    )


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
    check_ints(s=s, low=1, high=min(group.delta, params.t - 1))
    if group.k != params.k:
        raise ParamError(
            f"group size k={group.k} does not match design block size k={params.k}"
        )
    return sum(
        comb(s, j) * count_lambda(params, j + 1, s - j) * tau(group, j)
        for j in range(1, s + 1)
    )


def tradeoff_table(n: int, rows) -> list[TradeoffRow]:
    """Evaluate the trade-off columns for each (k, lambda) pair, exactly.

    Per-disk read fractions after one and two failures, (k-2)/(n-1) and
    (k-2)(2n-k-1)/((n-1)(n-2)), are returned as percentages; parity_disks is
    2n/k (two-parity groups); depth_over_m is the per-disk column-unit count
    lambda*(n-1)(n-2)/((k-1)(k-2)).
    """
    check_ints(n=n)
    try:
        rows = [(k, lam) for k, lam in rows]
    except (TypeError, ValueError):
        raise ParamError(f"rows must be (k, lambda) pairs, got {shown(rows)}") from None
    table = []
    for k, lam in rows:
        check_ints(k=k, lam=lam)
        if not 3 <= k <= n:
            raise ParamError(f"need 3 <= k <= n, got k={shown(k)}, n={n}")
        if lam < 1:
            raise ParamError(f"lambda must be >= 1, got {shown(lam)}")
        table.append(
            TradeoffRow(
                k=k,
                lam=lam,
                pct_one_failure=100 * Fraction(k - 2, n - 1),
                pct_two_failures=100 * Fraction((k - 2) * (2 * n - k - 1), (n - 1) * (n - 2)),
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
    try:
        frac = Fraction(value)
    except (TypeError, ValueError, OverflowError):  # not a number, a bad string, NaN, infinity
        raise ParamError(f"display rounding expects a rational value, got {shown(value)}") from None
    if frac < 0:
        raise ParamError(f"display rounding expects nonnegative values, got {frac}")
    check_ints(decimals=decimals)
    if decimals < 0:
        raise ParamError(f"decimals must be >= 0, got {decimals}")
    check_budget("decimals", decimals, "digits", MAX_DECIMALS)
    check_budget("the whole part", int(frac).bit_length(), "bits", MAX_WHOLE_BITS)
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
    label_at = [labels[0] if len(set(labels)) == 1 else "mixed" for labels in group.label_columns]
    labels: dict[tuple[int, int], str] = {}
    accessed: dict[tuple[int, int], bool] = {}
    for index, placement in enumerate(placements):
        for pos, disk in enumerate(placement):
            labels[index, disk] = label_at[pos]
            accessed[index, disk] = disk in failed
    entries_read = survivor_reads(layout, failed, affected)
    units_accessed = {d: 0 for d in range(layout.n) if d not in failed}
    for lost, mask in affected.items():
        for positions in group._plans[lost].by_rows.values():
            for index in placement_indices(layout, mask):
                placement = placements[index]
                for pos in positions:
                    accessed[index, placement[pos]] = True
                    units_accessed[placement[pos]] += 1
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

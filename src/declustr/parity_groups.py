"""Parity groups built from horizontal codes by stacking label arrangements.

An extended row is one way of placing the parity labels P1..Pdelta among the
k column positions (data everywhere else); stacking r codeword rows per
extended row and all chosen extended rows vertically yields an m x k group,
m = r * len(extended_rows). Stacking every one of the delta! * C(k, delta)
placements produces a balanced group: any failure of at most delta columns
then loads every surviving column equally.

A ParityGroup checks its arrangements when it is built: each has k
positions and places each of P1..Pdelta exactly once. Balance is a verified
property, not a type: the same ParityGroup class also carries deliberately
unbalanced families (a single arrangement, or the k cyclic rotations of the
canonical one) used to demonstrate skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations
from math import comb, factorial

from .designs import check_budget
from .erasure_codes import (
    DATA,
    HorizontalCode,
    canonical_labels,
    parity_index,
    parity_label,
    reconstruction_rule,
)
from .errors import ParamError, UnbalancedGroup

FAMILIES = ("full", "single", "rotations")


@dataclass(frozen=True)
class ParityGroup:
    """A horizontal code plus an ordered family of label arrangements."""

    code: HorizontalCode
    extended_rows: tuple[tuple[str, ...], ...]
    family: str = "custom"
    # reconstruction_plan's and tau's memos: derived from the fields above, so
    # they take no part in equality or hashing. Concurrent misses may build an
    # entry twice.
    _plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _taus: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.code, HorizontalCode):
            raise ParamError(f"a parity group needs a HorizontalCode, got {self.code!r}")
        if not self.extended_rows:
            raise ParamError("a parity group needs at least one arrangement")
        parities = canonical_labels(self.k, self.delta)[self.k - self.delta :]
        for row in self.extended_rows:
            if len(row) != self.k:
                raise ParamError(f"arrangement {row} does not have {self.k} positions")
            if row.count(DATA) != self.k - self.delta or any(row.count(x) != 1 for x in parities):
                raise ParamError(
                    f"arrangement {row} must place each of P1..P{self.delta} exactly once"
                )

    @property
    def k(self) -> int:
        return self.code.k

    @property
    def delta(self) -> int:
        return self.code.delta

    @property
    def r(self) -> int:
        return self.code.r

    @property
    def m(self) -> int:
        return self.r * len(self.extended_rows)

    @property
    def parity_per_column(self) -> tuple[int, ...]:
        """Parity entries in each column: r times the rows with parity there."""
        return tuple(
            self.r * sum(1 for row in self.extended_rows if row[c] != DATA)
            for c in range(self.k)
        )

    @cached_property
    def canonical_columns(self) -> tuple[tuple[int, ...], ...]:
        """Codeword column held at each position, per extended row."""
        first_parity = self.k - self.delta - 1
        out = []
        for row in self.extended_rows:
            data = iter(range(self.k))
            out.append(tuple(
                next(data) if label == DATA else first_parity + parity_index(label)
                for label in row
            ))
        return tuple(out)


@dataclass(frozen=True)
class ReconstructionPlan:
    """How an instance rebuilds after losing one tuple of positions.

    needs[e] is the label set the rule names for extended row e; reads maps
    each surviving position to the number of extended rows reading it (r
    entries each), and by_rows groups the positions read by that number. The
    decoder's view, sources and erased, is built lazily.
    Plans are shared by every caller through the group's memo: read only.
    """

    needs: tuple[frozenset[str], ...]
    reads: dict[int, int]
    rows: tuple[tuple[str, ...], ...] = field(repr=False)
    columns: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def by_rows(self) -> dict[int, tuple[int, ...]]:
        """Each nonzero read count, mapped to the ascending positions read that often."""
        out: dict[int, list[int]] = {}
        for pos, rows in self.reads.items():
            if rows:
                out.setdefault(rows, []).append(pos)
        return {rows: tuple(positions) for rows, positions in out.items()}

    @cached_property
    def sources(self) -> tuple[tuple[int, ...], ...]:
        """Per extended row, the position holding each column read, in column order."""
        return tuple(
            tuple(sorted((pos for pos in self.reads if row[pos] in need), key=columns.__getitem__))
            for row, columns, need in zip(self.rows, self.columns, self.needs)
        )

    @cached_property
    def erased(self) -> tuple[tuple[int, ...], ...]:
        """Per extended row, the canonical columns the decoder is not given."""
        return tuple(
            tuple(sorted(set(range(len(columns))) - {columns[pos] for pos in read}))
            for columns, read in zip(self.columns, self.sources)
        )


@dataclass(frozen=True)
class ArrangementCounts:
    """Arrangement tallies for an ordered column pair (i, j), delta=2 only.

    r_dq counts extended rows with data at i and P2 at j, r_pq those with P1
    at i and P2 at j, r_qp those with P2 at i and P1 at j.
    """

    r_dq: int
    r_pq: int
    r_qp: int


@dataclass
class BalanceReport:
    """Outcome of the four balance conditions plus the raw enumeration data.

    row_reads maps (failure set, surviving column) to the number of extended
    rows that read the column; entry counts are r times that. taus maps each
    failure size to the common per-column entry count, or None when the
    counts differ.
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    k: int
    delta: int
    r: int
    m: int
    parity_per_column: tuple[int, ...]
    row_reads: dict[tuple[tuple[int, ...], int], int]
    taus: dict[int, int | None]

    @property
    def balanced(self) -> bool:
        return self.c1 and self.c2 and self.c3 and self.c4


def _all_arrangements(k: int, delta: int) -> tuple[tuple[str, ...], ...]:
    rows = []
    for positions in combinations(range(k), delta):
        for order in permutations(range(1, delta + 1)):
            row = [DATA] * k
            for pos, idx in zip(positions, order):
                row[pos] = parity_label(idx)
            rows.append(tuple(row))
    return tuple(rows)


def balance_horizontal_code(code: HorizontalCode) -> ParityGroup:
    """Stack all delta! * C(k, delta) parity placements of the code.

    Placements are enumerated in lexicographic order of the parity position
    tuple, then of the parity index order within those positions. More than
    MAX_COVERAGE_SUBSETS labels (placements times k) are refused before any
    placement is built.
    """
    k, delta = code.k, code.delta
    labels = factorial(delta) * comb(k, delta) * k
    check_budget(f"building {delta}!*C({k},{delta})*{k}", labels, "labels")
    return ParityGroup(
        code=code,
        extended_rows=_all_arrangements(k, delta),
        family="full",
    )


def single_arrangement_group(code: HorizontalCode) -> ParityGroup:
    """Just the canonical arrangement: data columns first, then P1..Pdelta."""
    return ParityGroup(
        code=code,
        extended_rows=(canonical_labels(code.k, code.delta),),
        family="single",
    )


def cyclic_rotation_group(code: HorizontalCode) -> ParityGroup:
    """The k successive right-rotations of the canonical arrangement."""
    base = canonical_labels(code.k, code.delta)
    k = code.k
    rows = tuple(base[-shift:] + base[:-shift] if shift else base for shift in range(k))
    return ParityGroup(code=code, extended_rows=rows, family="rotations")


def group_family(code: HorizontalCode, family: str) -> ParityGroup:
    if family == "full":
        return balance_horizontal_code(code)
    if family == "single":
        return single_arrangement_group(code)
    if family == "rotations":
        return cyclic_rotation_group(code)
    raise ParamError(f"unknown arrangement family {family!r}")


def reconstruction_plan(group: ParityGroup, lost: tuple[int, ...]) -> ReconstructionPlan:
    """The memoized plan for an instance that lost the sorted positions `lost`.

    A cold plan costs one reconstruction_rule call per extended row.
    """
    if lost in group._plans:
        return group._plans[lost]
    k = group.k
    if list(lost) != sorted(set(lost) & set(range(k))):
        raise ParamError(f"lost positions must be sorted and distinct in 0..{k - 1}, got {lost}")
    reads = {pos: 0 for pos in range(k) if pos not in lost}
    needs, per_row = {}, []
    for row in group.extended_rows:
        need = reconstruction_rule(group.delta, [row[pos] for pos in lost])
        per_row.append(needs.setdefault(need, need))
        for pos in reads:
            if row[pos] in need:
                reads[pos] += 1
    plan = group._plans[lost] = ReconstructionPlan(
        tuple(per_row), reads, group.extended_rows, group.canonical_columns
    )
    return plan


def check_size(name: str, s, delta: int, low: int = 1) -> None:
    """Refuse a failure size that is not an int in low..delta; a bool is not a size."""
    if isinstance(s, bool) or not isinstance(s, int) or not low <= s <= delta:
        raise ParamError(f"need {low} <= {name} <= delta={delta}, got {s!r}")


def _size_reads(group: ParityGroup, s: int):
    """Each size-s failure set's plan reads (surviving position -> extended
    rows reading it), and the distinct read counts among them, ascending."""
    by_set = {
        lost: reconstruction_plan(group, lost).reads for lost in combinations(range(group.k), s)
    }
    return by_set, tuple(sorted({rows for reads in by_set.values() for rows in reads.values()}))


def verify_balance(group: ParityGroup, max_s: int) -> BalanceReport:
    """Evaluate the four balance conditions up to failure size max_s.

    The first two conditions are structural. Every arrangement is a column
    permutation of an MDS codeword, so the data/parity entry split is fixed
    (condition one) and any loss of at most delta columns stays decodable
    (condition two). The read-uniformity condition is checked by exhaustive
    enumeration of failure sets, the parity-placement condition by a
    per-column tally.
    """
    check_size("max_s", max_s, group.delta)
    sizes = [_size_reads(group, s) for s in range(1, max_s + 1)]
    parity_per_column = group.parity_per_column
    row_reads = {
        (failed, c): rows
        for by_set, _ in sizes for failed, reads in by_set.items() for c, rows in reads.items()
    }
    taus = {s: group.r * v[0] if len(v) == 1 else None for s, (_, v) in enumerate(sizes, 1)}
    return BalanceReport(
        c1=True, c2=True,
        c3=None not in taus.values(),
        c4=len(set(parity_per_column)) == 1,
        k=group.k, delta=group.delta, r=group.r, m=group.m,
        parity_per_column=parity_per_column,
        row_reads=row_reads,
        taus=taus,
    )


def arrangement_counts(group: ParityGroup, i: int, j: int) -> ArrangementCounts:
    """Tally (label at i, label at j) patterns over the extended rows, delta=2 only."""
    if group.delta != 2:
        raise ParamError(f"arrangement counts are defined for delta=2, got {group.delta}")
    if i == j:
        raise ParamError("need two distinct columns")
    if any(isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < group.k for c in (i, j)):
        raise ParamError(f"columns must be ints in 0..{group.k - 1}, got {i!r}, {j!r}")
    p1, p2 = parity_label(1), parity_label(2)
    r_dq = sum(1 for row in group.extended_rows if row[i] == DATA and row[j] == p2)
    r_pq = sum(1 for row in group.extended_rows if row[i] == p1 and row[j] == p2)
    r_qp = sum(1 for row in group.extended_rows if row[i] == p2 and row[j] == p1)
    return ArrangementCounts(r_dq=r_dq, r_pq=r_pq, r_qp=r_qp)


def tau(group: ParityGroup, s: int) -> int:
    """Entries read from each surviving column when any s columns are lost.

    Raises UnbalancedGroup when the count depends on the failure set or the
    column, in which case no single number exists. The read counts seen are
    memoized per s on the group, so each size is enumerated once.
    """
    check_size("s", s, group.delta)
    values = group._taus.get(s)
    if values is None:
        values = group._taus[s] = _size_reads(group, s)[1]
    if len(values) != 1:
        raise UnbalancedGroup(
            f"per-column read counts differ across size-{s} failures: {list(values)}"
        )
    return group.r * values[0]

"""Parity groups built from horizontal codes by stacking label arrangements.

An extended row is one way of placing the parity labels P1..Pdelta among the
k column positions (data everywhere else); stacking r codeword rows per
extended row and all chosen extended rows vertically yields an m x k group,
m = r * len(extended_rows). Stacking every one of the delta! * C(k, delta)
placements produces a balanced group: any failure of at most delta columns
then loads every surviving column equally.

A ParityGroup checks its arrangements when it is built: each has k
positions and places each of P1..Pdelta exactly once. Its family is read off
those rows, not set by the caller. Balance is a verified property, not a
type: the same class also carries deliberately unbalanced families (a single
arrangement, or the k cyclic rotations of the canonical one) to show skew.
group_family caches the family name on the group it builds.

A reconstruction plan, memoized on its group per lost-position mask, is
counted from the group's label columns (the rows' transpose): one memoized
rule answer per extended row, then one C-level count per surviving position,
so a cold plan runs no Python loop over rows times positions.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations, permutations, repeat
from math import comb, factorial
from operator import contains

from ._record import record
from .designs import check_budget, check_ints
from .erasure_codes import (
    DATA,
    HorizontalCode,
    canonical_labels,
    parity_index,
    parity_label,
    reconstruction_rule,
)
from .errors import ParamError, UnbalancedGroup, shown

# The memo: _plan's, by lost-position mask. It is derived from the fields, so it takes
# no part in equality or hashing. Concurrent misses may build a plan twice.
@record(frozen=True, memos=("_plans",))
class ParityGroup:
    """A horizontal code plus an ordered family of label arrangements."""

    code: HorizontalCode
    extended_rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not isinstance(self.code, HorizontalCode):
            raise ParamError(f"a parity group needs a HorizontalCode, got {self.code!r}")
        if not isinstance(self.extended_rows, tuple) or not self.extended_rows:
            raise ParamError(
                f"a parity group needs a tuple of arrangements, got {shown(self.extended_rows)}"
            )
        parities = canonical_labels(self.k, self.delta)[self.k - self.delta :]
        for row in self.extended_rows:
            if not isinstance(row, tuple) or len(row) != self.k:
                raise ParamError(f"arrangement {shown(row)} is not a tuple of {self.k} labels")
            if row.count(DATA) != self.k - self.delta or any(row.count(x) != 1 for x in parities):
                raise ParamError(
                    f"arrangement {row} must place each of P1..P{self.delta} exactly once"
                )

    @cached_property
    def family(self) -> str:
        """The FAMILIES name whose builder makes exactly these rows, else "custom".

        Row counts are compared first, so no family is built for fewer or more rows.
        """
        rows = self.extended_rows
        k, delta = self.k, self.delta
        sizes = {"full": factorial(delta) * comb(k, delta), "single": 1, "rotations": k}
        for name, make in FAMILIES.items():
            if len(rows) == sizes[name] and make(self.code).extended_rows == rows:
                return name
        return "custom"

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
        return tuple(self.r * (len(labels) - labels.count(DATA)) for labels in self.label_columns)

    @cached_property
    def label_columns(self) -> tuple[tuple[str, ...], ...]:
        """Label held by each extended row, per position: the rows' transpose."""
        return tuple(zip(*self.extended_rows))

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


@record(frozen=True, hidden=("delta", "rows", "columns"))
class ReconstructionPlan:
    """How an instance rebuilds after losing the tuple of positions `lost`.

    reads maps each surviving position to the number of extended rows reading
    it (r entries each), by_rows groups the positions read by that number, and
    pools keys them as `layout.survivor_reads` pools them.
    The decoder's view, erased, is derived on first read, one memoized rule
    answer per extended row, and cached, as is each erasure pattern's
    lost_columns: until then a plan keeps no per-extended-row tuple of its
    own. Plans are shared by every caller through the group's memo: read
    only.
    """

    lost: tuple[int, ...]
    reads: dict[int, int]
    delta: int
    rows: tuple[tuple[str, ...], ...]
    columns: tuple[tuple[int, ...], ...]

    @cached_property
    def by_rows(self) -> dict[int, tuple[int, ...]]:
        """Each nonzero read count, mapped to the ascending positions read that often."""
        out: dict[int, list[int]] = {}
        for pos, rows in self.reads.items():
            if rows:
                out.setdefault(rows, []).append(pos)
        return {rows: tuple(positions) for rows, positions in out.items()}

    @cached_property
    def pools(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """by_rows as a read tally pools it: the read count that every
        surviving position has (whole placements, one unit per disk), or 0
        and the (read count, position) pairs."""
        for rows, positions in self.by_rows.items():
            if len(positions) == len(self.reads):
                return rows, ()
        return 0, tuple((rows, pos) for rows, positions in self.by_rows.items() for pos in positions)

    @cached_property
    def erased(self) -> tuple[tuple[int, ...], ...]:
        """Per extended row, the canonical columns the decoder is not given:
        all but those of the surviving positions whose label the rule names."""
        out = []
        for row, columns in zip(self.rows, self.columns):
            need = reconstruction_rule(self.delta, [row[pos] for pos in self.lost])
            given = {columns[pos] for pos in self.reads if row[pos] in need}
            out.append(tuple(c for c in range(len(columns)) if c not in given))
        return tuple(out)

    @cached_property
    def lost_columns(self) -> dict[tuple[int, ...], frozenset[int]]:
        """Per erasure pattern of `erased`, the canonical columns the lost
        positions hold in the extended rows decoded with it: the erased
        columns a rebuild writes back. The others are unread survivors."""
        out: dict[tuple[int, ...], set[int]] = {}
        for erased, columns in zip(self.erased, self.columns):
            out.setdefault(erased, set()).update(map(columns.__getitem__, self.lost))
        return {erased: frozenset(lost) for erased, lost in out.items()}


@record(frozen=True)
class ArrangementCounts:
    """Arrangement tallies for an ordered column pair (i, j), delta=2 only.

    r_dq counts extended rows with data at i and P2 at j, r_pq those with P1
    at i and P2 at j, r_qp those with P2 at i and P1 at j.
    """

    r_dq: int
    r_pq: int
    r_qp: int


@record()
class BalanceReport:
    """Outcome of the four balance conditions up to some failure size.

    taus maps each failure size to the common per-column entry count, or None
    when the counts differ. The group's shape stays on the group, and each
    failure set's reads per surviving column in reconstruction_plan(group,
    lost).reads (entry counts are r times those).
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
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
    return ParityGroup(code, _all_arrangements(k, delta))


def single_arrangement_group(code: HorizontalCode) -> ParityGroup:
    """Just the canonical arrangement: data columns first, then P1..Pdelta."""
    return ParityGroup(code, (canonical_labels(code.k, code.delta),))


def cyclic_rotation_group(code: HorizontalCode) -> ParityGroup:
    """The k successive right-rotations of the canonical arrangement."""
    base = canonical_labels(code.k, code.delta)
    k = code.k
    rows = tuple(base[-shift:] + base[:-shift] if shift else base for shift in range(k))
    return ParityGroup(code, rows)


# Each arrangement family's builder, by the name files, --family and ParityGroup.family use.
FAMILIES = {
    "full": balance_horizontal_code,
    "single": single_arrangement_group,
    "rotations": cyclic_rotation_group,
}


def group_family(code: HorizontalCode, family: str) -> ParityGroup:
    """The named family's group, its family name already cached: no second build."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ParamError(f"unknown arrangement family {shown(family)}")
    group = FAMILIES[family](code)
    vars(group)["family"] = family
    return group


def reconstruction_plan(group: ParityGroup, lost: tuple[int, ...]) -> ReconstructionPlan:
    """The memoized plan for an instance that lost the sorted positions `lost`.

    The tuple is checked on every call, a memo hit too: its entries must be
    exact ints, sorted and distinct in 0..k-1, so (True,), (1.0,) and a list
    are refused. The plan is then `_plan`'s for the tuple's mask.
    """
    k, ints = group.k, type(lost) is tuple and all(type(p) is int for p in lost)
    if not ints or list(lost) != sorted(set(lost) & set(range(k))):
        raise ParamError(f"lost positions must be sorted and distinct in 0..{k - 1}, got {shown(lost)}")
    return _plan(group, sum(1 << p for p in lost))


def _plan(group: ParityGroup, mask: int) -> ReconstructionPlan:
    """The plan for an instance that lost the positions set in `mask` (bit p
    for position p), from the group's memo `_plans`, built there on a miss:
    one reconstruction_rule call per extended row, each a memo hit after the
    first few, then one C-level count per surviving position, of the rows
    whose needs hold the label that position's column has.
    """
    if plan := group._plans.get(mask):
        return plan
    k, columns, rows = group.k, group.label_columns, len(group.extended_rows)
    lost = tuple(pos for pos in range(k) if mask >> pos & 1)
    # Each row's lost labels; zip over no columns would yield no rows at all.
    lost_labels = zip(*map(columns.__getitem__, lost)) if lost else repeat((), rows)
    needs = tuple(map(reconstruction_rule, repeat(group.delta), lost_labels))
    reads = {pos: sum(map(contains, needs, columns[pos])) for pos in range(k) if pos not in lost}
    plan = group._plans[mask] = ReconstructionPlan(
        lost, reads, group.delta, group.extended_rows, group.canonical_columns
    )
    return plan


def check_size(name: str, s, delta: int, low: int = 1) -> None:
    """Refuse a failure size that is not an int in low..delta; a bool is not a size."""
    if type(s) is not int or not low <= s <= delta:
        raise ParamError(f"need {low} <= {name} <= delta={delta}, got {shown(s)}")


def _read_counts(group: ParityGroup, s: int) -> tuple[int, ...]:
    """The distinct numbers of extended rows that read a surviving position,
    over the plans of every size-s failure set, ascending. The plans come
    from the group's memo (`_plan`), so a repeated size builds none."""
    masks = (sum(1 << pos for pos in lost) for lost in combinations(range(group.k), s))
    return tuple(sorted({rows for mask in masks for rows in _plan(group, mask).reads.values()}))


def verify_balance(group: ParityGroup, max_s: int) -> BalanceReport:
    """Evaluate the four balance conditions up to failure size max_s.

    The first two conditions are structural. Every arrangement is a column
    permutation of an MDS codeword, so the data/parity entry split is fixed
    (condition one) and any loss of at most delta columns stays decodable
    (condition two). The read-uniformity condition is checked by exhaustive
    enumeration of failure sets (_read_counts, off the memoized plans), the
    parity-placement condition by the group's parity_per_column.
    """
    check_size("max_s", max_s, group.delta)
    counts = {s: _read_counts(group, s) for s in range(1, max_s + 1)}
    taus = {s: group.r * v[0] if len(v) == 1 else None for s, v in counts.items()}
    return BalanceReport(
        c1=True, c2=True,
        c3=None not in taus.values(),
        c4=len(set(group.parity_per_column)) == 1,
        taus=taus,
    )


def arrangement_counts(group: ParityGroup, i: int, j: int) -> ArrangementCounts:
    """Tally (label at i, label at j) patterns over the extended rows, delta=2 only."""
    if group.delta != 2:
        raise ParamError(f"arrangement counts are defined for delta=2, got {group.delta}")
    check_ints(i=i, j=j, low=0, high=group.k - 1)
    if i == j:
        raise ParamError("need two distinct columns")
    p1, p2 = parity_label(1), parity_label(2)
    pairs = Counter(zip(group.label_columns[i], group.label_columns[j]))
    return ArrangementCounts(r_dq=pairs[DATA, p2], r_pq=pairs[p1, p2], r_qp=pairs[p2, p1])


def tau(group: ParityGroup, s: int) -> int:
    """Entries read from each surviving column when any s columns are lost.

    Raises UnbalancedGroup when the count depends on the failure set or the
    column, in which case no single number exists. The read counts come from
    _read_counts, off the memoized plans that verify_balance shares.
    """
    check_size("s", s, group.delta)
    values = _read_counts(group, s)
    if len(values) != 1:
        raise UnbalancedGroup(
            f"per-column read counts differ across size-{s} failures: {list(values)}"
        )
    return group.r * values[0]

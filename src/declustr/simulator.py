"""Byte-level materialization, failure injection, and recovery checking.

A layout becomes an array of n byte vectors (one byte per unit). Every group
instance holds its own codewords, but the simulator moves them in bulk: a
cell handed to the codec packs one byte per instance (a lane), so one encode
call per extended row fills every instance at once. On failure, the affected
instances are grouped by the positions they lost; each group follows the
parity group's memoized reconstruction plan for those positions (the same
plan the analysis tallies), and every (group, extended row) that leaves the
same canonical erasure pattern is decoded by one multi-lane call that reads
exactly the columns the rule names. Rebuilt bytes go to fresh replacement
disks. Measured reads must match the analysis module's enumeration unit for
unit.

Data bytes come from a 64-bit xorshift stream (shifts 13, 7, 17; low byte of
each state is emitted), so fixtures are portable: same seed, same array.
Seed 0 is the generator's fixed point and yields the all-zero fill.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations, islice

from .errors import InvariantError, ParamError
from .layout import DeclusteredLayout, check_failed
from .parity_groups import ReconstructionPlan, reconstruction_plan
from .analysis import reconstruction_workload

_MASK64 = (1 << 64) - 1


def byte_stream(seed: int):
    """Endless deterministic byte generator (xorshift64, low byte)."""
    state = seed & _MASK64
    while True:
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        yield state & 0xFF


@dataclass
class DiskArray:
    """n byte vectors of equal length plus the layout that shaped them."""

    layout: DeclusteredLayout
    disks: list[bytearray]

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def rows_per_disk(self) -> int:
        return self.layout.rows_per_disk

    def copy(self) -> "DiskArray":
        return DiskArray(self.layout, [bytearray(d) for d in self.disks])


@dataclass(frozen=True)
class IOStats:
    """Units read per surviving disk and written per replacement disk."""

    reads: dict[int, int]
    writes: dict[int, int]


@dataclass(frozen=True)
class SetResult:
    """One failure set's outcome inside an exhaustive sweep."""

    failed: tuple[int, ...]
    recovered: bool
    min_reads: int
    max_reads: int


@dataclass(frozen=True)
class VerifySummary:
    """Aggregate of an exhaustive sweep over all size-s failure sets."""

    s: int
    total: int
    passed: int
    results: tuple[SetResult, ...]
    min_reads: int
    max_reads: int
    uniform: bool

    @property
    def reads_per_disk(self) -> int | None:
        return self.min_reads if self.uniform else None


@dataclass(frozen=True)
class UnitProvenance:
    """Where one stored byte lives in group coordinates."""

    block_index: int
    extended_row: int
    inner_row: int
    label: str


def materialize(layout: DeclusteredLayout, seed: int) -> DiskArray:
    """Fill every instance from the seeded stream and encode it.

    Fill order is fixed: instances in block order, extended rows top to
    bottom, inner rows in order, data slots left to right. A disk stacks its
    column-units contiguously in ascending block index, m bytes each.
    """
    group = layout.group
    code = group.code
    k, delta, r, m = group.k, group.delta, group.r, group.m
    data_cols = k - delta
    lanes = len(layout.placements)
    per_instance = m * data_cols
    fill = bytes(islice(byte_stream(seed), lanes * per_instance))
    # units[pos] holds the column-unit at position pos of every instance,
    # one after another in block order.
    units = [bytearray(lanes * m) for _ in range(k)]
    for e, columns in enumerate(group.canonical_columns):
        data = [
            [
                int.from_bytes(fill[(e * r + j) * data_cols + s :: per_instance], "little")
                for s in range(data_cols)
            ]
            for j in range(r)
        ]
        codeword = code.encode(data)
        for pos, column in enumerate(columns):
            for j in range(r):
                units[pos][e * r + j :: m] = codeword[j][column].to_bytes(lanes, "little")
    disks = [bytearray(layout.rows_per_disk) for _ in range(layout.n)]
    base = [0] * layout.n
    for index, placement in enumerate(layout.placements):
        for pos, disk in enumerate(placement):
            disks[disk][base[disk] : base[disk] + m] = units[pos][index * m : (index + 1) * m]
            base[disk] += m
    return DiskArray(layout, disks)


def _instance_grid(array: DiskArray, placement, base, e: int, columns) -> list[list[int]]:
    """Pull one extended row's full codeword back out of the disks."""
    group = array.layout.group
    grid = [[0] * group.k for _ in range(group.r)]
    for pos, disk in enumerate(placement):
        offset = base[disk] + e * group.r
        for j in range(group.r):
            grid[j][columns[pos]] = array.disks[disk][offset + j]
    return grid


def check_parity_invariant(array: DiskArray) -> bool:
    """True iff every stored codeword re-encodes to itself from its data part."""
    layout = array.layout
    group = layout.group
    code = group.code
    canon = group.canonical_columns
    base = [0] * layout.n
    for placement in layout.placements:
        for e in range(len(group.extended_rows)):
            grid = _instance_grid(array, placement, base, e, canon[e])
            data = [grid_row[: group.k - group.delta] for grid_row in grid]
            if code.encode(data) != grid:
                return False
        for disk in placement:
            base[disk] += group.m
    return True


@dataclass(slots=True)
class _LostGroup:
    """Affected instances that lost the same positions: one batch of lanes.

    A member is an instance's placement and its column-unit offset on each
    of its disks. units holds, per position the plan reads, the members'
    column-units one after another (m bytes each); rebuilt does the same for
    each lost position and is filled by the decodes.
    """

    members: list[tuple[tuple[int, ...], list[int]]]
    plan: ReconstructionPlan
    units: dict[int, bytes]
    rebuilt: dict[int, bytearray]


def fail_and_reconstruct(array: DiskArray, failed) -> tuple[DiskArray, IOStats]:
    """Rebuild the failed disks onto replacements, reading per the rule.

    Returns the recovered array (surviving disks copied, failed disks
    rebuilt) and per-disk read/write unit counts. Instances that lost no
    column are never touched.
    """
    layout = array.layout
    group = layout.group
    r, m = group.r, group.m
    failed = check_failed(layout, failed)
    disks = array.disks
    recovered = DiskArray(
        layout,
        [
            bytearray(layout.rows_per_disk) if d in failed else bytearray(disks[d])
            for d in range(layout.n)
        ],
    )
    reads = {d: 0 for d in range(layout.n) if d not in failed}
    writes = {d: 0 for d in failed}

    by_lost: dict[tuple[int, ...], _LostGroup] = {}
    base = [0] * layout.n
    for placement in layout.placements:
        if not failed.isdisjoint(placement):
            lost = tuple(pos for pos, disk in enumerate(placement) if disk in failed)
            if lost not in by_lost:
                by_lost[lost] = _LostGroup([], reconstruction_plan(group, lost), {}, {})
            by_lost[lost].members.append((placement, [base[d] for d in placement]))
        for disk in placement:
            base[disk] += m

    # Canonical erasure pattern -> the (extended row, group) pairs that leave it.
    by_pattern: dict[tuple[int, ...], list[tuple[int, _LostGroup]]] = {}
    for lost, batch in by_lost.items():
        members, plan = batch.members, batch.plan
        for pos, rows in plan.reads.items():
            if rows:
                batch.units[pos] = b"".join([
                    disks[placement[pos]][offsets[pos] : offsets[pos] + m]
                    for placement, offsets in members
                ])
                for placement, _ in members:
                    reads[placement[pos]] += r * rows
        batch.rebuilt = {pos: bytearray(len(members) * m) for pos in lost}
        for e, erased in enumerate(plan.erased):
            by_pattern.setdefault(erased, []).append((e, batch))

    for erased, contributors in by_pattern.items():
        _decode_pattern(group.code, erased, contributors, r, m)

    for batch in by_lost.values():
        for pos, unit in batch.rebuilt.items():
            view = memoryview(unit)
            for i, (placement, offsets) in enumerate(batch.members):
                start = offsets[pos]
                recovered.disks[placement[pos]][start : start + m] = view[i * m : (i + 1) * m]
                writes[placement[pos]] += m
    return recovered, IOStats(reads=reads, writes=writes)


def _decode_pattern(code, erased: tuple[int, ...], contributors, r: int, m: int):
    """Decode every (extended row, group) with this erasure pattern in one call.

    The call's lanes are the groups' instances, in contributor order. Inner
    row j of a column gathers byte e*r+j of each instance's column-unit with
    one strided slice per contributor; rebuilt columns are scattered back the
    same way.
    """
    k = code.k
    planned = [c for c in range(k) if c not in erased]
    lanes = sum(len(batch.members) for _, batch in contributors)
    grid: list[list[int | None]] = [[None] * k for _ in range(r)]
    for i, c in enumerate(planned):
        sources = [(batch.units[batch.plan.sources[e][i]], e * r) for e, batch in contributors]
        for j in range(r):
            gathered = b"".join([unit[base + j :: m] for unit, base in sources])
            grid[j][c] = int.from_bytes(gathered, "little")
    out, decoder_reads = code.decode(grid, erased)
    if sorted(decoder_reads) != planned:
        raise InvariantError(
            f"decoder read columns {sorted(decoder_reads)}, planned {planned}"
        )
    for j in range(r):
        rebuilt = {c: out[j][c].to_bytes(lanes, "little") for c in erased}
        start = 0
        for e, batch in contributors:
            end = start + len(batch.members)
            for pos, unit in batch.rebuilt.items():
                unit[e * r + j :: m] = rebuilt[batch.plan.columns[e][pos]][start:end]
            start = end


def exhaustive_verify(
    layout: DeclusteredLayout, s: int, seed: int = 1, jobs: int = 1
) -> VerifySummary:
    """Run fail_and_reconstruct over every size-s failure set.

    Each set is checked for byte-exact recovery and its per-disk read range
    recorded; the sweep is uniform when every set reads the same count from
    every survivor. Sets are independent, so jobs > 1 spreads them over a
    thread pool; the result order is always the sorted failure-set order.
    """
    delta = layout.group.delta
    if not 0 <= s <= delta:
        raise ParamError(f"need 0 <= s <= delta={delta}, got {s}")
    if jobs < 1:
        raise ParamError(f"jobs must be >= 1, got {jobs}")
    array = materialize(layout, seed)
    failure_sets = list(combinations(range(layout.n), s))

    def check(failed: tuple[int, ...]) -> SetResult:
        rebuilt, stats = fail_and_reconstruct(array, failed)
        counts = stats.reads.values()
        return SetResult(
            failed=failed,
            recovered=all(rebuilt.disks[d] == array.disks[d] for d in failed),
            min_reads=min(counts),
            max_reads=max(counts),
        )

    if jobs == 1:
        results = [check(failed) for failed in failure_sets]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(check, failure_sets))
    low = min(result.min_reads for result in results)
    high = max(result.max_reads for result in results)
    return VerifySummary(
        s=s,
        total=len(results),
        passed=sum(1 for result in results if result.recovered),
        results=tuple(results),
        min_reads=low,
        max_reads=high,
        uniform=low == high,
    )


def unit_provenance(layout: DeclusteredLayout, disk: int, offset: int) -> UnitProvenance:
    """Group coordinates of the byte at (disk, offset)."""
    group = layout.group
    if not 0 <= disk < layout.n:
        raise ParamError(f"disk must be in 0..{layout.n - 1}, got {disk}")
    if not 0 <= offset < layout.rows_per_disk:
        raise ParamError(
            f"offset must be in 0..{layout.rows_per_disk - 1}, got {offset}"
        )
    stack_index, rem = divmod(offset, group.m)
    e, j = divmod(rem, group.r)
    holders = [
        index for index, placement in enumerate(layout.placements) if disk in placement
    ]
    block_index = holders[stack_index]
    pos = layout.placements[block_index].index(disk)
    return UnitProvenance(
        block_index=block_index,
        extended_row=e,
        inner_row=j,
        label=group.extended_rows[e][pos],
    )


def dump_disk(array: DiskArray, disk: int) -> str:
    """Hex dump of one disk with provenance per byte (debugging aid only)."""
    lines = []
    for offset in range(array.rows_per_disk):
        who = unit_provenance(array.layout, disk, offset)
        lines.append(
            f"{offset:6d}  {array.disks[disk][offset]:02x}  "
            f"block={who.block_index} row={who.extended_row}.{who.inner_row} "
            f"label={who.label}"
        )
    return "\n".join(lines)


def measured_matches_predicted(array: DiskArray, failed) -> bool:
    """True iff simulated reads equal the enumeration's predicted counts."""
    _, stats = fail_and_reconstruct(array, failed)
    return stats.reads == reconstruction_workload(array.layout, failed).reads

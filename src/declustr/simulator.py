"""Byte-level materialization, failure injection, and recovery checking.

A layout becomes an array of n byte vectors (one byte per unit). Every group
instance holds its own codewords, but the simulator moves them in bulk: a
cell handed to the codec packs one byte per instance (a lane), so one encode
call per extended row fills every instance at once. Reads are tallied by the
same function as the analysis's enumeration (`layout.survivor_reads`), so
they match it unit for unit; what backs them is the check, on every decode
call, that the decoder read exactly the columns the memoized reconstruction
plan names.

A single rebuild batches its failure set's affected instances: they come
as one placement bit mask per lost tuple (`layout.losses`), and each batch's
byte planes (plane x holds byte x of every lane's unit) are transposed once
per position read. Each canonical erasure pattern is decoded by one call
over every (extended row, batch) that leaves it, and the decoded cells are
transposed back onto fresh replacement disks.

An exhaustive sweep has its own core, in column space. Every stored unit is
gathered once, into one int per (canonical column, inner row) whose lanes
are every (extended row, instance). Each canonical erasure pattern that the
sets' lost tuples leave is decoded by one call over all lanes, and each
erased column is compared with its stored int by one `==`; lanes are walked
only on a mismatch. Every plan reads k - delta columns per extended row, so
each pattern erases exactly delta columns; an instance's rebuilt units
depend only on its own stored bytes and the positions it lost, and all sets
start from the same array, so each is decoded once however many sets
produce it. A lane that no (lost tuple, extended row) uses is decoded too,
but its cells fail no set.

Data bytes come from a 64-bit xorshift stream (shifts 13, 7, 17; low byte of
each state is emitted), so fixtures are portable: same seed, same array.
Seed 0 is the generator's fixed point and yields the all-zero fill.
`byte_stream` is the reference, one byte per step. `materialize` takes the
same bytes from the stream's linear recurrence instead: the xorshift step is
linear over GF(2) (Marsaglia, "Xorshift RNGs", J. Stat. Softw. 2003), so
every output bit obeys one 24-tap XOR recurrence of degree 64, and so does
every block of S bytes when S is a power of two. Each block after the first
64 is the XOR of 24 earlier ones, and those 64 blocks are themselves filled
the same way at half the block size, down to a head of at most 512 bytes
drawn from `byte_stream`. Each disk is then one join of its stacked
column-units.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, count, islice
from operator import getitem, itemgetter

from .designs import MAX_ARRAY_BYTES, _check_ints, check_budget
from .errors import InvariantError
from .layout import (
    DeclusteredLayout,
    check_failed,
    check_index,
    losses,
    placement_indices,
    survivor_reads,
)
from .parity_groups import ReconstructionPlan, check_size, reconstruction_plan

_MASK64 = (1 << 64) - 1

# Exponents of the stream's characteristic polynomial p(x) = 1 + sum x^j
# (found by Berlekamp-Massey on its output bits): y_i = XOR of y_{i-j} for j
# in _TAPS, for every bit of every byte. Over GF(2), p(x)^S = p(x^S) when S
# is a power of two, so S-byte blocks obey the same taps.
_TAPS = (
    8, 11, 12, 13, 14, 15, 17, 18, 20, 22, 25, 27, 31, 32, 34, 36, 37, 41, 44, 48, 51, 52, 55, 64
)


def byte_stream(seed: int):
    """Endless deterministic byte generator (xorshift64, low byte)."""
    state = seed & _MASK64
    while True:
        state ^= (state << 13) & _MASK64
        state ^= state >> 7
        state ^= (state << 17) & _MASK64
        yield state & 0xFF


def _block_size(length: int) -> int:
    """Recurrence block size for a fill of `length` bytes: the largest power
    of two S with 128 * S <= length, at least 8, so the 64-block head is at
    most half the fill."""
    return 1 << max(3, (length >> 7).bit_length() - 1)


def _fill_bytes(seed: int, length: int) -> bytes:
    """The first `length` bytes of `byte_stream(seed)`, block by block.

    The head, blocks 0..63, is itself a fill: of 64 * S bytes, at half the
    block size, and so on down until a head of at most 512 bytes is drawn
    from `byte_stream`. Block q >= 64, read as an int, is the XOR of blocks
    q - j for j in _TAPS. Only the last 64 blocks are kept as ints; the bytes
    go straight into one preallocated buffer.
    """
    size = _block_size(length)
    head = 64 * size
    if length <= head:
        return bytes(islice(byte_stream(seed), length))
    out = bytearray(length)
    out[:head] = _fill_bytes(seed, head)
    ring = [int.from_bytes(out[q * size : (q + 1) * size], "little") for q in range(64)]
    for q, start in enumerate(range(head, length, size), 64):
        block = 0
        for j in _TAPS:
            block ^= ring[(q - j) & 63]
        ring[q & 63] = block
        out[start : start + size] = block.to_bytes(size, "little")[: length - start]
    return bytes(out)


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
    column-units contiguously in ascending block index, m bytes each. The
    seed must be an int; it is taken mod 2^64. An array of more than
    MAX_ARRAY_BYTES bytes is refused before anything is allocated.
    """
    _check_ints(seed=seed)
    n, rows = layout.n, layout.rows_per_disk
    check_budget(f"an array of {n}*{rows}", n * rows, "bytes", MAX_ARRAY_BYTES)
    group = layout.group
    code = group.code
    k, delta, r, m = group.k, group.delta, group.r, group.m
    data_cols = k - delta
    lanes = len(layout.placements)
    per_instance = m * data_cols
    fill = _fill_bytes(seed, lanes * per_instance)
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
    del fill  # freed before the disks are joined: nothing reads it past the encode
    # A disk is its stack's column-units joined in order: unit (index, pos)
    # is units[pos][slices[index]].
    slices = [slice(index * m, (index + 1) * m) for index in range(lanes)]
    disks = [
        bytearray().join(
            map(
                getitem,
                map(units.__getitem__, map(itemgetter(1), stack)),
                map(slices.__getitem__, map(itemgetter(0), stack)),
            )
        )
        for stack in layout.stacks
    ]
    return DiskArray(layout, disks)


def check_parity_invariant(array: DiskArray) -> bool:
    """True iff every stored codeword re-encodes to itself from its data part."""
    layout, group = array.layout, array.layout.group
    k, r = group.k, group.r
    for placement, offsets in zip(layout.placements, layout.unit_offsets):
        for e, columns in enumerate(group.canonical_columns):
            grid = [[0] * k for _ in range(r)]
            for pos, disk in enumerate(placement):
                for j in range(r):
                    grid[j][columns[pos]] = array.disks[disk][offsets[pos] + e * r + j]
            if group.code.encode([row[: k - group.delta] for row in grid]) != grid:
                return False
    return True


@dataclass(slots=True, eq=False)
class _Batch:
    """Affected instances that lost the same positions, as one batch of lanes.

    lanes holds the members (layout indices), ascending. planes maps each
    position the plan reads to the lanes' stored planes there (see _planes).
    """

    lost: tuple[int, ...]
    plan: ReconstructionPlan
    lanes: list[int]
    planes: dict[int, list[bytes]]


def _units(array: DiskArray, lanes, pos: int) -> bytes:
    """The stored column-units of `lanes` (layout indices) at pos, joined lane after lane."""
    layout, m, at = array.layout, array.layout.group.m, array.layout.unit_offsets
    return b"".join([
        array.disks[layout.placements[i][pos]][at[i][pos] : at[i][pos] + m] for i in lanes
    ])


def _planes(array: DiskArray, lanes, pos: int) -> list[bytes]:
    """The stored byte planes of `lanes` at pos: plane x holds byte x of each
    lane's unit, so plane e*r+j is inner row j of extended row e."""
    units, m = _units(array, lanes, pos), array.layout.group.m
    return [units[x::m] for x in range(m)]


def _checked_decode(code, grid, erased: tuple[int, ...]) -> list[list[int]]:
    """code.decode, checked to read exactly the columns the plans left unerased."""
    out, decoder_reads = code.decode(grid, erased)
    planned = [c for c in range(code.k) if c not in erased]
    if sorted(decoder_reads) != planned:
        raise InvariantError(f"decoder read columns {sorted(decoder_reads)}, planned {planned}")
    return out


def _decode_pattern(code, erased: tuple[int, ...], contributors):
    """Decode (extended row, batch) contributors with this erasure pattern in one call.

    The lanes are the batches' lanes, in contributor order: inner row j of a
    column joins stored plane e*r+j of each contributor at the position read
    there. Returns each erased column's cells by inner row, not the grid.
    """
    k, r = code.k, code.r
    grid: list[list[int | None]] = [[None] * k for _ in range(r)]
    for i, c in enumerate(c for c in range(k) if c not in erased):
        sources = [(batch.planes[batch.plan.sources[e][i]], e * r) for e, batch in contributors]
        for j in range(r):
            grid[j][c] = int.from_bytes(
                b"".join([planes[base + j] for planes, base in sources]), "little"
            )
    out = _checked_decode(code, grid, erased)
    return {c: [row[c] for row in out] for c in erased}


def fail_and_reconstruct(array: DiskArray, failed) -> tuple[DiskArray, IOStats]:
    """Rebuild the failed disks onto replacements, reading per the rule.

    Returns the recovered array (surviving disks copied, failed disks written
    from the decoded cells, strided into each batch's lost units, then a lane
    at a time) and per-disk read/write unit counts. Instances that lost no
    column are never touched.
    """
    layout = array.layout
    failed = check_failed(layout, failed)
    affected = losses(layout, failed)
    reads = survivor_reads(layout, failed, affected)
    group, calls, batches = layout.group, {}, []
    m, r, writes = group.m, group.r, dict.fromkeys(failed, 0)
    for lost, mask in affected.items():
        lanes, plan = list(placement_indices(mask)), reconstruction_plan(group, lost)
        read = chain.from_iterable(plan.by_rows.values())
        batches.append(_Batch(lost, plan, lanes, {pos: _planes(array, lanes, pos) for pos in read}))
        for e, erased in enumerate(plan.erased):
            calls.setdefault(erased, []).append((e, batches[-1]))
    # rebuilt[batch][pos] holds the batch's rebuilt column-units at pos, lane after lane.
    rebuilt = {b: {pos: bytearray(len(b.lanes) * m) for pos in b.lost} for b in batches}
    for erased, contributors in calls.items():
        out = _decode_pattern(group.code, erased, contributors)
        lanes = sum(len(batch.lanes) for _, batch in contributors)
        for j in range(r):
            cells = {c: column[j].to_bytes(lanes, "little") for c, column in out.items()}
            start = 0
            for e, batch in contributors:
                end = start + len(batch.lanes)
                for pos, units in rebuilt[batch].items():
                    units[e * r + j :: m] = cells[batch.plan.columns[e][pos]][start:end]
                start = end
    disks = [bytearray(len(disk) if d in failed else disk) for d, disk in enumerate(array.disks)]
    placements, offsets = layout.placements, layout.unit_offsets
    for batch in batches:
        for pos, units in rebuilt[batch].items():
            for lane, index in enumerate(batch.lanes):
                disk, at = placements[index][pos], offsets[index][pos]
                disks[disk][at : at + m] = units[lane * m : (lane + 1) * m]
                writes[disk] += m
    return DiskArray(layout, disks), IOStats(reads=reads, writes=writes)


def _column_cells(array: DiskArray) -> list[list[int]]:
    """cells[c][j]: inner row j of canonical column c over every (extended
    row, instance) lane, lane e*b + i holding instance i's stored byte in
    extended row e (b instances).

    Each position's units over every instance are gathered once; the plane
    of each (extended row, inner row) is copied straight into the buffer of
    the column the position holds in that row. A column's buffers become
    ints before the next column's, so only one column is ever held twice.
    """
    layout, group = array.layout, array.layout.group
    b, r, m = len(layout.placements), group.r, group.m
    cells = [[bytearray(len(group.extended_rows) * b) for _ in range(r)] for _ in range(group.k)]
    for pos in range(group.k):
        units = _units(array, range(b), pos)
        for e, columns in enumerate(group.canonical_columns):
            for j, cell in enumerate(cells[columns[pos]]):
                cell[e * b : (e + 1) * b] = units[e * r + j :: m]
    for c, column in enumerate(cells):
        cells[c] = [int.from_bytes(cell, "little") for cell in column]
    return cells


def _check_pattern(layout: DeclusteredLayout, cells, erased: tuple[int, ...], plans, wrong) -> None:
    """Decode one erasure pattern over every lane (see _column_cells) and
    compare each erased column with its stored cells by one int compare.

    Lanes are walked only on a mismatch: wrong lane e*b + i is ORed into
    wrong[lost] as instance i for each lost tuple whose plan erases this
    pattern in extended row e and lost the position holding the column
    there. Any other lane's cells are never used, so they cannot fail a set.
    """
    group, b = layout.group, len(layout.placements)
    grid = [
        [None if c in erased else column[j] for c, column in enumerate(cells)]
        for j in range(group.r)
    ]
    out, users = _checked_decode(group.code, grid, erased), None
    for c in erased:
        for j, stored in enumerate(cells[c]):
            if out[j][c] == stored:
                continue
            if users is None:  # per extended row, the lost tuples decoded with this pattern
                users = [
                    [lost for lost, plan in plans.items() if plan.erased[e] == erased]
                    for e in range(len(group.extended_rows))
                ]
            diff = (out[j][c] ^ stored).to_bytes(len(users) * b, "little")
            for lane in compress(count(), diff):
                e, i = divmod(lane, b)
                pos = group.canonical_columns[e].index(c)
                for lost in users[e]:
                    if pos in lost:
                        wrong[lost] = wrong.get(lost, 0) | 1 << i


def exhaustive_verify(layout: DeclusteredLayout, s: int, seed: int = 1) -> VerifySummary:
    """Rebuild every size-s failure set of one seeded fill and check each.

    The sets share one decode per canonical erasure pattern that their lost
    tuples' plans leave, over every (extended row, instance) lane (see
    _column_cells and _check_pattern). No set gets replacement disks and no
    rebuilt byte outlives its pattern's call; a wrong cell fails every set
    with an instance whose plan decodes it in that row and lost its column.
    A set whose instances lost other than s disks' worth of column-units
    fails too, as some unit it lost was never rebuilt. Each set keeps only
    its read range and lost-unit count; the sweep is uniform when every set
    reads the same count from every survivor. Results are in sorted
    failure-set order.
    """
    check_size("s", s, layout.group.delta, low=0)
    array = materialize(layout, seed)
    failure_sets = list(combinations(range(layout.n), s))
    lost_tuples, tallies = set(), []
    for failed in map(frozenset, failure_sets):
        affected = losses(layout, failed)
        reads = survivor_reads(layout, failed, affected).values()
        lost_tuples.update(affected)
        lost_units = sum(len(lost) * mask.bit_count() for lost, mask in affected.items())
        tallies.append((min(reads), max(reads), lost_units))
    wrong: dict[tuple[int, ...], int] = {}  # lost tuple -> instances rebuilt wrong with it
    if lost_tuples:
        plans = {lost: reconstruction_plan(layout.group, lost) for lost in lost_tuples}
        cells = _column_cells(array)
        del array  # the cells hold every stored byte the decodes need
        for erased in sorted(set().union(*(plan.erased for plan in plans.values()))):
            _check_pattern(layout, cells, erased, plans, wrong)
    lost_per_set = s * layout.units_per_disk
    results = tuple(
        SetResult(
            failed=failed,
            recovered=lost_units == lost_per_set and not (wrong and any(
                wrong.get(lost, 0) & hit for lost, hit in losses(layout, frozenset(failed)).items()
            )),
            min_reads=low, max_reads=high,
        )
        for failed, (low, high, lost_units) in zip(failure_sets, tallies)
    )
    low, high = min(tally[0] for tally in tallies), max(tally[1] for tally in tallies)
    return VerifySummary(
        s=s, total=len(results), passed=sum(result.recovered for result in results),
        results=results, min_reads=low, max_reads=high, uniform=low == high,
    )


def unit_provenance(layout: DeclusteredLayout, disk: int, offset: int) -> UnitProvenance:
    """Group coordinates of the byte at (disk, offset)."""
    group = layout.group
    check_index("disk", disk, layout.n)
    check_index("offset", offset, layout.rows_per_disk)
    stack_index, rem = divmod(offset, group.m)
    e, j = divmod(rem, group.r)
    block_index, pos = layout.stacks[disk][stack_index]
    return UnitProvenance(
        block_index=block_index,
        extended_row=e,
        inner_row=j,
        label=group.extended_rows[e][pos],
    )

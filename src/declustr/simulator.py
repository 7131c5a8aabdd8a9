"""Byte-level materialization, failure injection, and recovery checking.

A layout becomes an array of n byte vectors (one byte per unit). Every group
instance holds its own codewords, but the simulator moves them in bulk: a
cell handed to the codec packs one byte per instance (a lane), so one encode
call per extended row fills every instance at once. Reads are tallied by the
same function as the analysis's enumeration (`layout.survivor_reads`), so
they match it unit for unit; what backs them is the check, on every decode
call, that the decoder read exactly the columns the memoized reconstruction
plan names.

One rebuild core serves a single failure set and an exhaustive sweep alike.
Each set's affected instances come as one placement bit mask per lost tuple
(`layout.losses`), tallied, then ORed into one batch per lost tuple. Byte
planes (plane x holds byte x of every lane's unit) are transposed once per
lane set and position and shared by the batches with those lanes. Each
canonical erasure pattern is decoded by one call over every (extended row,
batch) that leaves it, split only where its grid would outgrow one copy of
the array. A single rebuild transposes the decoded cells back onto fresh
replacement disks. In a sweep the grouping spans every set: an instance's
rebuilt units depend only on its own stored bytes and the positions it lost,
and all sets start from the same array, so each (instance, lost tuple) is
decoded once however many sets produce it. Each call's cells are compared
with the stored planes, and a wrong unit fails every set that uses it.

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
from itertools import chain, combinations, islice
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

    lanes holds the members (layout indices), ascending. Plane x of a
    position holds byte x of each lane's unit there, so plane e*r+j is inner
    row j of extended row e. planes maps a position to its m stored planes,
    shared by every batch with the same lanes; a batch hashes by identity.
    """

    lost: tuple[int, ...]
    plan: ReconstructionPlan
    lanes: list[int]
    planes: dict[int, list[bytes]]


def _planes(array: DiskArray, batch: _Batch, pos: int) -> list[bytes]:
    """The lanes' stored planes at pos, built on first use from one join of
    their column-units and m strided slices."""
    if pos not in batch.planes:
        layout, m, at = array.layout, array.layout.group.m, array.layout.unit_offsets
        units = b"".join([
            array.disks[layout.placements[i][pos]][at[i][pos] : at[i][pos] + m] for i in batch.lanes
        ])
        batch.planes[pos] = [units[x::m] for x in range(m)]
    return batch.planes[pos]


def _tally(layout: DeclusteredLayout, failed: frozenset[int], members: dict) -> tuple[dict, int]:
    """One set's survivor reads and lost column-units; ORs its `losses` into members."""
    affected = losses(layout, failed)
    lost_units = 0
    for lost, mask in affected.items():
        members[lost] = members.get(lost, 0) | mask
        lost_units += len(lost) * mask.bit_count()
    return survivor_reads(layout, failed, affected), lost_units


def _rebuild(array: DiskArray, members: dict[tuple[int, ...], int]):
    """Return the batches of `members` (lost tuple -> instance mask) and their
    decode calls, as (erased, contributors) pairs for `_decode_pattern`.

    One pass groups the (extended row, batch) contributors of all batches by
    canonical erasure pattern, and each pattern makes one call, split only
    where the call's r x k grid of cells would hold more than one copy of the
    array (n * rows_per_disk bytes). Per lane, a contributor's grid is one
    extended row of a stored codeword, so one contributor, or all of one
    set's (its instances are distinct), always fits.
    """
    group, budget = array.layout.group, array.n * array.rows_per_disk
    shared, batches = {}, []  # shared: mask -> (lanes, planes) of that lane set
    by_pattern: dict[tuple[int, ...], list[tuple[int, _Batch]]] = {}
    for lost, mask in members.items():
        lane_set = shared.get(mask) or shared.setdefault(mask, (list(placement_indices(mask)), {}))
        batch = _Batch(lost, reconstruction_plan(group, lost), *lane_set)
        batches.append(batch)
        for pos in chain.from_iterable(batch.plan.by_rows.values()):
            _planes(array, batch, pos)
        for e, erased in enumerate(batch.plan.erased):
            by_pattern.setdefault(erased, []).append((e, batch))
    if group.m * group.k * sum(len(batch.lanes) for batch in batches) <= budget:
        return batches, list(by_pattern.items())
    calls = []
    for erased, contributors in by_pattern.items():
        size = budget  # so the first contributor opens a call
        for contributor in contributors:
            need = group.r * group.k * len(contributor[1].lanes)
            if size + need > budget:
                calls.append((erased, []))
                size = 0
            calls[-1][1].append(contributor)
            size += need
    return batches, calls


def _decode_pattern(code, erased: tuple[int, ...], contributors):
    """Decode (extended row, batch) contributors with this erasure pattern in one call.

    The lanes are the batches' lanes, in contributor order: inner row j of a
    column joins stored plane e*r+j of each contributor at the position read
    there. Returns each erased column's cells by inner row, not the grid.
    """
    k, r = code.k, code.r
    planned = [c for c in range(k) if c not in erased]
    grid: list[list[int | None]] = [[None] * k for _ in range(r)]
    for i, c in enumerate(planned):
        sources = [(batch.planes[batch.plan.sources[e][i]], e * r) for e, batch in contributors]
        for j in range(r):
            grid[j][c] = int.from_bytes(
                b"".join([planes[base + j] for planes, base in sources]), "little"
            )
    out, decoder_reads = code.decode(grid, erased)
    if sorted(decoder_reads) != planned:
        raise InvariantError(f"decoder read columns {sorted(decoder_reads)}, planned {planned}")
    return {c: [row[c] for row in out] for c in erased}


def _compare(array: DiskArray, contributors, out, wrong: dict) -> None:
    """Check one call's decoded cells (see _decode_pattern) with the stored bytes.

    A cell at column c meets each contributor's stored plane at the position
    holding c through a byte mask that keeps the lanes of those that lost c
    (an erased column may survive unread). Lanes are walked only on a
    mismatch; each wrong lane's instance is ORed into wrong[lost tuple].
    """
    r = array.layout.group.r
    for c, decoded in out.items():
        held, keep = [], []
        for e, batch in contributors:
            pos = batch.plan.columns[e].index(c)
            held.append((_planes(array, batch, pos), e * r))
            keep.append((b"\xff" if pos in batch.lost else b"\0") * len(batch.lanes))
        keep = b"".join(keep)
        mask = int.from_bytes(keep, "little")
        for j, cell in enumerate(decoded):
            stored = b"".join([planes[base + j] for planes, base in held])
            if (cell ^ int.from_bytes(stored, "little")) & mask:
                got = cell.to_bytes(len(stored), "little")
                owners = ((batch.lost, index) for _, batch in contributors for index in batch.lanes)
                for x, (lost, index) in enumerate(owners):
                    if keep[x] and got[x] != stored[x]:
                        wrong[lost] = wrong.get(lost, 0) | 1 << index


def fail_and_reconstruct(array: DiskArray, failed) -> tuple[DiskArray, IOStats]:
    """Rebuild the failed disks onto replacements, reading per the rule.

    Returns the recovered array (surviving disks copied, failed disks written
    from the decoded cells, strided into each batch's lost units, then a lane
    at a time) and per-disk read/write unit counts. Instances that lost no
    column are never touched.
    """
    layout, members = array.layout, {}
    failed = check_failed(layout, failed)
    reads, _ = _tally(layout, failed, members)
    batches, calls = _rebuild(array, members)
    m, r, writes = layout.group.m, layout.group.r, dict.fromkeys(failed, 0)
    # rebuilt[batch][pos] holds the batch's rebuilt column-units at pos, lane after lane.
    rebuilt = {b: {pos: bytearray(len(b.lanes) * m) for pos in b.lost} for b in batches}
    for erased, contributors in calls:
        out = _decode_pattern(layout.group.code, erased, contributors)
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


def exhaustive_verify(layout: DeclusteredLayout, s: int, seed: int = 1) -> VerifySummary:
    """Rebuild every size-s failure set of one seeded fill and check each.

    The sets share one rebuild (see _rebuild): each (instance, lost tuple)
    that any set produces is decoded once, which is sound because its
    rebuilt units depend only on its own stored bytes and the positions it
    lost. No set gets replacement disks and no rebuilt byte outlives its
    decode call (see _compare); a wrong instance fails every set that
    produces its (instance, lost tuple). A set whose instances lost other
    than s disks' worth of column-units fails too, as some unit it lost was
    never rebuilt. Each set keeps only its read range and lost-unit count;
    the sweep is uniform when every set reads the same count from every
    survivor. Results are in sorted failure-set order.
    """
    check_size("s", s, layout.group.delta, low=0)
    array = materialize(layout, seed)
    failure_sets = list(combinations(range(layout.n), s))
    members, tallies = {}, []
    for failed in failure_sets:
        reads, lost_units = _tally(layout, frozenset(failed), members)
        tallies.append((min(reads.values()), max(reads.values()), lost_units))
    _, calls = _rebuild(array, members)
    code, lost_per_set = layout.group.code, s * layout.units_per_disk
    wrong: dict[tuple[int, ...], int] = {}  # lost tuple -> instances rebuilt wrong with it
    for erased, contributors in calls:
        # Passed on, not bound, so a call's cells are freed before the next decodes.
        _compare(array, contributors, _decode_pattern(code, erased, contributors), wrong)
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

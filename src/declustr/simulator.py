"""Byte-level materialization, failure injection, and recovery checking.

A layout becomes an array of n byte vectors (one byte per unit). Every group
instance holds its own codewords, but the simulator moves them in bulk: a
cell handed to the codec packs one byte per (extended row, instance) pair,
a lane, so one encode call fills every instance at once. Reads are tallied by
the same count as the analysis's enumeration (`layout._tally`, which
`survivor_reads` wraps), so they match it unit for unit, and every plan comes
from the group's memo, so each distinct lost-position mask's plan is built once.
What backs the reads is the check, on every decode call, that the decoder
read exactly the columns the memoized reconstruction plan names.

The fill, a single rebuild and an exhaustive sweep share one lane layout,
column space: one buffer per (canonical column, inner row) whose lane e*L + x
holds lane x's byte of that column in extended row e (L lanes, one per
instance). Disks and column space meet in one unit-major buffer per
position, lane x's unit at bytes x*m..(x+1)*m. `_column_cells` gathers each
by picks of its lanes' units, a bounded group at a time, out of one join of
the disks (`layout.unit_slices`), then cuts column space out of it by
strided slices; `_scatter`, its inverse, moves column space into it along
the shorter axis (m strided writes when m < L, else L strided slices) and
joins each disk from runs of it, stretches of its stack at one position in
consecutive lanes, which one cutter makes (`layout.stack_runs`). A fill's
lanes are every instance, so its runs are the layout's (`layout.unit_runs`:
1,385 on complete(12,6,3), where one slice per unit made 5,544). Its data
cells are r*(k - delta) consecutive cuts of the stream, inner row j of data
column c being cut j*(k - delta) + c (`_data_cells`), so only the parity
cells, which one encode call makes (`_codewords`), go from int to bytes.

A single rebuild's lanes are the failure set's affected instances in
`layout.losses` group order, so each (extended row, lost mask) is one run of
lanes, gathered from the caller's disks with each failed disk read as zeros.
Each canonical erasure pattern is decoded by one call over
the runs whose plan leaves it, through its program pruned to the columns
those runs lost, and only those are written back, run by run; the lost
positions are then scattered onto fresh replacement disks, whose runs are
cut from their stacks by the lanes. Decoding every pattern over all lanes
instead would decode about 15 times the lanes on RS(6,2).

An exhaustive sweep's cells are the fill's encoded ints, so it builds no disk.
Each canonical erasure pattern that the sets' lost masks leave is decoded by
one call over all lanes, for the erased columns some lost mask lost with it
alone (through the pattern's memoized program pruned to them: for RDP, each
wanted cell from a check it is the last unknown of), and each of
those cells is compared with its stored int by one `==`; lanes are walked
only on a mismatch. Every plan reads k - delta columns per extended row, so
each pattern erases exactly delta columns; an instance's rebuilt units
depend only on its own stored bytes and the positions it lost, and all sets
start from the same array, so each is decoded once however many sets
produce it. A lane that no (lost mask, extended row) uses is decoded too,
but its cells fail no set.

Data bytes are the SHAKE-128 output (FIPS 202) of the seed mod 2^64, written
as 8 little-endian bytes, so fixtures are portable: same seed, same array,
and seed 0 is an ordinary seed. `byte_stream` iterates over that stream; a
fill takes its first bytes in one call (`_fill_bytes`).

With a recorder installed (`_stats`, which `simulate --stats` turns on), a
fill, rebuild or sweep records its phase times and counts; with none, each
phase boundary costs one `if`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import accumulate, chain, compress, count, repeat
from operator import add, getitem, itemgetter, mul, setitem

from . import _stats
from ._record import record
from .designs import MAX_ARRAY_BYTES, check_budget, check_ints
from .errors import InvariantError, ParamError, shown
from .layout import (
    DeclusteredLayout,
    _split,
    _tally,
    check_failed,
    losses,
    placement_indices,
    stack_runs,
    survivor_reads,
)
from .parity_groups import check_size

_MASK64 = (1 << 64) - 1

# A gather joins at most _PICK_LANES units at once, as a join holds an 80-byte
# record per item. _NOTHING leads a pick: itemgetter returns one item bare.
_PICK_LANES = 64
_NOTHING = slice(0, 0)


def _fill_bytes(seed: int, length: int) -> bytes:
    """The first `length` bytes of the stream: SHAKE-128 of the seed mod
    2^64, written as 8 little-endian bytes."""
    # Imported here: hashlib costs every CLI process about 3.5 ms at start-up,
    # and most never fill an array.
    from hashlib import shake_128

    return shake_128((seed & _MASK64).to_bytes(8, "little")).digest(length)


def byte_stream(seed: int):
    """Endless deterministic byte iterator: SHAKE-128 of the seed mod 2^64,
    whose first bytes `_fill_bytes` returns. The seed is checked at the
    call. A longer SHAKE-128 output extends a shorter one, so chunk i is
    the second half of a digest of 2^i bytes (all of it for i = 0)."""
    check_ints(seed=seed)
    return chain.from_iterable(_fill_bytes(seed, 1 << i)[1 << i >> 1 :] for i in count())


@record()
class DiskArray:
    """n byte vectors of equal length plus the layout that shaped them; the
    disks, given in any iterable, are stored as the list that was checked."""

    layout: DeclusteredLayout
    disks: list[bytearray]

    def __post_init__(self) -> None:
        n, rows = self.layout.n, self.layout.rows_per_disk
        needs = f"the layout needs {n} disks of {rows} bytes"
        try:  # one C-level pass; a disk that is not bytes-like has no memoryview
            self.disks = list(self.disks)
            views = list(map(memoryview, self.disks))
        except TypeError:  # the disks are not iterable, or a disk is not bytes-like
            raise ParamError(f"{needs}, got {shown(self.disks):.80}") from None
        # In bytes; wider items are refused too, as the rebuild slices disks by byte offset.
        sizes = [v.nbytes if v.itemsize == 1 else f"{v.nbytes} in {v.itemsize}-byte items"
                 for v in views]
        if sizes != [rows] * n:
            raise ParamError(f"{needs}, got disks of {sizes}")

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def rows_per_disk(self) -> int:
        return self.layout.rows_per_disk


@record(frozen=True)
class IOStats:
    """Units read per surviving disk and written per replacement disk."""

    reads: dict[int, int]
    writes: dict[int, int]


@record(frozen=True)
class SetResult:
    """One failure set's outcome inside an exhaustive sweep."""

    failed: tuple[int, ...]
    recovered: bool
    min_reads: int
    max_reads: int


@record(frozen=True)
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


@record(frozen=True)
class UnitProvenance:
    """Where one stored byte lives in group coordinates."""

    block_index: int
    extended_row: int
    inner_row: int
    label: str


def _data_cells(layout: DeclusteredLayout, seed: int) -> list[memoryview]:
    """The seeded fill's data cells as r*(k - delta) cuts of the stream:
    cell s = j*(k - delta) + c (inner row j, data column c) is stream bytes
    [s*E*L, (s+1)*E*L), lane e*L + x holding instance x's byte in extended
    row e (E extended rows, L instances). The seed must be an int, taken mod
    2^64; an array over MAX_ARRAY_BYTES bytes is refused before any fill."""
    check_ints(seed=seed)
    n, rows = layout.n, layout.rows_per_disk
    check_budget(f"an array of {n}*{rows}", n * rows, "bytes", MAX_ARRAY_BYTES)
    group = layout.group
    width = len(group.extended_rows) * len(layout.placements)
    fill = memoryview(_fill_bytes(seed, group.r * (group.k - group.delta) * width))
    if rec := _stats.recorder:
        rec.mark("simulator.fill_s")
    return [fill[at : at + width] for at in range(0, len(fill), width)]


def _codewords(layout: DeclusteredLayout, seed: int, data=None) -> list[list[int]]:
    """The seeded fill's encoded r x k grid of column-space cells over every
    instance, as ints, made by one encode call from its data cells: `data`
    if the caller has cut them, else _data_cells, freed before the call."""
    group = layout.group
    ints = [int.from_bytes(cell, "little") for cell in data or _data_cells(layout, seed)]
    step = group.k - group.delta
    coded = group.code.encode([ints[at : at + step] for at in range(0, len(ints), step)])
    if rec := _stats.recorder:
        rec.mark("erasure_codes.encode_s")
        rec.add("erasure_codes.encode_calls")
    return coded


def materialize(layout: DeclusteredLayout, seed: int) -> DiskArray:
    """Fill every instance from the seeded stream and encode it.

    Fill order is fixed, in column space (_data_cells): the stream is cut
    into data cells, inner rows top to bottom and data columns left to
    right within each; a cell's bytes run over the instances in block order,
    one extended row after another. Those cuts are the data cells' bytes, so
    only the parity cells go from int to bytes. A disk stacks its
    column-units contiguously in ascending block index, m bytes each.
    """
    if rec := _stats.recorder:
        rec.start()
    group, data = layout.group, _data_cells(layout, seed)
    data_cols = group.k - group.delta
    parity = [row[data_cols:] for row in _codewords(layout, seed, data)]  # drops the data ints
    # Each parity int is popped as its bytes are made, into a list the scatter empties.
    cells = [data[c::data_cols] for c in range(data_cols)] + [
        [row.pop(0).to_bytes(len(data[0]), "little") for row in parity] for _ in range(group.delta)
    ]
    del data  # the cells alone hold the stream, so the scatter frees it
    array = DiskArray(layout, _scatter(layout, cells, None, range(layout.n)))
    if rec:
        rec.mark("simulator.scatter_s")
        rec.end("simulator.materialize_s")
    return array


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


def _column_cells(layout: DeclusteredLayout, disks: list, lanes) -> list[list[bytearray]]:
    """cells[c][j]: inner row j of canonical column c over every (extended
    row, lane) pair, lane e*L + x holding lanes[x]'s stored byte in extended
    row e (L lanes, layout indices), read from `disks`.

    Each position's units over the lanes are gathered once, into one
    unit-major buffer (lane x's unit at bytes x*m..(x+1)*m), picked by their
    `layout.unit_slices` out of one join of the disks, freed before any cut.
    Plane e*r + j of a position's units (byte e*r + j of every lane's unit)
    is one strided slice, and a column's cell joins, row by row, the planes
    of the positions holding it: one C-level join per cell.
    """
    group = layout.group
    m, r = group.m, group.r
    pick = itemgetter(*lanes) if len(lanes) > 1 else lambda seq: tuple(map(seq.__getitem__, lanes))
    joined, units = b"".join(disks), [bytearray(len(lanes) * m) for _ in range(group.k)]
    del disks  # the caller's list: a failed disk's zero buffer goes with it
    for unit, picked in zip(units, map(pick, layout.unit_slices)):
        for at in range(0, len(lanes), _PICK_LANES):
            unit[at * m : (at + _PICK_LANES) * m] = b"".join(
                itemgetter(_NOTHING, *picked[at : at + _PICK_LANES])(joined)
            )
    del joined
    # planes[j][e] cuts inner row j of extended row e out of a position's units;
    # holders[c][e] is the position holding column c in extended row e.
    planes = [[slice(x, None, m) for x in range(j, m, r)] for j in range(r)]
    holders = zip(*(sorted(range(group.k), key=row.__getitem__) for row in group.canonical_columns))
    return [
        [bytearray().join(map(getitem, map(units.__getitem__, held), row)) for row in planes]
        for held in holders
    ]


def _checked_decode(code, grid, erased: tuple[int, ...], wanted=None) -> list[list[int]]:
    """code.decode, checked to read exactly the columns the plans left unerased."""
    out, decoder_reads = code.decode(grid, erased, wanted)
    planned = [c for c in range(code.k) if c not in erased]
    if sorted(decoder_reads) != planned:
        raise InvariantError(f"decoder read columns {sorted(decoder_reads)}, planned {planned}")
    return out


def _decode_runs(code, cells, erased: tuple[int, ...], runs: list[slice], wanted) -> None:
    """Decode one erasure pattern over its runs of lanes (slices of every
    column buffer, see _column_cells) in one call, and write the decoded cells
    of the `wanted` columns, those some run lost, back into their buffers: one
    pick of its runs per read cell, and of its pieces per written cell, set
    run by run. An erased column no run lost is one the rule left unread on
    a surviving disk, which the scatter never cuts out, so the decoder is
    asked for the wanted columns alone (its program pruned to them)."""
    runs = [_NOTHING, *runs]
    read = itemgetter(*runs)
    grid: list[list[int | None]] = [[None] * code.k for _ in range(code.r)]
    for c in (c for c in range(code.k) if c not in erased):
        for j, cell in enumerate(cells[c]):
            grid[j][c] = int.from_bytes(b"".join(read(cell)), "little")
    out = _checked_decode(code, grid, erased, wanted)
    ends = list(accumulate(run.stop - run.start for run in runs))
    pieces = itemgetter(*map(slice, [0, *ends[:-1]], ends))
    for c in wanted:  # a memoryview takes a slice assignment faster than its bytearray
        for j, cell in enumerate(map(memoryview, cells[c])):
            decoded = out[j][c].to_bytes(ends[-1], "little")
            deque(map(setitem, repeat(cell), runs, pieces(decoded)), maxlen=0)


def _unit_major(layout: DeclusteredLayout, cells: list, pos: int, width: int) -> bytearray:
    """Position pos's units over `width` lanes out of column space (see
    _column_cells), lane x's unit at bytes x*m..(x+1)*m. Its plane e*r + j,
    byte e*r + j of every lane's unit, is extended row e's lanes of inner row
    j of the column the position holds there. The bytes move along the
    shorter axis: m strided writes, one per plane, when m < width, else
    `width` strided slices, one per lane, of the planes laid end to end (one
    join per extended row: joining all m at once would hold m small slices).
    The m strided writes alone made the hadamard16 + RDP p=7 fill (m = 336,
    30 lanes) 1.16 times as slow.
    """
    group = layout.group
    m, block = group.m, group.r * width  # block: one extended row's planes
    rows = ((cells[columns[pos]], slice(e * width, (e + 1) * width))
            for e, columns in enumerate(group.canonical_columns))
    units = bytearray(m * width)
    if m < width:
        for p, plane in enumerate(cell[row] for column, row in rows for cell in column):
            units[p::m] = plane
        return units
    planes = bytearray(m * width)
    for at, (column, row) in zip(range(0, m * width, block), rows):
        planes[at : at + block] = bytearray().join([cell[row] for cell in column])
    for x, at in enumerate(range(0, m * width, m)):
        units[at : at + m] = planes[x::width]
    return units


def _scatter(layout: DeclusteredLayout, cells: list, lanes, disks) -> list[bytearray]:
    """`disks` cut out of column space (see _column_cells), lane x being
    instance lanes[x], or instance x when `lanes` is None (a fill).

    The gather's inverse: each position those disks hold gets one unit-major
    buffer over the lanes (_unit_major), and each disk is one join of its
    runs of those buffers (`stack_runs`): a fill's are the layout's
    (`layout.unit_runs`), a rebuild's are cut from the disk's stack by its
    lanes. Consumes `cells`: the list is emptied before any disk is joined.
    """
    if lanes is None:
        width, runs = len(layout.placements), [layout.unit_runs[d] for d in disks]
    else:
        width, lane_of = len(lanes), [0] * len(layout.placements)
        deque(map(setitem, repeat(lane_of), lanes, count()), maxlen=0)
        runs = [stack_runs(layout.stacks[d], lane_of, layout.group.m) for d in disks]
    held = {pos for positions, _ in runs for pos in positions}
    units = {pos: _unit_major(layout, cells, pos, width) for pos in held}
    cells.clear()
    return [
        bytearray().join(map(getitem, map(units.__getitem__, positions), cuts))
        for positions, cuts in runs
    ]


def fail_and_reconstruct(array: DiskArray, failed) -> tuple[DiskArray, IOStats]:
    """Rebuild the failed disks onto replacements, reading per the rule.

    The affected instances' units are gathered into column space from the
    caller's disks, each failed disk read as one shared zero buffer; each
    canonical erasure pattern is decoded over the runs whose plan leaves it,
    for the columns they lost alone, which are written back (_decode_runs);
    only the replacement disks are scattered back out.
    Returns a new array (the replacements plus copies of the survivors) and
    per-disk read/write unit counts. Instances that lost no column are never
    touched, and `array` is left as it was.
    """
    if rec := _stats.recorder:
        rec.start()
    layout, group = array.layout, array.layout.group
    failed = check_failed(layout, failed)
    affected = losses(layout, failed)
    reads = survivor_reads(layout, failed, affected)
    if rec:
        rec.mark("layout.tally_s")
    lanes = list(chain.from_iterable(map(partial(placement_indices, layout), affected.values())))
    # Failed disks read as one zero buffer, unnamed here so the gather frees it.
    cells = _column_cells(layout, list(map(
        dict.fromkeys(failed, bytes(layout.rows_per_disk)).get, range(layout.n), array.disks
    )), lanes)
    if rec:
        rec.mark("simulator.gather_s")
    # calls[erased]: the runs of lanes decoded with that pattern, one per (extended
    # row, lost mask), cut after the gather and freed as each pattern is decoded.
    width, stop, calls, plans = len(lanes), 0, {}, group._plans
    for lost, mask in affected.items():
        start, stop = stop, stop + mask.bit_count()
        for e, erased in enumerate(plans[lost].erased):
            calls.setdefault(erased, []).append(slice(e * width + start, e * width + stop))
    wanted = _lost_columns(map(plans.__getitem__, affected))
    if rec:
        rec.mark("parity_groups.plan_s")
    while calls:
        erased, runs = calls.popitem()
        _decode_runs(group.code, cells, erased, runs, wanted[erased])
        if rec:
            rec.mark("erasure_codes.decode_s")
            _count_decode(rec, erased, sum(run.stop - run.start for run in runs))
    rebuilt = dict(zip(failed, _scatter(layout, cells, lanes, failed)))
    disks = [rebuilt[d] if d in failed else bytearray(disk) for d, disk in enumerate(array.disks)]
    stats = IOStats(reads, dict.fromkeys(failed, layout.rows_per_disk))
    if rec:
        rec.mark("simulator.scatter_s")
        rec.end("simulator.reconstruct_s")
        rec.add("simulator.instances_touched", width)
        _count_units(rec, stats.reads.items(), stats.writes.items())
    return DiskArray(layout, disks), stats


def _lost_columns(plans) -> dict[tuple[int, ...], frozenset[int]]:
    """Per erasure pattern of the plans (an iterable), the union of their
    `lost_columns` with it: the erased columns a reader uses. Each pattern's
    columns are collected in one set, frozen once all plans are read.
    Reading a plan's `lost_columns` derives its `erased` on first use."""
    wanted: dict[tuple[int, ...], set[int]] = {}
    for plan in plans:
        for erased, columns in plan.lost_columns.items():
            if (have := wanted.get(erased)) is None:
                wanted[erased] = set(columns)
            else:
                have |= columns
    return {erased: frozenset(columns) for erased, columns in wanted.items()}


def _check_pattern(layout: DeclusteredLayout, cells, erased: tuple, wanted, touched, wrong) -> None:
    """Decode the `wanted` columns of one erasure pattern, those some plan
    lost with it, over every lane of the stored grid (see _codewords), and
    compare each of their cells with its stored int by one compare. The
    decoder gets a copy of the stored rows with each erased cell set to None,
    so it can read no erased column's stored int.

    Lanes are walked only on a mismatch: wrong lane e*b + i is ORed into
    wrong[lost] as instance i for each `touched` lost mask whose plan erases
    this pattern in extended row e and has the bit of the position holding
    the column there. Any other lane's cells are never used, so they cannot
    fail a set.
    """
    group, b = layout.group, len(layout.placements)
    grid = list(map(list.copy, cells))
    for row in grid:
        for c in erased:
            row[c] = None
    out, users = _checked_decode(group.code, grid, erased, wanted), None
    if rec := _stats.recorder:
        rec.mark("erasure_codes.decode_s")
        _count_decode(rec, erased, len(group.extended_rows) * b)
    for c in wanted:
        for j, stored in enumerate(row[c] for row in cells):
            if out[j][c] == stored:
                continue
            if users is None:  # per extended row, the lost masks decoded with this pattern
                users = [
                    [lost for lost in touched if group._plans[lost].erased[e] == erased]
                    for e in range(len(group.extended_rows))
                ]
            diff = (out[j][c] ^ stored).to_bytes(len(users) * b, "little")
            for lane in compress(count(), diff):
                e, i = divmod(lane, b)
                pos = group.canonical_columns[e].index(c)
                for lost in users[e]:
                    if lost >> pos & 1:
                        wrong[lost] = wrong.get(lost, 0) | 1 << i
    if rec:
        rec.mark("simulator.compare_s")


def _count_decode(rec, erased: tuple[int, ...], lanes: int) -> None:
    """Record one decode call of pattern `erased` over `lanes` lanes."""
    rec.add("erasure_codes.decode_calls")
    rec.add("erasure_codes.decode_calls_by_pattern", by=erased)
    rec.add("erasure_codes.decode_lanes_by_pattern", lanes, by=erased)


def _count_units(rec, reads, writes) -> None:
    """Record (disk, units) pairs read from survivors and written to replacements."""
    for disk, units in reads:
        rec.add("simulator.units_read_by_disk", units, by=disk)
    for disk, units in writes:
        rec.add("simulator.units_written_by_disk", units, by=disk)


def _failure_walk(layout: DeclusteredLayout, s: int):
    """Each size-s failure set, a sorted tuple, with its `losses` groups, in
    lexicographic order. Depth first from one 0 group of every placement,
    each prefix that some set extends is split (`layout._split`) once for
    all of them: C(n - s + j, j) splits at depth j."""

    rec = _stats.recorder

    def walk(prefix, groups):
        if len(prefix) == s:
            groups.pop(0, None)
            yield prefix, groups
            return
        for disk in range(prefix[-1] + 1 if prefix else 0, layout.n - s + len(prefix) + 1):
            if rec:
                rec.add("layout.splits_by_depth", by=len(prefix) + 1)
            yield from walk((*prefix, disk), _split(layout, groups, disk))

    return walk((), {0: (1 << len(layout.placements)) - 1})


def exhaustive_verify(layout: DeclusteredLayout, s: int, seed: int = 1) -> VerifySummary:
    """Rebuild every size-s failure set of one seeded fill and check each.

    The sets' lost groups come from one depth-first walk (_failure_walk),
    which splits each shared prefix once; their reads are tallied set by
    set (`layout._tally`, the count `survivor_reads` gives), and the lost
    masks they touched are kept for the pattern checks. The sets share
    one decode per canonical erasure pattern that their lost masks' plans
    leave, over every lane of the fill's encoded cells, of the union of the
    columns those masks lost with it (see _codewords, _lost_columns and
    _check_pattern). No disk is built and no rebuilt byte outlives its
    pattern's call; a wrong cell fails every set with an instance whose plan
    decodes it in that row and lost its column, found by a second walk that
    runs only then. A set whose instances lost other than s disks' worth of
    column-units fails too, as some unit it lost was never rebuilt. Each set
    keeps only its read range and lost-unit count; the sweep is uniform when
    every set reads the same count from every survivor. Results are in
    sorted failure-set order.
    """
    if rec := _stats.recorder:
        rec.start()
    check_size("s", s, layout.group.delta, low=0)
    cells = _codewords(layout, seed)  # first, so a bad seed or size is refused before the walk
    touched, tallies = set(), []  # touched: every lost mask of every set
    read, written = [0] * layout.n, [0] * layout.n  # units per disk over the sets, if recorded
    for failed, affected in _failure_walk(layout, s):
        reads = _tally(layout, failed, affected)
        touched.update(affected)
        if rec:
            read = list(map(add, read, reads))
            for disk in failed:
                read[disk] -= reads[disk]
                written[disk] += layout.rows_per_disk
        for disk in reversed(failed):
            del reads[disk]
        lost_units = sum(map(mul, map(int.bit_count, affected), map(int.bit_count, affected.values())))
        tallies.append((failed, min(reads), max(reads), lost_units))
    if rec:  # s < k <= n, so every disk survives some set; at s=0 none is written
        _count_units(rec, enumerate(read), ((d, units) for d, units in enumerate(written) if units))
        rec.mark("layout.tally_s")
    wrong: dict[int, int] = {}  # lost mask -> instances rebuilt wrong with it
    wanted = _lost_columns(map(layout.group._plans.__getitem__, touched))
    if rec:
        rec.mark("parity_groups.plan_s")
    for erased in sorted(wanted):
        _check_pattern(layout, cells, erased, wanted[erased], touched, wrong)
    broken = {
        failed for failed, affected in (_failure_walk(layout, s) if wrong else ())
        if any(wrong.get(lost, 0) & hit for lost, hit in affected.items())
    }
    lost_per_set = s * layout.units_per_disk
    results = tuple(
        SetResult(
            failed=failed, recovered=lost_units == lost_per_set and failed not in broken,
            min_reads=low, max_reads=high,
        )
        for failed, low, high, lost_units in tallies
    )
    low, high = min(tally[1] for tally in tallies), max(tally[2] for tally in tallies)
    if rec:
        rec.mark("simulator.compare_s")
        rec.end("simulator.sweep_s")
        rec.add("simulator.instances_touched", len(layout.placements))
    return VerifySummary(
        s=s, total=len(results), passed=sum(result.recovered for result in results),
        results=results, min_reads=low, max_reads=high, uniform=low == high,
    )


def unit_provenance(layout: DeclusteredLayout, disk: int, offset: int) -> UnitProvenance:
    """Group coordinates of the byte at (disk, offset)."""
    group = layout.group
    check_ints(disk=disk, low=0, high=layout.n - 1)
    check_ints(offset=offset, low=0, high=layout.rows_per_disk - 1)
    stack_index, rem = divmod(offset, group.m)
    e, j = divmod(rem, group.r)
    block_index, pos = layout.stacks[disk][stack_index]
    return UnitProvenance(
        block_index=block_index,
        extended_row=e,
        inner_row=j,
        label=group.extended_rows[e][pos],
    )

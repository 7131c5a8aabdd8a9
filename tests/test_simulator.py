"""Byte-level fill, failure injection, recovery, and measured I/O counts."""

import hashlib
import operator
import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations, count, islice, pairwise, product
from math import comb

import pytest

from declustr import (
    DATA,
    HorizontalCode,
    balance_horizontal_code,
    build_layout,
    byte_stream,
    check_parity_invariant,
    complete_design,
    exhaustive_verify,
    fail_and_reconstruct,
    group_family,
    hadamard_3design,
    materialize,
    parity_index,
    rdp_code,
    reconstruction_plan,
    reconstruction_rule,
    reconstruction_workload,
    rotate_layout,
    rs_code,
    single_arrangement_group,
    unit_provenance,
)
import declustr.simulator as simulator
from declustr.designs import MAX_ARRAY_BYTES
from declustr.layout import losses, placement_indices, stack_runs
from declustr.simulator import SetResult, VerifySummary
from declustr.errors import InvariantError, ParamError, TooManyFailures
from test_reconstruction_plan import CASES, naive_reads, relabeled


# -------------------------------------------------------------- byte source

def test_byte_stream_is_deterministic():
    first = list(islice(byte_stream(42), 64))
    again = list(islice(byte_stream(42), 64))
    assert first == again
    assert all(0 <= b <= 255 for b in first)


def test_byte_stream_seeds_differ():
    assert list(islice(byte_stream(1), 32)) != list(islice(byte_stream(2), 32))


@pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 5, 10**30])
def test_byte_stream_is_shake_128_of_the_seed(seed):
    # The seed mod 2^64, as 8 little-endian bytes, is the whole input.
    digest = hashlib.shake_128((seed % 2**64).to_bytes(8, "little")).digest(10_000)
    assert bytes(islice(byte_stream(seed), 10_000)) == digest


@pytest.mark.parametrize(
    "seed,limit",
    [(0, 110_880), (1, 1 << 20), (2**64 - 1, 110_880), (2**64, 110_880), (2**64 + 5, 110_880)]
    + [
        (random.Random(index).randrange(1 << 69, 1 << 100), 1 << 20 if index == 0 else 110_880)
        for index in range(4)
    ],
)
def test_fill_bytes_equals_the_byte_stream(seed, limit):
    # Lengths on each side of the stream's chunk edges (4096 * 2^i bytes),
    # and the 110,880-byte complete(12,6,3) + RS(6,2) fill, up to `limit`.
    edges = [4096 << i for i in range(9)]
    lengths = {0, 1, 7, 110_880} | {edge + d for edge in edges for d in (-1, 0, 1)}
    lengths = sorted(n for n in lengths if n <= limit)
    reference = bytes(islice(byte_stream(seed), lengths[-1]))
    for n in lengths:
        assert simulator._fill_bytes(seed, n) == reference[:n], n


def _count_byte_stream(monkeypatch) -> list[int]:
    """Patch `simulator.byte_stream` to count the bytes drawn from it."""
    drawn = [0]

    def counting(seed):
        for byte in byte_stream(seed):
            drawn[0] += 1
            yield byte

    monkeypatch.setattr(simulator, "byte_stream", counting)
    return drawn


def test_materialize_draws_no_byte_byte_by_byte(monkeypatch):
    # Timing-free guard: the 110,880-byte fill takes its bytes in one call,
    # none from the per-byte generator.
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    group = layout.group
    length = len(layout.placements) * group.m * (group.k - group.delta)
    assert length == 110_880
    drawn = _count_byte_stream(monkeypatch)
    materialize(layout, 7)
    assert drawn[0] == 0


def test_fill_of_1_mib_draws_no_byte_byte_by_byte(monkeypatch):
    drawn = _count_byte_stream(monkeypatch)
    assert len(simulator._fill_bytes(5, 1 << 20)) == 1 << 20
    assert drawn[0] == 0


# ------------------------------------------------------------------- fill

def test_materialize_shape_and_determinism(reference_layout):
    array = materialize(reference_layout, 7)
    assert array.n == 8
    assert all(len(disk) == 168 for disk in array.disks)
    again = materialize(reference_layout, 7)
    assert array.disks == again.disks
    assert materialize(reference_layout, 8).disks != array.disks


def test_materialize_seed_zero_fills_nonzero_bytes(reference_layout):
    # Seed 0 is an ordinary seed, not the all-zero fill.
    array = materialize(reference_layout, 0)
    assert all(any(disk) for disk in array.disks)
    assert check_parity_invariant(array)


# sha256 of the concatenated disks of materialize(layout, 7), filled from the
# SHAKE-128 stream in column-space order: any change to the stored bytes shows
# here. Each equals the sha256 of the unit-by-unit oracle _placed_unit_by_unit,
# which test_materialize_matches_unit_by_unit_placement checks on more layouts.
@pytest.mark.parametrize(
    "build,digest",
    [
        (
            lambda ref: ref,
            "eb7635233f87aed8171a2991583c87022f9a4d6f46323f30e02322a57af36c4c",
        ),
        (
            lambda ref: build_layout(
                group_family(rs_code(6, 2), "full"), complete_design(9, 6, 3)
            ),
            "6ccf6c36668c7932ee8204cf27acda3ceee6e248dd75e2e82873d96b3c4a799f",
        ),
        (
            lambda ref: build_layout(
                group_family(rs_code(5, 3), "full"), complete_design(7, 5, 4)
            ),
            "fbe7aee51d3fe7125298b562ec2c8927ed373cd4d6e99bd0a99f5f8a326c97e9",
        ),
        (
            lambda ref: build_layout(
                group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3)
            ),
            "4f1f7cc64fa98c7873d5b5b9f98781fb4d60c45c4bc7b30ded0bfe1a7579e266",
        ),
    ],
    ids=[
        "3-(8,4,1)-rdp3",
        "complete(9,6,3)-rs(6,2)",
        "complete(7,5,4)-rs(5,3)",
        "complete(12,6,3)-rs(6,2)",
    ],
)
def test_materialize_bytes_are_pinned(reference_layout, build, digest):
    array = materialize(build(reference_layout), 7)
    assert hashlib.sha256(b"".join(array.disks)).hexdigest() == digest
    assert check_parity_invariant(array)


def _placed_unit_by_unit(layout, seed) -> list[bytearray]:
    """Oracle for materialize: encode each instance's codewords on its own
    from the reference stream, then place its column-units one slice
    assignment at a time (the placement loop materialize used to run).
    Data byte (inner row j, data column c) of instance i's extended row e
    is stream byte ((j*(k - delta) + c)*E + e)*b + i: E extended rows, b
    instances."""
    group = layout.group
    k, delta, r, m = group.k, group.delta, group.r, group.m
    data_cols, rows, b = k - delta, len(group.extended_rows), len(layout.placements)
    fill = bytes(islice(byte_stream(seed), r * data_cols * rows * b))
    disks = [bytearray(layout.rows_per_disk) for _ in range(layout.n)]
    for index, (placement, offsets) in enumerate(zip(layout.placements, layout.unit_offsets)):
        units = [bytearray(m) for _ in range(k)]
        for e, columns in enumerate(group.canonical_columns):
            data = [
                [fill[((j * data_cols + c) * rows + e) * b + index] for c in range(data_cols)]
                for j in range(r)
            ]
            codeword = group.code.encode(data)
            for pos, column in enumerate(columns):
                for j in range(r):
                    units[pos][e * r + j] = codeword[j][column]
        for pos, disk in enumerate(placement):
            disks[disk][offsets[pos] : offsets[pos] + m] = units[pos]
    return disks


def _with_rotation(layout) -> list:
    """The layout, and for delta = 1 its rotation too: a layout whose
    placements are not its sorted blocks, so a disk's stack holds its
    instances at positions the blocks do not give."""
    if layout.group.delta != 1:
        return [layout]
    rotated = rotate_layout(layout)
    assert any(list(placement) != sorted(placement) for placement in rotated.placements)
    return [layout, rotated]


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_materialize_matches_unit_by_unit_placement(name, family):
    rng = random.Random(f"placement/{name}/{family}")
    make_code, make_design = CASES[name]
    built = build_layout(group_family(make_code(), family), relabeled(rng, make_design()))
    for layout in _with_rotation(built):
        for seed in (rng.randrange(1, 1 << 16), rng.randrange(1 << 64, 1 << 80)):
            assert materialize(layout, seed).disks == _placed_unit_by_unit(layout, seed), seed


@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(lambda: rdp_code(7), lambda: hadamard_3design(16), id="rdp7-hadamard16"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(12, 6, 3), id="rs(6,2)-complete(12,6,3)"
    ),
])
def test_fill_encodes_once_and_only_the_scatter_makes_disks(make_code, make_design, monkeypatch):
    # Timing-free: a fill is one encode call over every (extended row,
    # instance) lane, where one call per extended row made 56 and 30 here.
    # Every disk of a fill, and every replacement disk of a rebuild, is an
    # object the scatter returned; a rebuild encodes nothing.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    encodes, scattered = [], []
    encode, scatter = HorizontalCode.encode, simulator._scatter

    def counting_encode(self, data):
        encodes.append(len(data))
        return encode(self, data)

    def recording_scatter(layout, cells, lanes, disks):
        out = scatter(layout, cells, lanes, disks)
        assert cells == []
        scattered.append((tuple(disks), out))
        return out

    monkeypatch.setattr(HorizontalCode, "encode", counting_encode)
    monkeypatch.setattr(simulator, "_scatter", recording_scatter)
    array = materialize(layout, 7)
    assert encodes == [layout.group.r]
    [(disks, out)] = scattered
    assert disks == tuple(range(layout.n))
    assert all(map(operator.is_, array.disks, out))
    for failed in [(0,), (3, 9)]:
        scattered.clear()
        rebuilt, _ = fail_and_reconstruct(array, failed)
        [(disks, out)] = scattered
        assert sorted(disks) == list(failed)
        assert all(rebuilt.disks[d] is disk for d, disk in zip(disks, out))
        assert rebuilt.disks == array.disks
    assert len(encodes) == 1


@pytest.mark.parametrize("make_code, make_design, cuts", [
    pytest.param(lambda: rdp_code(7), lambda: hadamard_3design(16), 36, id="rdp7-hadamard16"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(12, 6, 3), 4, id="rs(6,2)-complete(12,6,3)"
    ),
])
def test_fill_data_cells_are_consecutive_cuts_of_the_stream(
    make_code, make_design, cuts, monkeypatch
):
    # Timing-free: data cell s = j*(k - delta) + c (inner row j, data column
    # c) is the stream's bytes [s*E*b, (s+1)*E*b), one cut of the fill made
    # in place, where the instance-major fill joined r*(k - delta)*E strided
    # slices (2,016 and 120 here). The scatter gets those cuts as the data
    # cells' bytes, and the sweep's stored ints are their ints.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    group = layout.group
    data_cols, width = group.k - group.delta, len(group.extended_rows) * len(layout.placements)
    assert group.r * data_cols == cuts
    stream = bytes(islice(byte_stream(7), cuts * width))
    expected = [stream[at : at + width] for at in range(0, len(stream), width)]
    scattered, scatter = [], simulator._scatter

    def recording(layout, cells, lanes, disks):
        scattered.append([cell for column in cells[:data_cols] for cell in column])
        return scatter(layout, cells, lanes, disks)

    monkeypatch.setattr(simulator, "_scatter", recording)
    array = materialize(layout, 7)
    assert array.disks == _placed_unit_by_unit(layout, 7)
    [data] = scattered
    assert all(isinstance(cell, memoryview) and cell.obj is data[0].obj for cell in data)
    # data lists column c's cells, inner rows in order: cell s sits at c*r + j.
    assert [data[c * group.r + j] for j in range(group.r) for c in range(data_cols)] == expected
    coded = simulator._codewords(layout, 7)
    assert [cell for row in coded for cell in row[:data_cols]] == [
        int.from_bytes(cut, "little") for cut in expected
    ]


def test_parity_invariant_detects_corruption(reference_layout):
    array = materialize(reference_layout, 7)
    assert check_parity_invariant(array)
    array.disks[3][17] ^= 0x5A
    assert not check_parity_invariant(array)


# ---------------------------------------------------------------- recovery

def test_every_failure_set_recovers_and_matches_prediction(reference_layout):
    # The single-arrangement layout is skewed; its reads still match enumeration.
    skewed = build_layout(single_arrangement_group(rdp_code(3)), reference_layout.design)
    sets = [(d,) for d in range(8)] + list(combinations(range(8), 2))
    for layout, seed in ((reference_layout, 7), (skewed, 3)):
        array = materialize(layout, seed)
        pristine = [bytes(d) for d in array.disks]
        for failed in sets:
            rebuilt, stats = fail_and_reconstruct(array, failed)
            assert rebuilt.disks == array.disks
            assert stats.reads == reconstruction_workload(layout, failed).reads
            assert stats.writes == {disk: layout.rows_per_disk for disk in failed}
        # the input array is never mutated by injection
        assert [bytes(d) for d in array.disks] == pristine


# (code, design) pairs with t = delta + 1, small enough to sweep every
# failure set of size <= delta.
CODES_AND_DESIGNS = {
    "rdp3": (lambda: rdp_code(3), lambda: complete_design(6, 4, 3)),
    "rdp5": (lambda: rdp_code(5), lambda: complete_design(7, 6, 3)),
    "rs(4,1)": (lambda: rs_code(4, 1), lambda: complete_design(5, 4, 2)),
    "rs(5,2)": (lambda: rs_code(5, 2), lambda: complete_design(6, 5, 3)),
    "rs(5,3)": (lambda: rs_code(5, 3), lambda: complete_design(7, 5, 4)),
}


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", sorted(CODES_AND_DESIGNS))
def test_every_code_and_family_recovers_with_predicted_reads(name, family):
    # The unbalanced families leave one group of instances with several
    # erasure patterns, so one rebuild mixes patterns across decode calls.
    # The reads are also checked against a walk of the rule over every
    # placement and extended row (naive_reads), which shares no code with
    # survivor_reads: the full family pools whole placements, the others
    # pool per position, and the rotated layout's placements are not blocks.
    make_code, make_design = CODES_AND_DESIGNS[name]
    code = make_code()
    for layout in _with_rotation(build_layout(group_family(code, family), make_design())):
        array = materialize(layout, 5)
        assert array.disks == _placed_unit_by_unit(layout, 5)
        for s in range(code.delta + 1):
            for failed in combinations(range(layout.n), s):
                rebuilt, stats = fail_and_reconstruct(array, failed)
                assert rebuilt.disks == array.disks, failed
                assert stats.reads == reconstruction_workload(layout, failed).reads, failed
                assert stats.reads == naive_reads(layout, failed)[0], failed
                assert stats.writes == {d: layout.rows_per_disk for d in failed}


def _lost_patterns(layout, failed) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Distinct (lost positions, canonical columns the decoder is not given), per the rule."""
    group = layout.group
    k, delta = group.k, group.delta
    pairs = set()
    # Every instance that lost the same positions has the same rows, so each
    # distinct lost tuple is walked once.
    lost_tuples = {
        tuple(pos for pos, disk in enumerate(placement) if disk in failed)
        for placement in layout.placements
    }
    for lost in lost_tuples - {()}:
        for row in group.extended_rows:
            need = reconstruction_rule(delta, [row[pos] for pos in lost])
            data_seen = 0
            given = set()
            for pos, label in enumerate(row):
                if label == DATA:
                    column = data_seen
                    data_seen += 1
                else:
                    column = k - delta + parity_index(label) - 1
                if pos not in lost and label in need:
                    given.add(column)
            pairs.add((lost, tuple(c for c in range(k) if c not in given)))
    return pairs


def _canonical_erasure_patterns(layout, failed) -> set[tuple[int, ...]]:
    """Distinct sets of codeword columns a decoder is not given, per the rule."""
    return {pattern for _, pattern in _lost_patterns(layout, failed)}


def test_rebuild_decodes_once_per_erasure_pattern(monkeypatch):
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(9, 6, 3))
    array = materialize(layout, 7)
    failed = (2, 5)
    calls = []
    decode = HorizontalCode.decode

    def counting(self, rows, erased, wanted=None):
        calls.append(tuple(erased))
        return decode(self, rows, erased, wanted)

    monkeypatch.setattr(HorizontalCode, "decode", counting)
    rebuilt, _ = fail_and_reconstruct(array, failed)
    assert rebuilt.disks == array.disks
    patterns = _canonical_erasure_patterns(layout, failed)
    # One call per extended row of each affected instance would be 77 * 30 = 2,310.
    assert sorted(calls) == sorted(patterns) and len(patterns) < 20


SCRAMBLE_CASES = [
    (seed, name, family) for seed, (name, family) in enumerate(
        product(sorted(CODES_AND_DESIGNS), ("full", "single", "rotations"))
    )
]


@pytest.mark.parametrize(
    "seed,name,family", SCRAMBLE_CASES,
    ids=[f"seed={seed}-{name}-{family}" for seed, name, family in SCRAMBLE_CASES],
)
def test_rebuild_reads_nothing_from_the_failed_disks(seed, name, family):
    # Every byte on the failed disks is scrambled before the rebuild, which
    # must still return the pristine fill: a rebuilt unit that read a failed
    # disk's byte would differ somewhere.
    make_code, make_design = CODES_AND_DESIGNS[name]
    code = make_code()
    layout = build_layout(group_family(code, family), make_design())
    pristine = materialize(layout, 5)
    rng = random.Random(seed)
    for s in range(1, code.delta + 1):
        for failed in combinations(range(layout.n), s):
            array = simulator.DiskArray(layout, [bytearray(disk) for disk in pristine.disks])
            for d in failed:
                array.disks[d] = bytearray(rng.randbytes(len(array.disks[d])))
            rebuilt, stats = fail_and_reconstruct(array, failed)
            assert rebuilt.disks == pristine.disks, failed
            assert stats.writes == {d: layout.rows_per_disk for d in failed}


@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(lambda: rdp_code(3), lambda: hadamard_3design(8), id="rdp3-hadamard8"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(9, 6, 3), id="rs(6,2)-complete(9,6,3)"
    ),
])
def test_rebuild_gathers_each_affected_unit_once(make_code, make_design, monkeypatch):
    # The rebuild gathers every unit of every affected instance once, lost
    # ones included, from the caller's disks with every failed disk read as
    # one shared zero buffer, and no unit of an instance that lost nothing.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    array = materialize(layout, 7)
    gathered = []
    column_cells = simulator._column_cells

    def recording_cells(layout, disks, lanes):
        gathered.append((list(disks), list(lanes)))
        return column_cells(layout, disks, lanes)

    monkeypatch.setattr(simulator, "_column_cells", recording_cells)
    for failed in [(0,), (1, 4), (2, 5)]:
        gathered.clear()
        rebuilt, _ = fail_and_reconstruct(array, failed)
        assert rebuilt.disks == array.disks
        [(sources, lanes)] = gathered
        affected = [i for i, disks in enumerate(layout.placements) if set(failed) & set(disks)]
        assert sorted(lanes) == affected
        zeros = sources[failed[0]]
        assert zeros == bytes(layout.rows_per_disk) and len(sources) == layout.n
        for d, disk in enumerate(sources):
            assert disk is (zeros if d in failed else array.disks[d]), (failed, d)


def test_rebuild_leaves_its_input_untouched():
    # The rebuild reads the caller's disks in place, so it must neither write
    # to them nor hand one back: every output disk is a new object.
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(9, 6, 3))
    array = materialize(layout, 7)
    disks, objects, before = array.disks, list(array.disks), [bytes(d) for d in array.disks]
    for failed in [(0,), (3, 7), (8,)]:
        rebuilt, _ = fail_and_reconstruct(array, failed)
        assert array.disks is disks and all(map(operator.is_, disks, objects))
        assert disks == before and rebuilt.disks == before
        assert not set(map(id, rebuilt.disks)) & set(map(id, objects))


def _unit_by_unit_cells(layout, disks, lanes) -> list[list[bytearray]]:
    """_column_cells read one byte at a time: byte e*L + x of cells[c][j] is
    inner row j of extended row e of the unit that placement lanes[x] holds
    where column c sits in that row, at its `unit_offsets` on its disk."""
    group, width = layout.group, len(lanes)
    r, size = group.r, len(group.extended_rows) * width
    cells = [[bytearray(size) for _ in range(r)] for _ in range(group.k)]
    for e, columns in enumerate(group.canonical_columns):
        for x, i in enumerate(lanes):
            for pos, c in enumerate(columns):
                disk, offset = layout.placements[i][pos], layout.unit_offsets[i][pos]
                for j in range(r):
                    cells[c][j][e * width + x] = disks[disk][offset + e * r + j]
    return cells


@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(lambda: rdp_code(3), lambda: hadamard_3design(8), id="rdp3-hadamard8"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(9, 6, 3), id="rs(6,2)-complete(9,6,3)"
    ),
])
def test_gather_and_run_decode_match_unit_by_unit_oracles(make_code, make_design):
    # The gather and the run decode pick with itemgetter, which returns a lone
    # item bare, not in a tuple: a single lane, one lost tuple's lanes and
    # every affected instance (77 lanes on complete(9,6,3), more than one
    # pick) are gathered against the unit-by-unit oracle, and a single run of
    # a single wanted column is decoded against HorizontalCode.decode.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    group, array, failed = layout.group, materialize(layout, 7), frozenset((1, 4))
    zeros = bytes(layout.rows_per_disk)
    disks = [zeros if d in failed else disk for d, disk in enumerate(array.disks)]
    affected = losses(layout, failed)
    lost, mask = max(affected.items(), key=lambda item: item[1].bit_count())
    lanes = list(placement_indices(layout, mask))
    every = [i for mask in affected.values() for i in placement_indices(layout, mask)]
    assert len(lanes) > 1
    for picked in ([lanes[0]], lanes, every):
        oracle = _unit_by_unit_cells(layout, disks, picked)
        assert simulator._column_cells(layout, disks, picked) == oracle, len(picked)

    e, width = 0, len(lanes)
    erased, column = reconstruction_plan(group, lost).erased[e], group.canonical_columns[e][lost[0]]
    cells = simulator._column_cells(layout, disks, lanes)
    run = slice(e * width, (e + 1) * width)
    grid = [
        [None if c in erased else int.from_bytes(cell[run], "little") for c, cell in enumerate(row)]
        for row in zip(*cells)
    ]
    decoded, _ = group.code.decode(grid, erased, [column])
    want = [[bytearray(cell) for cell in column_cells] for column_cells in cells]
    for j, cell in enumerate(want[column]):
        cell[run] = decoded[j][column].to_bytes(width, "little")
    simulator._decode_runs(group.code, cells, erased, [run], {column})
    assert cells == want
    stored = _unit_by_unit_cells(layout, array.disks, lanes)
    assert [cell[run] for cell in cells[column]] == [cell[run] for cell in stored[column]]


def test_decoder_reading_other_columns_is_an_invariant_error(reference_layout, monkeypatch):
    array = materialize(reference_layout, 7)
    decode = HorizontalCode.decode

    def misreporting(self, rows, erased, wanted=None):
        out, read = decode(self, rows, erased, wanted)
        return out, read[1:]

    monkeypatch.setattr(HorizontalCode, "decode", misreporting)
    with pytest.raises(InvariantError, match="decoder read columns"):
        fail_and_reconstruct(array, (0,))


@pytest.mark.parametrize("make_code, make_design", [
    (lambda: rdp_code(3), lambda: hadamard_3design(8)),
    (lambda: rs_code(6, 2), lambda: complete_design(9, 6, 3)),
], ids=["rdp3-hadamard8", "rs62-complete9"])
def test_decoder_gets_none_in_every_erased_cell_and_an_int_elsewhere(
    make_code, make_design, monkeypatch
):
    # A decoder that skipped a wanted cell would then fail the check instead
    # of handing back the stored value.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    array = materialize(layout, 7)
    grids = []
    decode = HorizontalCode.decode

    def masked(self, rows, erased, wanted=None):
        grids.append(([list(map(type, row)) for row in rows], erased))
        return decode(self, rows, erased, wanted)

    monkeypatch.setattr(HorizontalCode, "decode", masked)
    assert exhaustive_verify(layout, 2, seed=7).passed == comb(layout.n, 2)
    swept = len(grids)
    assert fail_and_reconstruct(array, (2, 5))[0].disks == array.disks
    assert swept and len(grids) > swept
    for types, erased in grids:
        row = [type(None) if c in erased else int for c in range(layout.group.k)]
        assert types == [row] * layout.group.r


def test_empty_failure_set_is_a_no_op(reference_layout):
    array = materialize(reference_layout, 7)
    rebuilt, stats = fail_and_reconstruct(array, ())
    assert rebuilt.disks == array.disks
    assert set(stats.reads.values()) == {0}
    assert stats.writes == {}


def test_too_many_failures_rejected(reference_layout):
    array = materialize(reference_layout, 7)
    with pytest.raises(TooManyFailures):
        fail_and_reconstruct(array, (0, 1, 2))
    with pytest.raises(ParamError):
        fail_and_reconstruct(array, (9,))
    with pytest.raises(ParamError):
        fail_and_reconstruct(array, (True,))


# ------------------------------------------------------------------- sweep

def test_exhaustive_sweep_single_failures(reference_layout):
    summary = exhaustive_verify(reference_layout, 1, seed=7)
    assert (summary.passed, summary.total) == (8, 8)
    assert summary.uniform
    assert summary.reads_per_disk == 48
    assert [r.failed for r in summary.results] == [(d,) for d in range(8)]
    assert all(r.recovered for r in summary.results)


def test_exhaustive_sweep_double_failures(reference_layout):
    summary = exhaustive_verify(reference_layout, 2, seed=7)
    assert (summary.passed, summary.total) == (28, 28)
    assert summary.uniform
    assert summary.reads_per_disk == 88
    assert (summary.min_reads, summary.max_reads) == (88, 88)


def test_exhaustive_sweep_zero_failures(reference_layout):
    summary = exhaustive_verify(reference_layout, 0)
    assert (summary.passed, summary.total) == (1, 1)
    assert summary.reads_per_disk == 0


def _reference_sweep(layout, s, seed) -> VerifySummary:
    """exhaustive_verify's contract, one fail_and_reconstruct call per set."""
    array = materialize(layout, seed)
    results = []
    for failed in combinations(range(layout.n), s):
        rebuilt, stats = fail_and_reconstruct(array, failed)
        counts = stats.reads.values()
        results.append(SetResult(
            failed=failed,
            recovered=rebuilt.disks == array.disks,
            min_reads=min(counts),
            max_reads=max(counts),
        ))
    low = min(result.min_reads for result in results)
    high = max(result.max_reads for result in results)
    return VerifySummary(
        s=s,
        total=len(results),
        passed=sum(result.recovered for result in results),
        results=tuple(results),
        min_reads=low,
        max_reads=high,
        uniform=low == high,
    )


SWEEP_CASES = {
    "rdp3-hadamard8": (lambda: rdp_code(3), lambda: hadamard_3design(8)),
    "rdp7-hadamard16": (lambda: rdp_code(7), lambda: hadamard_3design(16)),
    "rs(4,1)-complete(7,4,2)": (lambda: rs_code(4, 1), lambda: complete_design(7, 4, 2)),
    "rs(4,2)-complete(8,4,3)": (lambda: rs_code(4, 2), lambda: complete_design(8, 4, 3)),
    "rs(5,3)-complete(7,5,4)": (lambda: rs_code(5, 3), lambda: complete_design(7, 5, 4)),
}


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", list(SWEEP_CASES))
def test_sweep_equals_one_rebuild_per_set(name, family):
    make_code, make_design = SWEEP_CASES[name]
    code = make_code()
    for layout in _with_rotation(build_layout(group_family(code, family), make_design())):
        for s in range(code.delta + 1):
            assert exhaustive_verify(layout, s, seed=3) == _reference_sweep(layout, s, 3), s


def test_sweep_fails_exactly_the_sets_whose_rebuild_hits_a_faulty_pattern(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "rotations"), hadamard_3design(8))
    sets = list(combinations(range(layout.n), 2))
    users = {}
    for failed in sets:
        for pattern in _canonical_erasure_patterns(layout, failed):
            users.setdefault(pattern, set()).add(failed)
    faulty = min(users, key=lambda pattern: (len(users[pattern]), pattern))
    assert 0 < len(users[faulty]) < len(sets)
    decode = HorizontalCode.decode

    def flipping(self, rows, erased, wanted=None):
        out, read = decode(self, rows, erased, wanted)
        if tuple(erased) == faulty:
            # Flip the low bit of inner row 0 of one rebuilt column in each
            # lane the cells span, so the instances decoded with this pattern
            # come back wrong; the assertions below check that none escaped.
            width = max((cell.bit_length() + 7) // 8 for row in out for cell in row)
            out[0][erased[0]] ^= int.from_bytes(b"\x01" * width, "little")
        return out, read

    monkeypatch.setattr(HorizontalCode, "decode", flipping)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert {r.failed for r in summary.results if not r.recovered} == users[faulty]
    assert summary.passed == len(sets) - len(users[faulty])


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize(
    "name", ["rdp3-hadamard8", "rs(4,2)-complete(8,4,3)", "rs(5,3)-complete(7,5,4)"]
)
def test_sweep_fails_exactly_the_sets_that_lose_or_read_a_flipped_byte(name, family, monkeypatch):
    # One stored byte (disk, offset) is flipped after the fill. It belongs to
    # instance i at position pos, in extended row e. A set F must fail iff
    # disk is in F (the byte is rebuilt from intact bytes, so it differs from
    # the stored one), or i is affected by F and its plan reads pos in row e
    # (a read byte goes wrong into every unit rebuilt from that row).
    make_code, make_design = SWEEP_CASES[name]
    code = make_code()
    layout = build_layout(group_family(code, family), make_design())
    b = len(layout.placements)
    rng = random.Random(f"{name}/{family}")
    fill = simulator._codewords
    for _ in range(6):
        disk, offset = rng.randrange(layout.n), rng.randrange(layout.rows_per_disk)
        flip = rng.randrange(1, 256)
        who = unit_provenance(layout, disk, offset)
        placement = layout.placements[who.block_index]
        pos = placement.index(disk)
        # The byte is lane e*b + i of inner row j of the column it holds in row e.
        column = layout.group.canonical_columns[who.extended_row][pos]
        lane = who.extended_row * b + who.block_index

        def corrupted(layout, seed):
            cells = fill(layout, seed)
            cells[who.inner_row][column] ^= flip << 8 * lane
            return cells

        monkeypatch.setattr(simulator, "_codewords", corrupted)
        for s in range(code.delta + 1):
            summary = exhaustive_verify(layout, s, seed=11)
            for result in summary.results:
                lost = tuple(p for p, d in enumerate(placement) if d in result.failed)
                e = who.extended_row
                reads = bool(lost) and layout.group.canonical_columns[e][pos] not in (
                    reconstruction_plan(layout.group, lost).erased[e]
                )
                expected = disk not in result.failed and not reads
                assert result.recovered == expected, (result.failed, disk, offset)
            assert summary.passed < summary.total or s == 0


def test_sweep_gathers_each_stored_unit_once(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "full"), hadamard_3design(8))
    calls, decodes = [], []
    encode, decode = HorizontalCode.encode, HorizontalCode.decode

    def counting(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    def counting_decode(self, rows, erased, wanted=None):
        decodes.append(tuple(erased))
        return decode(self, rows, erased, wanted)

    for name in ("materialize", "_column_cells", "_scatter"):
        monkeypatch.setattr(simulator, name, counting(name, getattr(simulator, name)))
    monkeypatch.setattr(HorizontalCode, "encode", counting("encode", encode))
    monkeypatch.setattr(HorizontalCode, "decode", counting_decode)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert summary.passed == summary.total == 28

    # One encode of the fill, whose cells hold each stored (placement,
    # position) unit once, however many sets and lost tuples use it: no disk
    # is cut out of them or gathered back.
    assert calls == ["encode"]
    # One decode per canonical erasure pattern that some set's rebuild leaves.
    sets = list(combinations(range(layout.n), 2))
    assert sorted(decodes) == sorted(
        set().union(*(_canonical_erasure_patterns(layout, failed) for failed in sets))
    )


def _column_lanes(array) -> list[list[int]]:
    """Per (canonical column c, inner row j), the stored bytes of c in every
    (extended row e, instance i), lane e*b + i, read one byte at a time."""
    layout, group = array.layout, array.layout.group
    b, r = len(layout.placements), group.r
    cells = [[bytearray(len(group.extended_rows) * b) for _ in range(r)] for _ in range(group.k)]
    for e, columns in enumerate(group.canonical_columns):
        for i, (placement, offsets) in enumerate(zip(layout.placements, layout.unit_offsets)):
            for pos, c in enumerate(columns):
                for j in range(r):
                    byte = array.disks[placement[pos]][offsets[pos] + e * r + j]
                    cells[c][j][e * b + i] = byte
    return [[int.from_bytes(cell, "little") for cell in column] for column in cells]


@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(lambda: rdp_code(7), lambda: hadamard_3design(16), id="rdp7-hadamard16"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(12, 6, 3), id="rs(6,2)-complete(12,6,3)"
    ),
])
def test_sweep_decodes_each_pattern_in_calls_of_at_most_one_array(
    make_code, make_design, monkeypatch
):
    # The sweep makes one call per erasure pattern, whose lanes are every
    # (extended row, instance) of the stored array, so its r x k cells hold
    # one array's bytes: never more, however many sets use the pattern.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    budget = layout.n * layout.rows_per_disk
    stored = _column_lanes(materialize(layout, 5))
    calls = []
    decode = HorizontalCode.decode

    def measuring_decode(self, rows, erased, wanted=None):
        width = max((cell.bit_length() + 7) // 8 for row in rows for cell in row if cell)
        calls.append((tuple(erased), width * len(rows) * len(rows[0])))
        # Every column the decoder is given holds every lane's stored byte.
        for j, row in enumerate(rows):
            assert all(row[c] == stored[c][j] for c in range(self.k) if c not in erased)
        return decode(self, rows, erased, wanted)

    monkeypatch.setattr(HorizontalCode, "decode", measuring_decode)
    summary = exhaustive_verify(layout, 2, seed=5)
    assert summary.passed == summary.total

    sets = list(combinations(range(layout.n), 2))
    patterns = set().union(*(_canonical_erasure_patterns(layout, failed) for failed in sets))
    assert {erased for erased, _ in calls} == patterns
    assert all(cells <= budget for _, cells in calls), max(cells for _, cells in calls)
    assert len(calls) == len(patterns)


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", ["rdp3-hadamard8", "rs(5,3)-complete(7,5,4)"])
def test_sweep_maps_a_wrong_lane_to_exactly_the_sets_that_use_it(name, family, monkeypatch):
    # The decoder flips one byte, lane e*b + i of inner row j of erased column
    # c, in its one call for one pattern. A set must fail iff instance i loses
    # some tuple under it whose plan decodes that pattern in extended row e
    # and lost the position holding c there.
    make_code, make_design = SWEEP_CASES[name]
    code = make_code()
    layout = build_layout(group_family(code, family), make_design())
    group, b = layout.group, len(layout.placements)
    decode = HorizontalCode.decode

    def lost_by(index, failed):
        return tuple(pos for pos, disk in enumerate(layout.placements[index]) if disk in failed)

    for s in range(1, code.delta + 1):
        rng = random.Random(f"{name}/{family}/{s}")
        sets = list(combinations(range(layout.n), s))
        failed = rng.choice(sets)
        index = rng.choice([i for i in range(b) if lost_by(i, failed)])
        lost = lost_by(index, failed)
        e, j = rng.randrange(len(group.extended_rows)), rng.randrange(code.r)
        pattern = reconstruction_plan(group, lost).erased[e]
        c = group.canonical_columns[e][rng.choice(lost)]
        assert c in pattern

        def flipping(self, rows, erased, wanted=None):
            out, read = decode(self, rows, erased, wanted)
            if tuple(erased) == pattern:
                out[j][c] ^= 1 << 8 * (e * b + index)
            return out, read

        monkeypatch.setattr(HorizontalCode, "decode", flipping)
        summary = exhaustive_verify(layout, s, seed=13)
        monkeypatch.undo()
        expected = set()
        for other in sets:
            hit = lost_by(index, other)
            if hit and reconstruction_plan(group, hit).erased[e] == pattern and (
                group.canonical_columns[e].index(c) in hit
            ):
                expected.add(other)
        assert failed in expected
        assert {r.failed for r in summary.results if not r.recovered} == expected, s


def test_sweep_fails_a_set_whose_lost_unit_nobody_rebuilds(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "full"), hadamard_3design(8))
    walk = simulator._failure_walk

    def dropping(layout, s):
        for failed, affected in walk(layout, s):
            if failed == (0, 1):
                lost = next(iter(affected))
                affected = {**affected, lost: affected[lost] & (affected[lost] - 1)}
            yield failed, affected

    monkeypatch.setattr(simulator, "_failure_walk", dropping)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert [r.failed for r in summary.results if not r.recovered] == [(0, 1)]
    assert summary.passed == summary.total - 1 == 27


def test_sweep_walks_each_sets_losses_once_when_every_unit_matches(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "full"), hadamard_3design(8))
    walked = []
    walk = simulator._failure_walk

    def counting(layout, s):
        for failed, affected in walk(layout, s):
            walked.append(failed)
            assert affected == losses(layout, frozenset(failed)), failed
            yield failed, affected

    monkeypatch.setattr(simulator, "_failure_walk", counting)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert summary.passed == summary.total == 28
    assert walked == list(combinations(range(layout.n), 2))


@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(lambda: rdp_code(3), lambda: hadamard_3design(8), id="rdp3-hadamard8"),
    pytest.param(
        lambda: rs_code(5, 3), lambda: complete_design(7, 5, 4), id="rs(5,3)-complete(7,5,4)"
    ),
])
def test_sweep_splits_each_shared_prefix_once(make_code, make_design, monkeypatch):
    # Depth first, a prefix of j disks is split once for all the sets that
    # extend it: C(n - s + j, j) splits at depth j, where every set split
    # from scratch would make C(n, s) at each depth.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    split, n = simulator._split, layout.n
    for s in range(layout.group.delta + 1):
        depth, made = {}, []  # made keeps every split alive, so no id is reused

        def counting(layout, groups, disk):
            out = split(layout, groups, disk)
            depth[id(out)] = depth.get(id(groups), 0) + 1
            made.append(out)
            return out

        monkeypatch.setattr(simulator, "_split", counting)
        summary = exhaustive_verify(layout, s, seed=3)
        monkeypatch.undo()
        assert summary.passed == summary.total == comb(n, s)
        assert Counter(depth.values()) == {j: comb(n - s + j, j) for j in range(1, s + 1)}, s
        if (n, s) == (8, 2):
            assert len(made) == 35  # not 2 * 28 = 56



@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(lambda: rdp_code(3), lambda: hadamard_3design(8), id="rdp3-hadamard8"),
    pytest.param(
        lambda: rs_code(5, 3), lambda: complete_design(7, 5, 4), id="rs(5,3)-complete(7,5,4)"
    ),
])
def test_sweep_reads_each_lost_tuples_plan_once(make_code, make_design, monkeypatch):
    # The per-set tally and the pattern checks take their plans from the
    # group's memo, so a sweep asks once for each lost tuple's plan the group
    # has not planned, however many sets lose it, and a repeated sweep asks
    # for none.
    import declustr.layout as layout_module

    layout = build_layout(group_family(make_code(), "full"), make_design())
    plan = layout_module.reconstruction_plan
    for s in range(layout.group.delta + 1):
        distinct = {
            lost for failed in combinations(range(layout.n), s)
            for lost in losses(layout, frozenset(failed))
        }
        for repeat_ in range(2):
            asked, planned = Counter(), set(layout.group._plans)

            def counting(group, lost):
                asked[lost] += 1
                return plan(group, lost)

            monkeypatch.setattr(layout_module, "reconstruction_plan", counting)
            monkeypatch.setattr(simulator, "reconstruction_plan", counting, raising=False)
            summary = exhaustive_verify(layout, s, seed=3)
            monkeypatch.undo()
            assert summary.passed == summary.total == comb(layout.n, s)
            assert asked == dict.fromkeys(distinct - planned, 1), (s, repeat_)
            assert not repeat_ or not asked, s


def test_rebuild_writes_back_only_the_columns_its_runs_lost(monkeypatch):
    # A pattern's unread surviving column is decoded but never scattered, so
    # a one-disk RDP p=7 rebuild writes back one column for each (data, P2)
    # pattern and both columns only of (P1, P2), which a lost P1 or P2 uses.
    layout = build_layout(group_family(rdp_code(7), "full"), hadamard_3design(16))
    array = materialize(layout, 4)
    decode_runs, calls = simulator._decode_runs, []

    def recording(code, cells, erased, runs, wanted):
        calls.append((erased, set(wanted)))
        return decode_runs(code, cells, erased, runs, wanted)

    monkeypatch.setattr(simulator, "_decode_runs", recording)
    for failed in [(3,), (0, 9)]:
        calls.clear()
        rebuilt, _ = fail_and_reconstruct(array, failed)
        assert rebuilt.disks == array.disks, failed
        assert all(wanted and wanted <= set(erased) for erased, wanted in calls), failed
        if len(failed) == 1:
            assert len(calls) == 5 and all(
                wanted == ({6, 7} if erased == (6, 7) else {erased[0]}) for erased, wanted in calls
            )


def test_rebuild_asks_for_each_lost_tuples_plan_once(monkeypatch):
    # The tally and the run loop take their plans from the group's memo, so
    # a rebuild asks once for each lost tuple's plan the group has not
    # planned, not once for the tally and again for the runs, and a repeated
    # rebuild asks for none.
    import declustr.layout as layout_module

    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(9, 6, 3))
    array = materialize(layout, 7)
    plan = layout_module.reconstruction_plan
    for failed in [(2,), (2, 5), (0, 8)]:
        distinct = set(losses(layout, frozenset(failed)))
        for repeat_ in range(2):
            asked, planned = Counter(), set(layout.group._plans)

            def counting(group, lost):
                asked[lost] += 1
                return plan(group, lost)

            monkeypatch.setattr(layout_module, "reconstruction_plan", counting)
            monkeypatch.setattr(simulator, "reconstruction_plan", counting, raising=False)
            rebuilt, _ = fail_and_reconstruct(array, failed)
            monkeypatch.undo()
            assert rebuilt.disks == array.disks
            assert asked == dict.fromkeys(distinct - planned, 1), (failed, repeat_)
            assert not repeat_ or not asked, failed


@pytest.mark.parametrize("make_code, make_design, runs", [
    pytest.param(lambda: rdp_code(7), lambda: hadamard_3design(16), 225, id="rdp7-hadamard16"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(12, 6, 3), 1385, id="rs(6,2)-complete(12,6,3)"
    ),
])
def test_fill_joins_each_disk_from_its_runs(make_code, make_design, runs, monkeypatch):
    # Timing-free: a fill cuts one slice per run of a disk's stack (the
    # longest stretch of consecutive instances at one position) out of the
    # position's unit-major buffer, where one slice per unit made 5,544 on
    # complete(12,6,3). Each disk's runs, laid end to end, are its stack.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    m = layout.group.m
    for stack, (positions, cuts) in zip(layout.stacks, layout.unit_runs):
        assert tuple(
            (i, pos) for pos, cut in zip(positions, cuts) for i in range(cut.start // m, cut.stop // m)
        ) == stack
    reference = materialize(layout, 7)
    cut = []
    monkeypatch.setattr(simulator, "getitem", lambda units, run: cut.append(run) or units[run])
    assert materialize(layout, 7).disks == reference.disks
    assert len(cut) == sum(len(cuts) for _, cuts in layout.unit_runs) == runs


def test_a_rebuilds_runs_lay_out_each_failed_disks_stack():
    # A rebuild's lanes are its affected instances in lost-tuple order; each
    # failed disk's runs, laid end to end, walk its stack in order, each run
    # at one position over consecutive lanes, and no two neighbours could
    # have been one run. A run may span placements that are not on the disk:
    # failing (2, 7), 30 of disk 7's 87 runs do.
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    m = layout.group.m
    for failed in [(0,), (2, 7), (5, 11)]:
        affected = losses(layout, frozenset(failed))
        lanes = [i for mask in affected.values() for i in placement_indices(layout, mask)]
        lane_of = dict(zip(lanes, count()))
        for disk in failed:
            positions, cuts = stack_runs(layout.stacks[disk], lane_of, m)
            walked = tuple(
                (lanes[x], pos) for pos, cut in zip(positions, cuts)
                for x in range(cut.start // m, cut.stop // m)
            )
            assert walked == layout.stacks[disk]
            for (pos, cut), (after, nxt) in pairwise(zip(positions, cuts)):
                assert (pos, cut.stop) != (after, nxt.start)


def test_one_disk_rebuild_decodes_only_the_lost_columns(monkeypatch):
    # Timing-free: each decode call of a one-disk rebuild runs its pattern's
    # program pruned to the columns its runs lost: one data column's pattern
    # applies 4 terms, not the full program's 16, for (0, 5, 6, 7) on RS(8,4),
    # and 36, not 72, for (0, 7) on RDP p=7.
    from declustr import erasure_codes

    applied = []
    program = erasure_codes._decode_matrix

    def recording(code, erased, wanted=None):
        out = program(code, erased, wanted)
        applied.append((code.kind, erased, wanted, sum(len(terms) for _, terms in out[1])))
        return out

    monkeypatch.setattr(erasure_codes, "_decode_matrix", recording)
    cases = [
        (rs_code(8, 4), complete_design(9, 8, 5), (0, 5, 6, 7), 4),
        (rdp_code(7), hadamard_3design(16), (0, 7), 36),
    ]
    for code, design, pattern, terms in cases:
        layout = build_layout(group_family(code, "full"), design)
        array = materialize(layout, 3)
        applied.clear()
        rebuilt, _ = fail_and_reconstruct(array, (1,))
        assert rebuilt.disks == array.disks
        assert (code.kind, pattern, (pattern[0],), terms) in applied
        full = sum(len(step) for _, step in program(code, pattern)[1])
        assert terms < full, (pattern, full)


def test_sweep_decodes_only_the_columns_its_sets_lost(monkeypatch):
    # Timing-free: a sweep decodes each pattern for the union of the columns
    # its lost tuples lost with it. On hadamard16 + RDP p=7 at s=1 that is
    # data column c alone of (c, 7) (P2 is unread), applying 36 terms for
    # (0, 7), not the full program's 72, and both columns of (6, 7), which
    # a lost P1 and a lost P2 each use; at s=2 every call wants both.
    from declustr import erasure_codes

    layout = build_layout(group_family(rdp_code(7), "full"), hadamard_3design(16))
    code, calls, applied = layout.group.code, [], {}
    decode, program = HorizontalCode.decode, erasure_codes._decode_matrix

    def recording_decode(self, rows, erased, wanted=None):
        calls.append((tuple(erased), None if wanted is None else tuple(sorted(wanted))))
        return decode(self, rows, erased, wanted)

    def recording_program(code, erased, wanted=None):
        out = program(code, erased, wanted)
        applied[erased] = sum(len(terms) for _, terms in out[1])
        return out

    monkeypatch.setattr(HorizontalCode, "decode", recording_decode)
    monkeypatch.setattr(erasure_codes, "_decode_matrix", recording_program)
    summary = exhaustive_verify(layout, 1, seed=3)
    assert summary.passed == summary.total == 16
    assert sorted(calls) == [((c, 7), (c,)) for c in range(6)] + [((6, 7), (6, 7))]
    assert applied[(0, 7)] == 36
    assert sum(len(terms) for _, terms in program(code, (0, 7))[1]) == 72
    calls.clear()
    summary = exhaustive_verify(layout, 2, seed=3)
    assert summary.passed == summary.total == 120
    assert calls and all(wanted == erased for erased, wanted in calls)


def _warm_peak(layout, call):
    """call's result and the tracemalloc peak of its second run (the first
    warms every memo) over the bytes of an array of `layout`."""
    call()
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / (layout.n * layout.rows_per_disk)


def test_sweep_memory_stays_within_a_few_arrays():
    # Timing-free: the tracemalloc peak of a warm s=2 sweep (plans memoized)
    # against the array's own bytes. Keeping every rebuilt unit and building
    # each set's replacement disks peaked near 12 arrays on hadamard16; keeping
    # every batch's lanes until the last round, near 8.5 on complete(12,6,3).
    # Decoding each pattern in calls of at most one array measured 5.2 and
    # 3.9 arrays; decoding in column space gathered from materialize's disks,
    # 2.7 and 3.05; decoding the encoded cells themselves, 1.9 and 2.5.
    cases = [
        (rdp_code(7), hadamard_3design(16), 120, 3),
        (rs_code(6, 2), complete_design(12, 6, 3), 66, 3),
    ]
    for code, design, sets, bound in cases:
        layout = build_layout(group_family(code, "full"), design)
        summary, peak = _warm_peak(layout, lambda: exhaustive_verify(layout, 2, seed=1))
        assert summary.passed == summary.total == sets
        assert peak <= bound, (design.params, peak)


def test_materialize_memory_stays_within_a_few_arrays():
    # The tracemalloc peak of one warm materialize against the array's bytes.
    # Holding the fill through the disk joins peaked at 3.92 arrays on
    # complete(12,6,3) and 2.98 on hadamard16; freeing it first, 3.25 and 2.23.
    # Cutting disks from unit-major buffers instead of one slice per unit,
    # 2.35 and 2.21.
    cases = [
        (rs_code(6, 2), complete_design(12, 6, 3), 2.75),
        (rdp_code(7), hadamard_3design(16), 2.5),
    ]
    for code, design, bound in cases:
        layout = build_layout(group_family(code, "full"), design)
        _, peak = _warm_peak(layout, lambda: materialize(layout, 1))
        assert peak <= bound, (design.params, peak)


@pytest.mark.parametrize("make_code, make_design", [
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(12, 6, 3), id="rs(6,2)-complete(12,6,3)"
    ),
    pytest.param(lambda: rdp_code(7), lambda: hadamard_3design(16), id="rdp7-hadamard16"),
])
def test_rebuild_memory_stays_within_a_few_arrays(make_code, make_design):
    # The tracemalloc peak of one warm rebuild against the array's bytes, for
    # the first 12 one- and two-disk failure sets. Gathering from a copy of
    # the array with its failed disks zeroed, and holding it through the
    # scatter, peaked at 3.99 arrays on complete(12,6,3) and 3.26 on hadamard16;
    # gathering from the caller's disks, 2.02 and 2.18. Cutting the decode
    # runs before the gather instead of after it held them through it: 2.84.
    # Picking the units out of one join of the disks, 64 per pick, freed with
    # the zero buffer before any cell is cut: one-disk 1.66 and 1.69 (from
    # 1.32 and 1.64), two-disk 2.00 and 2.15 (from 2.09 and 2.19). One pick
    # of all 714 lanes' units on complete(12,6,3) reached 2.69.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    array = materialize(layout, 1)
    for s in (1, 2):
        for failed in islice(combinations(range(layout.n), s), 12):
            (rebuilt, _), peak = _warm_peak(layout, lambda: fail_and_reconstruct(array, failed))
            assert rebuilt.disks == array.disks
            assert peak <= 2.5, (failed, peak)


def test_sweep_reports_non_uniform_reads(reference_design):
    skewed = build_layout(single_arrangement_group(rdp_code(3)), reference_design)
    summary = exhaustive_verify(skewed, 2, seed=7)
    assert summary.passed == summary.total == 28
    assert not summary.uniform
    assert summary.reads_per_disk is None
    assert summary.min_reads < summary.max_reads


def test_sweep_rejects_bad_arguments(reference_layout):
    with pytest.raises(ParamError):
        exhaustive_verify(reference_layout, 3)
    with pytest.raises(ParamError):
        exhaustive_verify(reference_layout, -1)
    # bool is an int subclass: True must not run as s=1
    for s in (True, False, 1.0, "1", None):
        with pytest.raises(ParamError):
            exhaustive_verify(reference_layout, s)


def test_degenerate_single_block_array_recovers():
    design = complete_design(4, 4, 3)
    layout = build_layout(balance_horizontal_code(rdp_code(3)), design)
    summary = exhaustive_verify(layout, 2, seed=5)
    assert summary.passed == summary.total == 6
    assert summary.reads_per_disk == 24


# -------------------------------------------------------------- provenance

def test_unit_provenance_walks_the_stack(reference_layout):
    group = reference_layout.group
    first = unit_provenance(reference_layout, 0, 0)
    assert first.block_index == 0
    assert (first.extended_row, first.inner_row) == (0, 0)
    assert first.label == group.extended_rows[0][0]

    # offset 25 = one full instance (24 rows) + 1: second block holding disk 0
    second = unit_provenance(reference_layout, 0, 25)
    assert second.block_index == 1
    assert (second.extended_row, second.inner_row) == (0, 1)

    last = unit_provenance(reference_layout, 0, 167)
    assert last.block_index == 6
    assert (last.extended_row, last.inner_row) == (11, 1)


def test_unit_provenance_rejects_out_of_range(reference_layout):
    with pytest.raises(ParamError):
        unit_provenance(reference_layout, 8, 0)
    with pytest.raises(ParamError):
        unit_provenance(reference_layout, 0, 168)


@pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "1", None])
def test_unit_provenance_rejects_non_int_indices(reference_layout, bad):
    # A bool is not a disk or an offset, though it indexes like 0 or 1.
    with pytest.raises(ParamError):
        unit_provenance(reference_layout, bad, 0)
    with pytest.raises(ParamError):
        unit_provenance(reference_layout, 0, bad)


@pytest.mark.parametrize("bad", [True, False, 1.5, 3.0, "3", None])
def test_materialize_rejects_a_non_int_seed(reference_layout, bad):
    with pytest.raises(ParamError, match="seed"):
        materialize(reference_layout, bad)
    with pytest.raises(ParamError, match="seed"):
        exhaustive_verify(reference_layout, 1, seed=bad)


def test_materialize_refuses_an_array_over_the_byte_budget(monkeypatch):
    # The layout itself builds in about a millisecond; its array would not.
    layout = build_layout(group_family(rdp_code(31), "full"), complete_design(34, 32, 3))
    size = layout.n * layout.rows_per_disk
    assert size == 534_251_520 > MAX_ARRAY_BYTES
    monkeypatch.setattr(simulator, "_fill_bytes", None)  # any fill would fail loudly
    message = rf"= {size} bytes exceeds the limit of {MAX_ARRAY_BYTES}$"
    with pytest.raises(ParamError, match=message):
        materialize(layout, 1)
    with pytest.raises(ParamError, match=message):
        exhaustive_verify(layout, 2)


def test_sweep_refuses_a_bad_seed_or_size_before_walking(monkeypatch):
    # The fill is the sweep's first step, so neither refusal waits for the
    # walk over all 120 failure sets.
    layout = build_layout(group_family(rdp_code(7), "full"), hadamard_3design(16))
    walked, walk = [0], simulator._failure_walk

    def counting(*args):
        for found in walk(*args):
            walked[0] += 1
            yield found

    monkeypatch.setattr(simulator, "_failure_walk", counting)
    with pytest.raises(ParamError, match="seed"):
        exhaustive_verify(layout, 2, seed="1")
    monkeypatch.setattr(simulator, "MAX_ARRAY_BYTES", 1000)
    with pytest.raises(ParamError, match="exceeds the limit of 1000$"):
        exhaustive_verify(layout, 2)
    assert walked == [0]


def test_disk_array_refuses_a_shape_its_layout_does_not_give(reference_layout):
    # A disk 5 bytes short once escaped the rebuild as a raw ValueError and
    # the parity check as an IndexError; a missing disk, as an IndexError.
    disks = materialize(reference_layout, 7).disks
    assert simulator.DiskArray(reference_layout, list(disks)).disks == disks
    shapes = {
        "short": disks[:3] + [disks[3][:-5]] + disks[4:],
        "long": disks[:3] + [disks[3] + b"\0"] + disks[4:],
        "missing": disks[:-1],
        "extra": disks + [bytearray(reference_layout.rows_per_disk)],
        "none": [],
        "not a list": None,
        "not disks": [5] * 8,
        "lists": [[0] * 168] * 8,
        "strs": ["x" * 168] * 8,
        # Counted in bytes, not items: 168 two-byte items are 336 bytes, and 168
        # bytes of two-byte items would be sliced by item in the rebuild.
        "wide": [array("H", bytes(336))] * 8,
        "wide items": [array("H", disk) for disk in disks],
    }
    for what, bad in shapes.items():
        with pytest.raises(ParamError, match=r"^the layout needs 8 disks of 168 bytes, got "):
            simulator.DiskArray(reference_layout, bad)
    with pytest.raises(ParamError, match=r"got disks of \['336 in 2-byte items', "):
        simulator.DiskArray(reference_layout, shapes["wide"])


def test_seed_is_taken_mod_2_64(reference_layout):
    array = materialize(reference_layout, 5)
    assert materialize(reference_layout, 5 + 2**64).disks == array.disks
    assert materialize(reference_layout, 5 - 2**64).disks == array.disks
    assert materialize(reference_layout, -1).disks == materialize(reference_layout, 2**64 - 1).disks

"""Byte-level fill, failure injection, recovery, and measured I/O counts."""

import hashlib
import random
import tracemalloc
from itertools import combinations, islice

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
    rs_code,
    single_arrangement_group,
    unit_provenance,
)
import declustr.simulator as simulator
from declustr.designs import MAX_ARRAY_BYTES
from declustr.simulator import SetResult, VerifySummary
from declustr.errors import InvariantError, ParamError, TooManyFailures
from test_reconstruction_plan import CASES, relabeled


# -------------------------------------------------------------- byte source

def test_byte_stream_is_deterministic():
    first = list(islice(byte_stream(42), 64))
    again = list(islice(byte_stream(42), 64))
    assert first == again
    assert all(0 <= b <= 255 for b in first)


def test_byte_stream_seed_zero_is_all_zero():
    assert list(islice(byte_stream(0), 16)) == [0] * 16


def test_byte_stream_seeds_differ():
    assert list(islice(byte_stream(1), 32)) != list(islice(byte_stream(2), 32))


# Every block size the fill picks for lengths up to 1 MiB.
FILL_BLOCK_SIZES = sorted({simulator._block_size(n) for n in range(1, 1 << 20, 97)})


def _fill_lengths(limit: int) -> list[int]:
    """0, 1, and 64·S - 1, 64·S, 64·S + 1 and 128·S - 1, 128·S, 128·S + 1 at
    every block size S (where the head and the block size change), lengths
    that are not multiples of the block size, and the 110,880-byte
    complete(12,6,3) + RS(6,2) fill, up to `limit`."""
    lengths = {0, 1, 7, 100, 1000, 5000, 8200, 20_001, 50_000, 110_880, 131_075, 524_293}
    for size in FILL_BLOCK_SIZES:
        lengths |= {64 * size - 1, 64 * size, 64 * size + 1}
        lengths |= {128 * size - 1, 128 * size, 128 * size + 1}
    return sorted(n for n in lengths if n <= limit)


def _fill_depth(n: int) -> int:
    """How many heads a fill of n bytes builds by recurrence before the one
    drawn from `byte_stream`."""
    head = 64 * simulator._block_size(n)
    return 0 if n <= head else 1 + _fill_depth(head)


@pytest.mark.parametrize(
    "seed,limit",
    [(0, 110_880), (1, 1 << 20), (2**64 - 1, 110_880), (2**64, 110_880), (2**64 + 5, 110_880)]
    + [
        (random.Random(index).randrange(1 << 69, 1 << 100), 1 << 20 if index == 0 else 110_880)
        for index in range(4)
    ],
)
def test_fill_bytes_equals_the_byte_stream(seed, limit):
    lengths = _fill_lengths(limit)
    reference = bytes(islice(byte_stream(seed), lengths[-1]))
    for n in lengths:
        assert simulator._fill_bytes(seed, n) == reference[:n], n


def test_fill_lengths_run_the_recurrence_at_every_block_size():
    # Each block size the fill can pick is exercised past its first 64
    # blocks, and so is every depth of heads built from smaller blocks.
    lengths = _fill_lengths(1 << 20)
    deep = {
        simulator._block_size(n)
        for n in lengths
        if n > 64 * simulator._block_size(n)
    }
    assert FILL_BLOCK_SIZES == [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    assert deep == set(FILL_BLOCK_SIZES)
    # Each head is at most half its fill, so 1 MiB needs at most 10 levels.
    assert {_fill_depth(n) for n in lengths} == set(range(11))
    assert _fill_depth(110_880) == 7


def _berlekamp_massey(bits: list[int]) -> list[int]:
    """Shortest connection polynomial c (c[0] = 1) with
    bits[i] = XOR of c[j] & bits[i - j], j = 1..L, over GF(2)."""
    c, b = [1], [1]
    length, shift = 0, 1
    for n, bit in enumerate(bits):
        discrepancy = bit
        for j in range(1, length + 1):
            discrepancy ^= c[j] & bits[n - j]
        if not discrepancy:
            shift += 1
            continue
        previous = c[:]
        c += [0] * (len(b) + shift - len(c))
        for j, coefficient in enumerate(b):
            c[j + shift] ^= coefficient
        if 2 * length <= n:
            length, b, shift = n + 1 - length, previous, 1
        else:
            shift += 1
    return c[: length + 1]


def test_fill_taps_are_the_streams_recurrence():
    # 256 output bits fix a degree-64 recurrence uniquely; every bit of the
    # byte gives the same one.
    stream = list(islice(byte_stream(0x9E3779B97F4A7C15), 256))
    for bit in range(8):
        c = _berlekamp_massey([byte >> bit & 1 for byte in stream])
        assert len(c) == 65
        assert tuple(j for j in range(1, 65) if c[j]) == simulator._TAPS


def _count_byte_stream(monkeypatch) -> list[int]:
    """Patch `simulator.byte_stream` to count the bytes drawn from it."""
    drawn = [0]

    def counting(seed):
        for byte in byte_stream(seed):
            drawn[0] += 1
            yield byte

    monkeypatch.setattr(simulator, "byte_stream", counting)
    return drawn


def test_materialize_draws_at_most_1024_bytes_byte_by_byte(monkeypatch):
    # Timing-free guard: the 110,880-byte fill takes only its last head from
    # the per-byte generator.
    layout = build_layout(group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3))
    group = layout.group
    length = len(layout.placements) * group.m * (group.k - group.delta)
    assert length == 110_880
    drawn = _count_byte_stream(monkeypatch)
    materialize(layout, 7)
    assert 0 < drawn[0] <= 1024


def test_fill_of_1_mib_draws_at_most_1024_bytes_byte_by_byte(monkeypatch):
    drawn = _count_byte_stream(monkeypatch)
    assert len(simulator._fill_bytes(5, 1 << 20)) == 1 << 20
    assert 0 < drawn[0] <= 1024


# ------------------------------------------------------------------- fill

def test_materialize_shape_and_determinism(reference_layout):
    array = materialize(reference_layout, 7)
    assert array.n == 8
    assert all(len(disk) == 168 for disk in array.disks)
    again = materialize(reference_layout, 7)
    assert array.disks == again.disks
    assert materialize(reference_layout, 8).disks != array.disks


def test_materialize_seed_zero_yields_zero_disks(reference_layout):
    array = materialize(reference_layout, 0)
    assert all(set(disk) == {0} for disk in array.disks)
    assert check_parity_invariant(array)


# sha256 of the concatenated disks of materialize(layout, 7). The digests
# pin the fill order: instances in block order, extended rows, inner rows,
# data slots, drawn from one xorshift stream.
@pytest.mark.parametrize(
    "build,digest",
    [
        (
            lambda ref: ref,
            "23ef85145949ee18e5c2b73eba1467ae559cbce0411ba3b483d0f0c8a9015995",
        ),
        (
            lambda ref: build_layout(
                group_family(rs_code(6, 2), "full"), complete_design(9, 6, 3)
            ),
            "ddc27b8f1669c590deef37038c0638362e27285a6dec9bf9eb83c5fe441ea25f",
        ),
        (
            lambda ref: build_layout(
                group_family(rs_code(5, 3), "full"), complete_design(7, 5, 4)
            ),
            "0075cd29cdc9a01d4e08793e799768e63aa88357782ebb240958a6654fe2e255",
        ),
        (
            lambda ref: build_layout(
                group_family(rs_code(6, 2), "full"), complete_design(12, 6, 3)
            ),
            "56c7aad266616aaea46fd9b3aa87de00dbd9a825fe35f701e264e4268bb55bd4",
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
    assignment at a time (the placement loop materialize used to run)."""
    group = layout.group
    k, delta, r, m = group.k, group.delta, group.r, group.m
    data_cols = k - delta
    per_instance = m * data_cols
    fill = bytes(islice(byte_stream(seed), len(layout.placements) * per_instance))
    disks = [bytearray(layout.rows_per_disk) for _ in range(layout.n)]
    for index, (placement, offsets) in enumerate(zip(layout.placements, layout.unit_offsets)):
        base = index * per_instance
        units = [bytearray(m) for _ in range(k)]
        for e, columns in enumerate(group.canonical_columns):
            data = [
                [fill[base + (e * r + j) * data_cols + s] for s in range(data_cols)]
                for j in range(r)
            ]
            codeword = group.code.encode(data)
            for pos, column in enumerate(columns):
                for j in range(r):
                    units[pos][e * r + j] = codeword[j][column]
        for pos, disk in enumerate(placement):
            disks[disk][offsets[pos] : offsets[pos] + m] = units[pos]
    return disks


@pytest.mark.parametrize("family", ["full", "single", "rotations"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_materialize_matches_unit_by_unit_placement(name, family):
    rng = random.Random(f"placement/{name}/{family}")
    make_code, make_design = CASES[name]
    layout = build_layout(group_family(make_code(), family), relabeled(rng, make_design()))
    for seed in (rng.randrange(1, 1 << 16), rng.randrange(1 << 64, 1 << 80)):
        assert materialize(layout, seed).disks == _placed_unit_by_unit(layout, seed), seed


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
    make_code, make_design = CODES_AND_DESIGNS[name]
    code = make_code()
    layout = build_layout(group_family(code, family), make_design())
    array = materialize(layout, 5)
    for s in range(code.delta + 1):
        for failed in combinations(range(layout.n), s):
            rebuilt, stats = fail_and_reconstruct(array, failed)
            assert rebuilt.disks == array.disks, failed
            assert stats.reads == reconstruction_workload(layout, failed).reads, failed
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

    def counting(self, rows, erased):
        calls.append(tuple(erased))
        return decode(self, rows, erased)

    monkeypatch.setattr(HorizontalCode, "decode", counting)
    rebuilt, _ = fail_and_reconstruct(array, failed)
    assert rebuilt.disks == array.disks
    patterns = _canonical_erasure_patterns(layout, failed)
    # One call per extended row of each affected instance would be 77 * 30 = 2,310.
    assert 1 <= len(calls) <= len(patterns) < 20


def test_decoder_reading_other_columns_is_an_invariant_error(reference_layout, monkeypatch):
    array = materialize(reference_layout, 7)
    decode = HorizontalCode.decode

    def misreporting(self, rows, erased):
        out, read = decode(self, rows, erased)
        return out, read[1:]

    monkeypatch.setattr(HorizontalCode, "decode", misreporting)
    with pytest.raises(InvariantError, match="decoder read columns"):
        fail_and_reconstruct(array, (0,))


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
    layout = build_layout(group_family(code, family), make_design())
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

    def flipping(self, rows, erased):
        out, read = decode(self, rows, erased)
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
    rng = random.Random(f"{name}/{family}")
    fill = simulator.materialize
    for _ in range(6):
        disk, offset = rng.randrange(layout.n), rng.randrange(layout.rows_per_disk)
        flip = rng.randrange(1, 256)
        who = unit_provenance(layout, disk, offset)
        placement = layout.placements[who.block_index]
        pos = placement.index(disk)

        def corrupted(layout, seed):
            array = fill(layout, seed)
            array.disks[disk][offset] ^= flip
            return array

        monkeypatch.setattr(simulator, "materialize", corrupted)
        for s in range(code.delta + 1):
            summary = exhaustive_verify(layout, s, seed=11)
            for result in summary.results:
                lost = tuple(p for p, d in enumerate(placement) if d in result.failed)
                reads = bool(lost) and pos in (
                    reconstruction_plan(layout.group, lost).sources[who.extended_row]
                )
                expected = disk not in result.failed and not reads
                assert result.recovered == expected, (result.failed, disk, offset)
            assert summary.passed < summary.total or s == 0


def test_sweep_gathers_each_instance_and_lost_tuple_once(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "full"), hadamard_3design(8))
    gathered, decoded, decodes = [], {}, []
    planes, decode_pattern, decode = (
        simulator._planes, simulator._decode_pattern, HorizontalCode.decode
    )

    def counting_planes(array, batch, pos):
        # A lane set's planes at a position are gathered on first use only.
        if pos not in batch.planes:
            gathered.append((tuple(batch.lanes), pos))
        return planes(array, batch, pos)

    def recording_pattern(code, erased, contributors):
        decoded.update((id(batch), batch) for _, batch in contributors)
        return decode_pattern(code, erased, contributors)

    def counting_decode(self, rows, erased):
        decodes.append(tuple(erased))
        return decode(self, rows, erased)

    monkeypatch.setattr(simulator, "_planes", counting_planes)
    monkeypatch.setattr(simulator, "_decode_pattern", recording_pattern)
    monkeypatch.setattr(HorizontalCode, "decode", counting_decode)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert summary.passed == summary.total == 28

    sets = list(combinations(range(layout.n), 2))
    expected = {
        (index, tuple(pos for pos, disk in enumerate(placement) if disk in failed))
        for failed in sets
        for index, placement in enumerate(layout.placements)
        if set(failed) & set(placement)
    }
    affected = sum(
        1 for failed in sets for placement in layout.placements if set(failed) & set(placement)
    )
    # Each (instance, lost tuple) is decoded in exactly one batch.
    pairs = [(index, batch.lost) for batch in decoded.values() for index in batch.lanes]
    assert sorted(pairs) == sorted(expected)
    assert len(expected) < affected
    # Gathers go per (lane set, position), and no unit is gathered twice.
    lane_sets = {tuple(batch.lanes) for batch in decoded.values()}
    assert {lanes for lanes, _ in gathered} == lane_sets
    assert len(gathered) <= len(lane_sets) * layout.group.k
    units = [(index, pos) for lanes, pos in gathered for index in lanes]
    assert len(units) == len(set(units))
    assert set(decodes) == set().union(
        *(_canonical_erasure_patterns(layout, failed) for failed in sets)
    )


@pytest.mark.parametrize("make_code, make_design, most_calls", [
    pytest.param(lambda: rdp_code(7), lambda: hadamard_3design(16), 36, id="rdp7-hadamard16"),
    pytest.param(
        lambda: rs_code(6, 2), lambda: complete_design(12, 6, 3), 21, id="rs(6,2)-complete(12,6,3)"
    ),
])
def test_sweep_decodes_each_pattern_in_calls_of_at_most_one_array(
    make_code, make_design, most_calls, monkeypatch
):
    # A sweep has one lane set, so a per-batch budget would decode one batch
    # at a time: 300 calls for 28 patterns on hadamard16, 141 for 15 on
    # complete(12,6,3). Grouping across batches leaves one call per pattern,
    # split only where its r x k grid would outgrow one copy of the array.
    layout = build_layout(group_family(make_code(), "full"), make_design())
    group, budget = layout.group, layout.n * layout.rows_per_disk
    calls, contributions = [], []
    decode_pattern, decode = simulator._decode_pattern, HorizontalCode.decode

    def recording_pattern(code, erased, contributors):
        contributions.extend((batch.lost, e, tuple(batch.lanes)) for e, batch in contributors)
        return decode_pattern(code, erased, contributors)

    def measuring_decode(self, rows, erased):
        width = max((cell.bit_length() + 7) // 8 for row in rows for cell in row if cell)
        calls.append((tuple(erased), width * len(rows) * len(rows[0])))
        return decode(self, rows, erased)

    monkeypatch.setattr(simulator, "_decode_pattern", recording_pattern)
    monkeypatch.setattr(HorizontalCode, "decode", measuring_decode)
    summary = exhaustive_verify(layout, 2, seed=5)
    assert summary.passed == summary.total

    sets = list(combinations(range(layout.n), 2))
    patterns = set().union(*(_canonical_erasure_patterns(layout, failed) for failed in sets))
    assert {erased for erased, _ in calls} == patterns
    assert all(cells <= budget for _, cells in calls), max(cells for _, cells in calls)
    assert len(patterns) <= len(calls) <= most_calls
    # Each (instance, lost tuple, extended row) is decoded exactly once: every
    # (lost tuple, extended row) is one contributor, whose lanes are exactly
    # the instances that lose that tuple in some set.
    lanes: dict[tuple[int, ...], set[int]] = {}
    for failed in sets:
        for index, placement in enumerate(layout.placements):
            lost = tuple(pos for pos, disk in enumerate(placement) if disk in failed)
            if lost:
                lanes.setdefault(lost, set()).add(index)
    rows = range(len(group.extended_rows))
    assert sorted((lost, e) for lost, e, _ in contributions) == sorted(
        (lost, e) for lost in lanes for e in rows
    )
    assert all(set(members) == lanes[lost] for lost, _, members in contributions)


def test_sweep_fails_a_set_whose_lost_unit_nobody_rebuilds(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "full"), hadamard_3design(8))
    walk = simulator.losses

    def dropping(layout, failed):
        affected = walk(layout, failed)
        if failed == {0, 1}:
            lost = next(iter(affected))
            affected = {**affected, lost: affected[lost] & (affected[lost] - 1)}
        return affected

    monkeypatch.setattr(simulator, "losses", dropping)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert [r.failed for r in summary.results if not r.recovered] == [(0, 1)]
    assert summary.passed == summary.total - 1 == 27


def test_sweep_walks_each_sets_losses_once_when_every_unit_matches(monkeypatch):
    layout = build_layout(group_family(rdp_code(3), "full"), hadamard_3design(8))
    walked = []
    walk = simulator.losses

    def counting(layout, failed):
        walked.append(tuple(sorted(failed)))
        return walk(layout, failed)

    monkeypatch.setattr(simulator, "losses", counting)
    summary = exhaustive_verify(layout, 2, seed=3)
    assert summary.passed == summary.total == 28
    assert walked == list(combinations(range(layout.n), 2))


def test_sweep_memory_stays_within_a_few_arrays():
    # Timing-free: the tracemalloc peak of a warm s=2 sweep (plans memoized)
    # against the array's own bytes. Keeping every rebuilt unit and building
    # each set's replacement disks peaked near 12 arrays on hadamard16; keeping
    # every batch's lanes until the last round, near 8.5 on complete(12,6,3).
    # Decoding each pattern in calls of at most one array and keeping no
    # rebuilt plane measured 5.5 and 4.3 arrays.
    cases = [
        (rdp_code(7), hadamard_3design(16), 120, 6),
        (rs_code(6, 2), complete_design(12, 6, 3), 66, 5),
    ]
    for code, design, sets, bound in cases:
        layout = build_layout(group_family(code, "full"), design)
        array_bytes = layout.n * layout.rows_per_disk
        exhaustive_verify(layout, 2, seed=1)
        tracemalloc.start()
        try:
            summary = exhaustive_verify(layout, 2, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.passed == summary.total == sets
        assert peak <= bound * array_bytes, (design.params, peak / array_bytes)


def test_materialize_memory_stays_within_a_few_arrays():
    # The tracemalloc peak of one warm materialize against the array's bytes.
    # Holding the fill through the disk joins peaked at 3.92 arrays on
    # complete(12,6,3) and 2.98 on hadamard16; freeing it first, 3.25 and 2.23.
    cases = [
        (rs_code(6, 2), complete_design(12, 6, 3), 3.5),
        (rdp_code(7), hadamard_3design(16), 2.5),
    ]
    for code, design, bound in cases:
        layout = build_layout(group_family(code, "full"), design)
        array_bytes = layout.n * layout.rows_per_disk
        materialize(layout, 1)
        tracemalloc.start()
        try:
            materialize(layout, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * array_bytes, (design.params, peak / array_bytes)


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


def test_seed_is_taken_mod_2_64(reference_layout):
    array = materialize(reference_layout, 5)
    assert materialize(reference_layout, 5 + 2**64).disks == array.disks
    assert materialize(reference_layout, 5 - 2**64).disks == array.disks
    assert materialize(reference_layout, -1).disks == materialize(reference_layout, 2**64 - 1).disks

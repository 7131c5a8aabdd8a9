"""Encode/decode round-trips and the label-level reconstruction rule."""

import random
import re
from itertools import combinations

import pytest

from declustr import (
    DATA,
    HorizontalCode,
    canonical_labels,
    parity_label,
    rdp_code,
    reconstruction_rule,
    rs_code,
)
from declustr import erasure_codes, gf256
from declustr.erasure_codes import rs_parity_matrix
from declustr.errors import InvariantError, ParamError, TooManyErasures

P1, P2, P3 = parity_label(1), parity_label(2), parity_label(3)


def random_data(rows, cols, seed):
    rng = random.Random(seed)
    return [[rng.randrange(256) for _ in range(cols)] for _ in range(rows)]


def expected_reads(code, erased):
    """Columns the decoder should read, from the rule over canonical labels."""
    labels = code.labels
    need = reconstruction_rule(code.delta, [labels[c] for c in erased])
    return sorted(c for c in range(code.k) if c not in erased and labels[c] in need)


def erase(codeword, erased):
    return [
        [None if c in erased else value for c, value in enumerate(row)]
        for row in codeword
    ]


# -------------------------------------------------------------------- RDP

def test_rdp_small_codeword_by_hand():
    code = rdp_code(3)
    assert code.encode([[1, 2], [4, 8]]) == [[1, 2, 3, 13], [4, 8, 12, 6]]


def test_rdp_row_parity_is_zero():
    code = rdp_code(5)
    codeword = code.encode(random_data(4, 4, seed=11))
    for row in codeword:
        acc = 0
        for value in row[:5]:
            acc ^= value
        assert acc == 0


def test_rdp_single_nonzero_symbol():
    code = rdp_code(5)
    data = [[0] * 4 for _ in range(4)]
    data[0][0] = 0xA7
    codeword = code.encode(data)
    assert [row[4] for row in codeword] == [0xA7, 0, 0, 0]
    diagonal_parity = [row[5] for row in codeword]
    assert sum(1 for value in diagonal_parity if value) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rdp_round_trip_all_erasure_sets(p):
    code = rdp_code(p)
    codeword = code.encode(random_data(p - 1, p - 1, seed=p))
    for size in range(3):
        for erased in combinations(range(p + 1), size):
            out, reads = code.decode(erase(codeword, erased), erased)
            assert out == codeword
            assert sorted(reads) == expected_reads(code, erased)


def test_rdp_decode_makes_no_gf256_products(monkeypatch):
    # RDP's checks and their inverses hold only 0s and 1s, so a decode,
    # matrix build included, is XOR alone.
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return gf256.EXP[gf256.LOG[a] + gf256.LOG[b]] if a and b else 0

    monkeypatch.setattr(gf256, "gf_mul", counting)
    monkeypatch.setattr(erasure_codes, "gf_mul", counting)
    erasure_codes._decode_matrix.cache_clear()
    code = rdp_code(7)
    codeword = code.encode(random_data(6, 6, seed=7))
    for size in range(3):
        for erased in combinations(range(8), size):
            assert code.decode(erase(codeword, erased), erased)[0] == codeword
    assert calls == []


def test_singular_check_system_is_an_invariant_error(monkeypatch):
    code = rs_code(4, 2)
    first = erasure_codes._parity_checks(code)[0]
    monkeypatch.setattr(erasure_codes, "_parity_checks", lambda code: [first, first])
    erasure_codes._decode_matrix.cache_clear()
    codeword = code.encode([[1, 2]])
    try:
        with pytest.raises(InvariantError, match=r"kind='rs', k=4.*erasures \(0, 1\)"):
            code.decode(erase(codeword, (0, 1)), (0, 1))
    finally:
        erasure_codes._decode_matrix.cache_clear()


def test_rdp_all_zero_data():
    code = rdp_code(3)
    assert code.encode([[0, 0], [0, 0]]) == [[0] * 4 for _ in range(2)]


def test_rdp_rejects_three_erasures():
    code = rdp_code(3)
    codeword = code.encode([[1, 2], [4, 8]])
    with pytest.raises(TooManyErasures):
        code.decode(erase(codeword, (0, 1, 2)), (0, 1, 2))


@pytest.mark.parametrize("p", [1, 4, 6, 9])
def test_rdp_rejects_non_primes(p):
    with pytest.raises(ParamError):
        rdp_code(p)


# --------------------------------------------------------------------- RS

def test_rs_parity_matrix_first_row_is_ones():
    for k in range(3, 9):
        for delta in range(1, min(4, k)):
            assert rs_parity_matrix(k, delta)[0] == [1] * (k - delta)


def test_rs_delta_one_parity_is_xor():
    code = rs_code(5, 1)
    data = random_data(1, 4, seed=2)
    codeword = code.encode(data)
    assert codeword[0][4] == data[0][0] ^ data[0][1] ^ data[0][2] ^ data[0][3]


@pytest.mark.parametrize(
    "k,deltas",
    [(k, range(1, min(4, k))) for k in range(3, 9)] + [(8, [4]), (10, [3])],
    ids=[*map(str, range(3, 9)), "8-4", "10-3"],
)
def test_rs_round_trip_all_erasure_sets(k, deltas):
    for delta in deltas:
        code = rs_code(k, delta)
        codeword = code.encode(random_data(1, k - delta, seed=10 * k + delta))
        for size in range(delta + 1):
            for erased in combinations(range(k), size):
                out, reads = code.decode(erase(codeword, erased), erased)
                assert out == codeword
                assert sorted(reads) == expected_reads(code, erased)


def test_rs_all_zero_data():
    code = rs_code(6, 2)
    assert code.encode([[0, 0, 0, 0]]) == [[0] * 6]


def test_rs_rejects_too_many_erasures():
    code = rs_code(5, 2)
    codeword = code.encode([[1, 2, 3]])
    with pytest.raises(TooManyErasures):
        code.decode(erase(codeword, (0, 1, 2)), (0, 1, 2))


@pytest.mark.parametrize("k,delta", [(1, 1), (5, 5), (5, 0), (256, 2)])
def test_rs_rejects_bad_params(k, delta):
    with pytest.raises(ParamError):
        rs_code(k, delta)


@pytest.mark.parametrize(
    "make,args,name",
    [
        (rs_code, (4, True), "delta"),
        (rs_code, (4.0, 2), "k"),
        (rs_code, ("4", 2), "k"),
        (rdp_code, (5.0,), "p"),
        (rdp_code, (True,), "p"),
        (rdp_code, ("5",), "p"),
    ],
    ids=["rs bool delta", "rs float k", "rs str k", "rdp float p", "rdp bool p", "rdp str p"],
)
def test_codes_refuse_non_int_params(make, args, name):
    # rs_code(4, True) once built a code whose layout file its own loader refused.
    with pytest.raises(ParamError, match=f"^{name} must be an int"):
        make(*args)


@pytest.mark.parametrize(
    "make,args,message",
    [
        (rdp_code, (4,), "rdp needs a prime p >= 3, got 4"),
        (rs_code, (256, 2), "rs needs 2 <= k <= 255, got k=256"),
        (rs_code, (5, 5), "rs needs 1 <= delta < k, got delta=5"),
        (HorizontalCode, ("xyz", 4, 2, 1), "unknown code kind 'xyz', not one of rdp, rs"),
        (HorizontalCode, (["rs"], 4, 2, 1), "unknown code kind ['rs'], not one of rdp, rs"),
        (HorizontalCode, ("rs", 4, 2, 2), "rs with k=4 needs (delta, r) = (2, 1), got (2, 2)"),
        (HorizontalCode, ("rdp", 4, 1, 2), "rdp with k=4 needs (delta, r) = (2, 2), got (1, 2)"),
        (HorizontalCode, ("rdp", 4, 2, True), "r must be an int, got True"),
    ],
    ids=["rdp p", "rs k", "rs delta", "kind", "list kind", "rs r", "rdp delta", "bool r"],
)
def test_codes_refuse_malformed_fields_when_built(make, args, message):
    # HorizontalCode("xyz", 4, 2, 1) once encoded and decoded as rs.
    with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
        make(*args)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: rs_code(4, 2).decode([[1, 2, 3, 4]], (4,)), "erased columns out of range: [4]"),
        (
            lambda: rs_code(4, 2).decode([[1, 2, 3, 4]], (-1, 0)),
            "erased columns out of range: [-1, 0]",
        ),
        (
            lambda: rs_code(4, 2).decode([[None, None, 3, 4]], (0,)),
            "column 1 must be readable but holds None",
        ),
        (lambda: rs_code(4, 2).decode([[1, 2, 3]], ()), "expected a 1 x 4 grid"),
        (lambda: rdp_code(3).decode([[1, 2, 3, 4]], ()), "expected a 2 x 4 grid"),
        (lambda: rdp_code(3).encode([[1, 2, 3], [4, 5, 6]]), "expected a 2 x 2 grid"),
        (lambda: rs_code(4, 2).encode([[1, 2], [1, 2, 3]]), "data rows must have 2 symbols"),
        (lambda: rs_code(4, 2).p, "only the rdp code has a prime parameter"),
    ],
    ids=["erased high", "erased low", "None read", "rs grid", "rdp grid", "rdp data",
         "rs data", "rs p"],
)
def test_codec_refuses_malformed_calls(call, message):
    with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
        call()


# ------------------------------------------------------------------ lanes

def pack(grids):
    """One grid whose cells hold lane i's cell in byte i (little-endian)."""
    return [
        [
            int.from_bytes(bytes(grid[i][j] for grid in grids), "little")
            for j in range(len(grids[0][0]))
        ]
        for i in range(len(grids[0]))
    ]


def unpack(grid, lanes):
    return [
        [[cell.to_bytes(lanes, "little")[lane] for cell in row] for row in grid]
        for lane in range(lanes)
    ]


def multi_lane_case(rng: random.Random):
    if rng.random() < 0.5:
        code = rdp_code(rng.choice([3, 5, 7]))
    else:
        k = rng.randint(2, 9)
        code = rs_code(k, rng.randint(1, min(3, k - 1)))
    lanes = rng.randint(1, 9)
    data = [
        [
            [rng.randrange(256) for _ in range(code.k - code.delta)]
            for _ in range(code.r)
        ]
        for _ in range(lanes)
    ]
    erased = sorted(rng.sample(range(code.k), rng.randint(0, code.delta)))
    return code, data, erased


@pytest.mark.parametrize("seed", range(80))
def test_one_multi_lane_call_equals_one_call_per_lane(seed):
    code, data, erased = multi_lane_case(random.Random(seed))
    lanes = len(data)
    singles = [code.encode(grid) for grid in data]
    packed = code.encode(pack(data))
    assert unpack(packed, lanes) == singles

    out, reads = code.decode(erase(packed, erased), erased)
    assert unpack(out, lanes) == singles
    for single in singles:
        single_out, single_reads = code.decode(erase(single, erased), erased)
        assert single_out == single
        assert single_reads == reads


# ------------------------------------------------------------------- rule

@pytest.mark.parametrize(
    "lost,need",
    [
        ((), set()),
        ((DATA,), {DATA, P1}),
        ((P1,), {DATA}),
        ((P2,), {DATA}),
        ((DATA, DATA), {DATA, P1, P2}),
        ((DATA, P1), {DATA, P2}),
        ((DATA, P2), {DATA, P1}),
        ((P1, P2), {DATA}),
    ],
)
def test_rule_table_two_parities(lost, need):
    assert reconstruction_rule(2, lost) == need


@pytest.mark.parametrize(
    "lost,need",
    [
        ((DATA, P2), {DATA, P1}),
        ((DATA, DATA, P3), {DATA, P1, P2}),
        ((P1, P2, P3), {DATA}),
        ((DATA, DATA, DATA), {DATA, P1, P2, P3}),
        ((P2,), {DATA}),
    ],
)
def test_rule_table_three_parities(lost, need):
    assert reconstruction_rule(3, lost) == need


def test_rule_rejects_bad_losses():
    with pytest.raises(ParamError):
        reconstruction_rule(2, (DATA, DATA, DATA))
    with pytest.raises(ParamError):
        reconstruction_rule(2, (P1, P1))
    with pytest.raises(ParamError):
        reconstruction_rule(2, ("X",))
    with pytest.raises(ParamError):
        reconstruction_rule(2, (P3,))


def test_canonical_labels_order():
    assert canonical_labels(6, 2) == (DATA, DATA, DATA, DATA, P1, P2)

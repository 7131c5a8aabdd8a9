"""Encode/decode round-trips and the label-level reconstruction rule."""

import operator
import random
import re
from itertools import combinations, product, repeat

import pytest

from declustr import (
    DATA,
    HorizontalCode,
    canonical_labels,
    parity_index,
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


def _rdp_by_hand(p, data):
    """RDP's row and diagonal parities by direct loops, apart from the codec's
    parity checks: an oracle that a wrong check cannot share."""
    rows = [list(row) + [0, 0] for row in data]
    for row in rows:
        acc = 0
        for value in row[: p - 1]:
            acc ^= value
        row[p - 1] = acc
    # Diagonal d gathers cells (i, j) over columns 0..p-1 with (i+j) mod p == d;
    # diagonal p-1 has no parity cell.
    diag = [0] * p
    for i in range(p - 1):
        for j in range(p):
            diag[(i + j) % p] ^= rows[i][j]
    for i in range(p - 1):
        rows[i][p] = diag[i]
    return rows


@pytest.mark.parametrize("lanes", [1, 5, 64])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_rdp_encode_equals_the_loops_by_hand(p, lanes):
    # Encode and decode share the parity checks, so round trips alone would
    # pass a wrong check; the loops above state RDP independently.
    rng = random.Random(f"rdp-by-hand-{p}-{lanes}")
    data = [[rng.getrandbits(8 * lanes) for _ in range(p - 1)] for _ in range(p - 1)]
    assert rdp_code(p).encode(data) == _rdp_by_hand(p, data)


@pytest.mark.parametrize("lanes", [1, 3, 40])
def test_encoding_through_the_decoder_equals_rs_encode(lanes):
    # Every RS code with k <= 12, so routing RS's encode through the decoder
    # is checked before it is made.
    rng = random.Random(f"rs-through-decoder-{lanes}")
    for k in range(2, 13):
        for delta in range(1, k):
            code = rs_code(k, delta)
            data = [[rng.getrandbits(8 * lanes) for _ in range(k - delta)]]
            assert erasure_codes._encode(code, data) == erasure_codes.rs_encode(code, data), (k, delta)


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


@pytest.mark.parametrize(
    "code", [rdp_code(3), rdp_code(5), rs_code(6, 2), rs_code(8, 4)], ids=["rdp3", "rdp5", "rs6,2", "rs8,4"]
)
def test_decoding_some_erased_columns_gives_the_full_decodes_cells(code):
    # Asked for some of the erased columns, the decoder reads what the rule
    # names, as a full decode does, and returns those columns' cells of the
    # codeword; every other erased cell stays None and every unread
    # surviving one stays as given.
    codeword = code.encode(random_data(code.r, code.k - code.delta, seed=code.k))
    for size in range(1, code.delta + 1):
        for erased in combinations(range(code.k), size):
            given = erase(codeword, erased)
            for n in range(1, size + 1):
                for wanted in combinations(erased, n):
                    out, reads = code.decode(given, erased, wanted)
                    assert sorted(reads) == expected_reads(code, erased)
                    assert out == [
                        [cell if c in wanted or c not in erased else None for c, cell in enumerate(row)]
                        for row in codeword
                    ], (erased, wanted)


@pytest.mark.parametrize(
    "code,erased,wanted,full,pruned",
    [
        (rs_code(8, 4), (0, 5, 6, 7), (0,), 16, 4),
        (rs_code(6, 2), (0, 5), (0,), 8, 4),
        (rdp_code(7), (0, 7), (0,), 72, 36),
        (rdp_code(5), (0, 5), (0,), 32, 16),
        (rdp_code(7), (6, 7), (6, 7), 72, 72),
    ],
    ids=["rs8,4", "rs6,2", "rdp7", "rdp5", "rdp7 both"],
)
def test_decode_programs_pruned_to_the_wanted_columns(code, erased, wanted, full, pruned):
    # Timing-free: the terms a decode call applies, full and pruned to one
    # lost data column. RDP's full programs peel, each cell from the one
    # check it is the last unknown of: p - 1 terms a cell. Pruned to column
    # 0, only the row checks are used.
    def terms(program):
        return sum(len(step) for _, step in program)

    assert terms(erasure_codes._decode_matrix(code, erased)[1]) == full
    assert terms(erasure_codes._decode_matrix(code, erased, wanted)[1]) == pruned


def test_parity_index_reads_no_more_digits_than_parity_label_writes():
    # A longer index is refused before int reads it: past 4,300 digits int
    # itself would raise ValueError.
    assert parity_index(parity_label(10**6)) == 10**6
    for label in ("P" + "1" * 8, "P" + "1" * 5000):
        with pytest.raises(ParamError, match="^unknown column label"):
            parity_index(label)


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


def cell_message(row, column, shown):
    """A cell that is not an exact non-negative int (a bool is not one) is refused
    by its row and column; a valid call pays one set of its cells' types and one min."""
    return f"the cell in row {row}, column {column} must be a non-negative int, got {shown}"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: rs_code(4, 2).decode([[1, 2, 3, 4]], (4,)), "erased columns out of range: [4]"),
        (
            lambda: rs_code(4, 2).decode([[1, 2, 3, 4]], (-1, 0)),
            "erased columns out of range: [-1, 0]",
        ),
        (
            lambda: rs_code(4, 2).decode([[1, 2, 3, 4]], (10**5000,)),
            "erased columns out of range: a list holding an int too long to show",
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
        (lambda: rdp_code(3).encode(5), "expected a 2 x 2 grid"),
        (lambda: rs_code(4, 2).encode(5), "data rows must have 2 symbols"),
        (lambda: rs_code(4, 2).encode([5]), "data rows must have 2 symbols"),
        (lambda: rdp_code(3).decode(5, (0,)), "expected a 2 x 4 grid"),
        (
            lambda: rs_code(4, 2).decode([[1, None, 3, 4]], (1,), (2,)),
            "wanted columns must be erased columns [1], got (2,)",
        ),
        (
            lambda: rs_code(4, 2).decode([[1, None, 3, 4]], (1,), [True]),
            "wanted columns must be erased columns [1], got (True,)",
        ),
        (
            lambda: rs_code(4, 2).decode([[1, None, 3, 4]], (1,), 1),
            "wanted columns must be an iterable of erased columns, got 1",
        ),
        (lambda: rdp_code(3).encode([["x", 1], [2, 3]]), cell_message(0, 0, "'x'")),
        (lambda: rdp_code(3).encode([[1.5, 1], [2, 3]]), cell_message(0, 0, "1.5")),
        (lambda: rdp_code(3).encode([[0, 1], [2, b"x"]]), cell_message(1, 1, "b'x'")),
        (lambda: rs_code(4, 2).encode([[None, 1]]), cell_message(0, 0, "None")),
        (lambda: rs_code(4, 2).encode([[1.5, 1]]), cell_message(0, 0, "1.5")),
        (lambda: rs_code(4, 2).encode([[-1, 300]]), cell_message(0, 0, "-1")),
        (lambda: rs_code(4, 2).encode([[0, "x"]]), cell_message(0, 1, "'x'")),
        (
            lambda: rdp_code(3).decode([["x", 1, None, None], [2, 3, None, None]], (2, 3)),
            cell_message(0, 0, "'x'"),
        ),
        (lambda: rs_code(4, 2).decode([[-1, 300, None, None]], (2, 3)), cell_message(0, 0, "-1")),
        (lambda: rs_code(4, 2).decode([[1, "x", None, None]], (2, 3)), cell_message(0, 1, "'x'")),
        (lambda: rdp_code(3).encode([[None, 1], [2, 3]]), "column 0 must be readable but holds None"),
        (lambda: rdp_code(3).encode([[-1, 1], [2, 3]]), cell_message(0, 0, "-1")),
        (lambda: rs_code(5, 1).encode([[-1, 0, 0, 0]]), cell_message(0, 0, "-1")),
        (lambda: rdp_code(3).encode([[1, 1], [2, True]]), cell_message(1, 1, "True")),
        (
            lambda: rdp_code(3).decode([[-1, 1, None, None], [2, 3, None, None]], (2, 3)),
            cell_message(0, 0, "-1"),
        ),
        (lambda: rs_code(5, 1).decode([[-1, 0, 0, 0, None]], (4,)), cell_message(0, 0, "-1")),
        (
            lambda: rdp_code(3).decode([[1, 1, None, None], [2, True, None, None]], (2, 3)),
            cell_message(1, 1, "True"),
        ),
    ],
    ids=["erased high", "erased low", "erased huge", "None read", "rs grid", "rdp grid", "rdp data",
         "rs data", "rs p", "rdp int data", "rs int data", "rs int row", "rdp int grid",
         "wanted unerased", "wanted bool", "wanted int",
         "rdp str", "rdp float", "rdp bytes", "rs None", "rs float", "rs negative", "rs second cell",
         "rdp decode str", "rs decode negative", "rs decode str", "rdp None",
         "rdp negative", "rs xor negative", "rdp bool",
         "rdp decode negative", "rs xor decode negative", "rdp decode bool"],
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


@pytest.mark.parametrize("k,delta", [(6, 2), (8, 3), (9, 4)], ids=["rs6-2", "rs8-3", "rs9-4"])
def test_decode_turns_each_read_cell_into_bytes_at_most_once(k, delta, monkeypatch):
    # An RS read cell feeds every erased cell, mostly through products by
    # coefficients other than 1; its bytes are made once per call, not once
    # per product, and the products stay exact.
    code = rs_code(k, delta)
    rng = random.Random(f"cell-bytes-{k}-{delta}")
    singles = [code.encode(random_data(1, k - delta, rng.random())) for _ in range(12)]
    packed = pack(singles)
    converted, products = [], []
    cell_bytes, scaled = erasure_codes._cell_bytes, erasure_codes._scaled

    def counting_bytes(cell):
        converted.append(cell)
        return cell_bytes(cell)

    def counting_scaled(coeff, raw):
        products.append(coeff)
        return scaled(coeff, raw)

    monkeypatch.setattr(erasure_codes, "_cell_bytes", counting_bytes)
    monkeypatch.setattr(erasure_codes, "_scaled", counting_scaled)
    total = 0
    for erased in combinations(range(k), delta):
        converted.clear()
        out, reads = code.decode(erase(packed, erased), erased)
        assert unpack(out, len(singles)) == singles, erased
        assert len(converted) <= len(reads) * code.r, erased
        total += len(converted)
    # One conversion per product would have made every product convert.
    assert total < len(products)



def one_stage(code, erased, wanted=None):
    """The pattern's memoized decode program as one stage: each decoded cell's
    coefficient per read cell, composed through any intermediate steps."""
    read, program, _ = erasure_codes._decode_matrix(code, erased, wanted)
    values = [{n: 1} for n in range(len(read) * code.r)]
    direct = []
    for cell, terms in program:
        total = {}
        for n, coeff in terms:
            for m, inner in values[n].items():
                total[m] = total.get(m, 0) ^ gf256.gf_mul(coeff, inner)
        values.append({m: coeff for m, coeff in total.items() if coeff})
        if cell is not None:
            direct.append((cell, tuple(sorted(values[-1].items()))))
    return direct


def xors(program):
    """XORs a program applies: one fewer than its terms, per step."""
    return sum(len(terms) - 1 for _, terms in program if terms)


def costs(program):
    """A program's GF(2^8) products and the values it turns into bytes."""
    scaled = [n for _, terms in program for n, coeff in terms if coeff != 1]
    return len(scaled), len(set(scaled))


@pytest.mark.parametrize("p, direct, bound", [(7, 4_590, 1_680), (11, 47_430, 11_880)])
def test_rdp_programs_peel_with_fewer_xors(p, direct, bound):
    # Each RDP decoded cell ends a chain of row and diagonal checks, so
    # writing it from the check it is the last unknown of, whose other cells
    # are read or already written, beats summing it from the read cells: at
    # p=7, 72 terms a two-column pattern where one stage takes 97-212.
    code = rdp_code(p)
    patterns = list(combinations(range(p + 1), 2))
    programs = [erasure_codes._decode_matrix(code, erased)[1] for erased in patterns]
    assert sum(map(xors, map(one_stage, repeat(code), patterns))) == direct
    assert sum(map(xors, programs)) <= bound
    assert not any(cell is None for program in programs for cell, _ in program)


def inverse_one_stage(code, erased):
    """Each unread cell's coefficient per read cell, from the inverse of the
    parity checks over the unread cells (in GF(2^8), minus is plus)."""
    read, r = expected_reads(code, erased), code.r
    unknown = [(i, c) for c in range(code.k) if c not in read for i in range(r)]
    checks = erasure_codes._parity_checks(code)
    inverse = gf256.gf_mat_inv([[check.get(cell, 0) for cell in unknown] for check in checks])
    at = {(i, c): x * r + i for x, c in enumerate(read) for i in range(r)}
    out = {}
    for cell, row in zip(unknown, inverse):
        total = {}
        for factor, check in zip(row, checks):
            for other, coeff in check.items():
                if other in at:
                    total[at[other]] = total.get(at[other], 0) ^ gf256.gf_mul(factor, coeff)
        out[cell] = tuple(sorted((n, coeff) for n, coeff in total.items() if coeff))
    return out


@pytest.mark.parametrize(
    "code",
    [rdp_code(3), rdp_code(5), rdp_code(7), rdp_code(11), rdp_code(13), rs_code(3, 1), rs_code(6, 1)],
    ids=["rdp3", "rdp5", "rdp7", "rdp11", "rdp13", "rs3,1", "rs6,1"],
)
def test_xor_code_programs_decode_what_the_inverse_does_in_no_more_terms(code):
    # Timing-free, over every pattern of at most delta columns and every
    # wanted subset: each term is a read cell or an earlier step, the program
    # composed to one stage writes each wanted cell as the inverse does, and
    # peeling never costs more terms than that one stage.
    for size in range(1, code.delta + 1):
        for erased in combinations(range(code.k), size):
            expected = inverse_one_stage(code, erased)
            for n in range(1, size + 1):
                for wanted in combinations(erased, n):
                    read, program, scaled = erasure_codes._decode_matrix(code, erased, wanted)
                    assert scaled == frozenset()
                    reads = len(read) * code.r
                    for step, (_, terms) in enumerate(program):
                        assert all(0 <= m < reads + step and coeff == 1 for m, coeff in terms)
                    composed = one_stage(code, erased, wanted)
                    assert sorted(composed) == [
                        (cell, expected[cell]) for cell in sorted(expected) if cell[1] in wanted
                    ]
                    assert sum(len(terms) for _, terms in program) <= sum(len(terms) for _, terms in composed)
                    if code.kind == "rdp" and len(wanted) == 2:  # every unread cell is wanted
                        assert all(cell is not None for cell, _ in program), (erased, wanted)
    if code == rdp_code(7):
        # P2 from the data alone: peeling through the row parities takes 72
        # terms, the one stage 61, and the one stage is kept.
        program = erasure_codes._decode_matrix(code, (7,), (7,))[1]
        assert sum(len(terms) for _, terms in program) == 61


def test_a_stalled_peel_decodes_by_the_inverse(monkeypatch):
    # Three XOR checks over three erased columns, each with at least two of
    # them: no check has one unknown left, so the inverse writes every cell.
    checks = [{(0, 0): 1, (0, 2): 1, (0, 3): 1}, {(0, 1): 1, (0, 3): 1, (0, 4): 1}]
    checks.append({(0, c): 1 for c in range(5)})
    monkeypatch.setattr(erasure_codes, "_parity_checks", lambda code: checks)
    erasure_codes._decode_matrix.cache_clear()
    try:
        out, reads = rs_code(5, 3).decode([[5, 9, None, None, None]], (2, 3, 4))
        assert (out, reads) == ([[5, 9, 5, 0, 9]], (0, 1))
        program = erasure_codes._decode_matrix(rs_code(5, 3), (2, 3, 4))[1]
        assert [cell for cell, _ in program] == [(0, 2), (0, 3), (0, 4)]
    finally:
        erasure_codes._decode_matrix.cache_clear()


@pytest.mark.parametrize("k,delta", [(6, 2), (8, 3), (8, 4), (9, 4)])
def test_rs_programs_make_no_more_products_or_conversions_than_one_stage(k, delta):
    code = rs_code(k, delta)
    for size in range(1, delta + 1):
        for erased in combinations(range(k), size):
            program = erasure_codes._decode_matrix(code, erased)[1]
            assert all(map(operator.le, costs(program), costs(one_stage(code, erased)))), erased


def test_rdp_11_multi_lane_round_trips_every_pattern():
    # Cells of several lanes, so the cells a peeled step writes and later steps read are wide ints.
    code = rdp_code(11)
    singles = [code.encode(random_data(10, 10, seed=f"rdp11-{lane}")) for lane in range(5)]
    packed = pack(singles)
    for size in range(3):
        for erased in combinations(range(12), size):
            out, reads = code.decode(erase(packed, erased), erased)
            assert unpack(out, len(singles)) == singles, erased
            assert sorted(reads) == expected_reads(code, erased)


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
    # A label is DATA or a str that parity_label gives back: no int or None, and
    # no leading zero or non-ASCII digit, though int reads both.
    for label in (1, None, "P01", "P\u0661", "P", "P-1", " P1", b"P1", ["P1"]):
        with pytest.raises(ParamError):
            reconstruction_rule(2, (label,))
    # lost is an iterable of labels, and delta an int: not a bool, which would
    # answer as 1, nor a float.
    for delta, lost in [(2, 5), (2, None), (True, (DATA,)), (2.0, (DATA,)), ([2], (DATA,))]:
        with pytest.raises(ParamError):
            reconstruction_rule(delta, lost)
    # A delta no code has is refused before its parity indices are built.
    with pytest.raises(ParamError, match=f"^delta = {2**70} parity columns exceeds the limit of 254"):
        reconstruction_rule(2**70, (DATA,))


def test_canonical_labels_order():
    assert canonical_labels(6, 2) == (DATA, DATA, DATA, DATA, P1, P2)


def test_canonical_labels_refuse_a_delta_outside_0_to_k():
    # k is bounded by the label budget, not by 255: rdp with p = 257 has k = 258.
    assert canonical_labels(258, 2) == (DATA,) * 256 + (P1, P2)
    for k, delta in ((5, -1), (4, 5)):
        with pytest.raises(ParamError, match=rf"^delta must be an int in 0\.\.{k}, got {delta}$"):
            canonical_labels(k, delta)
    with pytest.raises(ParamError, match="^k = 1180591620717411303424 labels exceeds the limit"):
        canonical_labels(2**70, 2)


def rule_by_definition(delta, lost):
    """All surviving data plus the d lowest-indexed surviving parities, d data lost."""
    if not lost:
        return set()
    surviving = [parity_label(i) for i in range(1, delta + 1) if parity_label(i) not in lost]
    return {DATA, *surviving[: lost.count(DATA)]}


def test_memoized_rule_equals_its_definition_for_every_label_tuple():
    for delta in range(1, 5):
        labels = (DATA,) + tuple(parity_label(i) for i in range(1, delta + 1))
        for size in range(delta + 1):
            for lost in product(labels, repeat=size):
                parities = [label for label in lost if label != DATA]
                for _ in range(2):
                    if len(set(parities)) < len(parities):
                        with pytest.raises(ParamError, match="lost twice"):
                            reconstruction_rule(delta, lost)
                    else:
                        assert reconstruction_rule(delta, lost) == rule_by_definition(delta, lost)
                        assert reconstruction_rule(delta, list(lost)) == rule_by_definition(delta, lost)


def test_rule_refusals_are_not_memoized_and_the_memo_is_bounded():
    for delta, lost in [(2, (DATA, DATA, DATA)), (2, (P1, P1)), (2, ("X",)), (2, (P3,))]:
        for _ in range(2):
            with pytest.raises(ParamError):
                reconstruction_rule(delta, lost)
    before = erasure_codes._rule.cache_info()
    assert reconstruction_rule(2, iter([DATA])) == {DATA, P1}
    assert reconstruction_rule(2, [DATA]) is reconstruction_rule(2, (DATA,))
    assert erasure_codes._rule.cache_info().hits >= before.hits + 2
    assert 0 < erasure_codes._rule.cache_info().maxsize <= 1 << 16
    # The memo keys on delta's type, so a float delta still fails as it did
    # before any answer was cached, rather than reading the int's answer.
    with pytest.raises(ParamError, match="delta must be an int"):
        reconstruction_rule(2.0, (DATA,))

"""Systematic horizontal MDS codes over bytes, with rule-faithful decoding.

Two codes are provided. The row-diagonal code ("rdp") stores a (p-1) x (p+1)
array for prime p: columns 0..p-2 hold data, column p-1 holds row parities
(P1), and column p holds diagonal parities (P2) taken over the first p
columns, where diagonal d collects cells (i, j) with (i + j) mod p == d and
diagonal p-1 is left unused. The Reed-Solomon code ("rs") is a depth-1 code
for any 2 <= k <= 255 and 1 <= delta < k whose parity columns are
column-normalized Cauchy combinations of the data over GF(2^8); its first
parity row is all-ones, so delta=1 degenerates to plain XOR parity.

Column labels are "D" for data and "P1".."P<delta>" for parity. For delta=2,
P1 plays the row-parity role and P2 the diagonal-parity role.

Decoding is driven by a label-level reconstruction rule: with d lost data
columns, read every surviving data column plus the d lowest-indexed surviving
parity columns. Decoders touch only the columns the rule names; surviving
columns outside the rule (for example the diagonal parity when one data
column is lost) are recomputed in memory, never read. Both decoders accept
None placeholders in the columns they do not read and report exactly which
columns they read.

Grids are lists of rows; erasures are given as column indices. A cell is a
Python int that packs one byte per lane, lane i in byte i (little-endian),
so one call encodes or decodes many independent codewords that share an
erasure pattern: the simulator batches every instance with the same pattern
into one call. Adding cells is XOR; multiplying a wider cell by a GF(2^8)
constant translates its bytes through that constant's table, and a plain
byte, the 1-lane case, is multiplied with gf_mul. Neither code needs to know
the lane count: lanes above a cell's highest set byte are zero, and zero
stays zero under every product. The RS parity matrix is cached per
(k, delta) and the decode inverse per erasure pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .designs import _check_ints
from .errors import ParamError, TooManyErasures
from .gf256 import gf_div, gf_inv, gf_mat_inv, gf_mul, gf_mul_table

DATA = "D"


def parity_label(index: int) -> str:
    return f"P{index}"


def parity_index(label: str) -> int | None:
    """The 1-based parity index of a label, or None for the data label."""
    if label == DATA:
        return None
    if label.startswith("P") and label[1:].isdigit():
        return int(label[1:])
    raise ParamError(f"unknown column label {label!r}")


def canonical_labels(k: int, delta: int) -> tuple[str, ...]:
    """k-delta data labels followed by P1..Pdelta."""
    return (DATA,) * (k - delta) + tuple(parity_label(i) for i in range(1, delta + 1))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d != 0 for d in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class HorizontalCode:
    """A systematic code with all-data and all-parity columns.

    kind is "rdp" or "rs"; k is the column count, delta the parity-column
    count, and r the number of rows in one codeword (p-1 for rdp, 1 for rs).
    """

    kind: str
    k: int
    delta: int
    r: int

    @property
    def labels(self) -> tuple[str, ...]:
        return canonical_labels(self.k, self.delta)

    @property
    def p(self) -> int:
        if self.kind != "rdp":
            raise ParamError("only the rdp code has a prime parameter")
        return self.k - 1

    def encode(self, data: list[list[int]]) -> list[list[int]]:
        if self.kind == "rdp":
            return rdp_encode(data, self.p)
        return rs_encode(data, self.k, self.delta)

    def decode(self, rows: list[list[int]], erased) -> tuple[list[list[int]], tuple[int, ...]]:
        if self.kind == "rdp":
            return rdp_decode(rows, self.p, erased)
        return rs_decode(rows, self.k, self.delta, erased)


def rdp_code(p: int) -> HorizontalCode:
    _check_ints(p=p)
    if not is_prime(p) or p < 3:
        raise ParamError(f"rdp needs a prime p >= 3, got {p}")
    return HorizontalCode(kind="rdp", k=p + 1, delta=2, r=p - 1)


def rs_code(k: int, delta: int) -> HorizontalCode:
    _check_ints(k=k, delta=delta)
    if not 2 <= k <= 255:
        raise ParamError(f"rs needs 2 <= k <= 255, got k={k}")
    if not 1 <= delta < k:
        raise ParamError(f"rs needs 1 <= delta < k, got delta={delta}")
    return HorizontalCode(kind="rs", k=k, delta=delta, r=1)


# Each code kind's constructor and parameter names, in order: HorizontalCode
# attributes, group descriptor keys and CLI flags alike.
CODE_KINDS = {"rdp": (rdp_code, ("p",)), "rs": (rs_code, ("k", "delta"))}


def reconstruction_rule(delta: int, lost) -> frozenset[str]:
    """Column labels that must be read in full to rebuild the lost columns.

    lost is a multiset of labels of the erased columns (at most delta). With
    d lost data labels, the answer is all surviving data plus the d
    lowest-indexed surviving parity labels. Losing nothing requires reading
    nothing. Every surviving column is either read in full or untouched.
    """
    lost = list(lost)
    if len(lost) > delta:
        raise ParamError(f"{len(lost)} losses exceed delta={delta}")
    lost_parities = []
    data_losses = 0
    for label in lost:
        idx = parity_index(label)
        if idx is None:
            data_losses += 1
        else:
            if not 1 <= idx <= delta:
                raise ParamError(f"label {label!r} outside P1..P{delta}")
            if idx in lost_parities:
                raise ParamError(f"parity column {label} lost twice")
            lost_parities.append(idx)
    if not lost:
        return frozenset()
    surviving = [i for i in range(1, delta + 1) if i not in lost_parities]
    need = {DATA}
    need.update(parity_label(i) for i in surviving[:data_losses])
    return frozenset(need)


def _check_grid(rows, r: int, k: int):
    if len(rows) != r or any(len(row) != k for row in rows):
        raise ParamError(f"expected a {r} x {k} grid")


def _plan_reads(k: int, delta: int, erased: list[int]) -> list[int]:
    """The surviving column indices whose labels the reconstruction rule names."""
    labels = canonical_labels(k, delta)
    need = reconstruction_rule(delta, [labels[c] for c in erased])
    return [c for c in range(k) if c not in erased and labels[c] in need]


def rdp_encode(data: list[list[int]], p: int) -> list[list[int]]:
    """Encode a (p-1) x (p-1) data grid into a (p-1) x (p+1) codeword."""
    if not is_prime(p) or p < 3:
        raise ParamError(f"rdp needs a prime p >= 3, got {p}")
    _check_grid(data, p - 1, p - 1)
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


def rdp_decode(rows: list[list[int]], p: int, erased) -> tuple[list[list[int]], tuple[int, ...]]:
    """Recover up to two erased columns; returns (codeword, columns read).

    Input cells in erased or unread columns may be None; only the columns the
    reconstruction rule names are consulted.
    """
    if not is_prime(p) or p < 3:
        raise ParamError(f"rdp needs a prime p >= 3, got {p}")
    k, r = p + 1, p - 1
    erased = sorted(set(erased))
    if len(erased) > 2:
        raise TooManyErasures(f"rdp recovers at most 2 columns, got {len(erased)}")
    if any(not 0 <= c < k for c in erased):
        raise ParamError(f"erased columns out of range: {erased}")
    _check_grid(rows, r, k)
    if not erased:
        return [list(row) for row in rows], ()
    read = _plan_reads(k, 2, erased)
    out = [[rows[i][c] if c in read else None for c in range(k)] for i in range(r)]
    for c in read:
        if any(out[i][c] is None for i in range(r)):
            raise ParamError(f"column {c} must be readable but holds None")

    inner_unknown = [c for c in range(p) if out[0][c] is None]
    if len(inner_unknown) == 2:
        _rdp_solve_pair(out, p, *inner_unknown)
    elif len(inner_unknown) == 1:
        # One unknown among columns 0..p-1: every row XORs to zero there.
        c = inner_unknown[0]
        for i in range(r):
            acc = 0
            for j in range(p):
                if j != c:
                    acc ^= out[i][j]
            out[i][c] = acc
    if out[0][p] is None:
        diag = [0] * p
        for i in range(r):
            for j in range(p):
                diag[(i + j) % p] ^= out[i][j]
        for i in range(r):
            out[i][p] = diag[i]
    return out, tuple(read)


def _rdp_solve_pair(out: list[list[int]], p: int, a: int, b: int):
    """Fill two unknown columns a < b among 0..p-1 via row/diagonal chaining.

    Works on a virtual p-th all-zero row, under which every diagonal meets
    every column exactly once. The missing diagonal's parity equals the XOR
    of all stored diagonal parities because all p diagonals together cover
    cells whose row-wise XOR is zero.
    """
    r = p - 1
    row_synd = []
    for i in range(r):
        acc = 0
        for j in range(p):
            if j != a and j != b:
                acc ^= out[i][j]
        row_synd.append(acc)
    q_col = [out[i][p] for i in range(r)]
    diag_synd = list(q_col)
    missing = 0
    for value in q_col:
        missing ^= value
    diag_synd.append(missing)
    for i in range(r):
        for j in range(p):
            if j != a and j != b:
                diag_synd[(i + j) % p] ^= out[i][j]

    col_a = [None] * p
    col_b = [None] * p
    col_a[p - 1] = 0
    col_b[p - 1] = 0
    step = (b - a) % p
    i = (b - 1 - a) % p
    while i != p - 1:
        d = (i + a) % p
        col_a[i] = diag_synd[d] ^ col_b[(d - b) % p]
        col_b[i] = row_synd[i] ^ col_a[i]
        i = (i + step) % p
    for i in range(r):
        out[i][a] = col_a[i]
        out[i][b] = col_b[i]


def rs_parity_matrix(k: int, delta: int) -> list[list[int]]:
    """delta x (k-delta) Cauchy matrix, column-normalized so row one is all-ones.

    Cell (i, j) of the raw matrix is 1/(x_i + y_j) with x_i = i and
    y_j = delta + j; every square submatrix of such a matrix is nonsingular,
    and dividing each column by its first entry preserves that.
    """
    raw = [
        [gf_inv(i ^ (delta + j)) for j in range(k - delta)] for i in range(delta)
    ]
    return [
        [gf_div(raw[i][j], raw[0][j]) for j in range(k - delta)]
        for i in range(delta)
    ]


@lru_cache(maxsize=64)
def _cached_parity_matrix(k: int, delta: int) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rs_parity_matrix(k, delta)))


@lru_cache(maxsize=1024)
def _decode_inverse(
    k: int, delta: int, unknown_data: tuple[int, ...], parity_rows: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Inverse of the parity rows' coefficients on the unknown data columns."""
    matrix = _cached_parity_matrix(k, delta)
    system = [[matrix[i][c] for c in unknown_data] for i in parity_rows]
    return tuple(map(tuple, gf_mat_inv(system)))


def _combine(coeffs, cells) -> int:
    """Sum of coeffs[j] * cells[j] over GF(2^8), lane by lane."""
    acc = 0
    for coeff, cell in zip(coeffs, cells):
        if cell < 256:
            acc ^= gf_mul(coeff, cell)
        elif coeff == 1:
            acc ^= cell
        elif coeff:
            raw = cell.to_bytes((cell.bit_length() + 7) // 8, "little")
            acc ^= int.from_bytes(raw.translate(gf_mul_table(coeff)), "little")
    return acc


def rs_encode(data: list[list[int]], k: int, delta: int) -> list[list[int]]:
    """Append delta parity columns to rows of k-delta data cells."""
    rs_code(k, delta)  # validates k and delta
    if any(len(row) != k - delta for row in data):
        raise ParamError(f"data rows must have {k - delta} symbols")
    matrix = _cached_parity_matrix(k, delta)
    return [
        list(row) + [_combine(coeffs, row) for coeffs in matrix]
        for row in data
    ]


def rs_decode(rows: list[list[int]], k: int, delta: int, erased) -> tuple[list[list[int]], tuple[int, ...]]:
    """Recover up to delta erased columns; returns (codeword, columns read).

    Input cells in erased or unread columns may be None; only the columns the
    reconstruction rule names are consulted.
    """
    rs_code(k, delta)
    erased = sorted(set(erased))
    if len(erased) > delta:
        raise TooManyErasures(f"rs with delta={delta} recovers at most {delta} columns")
    if any(not 0 <= c < k for c in erased):
        raise ParamError(f"erased columns out of range: {erased}")
    if any(len(row) != k for row in rows):
        raise ParamError(f"expected rows of {k} symbols")
    if not erased:
        return [list(row) for row in rows], ()
    read = _plan_reads(k, delta, erased)
    read_set = set(read)
    for c in read:
        if any(row[c] is None for row in rows):
            raise ParamError(f"column {c} must be readable but holds None")

    data_cols = k - delta
    matrix = _cached_parity_matrix(k, delta)
    unknown_data = tuple(c for c in range(data_cols) if c not in read_set)
    out = [[row[c] if c in read_set else None for c in range(k)] for row in rows]
    if unknown_data:
        known_data = [c for c in range(data_cols) if c in read_set]
        parity_rows = tuple(c - data_cols for c in read if c >= data_cols)
        inverse = _decode_inverse(k, delta, unknown_data, parity_rows)
        known_coeffs = [[matrix[i][c] for c in known_data] for i in parity_rows]
        for row in out:
            known = [row[c] for c in known_data]
            rhs = [
                row[data_cols + i] ^ _combine(coeffs, known)
                for i, coeffs in zip(parity_rows, known_coeffs)
            ]
            for c, coeffs in zip(unknown_data, inverse):
                row[c] = _combine(coeffs, rhs)
    for row in out:
        for i in range(delta):
            if row[data_cols + i] is None:
                row[data_cols + i] = _combine(matrix[i], row[:data_cols])
    return out, tuple(read)

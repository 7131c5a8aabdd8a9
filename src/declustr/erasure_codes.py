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
parity columns. The decoder touches only the columns the rule names;
surviving columns outside the rule (for example the diagonal parity when one
data column is lost) are recomputed in memory, never read. It accepts None
placeholders in the columns it does not read and reports exactly which
columns it read.

One decoder serves both codes; rdp_decode and rs_decode are two names for
it. Each kind states its r*delta parity checks, sums over its r x k cells
that are zero on every codeword: rdp's row and diagonal checks, rs's
parity-matrix rows. The rule leaves delta columns unread, so per erasure
pattern the checks make a square system in the unread cells; its inverse,
memoized, writes each as a sum of coefficient * read cell. rdp's
coefficients are all 0 or 1 and a product by 1 is skipped, so rdp decodes
with XOR alone.

Every entry point takes a HorizontalCode, whose fields are checked once,
when it is built. Grids are lists of rows; erasures are given as column
indices. A cell is a Python int that packs one byte per lane, lane i in byte
i (little-endian), so one call encodes or decodes many independent codewords
that share an erasure pattern: the simulator batches every instance with the
same pattern into one call. Adding cells is XOR; multiplying a wider cell by
a GF(2^8) constant translates its bytes through that constant's table, and
encode multiplies a plain byte, the 1-lane case, with gf_mul. Neither code
needs to know the lane count: lanes above a cell's highest set byte are
zero, and zero stays zero under every product. The RS parity matrix is
cached per (k, delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .designs import _check_ints
from .errors import InvariantError, ParamError, TooManyErasures
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
    return all(n % d != 0 for d in range(2, isqrt(n) + 1))


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

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in CODE_KINDS:
            raise ParamError(f"unknown code kind {self.kind!r}, not one of {', '.join(CODE_KINDS)}")
        _check_ints(k=self.k, delta=self.delta, r=self.r)
        if self.kind == "rdp":
            if not is_prime(self.k - 1) or self.k < 4:
                raise ParamError(f"rdp needs a prime p >= 3, got {self.k - 1}")
            shape = (2, self.k - 2)
        else:
            if not 2 <= self.k <= 255:
                raise ParamError(f"rs needs 2 <= k <= 255, got k={self.k}")
            if not 1 <= self.delta < self.k:
                raise ParamError(f"rs needs 1 <= delta < k, got delta={self.delta}")
            shape = (self.delta, 1)
        got = (self.delta, self.r)
        if got != shape:
            raise ParamError(f"{self.kind} with k={self.k} needs (delta, r) = {shape}, got {got}")

    @property
    def labels(self) -> tuple[str, ...]:
        return canonical_labels(self.k, self.delta)

    @property
    def p(self) -> int:
        if self.kind != "rdp":
            raise ParamError("only the rdp code has a prime parameter")
        return self.k - 1

    def encode(self, data: list[list[int]]) -> list[list[int]]:
        return (rdp_encode if self.kind == "rdp" else rs_encode)(self, data)

    def decode(self, rows: list[list[int]], erased) -> tuple[list[list[int]], tuple[int, ...]]:
        return _decode(self, rows, erased)


def rdp_code(p: int) -> HorizontalCode:
    _check_ints(p=p)
    return HorizontalCode(kind="rdp", k=p + 1, delta=2, r=p - 1)


def rs_code(k: int, delta: int) -> HorizontalCode:
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


def rdp_encode(code: HorizontalCode, data: list[list[int]]) -> list[list[int]]:
    """Encode a (p-1) x (p-1) data grid into a (p-1) x (p+1) codeword."""
    p = code.p
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


def _combine(coeffs, cells) -> int:
    """Sum of coeffs[j] * cells[j] over GF(2^8), lane by lane."""
    acc = 0
    for coeff, cell in zip(coeffs, cells):
        if cell < 256:
            acc ^= gf_mul(coeff, cell)
        elif coeff == 1:
            acc ^= cell
        elif coeff:
            acc ^= _scaled(coeff, cell)
    return acc


def _scaled(coeff: int, cell: int) -> int:
    """coeff * cell over GF(2^8), lane by lane, by one translate."""
    raw = cell.to_bytes((cell.bit_length() + 7) // 8, "little")
    return int.from_bytes(raw.translate(gf_mul_table(coeff)), "little")


def rs_encode(code: HorizontalCode, data: list[list[int]]) -> list[list[int]]:
    """Append delta parity columns to rows of k-delta data cells."""
    data_cols = code.k - code.delta
    if any(len(row) != data_cols for row in data):
        raise ParamError(f"data rows must have {data_cols} symbols")
    matrix = _cached_parity_matrix(code.k, code.delta)
    return [
        list(row) + [_combine(coeffs, row) for coeffs in matrix]
        for row in data
    ]


def _decode(code: HorizontalCode, rows, erased) -> tuple[list[list[int]], tuple[int, ...]]:
    """Recover up to delta erased columns; returns (codeword, columns read).

    Input cells in erased or unread columns may be None; only the columns the
    reconstruction rule names are consulted.
    """
    erased = tuple(sorted(set(erased)))
    if len(erased) > code.delta:
        raise TooManyErasures(f"{code.kind} recovers at most {code.delta} columns, got {len(erased)}")
    if any(not 0 <= c < code.k for c in erased):
        raise ParamError(f"erased columns out of range: {list(erased)}")
    _check_grid(rows, code.r, code.k)
    if not erased:
        return [list(row) for row in rows], ()
    read, matrix = _decode_matrix(code, erased)
    cells = [row[c] for c in read for row in rows]
    if None in cells:
        raise ParamError(f"column {read[cells.index(None) // code.r]} must be readable but holds None")
    out = [list(row) for row in rows]
    for (i, c), terms in matrix:
        acc = 0
        for n, coeff in terms:
            acc ^= cells[n] if coeff == 1 else _scaled(coeff, cells[n])
        out[i][c] = acc
    return out, read


# Kept while perfbench's tracer spans these names rather than HorizontalCode.decode.
rdp_decode = rs_decode = _decode


def _parity_checks(code: HorizontalCode) -> list[dict[tuple[int, int], int]]:
    """The code's r*delta checks, each {(row, column): coefficient}; every codeword sums to 0."""
    r, k = code.r, code.k
    if code.kind == "rdp":
        # Row i over columns 0..p-1, then diagonal d: its parity (d, p) and
        # the cells (i, c) of columns 0..p-1 with (i + c) mod p == d.
        p = code.p
        return [{(i, c): 1 for c in range(p)} for i in range(r)] + [
            {(d, p): 1, **{(i, (d - i) % p): 1 for i in range(r)}} for d in range(r)
        ]
    data_cols = k - code.delta
    return [
        {**{(0, c): coeff for c, coeff in enumerate(coeffs)}, (0, data_cols + i): 1}
        for i, coeffs in enumerate(_cached_parity_matrix(k, code.delta))
    ]


@lru_cache(maxsize=1024)
def _decode_matrix(code: HorizontalCode, erased: tuple[int, ...]):
    """One erasure pattern's read columns and decode matrix.

    The matrix pairs each unread cell (i, c) with the (n, coefficient) terms
    that sum to it, read cell n being inner row n % r of read column n // r.
    """
    r, labels = code.r, code.labels
    need = reconstruction_rule(code.delta, [labels[c] for c in erased])
    read = tuple(c for c in range(code.k) if c not in erased and labels[c] in need)
    unknown = [(i, c) for c in range(code.k) if c not in read for i in range(r)]
    checks = _parity_checks(code)
    try:
        inverse = gf_mat_inv([[check.get(cell, 0) for cell in unknown] for check in checks])
    except ParamError:
        raise InvariantError(
            f"{code} cannot decode erasures {erased}: its parity checks are singular there"
        ) from None
    at = {(i, c): x * r + i for x, c in enumerate(read) for i in range(r)}
    known = [[(at[cell], coeff) for cell, coeff in check.items() if cell in at] for check in checks]
    matrix = []
    for cell, row in zip(unknown, inverse):
        terms = [0] * len(at)
        for factor, check in zip(row, known):
            for n, coeff in check if factor else ():
                terms[n] ^= coeff if factor == 1 else gf_mul(factor, coeff)
        matrix.append((cell, tuple((n, coeff) for n, coeff in enumerate(terms) if coeff)))
    return read, tuple(matrix)

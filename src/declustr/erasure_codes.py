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
columns it read. The rule depends only on delta and the lost labels, so its
answers are memoized per label tuple: a reconstruction plan asks it once per
extended row, and all but the first few asks are cache hits.

One decoder serves both codes, and encodes rdp too: encoding is decoding
with the delta parity columns erased. Each kind states its r*delta parity
checks, sums over its r x k cells that are zero on every codeword: rdp's row
and diagonal checks, which are all of its definition, and rs's parity-matrix
rows. The rule leaves delta columns unread, so per erasure pattern the
checks make a square system in the unread cells. Its inverse, memoized as a
decode program, writes each as a sum of coefficient * read cell, or in two
stages when that has fewer terms: each check's syndrome over the read cells,
then each unread cell from the syndromes, which roughly halves rdp's XORs.
rdp's coefficients are all 0 or 1 and a product by 1 is skipped, so rdp
encodes and decodes with XOR alone.

Every entry point takes a HorizontalCode, whose fields are checked once,
when it is built. Grids are lists of rows; erasures are given as column
indices. A cell is a Python int that packs one byte per lane, lane i in byte
i (little-endian), so one call encodes or decodes many independent codewords
that share an erasure pattern: the simulator batches every instance with the
same pattern into one call. Adding cells is XOR; multiplying a wider cell by
a GF(2^8) constant translates its bytes through that constant's table (a
decode call turns each read cell into bytes at most once), and rs_encode
multiplies a plain byte, the 1-lane case, with gf_mul. Neither code
needs to know the lane count: lanes above a cell's highest set byte are
zero, and zero stays zero under every product. The RS parity matrix is
cached per (k, delta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .designs import MAX_COVERAGE_SUBSETS, check_budget, check_ints, check_iterable
from .errors import InvariantError, ParamError, TooManyErasures, shown
from .gf256 import gf_div, gf_inv, gf_mat_inv, gf_mul, gf_mul_table

DATA = "D"

# Most parity columns a code has: rs with k = 255 and delta = k - 1.
MAX_DELTA = 254

# Most digits a parity label's index has: parity_label writes at most MAX_COVERAGE_SUBSETS.
_LABEL_DIGITS = len(str(MAX_COVERAGE_SUBSETS))


def parity_label(index: int) -> str:
    check_ints(index=index, low=1, high=MAX_COVERAGE_SUBSETS)
    return f"P{index}"


def parity_index(label: str) -> int | None:
    """The 1-based parity index of a label, or None for the data label.

    The index is written as parity_label writes it, in ASCII digits with no
    leading zero: "P01" and "P\u0661", which int reads as 1, are refused like
    a non-str, and so is an index longer than any parity_label writes, before
    int reads it.
    """
    if label == DATA:
        return None
    digits = label[1:] if type(label) is str and label[:1] == "P" else ""
    if digits.isdigit() and digits.isascii() and digits[0] != "0" and len(digits) <= _LABEL_DIGITS:
        return int(digits)
    raise ParamError(f"unknown column label {shown(label)}")


def canonical_labels(k: int, delta: int) -> tuple[str, ...]:
    """k-delta data labels followed by P1..Pdelta."""
    check_ints(k=k)
    check_budget("k", k, "labels")
    check_ints(delta=delta, low=0, high=k)
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
            raise ParamError(f"unknown code kind {shown(self.kind)}, not one of {', '.join(CODE_KINDS)}")
        check_ints(k=self.k, delta=self.delta, r=self.r)
        if self.kind == "rdp":
            if not is_prime(self.k - 1) or self.k < 4:
                raise ParamError(f"rdp needs a prime p >= 3, got {shown(self.k - 1)}")
            shape = (2, self.k - 2)
        else:
            if not 2 <= self.k <= 255:
                raise ParamError(f"rs needs 2 <= k <= 255, got k={shown(self.k)}")
            if not 1 <= self.delta < self.k:
                raise ParamError(f"rs needs 1 <= delta < k, got delta={shown(self.delta)}")
            shape = (self.delta, 1)
        if (self.delta, self.r) != shape:
            raise ParamError(
                f"{self.kind} with k={self.k} needs (delta, r) = {shape}, "
                f"got ({shown(self.delta)}, {shown(self.r)})"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return canonical_labels(self.k, self.delta)

    @property
    def p(self) -> int:
        if self.kind != "rdp":
            raise ParamError("only the rdp code has a prime parameter")
        return self.k - 1

    def encode(self, data: list[list[int]]) -> list[list[int]]:
        return (rs_encode if self.kind == "rs" else _encode)(self, data)

    def decode(
        self, rows: list[list[int]], erased, wanted=None
    ) -> tuple[list[list[int]], tuple[int, ...]]:
        return _decode(self, rows, erased, wanted)


def rdp_code(p: int) -> HorizontalCode:
    check_ints(p=p)
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
    Answers are memoized per (delta, tuple(lost)); refusals are not, so a bad
    delta or label raises on every call.
    """
    try:
        return _rule(delta, tuple(lost))
    except TypeError:  # lost not iterable, or delta or a label unhashable
        raise ParamError(
            f"the rule needs an int delta and an iterable of labels, got {shown(delta)}, {shown(lost)}"
        ) from None


# typed: a bool or float delta must be refused, not get an equal int delta's answer.
@lru_cache(maxsize=4096, typed=True)
def _rule(delta: int, lost: tuple[str, ...]) -> frozenset[str]:
    check_ints(delta=delta)
    # Refused before the delta parity indices are built: no code has more parities.
    check_budget("delta", delta, "parity columns", MAX_DELTA)
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
                raise ParamError(f"label {shown(label)} outside P1..P{delta}")
            if idx in lost_parities:
                raise ParamError(f"parity column {label} lost twice")
            lost_parities.append(idx)
    if not lost:
        return frozenset()
    surviving = [i for i in range(1, delta + 1) if i not in lost_parities]
    need = {DATA}
    need.update(parity_label(i) for i in surviving[:data_losses])
    return frozenset(need)


def _is_grid(rows, r: int | None, k: int) -> bool:
    """Whether `rows` holds r rows (any number when r is None) of k cells each."""
    try:
        return (r is None or len(rows) == r) and all(len(row) == k for row in rows)
    except TypeError:  # rows, or one of them, has no length
        return False


def _check_grid(rows, r: int, k: int):
    if not _is_grid(rows, r, k):
        raise ParamError(f"expected a {r} x {k} grid")


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
        if 0 <= cell < 256:  # a negative cell falls through, so a product by it raises
            acc ^= gf_mul(coeff, cell)
        elif coeff == 1:
            acc ^= cell
        elif coeff:
            acc ^= _scaled(coeff, _cell_bytes(cell))
    return acc


def _cell_bytes(cell: int) -> bytes:
    """A cell's bytes, lane 0 first, up to its highest nonzero lane; TypeError if it is no int."""
    return int.to_bytes(cell, (int.bit_length(cell) + 7) // 8, "little")


def _scaled(coeff: int, raw: bytes) -> int:
    """coeff * the cell whose bytes are raw, lane by lane, by one translate."""
    return int.from_bytes(raw.translate(gf_mul_table(coeff)), "little")


def rs_encode(code: HorizontalCode, data: list[list[int]]) -> list[list[int]]:
    """Append delta parity columns to rows of k-delta data cells."""
    data_cols = code.k - code.delta
    if not _is_grid(data, None, data_cols):
        raise ParamError(f"data rows must have {data_cols} symbols")
    matrix = _cached_parity_matrix(code.k, code.delta)
    try:
        return [list(row) + [_combine(coeffs, row) for coeffs in matrix] for row in data]
    except (TypeError, OverflowError):
        raise _bad_cell(((i, c), cell) for i, row in enumerate(data) for c, cell in enumerate(row)) from None


def _bad_cell(cells) -> ParamError:
    """Refuse cells a sum could not take, naming the first ((row, column), cell) not a non-negative int."""
    (i, c), cell = next((at, cell) for at, cell in cells if not isinstance(cell, int) or cell < 0)
    return ParamError(f"the cell in row {i}, column {c} must be a non-negative int, got {shown(cell)}")


def _decode(
    code: HorizontalCode, rows, erased, wanted=None
) -> tuple[list[list[int]], tuple[int, ...]]:
    """Recover up to delta erased columns; returns (codeword, columns read).

    Input cells in erased or unread columns may be None; only the columns the
    reconstruction rule names are consulted. With `wanted`, some of the
    erased columns, only their cells are decoded, by the pattern's program
    pruned to them, and the other unread cells are returned as given.
    """
    erased = check_iterable("erased columns", erased, "ints")
    if any(type(c) is not int for c in erased):  # exact ints only; sorted cannot order None and 0
        raise ParamError(f"erased columns out of range: {shown(list(erased))}")
    erased = tuple(sorted(set(erased)))
    if len(erased) > code.delta:
        raise TooManyErasures(f"{code.kind} recovers at most {code.delta} columns, got {len(erased)}")
    if any(not 0 <= c < code.k for c in erased):
        raise ParamError(f"erased columns out of range: {shown(list(erased))}")
    if wanted is not None:
        wanted = check_iterable("wanted columns", wanted, "erased columns")
        if not all(type(c) is int and c in erased for c in wanted):
            raise ParamError(
                f"wanted columns must be erased columns {list(erased)}, got {shown(wanted)}"
            )
        wanted = tuple(sorted(set(wanted)))
    _check_grid(rows, code.r, code.k)
    if not erased:
        return [list(row) for row in rows], ()
    read, program, scaled = _decode_matrix(code, erased, wanted)
    values = [row[c] for c in read for row in rows]
    if None in values:
        raise ParamError(f"column {read[values.index(None) // code.r]} must be readable but holds None")
    out = [list(row) for row in rows]
    try:
        # A read cell that some product scales is turned into bytes once per call.
        raw = {n: _cell_bytes(values[n]) for n in scaled}
        for cell, terms in program:
            acc = 0
            for n, coeff in terms:
                acc ^= values[n] if coeff == 1 else _scaled(coeff, raw[n])
            values.append(acc)
            if cell is not None:
                out[cell[0]][cell[1]] = acc
    except (TypeError, OverflowError):  # only a read cell can be no int, or negative
        raise _bad_cell(((i, c), row[c]) for c in read for i, row in enumerate(rows)) from None
    return out, read


def _encode(code: HorizontalCode, data: list[list[int]]) -> list[list[int]]:
    """Encode an r x (k-delta) data grid by decoding it with the parity columns erased.

    rdp_encode names it while perfbench's tracer spans that name, not HorizontalCode.encode."""
    _check_grid(data, code.r, code.k - code.delta)
    erased = range(code.k - code.delta, code.k)
    return _decode(code, [list(row) + [None] * code.delta for row in data], erased)[0]


# Kept while perfbench's tracer spans these names rather than HorizontalCode's methods.
rdp_decode = rs_decode = _decode
rdp_encode = _encode


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
def _decode_matrix(
    code: HorizontalCode, erased: tuple[int, ...], wanted: tuple[int, ...] | None = None
):
    """One erasure pattern's read columns, decode program and scaled read cells.

    The program's steps (cell, terms) each sum (n, coefficient) terms, value
    n being read cell n (inner row n % r of read column n // r), then each
    earlier step's value in turn. A step decodes its unread cell (i, c), or
    with cell None makes an intermediate value. The direct form is one stage,
    each unread cell from the read cells; the factored form first sums each
    used check's known part (its syndrome), then each unread cell from those
    with the inverse's coefficients. The factored form is kept only when it
    has fewer terms and no GF(2^8) products, so only read cells are ever
    scaled. With `wanted` (sorted erased columns), both forms are pruned to
    the cells of those columns and the syndromes they use.
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
    targets = [  # the unread cells to decode, each with its row of the inverse
        (cell, row) for cell, row in zip(unknown, inverse) if wanted is None or cell[1] in wanted
    ]
    direct = []
    for cell, row in targets:
        terms = [0] * len(at)
        for factor, check in zip(row, known):
            for n, coeff in check if factor else ():
                terms[n] ^= coeff if factor == 1 else gf_mul(factor, coeff)
        direct.append((cell, tuple((n, coeff) for n, coeff in enumerate(terms) if coeff)))
    # A check with no known cell has syndrome 0, and one no decoded cell uses is skipped.
    used = [q for q, check in enumerate(known) if check and any(row[q] for _, row in targets)]
    slot = {q: len(at) + x for x, q in enumerate(used)}
    factored = [(None, tuple(known[q])) for q in used] + [
        (cell, tuple((slot[q], factor) for q, factor in enumerate(row) if factor and q in slot))
        for cell, row in targets
    ]
    coeffs = [coeff for _, terms in factored for _, coeff in terms]
    if len(coeffs) < sum(len(terms) for _, terms in direct) and all(c == 1 for c in coeffs):
        return read, tuple(factored), frozenset()
    return read, tuple(direct), frozenset(n for _, terms in direct for n, c in terms if c != 1)
